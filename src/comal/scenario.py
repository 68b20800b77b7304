"""Benchmark catalog and world instantiation.

The catalog holds the eleven benchmark configurations (three figure-eight
mixes, three ring mixes, five merge penetration levels). Closed networks
start with vehicles evenly spaced at the equilibrium speed of the mean gap;
the merge starts empty and fills from seeded Poisson inflows. Everything is
a plain config value so variants and ablations are dataclass replacements.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import network as net_mod
from .network import NetworkSpec

TOPOLOGIES = ("ring", "figure_eight", "merge")


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark run: network, mix, horizon, noise, seed, and flags."""

    name: str
    topology: str
    horizon_s: float
    n_humans: int = 0
    n_cavs: int = 0
    penetration: float = 0.0  # merge only: CAV fraction of highway arrivals
    warmup_s: float = 20.0
    dt: float = 0.1
    seed: int = 0
    noise_std: float = 0.2  # human acceleration noise intensity, m/s^2
    speed_limit: float = 30.0
    vehicle_length_m: float = 5.0
    ring_length_m: float = 230.0
    loop_radius_m: float = 30.0
    highway_length_m: float = 600.0
    ramp_length_m: float = 100.0
    highway_inflow_vph: float = 2000.0
    ramp_inflow_vph: float = 300.0
    replan_interval_s: float = 1.0
    collab_max_rounds: int = 3
    perception_horizon_m: float = 100.0
    cav_placement: str = "even"  # "even" | "clustered"
    perception: bool = True
    memory: bool = True
    collaboration: bool = True

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if not self.horizon_s > self.warmup_s >= 0.0:
            raise ValueError("need horizon > warmup >= 0")
        if self.n_humans < 0 or self.n_cavs < 0:
            raise ValueError("vehicle counts must be >= 0")
        if not 0.0 <= self.penetration <= 1.0:
            raise ValueError("penetration must lie in [0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not self.replan_interval_s > 0:
            raise ValueError(f"replan_interval_s must be > 0, got {self.replan_interval_s}")
        if self.collab_max_rounds < 1:
            raise ValueError(f"collab_max_rounds must be >= 1, got {self.collab_max_rounds}")
        if self.perception_horizon_m < 0:
            raise ValueError(
                f"perception_horizon_m must be >= 0, got {self.perception_horizon_m}")
        if self.cav_placement not in ("even", "clustered"):
            raise ValueError(f"unknown cav_placement {self.cav_placement!r}")
        for key in ("speed_limit", "vehicle_length_m", "ring_length_m", "loop_radius_m",
                    "highway_length_m", "ramp_length_m", "highway_inflow_vph",
                    "ramp_inflow_vph"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")

    def replace(self, **kw) -> "ScenarioConfig":
        return dataclasses.replace(self, **kw)

    def all_human(self) -> "ScenarioConfig":
        """Baseline variant: same geometry and seeds, no controlled vehicles."""
        if self.topology == "merge":
            return self.replace(name=f"{self.name} (human)", penetration=0.0)
        return self.replace(name=f"{self.name} (human)",
                            n_humans=self.n_humans + self.n_cavs, n_cavs=0)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def catalog() -> list[ScenarioConfig]:
    """The benchmark table: names, horizons and vehicle mixes."""
    fe = [("FE 0", 13, 1), ("FE 1", 7, 7), ("FE 2", 0, 14)]
    ring = [("Ring 0", 21, 1), ("Ring 1", 19, 3), ("Ring 2", 11, 11)]
    pens = [0.10, 0.25, 1.0 / 3.0, 0.50, 0.90]
    out = [ScenarioConfig(name=n, topology="figure_eight", horizon_s=150.0,
                          n_humans=h, n_cavs=c) for n, h, c in fe]
    out += [ScenarioConfig(name=n, topology="ring", horizon_s=150.0,
                           n_humans=h, n_cavs=c) for n, h, c in ring]
    out += [ScenarioConfig(name=f"Merge {i}", topology="merge", horizon_s=75.0,
                           penetration=p) for i, p in enumerate(pens)]
    return out


def find(name: str) -> ScenarioConfig:
    """Catalog lookup, forgiving about case and separators."""
    key = name.lower().replace("-", " ").replace("_", " ").strip()
    for cfg in catalog():
        if cfg.name.lower() == key or cfg.name.lower().replace(" ", "") == key.replace(" ", ""):
            return cfg
    known = ", ".join(c.name for c in catalog())
    raise KeyError(f"unknown scenario {name!r}; known: {known}")


def apply_overrides(cfg: ScenarioConfig, overrides: dict) -> ScenarioConfig:
    """Apply a JSON-style override document to a catalog entry."""
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = set(overrides) - fields
    if unknown:
        raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
    return cfg.replace(**overrides)


def load_overrides(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("scenario override file must hold a JSON object")
    return doc


def build_network(cfg: ScenarioConfig) -> NetworkSpec:
    if cfg.topology == "ring":
        return net_mod.build_ring(cfg.ring_length_m, cfg.speed_limit)
    if cfg.topology == "figure_eight":
        return net_mod.build_figure_eight(cfg.loop_radius_m, cfg.speed_limit)
    return net_mod.build_merge(cfg.highway_length_m, cfg.ramp_length_m, cfg.speed_limit)


def _cav_indices(cfg: ScenarioConfig, total: int) -> set[int]:
    if cfg.n_cavs == 0:
        return set()
    if cfg.cav_placement == "clustered":
        return set(range(cfg.n_cavs))
    stride = math.ceil(total / cfg.n_cavs)
    idx = [k * stride for k in range(cfg.n_cavs)]
    if idx[-1] >= total:  # degenerate mixes; fall back to proportional spread
        idx = [(k * total) // cfg.n_cavs for k in range(cfg.n_cavs)]
    return set(idx)


def instantiate(cfg: ScenarioConfig) -> dyn.World:
    """Deterministic initial world for a config.

    Closed networks place vehicles evenly at the mean-gap equilibrium speed
    with bit-identical bumper gaps; different seeds change only the noise
    and arrival streams, never the placement.
    """
    network = build_network(cfg)
    world = dyn.World(network, seed=cfg.seed)
    world.default_noise_std = cfg.noise_std
    world.default_length = cfg.vehicle_length_m
    if cfg.topology == "merge":
        world.add_inflow("highway", cfg.highway_inflow_vph,
                         cav_fraction=cfg.penetration, id_prefix="hw")
        world.add_inflow("ramp", cfg.ramp_inflow_vph, cav_fraction=0.0,
                         id_prefix="ramp")
        return world

    total = cfg.n_humans + cfg.n_cavs
    if total == 0:
        raise ValueError(f"{cfg.name}: closed network needs at least one vehicle")
    route_id = "loop" if cfg.topology == "ring" else "eight"
    route = network.route(route_id)
    params = dyn.human_params(cfg.speed_limit)
    if route.length <= total * (cfg.vehicle_length_m + params.s0):
        raise ValueError(
            f"{cfg.name}: {total} vehicles of {cfg.vehicle_length_m} m do not fit "
            f"on {route.length:.1f} m with minimum spacing {params.s0} m")
    spacing = route.length / total
    gap = spacing - cfg.vehicle_length_m
    speed = dyn.equilibrium_speed(params, gap)
    cavs = _cav_indices(cfg, total)
    for i in range(total):
        kind = "cav" if i in cavs else "human"
        state = dyn.VehicleState(
            id=f"{kind}_{i:02d}", route_id=route_id,
            position=network.arc_to_lane(route_id, i * spacing),
            speed=speed, length=cfg.vehicle_length_m, kind=kind,
            active_params=params)
        world.add_vehicle(state, cfg.noise_std if kind == "human" else 0.0)
    world.rebuild_links()
    world.set_links(world.lead_idx, np.full(total, gap))
    return world

"""Run orchestration, traffic-flow metrics, exports, and seed sweeps.

A run is: warmup of plain car-following, one brainstorming session, then
the step loop with periodic replanning per controlled vehicle. Metrics pool
every post-warmup (vehicle, timestep) speed sample: the average measures
throughput, the population standard deviation measures how unsteady the
flow is. Exports are byte-deterministic for a fixed (config, seed,
scripted backend).
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import agent as agent_mod
from . import dynamics as dyn
from . import scenario as sc
from .agent import MemoryStore, MessagePool, RunFlags, ScriptedBackend
from .llm_client import (BackendConfig, RecordingBackend, RemoteBackend,
                         ReplayBackend, TranscriptLog)

DEFAULT_ROLE = "wave_dampener"  # applied without collaboration (ablation, arrivals)


@dataclass(frozen=True)
class TrajectorySample:
    """One (time, vehicle) sample of the run."""

    time: float
    vehicle_id: str
    position: float  # arc along the vehicle's route, m
    speed: float


@dataclass
class RunResult:
    """Everything a run produces besides side-effect files."""

    avg_speed: float
    speed_std: float
    samples: list
    flags: dict
    seed: int
    config: dict
    roles: dict
    planner_log: list

    def metrics_doc(self) -> dict:
        return {"avg_speed": self.avg_speed, "speed_std": self.speed_std,
                "flags": self.flags, "seed": self.seed, "config": self.config}


def metrics(samples, warmup: float) -> tuple[float, float]:
    """Pooled mean and population std of post-warmup speeds.

    A sample belongs to the measurement window only when its time is
    strictly after the warmup instant.
    """
    speeds = np.array([s.speed for s in samples if s.time > warmup])
    if speeds.size == 0:
        raise ValueError("no post-warmup samples")
    return float(speeds.mean()), float(speeds.std())


class AgentPipeline:
    """Drives perception, collaboration, reasoning and execution for CAVs."""

    def __init__(self, cfg: sc.ScenarioConfig, backend, memory: MemoryStore,
                 flags: RunFlags):
        self.cfg = cfg
        self.backend = backend
        self.memory = memory
        self.flags = flags
        self.roles: dict[str, str] = {}
        self.pool = MessagePool()
        self.planner_log: list[dict] = []

    def _scene(self, world, vid: str, index):
        return agent_mod.perceive(world, vid, self.cfg.perception_horizon_m, index)

    def collaborate(self, world) -> None:
        cavs = sorted(world.cav_ids())
        if not cavs:
            return
        if not self.cfg.collaboration:
            # ablated: every agent adopts the same solo role
            self.roles.update({vid: DEFAULT_ROLE for vid in cavs})
            return
        index = world.route_index()
        scenes = {vid: self._scene(world, vid, index) for vid in cavs}
        assignments = agent_mod.brainstorm(
            cavs, self.pool, self.backend, scenes,
            max_rounds=self.cfg.collab_max_rounds, flags=self.flags)
        self.roles.update({a.vehicle_id: a.role for a in assignments})

    def replan(self, world, time: float) -> None:
        # planner updates leave positions alone: one index serves every CAV
        index = world.route_index() if self.cfg.perception else None
        for vid in sorted(world.cav_ids()):
            role = self.roles.setdefault(vid, DEFAULT_ROLE)
            scene = self._scene(world, vid, index) if self.cfg.perception else None
            experiences = (agent_mod.recall(self.memory, self.cfg.topology, role)
                           if self.cfg.memory else [])
            planner = agent_mod.reason(role, scene, experiences, self.backend,
                                       speed_limit=self.cfg.speed_limit,
                                       flags=self.flags)
            world.set_params(vid, agent_mod.execute(planner))
            self.planner_log.append({
                "time": time, "agent_id": vid, "role": role,
                "v0": planner.v0, "a_max": planner.a_max, "s0": planner.s0})


def run(cfg: sc.ScenarioConfig, backend=None, *, memory: MemoryStore | None = None,
        keep_samples: bool = True, memory_writeback_dir=None) -> RunResult:
    """Simulate one scenario and compute its metrics.

    Deterministic for scripted and replay backends. A collision ends the
    run early with partial samples and the collision flag set.
    """
    backend = backend if backend is not None else ScriptedBackend()
    memory = memory if memory is not None else MemoryStore.default()
    flags = RunFlags()
    world = sc.instantiate(cfg)
    pipeline = AgentPipeline(cfg, backend, memory, flags)
    dt = cfg.dt
    total_steps = int(round(cfg.horizon_s / dt))
    warm_steps = int(round(cfg.warmup_s / dt))
    replan_steps = max(1, int(round(cfg.replan_interval_s / dt)))

    samples: list[TrajectorySample] = []

    def record():
        for i in range(world.size):
            samples.append(TrajectorySample(world.time, world.ids[i],
                                            float(world.arc[i]), float(world.speed[i])))

    record()
    collaborated = False
    try:
        for k in range(total_steps):
            if k >= warm_steps:
                if not collaborated:
                    pipeline.collaborate(world)
                    collaborated = True
                if (k - warm_steps) % replan_steps == 0:
                    pipeline.replan(world, world.time)
            dyn.step(world, dt)
            record()
    except dyn.CollisionError:
        flags.collision = True

    try:
        avg, std = metrics(samples, cfg.warmup_s)
    except ValueError:
        avg, std = math.nan, math.nan
    if memory_writeback_dir is not None:
        summary = agent_mod.Experience(
            cfg.topology, None,
            f"Run of {cfg.name} (seed {cfg.seed}) averaged {avg:.2f} m/s with "
            f"speed std {std:.2f} m/s using roles {sorted(set(pipeline.roles.values()))}.")
        memory.add(summary, persist_dir=memory_writeback_dir)
    return RunResult(
        avg_speed=avg, speed_std=std,
        samples=samples if keep_samples else [],
        flags=flags.to_dict(), seed=cfg.seed, config=cfg.to_dict(),
        roles=dict(pipeline.roles), planner_log=pipeline.planner_log)


# -- export -------------------------------------------------------------------

def _atomic_write(directory, filename: str, write_fn) -> str:
    """Write via a temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{filename}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
        final = os.path.join(directory, filename)
        os.replace(tmp, final)
        return final
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export(result: RunResult, directory) -> dict:
    """Write metrics.json and trajectories.csv atomically.

    Returns the paths written. The transcript log (when a recording backend
    ran) is written live during the run, not here.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {}
    paths["metrics"] = _atomic_write(
        directory, "metrics.json",
        lambda fh: fh.write(json.dumps(result.metrics_doc(), sort_keys=True,
                                       indent=2) + "\n"))

    def write_csv(fh):
        writer = csv.writer(fh)
        writer.writerow(["time", "vehicle_id", "position", "speed"])
        for s in result.samples:
            writer.writerow([repr(s.time), s.vehicle_id, repr(s.position),
                             repr(s.speed)])

    paths["trajectories"] = _atomic_write(directory, "trajectories.csv", write_csv)
    return paths


def import_trajectories(path) -> list[TrajectorySample]:
    """Read back a trajectories.csv written by :func:`export`."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(TrajectorySample(float(row["time"]), row["vehicle_id"],
                                        float(row["position"]), float(row["speed"])))
    return out


# -- backends -----------------------------------------------------------------

def make_backend(name: str, *, remote_config: BackendConfig | None = None,
                 transcript_path=None, log: TranscriptLog | None = None,
                 run_id: str = "run"):
    """Build a backend by name, wrapped to record into ``log`` when given."""
    if name == "scripted":
        backend = ScriptedBackend()
    elif name == "remote":
        if remote_config is None:
            raise ValueError("remote backend needs a BackendConfig")
        backend = RemoteBackend(remote_config)
    elif name == "replay":
        if transcript_path is None:
            raise ValueError("replay backend needs a transcript path")
        backend = ReplayBackend(transcript_path)
    else:
        raise ValueError(f"unknown backend {name!r}")
    if log is not None:
        backend = RecordingBackend(backend, log, run_id)
    return backend


# -- sweeps -------------------------------------------------------------------

@dataclass
class SweepCell:
    label: str
    config: sc.ScenarioConfig


@dataclass
class SweepTable:
    """Per-cell aggregation over seeds: mean and standard error."""

    rows: list  # dicts: label, n_ok, avg_mean, avg_se, std_mean, std_se, errors

    def to_csv(self) -> str:
        cols = ["label", "n_ok", "avg_mean", "avg_se", "std_mean", "std_se", "errors"]
        lines = [",".join(cols)]
        for r in self.rows:
            lines.append(",".join(str(r[c]) for c in cols))
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = f"{'cell':<18} {'runs':>4} {'avg speed':>16} {'speed std':>16}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            if r["n_ok"]:
                avg = f"{r['avg_mean']:.3f} ± {r['avg_se']:.3f}"
                std = f"{r['std_mean']:.3f} ± {r['std_se']:.3f}"
            else:
                avg = std = "failed"
            lines.append(f"{r['label']:<18} {r['n_ok']:>4} {avg:>16} {std:>16}")
        return "\n".join(lines)


def _run_cell(args) -> tuple[str, int, float, float, str]:
    label, cfg, backend_name = args
    try:
        result = run(cfg, make_backend(backend_name), keep_samples=False)
        if result.flags.get("collision"):
            return label, cfg.seed, math.nan, math.nan, "collision"
        return label, cfg.seed, result.avg_speed, result.speed_std, ""
    except Exception as exc:  # per-cell isolation: a sweep never dies whole
        return label, cfg.seed, math.nan, math.nan, f"{type(exc).__name__}: {exc}"


def sweep(cells: list[SweepCell], seeds, backend_name: str = "scripted",
          workers: int = 1) -> SweepTable:
    """Run every (cell, seed) pair and aggregate per cell.

    Cell labels must be unique. Errors are recorded per cell and do not
    stop the sweep. With ``workers > 1`` independent runs execute in
    parallel processes; results are identical to the sequential order.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    labels = [cell.label for cell in cells]
    if len(set(labels)) != len(labels):
        dupes = sorted({lb for lb in labels if labels.count(lb) > 1})
        raise ValueError(f"duplicate sweep labels: {dupes}")
    jobs = [(cell.label, cell.config.replace(seed=seed), backend_name)
            for cell in cells for seed in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, jobs))
    else:
        outcomes = [_run_cell(job) for job in jobs]
    rows = []
    for cell in cells:
        got = [o for o in outcomes if o[0] == cell.label]
        ok = [(a, s) for _, _, a, s, err in got if not err]
        errors = [f"seed {sd}: {err}" for _, sd, _, _, err in got if err]
        if ok:
            avgs = np.array([a for a, _ in ok])
            stds = np.array([s for _, s in ok])
            se = lambda x: float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
            rows.append({"label": cell.label, "n_ok": len(ok),
                         "avg_mean": float(avgs.mean()), "avg_se": se(avgs),
                         "std_mean": float(stds.mean()), "std_se": se(stds),
                         "errors": "; ".join(errors)})
        else:
            rows.append({"label": cell.label, "n_ok": 0,
                         "avg_mean": math.nan, "avg_se": math.nan,
                         "std_mean": math.nan, "std_se": math.nan,
                         "errors": "; ".join(errors)})
    return SweepTable(rows)


def penetration_sweep(template: sc.ScenarioConfig, seeds, penetrations,
                      backend_name: str = "scripted", workers: int = 1) -> SweepTable:
    """Sweep a merge template over CAV penetration rates."""
    cells = [SweepCell(label=f"pen={p:.3f}",
                       config=template.replace(penetration=p,
                                               name=f"{template.name} pen={p:.3f}"))
             for p in penetrations]
    return sweep(cells, seeds, backend_name, workers)

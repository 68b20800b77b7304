"""The benchmark workloads: input generation, the timed op, output checks.

The two workloads are the same 352-vehicle ring and differ only in how
many vehicles are CAVs, so that an optimisation of either the agent side
or the simulator side has one workload where its mechanism does most of
the work and one where it does almost none:

- ``ring_cav_dense``: half the vehicles are CAVs. Perception scans every
  vehicle for every CAV, so ``agent`` and ``network`` do nearly all the work.
- ``ring_human_long``: one CAV. The agent layer idles; per-vehicle noise
  draws, per-sample objects and CSV export dominate.

Both run on a closed ring, so the work of an op does not depend on the
seed, and each op lasts a few seconds: a longer op averages over the
host's slow and fast phases, so the median over a run's ops moves less.

The program is driven only through its public API. Inputs are generated
from the benchmark seed and written to a directory; the op reads only that
directory.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import zlib
from array import array

import numpy as np

from comal import harness
from comal import scenario as sc

CONFIG_FILE = "config.json"


def scenario_seed(workload: str, seed: int) -> int:
    """The scenario seed of a workload, derived from the benchmark seed."""
    return zlib.crc32(f"{workload}/{seed}".encode())


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pooled_from_csv(path, warmup: float) -> tuple[int, int, float, float]:
    """Rows, rows after t=0, and pooled mean/std of post-warmup speeds.

    Uses the same selection and numpy reductions as ``harness.metrics``, so
    the result equals ``metrics.json`` bit for bit.
    """
    speeds = array("d")
    rows = stepped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, _, _, v in reader:
            rows += 1
            t = float(t)
            stepped += t > 0.0
            if t > warmup:
                speeds.append(float(v))
    arr = np.frombuffer(speeds, dtype=np.float64)
    return rows, stepped, float(arr.mean()), float(arr.std())


class RingRun:
    """One ring scenario: ``harness.run`` then ``harness.export``."""

    outputs = ("metrics.json", "trajectories.csv")

    def __init__(self, name: str, full: dict, tiny: dict):
        self.name = name
        self.sizes = {"full": full, "tiny": tiny}

    def config(self, seed: int, tiny: bool) -> sc.ScenarioConfig:
        return sc.find("Ring 2").replace(
            name=self.name, seed=scenario_seed(self.name, seed),
            **self.sizes["tiny" if tiny else "full"])

    def generate(self, seed: int, inputs: str, tiny: bool) -> None:
        _write_json(os.path.join(inputs, CONFIG_FILE), self.config(seed, tiny).to_dict())

    def load(self, inputs: str) -> sc.ScenarioConfig:
        return sc.ScenarioConfig(**_read_json(os.path.join(inputs, CONFIG_FILE)))

    def op(self, cfg: sc.ScenarioConfig, out: str) -> None:
        harness.export(harness.run(cfg), out)

    def check(self, cfg: sc.ScenarioConfig, out: str) -> tuple[list[str], int]:
        """Problems with the exports in ``out``, and the vehicle-steps run."""
        doc = _read_json(os.path.join(out, "metrics.json"))
        problems = [f"flag {k}={v}" for k, v in sorted(doc["flags"].items()) if v]
        rows, stepped, avg, std = pooled_from_csv(
            os.path.join(out, "trajectories.csv"), cfg.warmup_s)
        if (avg, std) != (doc["avg_speed"], doc["speed_std"]):
            problems.append(f"trajectories.csv gives mean/std {avg!r}/{std!r}, "
                            f"metrics.json {doc['avg_speed']!r}/{doc['speed_std']!r}")
        n = cfg.n_humans + cfg.n_cavs
        want = n * (int(round(cfg.horizon_s / cfg.dt)) + 1)
        if rows != want:
            problems.append(f"{rows} samples, want {n} vehicles x (steps + 1) = {want}")
        return problems, stepped


WORKLOADS = {w.name: w for w in (
    RingRun("ring_cav_dense",
            full=dict(n_humans=176, n_cavs=176, ring_length_m=3680.0,
                      horizon_s=30.0, warmup_s=5.0),
            tiny=dict(n_humans=8, n_cavs=8, horizon_s=8.0, warmup_s=3.0)),
    RingRun("ring_human_long",
            full=dict(n_humans=351, n_cavs=1, ring_length_m=3680.0, horizon_s=120.0),
            tiny=dict(n_humans=21, n_cavs=1, horizon_s=25.0)),
)}

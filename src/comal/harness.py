"""Run orchestration, traffic-flow metrics, exports, and seed sweeps.

A run is: warmup of plain car-following, one brainstorming session, then
the step loop with periodic replanning per controlled vehicle. Metrics pool
every post-warmup (vehicle, timestep) speed sample: the average measures
throughput, the population standard deviation measures how unsteady the
flow is. Exports are byte-deterministic for a fixed (config, seed,
scripted backend).
"""
from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import orjson

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


class TrajectorySamples(Sequence):
    """A run's samples, held as two float64 columns and a list per step.

    Each recorded step keeps its time and the ids of the vehicles present
    (one list, shared by consecutive steps with the same population). Its
    positions and speeds fill the next rows of a position and a speed
    column; ``positions[k]`` and ``speeds[k]`` are views of step ``k``'s
    rows. The columns start at ``capacity`` rows and grow geometrically.
    It reads as a sequence of :class:`TrajectorySample` in step order, then
    vehicle order, and compares equal to any list or tuple of the same
    samples. Samples made with ``positions=False`` keep no position column:
    they serve :meth:`speeds_after` only.
    """

    def __init__(self, capacity: int = 0, *, positions: bool = True):
        self.times: list[float] = []
        self.ids: list[list[str]] = []
        self._pos = np.empty(capacity) if positions else None
        self._speed = np.empty(capacity)
        self._ends: list[int] = []  # samples up to and including each step

    @classmethod
    def of(cls, samples) -> TrajectorySamples:
        """``samples`` as columns; each run of equal times becomes one step."""
        if isinstance(samples, cls):
            return samples
        out = cls(operator.length_hint(samples))
        for time, group in itertools.groupby(samples, key=operator.attrgetter("time")):
            group = list(group)
            out.append(time, [s.vehicle_id for s in group],
                       [s.position for s in group], [s.speed for s in group])
        return out

    def append(self, time: float, ids, positions, speeds) -> None:
        """Record one step, copying ``positions`` and ``speeds`` into the columns."""
        start = len(self)
        end = start + len(ids)
        if end > self._speed.size:
            capacity = max(end, 2 * self._speed.size)
            if self._pos is not None:
                self._pos = self._grown(self._pos, capacity, start)
            self._speed = self._grown(self._speed, capacity, start)
        if self._pos is not None:
            self._pos[start:end] = positions
        self._speed[start:end] = speeds
        if not self.ids or self.ids[-1] != ids:
            self.ids.append(list(ids))
        else:
            self.ids.append(self.ids[-1])
        self.times.append(time)
        self._ends.append(end)

    @staticmethod
    def _grown(col: np.ndarray, capacity: int, filled: int) -> np.ndarray:
        """A column of ``capacity`` rows holding the first ``filled`` of ``col``."""
        out = np.empty(capacity)
        out[:filled] = col[:filled]
        return out

    def _steps(self, col: np.ndarray) -> list[np.ndarray]:
        return [col[a:b] for a, b in zip([0] + self._ends, self._ends)]

    @property
    def positions(self) -> list[np.ndarray]:
        """Each step's positions, as views into the position column."""
        return self._steps(self._pos)

    @property
    def speeds(self) -> list[np.ndarray]:
        """Each step's speeds, as views into the speed column."""
        return self._steps(self._speed)

    def speeds_after(self, warmup: float) -> np.ndarray:
        """The speeds of every step timed after ``warmup``, in step order.

        When those steps are the last ones, as whenever times never
        decrease, this is a view of the speed column's tail; otherwise a
        copy of each selected step's speeds, joined.
        """
        times = self.times
        first = next((k for k, t in enumerate(times) if t > warmup), len(times))
        if all(t > warmup for t in times[first:]):
            return self._speed[(self._ends[first - 1] if first else 0):len(self)]
        return np.concatenate([np.empty(0)] + [
            v for t, v in zip(times, self.speeds) if t > warmup])

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("sample index out of range")
        k = bisect.bisect_right(self._ends, i)
        j = i - (self._ends[k - 1] if k else 0)
        return TrajectorySample(self.times[k], self.ids[k][j],
                                float(self._pos[i]), float(self._speed[i]))

    def __iter__(self):
        for time, ids, pos, speed in zip(self.times, self.ids, self.positions, self.speeds):
            for vid, x, v in zip(ids, pos.tolist(), speed.tolist()):
                yield TrajectorySample(time, vid, x, v)

    def __eq__(self, other):
        if not isinstance(other, (TrajectorySamples, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"TrajectorySamples({len(self)} samples, {len(self.times)} steps)"


@dataclass
class RunResult:
    """Everything a run produces besides side-effect files."""

    avg_speed: float
    speed_std: float
    samples: TrajectorySamples
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
    strictly after the warmup instant. ``samples`` is a
    :class:`TrajectorySamples` or any iterable of :class:`TrajectorySample`.
    """
    speeds = TrajectorySamples.of(samples).speeds_after(warmup)
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

    def _scenes(self, world, cavs: list[str]) -> list:
        return agent_mod.perceive_all(world, cavs, self.cfg.perception_horizon_m,
                                      world.route_index())

    def collaborate(self, world) -> None:
        cavs = sorted(world.cav_ids())
        if not cavs:
            return
        if not self.cfg.collaboration:
            # ablated: every agent adopts the same solo role
            self.roles.update({vid: DEFAULT_ROLE for vid in cavs})
            return
        scenes = dict(zip(cavs, self._scenes(world, cavs)))
        assignments = agent_mod.brainstorm(
            cavs, self.pool, self.backend, scenes,
            max_rounds=self.cfg.collab_max_rounds, flags=self.flags)
        self.roles.update({a.vehicle_id: a.role for a in assignments})

    def replan(self, world, time: float) -> None:
        cavs = sorted(world.cav_ids())
        # planner updates leave positions alone: one pass perceives every CAV
        scenes = self._scenes(world, cavs) if self.cfg.perception else [None] * len(cavs)
        recalled: dict[str, list] = {}  # role -> experiences
        for vid, scene in zip(cavs, scenes):
            role = self.roles.setdefault(vid, DEFAULT_ROLE)
            if role not in recalled:
                recalled[role] = (agent_mod.recall(self.memory, self.cfg.topology, role)
                                  if self.cfg.memory else [])
            planner = agent_mod.reason(role, scene, recalled[role], self.backend,
                                       agent_id=vid, speed_limit=self.cfg.speed_limit,
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

    # exact on a closed network; an open one grows its columns as it fills.
    # The metrics read only the speeds, so unkept samples hold no positions.
    samples = TrajectorySamples((total_steps + 1) * world.size, positions=keep_samples)

    def record():
        samples.append(world.time, world.ids, world.arc, world.speed)

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
        samples=samples if keep_samples else TrajectorySamples(),
        flags=flags.to_dict(), seed=cfg.seed, config=cfg.to_dict(),
        roles=dict(pipeline.roles), planner_log=pipeline.planner_log)


# -- export -------------------------------------------------------------------

def _atomic_write(directory, filename: str, write_fn) -> str:
    """Write via a temp file in the target directory, then rename.

    The file gets the mode ``open(path, "w")`` would give it: 0o666 less
    the umask, applied by the kernel at creation.
    """
    # O_BINARY, where it exists, keeps the OS from translating the "\r\n" rows
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:  # a fresh name, as mkstemp picks one, but not its mode 0o600
        tmp = os.path.join(directory, f".{filename}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
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


def _csv_field(value: str) -> str:
    """``value`` as the csv module writes it inside a row, quoted if needed."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", value])
    return buf.getvalue()[1:-2]  # drop the leading delimiter and the "\r\n"


def _float_fields(col: np.ndarray) -> list[str]:
    """``repr`` of every float64 in the 1-D array ``col``, formatted natively.

    orjson writes the same shortest round-trip digits as ``repr`` and
    differs only in exponent style (``0.00001`` for ``1e-05``, ``1e16`` for
    ``1e+16``) and in writing ``null`` for nan and inf. So its text is kept
    for 0, -0 and every ``1e-4 <= |x| < 1e16``, and ``repr`` formats the
    rest: nonzero ``|x| < 1e-4``, ``|x| >= 1e16``, nan and inf.
    """
    if not col.size:
        return []
    fields = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(col)
    for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (col != 0)).tolist():
        fields[i] = repr(float(col[i]))
    return fields


def _write_rows(fh, cols: TrajectorySamples) -> None:
    """Write the CSV rows of every step, one step at a time.

    A population's rows are one template list, six strings per vehicle
    (time, ``,id,``, position, ``,``, speed, ``\\r\\n``), made again only when
    the step's id list changes. Each step fills in its time and floats, then
    joins the list in one write.
    """
    field: dict[str, str] = {}  # vehicle id -> its CSV field
    ids = row = None
    for time, step_ids, pos, speed in zip(cols.times, cols.ids, cols.positions, cols.speeds):
        if step_ids is not ids:
            ids = step_ids
            for v in ids:
                if v not in field:
                    field[v] = _csv_field(v)
            row = [None, None, None, ",", None, "\r\n"] * len(ids)
            row[1::6] = [f",{field[v]}," for v in ids]
        n = len(ids)
        fields = _float_fields(np.concatenate((pos, speed)))
        row[0::6] = [repr(time)] * n
        row[2::6] = fields[:n]
        row[4::6] = fields[n:]
        fh.write("".join(row))


def export(result: RunResult, directory) -> dict:
    """Write metrics.json and trajectories.csv atomically.

    Returns the paths written. The CSV holds one row per sample, written
    one step at a time; it is byte-identical to writing every row through
    ``csv.writer``. The transcript log (when a recording backend ran) is
    written live during the run, not here.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {}
    paths["metrics"] = _atomic_write(
        directory, "metrics.json",
        lambda fh: fh.write(json.dumps(result.metrics_doc(), sort_keys=True,
                                       indent=2) + "\n"))
    paths["trajectories"] = _export_trajectories(result.samples, directory)
    return paths


def _export_trajectories(samples, directory) -> str:
    """Write trajectories.csv atomically: the header, then every step's rows."""
    cols = TrajectorySamples.of(samples)

    def write(fh):
        csv.writer(fh).writerow(["time", "vehicle_id", "position", "speed"])
        _write_rows(fh, cols)

    return _atomic_write(directory, "trajectories.csv", write)


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
        """The table as CSV with ``\\n`` line ends; a field holding a comma, a
        quote or a line break is quoted, so it reads back as one field."""
        cols = ["label", "n_ok", "avg_mean", "avg_se", "std_mean", "std_se", "errors"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([r[c] for c in cols] for r in self.rows)
        return buf.getvalue()

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
    label, cfg = args
    try:
        result = run(cfg, keep_samples=False)
        if result.flags.get("collision"):
            return label, cfg.seed, math.nan, math.nan, "collision"
        return label, cfg.seed, result.avg_speed, result.speed_std, ""
    except Exception as exc:  # per-cell isolation: a sweep never dies whole
        return label, cfg.seed, math.nan, math.nan, f"{type(exc).__name__}: {exc}"


def sweep(cells: list[SweepCell], seeds, workers: int = 1) -> SweepTable:
    """Run every (cell, seed) pair on the scripted backend and aggregate per cell.

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
    jobs = [(cell.label, cell.config.replace(seed=seed)) for cell in cells for seed in seeds]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: most sweeps are sequential

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
                      workers: int = 1) -> SweepTable:
    """Sweep a merge template over CAV penetration rates.

    Penetration sets the CAV share of merge arrivals only, so any other
    template would give the same world at every rate: a ValueError."""
    if template.topology != "merge":
        raise ValueError(f"penetration acts only on merges; {template.name!r} "
                         f"is a {template.topology} scenario")
    cells = [SweepCell(label=f"pen={p:.3f}",
                       config=template.replace(penetration=p,
                                               name=f"{template.name} pen={p:.3f}"))
             for p in penetrations]
    return sweep(cells, seeds, workers)

"""Run loop, metrics, export, and sweep behavior."""
import csv
import io
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comal import dynamics as dyn
from comal import harness
from comal import scenario as sc
from comal.agent import MemoryStore, RunFlags, ScriptedBackend
from comal.harness import (RunResult, SweepCell, TrajectorySamples, export,
                           import_trajectories, metrics, run, sweep)
from comal.llm_client import BackendConfig, RecordingBackend, ReplayBackend, TranscriptLog

from helpers import planner_rows, reference_trajectories_csv, sample_columns, sample_rows

MINI_RING = sc.ScenarioConfig(name="Mini Ring", topology="ring", horizon_s=30.0,
                              warmup_s=5.0, n_humans=4, n_cavs=2)


def sample_set(values, t=30.0):
    return sample_columns([(t, f"v{i}", 0.0, v) for i, v in enumerate(values)])


class TestMetrics:
    def test_constant(self):
        assert metrics(sample_set([5.0, 5.0, 5.0]), warmup=20.0) == (5.0, 0.0)

    def test_two_point(self):
        assert metrics(sample_set([4.0, 6.0]), warmup=20.0) == (5.0, 1.0)

    def test_three_point_population_std(self):
        avg, std = metrics(sample_set([1.0, 2.0, 3.0]), warmup=20.0)
        assert avg == pytest.approx(2.0, abs=1e-12)
        assert std == pytest.approx(0.816496580927726, abs=1e-12)

    def test_warmup_boundary_strict(self):
        samples = sample_columns([(19.9, "a", 0.0, 100.0),
                                  (20.0, "a", 0.0, 100.0),
                                  (20.1, "a", 0.0, 7.0)])
        avg, std = metrics(samples, warmup=20.0)
        assert avg == 7.0 and std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            metrics(sample_set([1.0], t=5.0), warmup=20.0)


LEAF = harness._STD_LEAF


def after_warmup(speeds: np.ndarray, width: int = 1024) -> TrajectorySamples:
    """A warmup step of two samples, then ``speeds`` in steps of ``width``."""
    cols = TrajectorySamples(2 + speeds.size, positions=False)
    cols.append(0.0, ["w0", "w1"], None, [1e3, -1e3])
    ids = [f"v{i}" for i in range(width)]
    for a in range(0, speeds.size, width):
        step = speeds[a:a + width]
        cols.append(30.0 + a, ids[:step.size], None, step)
    return cols


class TestStdWithoutTemporary:
    """``metrics`` sums the squared deviations in numpy's own pairwise order,
    one leaf at a time, so it keeps ``np.std``'s bits without its full-size
    deviations array."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.sampled_from([0, 1, 7, 8, 128, 129, LEAF - 1, LEAF, LEAF + 1,
                                      2 * LEAF + 8]),
                     st.integers(1, 500_000)),
           st.floats(0.0, 0.5))
    @example(0, 128, 0.0)  # one block numpy does not split
    @example(0, 2 * LEAF + 8, 0.0)  # halves of LEAF + 4 round down to LEAF
    def test_same_bits_as_numpy(self, seed, n, zero_share):
        rng = np.random.default_rng(seed)
        x = rng.normal(15.0, 8.0, n) * rng.choice([1e-3, 1.0, 1e4])
        x[rng.random(n) < zero_share] = 0.0
        if n == 0:
            with pytest.raises(ValueError, match="no post-warmup samples"):
                metrics(after_warmup(x), warmup=20.0)
            return
        mean = float(x.mean())
        assert (harness._squared_deviations(x, mean, np.empty(min(n, LEAF))).hex()
                == float(np.add.reduce((x - mean) ** 2)).hex())
        assert tuple(v.hex() for v in metrics(after_warmup(x), warmup=20.0)) == (
            mean.hex(), float(x.std()).hex())

    def test_allocates_at_most_a_leaf(self):
        cols = after_warmup(np.random.default_rng(0).normal(15.0, 8.0, 1_000_000))
        tracemalloc.start()
        try:
            metrics(cols, warmup=20.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * LEAF * 8  # np.std allocates 8 MB here


class TestRun:
    def test_deterministic_same_seed(self):
        a = run(MINI_RING.replace(seed=7))
        b = run(MINI_RING.replace(seed=7))
        assert a.avg_speed == b.avg_speed
        assert a.speed_std == b.speed_std
        assert sample_rows(a.samples) == sample_rows(b.samples)
        assert a.planner_log == b.planner_log

    def test_different_seed_differs(self):
        a = run(MINI_RING.replace(seed=1))
        b = run(MINI_RING.replace(seed=2))
        assert a.avg_speed != b.avg_speed

    def test_zero_cav_never_invokes_pipeline(self):
        result = run(MINI_RING.replace(n_humans=6, n_cavs=0))
        assert result.roles == {}
        assert planner_rows(result.planner_log) == []

    def test_sample_times_are_dt_multiples(self):
        result = run(MINI_RING)
        times = sorted({t for t, *_ in sample_rows(result.samples)})
        for k, t in enumerate(times):
            assert t == round(k * MINI_RING.dt, 9)

    def test_vehicle_count_conserved_on_closed_network(self):
        result = run(MINI_RING)
        by_time = {}
        for t, vid, *_ in sample_rows(result.samples):
            by_time.setdefault(t, set()).add(vid)
        counts = {len(v) for v in by_time.values()}
        assert counts == {6}

    def test_metric_sanity(self):
        result = run(MINI_RING)
        assert result.avg_speed <= MINI_RING.speed_limit
        assert result.speed_std >= 0.0
        assert all(v >= 0.0 for *_, v in sample_rows(result.samples))

    def test_collision_flag_and_partial_samples(self, monkeypatch):
        calls = {"n": 0}
        real_step = dyn.step

        def exploding(world, dt):
            calls["n"] += 1
            if calls["n"] > 30:
                raise dyn.CollisionError(world.time, "a", "b", -0.1)
            real_step(world, dt)

        monkeypatch.setattr(harness.dyn, "step", exploding)
        result = run(MINI_RING)
        assert result.flags["collision"] is True
        assert len(result.samples) == 6 * 31  # initial state + 30 completed steps
        assert math.isnan(result.avg_speed)  # stopped before the warmup ended

    def test_a_nan_gap_raises_out_of_the_run_not_as_a_collision(self, monkeypatch):
        real_step = dyn.step

        def planting(world, dt):
            if world.step_count == 30:
                world.gap[2] = math.nan
            real_step(world, dt)

        monkeypatch.setattr(harness.dyn, "step", planting)
        with pytest.raises(FloatingPointError, match="NaN gap"):
            run(MINI_RING)

    # drift one gap far past 1e-6 of the ring: by 1 cm before the first replan
    # (step 50) or after the last one (step 290), or by 1 km, a collision next step
    @pytest.mark.parametrize("at_step, drift", [(10, 0.01), (299, 0.01), (10, -1e3)])
    def test_a_broken_gap_sum_raises_out_of_the_run_not_as_a_collision(self, monkeypatch,
                                                                       at_step, drift):
        real_step = dyn.step

        def drifting(world, dt):
            real_step(world, dt)
            if world.step_count == at_step:
                world.gap[2] += drift

        monkeypatch.setattr(harness.dyn, "step", drifting)
        with pytest.raises(FloatingPointError, match="gap conservation broken"):
            run(MINI_RING)

    def test_roles_assigned_for_cavs(self):
        result = run(MINI_RING)
        assert set(result.roles) == {"cav_00", "cav_03"}
        assert set(result.roles.values()) == {"wave_dampener"}

    def test_no_collab_identical_roles(self):
        result = run(MINI_RING.replace(collaboration=False, n_cavs=3, n_humans=3))
        assert len(set(result.roles.values())) == 1

    def test_memory_writeback(self, tmp_path):
        from comal.agent import MemoryStore
        store = MemoryStore()
        run(MINI_RING, memory=store, memory_writeback_dir=tmp_path)
        assert list(tmp_path.glob("run_summary_*.json"))
        assert store.recall("ring")

    def test_merge_run_completes(self):
        cfg = sc.find("Merge 1").replace(horizon_s=40.0, warmup_s=10.0)
        result = run(cfg)
        assert result.avg_speed > 0.0
        assert not result.flags["collision"]


class TestExport:
    def test_round_trip(self, tmp_path):
        result = run(MINI_RING)
        paths = export(result, tmp_path)
        back = import_trajectories(paths["trajectories"])
        assert sample_rows(back) == sample_rows(result.samples)
        with open(paths["metrics"]) as f:
            doc = json.load(f)
        assert doc["avg_speed"] == result.avg_speed
        assert doc["speed_std"] == result.speed_std
        assert doc["seed"] == result.seed
        assert doc["config"]["name"] == "Mini Ring"

    def test_byte_deterministic(self, tmp_path):
        r1 = run(MINI_RING.replace(seed=9))
        r2 = run(MINI_RING.replace(seed=9))
        export(r1, tmp_path / "a")
        export(r2, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.json").read_bytes() == \
            (tmp_path / "b" / "metrics.json").read_bytes()
        assert (tmp_path / "a" / "trajectories.csv").read_bytes() == \
            (tmp_path / "b" / "trajectories.csv").read_bytes()

    def test_failed_write_leaves_no_partial_files(self, tmp_path):
        def boom(fh):
            fh.write("partial")
            raise IOError("disk on fire")

        with pytest.raises(IOError):
            harness._atomic_write(tmp_path, "out.txt", boom)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_files_get_the_mode_a_plain_open_gives(self, tmp_path, umask, mode):
        result = run(MINI_RING.replace(seed=4))
        old = os.umask(umask)
        try:
            paths = export(result, tmp_path)
        finally:
            os.umask(old)
        assert [os.stat(p).st_mode & 0o777 for p in paths.values()] == [mode, mode]
        with open(paths["trajectories"], "rb") as fh:
            assert fh.read() == reference_trajectories_csv(result.samples)


def hand_built_result(samples) -> RunResult:
    return RunResult(avg_speed=1.0, speed_std=0.0, samples=samples, flags={},
                     seed=0, config={}, roles={}, planner_log={})


AWKWARD_SAMPLES = [
    (0.0, "plain", -0.0, 1e-05),
    (0.0, "with,comma", 1.2345678901234568e+17, -0.0),
    (0.0, 'with "quote"', 0.1, 2.5),
    (0.1, "with,comma", 1e-05, 1.2345678901234568e+17),
    (0.1, "", 3.0, 0.0),
    (0.1, "line\nbreak", 4.0, 7.0),
    (0.2, "plain", 5.5, 1e-05),
]


class TestColumnarSamples:
    def test_export_matches_per_sample_writer_on_a_run(self, tmp_path):
        result = run(MINI_RING.replace(seed=5))
        paths = export(result, tmp_path)
        assert isinstance(result.samples, TrajectorySamples)
        with open(paths["trajectories"], "rb") as fh:
            assert fh.read() == reference_trajectories_csv(result.samples)

    def test_export_matches_per_sample_writer_on_awkward_ids_and_floats(self, tmp_path):
        cols = sample_columns(AWKWARD_SAMPLES)
        paths = export(hand_built_result(cols), tmp_path)
        with open(paths["trajectories"], "rb") as fh:
            written = fh.read()
        assert written == reference_trajectories_csv(cols)
        assert b'"with,comma"' in written and b'"with ""quote"""' in written
        assert b"-0.0" in written and b"1e-05" in written
        assert b"1.2345678901234568e+17" in written
        assert sample_rows(import_trajectories(paths["trajectories"])) == AWKWARD_SAMPLES

    def test_columns_and_list_give_the_same_metrics_bits(self):
        result = run(MINI_RING.replace(seed=6))
        cols = metrics(result.samples, MINI_RING.warmup_s)
        listed = metrics(sample_columns(sample_rows(result.samples)), MINI_RING.warmup_s)
        assert [x.hex() for x in cols] == [x.hex() for x in listed]
        assert [x.hex() for x in cols] == [result.avg_speed.hex(), result.speed_std.hex()]

    def test_import_equals_samples_both_ways(self, tmp_path):
        result = run(MINI_RING.replace(seed=8))
        path = export(result, tmp_path / "run")["trajectories"]
        back = import_trajectories(path)
        assert sample_rows(back) == sample_rows(result.samples)
        again = export(hand_built_result(back), tmp_path / "back")["trajectories"]
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    def test_reads_as_rows_in_step_then_vehicle_order(self):
        samples = run(MINI_RING).samples
        rows = sample_rows(samples)
        assert len(samples) == len(rows) == 6 * 301
        for k in (0, 7, -8, -1):
            step, j = divmod(k % len(rows), 6)
            assert rows[k] == (samples.times[step], samples.ids[step][j],
                               float(samples.positions[step][j]), float(samples.speeds[step][j]))
        assert sample_rows(sample_columns(rows)) == rows
        assert all(ids is samples.ids[0] for ids in samples.ids)  # one shared list

    def test_a_decreasing_time_is_rejected(self):
        cols = TrajectorySamples()
        cols.append(0.1, ["a"], [1.0], [2.0])
        cols.append(0.1, ["b"], [3.0], [4.0])  # a tie is one more step at that time
        for time in (0.0, math.nan):
            with pytest.raises(ValueError, match="not at or after the last step's 0.1"):
                cols.append(time, ["a"], [5.0], [6.0])
        assert sample_rows(cols) == [(0.1, "a", 1.0, 2.0), (0.1, "b", 3.0, 4.0)]
        with pytest.raises(ValueError):
            TrajectorySamples().append(math.nan, [], [], [])

    def test_import_rejects_two_steps_rows_swapped(self, tmp_path):
        path = export(run(MINI_RING.replace(seed=8)), tmp_path)["trajectories"]
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\r\n")
        step = slice(1 + 6 * 100, 1 + 6 * 101)  # the header, then 6 rows a step
        later = slice(step.stop, step.stop + 6)
        lines[step], lines[later] = lines[later], lines[step]
        with open(path, "wb") as fh:
            fh.write(b"\r\n".join(lines))
        with pytest.raises(ValueError, match="not at or after"):
            import_trajectories(path)

    def test_recording_copies_the_arrays(self):
        cols = TrajectorySamples()
        arc, speed = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        cols.append(0.0, ["a", "b"], arc, speed)
        arc[:] = speed[:] = 0.0
        assert sample_rows(cols) == [(0.0, "a", 1.0, 3.0), (0.0, "b", 2.0, 4.0)]

    def test_without_samples_is_empty(self):
        result = run(MINI_RING, keep_samples=False)
        assert len(result.samples) == 0 and sample_rows(result.samples) == []

    @pytest.mark.parametrize("seed", [0, 3, 11, 2024])
    def test_unkept_samples_give_the_kept_metric_bits(self, seed):
        kept = run(MINI_RING.replace(seed=seed))
        unkept = run(MINI_RING.replace(seed=seed), keep_samples=False)
        assert [unkept.avg_speed.hex(), unkept.speed_std.hex()] == [
            kept.avg_speed.hex(), kept.speed_std.hex()]

    @pytest.mark.parametrize("keep", [True, False])
    def test_unkept_samples_allocate_no_position_column(self, monkeypatch, keep):
        made = []

        class Recorded(TrajectorySamples):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                made.append(self)

        monkeypatch.setattr(harness, "TrajectorySamples", Recorded)
        run(MINI_RING, keep_samples=keep)
        recorded = made[0]  # the run's own; an unkept result gets an empty one
        assert len(recorded) == recorded._speed.size == 6 * 301
        if keep:
            assert recorded._pos.size == 6 * 301
        else:
            assert recorded._pos is None


# where repr and orjson's exponent styles meet, on both sides
FORMAT_EDGES = [1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16, 5e-324,
                2.0**53, 0.0, -0.0, math.nan, math.inf, -math.inf]


def reprs(col: np.ndarray) -> list[str]:
    return [repr(x) for x in col.tolist()]


class TestFloatFields:
    """The native float formatter writes exactly what ``repr`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), max_size=20))
    def test_equals_repr_on_every_float64(self, values):
        col = np.array(values, dtype=float)
        assert harness._float_fields(col) == reprs(col)

    def test_edges_of_both_exponent_styles(self):
        col = np.array(FORMAT_EDGES + [-x for x in FORMAT_EDGES])
        assert harness._float_fields(col) == reprs(col)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20180618)
        bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        # half of them get an exponent near the range orjson's text is kept for,
        # 2**-20 to 2**60, so both bounds are crossed often
        near = rng.integers(1023 - 20, 1023 + 60, size=100_000, dtype=np.uint64)
        bits[:100_000] = (bits[:100_000] & ~np.uint64(0x7FF << 52)) | (near << np.uint64(52))
        col = bits.view(np.float64)
        assert harness._float_fields(col) == reprs(col)

    def test_an_empty_column_gives_no_fields_and_no_rows(self, tmp_path):
        samples = run(sc.find("Merge 0").replace(horizon_s=3.0, warmup_s=1.0)).samples
        assert samples.positions[0].size == 0  # the open network starts empty
        assert harness._float_fields(samples.positions[0]) == []
        cols = TrajectorySamples()
        for t, ids in ((0.0, []), (0.1, ["a", "b"]), (0.2, [])):
            cols.append(t, ids, [1.5] * len(ids), [2.5] * len(ids))
        for run_samples in (samples, cols):
            path = harness._export_trajectories(run_samples, tmp_path)
            with open(path, "rb") as fh:
                assert fh.read() == reference_trajectories_csv(run_samples)
        assert len(import_trajectories(path)) == 2


# one value of each class that orjson writes unlike ``repr``, and -0.0
OUT_OF_RANGE = st.one_of(
    st.floats(-1e-4, 1e-4, exclude_min=True, exclude_max=True).filter(bool),
    st.floats(min_value=1e16) | st.floats(max_value=-1e16),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))


@st.composite
def planted_samples(draw) -> TrajectorySamples:
    """20 to 40 steps of up to 40 vehicles with in-range floats, and values of
    every out-of-range class planted at random (step, row, column)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(20, 40))
    sizes = [draw(st.integers(0, 40))]
    for _ in range(steps - 1):  # the population often stays, sometimes changes
        sizes.append(sizes[-1] if draw(st.booleans()) else draw(st.integers(0, 40)))
    pos = [rng.uniform(0.0, 3680.0, n) for n in sizes]
    speed = [rng.uniform(1e-4, 30.0, n) for n in sizes]
    filled = [k for k, n in enumerate(sizes) if n]
    if filled:
        for value in draw(st.lists(OUT_OF_RANGE, max_size=12)):
            k = draw(st.sampled_from(filled))
            col = draw(st.sampled_from([pos, speed]))
            col[k][draw(st.integers(0, sizes[k] - 1))] = value
    cols = TrajectorySamples()
    for k, n in enumerate(sizes):
        cols.append(round(0.1 * k, 9), [f"v{i}" for i in range(n)], pos[k], speed[k])
    return cols


class TestOutOfRangeFields:
    """Out-of-range values planted anywhere in a run's columns are written as
    ``repr`` writes them, whichever step and column they fall in."""

    @settings(max_examples=60, deadline=None)
    @given(planted_samples())
    def test_planted_values_match_the_per_sample_writer(self, cols):
        with tempfile.TemporaryDirectory() as tmp:
            path = harness._export_trajectories(cols, tmp)
            with open(path, "rb") as fh:
                assert fh.read() == reference_trajectories_csv(cols)


ODD_IDS = ["plain", "with,comma", 'with "quote"', "line\nbreak", "cr\rreturn", "", "b"]
CSV_FLOATS = st.one_of(st.sampled_from(FORMAT_EDGES + [-x for x in FORMAT_EDGES]),
                       st.floats(width=64))


@st.composite
def odd_samples(draw) -> TrajectorySamples:
    """A few steps whose population changes, often to another of the same
    size, or empties; awkward ids and every kind of float64."""
    steps = draw(st.integers(1, 6))
    times = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=steps, max_size=steps)))
    cols, ids = TrajectorySamples(), []
    for time in times:
        if draw(st.booleans()):
            ids = draw(st.lists(st.sampled_from(ODD_IDS), max_size=4, unique=True))
        values = st.lists(CSV_FLOATS, min_size=len(ids), max_size=len(ids))
        cols.append(time, ids, draw(values), draw(values))
    return cols


class TestRowAssembly:
    """Rows joined per step from a per-population template are the bytes of
    one ``csv.writer`` row per sample."""

    @settings(max_examples=80, deadline=None)
    @given(odd_samples())
    def test_equals_the_per_sample_writer(self, cols):
        with tempfile.TemporaryDirectory() as tmp:
            path = harness._export_trajectories(cols, tmp)
            with open(path, "rb") as fh:
                assert fh.read() == reference_trajectories_csv(cols)


@st.composite
def sample_steps(draw):
    """A column capacity below the samples, then steps whose population
    changes or empties, at non-decreasing times (ties allowed)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=30))
    times = sorted(draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.5, 2.0, 7.25]),
                                 min_size=len(sizes), max_size=len(sizes))))
    steps = []
    for time, n in zip(times, sizes):
        first = int(rng.integers(0, 5))
        steps.append((time, [f"v{i}" for i in range(first, first + n)],
                      rng.uniform(0.0, 3680.0, n), rng.normal(15.0, 8.0, n)))
    return draw(st.integers(0, max(sum(sizes) - 1, 0))), steps


def parent_metric_bits(steps, warmup):
    """The mean and std bits of one array joined from the selected steps."""
    speeds = np.concatenate([np.empty(0)] + [np.array(v, dtype=float)
                                             for t, _, _, v in steps if t > warmup])
    return (float(speeds.mean()).hex(), float(speeds.std()).hex()) if speeds.size else None


def metric_bits(samples, warmup):
    try:
        return tuple(x.hex() for x in metrics(samples, warmup))
    except ValueError:
        return None


class TestSampleColumns:
    """Two float64 columns hold every sample through growth, and a tail view
    of the speed column reduces to the bits of a joined copy."""

    @settings(max_examples=60, deadline=None)
    @given(sample_steps())
    def test_hold_every_sample_and_give_the_joined_metrics(self, case):
        capacity, steps = case
        cols = TrajectorySamples(capacity)
        for step in steps:
            cols.append(*step)
        assert sample_rows(cols) == [(t, vid, x, v) for t, ids, pos, speed in steps
                                     for vid, x, v in zip(ids, pos.tolist(), speed.tolist())]
        for warmup in [-1.0] + sorted({t for t, *_ in steps}):
            assert metric_bits(cols, warmup) == parent_metric_bits(steps, warmup)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 60), min_size=1, max_size=12))
    def test_a_tail_view_at_each_of_8_offsets_reduces_like_a_copy(self, seed, sizes):
        speed = np.random.default_rng(seed).normal(15.0, 8.0, 8 + sum(sizes))
        cols = TrajectorySamples(3)
        ends = np.cumsum([1] * 8 + sizes).tolist()
        for k, (a, b) in enumerate(zip([0] + ends, ends)):
            cols.append(float(k), [f"v{i}" for i in range(b - a)], speed[a:b], speed[a:b])
        for offset in range(8):
            view = cols.speeds_after(offset - 0.5)
            assert np.shares_memory(view, cols.speeds[offset])  # read in place
            copy = speed[offset:].copy()
            assert metric_bits(cols, offset - 0.5) == (float(copy.mean()).hex(),
                                                       float(copy.std()).hex())


def relabelled(samples: TrajectorySamples, names: dict) -> TrajectorySamples:
    """``samples`` with every vehicle id ``v`` renamed ``names.get(v, v)``."""
    out = TrajectorySamples()
    for time, ids, pos, speed in zip(samples.times, samples.ids, samples.positions,
                                     samples.speeds):
        out.append(time, [names.get(v, v) for v in ids], pos, speed)
    return out


def assert_clean(directory, old_csv: bytes) -> None:
    """No temp file left and the old CSV kept."""
    assert sorted(p.name for p in directory.iterdir()) == ["metrics.json", "trajectories.csv"]
    assert (directory / "trajectories.csv").read_bytes() == old_csv


class TestPartedExport:
    """trajectories.csv of runs whose population changes, and an export that
    fails partway."""

    def assert_exported(self, samples, tmp_path):
        path = harness._export_trajectories(samples, tmp_path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_trajectories_csv(samples)
        assert sample_rows(import_trajectories(path)) == sample_rows(samples)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectories.csv"]

    def test_merge_with_spawns_and_exits(self, tmp_path):
        cfg = sc.find("Merge 0").replace(horizon_s=40.0, warmup_s=10.0, seed=2)
        samples = run(cfg).samples
        seen = set().union(*samples.ids)
        assert seen - set(samples.ids[0]) and seen - set(samples.ids[-1])  # spawned, left
        self.assert_exported(samples, tmp_path)

    def test_ids_that_need_quoting(self, tmp_path):
        samples = run(MINI_RING.replace(seed=3)).samples
        first = samples.ids[0]
        samples = relabelled(samples, {first[0]: 'with,comma "quote"',
                                       first[1]: "line\nbreak"})
        self.assert_exported(samples, tmp_path)

    @pytest.mark.parametrize("error", [OSError("disk on fire"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_a_failure_partway_keeps_the_old_file(self, tmp_path, monkeypatch, error):
        result = run(MINI_RING)
        real_rows = harness._write_rows

        def rows(fh, cols):
            real_rows(fh, sample_columns(sample_rows(cols)[:len(cols) // 2]))
            raise error

        monkeypatch.setattr(harness, "_write_rows", rows)
        (tmp_path / "trajectories.csv").write_bytes(b"old run\r\n")
        with pytest.raises(type(error)):
            export(result, tmp_path)
        assert_clean(tmp_path, b"old run\r\n")


class TestPlannerLog:
    def test_six_equal_columns_in_install_order(self):
        log = run(MINI_RING).planner_log
        assert list(log) == ["time", "agent_id", "role", "v0", "a_max", "s0"]
        assert {len(col) for col in log.values()} == {2 * 25}  # 25 replans of 2 CAVs
        assert log["agent_id"] == ["cav_00", "cav_03"] * 25
        assert log["time"][::2] == log["time"][1::2] == [5.0 + k for k in range(25)]

    def test_a_replan_grows_the_log_by_at_most_64_bytes_per_planner(self):
        n, replans = 100, 4
        cfg = MINI_RING.replace(n_humans=0, n_cavs=n, ring_length_m=10.0 * n,
                                collaboration=False)
        world = sc.instantiate(cfg)
        pipeline = harness.AgentPipeline(cfg, ScriptedBackend(), MemoryStore.default(),
                                         RunFlags())
        pipeline.collaborate(world)  # the roles, held apart from the log
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for k in range(replans):
                pipeline.replan(world, float(k))
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        in_harness = [tracemalloc.Filter(True, harness.__file__)]
        grown = sum(d.size_diff for d in after.filter_traces(in_harness).compare_to(
            before.filter_traces(in_harness), "filename"))
        assert grown <= 64 * n * replans  # a dict per planner takes about 280 B
        assert len(planner_rows(pipeline.planner_log)) == n * replans


class TestReplayFlow:
    def test_replay_reproduces_planners_and_metrics(self, tmp_path):
        cfg = MINI_RING.replace(seed=4)
        log_path = tmp_path / "transcript.jsonl"
        log = TranscriptLog(log_path)
        recorded = run(cfg, RecordingBackend(ScriptedBackend(), log, "rec"))
        log.close()
        replayed = run(cfg, ReplayBackend(log_path))
        assert replayed.planner_log == recorded.planner_log
        assert replayed.avg_speed == recorded.avg_speed
        assert replayed.speed_std == recorded.speed_std
        assert replayed.flags == recorded.flags

    def test_perception_off_reasons_as_each_cav(self, tmp_path):
        cfg = sc.find("Ring 1").replace(perception=False, horizon_s=25.0)
        log = TranscriptLog(tmp_path / "transcript.jsonl")
        result = run(cfg, RecordingBackend(ScriptedBackend(), log, "rec"))
        log.close()
        reasons = [r for r in TranscriptLog.read(tmp_path / "transcript.jsonl")
                   if r["stage"] == "reason"]
        assert [r["agent_id"] for r in reasons] == [
            p["agent_id"] for p in planner_rows(result.planner_log)]
        for r in reasons:
            assert f"You are {r['agent_id']}." in r["request"][-1]["content"]

    def test_replay_onto_another_seed_is_a_divergence(self, tmp_path):
        # the agents and stages come in the recorded order; the scenes do not
        log_path = tmp_path / "transcript.jsonl"
        log = TranscriptLog(log_path)
        run(MINI_RING.replace(seed=4), RecordingBackend(ScriptedBackend(), log, "rec"))
        log.close()
        replayed = run(MINI_RING.replace(seed=5), ReplayBackend(log_path))
        assert replayed.flags["backend_errors"] > 0


class TestSweep:
    def test_fe_2_runs_the_same_at_every_seed(self):
        # 14 CAVs and no human on a closed route: nothing draws from the seed
        cfg = sc.find("FE 2").replace(horizon_s=30.0)
        a, b = run(cfg.replace(seed=0)), run(cfg.replace(seed=1))
        assert (a.avg_speed, a.speed_std, a.flags) == (b.avg_speed, b.speed_std, b.flags)
        assert sample_rows(a.samples) == sample_rows(b.samples) and len(a.samples) > 0

    def test_single_cell_single_seed_equals_run(self):
        table = sweep([SweepCell("mini", MINI_RING)], seeds=[3])
        row = table.rows[0]
        direct = run(MINI_RING.replace(seed=3), keep_samples=False)
        assert row["n_ok"] == 1
        assert row["avg_mean"] == direct.avg_speed
        assert row["avg_se"] == 0.0

    def test_mean_over_seeds(self):
        seeds = [0, 1, 2]
        table = sweep([SweepCell("mini", MINI_RING)], seeds=seeds)
        directs = [run(MINI_RING.replace(seed=s), keep_samples=False).avg_speed
                   for s in seeds]
        assert table.rows[0]["avg_mean"] == pytest.approx(float(np.mean(directs)))

    def test_failing_cell_isolated(self):
        bad = MINI_RING.replace(name="Too Dense", n_humans=50)
        table = sweep([SweepCell("bad", bad), SweepCell("good", MINI_RING)],
                      seeds=[0])
        by_label = {r["label"]: r for r in table.rows}
        assert by_label["bad"]["n_ok"] == 0
        assert "ValueError" in by_label["bad"]["errors"]
        assert by_label["good"]["n_ok"] == 1

    def test_parallel_equals_sequential(self, monkeypatch):
        cells = [SweepCell("mini", MINI_RING)]
        seq = sweep(cells, seeds=[0, 1], workers=1)

        def no_fork():
            raise AssertionError("os.fork called: workers must be spawned")

        with monkeypatch.context() as m:
            m.setattr(os, "fork", no_fork)
            par = sweep(cells, seeds=[0, 1], workers=2)
        assert seq.rows == par.rows

    def test_csv_and_table_render(self):
        table = sweep([SweepCell("mini", MINI_RING)], seeds=[0])
        assert table.to_csv().startswith("label,n_ok,avg_mean")
        assert "mini" in table.format_table()

    def test_csv_round_trips_awkward_labels_and_errors(self):
        label = 'pen=0.1, "quoted"\nsecond line'
        error = ("seed 0: LlmTransportError: replay mismatch: recorded (cav_00, reason), "
                 "requested (cav_01, reason)")
        table = harness.SweepTable([{"label": label, "n_ok": 0, "avg_mean": math.nan,
                                     "avg_se": math.nan, "std_mean": math.nan,
                                     "std_se": math.nan, "errors": error}])
        rows = list(csv.reader(io.StringIO(table.to_csv(), newline="")))
        assert rows == [["label", "n_ok", "avg_mean", "avg_se", "std_mean", "std_se",
                         "errors"], [label, "0", "nan", "nan", "nan", "nan", error]]

    def test_clean_csv_keeps_its_bytes(self):
        table = harness.SweepTable([{"label": "pen=0.100", "n_ok": 2, "avg_mean": 4.25,
                                     "avg_se": 0.125, "std_mean": 1.5, "std_se": 0.0,
                                     "errors": ""}])
        assert table.to_csv() == ("label,n_ok,avg_mean,avg_se,std_mean,std_se,errors\n"
                                  "pen=0.100,2,4.25,0.125,1.5,0.0,\n")

    def test_duplicate_labels_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_cell", lambda job: pytest.fail("ran"))
        cells = [SweepCell("x", sc.find("Ring 0")), SweepCell("x", sc.find("Ring 2"))]
        with pytest.raises(ValueError, match="duplicate"):
            sweep(cells, seeds=[0])

    @pytest.mark.parametrize("name", ["Ring 0", "FE 1"])
    def test_penetration_sweep_needs_a_merge_template(self, name, monkeypatch):
        # penetration acts only on merge arrivals: every rate would run one world
        monkeypatch.setattr(harness, "_run_cell", lambda job: pytest.fail("ran"))
        with pytest.raises(ValueError, match="only on merges"):
            harness.penetration_sweep(sc.find(name), [0], [0.1, 0.5])


class TestMakeBackend:
    def test_remote_needs_config(self):
        with pytest.raises(ValueError, match="BackendConfig"):
            harness.make_backend("remote")

    def test_replay_needs_transcript(self):
        with pytest.raises(ValueError, match="transcript"):
            harness.make_backend("replay")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            harness.make_backend("oracle")

    def test_log_wraps_in_recorder(self, tmp_path):
        log = TranscriptLog(tmp_path / "t.jsonl")
        try:
            backend = harness.make_backend("scripted", log=log, run_id="r")
        finally:
            log.close()
        assert isinstance(backend, RecordingBackend)
        assert isinstance(backend.inner, ScriptedBackend)
        assert isinstance(harness.make_backend("scripted"), ScriptedBackend)


class TestTranscriptRecording:
    def test_second_run_into_the_same_path_replaces_the_first(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        counts = []
        for run_id in ("first", "second"):
            log = TranscriptLog(path)
            try:
                run(sc.find("Ring 0"),
                    harness.make_backend("scripted", log=log, run_id=run_id))
            finally:
                log.close()
            counts.append(len(TranscriptLog.read(path)))
        assert counts[0] == counts[1] > 0
        assert {r["run_id"] for r in TranscriptLog.read(path)} == {"second"}


class TestCli:
    def test_run_and_list(self, tmp_path):
        from click.testing import CliRunner
        from comal.cli import main
        runner = CliRunner()
        out = runner.invoke(main, ["list"])
        assert out.exit_code == 0 and "Ring 1" in out.output
        out = runner.invoke(main, [
            "run", "--scenario", "Ring 0", "--seed", "1",
            "--out", str(tmp_path / "r"),
            "--config", write_mini_override(tmp_path)])
        assert out.exit_code == 0, out.output
        assert (tmp_path / "r" / "metrics.json").exists()
        assert (tmp_path / "r" / "trajectories.csv").exists()

    def test_remote_defaults_are_the_backend_config_defaults(self, tmp_path, monkeypatch):
        from click.testing import CliRunner
        from comal.cli import main
        monkeypatch.setenv("COMAL_API_KEY", "test-key")
        seen = []

        def make_backend(name, *, remote_config, **kw):
            seen.append(remote_config)
            raise RuntimeError("no run needed")

        monkeypatch.setattr(harness, "make_backend", make_backend)
        out = CliRunner().invoke(main, ["run", "--scenario", "Ring 0", "--backend", "remote",
                                        "--out", str(tmp_path / "r")])
        assert str(out.exception) == "no run needed"
        [config] = seen
        assert config == BackendConfig(endpoint=config.endpoint, model=config.model)

    def test_run_rejects_an_out_of_range_override_as_a_usage_error(self, tmp_path):
        from click.testing import CliRunner
        from comal.cli import main
        path = tmp_path / "bad.json"
        for key, value in [("replan_interval_s", -1), ("speed_limit", -1),
                           ("vehicle_length_m", 0)]:
            path.write_text(json.dumps({key: value}), encoding="utf-8")
            out = CliRunner().invoke(main, ["run", "--scenario", "Ring 0",
                                            "--config", str(path),
                                            "--out", str(tmp_path / "r")])
            assert out.exit_code == 2, out.output
            assert "Invalid value for '--config'" in out.output and key in out.output
            assert not (tmp_path / "r").exists()

    def test_run_rejects_an_override_of_the_wrong_type_as_a_usage_error(
            self, tmp_path, monkeypatch):
        from click.testing import CliRunner
        from comal.cli import main
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("ran"))
        path = tmp_path / "bad.json"
        for key, value in [("speed_limit", "fast"), ("n_humans", 2.5),
                           ("perception", "no")]:
            path.write_text(json.dumps({key: value}), encoding="utf-8")
            out = CliRunner().invoke(main, ["run", "--scenario", "Ring 0",
                                            "--config", str(path),
                                            "--out", str(tmp_path / "r")])
            assert out.exit_code == 2, out.output
            assert "Invalid value for '--config'" in out.output and key in out.output

    # `json.load` reads NaN and Infinity; NaN noise ran noise-free, unwarned.
    # dt 0.9 on Merge 2 leaves the failsafe's tested range (it can collide)
    @pytest.mark.parametrize("scenario, text, key", [
        ("Ring 0", '{"noise_std": NaN}', "noise_std"),
        ("Ring 0", '{"dt": Infinity}', "dt"),
        ("Merge 2", '{"noise_std": 3.0, "dt": 0.9}', "dt")])
    def test_run_rejects_a_non_finite_or_too_long_step_as_a_usage_error(
            self, scenario, text, key, tmp_path, monkeypatch):
        from click.testing import CliRunner
        from comal.cli import main
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("ran"))
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        out = CliRunner().invoke(main, ["run", "--scenario", scenario, "--config", str(path),
                                        "--out", str(tmp_path / "r")])
        assert out.exit_code == 2, out.output
        assert "Invalid value for '--config'" in out.output and key in out.output

    @pytest.mark.parametrize("args,option", [
        (["run", "--scenario", "Ring 9", "--out", "r"], "--scenario"),
        (["sweep", "--scenarios", "Ring 0,Ring 9"], "--scenarios"),
        (["sweep", "--penetrations", "0.1", "--scenario", "Ring 9"], "--scenario"),
    ], ids=["run", "sweep-scenarios", "sweep-template"])
    def test_an_unknown_scenario_is_a_usage_error(self, args, option, monkeypatch):
        from click.testing import CliRunner
        from comal.cli import main
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("ran"))
        out = CliRunner().invoke(main, args)
        assert out.exit_code == 2, out.output
        assert f"Invalid value for '{option}'" in out.output
        assert "unknown scenario 'Ring 9'" in out.output

    @pytest.mark.parametrize("args,message", [
        (["--penetrations", "0.1", "--scenario", "Ring 0"], "penetration acts only on merges"),
        (["--scenarios", "Ring 0,Ring 0"], "duplicate sweep labels"),
        (["--penetrations", "0.1,0.1"], "duplicate sweep labels"),
    ], ids=["ring-template", "repeated-scenario", "repeated-rate"])
    def test_a_sweep_that_cannot_run_is_a_usage_error(self, args, message, monkeypatch):
        from click.testing import CliRunner
        from comal.cli import main
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("ran"))
        out = CliRunner().invoke(main, ["sweep", *args])
        assert out.exit_code == 2, out.output
        assert message in out.output

    def test_run_refuses_to_replay_the_transcript_it_writes(self, tmp_path):
        from click.testing import CliRunner
        from comal.cli import main
        out_dir = tmp_path / "r"
        out_dir.mkdir()
        source = out_dir / "transcript.jsonl"
        source.write_text('{"agent_id": "a"}\n', encoding="utf-8")
        out = CliRunner().invoke(main, [
            "run", "--scenario", "Ring 0", "--backend", "replay",
            "--transcript", str(out_dir / ".." / "r" / "transcript.jsonl"),
            "--out", str(out_dir)])
        assert out.exit_code == 2 and "--transcript" in out.output
        assert source.read_text(encoding="utf-8") == '{"agent_id": "a"}\n'
        assert not (out_dir / "metrics.json").exists()

    def test_sweep_cli(self, tmp_path):
        from click.testing import CliRunner
        from comal.cli import main
        runner = CliRunner()
        out = runner.invoke(main, [
            "sweep", "--scenarios", "Ring 0", "--seeds", "0,1",
            "--out", str(tmp_path / "sweep.csv"),
            ])
        # full Ring 0 x 2 seeds is quick enough and exercises the real path
        assert out.exit_code == 0, out.output
        assert (tmp_path / "sweep.csv").exists()

    def test_sweep_has_no_backend_option(self):
        from click.testing import CliRunner
        from comal.cli import main
        out = CliRunner().invoke(main, ["sweep", "--scenarios", "Ring 0",
                                        "--backend", "scripted"])
        assert out.exit_code == 2 and "No such option '--backend'" in out.output

    @pytest.mark.parametrize("option,value", [
        ("--seeds", "5..3"), ("--seeds", "a,b"), ("--seeds", "1..x"),
        ("--seeds", ","), ("--penetrations", "0.1,high"), ("--penetrations", ","),
        ("--penetrations", "0.5,1.5"),
    ])
    def test_sweep_rejects_malformed_lists(self, option, value):
        from click.testing import CliRunner
        from comal.cli import main
        out = CliRunner().invoke(main, ["sweep", "--scenarios", "Ring 0", option, value])
        assert out.exit_code == 2, out.output
        assert f"Invalid value for '{option}'" in out.output


    @pytest.mark.parametrize("args", [
        ["run", "--scenario", "Ring 0", "--retries", "-1"],
        ["run", "--scenario", "Ring 0", "--timeout", "0"],
        ["sweep", "--scenarios", "Ring 0", "--workers", "0"],
    ], ids=["retries", "timeout", "workers"])
    def test_bad_numbers_are_usage_errors(self, args, tmp_path, monkeypatch):
        from click.testing import CliRunner
        from comal.cli import main
        monkeypatch.setattr(harness, "run", lambda *a, **k: pytest.fail("ran"))
        out_args = ["--out", str(tmp_path / ("r" if args[0] == "run" else "s.csv"))]
        out = CliRunner().invoke(main, args + out_args)
        assert out.exit_code == 2, out.output
        assert f"Invalid value for '{args[-2]}'" in out.output


def write_mini_override(tmp_path):
    import json as _json
    path = tmp_path / "mini.json"
    path.write_text(_json.dumps({"horizon_s": 25.0, "warmup_s": 5.0}))
    return str(path)

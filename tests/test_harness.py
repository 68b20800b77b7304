"""Run loop, metrics, export, and sweep behavior."""
import json
import math
import os

import numpy as np
import pytest

from comal import dynamics as dyn
from comal import harness
from comal import scenario as sc
from comal.agent import ScriptedBackend
from comal.harness import (RunResult, SweepCell, TrajectorySample, export,
                           import_trajectories, metrics, run, sweep)
from comal.llm_client import RecordingBackend, ReplayBackend, TranscriptLog

MINI_RING = sc.ScenarioConfig(name="Mini Ring", topology="ring", horizon_s=30.0,
                              warmup_s=5.0, n_humans=4, n_cavs=2)


def sample_set(values, t=30.0):
    return [TrajectorySample(t, f"v{i}", 0.0, v) for i, v in enumerate(values)]


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
        samples = [TrajectorySample(19.9, "a", 0.0, 100.0),
                   TrajectorySample(20.0, "a", 0.0, 100.0),
                   TrajectorySample(20.1, "a", 0.0, 7.0)]
        avg, std = metrics(samples, warmup=20.0)
        assert avg == 7.0 and std == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            metrics(sample_set([1.0], t=5.0), warmup=20.0)


class TestRun:
    def test_deterministic_same_seed(self):
        a = run(MINI_RING.replace(seed=7))
        b = run(MINI_RING.replace(seed=7))
        assert a.avg_speed == b.avg_speed
        assert a.speed_std == b.speed_std
        assert a.samples == b.samples
        assert a.planner_log == b.planner_log

    def test_different_seed_differs(self):
        a = run(MINI_RING.replace(seed=1))
        b = run(MINI_RING.replace(seed=2))
        assert a.avg_speed != b.avg_speed

    def test_zero_cav_never_invokes_pipeline(self):
        result = run(MINI_RING.replace(n_humans=6, n_cavs=0))
        assert result.roles == {}
        assert result.planner_log == []

    def test_sample_times_are_dt_multiples(self):
        result = run(MINI_RING)
        times = sorted({s.time for s in result.samples})
        for k, t in enumerate(times):
            assert t == round(k * MINI_RING.dt, 9)

    def test_vehicle_count_conserved_on_closed_network(self):
        result = run(MINI_RING)
        by_time = {}
        for s in result.samples:
            by_time.setdefault(s.time, set()).add(s.vehicle_id)
        counts = {len(v) for v in by_time.values()}
        assert counts == {6}

    def test_metric_sanity(self):
        result = run(MINI_RING)
        assert result.avg_speed <= MINI_RING.speed_limit
        assert result.speed_std >= 0.0
        assert all(s.speed >= 0.0 for s in result.samples)

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
        assert back == result.samples
        doc = json.loads(open(paths["metrics"]).read())
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


class TestSweep:
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

    def test_parallel_equals_sequential(self):
        cells = [SweepCell("mini", MINI_RING)]
        seq = sweep(cells, seeds=[0, 1], workers=1)
        par = sweep(cells, seeds=[0, 1], workers=2)
        assert seq.rows == par.rows

    def test_csv_and_table_render(self):
        table = sweep([SweepCell("mini", MINI_RING)], seeds=[0])
        assert table.to_csv().startswith("label,n_ok,avg_mean")
        assert "mini" in table.format_table()

    def test_duplicate_labels_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_cell", lambda job: pytest.fail("ran"))
        cells = [SweepCell("x", sc.find("Ring 0")), SweepCell("x", sc.find("Ring 2"))]
        with pytest.raises(ValueError, match="duplicate"):
            sweep(cells, seeds=[0])


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


def write_mini_override(tmp_path):
    import json as _json
    path = tmp_path / "mini.json"
    path.write_text(_json.dumps({"horizon_s": 25.0, "warmup_s": 5.0}))
    return str(path)

"""Acceptance criteria. One test per criterion, each at its stated tolerance,
each printing a PASS line with the measured values (run with -s to see them).
"""
import json
import math
import random
import time

import mpmath
import numpy as np
import pytest
from scipy.stats import spearmanr

from comal import agent
from comal import dynamics as dyn
from comal import harness
from comal import scenario as sc
from comal.agent import (MessagePool, PlannerSpec, RunFlags, ScriptedBackend,
                         brainstorm)
from comal.llm_client import (PlannerParseError, RecordingBackend,
                              ReplayBackend, TranscriptLog, extract_planner_json)

from helpers import sample_columns, sample_rows, uniform_ring_world

SEEDS = range(5)


def verdict(n, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget"


def mean(xs):
    return sum(xs) / len(xs)


def run_seeds(cfg, seeds=SEEDS):
    return [harness.run(cfg.replace(seed=s), keep_samples=True) for s in seeds]


def test_criterion_1_idm_unit_oracle():
    t0 = time.perf_counter()
    mpmath.mp.dps = 50

    def oracle(v0, T, a_max, b, delta, s0, v, dv, s):
        v0, T, a_max, b, delta, s0, v, dv, s = map(mpmath.mpf,
                                                   (v0, T, a_max, b, delta, s0, v, dv, s))
        s_star = s0 + max(mpmath.mpf(0), v * T + v * dv / (2 * mpmath.sqrt(a_max * b)))
        return float(a_max * (1 - (v / v0) ** delta - (s_star / s) ** 2))

    p = dyn.IdmParams(v0=30.0, T=1.0, a_max=1.0, b=1.5, delta=4.0, s0=2.0)
    pinned = dyn.idm_accel(p, 5.0, 0.0, 10.0)
    ref = oracle(30, 1, 1, 1.5, 4, 2, 5, 0, 10)
    ok = abs(pinned - ref) < 1e-12

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        v0 = rng.uniform(1.0, 40.0)
        T = rng.uniform(0.2, 3.0)
        a_max = rng.uniform(0.3, 3.0)
        b = rng.uniform(0.5, 4.0)
        delta = rng.uniform(1.0, 6.0)
        s0 = rng.uniform(0.5, 5.0)
        v = rng.uniform(0.0, v0 * 1.2)
        dv = rng.uniform(-10.0, 10.0)
        s = rng.uniform(0.5, 200.0)
        params = dyn.IdmParams(v0=v0, T=T, a_max=a_max, b=b, delta=delta, s0=s0)
        got = dyn.idm_accel(params, v, dv, s)
        want = oracle(v0, T, a_max, b, delta, s0, v, dv, s)
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        ok = ok and err < 1e-9
    verdict(1, ok,
            f"IDM matches 50-digit oracle: pinned |d|={abs(pinned - ref):.2e} "
            f"(<1e-12), worst of 1000 random points {worst:.2e} (<1e-9)",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_equilibrium_fixed_point():
    t0 = time.perf_counter()
    w = uniform_ring_world(n=22, length=230.0, noise_std=0.0)
    for _ in range(10000):
        dyn.step(w, 0.1)
    spread = float(w.speed.max() - w.speed.min())
    verdict(2, spread < 1e-9,
            f"uniform 230 m/22-vehicle ring after 10,000 steps: speed spread "
            f"{spread:.2e} (<1e-9)", time.perf_counter() - t0, 5.0)


def test_criterion_3_instability_emergence():
    t0 = time.perf_counter()
    cfg = sc.find("Ring 0").all_human()
    hits = 0
    details = []
    for s in SEEDS:
        result = harness.run(cfg.replace(seed=s))
        post = [v for t, *_, v in sample_rows(result.samples) if t > cfg.warmup_s]
        vmin = min(post)
        std = result.speed_std
        details.append(f"seed {s}: min={vmin:.2f}, std={std:.2f}")
        if vmin < 1.0 and std > 0.5:
            hits += 1
    verdict(3, hits >= 4,
            f"stop-and-go waves in {hits}/5 seeds (need >=4 with min speed <1 "
            f"and pooled std >0.5): " + "; ".join(details),
            time.perf_counter() - t0, 10.0)


def test_criterion_4_ring_wave_damping():
    t0 = time.perf_counter()
    cav = sc.find("Ring 1")
    controlled = run_seeds(cav)
    baseline = run_seeds(cav.all_human())
    std_c = mean([r.speed_std for r in controlled])
    std_h = mean([r.speed_std for r in baseline])
    avg_c = mean([r.avg_speed for r in controlled])
    avg_h = mean([r.avg_speed for r in baseline])
    reduction = 1.0 - std_c / std_h
    drift = avg_c / avg_h - 1.0
    ok = reduction >= 0.40 and abs(drift) <= 0.10
    verdict(4, ok,
            f"3 controlled vehicles cut pooled std by {reduction:.1%} (needs "
            f">=40%) at avg drift {drift:+.1%} (within ±10%)",
            time.perf_counter() - t0, 15.0)


def test_criterion_5_figure_eight_queueing():
    t0 = time.perf_counter()
    cav = sc.find("FE 1")
    controlled = run_seeds(cav)
    baseline = run_seeds(cav.all_human())
    avg_gain = mean([r.avg_speed for r in controlled]) / mean(
        [r.avg_speed for r in baseline]) - 1.0
    std_drop = 1.0 - mean([r.speed_std for r in controlled]) / mean(
        [r.speed_std for r in baseline])
    ok = avg_gain >= 0.05 and std_drop >= 0.30
    verdict(5, ok,
            f"queueing raises avg speed {avg_gain:+.1%} (needs >=+5%) and cuts "
            f"pooled std by {std_drop:.1%} (needs >=30%)",
            time.perf_counter() - t0, 15.0)


def test_criterion_6_merge_penetration_monotonicity():
    t0 = time.perf_counter()
    pens = [0.10, 0.25, 1.0 / 3.0, 0.50, 0.90]
    table = harness.penetration_sweep(sc.find("Merge 0"), SEEDS, pens)
    means = [row["avg_mean"] for row in table.rows]
    rho = float(spearmanr(pens, means).statistic)
    gain = means[-1] / means[0] - 1.0
    ok = rho > 0.8 and gain >= 0.10
    verdict(6, ok,
            f"penetration sweep Spearman rho={rho:+.2f} (needs >0.8), 90% vs "
            f"10% penetration {gain:+.1%} (needs >=+10%); means="
            + ", ".join(f"{m:.2f}" for m in means),
            time.perf_counter() - t0, 60.0)


def test_criterion_7_collaboration_ablation():
    t0 = time.perf_counter()
    full_cfg = sc.find("FE 1")
    ablated_cfg = full_cfg.replace(collaboration=False)
    full = run_seeds(full_cfg)
    ablated = run_seeds(ablated_cfg)
    roles_identical = all(len(set(r.roles.values())) == 1 for r in ablated)
    avg_full = mean([r.avg_speed for r in full])
    avg_ablated = mean([r.avg_speed for r in ablated])
    ok = roles_identical and avg_ablated <= avg_full
    verdict(7, ok,
            f"without collaboration all roles identical={roles_identical}; avg "
            f"{avg_ablated:.2f} <= full pipeline {avg_full:.2f}",
            time.perf_counter() - t0, 30.0)


class _NeverTerminates:
    name = "adversarial"

    def __init__(self, mode):
        self.mode = mode
        self.rng = random.Random(1)

    def complete(self, turns, *, agent_id, stage):
        if self.mode == "crash":
            raise RuntimeError("adversarial crash")
        if self.mode == "junk":
            return "".join(self.rng.choice('{}":abcdef,01 \n')
                           for _ in range(self.rng.randrange(0, 60)))
        if self.mode == "bad_block":
            return '[ROLES FINAL]\n{"ghost_vehicle": "leader"}'
        return "still thinking"


def test_criterion_8_protocol_and_parser_properties():
    t0 = time.perf_counter()
    # brainstorm always terminates within max_rounds for adversarial backends
    ids = [f"cav_{i:02d}" for i in range(4)]
    scenes = {vid: agent.SceneDescription(
        scenario_tag="figure_eight", ego_id=vid, ego_speed=3.0, headway=20.0,
        leader_id="x", leader_speed=3.0, speed_limit=30.0, route_length=377.0,
        cyclic=True, intersections=1, position_arc=float(i * 5),
        neighbors=()) for i, vid in enumerate(ids)}
    protocol_ok = True
    for mode in ("silent", "crash", "junk", "bad_block"):
        pool = MessagePool()
        roles = brainstorm(ids, pool, _NeverTerminates(mode), scenes, max_rounds=3)
        protocol_ok &= len(pool.messages) <= 3 * len(ids)
        protocol_ok &= sorted(r.vehicle_id for r in roles) == ids
        protocol_ok &= sum(1 for r in roles if r.role == "leader") <= 1

    # parser + clamp: fuzzed inputs never violate installed-parameter bounds
    rng = random.Random(42)
    alphabet = '{}[]":,.+-0123456789evas0_max nulltruefalse\n\\'
    violations = 0
    parsed = 0
    for k in range(10000):
        if k % 3 == 0:
            text = json.dumps({"v0": rng.uniform(-1e6, 1e6),
                               "a_max": rng.choice([rng.uniform(-10, 10),
                                                    float("nan"), float("inf")]),
                               "s0": rng.uniform(-100, 100)})
        else:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        try:
            values = extract_planner_json(text)
        except PlannerParseError:
            continue
        parsed += 1
        p = PlannerSpec.clamped(values["v0"], values["a_max"], values["s0"], 30.0)
        if not (0.0 < p.v0 <= 30.0 and 0.0 < p.a_max <= 3.0 and 0.5 <= p.s0 <= 10.0):
            violations += 1
    ok = protocol_ok and violations == 0
    verdict(8, ok,
            f"brainstorm bounded for 4 adversarial backends; parser fuzz: "
            f"{parsed} of 10000 inputs parsed, {violations} bound violations",
            time.perf_counter() - t0, 10.0)


def test_criterion_9_determinism_and_replay(tmp_path):
    t0 = time.perf_counter()
    cfg = sc.find("Ring 1").replace(seed=7)
    a = harness.run(cfg)
    b = harness.run(cfg)
    harness.export(a, tmp_path / "a")
    harness.export(b, tmp_path / "b")
    bytes_equal = ((tmp_path / "a" / "metrics.json").read_bytes()
                   == (tmp_path / "b" / "metrics.json").read_bytes())

    replay_cfg = sc.ScenarioConfig(name="Replay Ring", topology="ring",
                                   horizon_s=40.0, warmup_s=5.0,
                                   n_humans=4, n_cavs=2, seed=11)
    log_path = tmp_path / "transcript.jsonl"
    log = TranscriptLog(log_path)
    recorded = harness.run(replay_cfg, RecordingBackend(ScriptedBackend(), log, "rec"))
    log.close()
    replayed = harness.run(replay_cfg, ReplayBackend(log_path))
    replay_ok = (replayed.planner_log == recorded.planner_log
                 and replayed.avg_speed == recorded.avg_speed
                 and replayed.speed_std == recorded.speed_std)
    ok = bytes_equal and replay_ok
    verdict(9, ok,
            f"metrics.json byte-identical across invocations={bytes_equal}; "
            f"replayed transcript reproduces planners and metrics={replay_ok}",
            time.perf_counter() - t0, 10.0)


def test_criterion_10_metrics_oracle():
    t0 = time.perf_counter()
    sets = {
        "constant": ([5.0, 5.0, 5.0, 5.0], (5.0, 0.0)),
        "two-point": ([4.0, 6.0], (5.0, 1.0)),
        "three-point": ([1.0, 2.0, 3.0], (2.0, math.sqrt(2.0 / 3.0))),
    }
    ok = True
    for name, (values, (want_avg, want_std)) in sets.items():
        samples = sample_columns([(30.0, f"v{i}", 0.0, v) for i, v in enumerate(values)])
        avg, std = harness.metrics(samples, warmup=20.0)
        ok = ok and abs(avg - want_avg) < 1e-12 and abs(std - want_std) < 1e-12
    verdict(10, ok, "metrics match the three hand-computed sample sets to 1e-12",
            time.perf_counter() - t0, 5.0)

"""comal benchmark: time one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ring_cav_dense --seed 0 --seconds 55 --trace 0

Run from the repository root; comal is imported from ``src/``. Each phase
runs in a process of its own (see ``worker.py``): set-up is repeated
``SETUP_REPS`` times and its median reported, and the timed ops run in one
process that does nothing else, so its peak memory is the workload's own.

``--trace 0`` reports the end-to-end metrics of untraced ops. ``--trace 1``
first makes one traced pass (set-up and one op, with comal's public
functions wrapped from ``tracer.py``), undoes the wrapping, then times
untraced ops, and reports per-layer metrics plus the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Everything,
with the environment and every op's time, is also written to
``.perfbench/results/``; ``compare.py`` compares such files.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ring_cav_dense", "ring_human_long")
DEFAULT_SEED = 0  # the seed whose outputs must match reference.json
SETUP_REPS = 3
TIME_LIMIT_S = 170.0

END_TO_END = ("wall_s", "vehicle_steps_per_s", "setup_s", "peak_rss_mb", "ok_frac")
PER_LAYER = (
    "scenario.instantiate.s", "scenario.instantiate.calls",
    "dynamics.step.s", "dynamics.step.self_s", "dynamics.step.calls",
    "dynamics.step.p50_ms", "dynamics.step.p99_ms",
    "dynamics.World.rebuild_links.s", "dynamics.World.rebuild_links.calls",
    "dynamics.World.add_vehicle.s", "dynamics.World.add_vehicle.calls",
    "dynamics.NoiseModel.sample.calls",
    "kernels.idm_acceleration.s", "kernels.idm_acceleration.calls",
    "kernels.safe_speed.s", "kernels.safe_speed.calls",
    "network.leader_of.s", "network.leader_of.calls",
    "network.forward_gap.calls", "network.project_onto_route.calls",
    "network.visible_extent.calls",
    "agent.perceive.s", "agent.perceive.self_s", "agent.perceive.calls",
    "agent.brainstorm.s", "agent.brainstorm.self_s", "agent.brainstorm.calls",
    "agent.reason.s", "agent.reason.self_s", "agent.reason.calls",
    "agent.reason.first_try_ratio",
    "agent.MemoryStore.default.s", "agent.MemoryStore.default.calls",
    "agent.ScriptedBackend.complete.s", "agent.ScriptedBackend.complete.calls",
    "agent.flags.collision", "agent.flags.brainstorm_fallbacks",
    "agent.flags.planner_fallbacks", "agent.flags.parse_failures",
    "agent.flags.backend_errors",
    "llm_client.extract_planner_json.s", "llm_client.extract_planner_json.calls",
    "harness.run.s", "harness.run.self_s", "harness.run.calls", "harness.samples",
    "harness.metrics.s", "harness.export.s", "harness.export.calls",
    "harness.export.bytes",
    "trace.wall_s", "trace.overhead_s", "trace.spans",
)


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "vehicle_steps_per_s":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


class BenchError(RuntimeError):
    """A phase could not run; no result is printed."""


def call_worker(command: str, deadline: float, *args: str) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {command}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), command, *args],
                              cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{command} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{command} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_phases(args, work: Path, spans: Path, deadline: float) -> tuple[list, dict, list]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--tiny"] if args.tiny else []
    setups, problems = [], []
    configs = set()
    for k in range(SETUP_REPS):
        inputs = work / f"inputs{k}"
        setups.append(call_worker("setup", deadline, *common, "--inputs", str(inputs))["setup_s"])
        configs.add((inputs / "config.json").read_bytes())
    if len(configs) != 1:
        problems.append("set-up made different inputs from the same seed")
    report = call_worker("ops", deadline, *common, "--inputs", str(inputs),
                         "--work", str(work), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--spans", str(spans))
    return setups, report, problems


def reference_problems(workload: str, digests: dict) -> list[str]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        want = json.load(fh)["digests"][workload]
    return [f"{f} sha256 {digests.get(f)} differs from reference {h}"
            for f, h in sorted(want.items()) if digests.get(f) != h]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a few seconds (self-tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "comal" / "__init__.py").is_file():
        print(f"error: no comal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / tag
    try:
        setups, report, problems = run_phases(args, work, results / f"{tag}.spans.jsonl",
                                              deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = report["ops"]
    if args.seed == DEFAULT_SEED and not args.tiny:
        ops[0]["problems"] += reference_problems(args.workload, report["digests"] or {})
        ops[0]["ok"] = not ops[0]["problems"]
    failed = sum(not op["ok"] for op in ops)
    walls = [op["wall_s"] for op in ops if not op["traced"]]
    q1, median, q3 = statistics.quantiles(walls, n=4)
    wall = statistics.median(walls)
    end_to_end = {
        "wall_s": wall,
        "vehicle_steps_per_s": report["vehicle_steps"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_frac": 1.0 - failed / len(ops),
    }
    layers = report["layers"] or {}
    if args.trace:
        layers["trace.wall_s"] = report["traced_wall_s"]
        layers["trace.overhead_s"] = report["traced_wall_s"] - wall
    names = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else end_to_end
    metrics = {n: {"value": source.get(n, 0), "unit": unit_of(n)} for n in names}
    correct = failed == 0 and not problems

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny, "env": report["env"],
           "setup_s": setups, "ops": ops, "vehicle_steps": report["vehicle_steps"],
           "digests": report["digests"], "problems": problems,
           "wall_s_quartiles": [q1, median, q3], "failed_frac": failed / len(ops),
           "end_to_end": end_to_end, "layers": layers}
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)

    for problem in problems + [p for op in ops for p in op["problems"]]:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed "
          f"(failed_frac {failed / len(ops):.3f}); wall_s median {wall:.4f} "
          f"[q1 {q1:.4f}, q3 {q3:.4f}] over {len(walls)} timed ops; "
          f"kernel backend {report['env']['kernel_backend']}")
    for n, m in metrics.items():
        print(f"  {n:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

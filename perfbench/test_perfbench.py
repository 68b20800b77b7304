"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(cwd, *args):
    return subprocess.run([sys.executable, f"{HERE.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_inputs(tmp_path, name):
    w = workloads.WORKLOADS[name]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    w.generate(5, str(inputs), tiny=True)
    return w, str(inputs)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    proc = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= worker.MIN_OPS
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == want


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", NAMES)
def test_two_traced_passes_count_exactly_the_same(tmp_path, name):
    w, inputs = tiny_inputs(tmp_path, name)
    counts = []
    for k in range(2):
        report = worker.measure(w, 5, inputs, str(tmp_path / f"work{k}"), seconds=0,
                                trace=True, tiny=True)
        assert all(op["ok"] for op in report["ops"]), report["ops"]
        counts.append({n: v for n, v in report["layers"].items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["harness.run.calls"] > 0
    assert counts[0]["network.project_onto_route.calls"] > 0
    for layer, path, _ in TARGETS:  # every wrapper is gone again
        owner = sys.modules[f"comal.{layer}"]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), f"{layer}.{path}"


@pytest.mark.parametrize("bad", [0, 1])
def test_a_corrupted_metrics_json_fails_its_op(tmp_path, monkeypatch, bad):
    w, inputs = tiny_inputs(tmp_path, "ring_human_long")
    real_op, calls = w.op, []

    def op(cfg, out):
        real_op(cfg, out)
        if len(calls) == bad:
            path = os.path.join(out, "metrics.json")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["avg_speed"] += 1e-9
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
        calls.append(out)

    monkeypatch.setattr(w, "op", op)
    report = worker.measure(w, 5, inputs, str(tmp_path / "work"), seconds=0,
                            trace=False, tiny=True)
    assert [op["ok"] for op in report["ops"]] == [i != bad for i in range(worker.MIN_OPS)]

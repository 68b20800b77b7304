"""One benchmark phase in a process of its own; ``run.py`` starts these.

    worker.py setup --workload W --seed N --inputs DIR [--tiny]
    worker.py ops   --workload W --seed N --inputs DIR --work DIR
                    --seconds S --trace 0|1 --spans FILE [--tiny]

Each prints one JSON object on stdout. ``setup`` times the import of comal
and the input generation. ``ops`` repeats the workload's op until the time
is up, checks every op's outputs, and reports its own peak memory, so the
figure belongs to this workload alone.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()  # set-up time starts before comal is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

MIN_OPS = 3  # timed ops per run, however short the time given


def _import_workloads():
    import workloads
    import comal
    if Path(comal.__file__).resolve().parent != SRC / "comal":
        raise RuntimeError(f"imported comal from {comal.__file__}, not from {SRC}")
    return workloads


def environment() -> dict:
    """What a comparison between two runs must hold equal or record."""
    import numpy
    from comal import kernels
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"kernel_backend": kernels.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def _guarded(fn, *args) -> list[str]:
    """The problems ``fn`` returns, or the exception it raised.

    A failing op is counted as failed, never fatal to the run.
    """
    try:
        return fn(*args) or []
    except Exception as exc:
        return [f"{fn.__name__}: {type(exc).__name__}: {exc}"]


class OpLoop:
    """Runs ops of one workload and checks each one's outputs.

    Ops get the workload's full output check until one passes it; every
    later op must write files byte-identical to that op's. An op fails if
    it raises or if a check finds a problem.
    """

    def __init__(self, workload, inputs: str):
        self.w = workload
        self.cfg = workload.load(inputs)
        self.first = None  # digests of the first op that passed the full check
        self.vehicle_steps = 0
        self.ops: list[dict] = []

    def op(self, out: str, traced: bool = False) -> dict:
        t0 = time.perf_counter()
        problems = _guarded(self.w.op, self.cfg, out)
        wall = time.perf_counter() - t0
        if not problems:
            problems = _guarded(self._check, out)
        rec = {"wall_s": wall, "ok": not problems, "problems": problems, "traced": traced}
        self.ops.append(rec)
        return rec

    def _check(self, out: str) -> list[str]:
        from workloads import sha256_of
        digests = {f: sha256_of(os.path.join(out, f)) for f in self.w.outputs}
        if self.first is None:
            problems, self.vehicle_steps = self.w.check(self.cfg, out)
            if not problems:
                self.first = digests
            return problems
        return [f"{f} differs from the first checked op's" for f in digests
                if digests[f] != self.first[f]]


def measure(w, seed: int, inputs: str, work: str, seconds: float, trace: bool,
            tiny: bool, spans_path: str | None = None) -> dict:
    ops = OpLoop(w, inputs)
    out = os.path.join(work, "out")
    report = {"layers": None}
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        traced_inputs = os.path.join(work, "traced-inputs")
        os.makedirs(traced_inputs, exist_ok=True)
        tracer.install()
        try:
            w.generate(seed, traced_inputs, tiny)
            traced = ops.op(out, traced=True)
        finally:
            tracer.restore()
        tracer.verify_restored()
        report["layers"] = tracer.layer_metrics()
        report["traced_wall_s"] = traced["wall_s"]
        if spans_path:
            tracer.write_spans(spans_path)
    deadline = time.perf_counter() + seconds
    timed = 0
    while timed < MIN_OPS or time.perf_counter() < deadline:
        ops.op(out)
        timed += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    report.update(ops=ops.ops, vehicle_steps=ops.vehicle_steps,
                  digests=ops.first, peak_rss_mb=peak_kb / 1024.0)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=("setup", "ops"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    workloads = _import_workloads()
    w = workloads.WORKLOADS[args.workload]
    if args.command == "setup":
        os.makedirs(args.inputs, exist_ok=True)
        w.generate(args.seed, args.inputs, args.tiny)
        doc = {"setup_s": time.perf_counter() - _T_START}
    else:
        doc = measure(w, args.seed, args.inputs, args.work, args.seconds,
                      bool(args.trace), args.tiny, args.spans)
        doc["env"] = environment()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of comal, patched in from the benchmark's own files.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper, wherever a comal module or class binds it, so calls the modules
make to each other are seen too (``agent`` calling ``net_mod.leader_of``,
``dynamics`` calling ``kernels.safe_speed``). A span wrapper keeps
(name, start, end, parent, ok) in memory; hot leaf functions, which run
more than 100k times in one op, only count their calls. ``restore`` puts
every original back and ``verify_restored`` proves it.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (layer, function or Class.method, hot leaf: count calls only)
TARGETS = [
    ("scenario", "catalog", False),
    ("scenario", "instantiate", False),
    ("dynamics", "step", False),
    ("dynamics", "World.rebuild_links", False),
    ("dynamics", "World.add_vehicle", False),
    ("dynamics", "World.set_params", False),
    ("dynamics", "NoiseModel.sample", True),
    ("kernels", "idm_acceleration", False),
    ("kernels", "safe_speed", False),
    ("network", "build_ring", False),
    ("network", "leader_of", False),
    ("network", "forward_gap", True),
    ("network", "project_onto_route", True),
    ("network", "visible_extent", True),
    ("agent", "perceive", False),
    ("agent", "brainstorm", False),
    ("agent", "reason", False),
    ("agent", "recall", False),
    ("agent", "execute", False),
    ("agent", "parse_scene_text", False),
    ("agent", "MemoryStore.default", False),
    ("agent", "ScriptedBackend.complete", False),
    ("llm_client", "extract_planner_json", False),
    ("harness", "run", False),
    ("harness", "metrics", False),
    ("harness", "export", False),
]

# spans called once per simulation step get per-call quantiles
PER_STEP = ("dynamics.step",)
FLAGS = ("collision", "brainstorm_fallbacks", "planner_fallbacks",
         "parse_failures", "backend_errors")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, ok)
        self.calls: Counter = Counter()  # hot leaves only
        self.runs: list[dict] = []  # flags and sample count of each harness.run
        self.export_bytes = 0  # size of every file harness.export wrote
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = {"harness.run": self._observe_run,
                   "harness.export": self._observe_export}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, ok)
            if observe is not None:
                observe(out)
            return out
        return traced

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observe_run(self, result) -> None:
        self.runs.append({"flags": result.flags, "samples": len(result.samples)})

    def _observe_export(self, paths: dict) -> None:
        self.export_bytes += sum(os.path.getsize(p) for p in paths.values())

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "comal" or n.startswith("comal.")) and m is not None]
        for layer, path, hot in TARGETS:
            name = f"{layer}.{path}"
            wrap = self._counter if hot else self._span
            owner = sys.modules[f"comal.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    self._set(cls, attr, type(raw)(wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, wrap(name, raw))
                continue
            original = getattr(owner, path)
            wrapper = wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def verify_restored(self) -> None:
        """Raise if any patched attribute does not hold its original again."""
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, v in self._patched
                if vars(o)[a] is not v]
        if left:
            raise RuntimeError(f"tracing not undone for {left}")

    # -- results --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def counters(self) -> dict:
        """Everything the trace counts; it repeats exactly for the same inputs."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(Counter(f"{s[0]}.calls" for s in self.spans))
        out.update(Counter(f"{s[0]}.errors" for s in self.spans if not s[4]))
        for flag in FLAGS:
            out[f"agent.flags.{flag}"] = sum(int(r["flags"][flag]) for r in self.runs)
        out["harness.samples"] = sum(r["samples"] for r in self.runs)
        out["harness.export.bytes"] = self.export_bytes
        return out

    def layer_metrics(self) -> dict:
        """Counters plus total time, self time and per-step call quantiles.

        Self time is a span's duration minus the time its child spans cover
        (children of one span run one after another, so their durations add).
        """
        child = [0.0] * len(self.spans)
        first_parse_ok = {}  # reason span -> did its first planner parse succeed
        for name, t0, t1, parent, ok in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name == "llm_client.extract_planner_json":
                    first_parse_ok.setdefault(parent, ok)
        out = self.counters()
        durations: dict[str, list] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (t1 - t0)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (t1 - t0 - child[i])
            if name in PER_STEP:
                durations.setdefault(name, []).append(t1 - t0)
        for name, d in durations.items():
            out[f"{name}.p50_ms"], out[f"{name}.p99_ms"] = (
                float(q) * 1000.0 for q in np.percentile(d, [50, 99]))
        reasons = [i for i, s in enumerate(self.spans) if s[0] == "agent.reason"]
        out["agent.reason.first_try_ratio"] = (
            sum(bool(first_parse_ok.get(i)) for i in reasons) / len(reasons)
            if reasons else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

"""Compare two sets of benchmark results files, workload by workload.

    python3 perfbench/compare.py --base .perfbench/results/A*.json \
                                 --new  .perfbench/results/B*.json

Prints, for every end-to-end metric and workload, each side's median and
quartiles over its runs and the change of the medians. Refuses (exit 2) to
pair runs whose kernel backend, run length or size differ, since their
times are not comparable.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

COMPARABLE = ("seconds", "tiny", "trace")


def load(paths) -> list[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def incomparable(docs: list[dict]) -> list[str]:
    out = []
    backends = {d["env"]["kernel_backend"] for d in docs}
    if len(backends) > 1:
        out.append(f"kernel backends differ: {sorted(backends)}")
    for key in COMPARABLE:
        values = {json.dumps(d[key]) for d in docs}
        if len(values) > 1:
            out.append(f"{key} differs: {sorted(values)}")
    return out


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (1 run)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)} runs)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    refused = incomparable(base + new)
    if refused:
        print("refusing to compare: " + "; ".join(refused), file=sys.stderr)
        return 2
    sides = {"base": defaultdict(list), "new": defaultdict(list)}
    for side, docs in (("base", base), ("new", new)):
        for d in docs:
            sides[side][d["workload"]].append(d["end_to_end"])
    for workload in sorted(set(sides["base"]) & set(sides["new"])):
        print(workload)
        for metric in sides["base"][workload][0]:
            b = [r[metric] for r in sides["base"][workload]]
            n = [r[metric] for r in sides["new"][workload]]
            change = statistics.median(n) / statistics.median(b) - 1.0
            print(f"  {metric:<22} base {summary(b)}  new {summary(n)}  change {change:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

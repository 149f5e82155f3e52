"""Compare saved benchmark records of a base and a changed program.

    python3 perfbench/run.py --workload W --seed S --seconds 10 --out base.jsonl    # base
    python3 perfbench/run.py --workload W --seed S --seconds 10 --out change.jsonl  # change
    python3 perfbench/compare.py base.jsonl change.jsonl

For every workload and metric in both files it prints each side's median
and quartiles and the change of the median as a share of the base median.
An end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` is flagged, and the exit code is then 1.

Runs are only comparable on the same interpreter, sympy, core count,
machine and benchmark code, so the command refuses (exit code 2) when any
of those stamp fields differ between the records.  The program's commit and
source digest are expected to differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENVIRONMENT = ("python", "implementation", "sympy", "nproc", "machine", "benchmark")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    stamps = {tuple(r["stamp"].get(k) for k in ENVIRONMENT) for r in base + change}
    if len(stamps) != 1:
        print("compare: refusing, the records come from different environments:", file=sys.stderr)
        for s in sorted(stamps, key=str):
            print("  " + json.dumps(dict(zip(ENVIRONMENT, s))), file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    keys = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in change})
    for workload, trace in keys:
        sides = [[r for r in rs if (r["workload"], r["trace"]) == (workload, trace)]
                 for rs in (base, change)]
        print(f"{workload} trace={trace} runs={len(sides[0])}/{len(sides[1])}")
        for name in sides[0][0]["metrics"]:
            b = summary([r["metrics"][name]["value"] for r in sides[0]])
            c = summary([r["metrics"][name]["value"] for r in sides[1]])
            unit = sides[0][0]["metrics"][name]["unit"]
            share = (c[1] - b[1]) / b[1] if b[1] else 0.0
            flag = ""
            if name in end_to_end:
                sign = 1 if end_to_end[name]["better"] == "lower" else -1
                if sign * share > end_to_end[name]["bound"]:
                    flag = "  WORSE than bound"
                    worse += 1
            print(f"  {name:<34} base {b[1]:>12.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  change {c[1]:>12.6g} [{c[0]:.6g}, {c[2]:.6g}] {unit}  {share:+.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_OUTPUT... -- NEW_OUTPUT...

Each argument is a file holding the standard output of one
perfbench/run.py run.  The ``report:`` line of every file is read; runs
are compared only when their environments (Python, numpy, cores,
machine, kernel backend, QDTAU_* and thread variables), workload,
trace mode and run length all match, otherwise the script refuses with
exit status 3.  For each metric it prints each side's median and
quartiles and the change of the medians relative to the base; a count
is flagged "repeats" when every pair of runs on the same seed read the
same value, the condition for citing it as a count.
"""
from __future__ import annotations

import json
import statistics
import sys

MATCH = ("env", "workload", "trace", "seconds")


def read_report(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith("report: "):
                return json.loads(line[len("report: "):])
    raise ValueError(f"{path}: no report line")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeats(reports, name):
    """None when no seed was run twice, else whether all runs of each
    seed read the same value of the metric."""
    by_seed = {}
    for rep in reports:
        by_seed.setdefault(rep["seed"], []).append(rep["metrics"][name]["value"])
    if all(len(values) < 2 for values in by_seed.values()):
        return None
    return all(len(set(values)) == 1 for values in by_seed.values())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    try:
        base = [read_report(p) for p in argv[:cut]]
        new = [read_report(p) for p in argv[cut + 1:]]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not base or not new:
        print("error: need at least one run on each side", file=sys.stderr)
        return 2
    ref = base[0]
    for rep in base + new:
        for key in MATCH:
            if rep[key] != ref[key]:
                print(f"refusing to compare: {key} differs "
                      f"({json.dumps(ref[key], sort_keys=True)} vs "
                      f"{json.dumps(rep[key], sort_keys=True)})", file=sys.stderr)
                return 3
    print(f"{ref['workload']} trace={ref['trace']}: "
          f"{len(base)} base runs, {len(new)} new runs")
    for name in sorted(ref["metrics"]):
        unit = ref["metrics"][name]["unit"]
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
        flag = ""
        if unit == "count":
            same = [repeats(side, name) for side in (base, new)]
            if False in same:
                flag = "  varies"
            elif True in same:
                flag = "  repeats"
        print(f"{name:32s} {unit:7s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
              f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {change:+.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

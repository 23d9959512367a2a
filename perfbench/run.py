"""Layered benchmark for qdtau.

Run from the root of a checkout:

    python3 perfbench/run.py --workload periods-mix --seed 1 --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each exists):

    periods-mix   period matrices of random configurations, n = 5..8
    connection    Euler pairing, scaling path and basis change, n = 5..6
    degeneration  both collision families at every second schedule
                  point down to d = 3.9e-4, plus the exponent fits
    exact         Picard, strata and cover-homology exact arithmetic

One process runs the workload's fixed item list serially, in a closed
loop (each item starts when the previous one ends), pass after pass for
about --seconds (at least MIN_PASSES whole passes).  Every item is
checked against an oracle.  With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 the same loop runs once untraced and
once with spans and counters at qdtau's module boundaries, and the last
line carries the per-layer metrics.  Earlier lines print the
environment, the inputs' hash, per-class outcomes, every check and
every metric with its unit, plus a ``report:`` JSON line that
perfbench/compare.py reads.

Times are scaled to the machine's fast speed state (perfbench/speed.py
says why and how); the ``wall_*`` notes give the same figures as
measured wall-clock time.

End-to-end metrics (--trace 0):

    setup_s          fresh interpreter to first item ready, median of 5
    pass_s           time of one pass (the sum of its items' times; the
                     reference probes between items are left out),
                     median over the run's passes
    item_ms_p50      median over items of each item's median latency
                     over the run's passes
    item_ms_p90      p90 of the latencies of all items and passes; when
                     fewer than 10 of the MIN_PASSES x items samples
                     every run reaches lie beyond p90, the highest
                     percentile that has 10 beyond it (the
                     ``tail_percentile`` note names it)
    ok_frac          share of attempted items that passed every check
    accuracy_digits  -log10 of the worst oracle error (floor 1e-16)
    peak_rss_mb      peak resident memory of the benchmark process

``correct`` is false only when an output contradicts exact data (kappa,
boundary exponents, exact identities, positivity of Im Omega).  Misses
of an accuracy gate, library errors and spent work budgets make an item
failed, which ``failed`` and ok_frac count.

The package is imported from this checkout's src/ only; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "BLIS_NUM_THREADS")
QDTAU_VARS = ("QDTAU_THREADS", "QDTAU_FORCE_PY")
SETUP_REPEATS = 5
SETUP_ATTEMPTS = 3
MIN_SAMPLES_BEYOND = 10
MIN_PASSES = 4         # passes of an untraced run, even past --seconds
MIN_TRACED_PASSES = 2  # passes of each half of a traced run


class SetupError(RuntimeError):
    """The checkout has no importable qdtau package."""


def pin_environment():
    """Serial BLAS/OpenMP and the package's own defaults; must run
    before numpy is imported to take effect on BLAS."""
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    for var in QDTAU_VARS:
        os.environ.pop(var, None)


def import_package():
    """Put this checkout's src/ first on sys.path and import qdtau from
    there, never from an installed copy."""
    if not (SRC / "qdtau" / "__init__.py").is_file():
        raise SetupError(f"no qdtau package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdtau
    if Path(qdtau.__file__).resolve().parent != (SRC / "qdtau").resolve():
        raise SetupError(f"qdtau imported from {qdtau.__file__}, not {SRC}")
    return qdtau


def environment():
    """What must match before two runs may be compared."""
    import numpy
    from qdtau import kernels
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpus,
        "machine": platform.machine(),
        "backend": kernels.BACKEND,
    }
    env.update({var: os.environ.get(var) for var in QDTAU_VARS + PINNED_THREADS})
    return env


# ----------------------------------------------------------------- set-up

def setup_probe(workload, seed, smoke):
    """Child side of setup_s: import, generate inputs, warm the rule
    caches, then report ready with the inputs' hash; then the
    reference time, taken right after set-up in the same process."""
    import speed
    import workloads
    items = workloads.generate(workload, seed, smoke)
    workloads.warm_up()
    print("ready", workloads.inputs_hash(items), flush=True)
    print("reference", speed.reference_time(), flush=True)


def setup_sample(cmd):
    """One set-up probe: (wall seconds to ready, the probe's reference
    time, its inputs' hash)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ref = out.split()
    if (proc.returncode != 0 or not line.startswith("ready ")
            or ref[:1] != ["reference"]):
        raise SetupError(f"set-up probe exited {proc.returncode}, printed "
                         f"{(line + out)[:200]!r}: {err.strip()[-500:]}")
    return wall, float(ref[1]), line.split()[1]


def measure_setup(workload, seed, smoke):
    """Time from starting a fresh interpreter to its first item being
    ready, SETUP_REPEATS times (once for --smoke).  Each sample is
    scaled by the reference time the fresh process takes right after
    its set-up.  A failed probe is tried again, SETUP_ATTEMPTS times in
    all.  Returns (wall samples, speed-scaled samples, hashes, failed
    attempts)."""
    import speed
    walls, scaled, hashes, failed = [], [], set(), 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    for _ in range(1 if smoke else SETUP_REPEATS):
        for attempt in range(SETUP_ATTEMPTS):
            try:
                wall, ref, digest = setup_sample(cmd)
                break
            except SetupError as exc:
                failed += 1
                print(f"warning: {exc}", file=sys.stderr)
                if attempt == SETUP_ATTEMPTS - 1:
                    raise
        walls.append(wall)
        scaled.append(wall * speed.REF_NOMINAL_S / ref)
        hashes.add(digest)
    return walls, scaled, hashes, failed


# ------------------------------------------------------------------ passes

def run_pass(items, budget, probe):
    """One pass over the item list.  Returns one record per item, as
    (label, class, Outcome, wall seconds, speed-scaled seconds,
    latency sample?); the degeneration fits are records that are not
    latency samples.  Reference probes run between items and are not
    part of any record."""
    import workloads
    records, pending, rows = [], [], {}

    def settle():
        factor = probe.scale()
        records.extend((*rec[:4], rec[3] * factor, rec[4]) for rec in pending)
        pending.clear()

    for item in items:
        t0 = time.perf_counter()
        outcome, row = workloads.run_item(item, budget)
        pending.append((item.label, item.cls, outcome,
                        time.perf_counter() - t0, True))
        if row is not None:
            rows.setdefault(item.cls, []).append(row)
        if probe.due():
            settle()
    if items and items[0].workload == "degeneration":
        for kind in sorted({it.cls for it in items}):
            expected = sum(it.cls == kind for it in items)
            t0 = time.perf_counter()
            outcome = workloads.fit_item(kind, rows.get(kind, []), expected)
            pending.append((f"{kind}-fit", kind, outcome,
                            time.perf_counter() - t0, False))
    settle()
    return records


def measure(items, seconds, budget, probe, min_passes, tracer=None):
    """Whole passes until another would overrun `seconds`, and at least
    `min_passes`.  Each pass is (wall seconds, scaled seconds, records,
    layer metrics or None); with a tracer, each pass is traced from a
    fresh span store."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        records = run_pass(items, budget, probe)
        wall = sum(r[3] for r in records)
        layers = tracer.metrics(wall) if tracer is not None else None
        passes.append((wall, sum(r[4] for r in records), records, layers))
        if (len(passes) >= min_passes
                and time.perf_counter() - start + wall > seconds):
            return passes


# ----------------------------------------------------------------- metrics

def tail_percentile(n_min):
    """The tail percentile of a workload whose runs all reach n_min
    latency samples: p90 when at least MIN_SAMPLES_BEYOND of n_min lie
    beyond it, else the highest whole percentile that has that many
    beyond it (never below p50)."""
    if n_min * 0.1 >= MIN_SAMPLES_BEYOND:
        return 90
    return max(50, math.floor(100 * (n_min - MIN_SAMPLES_BEYOND) / n_min))


def latency_percentiles(samples, pct):
    """(p50, tail) of (item label, seconds) samples.  p50 is the median
    over items of each item's median latency: it moves smoothly as items
    get faster or slower, where the median of the pooled samples jumps
    between the clusters of the two items that straddle it.  The tail is
    the nearest-rank p`pct` of all samples."""
    per_item = {}
    for label, t in samples:
        per_item.setdefault(label, []).append(t)
    p50 = statistics.median(statistics.median(v) for v in per_item.values())
    xs = sorted(t for _label, t in samples)
    return p50, xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def end_to_end(setup, passes, n_items, probe):
    walls, scaled = setup
    samples = [r for _w, _s, recs, _l in passes for r in recs if r[5]]
    pct = tail_percentile(n_items * MIN_PASSES)
    p50, tail = latency_percentiles([(r[0], r[4]) for r in samples], pct)
    w50, wtail = latency_percentiles([(r[0], r[3]) for r in samples], pct)
    outcomes = [r[2] for _w, _s, recs, _l in passes for r in recs]
    errs = [o.err for o in outcomes if o.err is not None]
    worst = max(errs) if errs else None
    ok = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(scaled), "s"),
        "pass_s": (statistics.median(s for _w, s, _r, _l in passes), "s"),
        "item_ms_p50": (1e3 * p50, "ms"),
        "item_ms_p90": (1e3 * tail, "ms"),
        "ok_frac": (ok / len(outcomes), "ratio"),
        # -log10 of the worst oracle error; exact zero counts as 1e-16
        "accuracy_digits": (
            -math.log10(max(worst, 1e-16)) if worst is not None else 0.0,
            "digits"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    class_s = {}
    for r in passes[0][2]:
        class_s[r[1]] = class_s.get(r[1], 0.0) + r[4]
    refs = probe.samples
    notes = {"latency_samples": len(samples), "tail_percentile": f"p{pct}",
             "fail_frac": 1.0 - ok / len(outcomes),
             "err_log10_max": math.log10(worst) if worst else None,
             "first_pass_s_by_class": {k: round(v, 3) for k, v in class_s.items()},
             # the same figures as wall-clock time, before speed scaling
             "wall_setup_s": statistics.median(walls),
             "wall_pass_s": statistics.median(w for w, _s, _r, _l in passes),
             "wall_item_ms_p50": 1e3 * w50,
             "wall_item_ms_p90": 1e3 * wtail,
             "reference_ms_min_median_max": [
                 round(1e3 * x, 4) for x in
                 (min(refs), statistics.median(refs), max(refs))]}
    return metrics, notes


def per_layer(untraced, traced):
    """Counts from the first traced pass, times as medians over traced
    passes, plus coverage and the traced/untraced pass-time ratio."""
    first = traced[0][3]
    out = {}
    for name, (value, unit) in first.items():
        if unit == "count":
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(p[3][name][0] for p in traced), unit)
    # speed-scaled pass times, so the machine's state does not enter
    out["trace.overhead"] = (
        statistics.median(p[1] for p in traced)
        / statistics.median(p[1] for p in untraced), "ratio")
    counts = [n for n, (_v, u) in first.items() if u == "count"]
    repeating = [n for n in counts
                 if all(p[3][n][0] == first[n][0] for p in traced[1:])]
    notes = {"traced_passes": len(traced),
             "repeating_counts": repeating if len(traced) > 1 else None}
    return out, notes


def summarize_outcomes(records):
    """Per-class attempted/failed and failure classes; per-check pass
    counts and worst values."""
    classes, checks = {}, {}
    for _label, cls, outcome, *_times in records:
        c = classes.setdefault(cls, {"attempted": 0, "failed": 0, "by_error": {}})
        c["attempted"] += 1
        if not outcome.ok:
            c["failed"] += 1
            c["by_error"][outcome.error_class] = \
                c["by_error"].get(outcome.error_class, 0) + 1
        for name, (value, tol, passed, hard) in outcome.checks.items():
            k = checks.setdefault(name, {"run": 0, "passed": 0, "worst": 0.0,
                                         "tolerance": tol, "hard": hard})
            k["run"] += 1
            k["passed"] += passed
            k["worst"] = max(k["worst"], value)
    return classes, checks


# -------------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("periods-mix", "connection", "degeneration", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few cheap items and one set-up sample (tests)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_environment()
    try:
        import_package()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    try:
        *setup, probe_hashes, probe_failures = measure_setup(
            args.workload, args.seed, args.smoke)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import speed
    import tracing
    import workloads
    items = workloads.generate(args.workload, args.seed, args.smoke)
    digest = workloads.inputs_hash(items)
    if probe_hashes != {digest}:
        print("error: set-up probes generated other inputs", file=sys.stderr)
        return 2
    workloads.warm_up()
    probe = speed.SpeedProbe()
    budget = workloads.WorkBudget()
    budget.install()
    traced = []
    try:
        if args.trace:
            untraced = measure(items, args.seconds / 2, budget, probe,
                               MIN_TRACED_PASSES)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(items, args.seconds / 2, budget, probe,
                                 MIN_TRACED_PASSES, tracer)
            finally:
                tracer.uninstall()
            metrics, notes = per_layer(untraced, traced)
        else:
            untraced = measure(items, args.seconds, budget, probe, MIN_PASSES)
            metrics, notes = end_to_end(setup, untraced, len(items), probe)
    finally:
        budget.uninstall()

    records = [r for p in untraced + traced for r in p[2]]
    classes, checks = summarize_outcomes(untraced[0][2])
    attempted = len(records)
    failed = sum(not r[2].ok for r in records)
    # outputs contradicting exact data make a run incorrect; accuracy
    # gates, library errors and spent budgets count as failed items
    correct = all(passed or not hard for r in records
                  for _v, _t, passed, hard in r[2].checks.values())

    notes["setup_probe_failures"] = probe_failures
    env = environment()
    print("env:", json.dumps(env, sort_keys=True))
    print(f"inputs: {args.workload} seed {args.seed}: {len(items)} items, "
          f"sha256 {digest}; {len(untraced)} untraced and {len(traced)} "
          f"traced passes; classes and checks below are of the first pass")
    for cls, c in sorted(classes.items()):
        print(f"class {cls}: attempted {c['attempted']}, failed {c['failed']} "
              f"{json.dumps(c['by_error'], sort_keys=True)}")
    for name, k in sorted(checks.items()):
        print(f"check {name}: {k['passed']}/{k['run']} passed, worst "
              f"{k['worst']:.3g} vs {k['tolerance']:g}"
              f"{' (exact data)' if k['hard'] else ''}")
    for name, value in sorted(notes.items()):
        print(f"note {name}: {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "inputs_sha256": digest,
        "items": len(items), "classes": classes, "checks": checks,
        "notes": notes, "setup_samples": setup[1],
        "wall_setup_samples": setup[0],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("report:", json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

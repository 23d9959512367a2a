"""Tests of the benchmark itself: seeded inputs, the metric names and
units BENCHMARK.json promises, oracles that catch a wrong value, the
speed scaling of pass times, the tracer's restore, and compare.py's
environment guard."""
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qdtau import curves, periods, quadrature, strata, tau  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.inputs_hash(workloads.generate(name, 7))
        assert first == workloads.inputs_hash(workloads.generate(name, 7))
        assert first != workloads.inputs_hash(workloads.generate(name, 8))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def _units(result):
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_end_to_end_metric(workload):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(_run(workload, 0)) == expected


@pytest.mark.parametrize("workload", ["periods-mix", "exact"])
def test_smoke_traced_run_emits_every_per_layer_metric(workload):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(_run(workload, 1)) == expected


def test_wrong_exact_value_fails_the_item(monkeypatch):
    item = next(it for it in workloads.generate("exact", 1)
                if it.cls == "signature")
    budget = workloads.WorkBudget()
    assert workloads.run_item(item, budget)[0].ok
    real = strata.collision_exponents
    monkeypatch.setattr(strata, "collision_exponents",
                        lambda kind: tuple(g + Fraction(1, 3) for g in real(kind)))
    outcome, _ = workloads.run_item(item, budget)
    assert not outcome.ok and outcome.error_class == "CheckFailed"


def test_wrong_exponent_fails_the_fit(monkeypatch):
    exact = strata.collision_exponents("zero-pole")
    rows = [{"d": d, ("gamma", 1): float(exact[0]), ("gamma", -1): float(exact[1])}
            for d in (0.1, 0.05, 0.025, 0.0125)]
    assert workloads.fit_item("zero-pole", rows, 4).ok
    assert workloads.fit_item("zero-pole", rows[:3], 4).error_class == "MissingRows"
    monkeypatch.setattr(strata, "collision_exponents",
                        lambda kind: (exact[0] + 1, exact[1]))
    outcome = workloads.fit_item("zero-pole", rows, 4)
    assert not outcome.ok and outcome.error_class == "CheckFailed"
    assert outcome.checks["gamma_plus_zero-pole"][3], "an exact-data check"


def test_pass_times_are_scaled_by_the_reference(monkeypatch):
    # a machine where the reference loop takes twice its nominal time
    monkeypatch.setattr(speed, "reference_time", lambda: 2 * speed.REF_NOMINAL_S)
    items = workloads.generate("degeneration", 1, smoke=True)
    budget = workloads.WorkBudget()
    records = run.run_pass(items, budget, speed.SpeedProbe())
    assert [r[5] for r in records] == [True] * len(items) + [False]
    for _label, _cls, outcome, wall, scaled, _sample in records:
        assert outcome.ok
        assert scaled == pytest.approx(wall / 2)


def test_tracer_covers_an_item_and_restores_the_package():
    item = workloads.generate("periods-mix", 1, smoke=True)[0]
    originals = (curves.build_cover, tau.build_cover, periods.adaptive_line,
                 periods.spine_integral, quadrature.adaptive_line, tau.phi_fn,
                 periods.PeriodEngine.__dict__["loop_period"])
    budget = workloads.WorkBudget()
    budget.install()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        outcome, _ = workloads.run_item(item, budget)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        budget.uninstall()
    assert outcome.ok
    assert originals == (curves.build_cover, tau.build_cover,
                         periods.adaptive_line, periods.spine_integral,
                         quadrature.adaptive_line, tau.phi_fn,
                         periods.PeriodEngine.__dict__["loop_period"])
    metrics = tracer.metrics(elapsed)
    assert metrics["trace.coverage"][0] > 0.95
    assert metrics["kernels.points"][0] == budget.points
    assert metrics["periods.engines"][0] == 1


def test_compare_refuses_runs_from_other_environments(tmp_path):
    report = {"env": {"numpy": "2.4.6"}, "workload": "exact", "trace": 0,
              "seconds": 1.0, "metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}
    base = tmp_path / "base.txt"
    base.write_text("report: " + json.dumps(report) + "\n")
    report["env"] = {"numpy": "1.26.4"}
    other = tmp_path / "other.txt"
    other.write_text("report: " + json.dumps(report) + "\n")
    assert compare.main([str(base), "--", str(base)]) == 0
    assert compare.main([str(base), "--", str(other)]) == 3

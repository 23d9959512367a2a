import csv
import hashlib
import json

import pytest

from qdtau import checks, tau
from qdtau.cli import load_config, main
from qdtau.curves import build_cover
from qdtau.cycles import SPINE_RHO_MIN, build_cycles_robust
from qdtau.periods import PeriodEngine
from qdtau.quadrature import SPINE_SIZES
from test_periods import COLLINEAR, PerLoopEngine, oracle_rules

REF_CONFIG = {
    "zeros": [[0.0, 0.0]],
    "poles": [[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [0.5, 0.0]],
    "scale": [1.0, 0.0],
    "tolerance": 1e-10,
    "pairing": [[4, 2], [0, 5], [1, 3]],
}


@pytest.fixture
def ref_config_path(tmp_path):
    p = tmp_path / "ref.json"
    p.write_text(json.dumps(REF_CONFIG))
    return str(p)


def rejected(argv, capsys):
    """The command exits 2 with an `error:` line on stderr."""
    capsys.readouterr()
    code = main(argv)
    return code == 2 and capsys.readouterr().err.startswith("error: ")


def run(args, out=None):
    argv = list(args)
    if out is not None:
        argv += ["--out", str(out)]
    code = main(argv)
    report = json.loads(out.read_text()) if out is not None else None
    return code, report


def test_kappa_principal(tmp_path):
    code, rep = run(["kappa", "--genus", "0",
                     "--signature", "1,-1,-1,-1,-1,-1"],
                    tmp_path / "r.json")
    assert code == 0
    assert rep["results"] == {"kappa_plus": "-40/3", "kappa_minus": "56/3"}
    assert rep["schema"] == "qdtau-report/1"


def test_kappa_bad_signature():
    assert main(["kappa", "--signature", "1,spam"]) == 2


def test_kappa_inconsistent_signature():
    # orders must satisfy the genus-0 degree constraint
    assert main(["kappa", "--genus", "0", "--signature", "1,1"]) == 2


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_unwritable_out_is_an_input_error(tmp_path, capsys, monkeypatch):
    # the path is tried before the suite runs a single check
    suite_runs = []
    monkeypatch.setattr(checks, "run", lambda full: suite_runs.append(full)
                        or [])
    out = tmp_path / "missing" / "r.json"
    for argv in (["kappa", "--signature", "1,-1,-1,-1,-1,-1"],
                 ["picard", "classes", "--genus", "0", "--n", "5"],
                 ["suite"]):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: "), err
        assert str(out) in err
    assert suite_runs == []


def test_picard_verify(tmp_path):
    code, rep = run(["picard", "verify", "--genus", "2", "--n", "1"],
                    tmp_path / "r.json")
    assert code == 0
    assert rep["passed"] is True
    assert set(rep["results"].values()) == {"0"}


def test_picard_classes(tmp_path):
    code, rep = run(["picard", "classes", "--genus", "0", "--n", "5"],
                    tmp_path / "r.json")
    assert code == 0
    lam = rep["results"]["lambda"]
    assert lam["lambda"] == "1"
    assert all(v == "0" for k, v in lam.items() if k != "lambda")
    assert rep["results"]["delta_inf"]["phi"] == "-5"


def test_picard_cli_digest(capsys):
    """Byte identity of `picard classes` and `picard verify` over every
    stable cell with g, n <= 5: sha256 over the cells in g-major order,
    classes before verify, each run fed as its exit code and newline,
    then its stdout.  The four n = 0 cells exit 2 with empty stdout."""
    digest = hashlib.sha256()
    cells = 0
    for g in range(6):
        for n in range(6):
            if 2 * g + n <= 3:
                continue
            cells += 1
            for action in ("classes", "verify"):
                capsys.readouterr()
                code = main(["picard", action, "--genus", str(g),
                             "--n", str(n)])
                digest.update(f"{code}\n".encode())
                digest.update(capsys.readouterr().out.encode())
    assert cells == 30
    assert digest.hexdigest() == (
        "0fb2fc26f53de20a10ac23aa0a60be56ce3153e4f889d59952798cb31a2f5f29")


def test_picard_rejects_empty_moduli(capsys):
    for action, g, n in (("verify", 0, 1), ("verify", 0, 3),
                         ("verify", 1, 1), ("classes", 0, 2)):
        assert rejected(["picard", action, "--genus", str(g),
                         "--n", str(n)], capsys), (action, g, n)


def test_periods_gates_the_asymmetry_before_symmetrizing(ref_config_path,
                                                         tmp_path):
    # the reported Omega is symmetrized, so its own asymmetry reads 0 on
    # every input; the defect and its gate carry the engine's, measured
    # before
    code, rep = run(["periods", "--config", ref_config_path],
                    tmp_path / "r.json")
    pe = PeriodEngine.for_config(load_config(ref_config_path),
                                 REF_CONFIG["tolerance"])
    pe.normalized_basis()
    defect = float(pe.omega_defect)
    assert code == 0 and defect > 0
    assert rep["diagnostics"]["omega_symmetry_defect"] == defect
    gate = next(c for c in rep["checks"] if c["name"] == "omega_symmetric")
    assert gate["value"] == defect and gate["passed"]


def test_periods_report(ref_config_path, tmp_path):
    code, rep = run(["periods", "--config", ref_config_path],
                    tmp_path / "r.json")
    assert code == 0
    assert rep["results"]["genus"] == 2
    assert len(rep["results"]["omega_minus"]) == 2
    assert len(rep["results"]["homological_coords"]) == 4
    assert rep["diagnostics"]["omega_symmetry_defect"] < 1e-8
    assert rep["diagnostics"]["omega_imag_min_eig"] > 0
    # the basis Omega is written in: the given pairing, as built
    assert rep["diagnostics"]["pairing"] == REF_CONFIG["pairing"]
    assert rep["diagnostics"]["spine_rho_min"] > 1.0
    # a given pairing is built as it is, its caps at the one factor
    assert rep["diagnostics"]["rejected_pairings"] == []
    assert "cap_factor" not in rep["diagnostics"]
    # every spine fits a rule, each a spine rule size
    assert rep["diagnostics"]["fallback_loops"] == []
    sizes = rep["diagnostics"]["rule_sizes"]
    assert len(sizes) == rep["diagnostics"]["loops"]
    assert set(sizes) <= set(SPINE_SIZES)
    assert_loop_bounds_accepted(rep, load_config(ref_config_path))


def assert_loop_bounds_accepted(rep, config):
    """The report's rule sizes and loop bounds are null exactly on its
    fallback loops, and each other bound meets the configuration's
    tolerance, in its units.  Each is the one an engine of the
    configuration reads off its loop before it builds anything, and its
    size the point-by-point oracle's (`oracle_rules`)."""
    sizes = rep["diagnostics"]["rule_sizes"]
    bounds = rep["diagnostics"]["loop_bounds"]
    fallbacks = rep["diagnostics"]["fallback_loops"]
    assert ([i for i, e in enumerate(bounds) if e is None]
            == [i for i, n in enumerate(sizes) if n is None] == fallbacks)
    pe = PeriodEngine.for_config(config, config.tolerance)
    oracle = oracle_rules(pe)
    for i, (size, bound) in enumerate(zip(sizes, bounds)):
        if i not in fallbacks:
            assert 0.0 < bound <= config.tolerance, i
            assert (size, bound) == (pe.rule_sizes[i], pe.loop_bounds[i])
            assert size == oracle[i][0], i


def test_periods_report_names_fallback_loops(tmp_path):
    # zero-zero at d = 4.9e-5, a row past the schedule's last: of the
    # gap loops past the pinching cut, loop 4 takes the top size and
    # loop 5's powers block fits no size, so it takes the moment-table
    # contour; the report says so, byte for byte the same on a second
    # run.  (On the schedule's rows only a far-pole block, which
    # `periods` never asks for, falls back.)
    fam = tau.zero_zero_family()
    cfg = fam.config(fam.schedule[-1] / 2.0)
    path = tmp_path / "pinch.json"
    path.write_text(json.dumps({
        "zeros": [[z.real, z.imag] for z in cfg.zeros],
        "poles": [[p.real, p.imag] for p in cfg.poles],
        "pairing": fam.pairing, "tolerance": 1e-11}))
    code, rep = run(["periods", "--config", str(path)], tmp_path / "a.json")
    assert code == 0
    assert rep["diagnostics"]["fallback_loops"] == [5]
    assert rep["diagnostics"]["rule_sizes"][4:6] == [SPINE_SIZES[-1], None]
    assert_loop_bounds_accepted(rep, load_config(str(path)))
    run(["periods", "--config", str(path)], tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_periods_reports_the_cycle_ladder(tmp_path):
    # no pairing given: the greedy pairing of a near-collinear row
    # crowds a spine (rho 1.0000016), so the ladder passes over it; the
    # report names it with its rho, byte for byte the same on a second
    # run, and no cap factor: caps are drawn at one
    path = tmp_path / "row.json"
    path.write_text(json.dumps({
        "zeros": [[z.real, z.imag] for z in COLLINEAR.zeros],
        "poles": [[p.real, p.imag] for p in COLLINEAR.poles]}))
    code, rep = run(["periods", "--config", str(path)], tmp_path / "a.json")
    assert code == 0
    cyc = build_cycles_robust(build_cover(COLLINEAR))
    diag = rep["diagnostics"]
    assert "cap_factor" not in diag
    assert diag["rejected_pairings"] == [
        {"pairing": [[0, 2], [1, 7], [3, 4], [5, 6]], "reason": cyc.rejected[0][1]}]
    assert 1.0 < cyc.rejected[0][1] < SPINE_RHO_MIN
    run(["periods", "--config", str(path)], tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_periods_reports_settled_rungs(tmp_path):
    # a zero-zero row whose loops take rules of several sizes: each
    # reported size is within one size of where the per-loop rung
    # ladder settles the loop's powers block (it settles a size past
    # the first that meets the tolerance, as its defect is the lower
    # rung's error; a loop here may take a larger rule for its far-pole
    # block), each bound meets the tolerance, and the report is byte
    # for byte the same on a second run
    fam = tau.zero_zero_family()
    cfg = fam.config(fam.schedule[4])
    path = tmp_path / "row.json"
    path.write_text(json.dumps({
        "zeros": [[z.real, z.imag] for z in cfg.zeros],
        "poles": [[p.real, p.imag] for p in cfg.poles],
        "pairing": fam.pairing, "tolerance": 1e-11}))
    code, rep = run(["periods", "--config", str(path)], tmp_path / "a.json")
    assert code == 0
    oracle = PerLoopEngine(build_cycles_robust(build_cover(cfg),
                                               pairing=fam.pairing))
    oracle.power_map()
    sizes = rep["diagnostics"]["rule_sizes"]
    assert len(set(sizes)) > 2
    assert all(abs(SPINE_SIZES.index(n) - r) <= 1
               for n, (r,) in zip(sizes, oracle.settled_rungs))
    assert_loop_bounds_accepted(rep, load_config(str(path)))
    run(["periods", "--config", str(path)], tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_periods_missing_config(tmp_path):
    assert main(["periods", "--config", str(tmp_path / "nope.json")]) == 2


def test_periods_malformed_config(tmp_path, capsys):
    bad = ["{not json", "[1, 2]",
           json.dumps(dict(REF_CONFIG, zeros=[["a", "b"]])),
           json.dumps(dict(REF_CONFIG, tolerance="abc")),
           json.dumps(dict(REF_CONFIG, tolerance=-1)),
           json.dumps(dict(REF_CONFIG, pairing=[["x", 1]])),
           json.dumps(dict(REF_CONFIG, pairing=[[0, 1, 2], [3, 4, 5]]))]
    p = tmp_path / "bad.json"
    for text in bad:
        p.write_text(text)
        assert rejected(["periods", "--config", str(p)], capsys), text


def test_config_refuses_fractional_indices_and_booleans(tmp_path, capsys):
    # each of these used to run as the reference configuration and exit
    # 0: fractional pairing indices were truncated, and true read as 1
    poles = REF_CONFIG["poles"]
    bad = [dict(REF_CONFIG, pairing=[[4.9, 2], [0, 5.2], [1, 3]]),
           dict(REF_CONFIG, pairing=[[4, 2], [0, 5], [True, 3]]),
           dict(REF_CONFIG, zeros=[[0.0, False]]),
           dict(REF_CONFIG, poles=[[True, 0.0]] + poles[1:]),
           dict(REF_CONFIG, tolerance=True)]
    p = tmp_path / "bad.json"
    for cfg in bad:
        p.write_text(json.dumps(cfg))
        assert rejected(["periods", "--config", str(p)], capsys), cfg
    # an index written as an integral float is still that index
    p.write_text(json.dumps(dict(REF_CONFIG, pairing=[[4.0, 2], [0, 5],
                                                      [1, 3]])))
    assert main(["periods", "--config", str(p), "--out",
                 str(tmp_path / "out.json")]) == 0


def test_periods_invalid_geometry(tmp_path):
    cfg = dict(REF_CONFIG, zeros=[[1.0, 0.0]])  # zero collides with a pole
    del cfg["pairing"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    assert main(["periods", "--config", str(p)]) == 2


def test_periods_uncomputable_geometry(tmp_path, capsys):
    # valid input, but two poles 1e-13 apart defeat the cut builder
    cfg = dict(REF_CONFIG)
    cfg["poles"] = REF_CONFIG["poles"][:4] + [[1.0 + 1e-13, 0.0]]
    del cfg["pairing"]
    p = tmp_path / "close.json"
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["periods", "--config", str(p)]) == 3
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"schema", "error"}
    assert rep["schema"] == "qdtau-report/1"
    assert set(rep["error"]) == {"class", "message"}
    assert rep["error"]["class"] == "GeometryError"
    assert rep["error"]["message"]


def test_bergman_probe(ref_config_path, tmp_path):
    code, rep = run(["bergman", "--config", ref_config_path,
                     "--probe", "0.3,0.9", "-1.2,0.4"],
                    tmp_path / "r.json")
    assert code == 0
    re, im = rep["results"]["bhat"]
    assert abs(complex(re, im)) > 0
    assert rep["diagnostics"]["correction_defect"] < 1e-8


def test_bergman_rejects_singular_probes(ref_config_path, capsys):
    for probe in (["a,b", "1,1"], ["0.3,0.9", "0.3,0.9"],
                  ["1,0", "0.3,0.9"]):
        assert rejected(["bergman", "--config", ref_config_path,
                         "--probe", *probe], capsys), probe


def test_tau_scaling(ref_config_path, tmp_path):
    code, rep = run(["tau", "scaling", "--config", ref_config_path],
                    tmp_path / "r.json")
    assert code == 0
    assert abs(rep["results"]["euler_pairing_plus"][0] + 40.0 / 3.0) < 1e-4
    assert abs(rep["results"]["euler_pairing_minus"][0] - 56.0 / 3.0) < 1e-4
    assert all(c["passed"] for c in rep["checks"])


def test_tau_degenerate_csv(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    code = main(["tau", "degenerate", "--kind", "zero-pole",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["results"]["gamma_plus"] + 8.0 / 3.0) < 0.05
    assert abs(rep["results"]["gamma_minus"] - 40.0 / 3.0) < 0.05
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_abs", "re_dlogtau_p", "im_dlogtau_p",
                       "re_dlogtau_m", "im_dlogtau_m",
                       "gamma_running_p", "gamma_running_m"]
    assert len(rows) == 12
    assert all(len(r) == 7 for r in rows[1:])
    # |t| shrinks along the schedule
    t_abs = [float(r[0]) for r in rows[1:]]
    assert all(a > b for a, b in zip(t_abs, t_abs[1:]))


def test_tau_degenerate_unwritable_csv(tmp_path, capsys, monkeypatch):
    row = {"d": 0.1, "t": 0.1, ("dlog", 1): 1j, ("dlog", -1): 2j,
           ("gamma", 1): -8.0 / 3.0, ("gamma", -1): 40.0 / 3.0}
    fits = []
    monkeypatch.setattr(tau, "degeneration_exponent",
                        lambda fam: fits.append(fam)
                        or ({1: -8.0 / 3.0, -1: 40.0 / 3.0}, [row]))
    out = tmp_path / "missing" / "samples.csv"
    capsys.readouterr()
    assert main(["tau", "degenerate", "--kind", "zero-pole",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.out == ""
    assert not out.parent.exists()
    # the path is tried before the schedule runs
    assert fits == []


def test_tau_basis_change(tmp_path):
    sig = tmp_path / "sigma.json"
    sig.write_text(json.dumps(
        {"sigma": [[1, 0, 1, 0], [0, 1, 0, 0],
                   [0, 0, 1, 0], [0, 0, 0, 1]]}))
    code, rep = run(["tau", "basis-change", "--sigma", str(sig)],
                    tmp_path / "r.json")
    assert code == 0
    assert rep["results"]["plus_residual"] < 1e-8
    assert rep["results"]["minus_residual"] < 1e-8


GENUS3_CONFIG = {
    "zeros": [[0.3, 0.2], [-0.4, -0.1]],
    "poles": [[2.0, 0.0], [-2.0, 0.0], [-1.0, -1.5], [-1.0, 1.5],
              [1.0, 1.5], [1.0, -1.5]],
}


def test_tau_basis_change_genus3(tmp_path):
    cfg = tmp_path / "g3.json"
    cfg.write_text(json.dumps(GENUS3_CONFIG))
    # C symmetric and invertible, so the odd branch's anomaly
    # 48 dlog det(C Omega + D) is not zero
    eye, c = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [1, 0, 0],
                                                 [0, 0, 1]]
    sig = tmp_path / "sigma.json"
    sig.write_text(json.dumps(
        {"sigma": [row + [0, 0, 0] for row in eye]
         + [cr + er for cr, er in zip(c, eye)]}))
    code, rep = run(["tau", "basis-change", "--sigma", str(sig),
                     "--config", str(cfg)], tmp_path / "r.json")
    assert code == 0
    assert len(rep["inputs"]["poles"]) == 6
    assert rep["results"]["plus_residual"] < 1e-8
    assert rep["results"]["minus_residual"] < 1e-8


def test_tau_basis_change_rejects_sigma_of_another_genus(tmp_path, capsys):
    cfg = tmp_path / "g3.json"
    cfg.write_text(json.dumps(GENUS3_CONFIG))
    sig = tmp_path / "sigma.json"
    sig.write_text(json.dumps({"sigma": [[1, 0, 1, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]]}))
    assert rejected(["tau", "basis-change", "--sigma", str(sig),
                     "--config", str(cfg)], capsys)
    # a genus-3 sigma on the genus-2 reference configuration
    sig.write_text(json.dumps({"sigma": [[int(i == j) for j in range(6)]
                                         for i in range(6)]}))
    assert rejected(["tau", "basis-change", "--sigma", str(sig)], capsys)


def test_tau_basis_change_rejects_non_symplectic(tmp_path, capsys):
    sig = tmp_path / "sigma.json"
    for raw in ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]],
                {"foo": 1}, [[1, 0, 0, 0], [0, 1, 0]],
                {"sigma": [[1, 0, 1.5, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                           [0, 0, 0, 1]]}):
        sig.write_text(json.dumps(raw))
        assert rejected(["tau", "basis-change", "--sigma", str(sig)],
                        capsys), raw


def test_suite_quick_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["suite", "--out", str(a)]) == 0
    assert main(["suite", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["passed"] is True
    assert rep["results"]["n_passed"] == rep["results"]["n_checks"]

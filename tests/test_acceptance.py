"""Acceptance gate: one test per criterion of `qdtau.checks.REGISTRY`.

Each test runs its registry entry, prints a single summary line, and
asserts every value against its tolerance and the elapsed time against
the stated budget; `pytest -v` shows one pass/fail line per criterion.
The paper's closed forms behind criterion 1 are restated here as an
independent oracle.
"""
import time
from fractions import Fraction as Rat

from qdtau import checks, picard


def _criterion_test(criterion):
    def test():
        t0 = time.perf_counter()
        results = criterion.run()
        elapsed = time.perf_counter() - t0
        passed = all(r["passed"] for r in results)
        detail = ", ".join(f"{r['name']} {r['value']:.1e} <= {r['tolerance']:g}"
                           for r in results)
        line = (f"criterion {criterion.number} [{criterion.name}]: "
                f"{'PASS' if passed else 'FAIL'} ({detail}; {elapsed:.2f}s "
                f"of {criterion.budget_s:.0f}s budget)")
        print(line)
        assert passed, line
        assert elapsed < criterion.budget_s, line
    return test


for _c in checks.REGISTRY:
    globals()[f"test_criterion_{_c.number}_{_c.name.replace(' ', '_')}"] = \
        _criterion_test(_c)


def test_criterion_1_closed_forms():
    bad = []
    for g, n in checks.PICARD_CELLS:
        b = picard.basis(g, n)
        dm = picard.class_dm(b)
        delta0 = picard.class_delta0(b)
        dinf = picard.delta_inf_from_psi(b)
        lam, prym = picard.hodge_prym_classes(b, delta0, dinf)
        ok = lam == (Rat(5 * (g - 1) - n, 36) * b.phi()
                     + Rat(1, 72) * delta0 - Rat(1, 18) * dinf
                     + Rat(1, 12) * dm)
        ok = ok and prym == (Rat(11 * (g - 1) + 5 * n, 36) * b.phi()
                             + Rat(13, 72) * delta0 + Rat(5, 18) * dinf
                             + Rat(1, 12) * dm)
        ok = ok and dinf == b.psi_sum() - Rat(n) * b.phi()
        ok = ok and delta0 == (72 * b.lam() + 4 * b.psi_sum()
                               - Rat(10 * (g - 1) + 2 * n) * b.phi()
                               - 6 * dm)
        if not ok:
            bad.append((g, n))
    assert not bad, f"closed forms fail on {bad}"

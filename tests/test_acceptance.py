"""Acceptance gate: eleven criteria, one printed verdict line each.

Run with -s to see the verdict lines; each criterion also asserts, so a
failure is visible either way.  Timing gates use wall-clock seconds.
"""

import time

from golden_data import GOLDEN_PSI2_5_7, GOLDEN_T23_5_7_QINV

import sl3jones.cli as cli
from sl3jones import (TorusKnotSpec, degree_report, jones_rosso, jones_t2b,
                      psi2_closed, psi2_schur_form, psi_oracle, qdim_closed,
                      qdim_weyl, twist_weyl_check, verify_lemma_LR,
                      verify_lemma_psi2_recurrence)
from sl3jones.laurent import ScaledLaurent
from sl3jones.plethysm2 import signed_dimension
from sl3jones.sl3rep import dimension


def verdict(n, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {n:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} {name} failed{tail}"


def test_01_golden_trefoil_polynomial():
    t0 = time.monotonic()
    res = jones_t2b(3, (5, 7)).mirrored()
    elapsed = time.monotonic() - t0
    got = {e: c for e, c in res.value.items()}
    ok = got == GOLDEN_T23_5_7_QINV and elapsed < 1.0
    verdict(1, "golden trefoil polynomial", ok,
            f"{len(got)} terms, {elapsed:.3f}s")


def test_02_golden_plethysm():
    got = {tuple(w): c for w, c in psi2_closed((5, 7)).items()}
    verdict(2, "golden plethysm expansion", got == GOLDEN_PSI2_5_7,
            f"{len(got)} terms")


def test_03_large_weight_statistics():
    t0 = time.monotonic()
    res = jones_t2b(3, (70, 70)).mirrored()
    elapsed = time.monotonic() - t0
    rep = degree_report(res)
    ok = (rep.min_deg == 280 and rep.max_deg == 30100
          and rep.leading == 1 and rep.trailing == 1
          and rep.min_coeff == -55196
          and rep.min_coeff_exponents == (18854, 18925)
          and rep.max_coeff == 65594
          and rep.max_coeff_exponents == (18165,)
          and elapsed < 120.0)
    verdict(3, "large-weight statistics", ok, f"{elapsed:.2f}s")


def test_04_plethysm_oracle_equivalence():
    ok = all(psi2_closed((m1, m2)) == psi_oracle((m1, m2), 2)
             for m1 in range(11) for m2 in range(11))
    verdict(4, "closed plethysm equals oracle", ok, "121 weights")


def test_05_schur_form_equivalence():
    ok = all(psi2_schur_form(m1, m2) == psi2_closed((m1 - m2, m2))
             for m1 in range(17) for m2 in range(m1 + 1))
    verdict(5, "partition-form plethysm equality", ok, "153 partitions")


def test_06_unknot_normalization():
    one = ScaledLaurent.one()
    ok = all(jones_t2b(1, (m1, m2)).value == one
             for m1 in range(16) for m2 in range(16))
    verdict(6, "unknot normalization", ok, "256 colors")


def test_07_integrality_and_value_at_one():
    ok = True
    for b in (3, 5, 7, 9):
        for m1 in range(13):
            for m2 in range(13):
                v = jones_t2b(b, (m1, m2)).value
                if v.scale != 1 or v.eval_one() != 1:
                    ok = False
    verdict(7, "integer exponents and q=1 value", ok, "4 x 169 runs")


def test_08_cross_formula_agreement():
    ok = all(jones_rosso(TorusKnotSpec(2, b), (m1, m2)).value
             == jones_t2b(b, (m1, m2)).value
             for b in (1, 3, 5) for m1 in range(5) for m2 in range(5))
    sym = all(jones_rosso(TorusKnotSpec(2, 3), (m1, m2)).value
              == jones_rosso(TorusKnotSpec(3, 2), (m1, m2)).value
              for m1 in range(4) for m2 in range(4))
    verdict(8, "plethysm route agreement and torus symmetry", ok and sym)


def test_09_formula_specialization():
    ok = all(qdim_weyl((m1, m2)) == qdim_closed((m1, m2))
             and twist_weyl_check((m1, m2))
             for m1 in range(13) for m2 in range(13))
    verdict(9, "root-system forms match closed forms", ok, "169 weights")


def test_10_identity_suites():
    lr = all(verify_lemma_LR(m1, m2)
             for m1 in range(13) for m2 in range(m1 + 1))
    rec = all(verify_lemma_psi2_recurrence(m1, m2)
              for m1 in range(1, 11) for m2 in range(m1))
    dim_ok = all(signed_dimension(psi_oracle((m1, m2), a))
                 == dimension((m1, m2))
                 for m1 in range(9) for m2 in range(9) for a in (2, 3))
    verdict(10, "product and recurrence identity suites",
            lr and rec and dim_ok,
            f"LR={lr} recurrence={rec} signed-dim={dim_ok}")


def test_11_table_throughput(tmp_path):
    out = tmp_path / "table.csv"
    t0 = time.monotonic()
    code = cli.main(["table", "--b", "3", "--max", "20", "--out", str(out)])
    elapsed = time.monotonic() - t0
    lines = out.read_text(encoding="utf-8").splitlines()
    ok = code == 0 and len(lines) == 442 and elapsed < 60.0
    verdict(11, "serial table throughput", ok,
            f"441 cells, {elapsed:.2f}s")

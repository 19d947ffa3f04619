"""Closed-form second plethysm against the symmetric-function oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3jones.plethysm2 import (_psi2_row, psi2_closed, psi2_schur_form,
                                signed_dimension)
from sl3jones.schur3 import psi_oracle
from sl3jones.sl3rep import SignedWeightSum, dimension


def test_trivial_weight():
    assert psi2_closed((0, 0)) == SignedWeightSum({(0, 0): 1})
    assert signed_dimension(psi2_closed((0, 0))) == 1


def test_one_row_weights():
    # psi2 of a one-row weight is the alternating hook sum
    assert psi2_closed((1, 0)) == SignedWeightSum({(2, 0): 1, (0, 1): -1})
    assert psi2_closed((2, 0)) == SignedWeightSum(
        {(4, 0): 1, (2, 1): -1, (0, 2): 1})


def test_adjoint_hand_value():
    # hand evaluation of the three sums at (1,1):
    #   l=0: k=0,1 over both sums gives (2,2), -(0,3), (2,2), -(3,0),
    #        then -(2,2) from the diagonal
    #   l=1: (0,0) twice, minus (0,0) once
    got = psi2_closed((1, 1))
    assert got == SignedWeightSum(
        {(2, 2): 1, (3, 0): -1, (0, 3): -1, (0, 0): 1})
    assert signed_dimension(got) == 8 == dimension((1, 1))


def test_oracle_equivalence():
    small = [(m1, m2) for m1 in range(7) for m2 in range(7)]
    for w in small + [(20, 20), (30, 11), (40, 40)]:
        assert psi2_closed(w) == psi_oracle(w, 2), w


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_oracle_equivalence_sweep(m1, m2):
    assert psi2_closed((m1, m2)) == psi_oracle((m1, m2), 2)


def test_schur_form_equivalence_both_regimes():
    # partitions with m1 - m2 >= m2 and with m1 - m2 < m2 exercise the
    # two different truncation patterns of the l range
    for m1 in range(11):
        for m2 in range(m1 + 1):
            assert psi2_schur_form(m1, m2) == psi2_closed((m1 - m2, m2)), \
                (m1, m2)


def test_schur_form_rejects_non_partition():
    with pytest.raises(ValueError):
        psi2_schur_form(1, 2)


def test_multiplicities_unit():
    for m1 in range(11):
        for m2 in range(11):
            s = psi2_closed((m1, m2))
            assert all(c in (-1, 1) for _, c in s.items()), (m1, m2)


def test_signed_dimension_conservation():
    for m1 in range(9):
        for m2 in range(9):
            s = psi2_closed((m1, m2))
            assert signed_dimension(s) == dimension((m1, m2)), (m1, m2)


def test_all_terms_dominant():
    for m1 in range(8):
        for m2 in range(8):
            for w, _ in psi2_closed((m1, m2)).items():
                assert w.m1 >= 0 and w.m2 >= 0


def test_term_growth():
    # term counts grow with the weight, anchored at a few exact values
    assert len(psi2_closed((0, 0))) == 1
    assert len(psi2_closed((1, 1))) == 4
    assert len(psi2_closed((5, 7))) == 48


def test_dominance_validation():
    with pytest.raises(ValueError):
        psi2_closed((-1, 2))


@settings(max_examples=60)
@given(st.integers(0, 30), st.integers(0, 30))
def test_closed_form_builds_what_the_constructor_builds(m1, m2):
    # psi2_closed skips the public constructor's checks; its terms must
    # still be exactly the constructor's: Weight keys, nonzero ints
    s = psi2_closed((m1, m2))
    public = SignedWeightSum(dict(s.items()))
    assert s == public
    assert [(type(w), w, type(c), c) for w, c in s.items()] == \
        [(type(w), w, type(c), c) for w, c in public.items()]


def test_row_recurrence():
    # row l of (m1, m2) is row l - 1 of (m1 - 1, m2 - 1), so psi2 grows
    # along a diagonal by the new l = 0 row
    for m1 in range(1, 31):
        for m2 in range(1, 31):
            acc = dict(psi2_closed((m1 - 1, m2 - 1)).items())
            for key, c in _psi2_row(m1, m2):
                acc[key] = acc.get(key, 0) + c
            assert SignedWeightSum(acc) == psi2_closed((m1, m2)), (m1, m2)


def test_row_is_the_first_row_of_the_sums():
    # the l = 0 row of the literal three sums, summand by summand
    for m1 in range(9):
        for m2 in range(9):
            want = {}
            for k in range(m1 + 1):
                key = (2 * m1 - 2 * k, 2 * m2 + k)
                want[key] = want.get(key, 0) + (-1) ** k
            for k in range(m2 + 1):
                key = (2 * m1 + k, 2 * m2 - 2 * k)
                want[key] = want.get(key, 0) + (-1) ** k
            want[2 * m1, 2 * m2] -= 1
            pairs = list(_psi2_row(m1, m2))
            row = dict(pairs)
            assert len(row) == len(pairs), (m1, m2)  # each weight once
            assert row == {k: c for k, c in want.items() if c}, (m1, m2)
            assert all(type(k) is tuple for k in row)


def test_folded_row_unfolds_to_the_row():
    # a folded self-dual row is the centre and the first sum with its
    # signs doubled: half of each doubled summand back on itself and
    # half on its mirror give the row
    for p in range(31):
        pairs = list(_psi2_row(p, p, fold=True))
        assert len(pairs) == p + 1 and pairs[0] == ((2 * p, 2 * p), 1)
        row = {}
        for (n1, n2), c in pairs[1:]:
            assert c in (-2, 2) and n1 < n2
            row[n1, n2] = row[n2, n1] = c // 2
        row[2 * p, 2 * p] = 1
        assert row == dict(_psi2_row(p, p)), p


@pytest.mark.parametrize("m1, m2", [(-1, 0), (-1, 3), (0, -1), (4, -1),
                                    (-2, -2)])
def test_non_dominant_row_summand_raises(m1, m2):
    # psi2_closed never asks for such a row; the check guards a wrong
    # l range, and must stay live
    with pytest.raises(ArithmeticError, match="non-dominant"):
        _psi2_row(m1, m2)

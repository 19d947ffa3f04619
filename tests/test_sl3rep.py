"""Root data, quantum integers, quantum dimensions, twist powers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3jones.laurent import ScaledLaurent
from sl3jones.sl3rep import (_POSITIVE_ROOTS, _RHO, SignedWeightSum, Weight,
                             dimension, pairing, qdim_closed, qdim_weyl, qint,
                             twist_exponent, twist_monomial, twist_weyl_check)

weights = st.tuples(st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=12))


# -- root data and pairing ----------------------------------------------


def test_root_data():
    # a1, a2 and a1 + a2; rho is half their sum
    assert _POSITIVE_ROOTS == ((2, -1), (-1, 2), (1, 1))
    assert _RHO == (1, 1)
    assert tuple(sum(r[i] for r in _POSITIVE_ROOTS) for i in (0, 1)) == (2, 2)


def test_pairing_values():
    # simple roots have squared length 2, fundamental weights 2/3
    assert pairing((2, -1), (2, -1)) == 2
    assert pairing((-1, 2), (-1, 2)) == 2
    assert pairing((2, -1), (-1, 2)) == -1
    assert pairing((1, 0), (1, 0)) == Fraction(2, 3)
    assert pairing((1, 0), (0, 1)) == Fraction(1, 3)
    w = (1, 0)
    assert pairing(w, (w[0] + 2, w[1] + 2)) == Fraction(8, 3)


@settings(max_examples=60)
@given(weights, weights)
def test_pairing_symmetric(u, v):
    assert pairing(u, v) == pairing(v, u)


# -- quantum integers ----------------------------------------------------


def test_qint_small():
    assert qint(1) == ScaledLaurent.one()
    assert qint(2) == ScaledLaurent(6, {3: 1, -3: 1})
    assert qint(3) == ScaledLaurent(6, {6: 1, 0: 1, -6: 1})
    assert qint(0) == ScaledLaurent.zero()
    # even n needs the 1/2 lattice, odd n lives on the integers
    assert [qint(n).scale for n in range(5)] == [1, 1, 2, 1, 2]


def test_qint_product():
    # [2][4] = [5] + [3], checked by direct convolution
    assert qint(2) * qint(4) == qint(5) + qint(3)
    expect = ScaledLaurent(6, {-12: 1, -6: 2, 0: 2, 6: 2, 12: 1})
    assert qint(2) * qint(4) == expect


def test_qint_palindromic():
    for n in range(51):
        f = qint(n)
        assert f == f.mirror()
        assert f.eval_one() == n


# -- quantum dimensions --------------------------------------------------


def test_qdim_adjoint():
    # (1,1): [2][2][4]/[2] = [2][4]
    assert qdim_closed((1, 1)) == qint(2) * qint(4)
    assert qdim_closed((1, 1)).eval_one() == 8 == dimension((1, 1))


def test_qdim_trivial_and_fundamental():
    assert qdim_closed((0, 0)) == ScaledLaurent.one()
    assert qdim_closed((1, 0)) == qint(3)
    assert dimension((1, 0)) == 3
    assert dimension((2, 0)) == 6
    assert dimension((1, 1)) == 8


def test_qdim_weyl_equals_closed():
    # qdim_closed is the evaluator's dense value, qdim_weyl a dict: equal
    # also in every form a caller sees
    for m1 in range(13):
        for m2 in range(13):
            closed, weyl = qdim_closed((m1, m2)), qdim_weyl((m1, m2))
            assert closed == weyl, (m1, m2)
            assert hash(closed) == hash(weyl)
            assert closed.to_text() == weyl.to_text()
            assert closed.to_json() == weyl.to_json()


@settings(max_examples=60)
@given(weights)
def test_qdim_specializes_to_dimension(w):
    assert qdim_closed(w).eval_one() == dimension(w)


@settings(max_examples=60)
@given(weights)
def test_qdim_conjugation_symmetry(w):
    m1, m2 = w
    assert qdim_closed((m1, m2)) == qdim_closed((m2, m1))
    assert qdim_closed(w) == qdim_closed(w).mirror()


def test_dominance_required():
    with pytest.raises(ValueError):
        qdim_closed((-1, 0))
    with pytest.raises(ValueError):
        dimension((0, -2))


# -- twist powers --------------------------------------------------------


def test_twist_examples():
    # theta(1,0) = q^(4/3), theta(1,1) = q^3
    assert twist_monomial((1, 0), 1) == ScaledLaurent(6, {8: 1})
    assert twist_monomial((1, 1), 1) == ScaledLaurent(6, {18: 1})
    assert twist_monomial((1, 1), -6) == ScaledLaurent(6, {-108: 1})
    assert twist_monomial((0, 0), -6) == ScaledLaurent.one()
    assert (twist_exponent((1, 0)), twist_exponent((1, 1))) == (4, 9)


def test_twist_halves_and_denominators():
    # theta(2,0)^(1/2) = q^(5/3): exponent 5 on the 1/3 lattice
    half = twist_monomial((2, 0), 1, 2)
    assert (half.scale, half.items()) == (3, ((5, 1),))
    # theta(1,0)^(1/3) = q^(4/9) and theta(1,0)^(1/7) = q^(4/21)
    assert twist_monomial((1, 0), 1, 3) == ScaledLaurent(9, {4: 1})
    assert twist_monomial((1, 0), 1, 7).to_text() == "1*q^(4/21)"
    # theta(1,1)^(1/3) = q: the lattice coarsens to the integers
    assert twist_monomial((1, 1), 1, 3).items() == ((1, 1),)
    with pytest.raises(ValueError):
        twist_monomial((1, 0), 1, 0)


@pytest.mark.parametrize("a, b", [(3, 4), (3, 5), (4, 5)])
def test_twist_torus_powers(a, b):
    # the Rosso-Jones weight theta_mu^(b/a) of T(a, b) is q^(b*t/(3a))
    for m1 in range(6):
        for m2 in range(6):
            t = twist_monomial((m1, m2), b, a)
            e = Fraction(b * twist_exponent((m1, m2)), 3 * a)
            assert t.items() == ((e.numerator, 1),)
            assert t.scale == e.denominator


def test_twist_multiplicativity():
    for w in ((1, 0), (2, 1), (3, 3)):
        assert (twist_monomial(w, 2) == twist_monomial(w, 1) * twist_monomial(w, 1))
        assert (twist_monomial(w, 1) * twist_monomial(w, -1) == ScaledLaurent.one())


def test_twist_weyl_check():
    for m1 in range(13):
        for m2 in range(13):
            assert twist_weyl_check((m1, m2)), (m1, m2)


# -- signed weight sums ---------------------------------------------------


def test_signed_weight_sum_basics():
    s = SignedWeightSum({(1, 0): 2, (0, 0): -1})
    assert s[(1, 0)] == 2
    assert s[(5, 5)] == 0
    assert len(s) == 2
    assert s.items() == ((Weight(0, 0), -1), (Weight(1, 0), 2))


def test_signed_weight_sum_drops_zeros():
    assert SignedWeightSum({(1, 0): 0}) == SignedWeightSum()
    assert not SignedWeightSum()


def test_signed_weight_sum_validation():
    with pytest.raises(ValueError):
        SignedWeightSum({(-1, 0): 1})
    with pytest.raises(TypeError):
        SignedWeightSum({(0, 0): 1.5})


def test_signed_weight_sum_text():
    s = SignedWeightSum({(0, 0): 1, (1, 2): -1, (3, 0): 2})
    assert s.to_text() == "+V_{0,0}-V_{1,2}+2V_{3,0}"
    assert SignedWeightSum().to_text() == "0"


def test_signed_weight_sum_json_round_trip():
    s = SignedWeightSum({(2, 2): 1, (0, 3): -1})
    d = s.to_json_dict()
    assert SignedWeightSum([((m1, m2), c) for m1, m2, c in d["terms"]]) == s

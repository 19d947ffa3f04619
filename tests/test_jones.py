"""Colored invariants: closed form, weight form, oracle route, reports."""

import gc
import sys
import tracemalloc
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sl3jones import jones, schur3
from sl3jones.jones import (ColoredJonesResult, TorusKnotSpec, _add_numerator,
                            _div_stride, _evaluate, _Numerator, _rosso_jones,
                            _span, _t2b_diagonal, degree_report, jones_rosso,
                            jones_t2b)
from sl3jones.laurent import (InexactDivisionError, LaurentError,
                              NonIntegralExponentError, ScaledLaurent,
                              UndefinedDegreeError, _DenseTerms)
from sl3jones.plethysm2 import _psi2_row, psi2_closed
from sl3jones.schur3 import psi_oracle, schur
from sl3jones.sl3rep import (SignedWeightSum, Weight, qdim_closed, qdim_weyl,
                             twist_monomial)
from test_laurent import ascends


def literal_sum(expansion, a, b, w):
    """Direct assembly of the Rosso-Jones sum, one quantum dimension at a time.

    Slow reference: multiplies qdim(mu) by the twist power per term, each
    on the lattice it lives on, applies the color's twist and divides by
    qdim(w) with the general long division, sharing no code with the
    stride division: each qdim is qdim_weyl's product of quantum integers,
    since qdim_closed is the evaluator's own sum.  The value must come out
    on the integer lattice.
    """
    total = ScaledLaurent.zero()
    for mu, c in expansion.items():
        term = qdim_weyl(mu) * twist_monomial(mu, b, a)
        total = total + term.scalar_mul(c)
    shifted = total * twist_monomial(w, -a * b)
    value = shifted.div_exact(qdim_weyl(w))
    assert value.scale == 1
    return value


def literal_t2b(b, w):
    return literal_sum(psi2_closed(w), 2, b, w)


def literal_rosso(knot, w):
    return literal_sum(psi_oracle(w, knot.a), knot.a, knot.b, w)


def norm(n1, n2):
    """Q = A^2 + AB + B^2 of the weight (n1, n2), A = n1 + 1, B = n2 + 1."""
    A, B = n1 + 1, n2 + 1
    return A * A + A * B + B * B


def span_of(weights, a, b):
    """_span over the least and the largest Q of the weights."""
    q = [norm(*mu) for mu in weights] or [3]
    return _span(a, b, min(q), max(q))


def sized(weights, a, b):
    """A numerator of T(a, b) over _span of the weights' Q."""
    return _Numerator(span_of(weights, a, b))


def refuse_everywhere(monkeypatch, function, message):
    """Make every sl3jones module's name for function raise instead."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for name, module in list(sys.modules.items()):
        if name == "sl3jones" or name.startswith("sl3jones."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, refuse)


def counting_rows(monkeypatch):
    """The sizes of the rows _add_numerator takes from here on, in order."""
    added = []
    add = jones._add_numerator

    def counting(acc, weights, a, b):
        weights = list(weights)
        added.append(len(weights))
        add(acc, weights, a, b)

    monkeypatch.setattr(jones, "_add_numerator", counting)
    return added


# -- knot parameter validation -------------------------------------------


def test_torus_knot_spec_validation():
    TorusKnotSpec(2, 3)
    TorusKnotSpec(1, 1)
    with pytest.raises(ValueError):
        TorusKnotSpec(2, 4)
    with pytest.raises(ValueError):
        TorusKnotSpec(0, 3)
    with pytest.raises(ValueError):
        TorusKnotSpec(2, -3)
    with pytest.raises(TypeError):
        TorusKnotSpec(2.0, 3)


def test_jones_t2b_validation():
    with pytest.raises(ValueError):
        jones_t2b(2, (1, 0))
    with pytest.raises(ValueError):
        jones_t2b(-3, (1, 0))
    with pytest.raises(ValueError):
        jones_t2b(3, (-1, 0))
    with pytest.raises(TypeError):  # TorusKnotSpec's check
        jones_t2b(3.0, (1, 0))


# -- unknot and normalization ----------------------------------------------


def test_unknot_b1():
    for m1 in range(8):
        for m2 in range(8):
            v = jones_t2b(1, (m1, m2)).value
            assert v == ScaledLaurent.one(), (m1, m2)


def test_trivial_color():
    for b in (1, 3, 5, 7):
        assert jones_t2b(b, (0, 0)).value == ScaledLaurent.one()


def test_eval_one_normalization():
    for b in (3, 5, 7):
        for m1 in range(5):
            for m2 in range(5):
                v = jones_t2b(b, (m1, m2)).value
                assert v.scale == 1
                assert v.eval_one() == 1, (b, m1, m2)


def test_fundamental_trefoil():
    got = jones_t2b(3, (1, 0)).value
    assert got == ScaledLaurent(1, {-6: -1, -4: 1, -2: 1})
    # conjugate color gives the same value (self-conjugate knot invariant
    # under swapping the two fundamental weights)
    assert jones_t2b(3, (0, 1)).value == got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.integers(0, 30), st.integers(0, 30))
def test_color_swap_symmetry(half_b, m1, m2):
    # V_(m2,m1) is dual to V_(m1,m2) and T(2,b) is invertible; the table
    # computes only m1 <= m2 and relies on this
    b = 2 * half_b + 1
    assert jones_t2b(b, (m1, m2)).value == jones_t2b(b, (m2, m1)).value


def test_color_swap_symmetry_rosso():
    for a, b in ((3, 4), (3, 5), (4, 5)):
        knot = TorusKnotSpec(a, b)
        for m1 in range(7):
            for m2 in range(m1 + 1, 7 - m1):
                assert jones_rosso(knot, (m1, m2)).value == \
                    jones_rosso(knot, (m2, m1)).value, (a, b, m1, m2)


# -- cross-route agreement ---------------------------------------------------


def test_matches_literal_assembly():
    for b in (1, 3, 5, 7):
        for m1 in range(9):
            for m2 in range(9):
                assert jones_t2b(b, (m1, m2)).value == \
                    literal_t2b(b, (m1, m2)), (b, m1, m2)
    for w in ((20, 20), (30, 11)):
        assert jones_t2b(3, w).value == literal_t2b(3, w), w


@pytest.mark.parametrize("b, color", [(1, (0, 0)), (3, (7, 4)), (5, (3, 9)),
                                      (51, (6, 6)), (3, (0, 12))])
def test_jones_t2b_adds_each_row_summand_once(monkeypatch, b, color):
    # jones_t2b sums the plethysm rows straight into its numerator: each
    # row summand goes through it once, and no merged plethysm is built;
    # a self-dual row (p, p) is folded, its centre and first arm only
    want = literal_t2b(b, color)
    added = counting_rows(monkeypatch)
    refuse_everywhere(monkeypatch, psi2_closed,
                      "jones_t2b built the merged plethysm")
    res = jones_t2b(b, color)
    assert res.value == want and res.color == color
    m1, m2 = color
    rows = [(m1 - l, m2 - l) for l in range(min(m1, m2), -1, -1)]
    assert added == [p + 1 if p == q else p + q + 1 for p, q in rows]


def test_rosso_matches_literal_assembly():
    for a, b in ((3, 4), (3, 5), (4, 5)):
        knot = TorusKnotSpec(a, b)
        for m1 in range(7):
            for m2 in range(7 - m1):
                assert jones_rosso(knot, (m1, m2)).value == \
                    literal_rosso(knot, (m1, m2)), (a, b, m1, m2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 25))
def test_extra_trivial_summand_is_inexact(m1, m2, half_b):
    # adding V_{0,0} adds theta(w)^(-2b) / qdim(w), which is no Laurent
    # polynomial for w != (0, 0): the evaluator must refuse, not round
    b, w = 2 * half_b + 1, Weight(m1, m2)
    assume(w != (0, 0))
    bad = dict(psi2_closed(w)._terms)
    bad[(0, 0)] = bad.get((0, 0), 0) + 1
    # V_{0,0} lies in class 0, the diagonal's class 8b(m1 - m2)^2 mod 12
    # when 3 divides b(m1 - m2); in any other class it is refused as it
    # is added
    error = (InexactDivisionError if b * (m1 - m2) % 3 == 0
             else NonIntegralExponentError)
    with pytest.raises(error):
        _rosso_jones(bad, 2, b, w)


def test_extra_trivial_summand_is_inexact_for_oracle():
    for w in (Weight(1, 0), Weight(2, 1), Weight(3, 3)):
        bad = dict(psi_oracle(w, 3)._terms)
        bad[(0, 0)] = bad.get((0, 0), 0) + 1
        with pytest.raises(InexactDivisionError):
            _rosso_jones(bad, 3, 4, w)


def test_fractional_exponents_raise():
    # theta(1,0)^(1/5 - 5) = q^(-32/5): exact, but off the integer lattice
    single = {(1, 0): 1}
    with pytest.raises(NonIntegralExponentError):
        _rosso_jones(single, 5, 1, Weight(1, 0))
    assert _rosso_jones(single, 4, 1, Weight(1, 0)) == \
        ScaledLaurent(1, {-5: 1})


def test_two_exponent_classes_raise():
    # at color (0, 0) every weight's term divides exactly; (0, 0) and
    # (1, 0) lie in classes 0 and 8 of the 1/12 lattice for T(2, 1), so
    # the first alone is integral, and adding the second raises
    w = Weight(0, 0)
    assert _rosso_jones({(0, 0): 1}, 2, 1, w) == ScaledLaurent.one()
    acc = sized([(0, 0), (1, 0)], 2, 1)
    with pytest.raises(NonIntegralExponentError,
                       match=r"\(1, 0\) is in exponent class 8/12 .* 0/12"):
        _add_numerator(acc, [((0, 0), 1), ((1, 0), 1)], 2, 1)
    assert acc.r == 0


@pytest.mark.parametrize("weights", [
    [((0, 0), 1), ((1, 0), 1), ((-3, 2), 1)],
    [((1, 0), 1), ((0, 0), 1), ((-3, 2), 1)],
    [((1, 0), 1), ((-3, 2), 1), ((0, 0), 1)],
])
def test_a_second_class_raises_though_it_would_cancel(weights):
    # (-3, 2) is (1, 0) reflected by s1, so their terms cancel and only
    # the class of (0, 0) would be left; the second class still raises,
    # in whichever order the weights come
    with pytest.raises(NonIntegralExponentError):
        _rosso_jones(dict(weights), 2, 1, Weight(0, 0))


def times_one_minus(coeffs, n):
    """The coefficients of (1 - x^n) * coeffs, n entries longer."""
    out = list(coeffs) + [0] * n
    for i, c in enumerate(coeffs):
        out[i + n] -= c
    return out


def two_passes(coeffs, n):
    """coeffs divided by (1 - x^n)^2 in two checked single passes."""
    got = list(coeffs)
    _div_stride(got, n)
    _div_stride(got, n)
    return got


@settings(max_examples=120)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=40),
       st.integers(1, 12), st.data())
def test_div_stride_round_trip(quotient, stride, data):
    product = times_one_minus(quotient, stride)
    got = list(product)
    _div_stride(got, stride)
    assert got == quotient
    # x^k is never a multiple of 1 - x^stride, so a bumped coefficient
    # must leave a remainder
    product[data.draw(st.integers(0, len(product) - 1))] += 1
    with pytest.raises(InexactDivisionError):
        _div_stride(product, stride)


@settings(max_examples=120)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=40),
       st.integers(1, 12))
def test_double_pass_round_trip(quotient, n):
    # one pass by (1 - x^n)^2 undoes the product and matches two passes
    product = times_one_minus(times_one_minus(quotient, n), n)
    got = list(product)
    _div_stride(got, n, twice=True)
    assert got == quotient == two_passes(product, n)


@settings(max_examples=120)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40),
       st.integers(1, 12))
def test_double_pass_refuses_a_single_factor(p, n):
    # (1 - x^n) * P with P no multiple of 1 - x^n: its residue sums
    # along stride n are not all zero, and making the first one nonzero
    # makes sure of that
    if not any(sum(p[r::n]) for r in range(n)):
        p[0] += 1
    product = times_one_minus(p, n)
    with pytest.raises(InexactDivisionError):
        _div_stride(product, n, twice=True)
    with pytest.raises(InexactDivisionError):
        two_passes(product, n)


@settings(max_examples=120)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40),
       st.integers(1, 12), st.data())
def test_double_pass_checks_the_top_two_strides(quotient, n, data):
    # (1 - x^n)^2 * S cut to the length of the exact product of quotient,
    # for S = quotient + c*x^k with k among the n powers above it: its
    # series quotient is S, whose top n entries are zero and the n
    # below them are not, so a check of the top n alone would pass it
    k = len(quotient) + data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(-10**6, 10**6).filter(bool))
    product = times_one_minus(times_one_minus(quotient, n), n)
    product[k] += c
    product[k + n] -= 2 * c
    with pytest.raises(InexactDivisionError):
        _div_stride(product, n, twice=True)
    with pytest.raises(InexactDivisionError):
        two_passes(product, n)


@settings(max_examples=200)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40),
       st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 60), st.integers(-2, 2)),
                max_size=2))
def test_double_pass_is_as_strong_as_two_passes(quotient, n, bumps):
    # near-multiples of (1 - x^n)^2: the one pass refuses exactly what
    # the two checked passes refuse, and otherwise agrees with them
    product = times_one_minus(times_one_minus(quotient, n), n)
    for i, c in bumps:
        product[i % len(product)] += c
    try:
        want = two_passes(product, n)
    except InexactDivisionError:
        want = None
    got = list(product)
    try:
        _div_stride(got, n, twice=True)
    except InexactDivisionError:
        got = None
    assert got == want


def bracket(h, n):
    """{n} = q^(n/2) - q^(-n/2) on the 1/(2h) lattice."""
    return ScaledLaurent(2 * h, {h * n: 1, -h * n: -1})


@settings(max_examples=120)
@given(st.integers(0, 60), st.integers(0, 60), st.sampled_from([6, 9, 12]),
       st.integers(-500, 500))
def test_six_term_weyl_numerator(n1, n2, h, t):
    # each mu's numerator: -{A}{B}{A+B} x^t with A = n1+1, B = n2+1 and
    # x = q^(1/(2h)), written as the six signed monomials the evaluator
    # adds; the minus is the sign of the evaluator's three divisors
    u, v = 2 * h * (n1 + 1), 2 * h * (n2 + 1)
    six = ScaledLaurent(2 * h, [(t + u + v, -1), (t + u, 1), (t + v, 1),
                                (t - u, -1), (t - v, -1), (t - u - v, 1)])
    product = (bracket(h, n1 + 1) * bracket(h, n2 + 1)
               * bracket(h, n1 + n2 + 2))
    assert six == -(product * ScaledLaurent(2 * h, {t: 1}))


def test_matches_plethysm_route():
    cases = [(b, (m1, m2)) for b in (1, 3, 5)
             for m1 in range(3) for m2 in range(3)]
    for b, w in cases + [(5, (30, 30))]:
        r1 = jones_t2b(b, w)
        r2 = jones_rosso(TorusKnotSpec(2, b), w)
        assert r1.value == r2.value, (b, w)


def test_torus_parameter_symmetry():
    for m1 in range(3):
        for m2 in range(3):
            r23 = jones_rosso(TorusKnotSpec(2, 3), (m1, m2))
            r32 = jones_rosso(TorusKnotSpec(3, 2), (m1, m2))
            assert r23.value == r32.value, (m1, m2)


def test_rosso_accepts_tuple():
    assert jones_rosso((2, 3), (1, 0)).value == jones_t2b(3, (1, 0)).value


# -- the weight form ------------------------------------------------------------


def s1(n1, n2):
    """The dot action of the first simple reflection on (n1, n2)."""
    return (-n1 - 2, n1 + n2 + 1)


def s2(n1, n2):
    """The dot action of the second simple reflection on (n1, n2)."""
    return (n1 + n2 + 1, -n2 - 2)


# the three walls n1 = -1, n2 = -1 and n1 + n2 = -2, each by a free coordinate
WALLS = (lambda k: (-1, k), lambda k: (k, -1), lambda k: (k, -2 - k))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 25),
       st.lists(st.tuples(st.sampled_from(WALLS), st.integers(-40, 40),
                          st.integers(-5, 5)), max_size=8))
def test_wall_weights_add_nothing(m1, m2, half_b, extra):
    # a weight on a wall fixes mu + rho under a reflection, so its
    # anti-invariant term is zero
    b, w = 2 * half_b + 1, Weight(m1, m2)
    weights = dict(psi2_closed(w)._terms)
    for wall, k, c in extra:
        mu = wall(k)
        weights[mu] = weights.get(mu, 0) + c
    assert _rosso_jones(weights, 2, b, w) == jones_t2b(b, w).value


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 3), (2, 5), (3, 4), (4, 3), (4, 5)]),
       st.integers(0, 6), st.integers(0, 6), st.data())
def test_reflected_weights_with_negated_multiplicity(knot, m1, m2, data):
    # each mu is moved by a word in s1 and s2, its multiplicity negated
    # once per letter: the sum is unchanged
    a, b = knot
    w = Weight(m1, m2)
    weights = {}
    for mu, c in psi_oracle(w, a)._terms.items():
        word = data.draw(st.lists(st.sampled_from((s1, s2)), max_size=3))
        for s in word:
            mu = s(*mu)
        weights[mu] = weights.get(mu, 0) + (-1) ** len(word) * c
    assert _rosso_jones(weights, a, b, w) == \
        jones_rosso(TorusKnotSpec(a, b), w).value


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(1, 12), st.integers(0, 5),
       st.integers(0, 5))
def test_weight_form_matches_straightened_oracle(a, b, m1, m2):
    assume(gcd(a, b) == 1)
    w = Weight(m1, m2)
    assert _rosso_jones(psi_oracle(w, a)._terms, a, b, w) == \
        jones_rosso(TorusKnotSpec(a, b), w).value


def test_jones_rosso_makes_no_schur_decomposition(monkeypatch,
                                                  cold_schur3_memos):
    cases = [(TorusKnotSpec(a, b), w) for a, b in ((2, 3), (3, 4), (5, 2))
             for w in ((0, 0), (3, 1), (2, 5))]
    want = [jones_rosso(knot, w).value for knot, w in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the weight form straightened a weight")

    for name in ("decompose_schur", "straighten", "_straighten_sum",
                 "_product", "is_symmetric"):
        monkeypatch.setattr(schur3, name, refuse)
    monkeypatch.setattr(SignedWeightSum, "__init__", refuse)
    assert [jones_rosso(knot, w).value for knot, w in cases] == want


def test_jones_rosso_keeps_no_character():
    # each character is streamed into the map of Adams images, so
    # nothing built for one color outlives its call
    knot = TorusKnotSpec(3, 4)
    gc.collect()
    tracemalloc.start()
    try:
        for m1 in range(16):
            for m2 in range(16):
                jones_rosso(knot, (m1, m2))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024, left


# -- the diagonal chain --------------------------------------------------------


def edge_tops(mx):
    """The diagonals ending on the top and right edges cover the square."""
    return [(m1, mx) for m1 in range(mx + 1)] + [(mx, m2) for m2 in range(mx)]


@pytest.mark.parametrize("b, mx", [(1, 12), (3, 12), (5, 12), (7, 12),
                                   (51, 6)])
def test_diagonal_chain_matches_jones_t2b(b, mx):
    seen = []
    for top in edge_tops(mx):
        chain = list(_t2b_diagonal(b, top))
        assert chain[-1].color == top
        for res in chain:
            assert res == jones_t2b(b, res.color), (b, res.color)
            assert type(res.value._terms) is _DenseTerms
            seen.append(res.color)
    assert sorted(seen) == [(m1, m2) for m1 in range(mx + 1)
                            for m2 in range(mx + 1)]


def test_diagonal_chain_validates_its_arguments():
    for b, color in ((4, (1, 1)), (0, (1, 1)), (3, (-1, 2))):
        with pytest.raises(ValueError):
            next(_t2b_diagonal(b, color))


def in_use(acc):
    """The class, lowest whole power and coefficients in use, trimmed."""
    i, j = acc.used()
    return acc.r, acc.off + i, acc.coeffs[i:j]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 5, 51]), st.integers(0, 10),
       st.lists(st.booleans(), min_size=1, max_size=10))
def test_evaluation_leaves_the_numerator_unchanged(b, d, evaluated):
    # one numerator, sized as the diagonal sizes it, is evaluated through
    # the copy the diagonal takes at the cells marked in evaluated; its
    # twin, sized over a wider span, at none: both must end as the same
    # numerator and value
    n = len(evaluated) - 1
    # (0, 0) has Q = 3, the least of any dominant weight
    acc = sized([(0, 0), (2 * n, 2 * (n + d))], 2, b)
    twin = sized([(0, 0), (2 * n + 2, 2 * (n + d) + 2)], 2, b)
    assert twin.off < acc.off
    for j, evaluate in enumerate(evaluated):
        w = Weight(j, j + d)
        row = list(_psi2_row(*w))
        _add_numerator(acc, row, 2, b)
        _add_numerator(twin, row, 2, b)
        if evaluate:
            before = in_use(acc)
            assert _evaluate(acc.copy(), 2, b, w) == jones_t2b(b, w).value
            assert in_use(acc) == before
    assert in_use(acc) == in_use(twin)
    assert _evaluate(acc, 2, b, w) == _evaluate(twin, 2, b, w) == \
        jones_t2b(b, w).value


@pytest.mark.parametrize("b", [1, 3, 5, 51])
def test_folded_rows_give_the_unfolded_numerator(b):
    # a self-dual diagonal adds its rows folded; at every color of every
    # one up to (30, 30) the numerator is the one the full rows give
    for m in range(31):
        full = sized([(0, 0), (2 * m, 2 * m)], 2, b)
        for w, acc in jones._t2b_numerators(b, (m, m)):
            _add_numerator(full, _psi2_row(*w), 2, b)
            assert (acc.r, acc.off, acc.lo, acc.hi) == \
                (full.r, full.off, full.lo, full.hi), (b, w)
            assert acc.coeffs == full.coeffs, (b, w)


# -- the numerator's lists -------------------------------------------------


def added_classes(monkeypatch):
    """The class of each numerator after each _add_numerator call."""
    classes = []
    add = jones._add_numerator

    def recording(acc, weights, a, b):
        add(acc, weights, a, b)
        classes.append(acc.r)

    monkeypatch.setattr(jones, "_add_numerator", recording)
    return classes


def adams_class(a, b, m1, m2):
    """2b*twist3(a*nu) mod 6a, the same for every weight nu of V_(m1,m2)."""
    return 2 * b * a * a * (m1 - m2) ** 2 % (6 * a)


def test_t2b_rows_fill_one_class(monkeypatch):
    classes = added_classes(monkeypatch)
    want = []
    for b in range(1, 52, 2):
        for top in edge_tops(12):
            for w, acc in jones._t2b_numerators(b, top):
                want.append(adams_class(2, b, *w))
    # one call per cell of each diagonal, and every numerator in the
    # class of the color's Adams images
    assert len(classes) == 26 * 13 * 13 and classes == want


def test_adams_weights_fill_one_class(monkeypatch):
    classes = added_classes(monkeypatch)
    want = []
    for a, b in ((3, 4), (4, 5), (5, 3)):
        for m1 in range(7):
            for m2 in range(7):
                jones_rosso(TorusKnotSpec(a, b), (m1, m2))
                want.append(adams_class(a, b, m1, m2))
    assert len(classes) == 3 * 49 and classes == want


def test_oracle_weights_fill_one_class():
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 3)):
        for m1 in range(7):
            for m2 in range(7):
                weights = psi_oracle((m1, m2), a)._terms
                acc = sized(weights, a, b)
                _add_numerator(acc, weights.items(), a, b)
                assert acc.r == adams_class(a, b, m1, m2), (a, b, m1, m2)


def sized_once(monkeypatch):
    """The span of every numerator allocated from here on, in order.

    Each add is checked to leave its numerator's list where it was
    allocated, the same list at the same offset and length, with the
    range in use inside it.
    """
    spans, allocated = [], {}
    add = jones._add_numerator

    class Recorded(_Numerator):
        __slots__ = ()

        def __init__(self, span):
            super().__init__(span)
            spans.append(span)
            allocated[id(self)] = self.coeffs, span

    def checked(acc, weights, a, b):
        coeffs, (lo, hi) = allocated[id(acc)]
        add(acc, weights, a, b)
        assert acc.coeffs is coeffs and acc.off == lo
        assert len(coeffs) == hi - lo + 1
        assert acc.lo > acc.hi or lo <= acc.lo <= acc.hi <= hi

    monkeypatch.setattr(jones, "_Numerator", Recorded)
    monkeypatch.setattr(jones, "_add_numerator", checked)
    return spans


@pytest.mark.parametrize("b, mx", [(1, 14), (3, 8), (201, 8)])
def test_t2b_diagonals_are_sized_once(monkeypatch, b, mx):
    # each diagonal's list is allocated once, over the span from Q = 3
    # to Q of its top color's first row weight, and no row grows it
    spans = sized_once(monkeypatch)
    for top in edge_tops(mx):
        for _ in jones._t2b_numerators(b, top):
            pass
        m1, m2 = top
        assert spans.pop() == _span(2, b, 3, norm(2 * m1, 2 * m2)), \
            (b, top)
        assert not spans


def adams_weights(a, m1, m2):
    """The Adams images a*nu of the weights of V_(m1, m2)."""
    return [(a * (e1 - e2), a * (e2 - e3))
            for e1, e2, e3 in schur((m1 + m2, m2, 0))]


@pytest.mark.parametrize("a, b", [(3, 4), (4, 5), (5, 6), (7, 2)])
def test_adams_weights_are_sized_once(monkeypatch, a, b):
    spans = sized_once(monkeypatch)
    for m1 in range(9):
        for m2 in range(9):
            jones_rosso(TorusKnotSpec(a, b), (m1, m2))
            assert spans == [span_of(adams_weights(a, m1, m2), a, b)], \
                (a, b, m1, m2)
            spans.clear()


def test_oracle_weights_are_sized_once(monkeypatch):
    spans = sized_once(monkeypatch)
    for a, b in ((2, 3), (3, 4), (4, 5), (5, 3)):
        for m1 in range(6):
            for m2 in range(6):
                weights = psi_oracle((m1, m2), a)._terms
                _rosso_jones(weights, a, b, Weight(m1, m2))
                assert spans == [span_of(weights, a, b)], (a, b, m1, m2)
                spans.clear()


def test_qdim_closed_is_sized_once(monkeypatch):
    spans = sized_once(monkeypatch)
    for m1 in range(31):
        for m2 in range(31):
            qdim_closed((m1, m2))
            assert spans == [_span(1, 0, *[norm(m1, m2)] * 2)], (m1, m2)
            spans.clear()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-15, 40), st.integers(-15, 40)),
                       st.integers(-3, 3), max_size=30),
       st.integers(1, 12), st.integers(0, 300))
# (-1, -1) has Q = 0 and the least e, and alone it is a span of one
# entry; a small color with a huge b is a list of a few entries
@example({(-1, -1): 1}, 2, 1)
@example({(0, 0): 1, (-2, -2): -1}, 3, 10**18 + 1)
def test_span_holds_for_any_weights(weights, a, b):
    # _span of the least and the largest Q holds every term of every
    # weight, with slack past the outermost terms that does not grow
    # with b, and the weights of one class are added over it without a
    # raise and without growing the list
    lo, hi = span = span_of(weights, a, b)
    slack = isqrt(4 * max((norm(*mu) for mu in weights), default=3))
    ends = []
    classes = set()
    for n1, n2 in weights:
        e, k = divmod(2 * b * (norm(n1, n2) - 3), 6 * a)
        s = abs(n1 + 1) + abs(n2 + 1)
        assert lo <= e - s and e + s <= hi, (n1, n2)
        ends += [e - s, e + s]
        classes.add(k)
    if ends:
        assert min(ends) - lo <= slack and hi - max(ends) <= slack
    one = [(mu, c) for mu, c in weights.items()
           if 2 * b * (norm(*mu) - 3) % (6 * a) == min(classes, default=0)]
    acc = _Numerator(span)
    coeffs = acc.coeffs
    _add_numerator(acc, one, a, b)
    assert acc.coeffs is coeffs and len(coeffs) == hi - lo + 1


@pytest.mark.parametrize("end", ["low", "high"])
def test_a_short_span_raises_before_any_write(monkeypatch, capsys, end):
    # a span one short of the terms at either end must be refused by the
    # index guard: at the low end the lowest term would otherwise wrap
    # round to the list's last entry
    from sl3jones import cli

    def tight(weights, a, b):
        ends = []
        for n1, n2 in weights:
            e = 2 * b * (norm(n1, n2) - 3) // (6 * a)
            s = abs(n1 + 1) + abs(n2 + 1)
            ends += [e - s, e + s]
        lo, hi = min(ends), max(ends)
        return (lo + 1, hi) if end == "low" else (lo, hi - 1)

    for (n1, n2), a, b in (((2, 1), 3, 4), ((3, 0), 2, 5), ((0, 0), 1, 0)):
        acc = _Numerator(tight([(n1, n2)], a, b))
        with pytest.raises(LaurentError, match="reaches past the numerator"):
            _add_numerator(acc, [((n1, n2), 1)], a, b)
        assert not any(acc.coeffs)
    # the CLI reports it as an internal-consistency error, on each route
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    rows = [mu for w in ((1, 0), (2, 1)) for mu, _ in _psi2_row(*w)]
    for argv, short in (
            ("jones --a 3 --b 4 --m1 2 --m2 1",
             tight(adams_weights(3, 2, 1), 3, 4)),
            ("jones --b 3 --m1 2 --m2 1", tight(rows, 2, 3))):
        monkeypatch.setattr(jones, "_span", lambda *_, short=short: short)
        assert cli.main(argv.split()) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal consistency error: weight ")


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("weights", [
    {},
    {(-1, 3): 1},
    {(-1, 0): 2, (4, -1): -1, (3, -5): 7},
    # (-3, 2) is (1, 0) reflected by s1, so the two terms cancel
    {(1, 0): 1, (-3, 2): 1},
])
def test_a_numerator_that_cancels_is_the_zero_value(a, weights):
    for b in (1, 5):
        for w in (Weight(0, 0), Weight(2, 1)):
            assert _rosso_jones(weights, a, b, w) == ScaledLaurent.zero()


# -- trusted result construction ---------------------------------------------


def assert_as_public(value):
    # the evaluator skips the public constructor; it must still build
    # exactly its value: scale 1, int terms, no zero coefficient; its
    # term map is the view over the dense list, not a dict
    assert type(value._terms) is _DenseTerms
    public = ScaledLaurent(1, dict(value.items()))
    assert value == public and hash(value) == hash(public)
    assert value.items() == public.items()
    assert all(type(e) is int and type(c) is int and c
               for e, c in value.items())
    # the numerator's zero ends were trimmed: the list holds no more
    # than the span of the terms
    coeffs = value._terms._coeffs
    assert coeffs[0] and coeffs[-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.integers(0, 30), st.integers(0, 30))
def test_evaluator_result_is_what_the_constructor_builds(half_b, m1, m2):
    assert_as_public(jones_t2b(2 * half_b + 1, (m1, m2)).value)


def test_evaluator_result_is_what_the_constructor_builds_for_oracle():
    knot = TorusKnotSpec(3, 4)
    for m1 in range(5):
        for m2 in range(5 - m1):
            assert_as_public(jones_rosso(knot, (m1, m2)).value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.integers(0, 30), st.integers(0, 30))
def test_evaluator_terms_ascend(half_b, m1, m2):
    res = jones_t2b(2 * half_b + 1, (m1, m2))
    assert ascends(res.value)
    assert ascends(res.mirrored().value)


def test_evaluator_terms_ascend_for_oracle():
    for a, b in ((3, 4), (4, 5)):
        for m1 in range(4):
            for m2 in range(4 - m1):
                res = jones_rosso(TorusKnotSpec(a, b), (m1, m2))
                assert ascends(res.value), (a, b, m1, m2)
                assert ascends(res.mirrored().value), (a, b, m1, m2)


def reference_report(result):
    """degree_report from items() sorted here, not trusting their order."""
    items = sorted(result.value.items())
    lo_c = min(c for _, c in items)
    hi_c = max(c for _, c in items)
    return (items[0][0], items[-1][0], lo_c, hi_c,
            tuple(e for e, c in items if c == lo_c),
            tuple(e for e, c in items if c == hi_c),
            items[-1][1], items[0][1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.integers(0, 20), st.integers(0, 20),
       st.booleans())
def test_degree_report_matches_sorted_reference(half_b, m1, m2, flip):
    res = jones_t2b(2 * half_b + 1, (m1, m2))
    if flip:
        res = res.mirrored()
    rep = degree_report(res)
    assert (rep.min_deg, rep.max_deg, rep.min_coeff, rep.max_coeff,
            rep.min_coeff_exponents, rep.max_coeff_exponents, rep.leading,
            rep.trailing) == reference_report(res)


# -- result container ---------------------------------------------------------


def test_mirrored_round_trip():
    res = jones_t2b(3, (2, 1))
    assert res.variable == "q"
    m = res.mirrored()
    assert m.variable == "qinv"
    assert m.value == res.value.mirror()
    assert m.mirrored().value == res.value


def test_every_route_returns_an_integer_reduced_value():
    results = [jones_t2b(b, w) for b in (1, 3, 5) for w in ((0, 0), (2, 1))]
    results += [jones_rosso(TorusKnotSpec(a, b), w)
                for a, b in ((2, 5), (3, 4), (4, 5)) for w in ((0, 0), (2, 1),
                                                               (3, 3))]
    results += _t2b_diagonal(7, (3, 5))
    results += [r.mirrored() for r in results]
    assert all(r.value.scale == 1 for r in results)


def test_result_json_shape():
    res = jones_t2b(3, (1, 0))
    d = res.to_json_dict()
    assert d["knot"] == {"a": 2, "b": 3}
    assert d["color"] == [1, 0]
    assert d["variable"] == "q"
    assert d["scale"] == 1
    assert d["terms"] == [[-6, "-1"], [-4, "1"], [-2, "1"]]


def test_degree_report_fields():
    rep = degree_report(jones_t2b(3, (1, 0)).mirrored())
    assert rep.min_deg == 2 and rep.max_deg == 6
    assert rep.trailing == 1 and rep.leading == -1
    assert rep.min_coeff == -1 and rep.max_coeff == 1
    assert rep.min_coeff_exponents == (6,)
    assert rep.max_coeff_exponents == (2, 4)
    d = rep.to_json_dict()
    assert d["min_coeff_exponents"] == [6]


def test_degree_report_zero_rejected():
    res = ColoredJonesResult(ScaledLaurent.zero(), TorusKnotSpec(1, 1),
                             (0, 0))
    with pytest.raises(UndefinedDegreeError):
        degree_report(res)

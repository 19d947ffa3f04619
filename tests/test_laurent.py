"""Exact Laurent arithmetic on the fractional exponent lattice."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3jones.laurent import (InexactDivisionError, ScaledLaurent, ScaleError,
                              UndefinedDegreeError, _DenseTerms)


def L(terms, scale=6):
    return ScaledLaurent(scale, terms)


polys = st.dictionaries(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
    max_size=8,
).map(lambda d: ScaledLaurent(6, d))

nonzero_polys = polys.filter(bool)

# polynomials on assorted lattices, for the mixed-lattice operations
lattice_polys = st.builds(
    ScaledLaurent,
    st.sampled_from([1, 2, 3, 4, 5, 6, 12]),
    st.dictionaries(st.integers(min_value=-30, max_value=30),
                    st.integers(min_value=-9, max_value=9), max_size=6),
)


def ref(f):
    """f as a map from Fraction exponents to coefficients."""
    return {Fraction(e, f.scale): c for e, c in f.items()}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def is_reduced(f):
    return gcd(f.scale, *(e for e, _ in f.items())) == 1


def ascends(f):
    """The term dict's own key order strictly ascends: the normal form."""
    keys = list(f._terms)
    return all(a < b for a, b in zip(keys, keys[1:]))


# -- construction and basic inspection ---------------------------------


def test_zero_one_monomial():
    z = ScaledLaurent.zero()
    assert not z and z.term_count == 0
    one = ScaledLaurent.one()
    assert one.items() == ((0, 1),)
    m = ScaledLaurent.monomial(6, 7, -3)
    assert m.items() == ((7, -3),)


def test_zero_coefficients_dropped():
    assert L({3: 0}) == ScaledLaurent.zero()
    assert L([(2, 1), (2, -1)]) == ScaledLaurent.zero()


def test_duplicate_pairs_accumulate():
    assert L([(4, 1), (4, 2)]) == L({4: 3})


def test_type_validation():
    # a Mapping is checked in bulk, pairs one by one: both must refuse
    for bad in ({0: 1.5}, {0.5: 1}, {0: 1, 3: "2"}, {0: 1, None: 1}):
        with pytest.raises(TypeError, match="is not an int pair"):
            L(bad)
        with pytest.raises(TypeError, match="is not an int pair"):
            L(list(bad.items()))
    with pytest.raises(TypeError, match=r"term \(3, '2'\)"):
        L({0: 1, 3: "2", 4: 1.5})
    assert L({0: True}) == L({0: 1})
    with pytest.raises(ScaleError):
        ScaledLaurent(0, {})
    with pytest.raises(ScaleError):
        ScaledLaurent(-6, {})


def test_immutable():
    f = L({0: 1})
    with pytest.raises(AttributeError):
        f.scale = 12


def test_coefficient_lookup():
    # 5*q^(1/2) - 5*q^(-1/2): stored on the 1/2 lattice
    f = L({3: 5, -3: -5})
    assert f.scale == 2
    assert f.coefficient(1) == 5
    assert f.coefficient(-1) == -5
    assert f.coefficient(0) == 0


# -- the reduced form -----------------------------------------------------


@settings(max_examples=120)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12),
       st.dictionaries(st.integers(min_value=-40, max_value=40),
                       st.integers(min_value=-9, max_value=9), max_size=6))
def test_scale_is_reduced(k, s, terms):
    f = ScaledLaurent(s, terms)
    g = ScaledLaurent(k * s, {k * e: c for e, c in terms.items()})
    assert g == f
    assert (g.scale, g.items()) == (f.scale, f.items())
    assert hash(g) == hash(f)
    assert is_reduced(f)
    assert ref(f) == {Fraction(e, s): c for e, c in terms.items() if c}


def test_reduced_examples():
    assert ScaledLaurent(6, {6: 1}) == ScaledLaurent(1, {1: 1})
    assert ScaledLaurent(6, {6: 1}).scale == 1
    assert ScaledLaurent(6, {3: 1, -3: 1}).items() == ((-1, 1), (1, 1))
    assert ScaledLaurent(6, {4: 1, 2: 1}).scale == 3
    assert ScaledLaurent(12).scale == 1
    assert ScaledLaurent.zero().scale == ScaledLaurent.one().scale == 1
    # cancellation can coarsen the lattice
    f = ScaledLaurent(2, {1: 1, 2: 1})
    assert (f - ScaledLaurent(2, {1: 1})).scale == 1


# -- ring axioms (property based) ---------------------------------------


@settings(max_examples=120)
@given(polys, polys)
def test_addition_commutes(f, g):
    assert f + g == g + f


@settings(max_examples=120)
@given(polys, polys, polys)
def test_addition_associates(f, g, h):
    assert (f + g) + h == f + (g + h)


@settings(max_examples=120)
@given(polys)
def test_additive_inverse(f):
    assert f + (-f) == ScaledLaurent.zero()
    assert f - f == ScaledLaurent.zero()


@settings(max_examples=120)
@given(polys, polys)
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=60)
@given(polys, polys, polys)
def test_multiplication_associates(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=120)
@given(polys, polys, polys)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(max_examples=120)
@given(polys)
def test_one_is_identity(f):
    assert f * ScaledLaurent.one() == f


@settings(max_examples=120)
@given(polys, st.integers(min_value=-9, max_value=9))
def test_scalar_mul_matches_constant_poly(f, c):
    assert f.scalar_mul(c) == f * L({0: c})
    assert c * f == f.scalar_mul(c)


def test_scalar_mul_examples():
    assert L({3: 1, -3: 1}).scalar_mul(-1) == L({3: -1, -3: -1})
    assert L({3: 1}).scalar_mul(0) == ScaledLaurent.zero()


def test_mixed_lattices():
    # q^(1/2) and q^(1/3) meet on the 1/6 lattice
    half, third = L({1: 1}, scale=2), L({1: 1}, scale=3)
    assert half + third == L({3: 1, 2: 1})
    assert half * third == L({5: 1})
    assert (half * third).div_exact(third) == half
    assert L({0: 1}, scale=6) + L({0: 1}, scale=12) == L({0: 2}, scale=1)


@settings(max_examples=150)
@given(lattice_polys, lattice_polys)
def test_mixed_lattice_ops_match_fraction_reference(f, g):
    total, prod = f + g, f * g
    assert ref(total) == ref_add(ref(f), ref(g))
    assert ref(f - g) == ref_add(ref(f), ref(-g))
    assert ref(prod) == ref_mul(ref(f), ref(g))
    assert is_reduced(total) and is_reduced(prod)
    if g:
        quot = prod.div_exact(g)
        assert quot == f and is_reduced(quot)
        assert ref_mul(ref(quot), ref(g)) == ref(prod)


# -- exact division ------------------------------------------------------


@settings(max_examples=150)
@given(polys, nonzero_polys)
def test_div_exact_inverts_multiplication(f, g):
    assert (f * g).div_exact(g) == f


def test_div_exact_examples():
    two = L({3: 1, -3: 1})
    assert (two * two).div_exact(two) == two
    assert L({0: 1}).div_exact(L({0: 1})) == ScaledLaurent.one()


def test_div_exact_rejects_inexact():
    with pytest.raises(InexactDivisionError):
        L({0: 1}).div_exact(L({3: 1, -3: 1}))
    with pytest.raises(InexactDivisionError):
        L({0: 3}).div_exact(L({0: 2}))
    with pytest.raises(InexactDivisionError):
        L({6: 1, 0: 1, -6: 1}).div_exact(L({3: 1, -3: 1}))


def test_div_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        L({0: 1}).div_exact(ScaledLaurent.zero())


def test_div_exact_zero_dividend():
    assert ScaledLaurent.zero().div_exact(L({3: 1, -3: 1})) == ScaledLaurent.zero()


def test_div_exact_monomials():
    assert L({7: 6}).div_exact(L({3: 2})) == L({4: 3})
    with pytest.raises(InexactDivisionError):
        L({7: 3}).div_exact(L({3: 2}))


# -- mirror, evaluation, degrees ----------------------------------------


def test_mirror_examples():
    assert L({6: 1, -12: 2}).mirror() == L({-6: 1, 12: 2})


@settings(max_examples=120)
@given(polys, polys)
def test_mirror_is_ring_map(f, g):
    assert (f * g).mirror() == f.mirror() * g.mirror()
    assert (f + g).mirror() == f.mirror() + g.mirror()
    assert f.mirror().mirror() == f


@settings(max_examples=120)
@given(polys, polys)
def test_eval_one_is_ring_map(f, g):
    assert (f * g).eval_one() == f.eval_one() * g.eval_one()
    assert (f + g).eval_one() == f.eval_one() + g.eval_one()


def test_eval_one_zero():
    assert ScaledLaurent.zero().eval_one() == 0


def test_degree_span():
    two = L({3: 1, -3: 1})
    assert two.degree_span() == (Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(UndefinedDegreeError):
        ScaledLaurent.zero().degree_span()


# -- text and JSON forms -------------------------------------------------


def test_to_text():
    assert ScaledLaurent.zero().to_text() == "0"
    assert ScaledLaurent.one().to_text() == "1*q^0"
    assert L({24: 1}, scale=1).to_text() == "1*q^24"
    f = ScaledLaurent(1, {24: 1, 30: 1, 32: 1, 35: -1})
    assert f.to_text() == "1*q^24 + 1*q^30 + 1*q^32 - 1*q^35"
    assert L({3: 2}).to_text() == "2*q^(1/2)"
    assert L({-3: -2}).to_text() == "-2*q^(-1/2)"


@settings(max_examples=120)
@given(lattice_polys)
def test_json_round_trip(f):
    assert ScaledLaurent.from_json_dict(f.to_json_dict()) == f


def test_json_shape():
    # reduced units: q - 2q^-1 is on the integer lattice
    d = L({6: 1, -6: -2}).to_json_dict()
    assert d == {"scale": 1, "terms": [[-1, "-2"], [1, "1"]]}
    assert L({3: 1, -9: 1}).to_json_dict() == {
        "scale": 2, "terms": [[-3, "1"], [1, "1"]]}


def test_json_old_fixed_lattice_form_parses():
    # JSON written on the fixed 1/6 lattice still reads to the same value
    old = {"scale": 6, "terms": [[-6, "1"], [0, "1"], [6, "1"]]}
    f = ScaledLaurent.from_json_dict(old)
    assert f == ScaledLaurent(1, {-1: 1, 0: 1, 1: 1})
    assert f.to_json_dict() == {
        "scale": 1, "terms": [[-1, "1"], [0, "1"], [1, "1"]]}


# -- ascending term order ------------------------------------------------

# (exponent, coefficient) pairs in drawn order, repeats and zeros allowed
pair_lists = st.lists(st.tuples(st.integers(-40, 40), st.integers(-5, 5)),
                      max_size=12)


@settings(max_examples=120)
@given(st.sampled_from([1, 2, 3, 6, 12]), pair_lists)
def test_constructor_orders_terms(scale, pairs):
    # a mapping in any insertion order, and a pair list in any order
    mapping = {}
    for e, c in pairs:
        mapping[e] = c
    assert ascends(ScaledLaurent(scale, mapping))
    assert ascends(ScaledLaurent(scale, pairs))


def test_constructor_orders_descending_input():
    f = ScaledLaurent(1, {3: 1, 2: -1, 1: 4})
    assert list(f._terms) == [1, 2, 3]
    assert f.items() == ((1, 4), (2, -1), (3, 1))
    assert list(f) == [(1, 4), (2, -1), (3, 1)]
    assert f.degree_span() == (1, 3)


@settings(max_examples=120)
@given(lattice_polys, lattice_polys, st.integers(-3, 3))
def test_every_operation_keeps_terms_ascending(f, g, c):
    results = [f + g, f - g, f * g, -f, f.scalar_mul(c), f.scalar_mul(0),
               f.mirror(), ScaledLaurent.from_json_dict(f.to_json_dict())]
    if g:
        results.append((f * g).div_exact(g))
    for r in results:
        assert ascends(r), r


def test_from_json_dict_orders_unsorted_terms():
    f = ScaledLaurent.from_json_dict(
        {"scale": 2, "terms": [[5, "1"], [-3, "2"], [1, "-1"]]})
    assert list(f._terms) == [-3, 1, 5]


# -- the evaluator's dense term map --------------------------------------

# (base, step, coeffs): zeros anywhere in coeffs, a negative base allowed
dense_specs = st.tuples(st.integers(-50, 50), st.integers(1, 5),
                        st.lists(st.integers(-3, 3), max_size=20))


def dense_ref(base, step, coeffs):
    """The dict _DenseTerms(base, step, coeffs) stands for."""
    return {base + i * step: c for i, c in enumerate(coeffs) if c}


@settings(max_examples=200)
@given(dense_specs)
@example((-7, 3, [0, 0, 2, 0, -1, 0, 0]))
@example((4, 2, [0, 0, 0]))
@example((0, 1, []))
def test_dense_terms_match_a_dict(spec):
    base, step, coeffs = spec
    d, ref = _DenseTerms(base, step, coeffs), dense_ref(base, step, coeffs)
    assert list(d) == list(ref)
    assert list(reversed(d)) == list(reversed(ref))
    assert list(d.items()) == list(ref.items())
    assert list(reversed(d.items())) == list(reversed(ref.items()))
    assert list(d.values()) == list(ref.values())
    assert len(d) == len(ref) and bool(d) == bool(ref)
    for e in range(base - 2 * step - 1, base + step * (len(coeffs) + 2)):
        assert (e in d) == (e in ref)
        assert d.get(e) == ref.get(e) and d.get(e, 0) == ref.get(e, 0)
        if e in ref:
            assert d[e] == ref[e]
        else:
            with pytest.raises(KeyError):
                d[e]
    assert "x" not in d and d.get("x", 0) == 0
    assert d == ref and ref == d and not d != ref
    assert d != {**ref, base - 1: 1}
    assert d == _DenseTerms(base, step, list(coeffs))
    assert d == _DenseTerms(base - step, step, [0, *coeffs, 0])
    assert d != _DenseTerms(base, step, coeffs + [1])
    if coeffs:
        assert d != _DenseTerms(base, step, [coeffs[0] + 1, *coeffs[1:]])
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d),
                 copy.deepcopy(d)):
        assert type(twin) is dict and list(twin.items()) == list(ref.items())
    f, g = ScaledLaurent._trusted(1, d), ScaledLaurent(1, ref)
    assert f == g and g == f and hash(f) == hash(g)


@settings(max_examples=120)
@given(dense_specs, lattice_polys)
def test_value_on_dense_terms_equals_value_on_a_dict(spec, h):
    # every reader of the term map gives the same result for a value
    # backed by _DenseTerms as for the same value backed by a dict
    f = ScaledLaurent._trusted(1, _DenseTerms(*spec))
    g = ScaledLaurent(1, dense_ref(*spec))
    assert type(g._terms) is dict
    pairs = [(f + h, g + h), (h + f, h + g), (-f, -g), (f - h, g - h),
             (f.mirror(), g.mirror()), (f * h, g * h), (3 * f, 3 * g),
             (pickle.loads(pickle.dumps(f)), g), (copy.copy(f), g),
             (ScaledLaurent(1, f._terms), g)]
    if h:
        pairs.append(((f * h).div_exact(h), g))
    if g:
        pairs.append((f.div_exact(g), ScaledLaurent.one()))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert type(x._terms) is dict and ascends(x)
        assert list(x._terms.items()) == list(y._terms.items())
    assert f.items() == g.items() and list(f) == list(g)
    assert f.to_text() == g.to_text() and f.to_json() == g.to_json()
    assert repr(f) == repr(g) and f.term_count == g.term_count
    assert f.eval_one() == g.eval_one()
    assert all(f.coefficient(e) == g.coefficient(e) for e in range(-60, 160))
    if g:
        assert f.degree_span() == g.degree_span()

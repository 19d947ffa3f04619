"""Schur polynomials, straightening, decomposition, Adams plethysm."""

import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clear_schur3_memos
from sl3jones import schur3
from sl3jones.laurent import _summed
from sl3jones.plethysm2 import psi2_closed
from sl3jones.schur3 import (NotSymmetricError, adams, decompose_schur,
                             is_symmetric, mul_sym, psi_oracle, schur,
                             straighten, verify_lemma_LR,
                             verify_lemma_psi2_recurrence)
from sl3jones.sl3rep import SignedWeightSum, Weight, dimension

partitions = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)) \
    .map(lambda t: tuple(sorted(t, reverse=True)))


# -- schur basics ---------------------------------------------------------


def test_schur_fundamental():
    assert schur((1, 0, 0)) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_schur_trivial():
    assert schur((0, 0, 0)) == {(0, 0, 0): 1}


def test_schur_complete_and_elementary():
    # s_(2,0,0) is the complete homogeneous h_2, s_(1,1,0) the elementary e_2
    h2 = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
          (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    e2 = {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert schur((2, 0, 0)) == h2
    assert schur((1, 1, 0)) == e2


def test_schur_determinant_column():
    # adding a full column multiplies by x1 x2 x3
    s = schur((2, 1, 0))
    shifted = {(a + 1, b + 1, c + 1): v for (a, b, c), v in s.items()}
    assert schur((3, 2, 1)) == shifted


def test_schur_dimension_specialization():
    for lam in ((1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)):
        w = (lam[0] - lam[1], lam[1] - lam[2])
        assert sum(schur(lam).values()) == dimension(w)


def test_schur_bad_index():
    with pytest.raises(TypeError):
        schur((1, 0))
    with pytest.raises(ValueError):
        schur((-3, 0, 0))


def schur_reference(lam):
    """s_lam by its Gelfand-Tsetlin patterns, one pattern at a time.

    The literal triple loop over l1 >= k1 >= l2 >= k2 >= l3 and
    k1 >= k >= k2, after straightening lam, as a dict.
    """
    st_ = straighten(lam)
    if st_ is None:
        return {}
    sign, (l1, l2, l3) = st_
    out = {}
    for k1 in range(l2, l1 + 1):
        for k2 in range(l3, l2 + 1):
            for k in range(k2, k1 + 1):
                mono = (k, k1 + k2 - k, l1 + l2 + l3 - k1 - k2)
                out[mono] = out.get(mono, 0) + sign
    return out


def test_schur_counts_match_the_pattern_loop():
    # every partition with l1 <= 15, large ones (the count's plateau
    # falls on either side, or the third row is nonzero), and the indices
    # that straighten from a small box
    parts = [(l1, l2, l3) for l1 in range(16) for l2 in range(l1 + 1)
             for l3 in range(l2 + 1)]
    parts += [(80, 40, 0), (120, 60, 0), (60, 60, 0), (60, 30, 30),
              (90, 45, 7), (50, 49, 1), (70, 0, 0), (70, 70, 70)]
    others = [lam for lam in product(range(-2, 6), range(-1, 6), range(6))
              if not lam[0] >= lam[1] >= lam[2]]
    for lam in parts + others:
        want = schur_reference(lam)
        # the stream is already in lexicographic order, one entry per
        # monomial, with no zero multiplicity
        assert tuple(schur3._schur_terms(lam)) == \
            tuple(sorted(want.items())), lam


def test_weight_map_is_what_the_constructor_builds():
    # partitions one full column apart merge, and may cancel
    pairs = [((3, 1, 0), 2), ((4, 2, 1), -2), ((2, 2, 2), 1), ((1, 1, 1), 1),
             ((5, 2, 0), -1), ((6, 3, 1), 3)]
    for m1, m2, a in ((0, 0, 2), (3, 1, 2), (2, 4, 3), (5, 5, 4)):
        pairs += decompose_schur(adams(schur((m1 + m2, m2, 0)), a)).items()
    for cut in range(len(pairs) + 1):
        got = schur3._weight_map(pairs[:cut])
        public = SignedWeightSum([((l1 - l2, l2 - l3), c)
                                  for (l1, l2, l3), c in pairs[:cut]])
        assert list(got.items()) == list(public._terms.items())
        assert all(c for c in got.values())


# -- straightening --------------------------------------------------------


def test_straighten_examples():
    assert straighten((2, 1, 0)) == (1, (2, 1, 0))
    # swapping adjacent entries a, b -> (b-1, a+1) with a sign
    assert straighten((1, 3, 0)) == (-1, (2, 2, 0))
    assert straighten((0, 1, 0)) is None
    assert straighten((3, -1, 0)) is None


def straighten_reference(lam):
    """Sort the shifted index and count inversions for the sign."""
    a = tuple(lam[i] + (2, 1, 0)[i] for i in range(3))
    if len(set(a)) < 3:
        return None
    srt = tuple(sorted(a, reverse=True))
    inv = sum(1 for i in range(3) for j in range(i + 1, 3) if a[i] < a[j])
    part = tuple(srt[i] - (2, 1, 0)[i] for i in range(3))
    return (-1 if inv % 2 else 1, part)


def test_straighten_matches_sort_reference():
    for lam in product(range(-4, 8), repeat=3):
        assert straighten(lam) == straighten_reference(lam), lam


@pytest.mark.parametrize("lam", [(0, 0, 0, 9), (0, 0), (), (1, 0, 0, 0)])
def test_straighten_rejects_index_not_of_length_three(lam):
    with pytest.raises(ValueError):
        straighten(lam)


def alternant(exps):
    """a_exps = det(x_i^exps_j), built from its six signed monomials."""
    out = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        mono = tuple(exps[i] for i in perm)
        out[mono] = out.get(mono, 0) + sign
    return {m: c for m, c in out.items() if c}


VANDERMONDE = alternant((2, 1, 0))


@settings(max_examples=80)
@given(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)))
def test_straighten_matches_alternant(lam):
    # a_(lam+delta) is sign * s_part * a_delta, or zero when lam dies
    a_lam = alternant(tuple(lam[i] + (2, 1, 0)[i] for i in range(3)))
    st_ = straighten(lam)
    if st_ is None:
        assert a_lam == {}
    else:
        sign, part = st_
        expect = {m: sign * c
                  for m, c in mul_sym(schur(part), VANDERMONDE).items()}
        assert a_lam == expect
    # the bialternant formula holds for the raw index too
    assert mul_sym(schur(lam), VANDERMONDE) == a_lam


def test_schur_times_vandermonde_is_alternant():
    # the Gelfand-Tsetlin sum satisfies the bialternant formula
    for l1 in range(8):
        for l2 in range(l1 + 1):
            for l3 in range(l2 + 1):
                lam = (l1, l2, l3)
                assert mul_sym(schur(lam), VANDERMONDE) == \
                    alternant((l1 + 2, l2 + 1, l3)), lam


# -- symmetry and decomposition -------------------------------------------


def test_is_symmetric():
    assert is_symmetric(schur((3, 1, 0)))
    assert not is_symmetric({(1, 0, 0): 1})
    assert is_symmetric({})


def is_symmetric_reference(f):
    return all(f.get(p, 0) == c
               for mono, c in f.items() for p in set(permutations(mono)))


def symmetrized(f):
    out = {}
    for mono, c in f.items():
        for p in set(permutations(mono)):
            out[p] = c
    return out


exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, st.integers(-3, 3), max_size=8)


@settings(max_examples=150, deadline=None)
@given(polys, st.booleans())
def test_is_symmetric_matches_permutation_reference(f, symmetrize):
    if symmetrize:
        f = symmetrized(f)
    assert is_symmetric(f) == is_symmetric_reference(f)
    if symmetrize:
        assert is_symmetric(f)


@pytest.mark.parametrize("changed", [(1, 3, 0), (0, 1, 3), (2, 1, 1)])
def test_is_symmetric_rejects_one_changed_orbit_member(changed):
    f = schur((3, 1, 0))
    f[changed] += 1
    assert not is_symmetric(f)
    assert not is_symmetric_reference(f)
    del f[changed]
    assert not is_symmetric(f)
    assert not is_symmetric_reference(f)


def test_decompose_zero_and_one():
    assert decompose_schur({}) == {}
    assert decompose_schur({(0, 0, 0): 1}) == {(0, 0, 0): 1}


def test_decompose_rejects_non_symmetric():
    with pytest.raises(NotSymmetricError):
        decompose_schur({(1, 0, 0): 1})


@settings(max_examples=40, deadline=None)
@given(partitions, partitions)
def test_decompose_product_round_trip(lam, mu):
    prod = mul_sym(schur(lam), schur(mu))
    expansion = decompose_schur(prod)
    # multiplicities are nonnegative for a product of Schur polynomials
    assert all(c > 0 for c in expansion.values())
    rebuilt = {}
    for nu, c in expansion.items():
        for mono, sc in schur(nu).items():
            rebuilt[mono] = rebuilt.get(mono, 0) + c * sc
    rebuilt = {m: c for m, c in rebuilt.items() if c}
    assert rebuilt == prod


def test_p2_is_second_adams_image_of_s1():
    assert schur3._P2 == adams(schur((1, 0, 0)), 2)
    assert decompose_schur(schur3._P2) == {(2, 0, 0): 1, (1, 1, 0): -1}


def test_pieri_factors_are_their_schur_polynomials():
    assert schur3._S1 == schur((1, 0, 0))
    assert schur3._S2 == schur((2, 0, 0))
    assert schur3._S11 == schur((1, 1, 0))


# -- Brauer-Klimyk products ------------------------------------------------

FACTORS = [schur((1, 0, 0)), schur((2, 0, 0)), schur((1, 1, 0)),
           schur((3, 1, 0)), schur((2, 2, 1)), schur3._P2]


@pytest.mark.parametrize("g", FACTORS, ids=["s1", "s2", "s11", "s31",
                                            "s221", "p2"])
def test_product_matches_monomial_reference(g):
    # mul_sym expands s_lam into monomials: the rule's independent reference
    for l1 in range(9):
        for l2 in range(l1 + 1):
            for l3 in range(l2 + 1):
                lam = (l1, l2, l3)
                assert _summed(schur3._product(((lam, 1),), g)) == \
                    decompose_schur(mul_sym(schur(lam), g)), lam


def test_product_of_second_adams_images_with_p2():
    for m1 in range(7):
        for m2 in range(m1 + 1):
            psi2 = adams(schur((m1, m2, 0)), 2)
            got = _summed(schur3._product(decompose_schur(psi2).items(),
                                          schur3._P2))
            assert got == decompose_schur(mul_sym(psi2, schur3._P2)), (m1, m2)


def test_product_rejects_non_symmetric_factor():
    with pytest.raises(NotSymmetricError):
        schur3._product({(1, 0, 0): 1}, {(1, 0, 0): 1})


def test_lemma_checks_expand_no_monomial_product(monkeypatch,
                                                 cold_schur3_memos):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was expanded into monomials")

    monkeypatch.setattr(schur3, "mul_sym", refuse)
    for m1 in range(9):
        for m2 in range(m1 + 1):
            assert verify_lemma_LR(m1, m2), (m1, m2)
    for m1 in range(1, 8):
        for m2 in range(m1):
            assert verify_lemma_psi2_recurrence(m1, m2), (m1, m2)


def test_mul_identity():
    f = schur((2, 1, 0))
    assert mul_sym(f, {(0, 0, 0): 1}) == f


# -- adams operations -------------------------------------------------------


def test_adams_degree_one_is_identity():
    f = schur((2, 1, 0))
    assert adams(f, 1) == f


def test_adams_is_ring_map():
    f, g = schur((1, 0, 0)), schur((1, 1, 0))
    assert adams(mul_sym(f, g), 2) == mul_sym(adams(f, 2), adams(g, 2))


def test_adams_rejects_bad_degree():
    with pytest.raises(ValueError):
        adams({(0, 0, 0): 1}, 0)


def test_psi_oracle_trivial():
    for a in (1, 2, 3):
        assert psi_oracle((0, 0), a) == SignedWeightSum({(0, 0): 1})


def test_psi_oracle_fundamental_square():
    # second Adams image of the one-row character s_m is the signed
    # hook sum over s_{2m-k, k}; at m = 1 that is s_2 - s_{1,1}
    assert psi_oracle((1, 0), 2) == SignedWeightSum({(2, 0): 1, (0, 1): -1})
    # the third is p_3 = s_3 - s_(2,1) + s_(1,1,1), and s_(1,1,1) is trivial
    assert psi_oracle((1, 0), 3) == \
        SignedWeightSum({(3, 0): 1, (1, 1): -1, (0, 0): 1})


def test_psi_oracle_one_row_hooks():
    for m in range(1, 7):
        got = decompose_schur(adams(schur((m, 0, 0)), 2))
        expect = {}
        for k in range(m + 1):
            st_ = straighten((2 * m - k, k, 0))
            if st_ is None:
                continue
            sign, part = st_
            expect[part] = expect.get(part, 0) + sign * (-1 if k % 2 else 1)
        expect = {p: c for p, c in expect.items() if c}
        assert got == expect, m


def test_psi_oracle_reads_its_memo_entry_as_the_summed_weights():
    # the oracle list's 170 (w, a): one pass over the flat entry gives what
    # summing its (partition, c) pairs as weights gives, in the same order
    for a, mx in ((2, 10), (3, 6)):
        for m1 in range(mx + 1):
            for m2 in range(mx + 1):
                got = psi_oracle((m1, m2), a)._terms
                entry = schur3._adams_decomposed((m1 + m2, m2, 0), a)
                want = schur3._weight_map(schur3._pairs(entry))
                assert list(got.items()) == list(want.items()), (m1, m2, a)
                assert all(type(w) is Weight for w in got), (m1, m2, a)


def test_psi_oracle_refuses_two_partitions_of_one_weight(cold_schur3_memos,
                                                       monkeypatch):
    # (2, 1, 0) and (3, 2, 1) are one full column apart: both are (1, 1)
    monkeypatch.setattr(schur3, "_adams_decomposed",
                        lambda lam, a: (2, 1, 0, 1, 3, 2, 1, 1))
    with pytest.raises(ArithmeticError, match="share a weight"):
        psi_oracle((1, 1), 2)


def test_memo_fixture_holds_whatever_the_fixture_order(monkeypatch,
                                                       cold_schur3_memos):
    # monkeypatch is listed first, so the patch is still in place when the
    # memo fixture is torn down: it clears the real memo, not the patch
    real = schur3._adams_decomposed
    assert real((1, 0, 0), 2) == (1, 1, 0, -1, 2, 0, 0, 1)
    monkeypatch.setattr(schur3, "_adams_decomposed",
                        lambda lam, a: (2, 0, 0, 1))
    assert psi_oracle((1, 0), 2) == SignedWeightSum({(2, 0): 1})
    assert real.cache_info().currsize == 1


def test_psi_oracle_adjoint():
    got = psi_oracle((1, 1), 2)
    assert got == SignedWeightSum({(2, 2): 1, (0, 3): -1, (3, 0): -1, (0, 0): 1})
    # signed classical dimensions: 27 - 10 - 10 + 1 = 8
    assert sum(c * dimension(w) for w, c in got.items()) == 8


def test_psi_oracle_signed_dimension_conservation():
    for m1 in range(5):
        for m2 in range(5):
            for a in (2, 3):
                s = psi_oracle((m1, m2), a)
                total = sum(c * dimension(w) for w, c in s.items())
                assert total == dimension((m1, m2)), (m1, m2, a)


def test_psi_oracle_degree_two_multiplicities_unit():
    for m1 in range(7):
        for m2 in range(7):
            s = psi_oracle((m1, m2), 2)
            assert all(c in (-1, 1) for _, c in s.items()), (m1, m2)


# -- identity harnesses -----------------------------------------------------


def test_lemma_LR_cases():
    assert verify_lemma_LR(5, 2)   # generic row
    assert verify_lemma_LR(4, 4)   # equal rows
    assert verify_lemma_LR(6, 1)   # one-box second row
    assert verify_lemma_LR(5, 0)   # one-row case
    assert verify_lemma_LR(0, 0)
    assert verify_lemma_LR(1, 1)
    assert verify_lemma_LR(2, 1)


def test_lemma_LR_range():
    for m1 in range(9):
        for m2 in range(m1 + 1):
            assert verify_lemma_LR(m1, m2), (m1, m2)


@pytest.mark.parametrize("factor", [(1, 0, 0), (2, 0, 0), (1, 1, 0), "p2"])
def test_lemma_checks_fail_on_a_dropped_product_term(monkeypatch, factor,
                                                     cold_schur3_memos):
    # each product row of the checks, the one-box row included, is compared
    g = schur3._P2 if factor == "p2" else schur(factor)
    full = schur3._product

    def drop_highest(pairs, h):
        out = _summed(full(pairs, h))
        if h == g:
            del out[max(out)]
        return out.items()

    monkeypatch.setattr(schur3, "_product", drop_highest)
    assert not verify_lemma_LR(5, 2)
    assert verify_lemma_psi2_recurrence(3, 1) == (factor != "p2")


def test_lemma_LR_rejects_non_partition():
    with pytest.raises(ValueError):
        verify_lemma_LR(1, 2)


def test_psi2_recurrence_cases():
    assert verify_lemma_psi2_recurrence(3, 1)
    assert verify_lemma_psi2_recurrence(5, 0)
    assert verify_lemma_psi2_recurrence(6, 2)


def test_psi2_recurrence_range():
    for m1 in range(1, 8):
        for m2 in range(m1):
            assert verify_lemma_psi2_recurrence(m1, m2), (m1, m2)


def test_psi2_recurrence_precondition():
    with pytest.raises(ValueError):
        verify_lemma_psi2_recurrence(2, 2)


# -- the Adams-image memo ---------------------------------------------------


def oracle_answers(cold):
    """psi_oracle for a = 2 over 0..10^2 and a = 3 over 0..6^2, then the
    recurrence over m1 <= 10: the oracle's share of the benchmark's
    request list.  With cold, the memo is emptied before every call.
    """
    calls = [(psi_oracle, (m1, m2), a) for a, mx in ((2, 10), (3, 6))
             for m1 in range(mx + 1) for m2 in range(mx + 1)]
    calls += [(verify_lemma_psi2_recurrence, m1, m2)
              for m1 in range(1, 11) for m2 in range(m1)]
    answers = []
    for fn, *args in calls:
        if cold:
            clear_schur3_memos()
        answers.append(fn(*args))
    return answers


def test_the_memos_change_no_answer(cold_schur3_memos):
    warm = oracle_answers(cold=False)
    assert all(ok for ok in warm if type(ok) is bool)
    assert oracle_answers(cold=False) == warm  # every image from the memo
    assert oracle_answers(cold=True) == warm


def test_each_adams_image_is_decomposed_once(monkeypatch, cold_schur3_memos):
    # the recurrence rereads the images psi_oracle decomposed before it:
    # psi^a(s_lam) for 170 (lam, a) from psi_oracle and 85 (lam, 2) from
    # the recurrence, 181 of them distinct
    keys = {((m1 + m2, m2, 0), a) for a, mx in ((2, 10), (3, 6))
            for m1 in range(mx + 1) for m2 in range(mx + 1)}
    keys |= {((x, y, 0), 2) for m1 in range(1, 11) for m2 in range(m1)
             for x, y in ((m1, m2), (m1 + 1, m2), (m1 - 1, m2 - 1),
                          (m1, m2 + 1))}
    calls = []
    real = schur3.decompose_schur

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(schur3, "decompose_schur", counting)
    oracle_answers(cold=False)
    assert len(calls) == len(keys) == 181


def test_the_memo_does_not_hide_a_dropped_partition(monkeypatch,
                                                   cold_schur3_memos):
    # psi2 of s_(4,1,0), the character of V_(3,1), loses its highest
    # partition; psi_oracle leaves the image in the memo for the
    # recurrence, whose requests (m1, m2) read the images of (m1, m2),
    # (m1 + 1, m2), (m1 - 1, m2 - 1) and (m1, m2 + 1)
    target = adams(schur((4, 1, 0)), 2)
    real = schur3.decompose_schur

    def drop_highest(f):
        out = real(f)
        if f == target:
            del out[max(out)]
        return out

    monkeypatch.setattr(schur3, "decompose_schur", drop_highest)
    assert psi_oracle((3, 1), 2) != psi2_closed((3, 1))
    readers = {(4, 1), (3, 1), (5, 2), (4, 0)}
    for m1 in range(1, 11):
        for m2 in range(m1):
            assert verify_lemma_psi2_recurrence(m1, m2) == \
                ((m1, m2) not in readers), (m1, m2)


def test_a_memo_entry_is_left_as_it_was_read(cold_schur3_memos):
    entry = schur3._adams_decomposed((4, 1, 0), 2)
    hits = schur3._adams_decomposed.cache_info().hits
    assert psi_oracle((3, 1), 2) == psi2_closed((3, 1))
    for m1, m2 in ((4, 1), (3, 1), (5, 2), (4, 0)):
        assert verify_lemma_psi2_recurrence(m1, m2), (m1, m2)
    assert schur3._adams_decomposed.cache_info().hits >= hits + 5
    assert schur3._adams_decomposed((4, 1, 0), 2) is entry
    assert entry == tuple(x for part, c in
                          decompose_schur(adams(schur((4, 1, 0)), 2)).items()
                          for x in (*part, c))


def test_the_memo_keeps_flat_entries_in_little_memory(cold_schur3_memos):
    # the 181 images of the oracle's share of the benchmark, each one
    # tuple of four ints per partition: about 0.24 MiB, where tuples of
    # ((l1, l2, l3), c) pairs held 0.82 MiB
    images = {((m1 + m2, m2, 0), a) for a, mx in ((2, 10), (3, 6))
              for m1 in range(mx + 1) for m2 in range(mx + 1)}
    images |= {((m1 + dx, m2 + dy, 0), 2) for m1 in range(1, 11)
               for m2 in range(m1)
               for dx, dy in ((0, 0), (1, 0), (-1, -1), (0, 1))}
    tracemalloc.start()
    try:
        answers = oracle_answers(cold=False)
        assert schur3._adams_decomposed.cache_info().currsize == len(images)
        held = tracemalloc.get_traced_memory()[0]
        schur3._adams_decomposed.cache_clear()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(ok for ok in answers if type(ok) is bool)
    assert freed < 0.4 * 2**20, freed
    for lam, a in images:
        entry = schur3._adams_decomposed(lam, a)
        assert type(entry) is tuple and len(entry) % 4 == 0, (lam, a)
        assert all(type(x) is int for x in entry), (lam, a)

"""Symmetric polynomials in three variables and a plethysm oracle.

Polynomials are sparse dicts mapping exponent triples (e1, e2, e3) to
integer coefficients.  A Schur index straightens to a signed partition
(or to zero) by adding the staircase delta = (2, 1, 0), sorting with the
permutation's sign and subtracting delta again; the Schur polynomial of
a partition is the sum of x^weight over its Gelfand-Tsetlin patterns,
counted weight by weight as the length of one range of the first entry
of the pattern's middle row.  For each entry k of the bottom row those
counts form a symmetric trapezoid 1, 2, ..., p+1, ..., p+1, ..., 2, 1,
so each run of monomials is built from ranges and repeats in C, not one
min/max per monomial.
Every Schur-basis expansion is one straightening pass, _straightened,
whose signed partitions laurent's _summed adds up, as it adds every
signed sum of the package: decompose_schur straightens the monomials of
a symmetric polynomial (the Brauer-Klimyk rule with s_0 = 1), products
in the Schur basis straighten the index sums lam + nu of the same rule
without expanding any Schur polynomial, and the identity checks
straighten their case-table rows the same way before comparing both
sides as sl3 weights, which _weights sums with _summed as well.
The plethysm oracle applies an Adams operation x_i -> x_i^a to a
character and decomposes the result; it is the independent cross-check
for the closed second-plethysm formula in the plethysm2 module, and for
the weight form of the invariant in the jones module, which sums the
Adams image with no decomposition.
A character is not memoized: _schur_terms hands its monomials out as
a stream, which schur collects into a dict and jones_rosso folds
straight into its Adams weight map, so no request keeps a character
alive after it returns, whatever its size.  The decomposed Adams
images are memoized per process, in an lru_cache of 4096 entries; each
entry is one flat tuple of ints, four per partition (l1, l2, l3, c),
which its readers take back as (partition, c) pairs one at a time.  The
recurrence check reads psi2 of s_{m1,m2}, s_{m1+1,m2}, s_{m1-1,m2-1}
and s_{m1,m2+1}, which psi_oracle decomposes too (as V_(m1-m2, m2)),
so in a session that runs both, as selfcheck and the benchmark's
oracle list do, the recurrence rereads psi_oracle's decompositions
instead of redoing them; it still multiplies one of them by p_2 and
compares both sides as weights.  decompose_schur itself is not
memoized and checks symmetry on every call.
"""

from __future__ import annotations

import functools
from itertools import chain, repeat
from typing import Dict, Iterator, Tuple

from .laurent import _summed
from .sl3rep import SignedWeightSum, Weight, WeightLike, _as_dominant

__all__ = [
    "SymPoly3",
    "GLIndex",
    "NotSymmetricError",
    "mul_sym",
    "adams",
    "is_symmetric",
    "straighten",
    "schur",
    "decompose_schur",
    "psi_oracle",
    "verify_lemma_LR",
    "verify_lemma_psi2_recurrence",
]

SymPoly3 = Dict[Tuple[int, int, int], int]
GLIndex = Tuple[int, int, int]

_DELTA = (2, 1, 0)

# the power sum p2 = psi2(s_1) = s_2 - s_(1,1), three monomials
_P2: SymPoly3 = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
# the Pieri factors s_1, s_2 = h_2 and s_(1,1) = e_2
_S1: SymPoly3 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
_S2: SymPoly3 = {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1,
                 (0, 1, 1): 1, (0, 0, 2): 1}
_S11: SymPoly3 = {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}


class NotSymmetricError(ValueError):
    """Schur decomposition requested for a non-symmetric polynomial."""


def mul_sym(f: SymPoly3, g: SymPoly3) -> SymPoly3:
    """Product of two sparse trivariate polynomials, monomial by monomial.

    No product in this module goes through it: Schur products use the
    Brauer-Klimyk rule in _product.  It is kept as the tests' independent
    reference for that rule and for the alternant identities, and as a
    name the benchmark's tracer rebinds.
    """
    if len(f) > len(g):
        f, g = g, f
    return _summed(((a1 + b1, a2 + b2, a3 + b3), c1 * c2)
                   for (a1, a2, a3), c1 in f.items()
                   for (b1, b2, b3), c2 in g.items())


def adams(f: SymPoly3, a: int) -> SymPoly3:
    """Adams operation: substitute x_i -> x_i^a (a >= 1)."""
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"Adams degree must be a positive integer, got {a!r}")
    return {(e1 * a, e2 * a, e3 * a): c for (e1, e2, e3), c in f.items()}


def is_symmetric(f: SymPoly3) -> bool:
    """True when the coefficient map is constant on permutation orbits.

    Tests the two generators of S_3, the transposition (1 2) and the
    3-cycle (1 2 3), at every monomial: invariance under both is
    invariance under the whole group.
    """
    for (e1, e2, e3), c in f.items():
        if f.get((e2, e1, e3), 0) != c or f.get((e2, e3, e1), 0) != c:
            return False
    return True


def straighten(lam: GLIndex) -> tuple[int, GLIndex] | None:
    """Normalize a Schur index to (sign, partition), or None when it dies.

    Adds the staircase (2, 1, 0), sorts, and subtracts it back; a repeated
    shifted exponent means the alternant vanishes and None is returned.
    The signed sort is _straightened's, on the one term (lam, 1).  An
    index without exactly three entries raises ValueError.
    """
    for part, sign in _straightened(((lam, 1),)):
        return sign, part
    return None


def _schur_terms(lam: GLIndex) -> Iterator[tuple[GLIndex, int]]:
    """The (monomial, count) terms of s_lam, lexicographic, as a stream.

    A plain function that returns an iterator, not a generator: a
    negative shifted exponent raises ValueError at the call.  Nothing is
    kept once the stream is consumed.
    """
    if min(lam[i] + _DELTA[i] for i in range(3)) < 0:
        raise ValueError(f"Schur index {lam} has negative shifted exponents")
    if lam[0] >= lam[1] >= lam[2]:  # a partition straightens to itself
        sign, (l1, l2, l3) = 1, lam
    else:
        st = straighten(lam)
        if st is None:
            return iter(())
        sign, (l1, l2, l3) = st
    # Gelfand-Tsetlin patterns: l1 >= k1 >= l2 >= k2 >= l3, k1 >= k >= k2;
    # the weight is (k, s - k, |l| - s) with s = k1 + k2.  For fixed k and
    # s the patterns are the k1 with
    # max(l2, s - l2, k, s - k) <= k1 <= min(l1, s - l3), and that range is
    # nonempty exactly for lo = max(l2, k) + l3 <= s <= min(l2, k) + l1 = hi.
    # So k then s ascending gives the monomials in lexicographic order,
    # each once, with its pattern count.
    # Along s the count is min(l1, s - l3) - max(max(l2, k), s - min(l2, k))
    # + 1: the first term rises with slope 1 up to s = l1 + l3 and then
    # stays, the second stays up to s = l2 + k and then rises.  The count
    # is 1 at lo and at hi, so it is a symmetric trapezoid (lo + hi =
    # (l1 + l3) + (l2 + k)): it rises 1, 2, ..., p + 1 up to
    # s = min(l1 + l3, l2 + k), stays at p + 1 for
    # |(l1 + l3) - (l2 + k)| + 1 steps and falls p, ..., 1, where
    # p = min(l1 + l3, l2 + k) - max(l2, k) - l3 >= 0.  Each k's
    # monomials and counts are built from C-level ranges and repeats.
    total = l1 + l2 + l3
    runs = []
    for k in range(l3, l1 + 1):
        lo, hi = max(l2, k) + l3, min(l2, k) + l1
        p = min(l1 + l3, l2 + k) - lo
        counts = chain(range(sign, sign * (p + 1), sign),
                       repeat(sign * (p + 1), abs(l1 + l3 - l2 - k) + 1),
                       range(sign * p, 0, -sign))
        monomials = zip(repeat(k), range(lo - k, hi - k + 1),
                        range(total - lo, total - hi - 1, -1))
        runs.append(zip(monomials, counts))
    return chain.from_iterable(runs)


def schur(lam: GLIndex) -> SymPoly3:
    """Schur polynomial s_lam(x1, x2, x3) for a length-3 integer index.

    The index need not be a partition: it straightens to sign * s_part,
    and indices with a repeated shifted exponent give the zero
    polynomial.  Shifted exponents must be nonnegative.  The polynomial
    of a partition sums x^weight over its Gelfand-Tsetlin patterns.
    """
    lam = tuple(lam)
    if len(lam) != 3 or not all(isinstance(e, int) for e in lam):
        raise TypeError(f"Schur index must be three ints, got {lam!r}")
    return dict(_schur_terms(lam))


def _straightened(pairs) -> Iterator[tuple[GLIndex, int]]:
    """The (lam, c) pairs as signed (partition, c) pairs, in order.

    Each index gives c times the sign of its straightening at its
    partition, or nothing when it straightens to zero: the shifted
    exponents (l1 + 2, l2 + 1, l3) are sorted by three compare-and-swaps,
    each flipping the sign, and a repeated one kills the term.
    """
    for (l1, l2, l3), c in pairs:
        a, b = l1 + 2, l2 + 1
        if a == b or b == l3 or a == l3:
            continue
        if a < b:
            a, b, c = b, a, -c
        if b < l3:
            b, l3, c = l3, b, -c
            if a < b:
                a, b, c = b, a, -c
        yield (a - 2, b - 1, l3), c


def _straighten_sum(pairs) -> dict[GLIndex, int]:
    """Sum c * s_lam over (lam, c) pairs in the partition basis."""
    return _summed(_straightened(pairs))


def decompose_schur(f: SymPoly3) -> dict[GLIndex, int]:
    """Expand a symmetric polynomial in the Schur basis.

    The Brauer-Klimyk rule with s_0 = 1: f is the sum of f_m * s_m over
    its monomials x^m, each straightened to a signed partition or to
    zero.  Raises NotSymmetricError for non-symmetric input, for which
    the rule does not hold.
    """
    if not is_symmetric(f):
        raise NotSymmetricError("input is not a symmetric polynomial")
    return _straighten_sum(f.items())


def _product(f: dict[GLIndex, int], g: SymPoly3) -> dict[GLIndex, int]:
    """Schur expansion of (sum of c_lam * s_lam) times a symmetric g.

    f is in the Schur basis and g in the monomial basis.  By the
    Brauer-Klimyk rule (Fulton and Harris, Representation Theory, section
    25; Humphreys, Introduction to Lie Algebras and Representation
    Theory, section 24), s_lam * g is the sum of g_nu * s_(lam + nu) over
    the monomials x^nu of g, each index straightened; no Schur polynomial
    is expanded.  Raises NotSymmetricError for a non-symmetric g, for
    which the rule does not hold.
    """
    if not is_symmetric(g):
        raise NotSymmetricError("factor is not a symmetric polynomial")
    return _straighten_sum(((l1 + n1, l2 + n2, l3 + n3), c * d)
                           for (l1, l2, l3), c in f.items()
                           for (n1, n2, n3), d in g.items())


def _weights(pairs) -> SignedWeightSum:
    """(partition, c) pairs as a signed sum of sl3 weights.

    A partition (l1, l2, l3) is the dominant weight (l1 - l2, l2 - l3).
    Determinant powers act trivially on sl3 characters: partitions one
    full column apart give the same weight, so their multiplicities are
    added here.  A partition's weight is dominant, so the merged sum is
    built with _trusted.
    """
    make = Weight._make
    return SignedWeightSum._trusted(_summed(
        (make((l1 - l2, l2 - l3)), c) for (l1, l2, l3), c in pairs))


def _pairs(flat) -> Iterator[tuple[GLIndex, int]]:
    """The (partition, c) pairs of a flat run of ints, four at a time."""
    it = iter(flat)
    return (((l1, l2, l3), c) for l1, l2, l3, c in zip(it, it, it, it))


@functools.lru_cache(maxsize=4096)
def _adams_decomposed(lam: GLIndex, a: int) -> tuple[int, ...]:
    """The Schur expansion of psi^a(s_lam), flat: (l1, l2, l3, c, ...).

    Four ints per partition of the expansion, its three parts and its
    coefficient, in one tuple: a quarter of the bytes of a tuple of
    ((l1, l2, l3), c) pairs, which its readers take one at a time from
    _pairs.  Memoized, unlike the character it is built from:
    psi_oracle and verify_lemma_psi2_recurrence read the same Adams
    images, and each is decomposed once per process.  schur, adams and
    decompose_schur are called through the module's globals, so a
    rebound name is seen on every miss; decompose_schur checks symmetry
    on every call it gets.  The entry is a tuple, which no reader can
    change.
    """
    return tuple(chain.from_iterable(
        (l1, l2, l3, c) for (l1, l2, l3), c
        in decompose_schur(adams(schur(lam), a)).items()))


def psi_oracle(w: WeightLike, a: int) -> SignedWeightSum:
    """Adams-operation plethysm of the irreducible character V_w.

    Builds the character as s_{(m1+m2, m2, 0)}, applies x_i -> x_i^a and
    decomposes back into Schur terms, returned as dominant sl3 weights
    (l1 - l2, l2 - l3) with signed multiplicities.  The decomposition is
    memoized per process as one flat tuple of ints (_adams_decomposed);
    the character is rebuilt on every miss and dropped once it is
    decomposed.
    """
    wt = _as_dominant(w)
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"Adams degree must be a positive integer, got {a!r}")
    return _weights(_pairs(_adams_decomposed((wt.m1 + wt.m2, wt.m2, 0), a)))


def verify_lemma_LR(m1: int, m2: int) -> bool:
    """Check the one- and two-box Pieri products against the case tables.

    Verifies s_{m1} * s_1, then s_{m1,m2} * s_2, s_{m1,m2} * s_{1,1} and
    s_{m1,m2} * p_2, where p_2 = s_2 - s_{1,1}, selecting the case row in
    the order m2 = 0, m2 = 1, m1 = m2, generic (m1 - m2 >= 1 and
    m2 >= 2).  Index pairs falling outside the partition range
    straighten, possibly to zero, and both sides are compared as signed
    sums of sl3 weights.
    """
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= m2 >= 0):
        raise ValueError(f"({m1}, {m2}) is not a two-row partition")

    def times(lam, g):
        return _weights(_product({lam: 1}, g).items())

    def row(terms):  # (coeff, a, b) -> the sum of coeff * s_{a,b}
        return _weights(_straightened(((a, b, 0), c) for c, a, b in terms))

    one_box = row([(1, m1 + 1, 0), (1, m1, 1)])
    if times((m1, 0, 0), _S1) != one_box:
        return False

    if m2 == 0:
        rows = (
            [(1, m1 + 2, 0), (1, m1 + 1, 1), (1, m1, 2)],
            [(1, m1 + 1, 1), (1, m1 - 1, 0)],
            [(1, m1 + 2, 0), (1, m1, 2), (-1, m1 - 1, 0)],
        )
    elif m2 == 1:
        rows = (
            [(1, m1 + 2, 1), (1, m1 + 1, 2), (1, m1, 0), (1, m1, 3),
             (1, m1 - 1, 1)],
            [(1, m1 + 1, 2), (1, m1, 0), (1, m1 - 1, 1)],
            [(1, m1 + 2, 1), (1, m1, 3)],
        )
    elif m1 == m2:
        rows = (
            [(1, m1 + 2, m2), (1, m1, m2 - 1), (1, m1 - 2, m2 - 2)],
            [(1, m1 + 1, m2 + 1), (1, m1, m2 - 1)],
            [(1, m1 + 2, m2), (1, m1 - 2, m2 - 2), (-1, m1 + 1, m2 + 1)],
        )
    else:
        rows = (
            [(1, m1 + 2, m2), (1, m1 + 1, m2 + 1), (1, m1, m2 - 1),
             (1, m1, m2 + 2), (1, m1 - 1, m2), (1, m1 - 2, m2 - 2)],
            [(1, m1 + 1, m2 + 1), (1, m1, m2 - 1), (1, m1 - 1, m2)],
            [(1, m1 + 2, m2), (1, m1, m2 + 2), (1, m1 - 2, m2 - 2)],
        )

    lam = (m1, m2, 0)
    return (times(lam, _S2) == row(rows[0])
            and times(lam, _S11) == row(rows[1])
            and times(lam, _P2) == row(rows[2]))


def verify_lemma_psi2_recurrence(m1: int, m2: int) -> bool:
    """Check the column-adding recurrence for the second Adams operation.

    psi2(s_{m1,m2+1}) = psi2(s_{m1,m2}) * p_2
                        - psi2(s_{m1+1,m2}) - psi2(s_{m1-1,m2-1})
    with p_2 = s_2 - s_{1,1}, compared as signed sums of sl3 weights
    with the two subtracted images moved to the left-hand side;
    requires m1 >= m2 + 1 >= 1.  For m2 = 0 the last term has index
    (m1-1, -1), which straightens to the zero polynomial, so it drops out
    on its own.
    """
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= m2 + 1 >= 1):
        raise ValueError(f"recurrence needs m1 >= m2 + 1 >= 1, got ({m1}, {m2})")

    def psi2(a, b):  # the flat (l1, l2, l3, c) groups of psi2(s_{a,b})
        return _adams_decomposed((a, b, 0), 2)

    product = _product(dict(_pairs(psi2(m1, m2))), _P2)
    left = chain(psi2(m1, m2 + 1), psi2(m1 + 1, m2), psi2(m1 - 1, m2 - 1))
    return _weights(_pairs(left)) == _weights(product.items())

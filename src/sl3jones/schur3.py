"""Symmetric polynomials in three variables and a plethysm oracle.

Polynomials are sparse dicts mapping exponent triples (e1, e2, e3) to
integer coefficients.  A Schur index straightens to a signed partition
(or to zero) by adding the staircase delta = (2, 1, 0), sorting with the
permutation's sign and subtracting delta again; the Schur polynomial of
a partition is the sum of x^weight over its Gelfand-Tsetlin patterns.
Decomposition into the Schur basis is one pass of the Brauer-Klimyk
rule: for symmetric f, f * a_delta = sum_m f_m a_(m+delta), so each
monomial x^m contributes f_m times the straightened index m.  The
plethysm oracle applies an Adams operation x_i -> x_i^a to a character
and decomposes the result back into the Schur basis; it is the
independent cross-check for the closed second-plethysm formula in the
plethysm2 module.
"""

from __future__ import annotations

import functools
from itertools import permutations
from typing import Dict, Tuple

from .sl3rep import SignedWeightSum, WeightLike, _as_dominant

__all__ = [
    "SymPoly3",
    "GLIndex",
    "NotSymmetricError",
    "p_zero",
    "p_one",
    "p_add",
    "p_sub",
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


class NotSymmetricError(ValueError):
    """Schur decomposition requested for a non-symmetric polynomial."""


def p_zero() -> SymPoly3:
    return {}


def p_one() -> SymPoly3:
    return {(0, 0, 0): 1}


def p_add(f: SymPoly3, g: SymPoly3) -> SymPoly3:
    out = dict(f)
    for mono, c in g.items():
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def p_sub(f: SymPoly3, g: SymPoly3) -> SymPoly3:
    return p_add(f, {m: -c for m, c in g.items()})


def mul_sym(f: SymPoly3, g: SymPoly3) -> SymPoly3:
    """Product of two sparse trivariate polynomials."""
    if len(f) > len(g):
        f, g = g, f
    out: SymPoly3 = {}
    for (a1, a2, a3), c1 in f.items():
        for (b1, b2, b3), c2 in g.items():
            key = (a1 + b1, a2 + b2, a3 + b3)
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def adams(f: SymPoly3, a: int) -> SymPoly3:
    """Adams operation: substitute x_i -> x_i^a (a >= 1)."""
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"Adams degree must be a positive integer, got {a!r}")
    return {(e1 * a, e2 * a, e3 * a): c for (e1, e2, e3), c in f.items()}


def is_symmetric(f: SymPoly3) -> bool:
    """True when the coefficient map is constant on permutation orbits."""
    for mono, c in f.items():
        for p in set(permutations(mono)):
            if f.get(p, 0) != c:
                return False
    return True


def straighten(lam: GLIndex) -> tuple[int, GLIndex] | None:
    """Normalize a Schur index to (sign, partition), or None when it dies.

    Adds the staircase (2, 1, 0), sorts, and subtracts it back; a repeated
    shifted exponent means the alternant vanishes and None is returned.
    """
    a = tuple(lam[i] + _DELTA[i] for i in range(3))
    if len(set(a)) < 3:
        return None
    srt = tuple(sorted(a, reverse=True))
    # sign of the permutation taking a to sorted order (3 entries: count
    # inversions directly)
    inv = sum(1 for i in range(3) for j in range(i + 1, 3) if a[i] < a[j])
    part = tuple(srt[i] - _DELTA[i] for i in range(3))
    return (-1 if inv % 2 else 1, part)


@functools.lru_cache(maxsize=4096)
def _schur_cached(lam: GLIndex) -> tuple[tuple[GLIndex, int], ...]:
    if min(lam[i] + _DELTA[i] for i in range(3)) < 0:
        raise ValueError(f"Schur index {lam} has negative shifted exponents")
    st = straighten(lam)
    if st is None:
        return ()
    sign, (l1, l2, l3) = st
    # Gelfand-Tsetlin patterns: l1 >= k1 >= l2 >= k2 >= l3, k1 >= k >= k2;
    # the weight is (k, k1 + k2 - k, |l| - k1 - k2)
    out: SymPoly3 = {}
    for k1 in range(l2, l1 + 1):
        for k2 in range(l3, l2 + 1):
            for k in range(k2, k1 + 1):
                mono = (k, k1 + k2 - k, l1 + l2 + l3 - k1 - k2)
                out[mono] = out.get(mono, 0) + sign
    return tuple(sorted(out.items()))


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
    return dict(_schur_cached(lam))


def decompose_schur(f: SymPoly3) -> dict[GLIndex, int]:
    """Expand a symmetric polynomial in the Schur basis.

    One pass of the Brauer-Klimyk rule: f * a_delta is the sum of
    f_m * a_(m+delta) over the monomials x^m of f, so each monomial adds
    f_m times the sign of straighten(m) at its partition, or nothing when
    it straightens to zero.  Raises NotSymmetricError for non-symmetric
    input, for which the rule does not hold.
    """
    if not is_symmetric(f):
        raise NotSymmetricError("input is not a symmetric polynomial")
    out: dict[GLIndex, int] = {}
    for mono, c in f.items():
        st = straighten(mono)
        if st is not None:
            sign, part = st
            out[part] = out.get(part, 0) + sign * c
    return {p: c for p, c in out.items() if c}


def _reduce_two_row(expansion: dict[GLIndex, int]) -> dict[tuple[int, int], int]:
    """Collapse GL(3) partitions to two-row labels (a-c, b-c).

    Determinant powers act trivially on sl3 characters, so identities
    stated with two-row Schur labels are compared after this reduction.
    """
    out: dict[tuple[int, int], int] = {}
    for (a, b, c), mult in expansion.items():
        key = (a - c, b - c)
        out[key] = out.get(key, 0) + mult
    return {k: c for k, c in out.items() if c}


def _two_row_sum(terms) -> dict[tuple[int, int], int]:
    """Signed sum of two-row Schur labels, straightened, as reduced labels.

    terms is an iterable of (coeff, a, b); labels that straighten to zero
    drop out, others contribute coeff * sign at the straightened partition.
    """
    out: dict[tuple[int, int], int] = {}
    for coeff, a, b in terms:
        st = straighten((a, b, 0))
        if st is None:
            continue
        sign, part = st
        key = (part[0] - part[2], part[1] - part[2])
        out[key] = out.get(key, 0) + coeff * sign
    return {k: c for k, c in out.items() if c}


def _product_reduced(f: SymPoly3, g: SymPoly3) -> dict[tuple[int, int], int]:
    return _reduce_two_row(decompose_schur(mul_sym(f, g)))


def verify_lemma_LR(m1: int, m2: int) -> bool:
    """Check the one- and two-box Pieri products against the case tables.

    Verifies s_{m1} * s_1, then s_{m1,m2} * s_2, s_{m1,m2} * s_{1,1} and
    their difference, selecting the case row in the order m2 = 0, m2 = 1,
    m1 = m2, generic (m1 - m2 >= 1 and m2 >= 2).  Index pairs falling
    outside the partition range straighten, possibly to zero, before the
    comparison, which happens at the two-row label level.
    """
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= m2 >= 0):
        raise ValueError(f"({m1}, {m2}) is not a two-row partition")
    s = schur((m1, m2, 0))
    s1 = schur((1, 0, 0))
    s2 = schur((2, 0, 0))
    s11 = schur((1, 1, 0))

    lhs_one = _product_reduced(schur((m1, 0, 0)), s1)
    if lhs_one != _two_row_sum([(1, m1 + 1, 0), (1, m1, 1)]):
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

    if _product_reduced(s, s2) != _two_row_sum(rows[0]):
        return False
    if _product_reduced(s, s11) != _two_row_sum(rows[1]):
        return False
    if _product_reduced(s, p_sub(s2, s11)) != _two_row_sum(rows[2]):
        return False
    return True


def _psi2_reduced(a: int, b: int) -> dict[tuple[int, int], int]:
    """Second Adams image of s_{a,b}, Schur-decomposed and two-row reduced."""
    return _reduce_two_row(decompose_schur(adams(schur((a, b, 0)), 2)))


def verify_lemma_psi2_recurrence(m1: int, m2: int) -> bool:
    """Check the column-adding recurrence for the second Adams operation.

    psi2(s_{m1,m2+1}) = psi2(s_{m1,m2}) * (s_2 - s_{1,1})
                        - psi2(s_{m1+1,m2}) - psi2(s_{m1-1,m2-1})
    compared at the two-row label level; requires m1 >= m2 + 1 >= 1.
    For m2 = 0 the last term has index (m1-1, -1), which straightens to
    the zero polynomial, so it drops out on its own.
    """
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= m2 + 1 >= 1):
        raise ValueError(f"recurrence needs m1 >= m2 + 1 >= 1, got ({m1}, {m2})")
    lhs = _psi2_reduced(m1, m2 + 1)
    prod = mul_sym(adams(schur((m1, m2, 0)), 2),
                   p_sub(schur((2, 0, 0)), schur((1, 1, 0))))
    rhs = _reduce_two_row(decompose_schur(prod))
    for sub in (_psi2_reduced(m1 + 1, m2), _psi2_reduced(m1 - 1, m2 - 1)):
        for key, c in sub.items():
            rhs[key] = rhs.get(key, 0) - c
    return lhs == {k: c for k, c in rhs.items() if c}


def psi_oracle(w: WeightLike, a: int) -> SignedWeightSum:
    """Adams-operation plethysm of the irreducible character V_w.

    Builds the character as s_{(m1+m2, m2, 0)}, applies x_i -> x_i^a and
    decomposes back into Schur terms, returned as dominant sl3 weights
    (l1 - l2, l2 - l3) with signed multiplicities.
    """
    wt = _as_dominant(w)
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"Adams degree must be a positive integer, got {a!r}")
    ch = schur((wt.m1 + wt.m2, wt.m2, 0))
    expansion = decompose_schur(adams(ch, a))
    # partitions one full column apart give the same weight; the
    # constructor adds their multiplicities
    return SignedWeightSum([((l1 - l2, l2 - l3), c)
                            for (l1, l2, l3), c in expansion.items()])

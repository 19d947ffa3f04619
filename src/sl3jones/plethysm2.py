"""Closed-form second plethysm of irreducible sl3 characters.

psi2_closed expands the second Adams/plethysm image of the irreducible
V_{m1,m2} as a signed sum of irreducibles by three explicit double sums
over (k, l); every summand is a dominant weight before combination, and
the k = 0 terms of the first two sums coincide while the third sum
removes one copy.  psi2_schur_form is the same expansion written against
two-row Schur indices; it is coded independently so the two can be
cross-checked term by term, and the schur3 Adams-decompose oracle gives
a third route.
"""

from __future__ import annotations

from .sl3rep import (SignedWeightSum, Weight, WeightLike, _as_dominant,
                     dimension)

__all__ = [
    "psi2_closed",
    "psi2_schur_form",
    "signed_dimension",
]


def psi2_closed(w: WeightLike) -> SignedWeightSum:
    """Signed irreducible expansion of the second plethysm of V_w.

    Three alternating double sums over shifts of the doubled weight
    (2*m1, 2*m2): the first lowers along the first simple root, the
    second along the second simple root, both swept down by the sum of
    the simple roots, and the third subtracts the k = 0 diagonal.
    """
    m1, m2 = _as_dominant(w)
    acc: dict[Weight, int] = {}
    get, make = acc.get, Weight._make

    def put(sign: int, a: int, b: int) -> None:
        if a < 0 or b < 0:
            raise ArithmeticError(
                f"non-dominant summand ({a}, {b}) in the plethysm sums")
        key = make((a, b))
        acc[key] = get(key, 0) + sign

    for l in range(min(m1, m2) + 1):
        for k in range(m1 - l + 1):
            put(-1 if k % 2 else 1, 2 * m1 - 2 * k - 2 * l, 2 * m2 + k - 2 * l)
        for k in range(m2 - l + 1):
            put(-1 if k % 2 else 1, 2 * m1 + k - 2 * l, 2 * m2 - 2 * k - 2 * l)
        put(-1, 2 * m1 - 2 * l, 2 * m2 - 2 * l)
    if 0 in acc.values():  # a scan is cheaper than always copying
        acc = {wt: c for wt, c in acc.items() if c}
    # put checked every key dominant, and m1, m2 are ints
    return SignedWeightSum._trusted(acc)


def psi2_schur_form(m1: int, m2: int) -> SignedWeightSum:
    """The same expansion indexed by two-row Schur partitions.

    Takes partition coordinates m1 >= m2 >= 0 (so the weight is
    (m1 - m2, m2)) and sums signed partitions (2*m1 - k - 4*l, ...) over
    the three ranges, converting each partition (a, b) to the weight
    (a - b, b).  Shares no code with psi2_closed by design.
    """
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= m2 >= 0):
        raise ValueError(f"({m1}, {m2}) is not a two-row partition")
    acc: dict[tuple[int, int], int] = {}

    def put(sign: int, a: int, b: int) -> None:
        if not (a >= b >= 0):
            raise ArithmeticError(
                f"invalid partition summand ({a}, {b}) in the Schur-form sums")
        key = (a - b, b)
        acc[key] = acc.get(key, 0) + sign

    for l in range(min(m1 - m2, m2) + 1):
        for k in range(m1 - m2 - l + 1):
            put(-1 if k % 2 else 1, 2 * m1 - k - 4 * l, 2 * m2 + k - 2 * l)
        for k in range(m2 - l + 1):
            put(-1 if k % 2 else 1, 2 * m1 - k - 4 * l, 2 * m2 - 2 * k - 2 * l)
        put(-1, 2 * m1 - 4 * l, 2 * m2 - 2 * l)
    return SignedWeightSum(acc)


def signed_dimension(s: SignedWeightSum) -> int:
    """Sum of multiplicity times classical dimension over all terms.

    For any plethysm of V_w this conserves the dimension of V_w itself,
    which makes it a cheap transcription check.
    """
    return sum(c * dimension(w) for w, c in s.items())

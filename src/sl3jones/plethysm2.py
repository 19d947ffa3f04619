"""Closed-form second plethysm of irreducible sl3 characters.

psi2_closed expands the second Adams/plethysm image of the irreducible
V_{m1,m2} as a signed sum of irreducibles by three explicit double sums
over (k, l); every summand is a dominant weight before combination, and
the k = 0 terms of the first two sums coincide while the third sum
removes one copy.  Row l of the sums for (m1, m2) is row 0 of the sums
for (m1 - l, m2 - l), so the rows are written once, in _psi2_row, and
psi2(m1, m2) = psi2(m1 - 1, m2 - 1) + _psi2_row(m1, m2): psi2_closed
sums the rows of one color, and the invariant's evaluator adds the rows
straight into its numerator, one per step along a diagonal, with no
merged expansion; on a self-dual diagonal it takes each row folded onto
half of itself.  psi2_schur_form is the same expansion written
against two-row Schur indices; it is coded independently so the two can
be cross-checked term by term, and the schur3 Adams-decompose oracle
gives a third route.  Both forms sum their signed summands through
laurent's _summed, the package's one accumulator, which is all the code
they share.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, cycle

from .laurent import _summed
from .sl3rep import (SignedWeightSum, Weight, WeightLike, _as_dominant,
                     dimension)

__all__ = [
    "psi2_closed",
    "psi2_schur_form",
    "signed_dimension",
]


def _psi2_row(m1: int, m2: int,
              fold: bool = False) -> Iterator[tuple[tuple[int, int], int]]:
    """Row l = 0 of the three sums for V_(m1, m2), its summands combined.

    The k = 0 summands of the first two sums are both (2*m1, 2*m2) and
    the third sum removes one copy, so the row is +(2*m1, 2*m2) plus the
    summands (-1)^k (2*m1 - 2*k, 2*m2 + k) for 1 <= k <= m1 and
    (-1)^k (2*m1 + k, 2*m2 - 2*k) for 1 <= k <= m2, all distinct.  Row l
    of (m1, m2) is row 0 of (m1 - l, m2 - l), so this is the one place
    the rows are written.  Returns the ((n1, n2), sign) pairs, each
    weight once, as plain tuples; the dominance check runs at the call.

    fold is for a self-dual row, m1 = m2 = p, and the caller checks it.
    There the second sum's summand k is the first's mirrored, (n1, n2)
    -> (n2, n1), with the same sign (-1)^k, so the folded row is the
    centre once and the first sum with its signs doubled, 1 + p pairs
    instead of 1 + 2p.  It is no longer the row as a weight sum, but it
    has the same Rosso-Jones numerator, since each weight's six terms
    are unchanged by the mirror: twist3 is symmetric in n1 and n2, and
    swapping A = n1 + 1 and B = n2 + 1 swaps two pairs of terms of equal
    sign.
    """
    x, y = 2 * m1, 2 * m2
    # each sum's coordinates are linear in k, so all its summands are
    # dominant when both ends of its k range are; k = 0 is both sums' end
    for n1, n2 in ((x, y), (0, y + m1), (x + m2, 0)):
        if n1 < 0 or n2 < 0:
            raise ArithmeticError(
                f"non-dominant summand ({n1}, {n2}) in the plethysm sums")
    first = zip(range(x - 2, -1, -2), range(y + 1, y + m1 + 1))
    if fold:
        return chain((((x, y), 1),), zip(first, cycle((-2, 2))))
    return chain(
        (((x, y), 1),),
        zip(first, cycle((-1, 1))),
        zip(zip(range(x + 1, x + m2 + 1), range(y - 2, -1, -2)),
            cycle((-1, 1))))


def psi2_closed(w: WeightLike) -> SignedWeightSum:
    """Signed irreducible expansion of the second plethysm of V_w.

    Three alternating double sums over shifts of the doubled weight
    (2*m1, 2*m2): the first lowers along the first simple root, the
    second along the second simple root, both swept down by the sum of
    the simple roots, and the third subtracts the k = 0 diagonal.  Row l
    of the sums is _psi2_row(m1 - l, m2 - l), so psi2 of (m1, m2) is
    psi2 of (m1 - 1, m2 - 1) plus _psi2_row(m1, m2).
    """
    m1, m2 = _as_dominant(w)
    make = Weight._make
    rows = chain.from_iterable(_psi2_row(m1 - l, m2 - l)
                               for l in range(min(m1, m2) + 1))
    # _psi2_row checked every key dominant, and m1, m2 are ints
    return SignedWeightSum._trusted(_summed((make(key), c) for key, c in rows))


def psi2_schur_form(m1: int, m2: int) -> SignedWeightSum:
    """The same expansion indexed by two-row Schur partitions.

    Takes partition coordinates m1 >= m2 >= 0 (so the weight is
    (m1 - m2, m2)) and sums signed partitions (2*m1 - k - 4*l, ...) over
    the three ranges, converting each partition (a, b) to the weight
    (a - b, b), and leaves the sum to SignedWeightSum.  Shares no code
    with psi2_closed but the accumulator, by design.
    """
    if not (isinstance(m1, int) and isinstance(m2, int) and m1 >= m2 >= 0):
        raise ValueError(f"({m1}, {m2}) is not a two-row partition")
    summands: list[tuple[tuple[int, int], int]] = []

    def put(sign: int, a: int, b: int) -> None:
        if not (a >= b >= 0):
            raise ArithmeticError(
                f"invalid partition summand ({a}, {b}) in the Schur-form sums")
        summands.append(((a - b, b), sign))

    for l in range(min(m1 - m2, m2) + 1):
        for k in range(m1 - m2 - l + 1):
            put(-1 if k % 2 else 1, 2 * m1 - k - 4 * l, 2 * m2 + k - 2 * l)
        for k in range(m2 - l + 1):
            put(-1 if k % 2 else 1, 2 * m1 - k - 4 * l, 2 * m2 - 2 * k - 2 * l)
        put(-1, 2 * m1 - 4 * l, 2 * m2 - 2 * l)
    return SignedWeightSum(summands)


def signed_dimension(s: SignedWeightSum) -> int:
    """Sum of multiplicity times classical dimension over all terms.

    For any plethysm of V_w this conserves the dimension of V_w itself,
    which makes it a cheap transcription check.
    """
    return sum(c * dimension(w) for w, c in s.items())

"""sl3 weight combinatorics: quantum integers, dimensions and twists.

Dominant weights are written in the fundamental-weight basis, so
Weight(m1, m2) stands for m1*w1 + m2*w2.  The invariant pairing has Gram
matrix [[2/3, 1/3], [1/3, 2/3]] on (w1, w2); the simple roots are
a1 = 2*w1 - w2 and a2 = -w1 + 2*w2.  Quantum dimensions and twists are
ScaledLaurent values, each on the smallest lattice its exponents live on:
quantum integers on the 1/2 lattice, twist powers theta^(num/den) on the
1/(3*den) lattice.  Quantum dimensions are in whole powers of q.
qdim_closed is the torus-knot evaluator's sum of one weight, the Weyl
alternant over its checked stride divisions; qdim_weyl, the product of
quantum integers over the positive roots with one long division, is the
independent route that checks it.  The Weyl vector rho and the positive
roots, which qdim_weyl and twist_weyl_check pair with, are constants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Union

from .laurent import ScaledLaurent, Write, _summed, _Value

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Weight",
    "WeightLike",
    "SignedWeightSum",
    "qint",
    "pairing",
    "dimension",
    "qdim_closed",
    "qdim_weyl",
    "twist_exponent",
    "twist_monomial",
    "twist_weyl_check",
]


class Weight(NamedTuple):
    """A weight m1*w1 + m2*w2 in the fundamental-weight basis."""

    m1: int
    m2: int


WeightLike = Union[Weight, tuple[int, int]]


def _as_weight(w: WeightLike) -> Weight:
    wt = w if type(w) is Weight else Weight._make(w)
    m1, m2 = wt
    if type(m1) is not int or type(m2) is not int:
        if not (isinstance(m1, int) and isinstance(m2, int)):
            raise TypeError(f"weight coordinates must be ints, got {wt!r}")
        # a bool or other int subclass becomes the plain int it equals, so
        # equal weights write the same text
        wt = Weight(int(m1), int(m2))
    return wt


def _as_dominant(w: WeightLike) -> Weight:
    wt = _as_weight(w)
    if wt.m1 < 0 or wt.m2 < 0:
        raise ValueError(f"weight {wt} is not dominant")
    return wt


# the Weyl vector and the positive roots a1, a2 and a1 + a2
_RHO = (1, 1)
_POSITIVE_ROOTS = ((2, -1), (-1, 2), (1, 1))


def pairing(u: tuple[int, int], v: tuple[int, int]) -> Fraction:
    """Invariant bilinear form of two vectors in w1/w2 coordinates.

    Normalized so that roots have squared length 2; values lie in (1/3)Z.
    """
    from fractions import Fraction

    u1, u2 = u
    v1, v2 = v
    return Fraction(4 * u1 * v1 + 2 * (u1 * v2 + u2 * v1) + 4 * u2 * v2, 6)


def qint(n: int) -> ScaledLaurent:
    """Balanced quantum integer [n] = q^((n-1)/2) + ... + q^(-(n-1)/2).

    [0] is the zero polynomial and [1] = 1.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"[n] needs an integer n >= 0, got {n!r}")
    return ScaledLaurent(2, {n - 1 - 2 * i: 1 for i in range(n)})


def dimension(w: WeightLike) -> int:
    """Classical dimension (m1+1)(m2+1)(m1+m2+2)/2 of the irreducible V_w."""
    m1, m2 = _as_dominant(w)
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def qdim_closed(w: WeightLike) -> ScaledLaurent:
    """Quantum dimension [m1+1][m2+1][m1+m2+2]/[2], an exact quotient.

    It is the Rosso-Jones sum of the one weight w at b = 0 over the
    trivial color, so the torus-knot evaluator builds it: the six-term
    Weyl alternant {A}{B}{A+B}, with A = m1+1 and B = m2+1, divided by
    {1}^2 {2}: the trivial color is self-dual, so (1 - q)^2 goes in one
    checked pass and 1 - q^2 in a second; _span sizes its list at b = 0.
    """
    from .jones import _rosso_jones  # jones imports this module

    m1, m2 = _as_dominant(w)
    return _rosso_jones({(m1, m2): 1}, 1, 0, Weight(0, 0))


def qdim_weyl(w: WeightLike) -> ScaledLaurent:
    """Quantum dimension via the Weyl-form product over positive roots.

    Independent of qdim_closed: evaluates prod [(w+rho, a)] / prod [(rho, a)]
    using the pairing and the general long division, rather than the
    Weyl alternant and the evaluator's stride divisions.
    """
    wt = _as_dominant(w)
    shifted = (wt.m1 + _RHO[0], wt.m2 + _RHO[1])
    num = ScaledLaurent.one()
    den = ScaledLaurent.one()
    for alpha in _POSITIVE_ROOTS:
        top = pairing(shifted, alpha)
        bot = pairing(_RHO, alpha)
        if top.denominator != 1 or bot.denominator != 1:
            raise ArithmeticError(f"non-integral root pairing for weight {wt}")
        num = num * qint(int(top))
        den = den * qint(int(bot))
    return num.div_exact(den)


def _twist3(m1: int, m2: int) -> int:
    """twist_exponent of the weight (m1, m2), unchecked."""
    return m1 * m1 + m1 * m2 + m2 * m2 + 3 * (m1 + m2)


def twist_exponent(w: WeightLike) -> int:
    """Three times the exponent of the twist: theta_w = q^(t/3).

    t = m1^2 + m1*m2 + m2^2 + 3*(m1 + m2), a plain integer.
    """
    return _twist3(*_as_dominant(w))


def twist_monomial(w: WeightLike, num: int, den: int = 1) -> ScaledLaurent:
    """The twist power theta_w^(num/den) as a one-term polynomial.

    theta_w = q^((m1^2 + m1*m2 + m2^2)/3 + m1 + m2), so the power is
    q^(num * twist_exponent(w) / (3 * den)), on the 1/(3*den) lattice or
    a coarser one.
    """
    if not isinstance(num, int) or not isinstance(den, int) or den < 1:
        raise ValueError(f"twist power {num!r}/{den!r} is not a valid fraction")
    return ScaledLaurent(3 * den, {num * twist_exponent(w): 1})


def twist_weyl_check(w: WeightLike) -> bool:
    """Check the twist exponent against (1/2)(w, w + 2*rho).

    Both sides are exact rationals; returns True when the closed-form
    exponent twist_exponent(w)/3 agrees with the pairing form.
    """
    from fractions import Fraction

    wt = _as_dominant(w)
    shifted = (wt.m1 + 2 * _RHO[0], wt.m2 + 2 * _RHO[1])
    return (Fraction(1, 2) * pairing(tuple(wt), shifted)
            == Fraction(twist_exponent(wt), 3))


def _multiplicity(c: int) -> int:
    if not isinstance(c, int):
        raise TypeError(f"multiplicity {c!r} is not an int")
    return c


class SignedWeightSum(_Value):
    """Finite Z-linear combination of dominant weights.

    Immutable mapping Weight -> nonzero signed multiplicity, with a
    deterministic lexicographic term order for rendering and JSON.
    The caller of _trusted(terms) guarantees each key is a Weight of two
    non-negative ints with a nonzero int multiplicity.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", _summed(
            (_as_dominant(w), _multiplicity(c)) for w, c in pairs))

    def items(self) -> tuple[tuple[Weight, int], ...]:
        return tuple(sorted(self._terms.items()))

    def __getitem__(self, w: WeightLike) -> int:
        return self._terms.get(_as_weight(w), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self):
        return iter(self.items())

    def __hash__(self) -> int:  # _terms is a dict: hash it as a frozenset
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if len(self._terms) <= 8:
            return f"SignedWeightSum({self.to_text()!r})"
        return f"<SignedWeightSum terms={len(self._terms)}>"

    def to_text(self) -> str:
        """Signed list like "+V_{0,0}-V_{1,2}", lexicographic weight order."""
        if not self._terms:
            return "0"
        parts = []
        for (m1, m2), c in self.items():
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign}{mag}V_{{{m1},{m2}}}")
        return "".join(parts)

    # a weight sum stays small beside an invariant (psi2_closed has
    # 10,201 terms at (100,100)), so each writer writes it whole
    def write_text(self, write: Write) -> None:
        write(self.to_text())

    def write_json(self, write: Write) -> None:
        write(self.to_json())

    def to_json_dict(self) -> dict:
        return {"terms": [[w.m1, w.m2, c] for w, c in self.items()]}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), separators=(",", ":"))

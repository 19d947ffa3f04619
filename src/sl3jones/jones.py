"""Colored sl3 invariants of torus knots, exactly, in the variable q.

Both routes evaluate the Rosso-Jones sum for T(a, b) at color w,
theta(w)^(-ab) / qdim(w) * sum_mu c_mu qdim(mu) theta(mu)^(b/a), over a
signed multiset of weights mu: jones_t2b over the closed second-plethysm
expansion psi2_closed, jones_rosso over the Adams image a*nu of every
weight nu of V_w, taken from the Gelfand-Tsetlin character schur.  The
summand is anti-invariant under the Weyl group acting on mu + rho, so
the weight form needs no Schur decomposition: straightening the Adams
image into irreducibles, as the schur3 oracle psi_oracle does, gives
the same sum.  With {n} = q^(n/2) - q^(-n/2), each quantum dimension
is {m1+1}{m2+1}{m1+m2+2} / ({1}^3 [2]) and the shared denominator cancels.
Since m1+m2+2 = (m1+1) + (m2+1), the product {A}{B}{A+B} is the six-term
Weyl alternant: of its eight signed monomials, the two at the twist
exponent itself cancel.  So each mu adds six signed monomials to one sum
on the 1/(6a) lattice, which is divided by the three factors
{n} = -q^(-n/2) (1 - q^n) of qdim(w).  Dividing by 1 - q^n is a plain
prefix sum along stride n of the dense coefficient list, and the sign
(-1)^3 of the three factors is folded into the numerator's signs; each
division must leave a zero remainder, and the result must reduce to
integer exponents.  The result is built once, from the dense list: its
nonzero entries, in ascending order, become the value's term dict with
no second check or copy.

Internally everything is a polynomial in q; results for the 1/q
convention are obtained by mirroring at the edge, and the variable tag
travels with the result.
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import gcd
from typing import NamedTuple

from .laurent import (InexactDivisionError, NonIntegralExponentError,
                      ScaledLaurent, UndefinedDegreeError, Write,
                      _joined)
from .plethysm2 import psi2_closed
from .schur3 import schur
from .sl3rep import Weight, WeightLike, _as_dominant, _twist3

__all__ = [
    "TorusKnotSpec",
    "ColoredJonesResult",
    "DegreeReport",
    "jones_t2b",
    "jones_rosso",
    "degree_report",
]


class TorusKnotSpec:
    """The torus knot T(a, b); a and b must be positive and coprime.

    Immutable; equal, hashed and printed by its two fields.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError(f"torus parameters must be ints, got {self!r}")
        if a < 1 or b < 1:
            raise ValueError(f"torus parameters must be positive, got {self!r}")
        if gcd(a, b) != 1:
            raise ValueError(f"T({a},{b}) is a link, not a knot")

    def __setattr__(self, name, value):
        raise AttributeError("TorusKnotSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("TorusKnotSpec is immutable")

    def __reduce__(self):
        return TorusKnotSpec, (self.a, self.b)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"TorusKnotSpec(a={self.a!r}, b={self.b!r})"


class ColoredJonesResult:
    """An exact colored invariant value with its provenance.

    value is integer-reduced (scale 1); variable records whether the
    exponents are powers of q or of 1/q.  Immutable; equal, hashed and
    printed by its four fields.
    """

    __slots__ = ("value", "knot", "color", "variable")

    def __init__(self, value: ScaledLaurent, knot: TorusKnotSpec,
                 color: Weight, variable: str = "q"):
        if variable not in ("q", "qinv"):
            raise ValueError(f"variable must be 'q' or 'qinv', got {variable!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "variable", variable)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredJonesResult is immutable")

    def __delattr__(self, name):
        raise AttributeError("ColoredJonesResult is immutable")

    def __reduce__(self):
        return ColoredJonesResult, (self.value, self.knot, self.color,
                                    self.variable)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.value, self.knot, self.color, self.variable)
                == (other.value, other.knot, other.color, other.variable))

    def __hash__(self) -> int:
        return hash((self.value, self.knot, self.color, self.variable))

    def __repr__(self) -> str:
        return (f"ColoredJonesResult(value={self.value!r}, knot={self.knot!r},"
                f" color={self.color!r}, variable={self.variable!r})")

    def mirrored(self) -> "ColoredJonesResult":
        """The same invariant written in the reciprocal variable."""
        flipped = "qinv" if self.variable == "q" else "q"
        return ColoredJonesResult(self.value.mirror(), self.knot, self.color,
                                  flipped)

    def write_text(self, write: Write) -> None:
        self.value.write_text(write)

    def write_json(self, write: Write) -> None:
        """Compact JSON: knot, color and variable, then the value's keys."""
        self.value._write_json_fields(
            write, f'{{"knot":{{"a":{self.knot.a},"b":{self.knot.b}}},'
                   f'"color":[{self.color.m1},{self.color.m2}],'
                   f'"variable":"{self.variable}",')

    def to_text(self) -> str:
        return self.value.to_text()

    def to_json(self) -> str:
        return _joined(self.write_json)

    def to_json_dict(self) -> dict:
        import json

        return json.loads(self.to_json())


class DegreeReport(NamedTuple):
    """Degree and coefficient extremes of an integer-reduced value."""

    min_deg: int
    max_deg: int
    min_coeff: int
    max_coeff: int
    min_coeff_exponents: tuple[int, ...]
    max_coeff_exponents: tuple[int, ...]
    leading: int
    trailing: int

    def to_json_dict(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in self._asdict().items()}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_text(self) -> str:
        """One "name value" line per field, lists comma-joined."""
        return "\n".join(
            f"{k} {','.join(map(str, v)) if isinstance(v, list) else v}"
            for k, v in self.to_json_dict().items())

    # the report is eight short lines, so each writer writes it whole
    def write_text(self, write: Write) -> None:
        write(self.to_text())

    def write_json(self, write: Write) -> None:
        write(self.to_json())


def _div_stride(dense: list[int], stride: int) -> None:
    """Divide dense coefficients in x, in place, by 1 - x^stride."""
    for r in range(stride):
        dense[r::stride] = accumulate(dense[r::stride])
    if any(dense[-stride:]):
        raise InexactDivisionError(f"nonzero remainder modulo 1 - x^{stride}")
    del dense[-stride:]


def _rosso_jones(weights: dict[tuple[int, int], int], a: int, b: int,
                 color: Weight) -> ScaledLaurent:
    """The Rosso-Jones sum over weights, reduced to scale 1.

    weights maps (n1, n2) to a signed multiplicity; any weight is
    allowed, including non-dominant ones.  Each term qdim(mu) *
    theta(mu)^(b/a) is anti-invariant under the Weyl group acting on
    mu + rho, so a weight on a wall (n1 = -1, n2 = -1 or n1 + n2 = -2)
    adds nothing, and the other weights need not be straightened to
    dominant ones.  color was checked dominant by the caller, so the
    twists take the unchecked form.
    """
    scale, h = 6 * a, 3 * a
    acc: dict[int, int] = {}
    get = acc.get
    # The sum is order-free, so the terms are taken unsorted.  Each mu
    # adds -{A}{B}{A+B} q^(t/scale) with A = n1+1 and B = n2+1, so u and v
    # are the exponents of q^A and q^B; the minus is the sign of the
    # three divisors.
    for (n1, n2), c in weights.items():
        t = 2 * b * _twist3(n1, n2)
        u, v = 2 * h * (n1 + 1), 2 * h * (n2 + 1)
        k = t + u + v
        acc[k] = get(k, 0) - c
        k = t + u
        acc[k] = get(k, 0) + c
        k = t + v
        acc[k] = get(k, 0) + c
        k = t - u
        acc[k] = get(k, 0) - c
        k = t - v
        acc[k] = get(k, 0) - c
        k = t - u - v
        acc[k] = get(k, 0) + c
    acc = {e: c for e, c in acc.items() if c}
    m1, m2 = color
    ns = (m1 + 1, m2 + 1, m1 + m2 + 2)
    lo = min(acc)
    step = gcd(*(e - lo for e in acc), *(scale * n for n in ns))
    dense = [0] * ((max(acc) - lo) // step + 1)
    for e, c in acc.items():
        dense[(e - lo) // step] = c
    for n in ns:
        _div_stride(dense, scale * n // step)
    # The divisors are polynomials in q, so every class of exponents mod
    # the integer lattice that the sum occupies stays occupied: the result
    # is integral exactly when step and base are.
    base = lo + h * sum(ns) - 2 * a * a * b * _twist3(m1, m2)
    if step % scale or base % scale:
        raise NonIntegralExponentError(
            f"T({a},{b}) at color {tuple(color)} has fractional exponents")
    base, step = base // scale, step // scale
    # scale 1, ascending int exponents, the zero entries left out
    exponents = range(base, base + step * len(dense), step)
    return ScaledLaurent._trusted(1, dict(compress(zip(exponents, dense),
                                                   dense)))


def jones_t2b(b: int, color: WeightLike) -> ColoredJonesResult:
    """Exact colored invariant of T(2, b) for odd b >= 1.

    Evaluates the Rosso-Jones sum over the closed second-plethysm
    expansion psi2_closed(color).  Every division is checked exact and
    the result must reduce to integer exponents.
    """
    if not isinstance(b, int) or b < 1 or b % 2 == 0:
        raise ValueError(f"T(2,b) needs a positive odd b, got {b!r}")
    w = _as_dominant(color)
    value = _rosso_jones(psi2_closed(w)._terms, 2, b, w)
    return ColoredJonesResult(value, TorusKnotSpec(2, b), w, "q")


def jones_rosso(knot: TorusKnotSpec, color: WeightLike) -> ColoredJonesResult:
    """Exact colored invariant of T(a, b) via the degree-a Adams plethysm.

    The same Rosso-Jones sum as jones_t2b, in weight form: over the Adams
    image a*nu of every weight nu of V_w, with its multiplicity, on the
    1/(6a) lattice.  The weights are the Gelfand-Tsetlin monomials of
    the character s_(m1+m2, m2, 0); none is straightened, so the cost
    grows with dim(V_w) and no Schur decomposition is made.  For a = 2
    the result equals jones_t2b.
    """
    if not isinstance(knot, TorusKnotSpec):
        knot = TorusKnotSpec(*knot)
    w = _as_dominant(color)
    a = knot.a
    weights = {(a * (e1 - e2), a * (e2 - e3)): c
               for (e1, e2, e3), c in schur((w.m1 + w.m2, w.m2, 0)).items()}
    value = _rosso_jones(weights, a, knot.b, w)
    return ColoredJonesResult(value, knot, w, "q")


def degree_report(result: ColoredJonesResult) -> DegreeReport:
    """Degree window and coefficient extremes of a result, with attainment.

    Exponents are reported in the result's own variable; the full list of
    exponents attaining each coefficient extreme is included, and leading
    and trailing are the coefficients at the highest and lowest exponent.
    """
    terms = result.value._terms  # ascending: the normal form
    if not terms:
        raise UndefinedDegreeError("degree report of the zero polynomial")
    lo_e, hi_e = next(iter(terms)), next(reversed(terms))
    lo_c = min(terms.values())
    hi_c = max(terms.values())
    return DegreeReport(
        min_deg=lo_e,
        max_deg=hi_e,
        min_coeff=lo_c,
        max_coeff=hi_c,
        min_coeff_exponents=tuple(e for e, c in terms.items() if c == lo_c),
        max_coeff_exponents=tuple(e for e, c in terms.items() if c == hi_c),
        leading=terms[hi_e],
        trailing=terms[lo_e],
    )

"""Colored sl3 invariants of torus knots, exactly, in the variable q.

Both routes evaluate the Rosso-Jones sum for T(a, b) at color w,
theta(w)^(-ab) / qdim(w) * sum_mu c_mu qdim(mu) theta(mu)^(b/a), over a
signed multiset of weights mu: jones_t2b over the second-plethysm
expansion of V_w, summed row by row (_psi2_row), jones_rosso over the
Adams image a*nu of every weight nu of V_w, streamed from the
Gelfand-Tsetlin character (schur3._schur_terms).  The summand is
anti-invariant under the Weyl group acting on mu + rho, so the weight
form needs no Schur decomposition: straightening the Adams image into
irreducibles, as the schur3 oracle psi_oracle does, gives the same
sum.  With
{n} = q^(n/2) - q^(-n/2), each quantum dimension is
{m1+1}{m2+1}{m1+m2+2} / ({1}^3 [2]) and the shared denominator cancels.
Since m1+m2+2 = (m1+1) + (m2+1), the product {A}{B}{A+B} is the six-term
Weyl alternant: of its eight signed monomials, the two at the twist
exponent itself cancel.  So each mu adds six signed monomials
q^(t/(6a)) q^(+-A +-B), with t = 2b*twist3(mu), A = n1+1 and B = n2+1
(_add_numerator).  The six share the class t mod 6a and lie whole
powers of q apart, and every route feeds weights of one class.  For an
Adams image mu = a*nu, t = 2b*a^2*(nu1 - nu2)^2 mod 6a, and nu1 - nu2
is nu1 + 2*nu2 mod 3, the triality of the color; straightening moves a
weight by the dot action, which keeps twist3; so the Adams images of
jones_rosso, the straightened weights of the schur3 oracle and the psi2
rows of T(2, b) each lie in one class (the tests check each).  The
numerator (_Numerator) is therefore one dense list, in whole powers of
q, with its class, its offset and the range in use: a term is a list
add, with no exponent dict, key scan or gcd.  A weight off the walls
in a second class raises NonIntegralExponentError as it is added.
The list is allocated once, before the first term, over _span of the
weights' range of A^2 + AB + B^2, and never grows.  Each weight's index
span is still checked against it before the adds, since a negative
index would wrap round silently: a weight past it raises LaurentError.
_evaluate divides the list by the three factors
{n} = -q^(-n/2) (1 - q^n) of qdim(w).  Dividing by 1 - q^n is a plain
prefix sum along stride n of the list, and the sign (-1)^3 of the three
factors is folded into the numerator's signs; each division must leave a
zero remainder, and the color's twist must take the class onto whole
powers of q.  For a self-dual color, m1 = m2, the strides are A, A and
2A: (1 - q^A)^2 is divided in one pass of two prefix sums, and one
check of the top 2A entries proves its remainder zero as two checked
passes would (_div_stride).  A numerator whose terms all cancel is the
zero polynomial.  The result is built once, on the dense list: its nonzero
entries, in ascending order, are the value's term map through a
_DenseTerms view, with no second check, copy or dict.  _evaluate uses
its numerator up, and every route ends in it: _rosso_jones is
_add_numerator then _evaluate.  For T(2, b), row l of psi2(m1, m2) is row 0 of
(m1 - l, m2 - l), so psi2(j, j + d) is psi2(j - 1, j + d - 1) plus the
row _psi2_row(j, j + d), and the numerator is linear in psi2:
_t2b_numerators grows one numerator by a row per color along the
diagonal (j, j + d), its list sized once from the diagonal's top color.
On a self-dual diagonal, (j, j), each row is self-dual and
mirror-symmetric: its two arms are mirror images with equal signs,
and a weight's six terms do not change under (n1, n2) -> (n2, n1),
since twist3 is symmetric and swapping A and B swaps two pairs of terms
of equal sign.  So the row is added folded, its centre once and its
first arm with doubled signs, 1 + j weights instead of 1 + 2j, and the
numerator is the same list.  jones_t2b evaluates it in place, once, at
the diagonal's end, and _t2b_diagonal, which the table uses, evaluates
a copy of its range in use at every color.  No route builds the plethysm as a
SignedWeightSum: psi2_closed serves the plethysm command and the checks
that compare it with psi2_schur_form, the schur3 oracle and the literal
sums.

Internally everything is a polynomial in q; results for the 1/q
convention are obtained by mirroring at the edge, and the variable tag
travels with the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate
from math import gcd, isqrt
from typing import NamedTuple

from .laurent import (InexactDivisionError, LaurentError,
                      NonIntegralExponentError, ScaledLaurent,
                      UndefinedDegreeError, Write, _DenseTerms, _joined,
                      _Value)
from .plethysm2 import _psi2_row
from .schur3 import _schur_terms
from .sl3rep import Weight, WeightLike, _as_dominant, _as_weight, _twist3

__all__ = [
    "TorusKnotSpec",
    "ColoredJonesResult",
    "DegreeReport",
    "jones_t2b",
    "jones_rosso",
    "degree_report",
]


class TorusKnotSpec(_Value):
    """The torus knot T(a, b); a and b must be positive and coprime.

    Immutable; equal, hashed and printed by its two fields.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        # a bool or other int subclass is kept as the plain int it equals,
        # so equal knots write the same text
        object.__setattr__(self, "a", int(a) if isinstance(a, int) else a)
        object.__setattr__(self, "b", int(b) if isinstance(b, int) else b)
        if not (isinstance(a, int) and isinstance(b, int)):
            raise TypeError(f"torus parameters must be ints, got {self!r}")
        if a < 1 or b < 1:
            raise ValueError(f"torus parameters must be positive, got {self!r}")
        if gcd(a, b) != 1:
            raise ValueError(f"T({a},{b}) is a link, not a knot")


class ColoredJonesResult(_Value):
    """An exact colored invariant value with its provenance.

    value may have any scale: the constructor accepts it as given, and
    the writers are tested on fractional ones.  Every route of the
    package (jones_t2b, jones_rosso, the table's diagonals and mirrored)
    returns it integer-reduced, scale 1.  variable records whether the
    exponents are powers of q or of 1/q.  A plain (a, b) knot becomes a
    TorusKnotSpec and a plain (m1, m2) color a Weight, so every form
    writes the same JSON.  Immutable; equal, hashed and printed by its
    four fields.
    """

    __slots__ = ("value", "knot", "color", "variable")

    def __init__(self, value: ScaledLaurent, knot: TorusKnotSpec,
                 color: WeightLike, variable: str = "q"):
        if variable not in ("q", "qinv"):
            raise ValueError(f"variable must be 'q' or 'qinv', got {variable!r}")
        if not isinstance(knot, TorusKnotSpec):
            knot = TorusKnotSpec(*knot)
        color = _as_weight(color)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "variable", variable)

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


def _div_stride(dense: list[int], stride: int, twice: bool = False) -> None:
    """Divide dense coefficients in x, in place, by 1 - x^stride.

    With twice, divide by (1 - x^stride)^2 in one pass per residue: a
    prefix sum of the prefix sum.  Either way the quotient is taken as a
    power series over the list's length L, and the division is exact
    exactly when the top d entries are zero, with d the divisor's
    degree: if S = N / D mod x^L and deg S < L - d, then S * D has degree
    below L and agrees with N mod x^L, so S * D = N; and the exact
    quotient has degree deg N - d < L - d.  So one check of the top
    2*stride entries proves what two checked passes would, and the
    entries below them are the same.
    """
    if twice:  # tested once here, not once per residue
        for r in range(stride):
            dense[r::stride] = accumulate(accumulate(dense[r::stride]))
    else:
        for r in range(stride):
            dense[r::stride] = accumulate(dense[r::stride])
    top = 2 * stride if twice else stride
    if any(dense[-top:]):
        divisor = f"(1 - x^{stride})^2" if twice else f"1 - x^{stride}"
        raise InexactDivisionError(f"nonzero remainder modulo {divisor}")
    del dense[-top:]


def _span(a: int, b: int, qmin: int, qmax: int) -> tuple[int, int]:
    """The (lowest, highest) whole power in a numerator of T(a, b).

    qmin <= Q <= qmax for Q = A^2 + AB + B^2 of every weight (n1, n2) to
    be added, with A = n1 + 1 and B = n2 + 1, so that twist3 = Q - 3.  A
    weight puts its six terms at e +- A +- B, with
    e = floor(b*(Q - 3)/(3a)), which does not fall as Q rises (b >= 0);
    and 4Q - (|A| + |B|)^2 >= 3(|A| - |B|)^2, so |A| + |B| <= isqrt(4Q).
    So each end is at most isqrt(4*qmax) past the outermost term, for any
    b.  Both ends hold for b = 0 too, where every e is 0.
    """
    s = isqrt(4 * qmax)
    return b * (qmin - 3) // (3 * a) - s, b * (qmax - 3) // (3 * a) + s


class _Numerator:
    """A Rosso-Jones numerator: the terms of one exponent class.

    The class is r, with 0 <= r < 6a, or None while no term is in; and
    coeffs[i] is the coefficient of q^(off + i + r/(6a)), in whole powers
    of q.  The whole powers lo..hi are the range in use, empty while
    lo > hi; every entry outside it is zero.  span is the (lowest,
    highest) whole power of q that any term will take, from _span before
    the first term: the list is allocated over it once and never grows.
    """

    __slots__ = ("r", "off", "coeffs", "lo", "hi")

    def __init__(self, span: tuple[int, int]):
        lo, hi = span
        self.r, self.off, self.coeffs = None, lo, [0] * (hi - lo + 1)
        self.lo, self.hi = hi + 1, lo - 1  # nothing in use yet

    def used(self) -> tuple[int, int]:
        """The slice of coeffs in use, its zero ends trimmed."""
        c, off, lo, hi = self.coeffs, self.off, self.lo, self.hi
        while lo <= hi and not c[hi - off]:
            hi -= 1
        while lo <= hi and not c[lo - off]:
            lo += 1
        return lo - off, hi - off + 1

    def copy(self) -> "_Numerator":
        """The terms in use, copied: evaluating the copy leaves self as is."""
        i, j = self.used()
        new = _Numerator.__new__(_Numerator)
        new.r, new.coeffs = self.r, self.coeffs[i:j]
        new.off = new.lo = self.off + i
        new.hi = new.lo + j - i - 1
        return new


def _add_numerator(acc: _Numerator,
                   weights: Iterable[tuple[tuple[int, int], int]],
                   a: int, b: int) -> None:
    """Add the Rosso-Jones numerator terms of weights to acc, in place.

    weights are ((n1, n2), signed multiplicity) pairs; any weight is
    allowed, including non-dominant ones.  Each term qdim(mu) *
    theta(mu)^(b/a) is anti-invariant under the Weyl group acting on
    mu + rho, so a weight on a wall (n1 = -1, n2 = -1 or n1 + n2 = -2)
    adds nothing, and the other weights need not be straightened to
    dominant ones.  A weight off the walls whose exponent class is not
    the numerator's raises NonIntegralExponentError: no route makes one.
    _span sized acc for every weight, so one past it is a fault: it
    raises LaurentError before any of its terms is written.
    """
    scale, tb = 6 * a, 2 * b
    r, off, coeffs, lo, hi = acc.r, acc.off, acc.coeffs, acc.lo, acc.hi
    end = off + len(coeffs)
    # The sum is order-free, so the terms are taken unsorted.  Each mu
    # adds -{A}{B}{A+B} q^(t/scale) with A = n1+1, B = n2+1 and
    # t = 2b * twist3(mu) = scale*e + k: six monomials of class k, at the
    # whole powers e +- A +- B.  The minus is the sign of the three
    # divisors.
    for (n1, n2), c in weights:
        e, k = divmod(tb * (n1 * (n1 + n2 + 3) + n2 * (n2 + 3)), scale)
        A, B = n1 + 1, n2 + 1
        if k != r:
            if not (A and B and A + B):
                continue  # a wall weight adds nothing in any class
            if r is not None:
                raise NonIntegralExponentError(
                    f"weight {(n1, n2)} is in exponent class {k}/{scale} "
                    f"of T({a},{b}), the numerator's is {r}/{scale}")
            r = acc.r = k
        s = abs(A) + abs(B)
        # the index guard: a negative index would wrap round silently
        if e - s < lo or e + s > hi:
            if e - s < off or e + s >= end:
                raise LaurentError(
                    f"weight {(n1, n2)} of T({a},{b}) reaches past the "
                    f"numerator's span {off}..{end - 1}")
            lo, hi = min(lo, e - s), max(hi, e + s)
        i = e - off
        coeffs[i + A + B] -= c
        coeffs[i + A] += c
        coeffs[i + B] += c
        coeffs[i - A] -= c
        coeffs[i - B] -= c
        coeffs[i - A - B] += c
    acc.lo, acc.hi = lo, hi


def _evaluate(acc: _Numerator, a: int, b: int,
              color: Weight) -> ScaledLaurent:
    """The invariant of T(a, b) at color from its numerator acc.

    acc is a numerator that _add_numerator built.  Its list becomes the
    result's, so acc is used up: a caller that adds more terms afterwards
    evaluates acc.copy() instead.  color was checked dominant by the
    caller, so the twists take the unchecked form.  The three divisions
    are exact together exactly when the product divides the list, and
    the exact quotient is unique, so their order and grouping leave the
    result as it is: a self-dual color's strides A, A, 2A are taken as
    one pass by (1 - q^A)^2 and one by 1 - q^(2A), with the test made
    once per color, not once per residue.
    """
    i, j = acc.used()
    dense = acc.coeffs
    del dense[j:], dense[:i]
    if not dense:
        return ScaledLaurent.zero()  # every term cancelled
    m1, m2 = color
    if m1 == m2:  # the strides A, A, 2A: the first two in one pass
        _div_stride(dense, m1 + 1, twice=True)
        _div_stride(dense, 2 * m1 + 2)
    else:
        for n in (m1 + 1, m2 + 1, m1 + m2 + 2):
            _div_stride(dense, n)
    # The divisors are polynomials in q, so the class stays: the result
    # is integral exactly when the color's twist theta(w)^(-ab) takes it
    # onto whole powers.  The three divisors' q^(-n/2) add m1 + m2 + 2
    # to every power.
    scale = 6 * a
    shift = acc.r - 2 * a * a * b * _twist3(m1, m2)
    if shift % scale:
        raise NonIntegralExponentError(
            f"T({a},{b}) at color {tuple(color)} has fractional exponents")
    # scale 1, ascending int exponents, the zero entries left out
    return ScaledLaurent._trusted(
        1, _DenseTerms(acc.off + i + m1 + m2 + 2 + shift // scale, dense))


def _rosso_jones(weights: Mapping[tuple[int, int], int], a: int, b: int,
                 color: Weight) -> ScaledLaurent:
    """The Rosso-Jones sum over weights, reduced to scale 1.

    weights maps (n1, n2) to a signed multiplicity, as _add_numerator
    takes them.  The least and largest Q = twist3 + 3 size the list.
    """
    q = {_twist3(n1, n2) + 3 for n1, n2 in weights} or {3}
    acc = _Numerator(_span(a, b, min(q), max(q)))
    _add_numerator(acc, weights.items(), a, b)
    return _evaluate(acc, a, b, color)


def jones_t2b(b: int, color: WeightLike) -> ColoredJonesResult:
    """Exact colored invariant of T(2, b) for odd b >= 1.

    Evaluates the Rosso-Jones sum over the second-plethysm expansion of
    V_color, added to the numerator row by row with no merged plethysm.
    Every division is checked exact and the result must reduce to
    integer exponents.
    """
    knot = TorusKnotSpec(2, b)
    for w, acc in _t2b_numerators(b, color):
        pass  # the last color is color itself, with all its rows
    # nothing reads the numerator afterwards, so it is evaluated in place
    return ColoredJonesResult(_evaluate(acc, 2, b, w), knot, w, "q")


def _t2b_numerators(
        b: int, color: WeightLike) -> Iterator[tuple[Weight, _Numerator]]:
    """(w, numerator of T(2, b) at w) along the diagonal of color, up to it.

    The colors w are (m1 - l, m2 - l) for l = min(m1, m2) down to 0.  Row
    l of psi2(m1, m2) is _psi2_row(m1 - l, m2 - l), so psi2 of each color
    is psi2 of the one before plus one row, and the Rosso-Jones numerator
    is linear in psi2: one numerator grows by a row per color.  This is
    the one place the rows are summed.  A diagonal's rows are all
    self-dual exactly when color is, m1 = m2, so that is decided once:
    its rows are then added folded (_psi2_row with fold), each the centre
    and the first arm with doubled signs, as the mirror leaves every
    weight's six terms unchanged; the numerator is the one the full rows
    give.  Its list is sized once, over _span from Q = 3 (every row
    weight is dominant) to Q of the top row's first weight (2*m1, 2*m2):
    twist3 does not rise along a row, as a step in k adds -3*n1 or
    -3*n2, and each earlier row is the top row of a smaller color.  The
    same numerator is yielded each time, so a caller evaluates a copy of
    it before asking for the next color.
    """
    m1, m2 = _as_dominant(color)
    acc = _Numerator(_span(2, b, 3, _twist3(2 * m1, 2 * m2) + 3))
    fold = m1 == m2  # then every row of the diagonal is self-dual
    for l in range(min(m1, m2), -1, -1):
        w = Weight(m1 - l, m2 - l)
        _add_numerator(acc, _psi2_row(*w, fold), 2, b)
        yield w, acc


def _t2b_diagonal(b: int, color: WeightLike) -> Iterator[ColoredJonesResult]:
    """jones_t2b(b, w) for every w on the diagonal of color, up to color.

    One numerator from _t2b_numerators is evaluated, through a copy of
    the range in use, at each color, where jones_t2b per color would
    rebuild the numerator from its first row.
    """
    knot = TorusKnotSpec(2, b)
    for w, acc in _t2b_numerators(b, color):
        yield ColoredJonesResult(_evaluate(acc.copy(), 2, b, w), knot, w, "q")


def jones_rosso(knot: TorusKnotSpec, color: WeightLike) -> ColoredJonesResult:
    """Exact colored invariant of T(a, b) via the degree-a Adams plethysm.

    The same Rosso-Jones sum as jones_t2b, in weight form: over the Adams
    image a*nu of every weight nu of V_w, with its multiplicity, on the
    1/(6a) lattice.  The weights are the Gelfand-Tsetlin monomials of
    the character s_(m1+m2, m2, 0), read as a stream into the map of
    Adams images, so the character itself is never stored; none is
    straightened, so the cost grows with dim(V_w) and no Schur
    decomposition is made.  For a = 2 the result equals jones_t2b.
    """
    if not isinstance(knot, TorusKnotSpec):
        knot = TorusKnotSpec(*knot)
    w = _as_dominant(color)
    a = knot.a
    weights = {(a * (e1 - e2), a * (e2 - e3)): c
               for (e1, e2, e3), c in _schur_terms((w.m1 + w.m2, w.m2, 0))}
    value = _rosso_jones(weights, a, knot.b, w)
    return ColoredJonesResult(value, knot, w, "q")


def _degree_window(terms: Mapping[int, int]) -> tuple[int, int, int, int]:
    """(min_deg, max_deg, min_coeff, max_coeff) of a nonempty term map.

    The map ascends (the normal form), so the degrees are its first and
    last keys; no list of exponents is built.  For the evaluator's dense
    map the extremes are taken over the raw coefficient list, zeros
    included, in one C pass each.  A zero entry moves neither extreme
    unless every term has the other sign: a negative min or a positive
    max is some term's coefficient.  So only an extreme that comes out
    exactly 0 is taken again, over the terms alone.
    """
    if not terms:
        raise UndefinedDegreeError("degree report of the zero polynomial")
    if type(terms) is _DenseTerms:
        coeffs = terms._coeffs
        lo_c = min(coeffs) or min(terms.values())
        hi_c = max(coeffs) or max(terms.values())
    else:
        lo_c, hi_c = min(terms.values()), max(terms.values())
    return next(iter(terms)), next(reversed(terms)), lo_c, hi_c


def degree_report(result: ColoredJonesResult) -> DegreeReport:
    """Degree window and coefficient extremes of a result, with attainment.

    Exponents are reported in the result's own variable; the full list of
    exponents attaining each coefficient extreme is included, and leading
    and trailing are the coefficients at the highest and lowest exponent.
    """
    terms = result.value._terms
    lo_e, hi_e, lo_c, hi_c = _degree_window(terms)
    # one pass for both lists: the evaluator's dense term map makes an
    # exponent int at every step of every pass over its keys
    lows, highs = [], []
    for e, c in terms.items():
        if c == lo_c:
            lows.append(e)
        if c == hi_c:
            highs.append(e)
    return DegreeReport(
        min_deg=lo_e,
        max_deg=hi_e,
        min_coeff=lo_c,
        max_coeff=hi_c,
        min_coeff_exponents=tuple(lows),
        max_coeff_exponents=tuple(highs),
        leading=terms[hi_e],
        trailing=terms[lo_e],
    )

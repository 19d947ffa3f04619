"""Exact Laurent polynomials in a fractional power of q.

A ScaledLaurent with scale D represents an element of Z[q^(1/D), q^(-1/D)]:
the term c*q^(e/D) is the entry e -> c of its term map, with an arbitrary
precision integer coefficient.  Like a Fraction, the value keeps D
reduced: D is the smallest lattice the exponents live on, so equal values
have equal scales and terms, and the zero polynomial (the empty term map)
has scale 1.  The term map has no zero entry and keeps its exponents in
ascending order, so every reader walks the terms in order with no sort.
It is a dict, or the _DenseTerms view the torus-knot evaluator puts over
the numerator's coefficient list, which is in whole powers of q from the
first term added and is divided in place (the table divides a copy of
the range in use), so a large invariant keeps no dict entry or exponent
int per term; mirror keeps it dense, over the reversed list.  Every
reader goes through the Mapping protocol, so no reader has a second code
path.  Binary operations work on the lcm of the two scales.  All
arithmetic is exact; division is long division from the lowest exponent
and must leave no remainder.

The public constructor checks and normalizes its input, and always keeps
a dict.  It takes a Mapping or (exponent, coefficient) pairs down one
path: the stream _int_pairs checks each pair, and _normal sums them with
_summed, reduces the scale and orders the terms.  __add__, __mul__ and
div_exact hand _normal their pairs directly, since pairs built from two
values in normal form need no check.  _summed is the package's one accumulator
of signed sums; the sums of schur3, plethysm2 and sl3rep go through it
too.  An internal caller that already guarantees the normal form (scale
reduced, no zero entry, every term an int pair, exponents ascending)
builds the value with _trusted instead, which runs no check and keeps
the term map it is given, a dict or a _DenseTerms; _trusted,
immutability, pickling, equality, hashing and the repr come from
_Value, the base of the package's slotted value types.
write_text and write_json are the one text and the one JSON writer: each
hands the rendering, straight from the ordered terms, to a write
callable in chunks of CHUNK_TERMS terms, so a value of any size is
written holding one chunk.  Both read the terms as two aligned columns,
iter(terms) and iter(terms.values()), and loop until the columns run
out, so no writer asks for the length.  A chunk is one %-format over the
two columns interleaved into one flat list by slice assignment, with no
tuple per term: a JSON chunk over (exponent, coefficient), a text chunk
over (coefficient, exponent) with every separator " + ", then one
replace of "+ -" by "- " for the negative coefficients.  No exponent
text holds "+ ", so the replace touches separators only.  to_text and
to_json join the same chunks, and to_json_dict is the parse of to_json;
the constructor reads such a dict d back, on any scale:
ScaledLaurent(d["scale"], {e: int(c) for e, c in d["terms"]}).
The package's methods that need the json module import it when called,
so importing the library alone does not load it; the functions that
return a Fraction (degree_span here, pairing and twist_weyl_check in
sl3rep) import the fractions module the same way.
"""

from __future__ import annotations

from collections.abc import (Callable, Iterable, ItemsView, Iterator, Mapping,
                             ValuesView)
from itertools import chain, compress, islice, repeat
from math import gcd, lcm
from operator import countOf
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "LaurentError",
    "ScaleError",
    "InexactDivisionError",
    "NonIntegralExponentError",
    "UndefinedDegreeError",
    "ScaledLaurent",
]


class LaurentError(Exception):
    """Base class for ScaledLaurent arithmetic errors."""


class ScaleError(LaurentError):
    """A scale that is not a positive integer."""


class InexactDivisionError(LaurentError):
    """Long division left a remainder (no integer Laurent quotient exists)."""


class NonIntegralExponentError(LaurentError):
    """A value that must have integer exponents has fractional ones."""


class UndefinedDegreeError(LaurentError):
    """Degree span requested for the zero polynomial."""


class _Value:
    """An immutable value whose fields are its class's own __slots__.

    A subclass lists __slots__ in constructor-argument order and must
    declare them itself, or it gains a __dict__ and reads its parent's;
    a pickle or copy goes through the public constructor.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        """The field values, in __slots__ order."""
        return tuple([getattr(self, name) for name in self.__slots__])

    @classmethod
    def _trusted(cls, *fields):
        """The value of fields, built with no check and no copy.

        The caller guarantees what the public constructor would establish
        and must not change a mutable field afterwards.
        """
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


def _summed(pairs: Iterable[tuple]) -> dict:
    """The (key, c) pairs summed by key, with every zero sum dropped.

    The package's one accumulator: every signed sum it builds goes
    through it.  Keys keep the order they first appear in, pairs may be a
    one-shot iterator, and a bool c sums into a plain int.
    """
    out: dict = {}
    get = out.get
    for k, c in pairs:
        out[k] = get(k, 0) + c
    if 0 in out.values():  # a scan is cheaper than always copying
        out = {k: c for k, c in out.items() if c}
    return out


TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]

# where a writer sends each chunk of its output
Write = Callable[[str], object]

# terms per chunk of write_text and write_json: their memory is bounded by
# one chunk, not by the whole text
CHUNK_TERMS = 4096


def _joined(write_chunks: Callable[[Write], None]) -> str:
    """The chunks that write_chunks(write) writes, as one string."""
    parts: list[str] = []
    write_chunks(parts.append)
    return "".join(parts)


def _chunk(fmt: str, lead: Iterator, other: Iterator) -> str:
    """The next CHUNK_TERMS pairs of two aligned columns, fmt % each pair.

    fmt formats one pair, lead's entry first.  The chunk is one %-format
    over the pairs interleaved into one flat list by slice assignment, and
    is "" once lead has run out.  Nothing of the chunk's terms outlives
    the call.
    """
    flat = list(islice(lead, CHUNK_TERMS))
    k = len(flat)
    flat *= 2
    flat[::2] = flat[:k]
    flat[1::2] = islice(other, k)
    flat = tuple(flat)  # % takes a tuple; the list goes before the format
    return (fmt * k) % flat


def _fraction_text(e: int, scale: int) -> str:
    """The exponent e/scale in lowest terms, parenthesized if fractional."""
    g = gcd(e, scale)
    n, d = e // g, scale // g
    return str(n) if d == 1 else f"({n}/{d})"


class _DenseTerms(Mapping):
    """Read-only ascending term map over a dense coefficient list.

    The exponent base + i maps to coeffs[i], in whole powers, as the
    evaluator's one exponent class always lands; a zero entry of coeffs
    is no term.  Iteration runs over the nonzero entries with compress,
    lookups are index arithmetic, and nothing is copied, so the caller
    must not change coeffs afterwards.  The length is counted
    when asked, since no writer needs it, and truth is any(coeffs), which
    stops at the first term.  A pickle or copy is a plain dict.
    """

    __slots__ = ("_keys", "_coeffs")

    def __init__(self, base: int, coeffs: list[int]):
        self._keys = range(base, base + len(coeffs))
        self._coeffs = coeffs

    def __iter__(self) -> Iterator[int]:
        return compress(self._keys, self._coeffs)

    def __reversed__(self) -> Iterator[int]:
        return compress(reversed(self._keys), reversed(self._coeffs))

    def __len__(self) -> int:
        return len(self._coeffs) - countOf(self._coeffs, 0)

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def get(self, e, default=None):
        # `in` and index on a range are arithmetic for an int only; any
        # other key would be a scan
        if isinstance(e, int) and e in self._keys:
            return self._coeffs[self._keys.index(e)] or default
        return default

    def __getitem__(self, e) -> int:
        c = self.get(e)
        if c is None:
            raise KeyError(e)
        return c

    def __eq__(self, other) -> bool:
        # over the same exponents the maps are equal when the lists are,
        # with no dict built for either side
        if isinstance(other, _DenseTerms) and self._keys == other._keys:
            return self._coeffs == other._coeffs
        return Mapping.__eq__(self, other)

    def mirrored(self) -> "_DenseTerms":
        """The map with every exponent negated, still ascending."""
        keys = self._keys
        if not keys:
            return self
        return _DenseTerms(-keys[-1], self._coeffs[::-1])

    def items(self) -> "_DenseItems":
        return _DenseItems(self)

    def values(self) -> "_DenseValues":
        return _DenseValues(self)

    def __reduce__(self):
        return dict, (), None, None, iter(self.items())


class _DenseItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        m = self._mapping
        return compress(zip(m._keys, m._coeffs), m._coeffs)


class _DenseValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return filter(None, self._mapping._coeffs)


def _int_pairs(pairs: TermsLike) -> Iterator[tuple[int, int]]:
    """pairs, each checked to be an int pair, as a stream.

    A bool exponent comes out as the plain int it equals, so equal values
    write the same text; _summed does the same for a coefficient.
    """
    for e, c in pairs:
        if type(e) is not int or type(c) is not int:
            if not (isinstance(e, int) and isinstance(c, int)):
                raise TypeError(f"term ({e!r}, {c!r}) is not an int pair")
            e = int(e)
        yield e, c


def _normal(scale: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, dict]:
    """The int pairs on the 1/scale lattice, summed, in normal form.

    Returns the reduced scale and the ascending term dict with no zero
    entry.  The pairs are not checked: the constructor passes them through
    _int_pairs first, and __add__ and __mul__ build them from two values
    already in normal form.
    """
    clean = _summed(pairs)
    if scale != 1:  # the integer lattice is always reduced
        g = gcd(scale, *clean)
        if g != 1:
            scale //= g
            clean = {e // g: c for e, c in clean.items()}
    order = sorted(clean)
    if order != list(clean):  # a comparison is cheaper than a rebuild
        clean = {e: clean[e] for e in order}
    return scale, clean


def _stretch(terms: Mapping[int, int], k: int) -> dict[int, int]:
    """terms with every exponent multiplied by k."""
    return {e * k: c for e, c in terms.items()}


class ScaledLaurent(_Value):
    """Sparse exact Laurent polynomial in q^(1/scale), scale reduced.

    Instances are immutable: every operation returns a new polynomial.
    """

    __slots__ = ("scale", "_terms")

    def __init__(self, scale: int, terms: TermsLike = ()):
        if not isinstance(scale, int) or scale < 1:
            raise ScaleError(f"scale must be a positive integer, got {scale!r}")
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        scale = int(scale)  # a bool scale is stored as the int it equals
        scale, clean = _normal(scale, _int_pairs(pairs))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_terms", clean)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "ScaledLaurent":
        return cls(1)

    @classmethod
    def one(cls) -> "ScaledLaurent":
        return cls(1, {0: 1})

    # -- inspection --------------------------------------------------

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms as (scaled exponent, coefficient), ascending exponent.

        Ascending order is part of the normal form, so this is a copy of
        the term dict in its own order, with no sort.
        """
        return tuple(self._terms.items())

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._terms.items())

    def __hash__(self) -> int:  # _terms is a Mapping: hash it as a frozenset
        return hash((self.scale, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if len(self._terms) <= 8:
            return f"ScaledLaurent({self.scale}, {self.to_text()!r})"
        lo, hi = next(iter(self._terms)), next(reversed(self._terms))
        return (f"<ScaledLaurent scale={self.scale} terms={len(self._terms)}"
                f" exponents=[{lo},{hi}]>")

    # -- ring operations ---------------------------------------------

    def _common(self, other: "ScaledLaurent") -> tuple[int, Mapping, Mapping]:
        """Both term maps on the lattice of lcm(self.scale, other.scale)."""
        s, t = self.scale, other.scale
        if s == t:
            return s, self._terms, other._terms
        m = lcm(s, t)
        return m, _stretch(self._terms, m // s), _stretch(other._terms, m // t)

    def __add__(self, other: "ScaledLaurent") -> "ScaledLaurent":
        if not isinstance(other, ScaledLaurent):
            return NotImplemented
        scale, a, b = self._common(other)
        return ScaledLaurent._trusted(*_normal(scale,
                                               chain(a.items(), b.items())))

    def __neg__(self) -> "ScaledLaurent":
        return ScaledLaurent._trusted(
            self.scale, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "ScaledLaurent") -> "ScaledLaurent":
        if not isinstance(other, ScaledLaurent):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, c: int) -> "ScaledLaurent":
        if not isinstance(c, int):
            raise TypeError("scalar must be an int")
        if c == 0:
            return ScaledLaurent(self.scale)
        return ScaledLaurent._trusted(
            self.scale, {e: c * v for e, v in self._terms.items()})

    def __mul__(self, other) -> "ScaledLaurent":
        if isinstance(other, int):
            return self.scalar_mul(other)
        if not isinstance(other, ScaledLaurent):
            return NotImplemented
        scale, a, b = self._common(other)
        if len(a) > len(b):
            a, b = b, a
        return ScaledLaurent._trusted(*_normal(
            scale, ((e1 + e2, c1 * c2) for e1, c1 in a.items()
                    for e2, c2 in b.items())))

    def __rmul__(self, other) -> "ScaledLaurent":
        if isinstance(other, int):
            return self.scalar_mul(other)
        return NotImplemented

    def div_exact(self, divisor: "ScaledLaurent") -> "ScaledLaurent":
        """Exact quotient self / divisor.

        One long division from the lowest exponent on the common exponent
        lattice, in steps of the gcd of both operands' exponent offsets (1
        for two monomials), so sparse operands cost steps, not exponents.
        Raises InexactDivisionError unless divisor * quotient reproduces
        self exactly with integer coefficients.
        """
        if not isinstance(divisor, ScaledLaurent):
            raise TypeError("divisor must be a ScaledLaurent")
        if not divisor._terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._terms:
            return ScaledLaurent(1)
        scale, f, g = self._common(divisor)
        f_items = list(f.items())  # both ascend: the normal form
        g_items = list(g.items())
        f_lo = f_items[0][0]
        g_lo = g_items[0][0]
        step = 0
        for e, _ in f_items:
            step = gcd(step, e - f_lo)
        for e, _ in g_items:
            step = gcd(step, e - g_lo)
        step = step or 1
        nf = (f_items[-1][0] - f_lo) // step + 1
        ng = (g_items[-1][0] - g_lo) // step + 1
        fa = [0] * nf
        for e, c in f_items:
            fa[(e - f_lo) // step] = c
        g0 = g_items[0][1]
        g_rest = [((e - g_lo) // step, c) for e, c in g_items[1:]]
        nq = nf - ng + 1
        quot = [0] * nq
        for i in range(nq):
            c = fa[i]
            if c:
                qc, r = divmod(c, g0)
                if r:
                    raise InexactDivisionError(
                        f"coefficient {c} not divisible by {g0} at step {i}")
                quot[i] = qc
                for off, gc in g_rest:
                    fa[i + off] -= qc * gc
        # for nq <= 0 the slice still ends in fa[-1], the dividend's top
        if any(fa[nq:]):
            raise InexactDivisionError("nonzero remainder")
        base = f_lo - g_lo
        return ScaledLaurent._trusted(*_normal(
            scale, ((base + i * step, c) for i, c in enumerate(quot) if c)))

    # -- structure maps ----------------------------------------------

    def mirror(self) -> "ScaledLaurent":
        """The image under q -> 1/q (all exponents negated).

        A dense term map mirrors to a dense map over its reversed list.
        """
        terms = self._terms
        if isinstance(terms, _DenseTerms):
            return ScaledLaurent._trusted(self.scale, terms.mirrored())
        return ScaledLaurent._trusted(
            self.scale, {-e: c for e, c in reversed(terms.items())})

    def eval_one(self) -> int:
        """The value at q = 1, i.e. the sum of all coefficients."""
        return sum(self._terms.values())

    def degree_span(self) -> tuple[Fraction, Fraction]:
        """(lowest, highest) exponent as exact rationals in lowest terms."""
        from fractions import Fraction

        if not self._terms:
            raise UndefinedDegreeError("degree of the zero polynomial")
        return (Fraction(next(iter(self._terms)), self.scale),
                Fraction(next(reversed(self._terms)), self.scale))

    # -- serialization -----------------------------------------------

    def write_text(self, write: Write) -> None:
        """Human-readable form, ascending exponents, in chunks to write.

        Terms render as c*q^e with reduced rational exponents, for example
        "1*q^24 + 2*q^(51/2) - 1*q^30".  The zero polynomial renders "0".
        write is called once per CHUNK_TERMS terms, so no more than one
        chunk of the text is ever held.
        """
        terms = self._terms
        if not terms:
            write("0")
            return
        # The coefficient column leads, beside the exponents as text
        # unless whole (%s of an int prints what %d prints).  The first
        # separator (a bare sign, or none for a plus) is fixed on the first
        # chunk.
        fmt, coeffs, exps = " + %d*q^%s", iter(terms.values()), iter(terms)
        if self.scale != 1:
            exps = map(_fraction_text, exps, repeat(self.scale))
        chunk = _chunk(fmt, coeffs, exps).replace("+ -", "- ")
        chunk = chunk[3:] if chunk[1] == "+" else "-" + chunk[3:]
        while chunk:
            write(chunk)
            chunk = _chunk(fmt, coeffs, exps).replace("+ -", "- ")

    def write_json(self, write: Write) -> None:
        """Compact JSON: {"scale":S,"terms":[[exponent,"coefficient"],...]}.

        Ascending exponents; coefficients are strings so that no reader
        loses digits.  Written in chunks of CHUNK_TERMS terms, byte for
        byte what json.dumps with separators (",", ":") gives for
        to_json_dict.
        """
        self._write_json_fields(write, "{")

    def _write_json_fields(self, write: Write,
                           head: str) -> None:
        """head, then the "scale" and "terms" members and the closing brace.

        A type that holds a value writes its own members as head, so the
        value's terms are never copied into a second string.
        """
        terms = self._terms
        write(f'{head}"scale":{self.scale},"terms":[')
        fmt, exps, coeffs = ',[%d,"%d"]', iter(terms), iter(terms.values())
        # every term carries its leading comma, cut from the first chunk
        chunk = _chunk(fmt, exps, coeffs)[1:]
        while chunk:
            write(chunk)
            chunk = _chunk(fmt, exps, coeffs)
        write("]}")

    def to_text(self) -> str:
        """write_text's chunks, joined."""
        return _joined(self.write_text)

    def to_json(self) -> str:
        """write_json's chunks, joined."""
        return _joined(self.write_json)

    def to_json_dict(self) -> dict:
        """JSON form as a dict: scale plus [exponent, coefficient-string]."""
        import json

        return json.loads(self.to_json())

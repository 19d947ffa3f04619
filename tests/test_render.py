"""Text and JSON renderers against the loop and json.dumps forms they replace.

The reference renderers below build each output the straightforward way:
a term-by-term loop for the text, and json.dumps with compact separators
over a dict built by hand for the JSON.  The package writes both forms
directly from the sorted terms, in chunks of at most CHUNK_TERMS terms,
and the joined chunks must match them byte for byte.
"""

import json
import random
import tracemalloc
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3jones import cli
from sl3jones.jones import (ColoredJonesResult, DegreeReport, TorusKnotSpec,
                            degree_report, jones_rosso, jones_t2b)
from sl3jones.laurent import CHUNK_TERMS, ScaledLaurent, _fraction_text
from sl3jones.sl3rep import SignedWeightSum, Weight


def dumps(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def chunks(write_chunks) -> list[str]:
    """Every chunk that write_chunks(write) hands to write, in order."""
    out: list[str] = []
    write_chunks(out.append)
    return out


def ref_text(f: ScaledLaurent) -> str:
    if not f:
        return "0"
    parts = []
    for e, c in f.items():
        if f.scale == 1:
            es = str(e)
        else:
            frac = Fraction(e, f.scale)
            if frac.denominator == 1:
                es = str(frac.numerator)
            else:
                es = f"({frac.numerator}/{frac.denominator})"
        term = f"{abs(c)}*q^{es}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts)


@given(st.integers(-10**6, 10**6), st.integers(1, 60))
@example(0, 1)
@example(0, 7)
@example(-3, 6)
@example(-12, 6)
@example(10**6, 60)
def test_fraction_text_matches_fraction(e, scale):
    frac = Fraction(e, scale)
    assert _fraction_text(e, scale) == (
        str(frac) if frac.denominator == 1 else f"({frac})")


def ref_laurent_dict(f: ScaledLaurent) -> dict:
    return {"scale": f.scale, "terms": [[e, str(c)] for e, c in f.items()]}


def ref_result_dict(r: ColoredJonesResult) -> dict:
    return {"knot": {"a": r.knot.a, "b": r.knot.b},
            "color": [r.color.m1, r.color.m2],
            "variable": r.variable,
            **ref_laurent_dict(r.value)}


# small coefficients, and ones past 2**64 that no fixed-width int holds
coeffs = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80))

laurents = st.builds(
    ScaledLaurent,
    st.sampled_from([1, 2, 3, 6, 21]),
    st.dictionaries(st.integers(-60, 60), coeffs, max_size=8),
)

EDGE_LAURENTS = [
    ScaledLaurent.zero(),
    ScaledLaurent(1, {7: -3}),                        # one term, negative
    ScaledLaurent(21, {-5: -1, 2: 4, 9: 2**70}),      # negative first
    ScaledLaurent(2, {-1: 2**65 + 1, 3: -(2**64)}),   # above 2**64
    ScaledLaurent(1, {-2: -1, 0: 1, 5: -2**100}),
]


def check_laurent(f: ScaledLaurent) -> None:
    assert "".join(chunks(f.write_text)) == ref_text(f)
    assert "".join(chunks(f.write_json)) == dumps(ref_laurent_dict(f))
    assert f.to_text() == ref_text(f)
    assert f.to_json() == dumps(ref_laurent_dict(f))
    assert f.to_json_dict() == ref_laurent_dict(f)
    assert ScaledLaurent.from_json_dict(json.loads(f.to_json())) == f


@settings(max_examples=300)
@given(laurents)
def test_laurent_renderers_match_reference(f):
    check_laurent(f)


def test_laurent_renderers_edge_cases():
    for f in EDGE_LAURENTS:
        check_laurent(f)
    assert {f.scale for f in EDGE_LAURENTS} == {1, 2, 21}


def test_laurent_renderers_on_invariants():
    for r in (jones_t2b(3, (10, 7)), jones_t2b(51, (6, 9)),
              jones_rosso(TorusKnotSpec(3, 4), (2, 1))):
        check_laurent(r.value)
        check_laurent(r.mirrored().value)


def check_result(r: ColoredJonesResult) -> None:
    assert "".join(chunks(r.write_text)) == ref_text(r.value)
    assert "".join(chunks(r.write_json)) == dumps(ref_result_dict(r))
    assert r.to_text() == ref_text(r.value)
    assert r.to_json() == dumps(ref_result_dict(r))
    assert r.to_json_dict() == ref_result_dict(r)
    # the documented key order survives the direct writer
    assert list(json.loads(r.to_json())) == [
        "knot", "color", "variable", "scale", "terms"]


@settings(max_examples=150)
@given(laurents | st.sampled_from(EDGE_LAURENTS),
       st.sampled_from([(2, 3), (2, 51), (3, 4), (4, 5)]),
       st.tuples(st.integers(0, 40), st.integers(0, 40)),
       st.sampled_from(["q", "qinv"]))
def test_result_renderers_match_reference(value, ab, color, variable):
    check_result(ColoredJonesResult(value, TorusKnotSpec(*ab),
                                    Weight(*color), variable))


def test_result_renderers_on_invariants():
    for r in (jones_t2b(3, (1, 0)), jones_t2b(7, (4, 9)),
              jones_rosso(TorusKnotSpec(3, 5), (1, 2))):
        check_result(r)
        check_result(r.mirrored())


signed_sums = st.dictionaries(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), coeffs, max_size=10,
).map(SignedWeightSum)


@settings(max_examples=150)
@given(signed_sums)
def test_signed_weight_sum_json_matches_reference(s):
    ref = {"terms": [[w.m1, w.m2, c] for w, c in s.items()]}
    assert s.to_json() == dumps(ref)
    assert chunks(s.write_json) == [s.to_json()]
    assert chunks(s.write_text) == [s.to_text()]
    assert SignedWeightSum.from_json_dict(json.loads(s.to_json())) == s


degree_reports = st.builds(
    DegreeReport,
    *([st.integers(-10**6, 10**6)] * 2 + [coeffs] * 2),
    *([st.lists(st.integers(-500, 500), max_size=4).map(tuple)] * 2),
    coeffs, coeffs,
)


REPORT_FIELDS = ("min_deg", "max_deg", "min_coeff", "max_coeff",
                 "min_coeff_exponents", "max_coeff_exponents",
                 "leading", "trailing")


def ref_report_dict(rep: DegreeReport) -> dict:
    fields = {k: getattr(rep, k) for k in REPORT_FIELDS}
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in fields.items()}


@settings(max_examples=100)
@given(degree_reports)
def test_degree_report_json_matches_reference(rep):
    assert rep.to_json() == dumps(ref_report_dict(rep))
    assert chunks(rep.write_json) == [rep.to_json()]
    assert chunks(rep.write_text) == [rep.to_text()]


def test_degree_report_json_on_invariants():
    for r in (jones_t2b(3, (2, 5)), jones_t2b(5, (3, 3)).mirrored()):
        rep = degree_report(r)
        assert rep.to_json() == dumps(ref_report_dict(rep))


# -- chunked writing -------------------------------------------------------


def long_laurent(n: int, scale: int, seed: int) -> ScaledLaurent:
    """n terms, negative at both ends, with small and past-2**64 coefficients.

    The first two exponents are consecutive, so the scale stays as given.
    """
    rng = random.Random(seed)
    e = rng.randrange(-10**4, 10**4)
    terms = {}
    for i in range(n):
        e += 1 if i < 2 else rng.randint(1, 3)
        mag = rng.randint(1, 9) if rng.random() < 0.5 else rng.randint(1, 2**80)
        terms[e] = mag if rng.random() < 0.5 else -mag
    first = next(iter(terms))
    terms[first], terms[e] = -abs(terms[first]), -abs(terms[e])
    return ScaledLaurent(scale, terms)


def check_chunk_bound(text_chunks: list[str], json_chunks: list[str]) -> None:
    # a text term holds one "*q^", a JSON term ends with '"]'
    assert max(c.count("*q^") for c in text_chunks) <= CHUNK_TERMS
    assert max(c.count('"]') for c in json_chunks) <= CHUNK_TERMS


@settings(max_examples=8, deadline=None)
@given(st.builds(long_laurent,
                 st.integers(CHUNK_TERMS - 1, 2 * CHUNK_TERMS + 1),
                 st.sampled_from([2, 3, 6, 21]), st.integers(0, 2**32)))
@example(long_laurent(CHUNK_TERMS, 6, 1))
@example(long_laurent(2 * CHUNK_TERMS, 21, 2))
@example(long_laurent(CHUNK_TERMS + 1, 2, 3))
def test_chunks_across_boundaries_match_reference(f):
    assert f.scale != 1 and f.term_count > CHUNK_TERMS - 2
    text, js = chunks(f.write_text), chunks(f.write_json)
    assert "".join(text) == ref_text(f)
    assert "".join(js) == dumps(ref_laurent_dict(f))
    check_chunk_bound(text, js)
    r = ColoredJonesResult(f, TorusKnotSpec(2, 51), Weight(40, 40), "qinv")
    js = chunks(r.write_json)
    assert "".join(js) == dumps(ref_result_dict(r))
    check_chunk_bound(chunks(r.write_text), js)


def test_zero_polynomial_chunks():
    zero = ScaledLaurent.zero()
    assert "".join(chunks(zero.write_text)) == ref_text(zero) == "0"
    assert ("".join(chunks(zero.write_json)) == dumps(ref_laurent_dict(zero))
            == '{"scale":1,"terms":[]}')
    r = ColoredJonesResult(zero, TorusKnotSpec(2, 3), Weight(0, 0))
    assert "".join(chunks(r.write_json)) == dumps(ref_result_dict(r))


def test_writers_hold_one_chunk_not_the_text():
    # 100,000 terms of about 25 characters: each form is over 2 MiB, and
    # its writer must hold no more than one chunk of it at a time
    value = ScaledLaurent._trusted(
        1, {e: (10**15 + e) * (1 if e % 3 else -1)
            for e in range(-100_000, 100_000, 2)})
    for write_chunks in (value.write_text, value.write_json):
        written = 0

        def sink(chunk):
            nonlocal written
            written += len(chunk)

        tracemalloc.start()
        try:
            write_chunks(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written > 2 * 2**20
        assert peak < 1.5 * 2**20, (write_chunks.__name__, peak)


def test_large_invariant_to_out_stays_small(tmp_path, monkeypatch):
    # b = 51 at (40, 40), 2.6 MiB of JSON: the value is a view over the
    # evaluator's dense list and the output streams in chunks, so the
    # whole command allocates far less than a dict of its 154,288 terms
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    out = tmp_path / "t251.json"
    tracemalloc.start()
    try:
        code = cli.main(["jones", "--b", "51", "--m1", "40", "--m2", "40",
                         "--format", "json", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.stat().st_size > 2 * 2**20
    assert peak < 10 * 2**20, peak

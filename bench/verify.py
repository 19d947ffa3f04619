"""Output checks: reference digests and two invariant properties.

A request passes when its output bytes hash to the stored reference
digest and, if the output is an invariant, it also has scale 1 (integer
exponents) and value 1 at q = 1.  The invariant properties are read from
the output bytes by this module's own parser, not by the library.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# one term of the text form: sign, coefficient, exponent (int or (p/q))
_TEXT_TERM = re.compile(r"(?:^|\s([+-])\s|^(-))(\d+)\*q\^(-?\d+|\(-?\d+/\d+\))")
_JSON_SCALE = re.compile(r'"scale":(\d+)')
_JSON_TERM = re.compile(r'\[-?\d+,"(-?\d+)"\]')


def load_reference(path: str = REFERENCE_PATH) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return json.load(f)["digests"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invariant_problem(data: bytes, fmt: str) -> str | None:
    """Why an invariant output fails scale 1 or eval_one == 1, or None.

    The terms are streamed, so checking holds no parsed copy of the value.
    """
    text = data.decode("utf-8")
    total = count = 0
    if fmt == "json":
        scales = _JSON_SCALE.findall(text)
        if scales != ["1"]:
            return f"scale {scales}, expected 1"
        for m in _JSON_TERM.finditer(text):
            total += int(m.group(1))
            count += 1
        expected = text.count('"]')
    else:
        for sign_mid, sign_first, coeff, exp in (
                m.groups() for m in _TEXT_TERM.finditer(text.strip())):
            if exp.startswith("("):
                return f"fractional exponent {exp}: scale is not 1"
            total += -int(coeff) if "-" in (sign_mid, sign_first) else int(coeff)
            count += 1
        expected = text.count("*q^")
    if count == 0 or count != expected:
        return "the output does not parse as terms"
    if total != 1:
        return f"value at q = 1 is {total}, expected 1"
    return None


def check(key: str, data: bytes, invariant: str | None,
          reference: dict[str, str]) -> str | None:
    """Why an output fails its checks, or None when it passes."""
    want = reference.get(key)
    if want is None:
        return "no reference digest"
    if digest(data) != want:
        return "output differs from the reference"
    if invariant is not None:
        return invariant_problem(data, invariant)
    return None


def corrupt_one_coefficient(data: bytes, fmt: str) -> bytes:
    """Add 1 to the first coefficient of an invariant output."""
    text = data.decode("utf-8")
    if fmt == "json":
        m = re.search(r'\[-?\d+,"(-?\d+)"\]', text)
    else:
        m = re.search(r"(\d+)\*q\^", text)
    if m is None:
        raise ValueError("no coefficient to corrupt")
    bumped = str(int(m.group(1)) + 1)
    return (text[:m.start(1)] + bumped + text[m.end(1):]).encode("utf-8")

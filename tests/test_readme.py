"""The README's examples run, and its documented names are the exports.

sl3jones.__all__ is the API the README documents: every exported name
appears in backticks there, and every backticked name that the package
defines is exported, so the two lists cannot drift apart.
"""

import doctest
import inspect
import re
from pathlib import Path

import sl3jones

README = Path(__file__).resolve().parent.parent / "README.md"

# the names the benchmark harness looks up on the package itself
BENCH_NAMES = {"psi_oracle", "jones_rosso", "verify_lemma_LR",
               "verify_lemma_psi2_recurrence", "TorusKnotSpec"}


def _backticked() -> set[str]:
    """The leading identifier of every inline code span of the README."""
    text = README.read_text(encoding="utf-8")
    return set(re.findall(r"`([A-Za-z_]\w*)[^`\n]*`", text))


def test_readme_examples_pass():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert failed == 0 and attempted >= 5


def test_every_export_is_documented():
    exported = set(sl3jones.__all__) - {"__version__"}
    assert not exported - _backticked()


def test_every_documented_package_name_is_exported():
    names = {n for n in _backticked() if not n.startswith("_")
             and hasattr(sl3jones, n)
             and not inspect.ismodule(getattr(sl3jones, n))}
    assert names <= set(sl3jones.__all__)


def test_benchmark_names_are_exported():
    assert BENCH_NAMES <= set(sl3jones.__all__)

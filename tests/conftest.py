"""Shared fixtures."""

import pytest

from sl3jones import schur3


# the memo itself, kept at import: a test that patches the name with
# monkeypatch may still have it patched when the fixture is torn down
_ADAMS_MEMO = schur3._adams_decomposed


def clear_schur3_memos():
    """Empty the schur3 memo of Adams images; characters are not kept."""
    _ADAMS_MEMO.cache_clear()


@pytest.fixture
def cold_schur3_memos():
    """The schur3 memo of Adams images empty at the start and the end.

    Every test that patches a schur3 function takes this fixture: a warm
    entry built by the real function would hide the patch, and an entry
    built by the patch would outlive it.
    """
    clear_schur3_memos()
    yield
    clear_schur3_memos()

"""Shared fixtures."""

import pytest

from sl3jones import schur3


def clear_schur3_memos():
    """Empty the schur3 memo of Adams images; characters are not kept."""
    schur3._adams_decomposed.cache_clear()


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

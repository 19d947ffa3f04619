"""Shared fixtures."""

import pytest

from sl3jones import schur3


def clear_schur3_memos():
    """Empty both schur3 memos: the characters and the Adams images."""
    schur3._schur_cached.cache_clear()
    schur3._adams_decomposed.cache_clear()


@pytest.fixture
def cold_schur3_memos():
    """Both schur3 memos empty when the test starts, and again after it.

    Every test that patches a schur3 function takes this fixture: a warm
    entry built by the real function would hide the patch, and an entry
    built by the patch would outlive it.
    """
    clear_schur3_memos()
    yield
    clear_schur3_memos()

"""Fixtures shared by the test modules."""

import pytest

from fibtower import modfib


@pytest.fixture
def cold_links(monkeypatch):
    """An empty certified-period cache for one test; the process cache is
    restored. The caches of F_n's primitive parts and of factorize_fib's
    results are emptied too: a warm part or a warm F_n would skip the
    certification of its primes' periods."""
    links = {}
    monkeypatch.setattr(modfib, "_period_cache", links)
    monkeypatch.setattr(modfib, "_fib_parts", {})
    monkeypatch.setattr(modfib, "_fib_factor_cache", {})
    return links


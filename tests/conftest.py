"""Fixtures shared by the test modules."""

import pytest

from fibtower import modfib


@pytest.fixture
def cold_links(monkeypatch):
    """An empty certified-period cache for one test; the process cache is
    restored. The cache of F_n's primitive parts is emptied too: a warm
    part would skip the certification of its primes' periods."""
    links = {}
    monkeypatch.setattr(modfib, "_period_cache", links)
    monkeypatch.setattr(modfib, "_fib_parts", {})
    return links

"""Fixtures shared by the test modules."""

import pytest

from fibtower import modfib


@pytest.fixture
def cold_links(monkeypatch):
    """An empty certified-period cache for one test; the process cache is
    restored."""
    links = {}
    monkeypatch.setattr(modfib, "_period_cache", links)
    return links

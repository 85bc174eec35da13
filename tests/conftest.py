"""Fixtures shared by the test modules."""

import pytest

from fibtower import modfib


@pytest.fixture
def cold_links(monkeypatch):
    """An empty certified-period cache, with no proved (part, period) pairs,
    for one test; the process cache and pairs are restored."""
    links = {}
    monkeypatch.setattr(modfib, "_period_cache", links)
    monkeypatch.setattr(modfib, "_proved_periods", set())
    return links

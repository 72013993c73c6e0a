import pytest

from loopbv import spectral


@pytest.fixture
def rebind(monkeypatch):
    """``rebind(module, name, value)`` sets ``bv.delta`` or
    ``series.total_series`` through ``monkeypatch`` and clears the period
    table, whose entries hold the pages and the certificate of the pair bound
    when they were filled; the table is cleared again at teardown, so no
    entry filled under a rebinding outlives the test."""

    def rebind_(module, name, value):
        monkeypatch.setattr(module, name, value)
        spectral._period_table.cache_clear()

    yield rebind_
    monkeypatch.undo()
    spectral._period_table.cache_clear()

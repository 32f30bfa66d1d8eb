import pytest

from mutperm.linalg import SpanReducer


@pytest.fixture
def count_inserts(monkeypatch):
    """A list that gets the result of every SpanReducer.insert call."""
    calls = []
    insert = SpanReducer.insert

    def counting(self, v):
        calls.append(insert(self, v))
        return calls[-1]

    monkeypatch.setattr(SpanReducer, "insert", counting)
    return calls

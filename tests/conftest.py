import pytest

from mutperm.linalg import SpanReducer, _cancel, _primitive


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


def reduced_rows(reducer):
    """The primitive integer rows of a SpanReducer in pivot order,
    back-substituted so each is positive at its pivot (its first column)
    and 0 at the others."""
    reduced = {}
    for c in sorted(reducer.pivot_rows, reverse=True):
        row = dict(reducer.pivot_rows[c])
        for d in reversed(reduced):
            if d in row:
                _cancel(row, d, reduced[d], [])
        reduced[c] = _primitive(row)
    return list(reversed(reduced.values()))

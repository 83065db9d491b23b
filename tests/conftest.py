import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def joins(monkeypatch):
    """The entry count over both factors of each `_ProductRun.join` made during the test."""
    from scrollres.resolution import _ProductRun

    sizes = []
    real_join = _ProductRun.join

    def join(run, rows, cols, terms):
        sizes.append(sum(len(a.entries) + len(b.entries) for a, b in terms))
        return real_join(run, rows, cols, terms)

    monkeypatch.setattr(_ProductRun, "join", join)
    return sizes

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def bracket_calls(monkeypatch):
    """A list that grows by one entry (X, Y) per poisson.bracket call, made
    from any superpoisson module, while the test runs."""
    from superpoisson import cli, poisson  # noqa: F401 (loads every module)
    original = poisson.bracket
    calls = []

    def counting(X, Y):
        calls.append((X, Y))
        return original(X, Y)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "superpoisson"
                and getattr(module, "bracket", None) is original):
            monkeypatch.setattr(module, "bracket", counting)
    return calls


@pytest.fixture
def derivative_terms(monkeypatch):
    """A list that grows by one entry per left_gradient pass, the number of
    derivative terms that pass builds, while the test runs.
    SuperPoly.gradient takes every pass the engine makes."""
    from superpoisson import superpoly
    original = superpoly.left_gradient
    counts = []

    def counting(P, wanted=None):
        grad = original(P, wanted)
        counts.append(sum(len(d) for d in grad.values()))
        return grad

    monkeypatch.setattr(superpoly, "left_gradient", counting)
    return counts

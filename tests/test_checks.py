"""Each input is checked once, where it enters: the public names check their
raw arguments and the private helpers trust them.  These pins count the
argument checks of ``tfqkd.errors`` on two public calls; a change that moves
a count updates its pin."""

import sys

import pytest

from tfqkd import errors
from tfqkd.channel import ProtocolParams
from tfqkd.infotheory import capacity
from tfqkd.optimizer import optimize_point

CHECKS = ("_check_count", "_check_epsilon", "_check_positive", "_check_widths")


@pytest.fixture
def check_calls(monkeypatch):
    """Calls per check, counted in every ``tfqkd`` module that imports it."""
    calls = dict.fromkeys(CHECKS, 0)
    modules = [module for name, module in sys.modules.items() if name.startswith("tfqkd")]
    for name in CHECKS:
        real = getattr(errors, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_optimize_point_checks(check_calls):
    # c_surface: m, epsilon, both axes, accuracy; minimize_beta: m, alpha,
    # the beta axis; the report: ProtocolParams and capacity's accuracy.
    # The refined rows and the golden steps inside the axes check nothing.
    optimize_point(16, 0.5)
    assert check_calls == {"_check_count": 3, "_check_epsilon": 2, "_check_positive": 2,
                           "_check_widths": 6}


def test_capacity_checks(check_calls):
    # ProtocolParams checks m, both widths and epsilon, capacity its accuracy
    capacity(ProtocolParams(16, 0.5, 0.7, 0.5))
    assert check_calls == {"_check_count": 1, "_check_epsilon": 1, "_check_positive": 1,
                           "_check_widths": 2}


import pytest

from resistive_walk import resistance
from resistive_walk.generate import LongRangeParams, fixture, generate_long_range


@pytest.fixture(scope="session")
def line64():
    return fixture("line", 64)


@pytest.fixture(scope="session")
def lrp128():
    return generate_long_range(LongRangeParams(128, 1.0, 3.5, seed=7))


MINI_CONFIG = """\
name = mini
model = lrp
half_width = 128
beta = 1.0
tail_exponent = 3.5
ensemble = 4
master_seed = 99
metric = line
radius_grid = 4,8,16
time_grid = 8,16,32
goodscale_radii = 4,8,16
tolerance_grid = 2,4,8
theta_grid = 2,4
theta_star = 4
n_trajectories = 32
mc_exit_radii = 4
"""


@pytest.fixture(scope="session")
def mini_config_text():
    return MINI_CONFIG


class _ScaledLU:
    """A factorization whose solves after the first `exact` come back scaled by `scale`."""

    def __init__(self, lu, scale, exact):
        self._lu = lu
        self._scale = scale
        self._exact = exact

    def solve(self, rhs):
        if self._exact:
            self._exact -= 1
            return self._lu.solve(rhs)
        return self._scale * self._lu.solve(rhs)


def _scale_solves(monkeypatch, scale, exact=0):
    real = resistance.splu
    monkeypatch.setattr(resistance, "splu", lambda a: _ScaledLU(real(a), scale, exact))


@pytest.fixture()
def wrong_solves(monkeypatch):
    """Make every sparse LU solve in `resistance` 50% off: one refinement step cannot mend it."""
    _scale_solves(monkeypatch, 1.5)


@pytest.fixture()
def inexact_solves(monkeypatch):
    """Make every sparse LU solve in `resistance` 1e-6 off: one refinement step mends it."""
    _scale_solves(monkeypatch, 1 + 1e-6)


@pytest.fixture()
def late_wrong_solves(monkeypatch):
    """Like `wrong_solves`, but the first two solves with each factor are exact."""
    _scale_solves(monkeypatch, 1.5, exact=2)


@pytest.fixture()
def scaled_solves(monkeypatch):
    """Call with (scale, exact): after the first `exact` solves with each factor, scale them."""
    return lambda scale, exact=0: _scale_solves(monkeypatch, scale, exact)

import pytest

from atompair import (
    DriveDecayParams,
    build_liouvillian,
    hg_level_scheme,
    standard_geometry,
    steady_state_numeric,
)

# the same random draws as the validate suite: g log-uniform over
# [0.01, 100] Gamma with random branching, and random transverse detectors
from atompair.validation import _random_detector as random_transverse_detector  # noqa: F401
from atompair.validation import _random_params as random_params  # noqa: F401


@pytest.fixture
def params():
    return DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)


@pytest.fixture
def scheme(params):
    return hg_level_scheme(params)


@pytest.fixture
def rho(scheme, params):
    return steady_state_numeric(build_liouvillian(scheme, params))


@pytest.fixture
def geometry():
    return standard_geometry(0.5)

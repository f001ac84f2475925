import sys

import pytest

from atompair import (
    DriveDecayParams,
    build_liouvillian,
    correlations,
    hg_level_scheme,
    standard_geometry,
    steady_state_numeric,
    validation,
)

# the same random draws as the validate suite: g log-uniform over
# [0.01, 100] Gamma with random branching, and random transverse detectors
from atompair.validation import _random_params as random_params  # noqa: F401
from reference import random_transverse_detector  # noqa: F401


def patch_aliases(monkeypatch, target, replacement):
    """Rebind every name that refers to ``target`` in the loaded atompair modules to
    ``replacement``; returns the (module, name) pairs it rebound."""
    aliases = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name == "atompair" or module_name.startswith("atompair.")
        for name, value in vars(module).items()
        if value is target
    ]
    for module, name in aliases:
        monkeypatch.setattr(module, name, replacement)
    return aliases


def count_solves(monkeypatch):
    """Count the null-space solves made from here on; returns the growing list of calls."""
    solve, calls = steady_state_numeric, []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    patch_aliases(monkeypatch, solve, counted)
    return calls


def substitute_rejected_formula(monkeypatch):
    """Make every validation check that reads the closed-form steady state read the rejected
    ground populations of ``validation._with_rejected_populations`` instead.

    The fake is built on the closed form captured before patching; going through the patched
    name would recurse.
    """
    closed_form = validation.steady_state_analytic

    def rejected(params):
        return validation._with_rejected_populations(closed_form(params), params)

    monkeypatch.setattr(validation, "steady_state_analytic", rejected)


@pytest.fixture(autouse=True)
def _fresh_steady_state_memo():
    """Start every test with no memoized steady state, so a test that patches the solver
    cannot read a state solved by an earlier test on a module-level scheme."""
    correlations._steady_state.cache_clear()


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

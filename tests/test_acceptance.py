"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each criterion runs the ``atompair.validation`` group function(s) that
``atompair validate`` runs, with its own seed or configuration, and asserts
that every check it covers passed; the invariants and their tolerances are
defined once, in the groups.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one summary line per criterion, built from the check details.
"""

import time

import numpy as np

from atompair import standard_geometry
from atompair.config import RunConfig
from atompair.validation import (
    _g2_modulation_group,
    _monte_carlo_group,
    _normalized_group,
    _oracle_group,
    _steady_state_group,
    _superposition_group,
    _trace_group,
    _visibility_group,
    _witness_group,
)

GEOMETRY = standard_geometry(0.5)


def accept(n, group, names=None, note=""):
    """Assert that the named checks (default: all) of a group passed; print their details."""
    checks = {c.name: c for c in group.checks}
    names = names or list(checks)
    for name in names:
        assert checks[name].passed, f"{group.name}.{name}: {checks[name].detail}"
    details = "; ".join(checks[name].detail for name in names)
    print(f"ACCEPTANCE {n:>2} PASS: {details}{note}")


def timed(group_fn, *args):
    start = time.perf_counter()
    group = group_fn(*args)
    return group, time.perf_counter() - start


def test_criterion_01_steady_state_agreement():
    # g log-uniform in [0.01, 100] Gamma; the closed form has no cross coherences
    group, elapsed = timed(_steady_state_group, np.random.default_rng(1), False)
    assert elapsed < 1.0
    accept(1, group, note=f"; {elapsed:.2f}s < 1s")


def test_criterion_02_trace_typo_detection():
    assert not _trace_group(inject=True).passed
    accept(2, _trace_group(inject=False), note="; the injected bug fails the group")


def test_criterion_03_intensity_visibility():
    accept(3, _visibility_group(GEOMETRY), ["pi_matches_closed_form", "sigma_flat"])


def test_criterion_04_two_level_limit():
    accept(4, _visibility_group(GEOMETRY), ["two_level_limit"])


def test_criterion_05_g2_full_contrast_drive_independent():
    accept(5, _g2_modulation_group(GEOMETRY))


def test_criterion_06_oracle_equivalence():
    group, elapsed = timed(_oracle_group, np.random.default_rng(6), GEOMETRY)
    assert elapsed < 30.0
    accept(6, group, note=f"; {elapsed:.1f}s < 30s")


def test_criterion_07_normalized_correlation():
    accept(7, _normalized_group(GEOMETRY))


def test_criterion_08_nonclassicality_witness():
    accept(8, _witness_group(GEOMETRY))


def test_criterion_09_monte_carlo_consistency():
    config = RunConfig(g=1.0, gamma0=0.5, gamma=0.5, n_traj=2000, t_total=200.0, seed=20260809)
    group, elapsed = timed(_monte_carlo_group, config)
    assert elapsed < 120.0
    accept(9, group, note=f"; both runs in {elapsed:.1f}s < 120s")


def test_criterion_10_superposition_contrast():
    accept(10, _superposition_group(GEOMETRY))

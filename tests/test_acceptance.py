"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each criterion runs the ``atompair.validation`` group function(s) that
``atompair validate`` runs, with its own seed or configuration, and asserts
that every check it covers passed; the invariants and their tolerances are
defined once, in the groups.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one summary line per criterion, built from the check details.
"""

import math
import re
import time

import numpy as np
import pytest

from atompair import correlations, exact_oracle, farfield, standard_geometry
from atompair.config import RunConfig
from atompair.validation import (
    Group,
    _g2_modulation_group,
    _monte_carlo_group,
    _normalized_group,
    _oracle_group,
    _steady_state_group,
    _superposition_group,
    _trace_group,
    _visibility_group,
    _witness_group,
    run_validation,
)

from conftest import count_solves, patch_aliases, substitute_rejected_formula

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
    group, elapsed = timed(_steady_state_group, np.random.default_rng(1))
    assert elapsed < 1.0
    accept(1, group, note=f"; {elapsed:.2f}s < 1s")


def test_criterion_02_trace_typo_detection(monkeypatch):
    group = _trace_group()
    substitute_rejected_formula(monkeypatch)
    assert not _trace_group().passed
    assert not _steady_state_group(np.random.default_rng(1)).passed
    accept(2, group, note="; the injected bug fails the group")


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


def _check_results(group):
    return {c.name: c.passed for c in group.checks}


def test_oracle_group_catches_a_perturbed_factorized_phase(monkeypatch):
    phase = correlations._fringe_phase

    def perturbed(*args, **kwargs):
        return phase(*args, **kwargs) * (1.0 + 1e-6)

    assert (correlations, "_fringe_phase") in patch_aliases(monkeypatch, phase, perturbed)
    results = _check_results(_oracle_group(np.random.default_rng(6), GEOMETRY))
    assert results == {"factorized_matches_exact": False, "conditioned_state_identity": True}


def test_oracle_group_catches_a_perturbed_conditioned_route(monkeypatch):
    kernel = exact_oracle._conditioned

    def perturbed(*args, **kwargs):
        states, rates = kernel(*args, **kwargs)
        return states * (1.0 + 1e-6), rates

    assert (exact_oracle, "_conditioned") in patch_aliases(monkeypatch, kernel, perturbed)
    results = _check_results(_oracle_group(np.random.default_rng(6), GEOMETRY))
    assert results == {"factorized_matches_exact": True, "conditioned_state_identity": False}


def test_superposition_group_catches_a_perturbed_scan_oracle(monkeypatch):
    kernel = exact_oracle._g2_exact_scan

    def perturbed(scheme, geometry, det_1, n_2, epsilon_2, rho_ab):
        # shifting every n_2 by half a wavelength over the separation flips the sign of the
        # cross term 2 Re(phi_A conj(phi_B) Q_AB) and keeps Q_AA + Q_BB, so the difference of
        # the two columns is twice the cross term
        s = geometry.separation
        flipped = kernel(scheme, geometry, det_1, n_2 + 0.5 * s / (s @ s), epsilon_2, rho_ab)
        values = kernel(scheme, geometry, det_1, n_2, epsilon_2, rho_ab)
        return values + 0.5e-6 * (values - flipped)

    assert (exact_oracle, "_g2_exact_scan") in patch_aliases(monkeypatch, kernel, perturbed)
    results = _check_results(_superposition_group(GEOMETRY))
    assert results == {"fringe_amplitude_tracks_dipole": True, "excited_pair_contrast": False}


def test_oracle_and_normalized_groups_make_no_per_point_calls(monkeypatch):
    # the oracle group builds the two field stacks of each of its 5 parameter sets once and
    # evaluates all 50 pairs of a set in one call, and the normalized group its 72 closed-form
    # points as one array
    calls = {}

    def counting(target):
        def counted(*args, **kwargs):
            calls[target.__name__] = calls.get(target.__name__, 0) + 1
            return target(*args, **kwargs)

        return counted

    per_point = (
        exact_oracle.g2_exact,
        exact_oracle.conditioned_state,
        exact_oracle.intensity_exact,
        correlations.g2_factorized,
        correlations.g2_normalized_closed_form,
    )
    stacked = (
        exact_oracle._coincidences,
        exact_oracle._fields,
        correlations._g2_normalized_closed_form,
    )
    for target in per_point + stacked:
        patch_aliases(monkeypatch, target, counting(target))
    assert _oracle_group(np.random.default_rng(6), GEOMETRY).passed
    assert _normalized_group(GEOMETRY).passed
    assert calls == {"_coincidences": 5, "_fields": 5 * 2, "_g2_normalized_closed_form": 1}


def test_criterion_07_normalized_correlation():
    accept(7, _normalized_group(GEOMETRY))


def test_normalized_group_solves_once(monkeypatch):
    # g2(1,1) comes from the state the group already solved, not from a second solve
    calls = count_solves(monkeypatch)
    assert _normalized_group(GEOMETRY).passed
    assert len(calls) == 1


def test_validate_never_reaches_the_operator_route(monkeypatch):
    # every check has an independent route of its own; the field-operator route is a test reference
    def refuse(*args, **kwargs):
        raise AssertionError("validate called the operator route")

    for target in (farfield.field_operator, farfield.mean_field, farfield.g1, farfield.intensity):
        assert (farfield, target.__name__) in patch_aliases(monkeypatch, target, refuse)
    assert run_validation(RunConfig(n_traj=60, t_total=20)).passed


def test_validate_passes_whatever_the_config_geometry():
    # the groups run at the geometry their fringe grids assume, not at the config's
    config = RunConfig(separation_wavelengths=0.8, drive_direction=(0.3, 0.5, 0.2), n_traj=60, t_total=20)
    assert run_validation(config).passed


def test_criterion_08_nonclassicality_witness():
    accept(8, _witness_group(GEOMETRY))


def test_criterion_09_monte_carlo_consistency():
    config = RunConfig(g=1.0, gamma0=0.5, gamma=0.5, n_traj=2000, t_total=200.0, seed=20260809)
    group, elapsed = timed(_monte_carlo_group, config)
    assert elapsed < 120.0
    accept(9, group, note=f"; both runs in {elapsed:.1f}s < 120s")


def test_monte_carlo_group_names_a_degenerate_stationary_state():
    # without sigma decay the two driven pi pairs never exchange population: the Monte Carlo
    # stays in the pair it starts in, and a pull against one member of the stationary family
    # would divide by a zero standard error
    config = RunConfig(g=1.0, gamma0=1.0, gamma=0.0, n_traj=50, t_total=20.0)
    check = {c.name: c for c in _monte_carlo_group(config).checks}["populations_within_3_sigma"]
    assert not check.passed
    assert "not unique" in check.detail
    assert "never leaves the pi pair it starts in" in check.detail
    assert max(map(len, re.findall(r"[0-9][0-9.e+-]*", check.detail))) <= 20


def test_monte_carlo_group_names_the_weak_drive_limit():
    # at g = 1e-5 with sigma decay the stationary state is unique, but the optical-pumping gap is
    # below the null-space solver's threshold: the detail must say so and blame neither g = 0 nor
    # missing decay for the Monte Carlo
    config = RunConfig(g=1e-5, n_traj=20, t_total=20.0)
    check = {c.name: c for c in _monte_carlo_group(config).checks}["populations_within_3_sigma"]
    assert not check.passed
    assert "not unique" in check.detail and "optical-pumping gap" in check.detail
    assert "weak-drive limit" in check.detail
    assert "never leaves the pi pair" not in check.detail
    # undriven, the state is degenerate and each trajectory stays in the level it starts in
    undriven = RunConfig(g=0.0, n_traj=20, t_total=20.0)
    check = {c.name: c for c in _monte_carlo_group(undriven).checks}["populations_within_3_sigma"]
    assert not check.passed and "never leaves the pi pair it starts in" in check.detail
    assert "weak-drive limit" not in check.detail


def test_monte_carlo_group_says_when_no_trajectory_jumps():
    # at g = 0.001 no trajectory jumps within 20/Gamma, so every population has zero spread
    weak = RunConfig(g=0.001, n_traj=20, t_total=20.0)
    check = {c.name: c for c in _monte_carlo_group(weak).checks}["populations_within_3_sigma"]
    assert not check.passed
    assert check.detail.startswith("max |population pull| = inf standard errors")
    assert check.detail.endswith("; no trajectory jumped, so t_total is too short at this drive")
    driven = RunConfig(n_traj=20, t_total=20.0)
    check = {c.name: c for c in _monte_carlo_group(driven).checks}["populations_within_3_sigma"]
    assert "no trajectory jumped" not in check.detail
    assert "one trajectory" not in check.detail


def test_monte_carlo_group_fails_with_one_trajectory():
    # one trajectory has no spread across trajectories, so its standard errors are infinite and
    # the pull is undefined: the check must fail, not read a pull of 0
    lone = RunConfig(n_traj=1, t_total=20.0)
    check = {c.name: c for c in _monte_carlo_group(lone).checks}["populations_within_3_sigma"]
    assert not check.passed
    assert check.detail.startswith("max |population pull| = nan standard errors")
    assert check.detail.endswith("; one trajectory gives no standard error")


def test_criterion_10_superposition_contrast():
    accept(10, _superposition_group(GEOMETRY))


def test_failing_fringe_check_reports_the_bound_it_misses():
    # At separation 0.8 the 360-point scan holds no fringe extremum, so the oracle amplitude at
    # the scan's brightest and darkest directions falls short of 2|c_e c_g|^2 and the check
    # fails; its detail must then show a difference above its tolerance
    group = _superposition_group(standard_geometry(0.8))
    check = {c.name: c for c in group.checks}["fringe_amplitude_tracks_dipole"]
    assert not check.passed
    bounds = re.findall(r"= (\S+) \(tol (\S+)\)", check.detail)
    assert len(bounds) == 2
    assert any(float(value) > float(tol) for value, tol in bounds)


@pytest.mark.parametrize(
    "tol, text", [(1e-9, "1e-9"), (1e-10, "1e-10"), (1e-12, "1e-12"), (1e-14, "1e-14")]
)
def test_bound_states_its_tolerance_as_written(tol, text):
    group = Group("bounds")
    group.bound("below", 0.5 * tol, tol, "|x|", " over 3 draws")
    group.bound("equal", tol, tol, "|x|")
    group.bound("nan", math.nan, tol, "|x|")
    below, equal, nan = group.checks
    assert below.detail == f"|x| = {0.5 * tol:.3e} over 3 draws (tol {text})"
    assert equal.detail == f"|x| = {tol:.3e} (tol {text})"
    # a bound passes only strictly below its tolerance; nan never passes
    assert below.passed and not equal.passed and not nan.passed

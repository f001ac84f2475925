import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.optimize import brentq

from atompair import (
    DegenerateSteadyStateError,
    DriveDecayParams,
    build_liouvillian,
    hg_level_scheme,
    liouvillian_residual,
    pure_state,
    quantum_jump_estimate,
    steady_state_analytic,
    steady_state_numeric,
    two_level_scheme,
    two_level_steady_state_analytic,
)
from atompair.dynamics import drive_hamiltonian, unvectorize, vectorize
from atompair.validation import _rejected_steady_state

from conftest import random_params
from reference import check_density_matrix, propagate


def reference_rhs(rho, g, gamma0, gamma):
    """The density-matrix equation set written out line by line.

    Independent of the superoperator construction: every coefficient is
    typed in explicitly, upper triangle plus diagonal, with the lower
    triangle generated by conjugation.
    """
    G = gamma0 + gamma
    r = rho
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0] = 1j * g * r[1, 0] - 1j * g * r[0, 1] - 2 * G * r[0, 0]
    d[0, 1] = 1j * g * r[1, 1] - 1j * g * r[0, 0] - G * r[0, 1]
    d[0, 2] = 1j * g * r[1, 2] + 1j * g * r[0, 3] - 2 * G * r[0, 2]
    d[0, 3] = 1j * g * r[1, 3] + 1j * g * r[0, 2] - G * r[0, 3]
    d[1, 1] = -1j * g * r[1, 0] + 1j * g * r[0, 1] + 2 * gamma0 * r[0, 0] + 2 * gamma * r[2, 2]
    d[1, 2] = 1j * g * r[0, 2] + 1j * g * r[1, 3] - G * r[1, 2]
    d[1, 3] = 1j * g * r[0, 3] + 1j * g * r[1, 2]
    d[2, 2] = -1j * g * r[3, 2] + 1j * g * r[2, 3] - 2 * G * r[2, 2]
    d[2, 3] = -1j * g * r[3, 3] + 1j * g * r[2, 2] - G * r[2, 3]
    d[3, 3] = -1j * g * r[2, 3] + 1j * g * r[3, 2] + 2 * gamma0 * r[2, 2] + 2 * gamma * r[0, 0]
    for i in range(4):
        for j in range(i + 1, 4):
            d[j, i] = np.conj(d[i, j])
    return d


class TestPureState:
    def test_any_scale(self):
        unit = pure_state([1.0, 0.0])
        for scale in (1e200, 1e-200):
            assert np.array_equal(pure_state([scale, 0.0]), unit)
        with pytest.raises(ValueError, match="zero state vector"):
            pure_state([0.0, 0.0])


class TestLiouvillian:
    def test_matches_reference_equations(self, scheme, params):
        liou = build_liouvillian(scheme, params)
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m + m.conj().T
            expected = reference_rhs(rho, params.g, params.gamma0, params.gamma)
            got = unvectorize(liou @ vectorize(rho), 4)
            assert_allclose(got, expected, atol=1e-13)

    def test_population_decay_coefficient(self, scheme, params):
        # coefficient of rho11 in d rho11/dt is -2(gamma0 + gamma)
        liou = build_liouvillian(scheme, params)
        idx = 0 + 4 * 0
        assert_allclose(liou[idx, idx], -2 * params.total, atol=1e-15)

    def test_trace_preserving(self, scheme, params):
        liou = build_liouvillian(scheme, params)
        trace_functional = vectorize(np.eye(4))
        assert np.max(np.abs(trace_functional @ liou)) < 1e-12

    def test_undriven_blocks_decouple(self):
        p = DriveDecayParams(g=0.0, gamma0=0.4, gamma=0.6)
        liou = build_liouvillian(hg_level_scheme(p), p)
        pops = [i + 4 * i for i in range(4)]
        coherences = [i + 4 * j for i in range(4) for j in range(4) if i != j]
        assert np.max(np.abs(liou[np.ix_(pops, coherences)])) == 0.0
        assert np.max(np.abs(liou[np.ix_(coherences, pops)])) == 0.0

    def test_analytic_state_is_stationary(self, scheme, params):
        liou = build_liouvillian(scheme, params)
        assert liouvillian_residual(liou, steady_state_analytic(params)) < 1e-12

    def test_analytic_residual_random_params(self):
        # scale-free residual: normalize the generator so the largest rate is 1
        rng = np.random.default_rng(2026)
        for _ in range(20):
            p = random_params(rng)
            liou = build_liouvillian(hg_level_scheme(p), p)
            scale = max(p.g, p.total, 1.0)
            assert liouvillian_residual(liou / scale, steady_state_analytic(p)) < 1e-12


class TestSteadyState:
    def test_reference_point(self, scheme, params):
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        assert_allclose(rho[0, 0], 1 / 6, atol=1e-12)
        assert_allclose(rho[2, 2], 1 / 6, atol=1e-12)
        assert_allclose(rho[0, 1], 1j / 6, atol=1e-12)
        assert_allclose(rho[2, 3], -1j / 6, atol=1e-12)
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert abs(rho[i, j]) < 1e-12

    def test_corrected_populations(self, params):
        rho = steady_state_analytic(params)
        assert_allclose(rho[1, 1], 1 / 3, atol=1e-15)
        assert_allclose(rho.trace(), 1.0, atol=1e-15)

    def test_discarded_variant_violates_trace(self):
        # the rejected closed-form candidate for rho22: trace -> 3 at g -> 0
        p = DriveDecayParams(g=1e-8, gamma0=0.5, gamma=0.5)
        assert abs(_rejected_steady_state(p).trace() - 3.0) < 1e-9
        p1 = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
        assert abs(_rejected_steady_state(p1).trace() - 5 / 3) < 1e-12

    def test_numeric_matches_analytic_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_params(rng)
            liou = build_liouvillian(hg_level_scheme(p), p)
            numeric = steady_state_numeric(liou)
            assert np.max(np.abs(numeric - steady_state_analytic(p))) < 1e-10
            assert liouvillian_residual(liou, numeric) < 1e-11

    def test_strong_drive_limit(self):
        p = DriveDecayParams(g=1e4, gamma0=0.5, gamma=0.5)
        rho = steady_state_analytic(p)
        assert_allclose(np.diag(rho).real, [0.25] * 4, atol=1e-7)
        assert abs(rho[0, 1]) < 1e-4

    def test_symmetry_structure(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = random_params(rng)
            rho = steady_state_numeric(build_liouvillian(hg_level_scheme(p), p))
            assert abs(rho[0, 0] - rho[2, 2]) < 1e-12
            assert abs(rho[1, 1] - rho[3, 3]) < 1e-12
            assert abs(rho[0, 1] + rho[2, 3]) < 1e-12

    def test_degenerate_at_zero_drive(self):
        p = DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5)
        with pytest.raises(DegenerateSteadyStateError, match="not unique"):
            steady_state_numeric(build_liouvillian(hg_level_scheme(p), p))

    def test_analytic_rejects_zero_drive(self):
        with pytest.raises(ValueError):
            steady_state_analytic(DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5))

    def test_two_level_closed_form(self):
        p = DriveDecayParams(g=0.7, gamma0=0.0, gamma=1.3)
        numeric = steady_state_numeric(build_liouvillian(two_level_scheme(p.total), p))
        assert np.max(np.abs(numeric - two_level_steady_state_analytic(p))) < 1e-12


class TestEvolve:
    def test_branching_ratio(self):
        # undriven decay from the first excited level splits pi : sigma
        p = DriveDecayParams(g=0.0, gamma0=0.3, gamma=0.7)
        liou = build_liouvillian(hg_level_scheme(p), p)
        rho0 = np.zeros((4, 4), complex)
        rho0[0, 0] = 1.0
        rho = propagate(liou, rho0, 30.0)
        assert_allclose(rho[1, 1].real, 0.3, atol=1e-9)
        assert_allclose(rho[3, 3].real, 0.7, atol=1e-9)

    def test_steady_state_is_fixed_point(self, scheme, params):
        liou = build_liouvillian(scheme, params)
        rho = steady_state_analytic(params)
        out = propagate(liou, rho, 5.0)
        assert np.max(np.abs(out - rho)) < 1e-9

    def test_long_time_limit(self, scheme, params):
        liou = build_liouvillian(scheme, params)
        rho0 = np.zeros((4, 4), complex)
        rho0[1, 1] = 1.0
        rho = propagate(liou, rho0, 50.0)
        assert np.max(np.abs(rho - steady_state_analytic(params))) < 1e-8

    def test_conservation_laws_along_trajectory(self, scheme, params):
        liou = build_liouvillian(scheme, params)
        rho = pure_state([0.0, 1.0, 0.0, 0.0])
        for _ in range(10):
            rho = propagate(liou, rho, 10.0)
            assert abs(rho.trace() - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-7


class TestCheckDensityMatrix:
    def test_accepts_valid(self):
        check_density_matrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4, dtype=complex))


class TestQuantumJump:
    def test_matches_closed_form(self, scheme, params):
        res = quantum_jump_estimate(scheme, params, n_traj=300, t_total=60.0, seed=99)
        exact = steady_state_analytic(params)
        for i in range(4):
            assert abs(res.rho[i, i].real - exact[i, i].real) <= 3.0 * res.stderr[i, i]
        assert abs(res.rho[0, 1] - exact[0, 1]) <= 4.0 * res.stderr[0, 1]

    def test_weak_drive(self):
        # rho11 -> g^2/(2 Gamma^2) to leading order; the ground manifold
        # equilibrates slowly at weak drive, hence the long horizon
        p = DriveDecayParams(g=0.1, gamma0=0.5, gamma=0.5)
        res = quantum_jump_estimate(
            hg_level_scheme(p), p, n_traj=240, t_total=400.0, seed=4, burn_fraction=0.5
        )
        leading = p.g**2 / (2.0 * p.total**2)
        assert abs(res.rho[0, 0].real - leading) <= 3.0 * res.stderr[0, 0] + 2e-4

    def test_deterministic_for_fixed_seed(self, scheme, params):
        a = quantum_jump_estimate(scheme, params, n_traj=40, t_total=30.0, seed=12)
        b = quantum_jump_estimate(scheme, params, n_traj=40, t_total=30.0, seed=12)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.stderr, b.stderr)

    def test_stderr_scales_with_trajectories(self, scheme, params):
        small = quantum_jump_estimate(scheme, params, n_traj=64, t_total=40.0, seed=21)
        large = quantum_jump_estimate(scheme, params, n_traj=256, t_total=40.0, seed=22)
        ratio = small.stderr[1, 1] / large.stderr[1, 1]
        assert 1.4 < ratio < 2.9  # expect ~2 from a 4x trajectory count

    def test_estimate_is_state(self, scheme, params):
        res = quantum_jump_estimate(scheme, params, n_traj=50, t_total=30.0, seed=5)
        check_density_matrix(res.rho)

    def test_two_level_scheme(self):
        p = DriveDecayParams(g=0.8, gamma0=0.0, gamma=1.0)
        scheme = two_level_scheme(p.total)
        res = quantum_jump_estimate(scheme, p, n_traj=200, t_total=60.0, seed=17)
        exact = two_level_steady_state_analytic(p)
        assert abs(res.rho[0, 0].real - exact[0, 0].real) <= 3.0 * res.stderr[0, 0]
        assert abs(res.rho[0, 1] - exact[0, 1]) <= 4.0 * res.stderr[0, 1]


def reference_jump_sampler(scheme, params, n_traj, t_total, seed, burn_fraction, initial_level):
    """Scalar quantum-jump sampler: one trajectory at a time, exact expm at every grid
    point, brentq for every jump time, and the estimator's draw order (threshold, then
    per jump the channel and the next threshold)."""
    dim = scheme.n_levels
    dt = 0.02 / params.total
    n_steps = int(round(t_total / dt))
    burn_steps = int(round(burn_fraction * n_steps))
    channels = [(t.upper, t.lower, t.decay_rate) for t in scheme.transitions]
    gen = -1j * drive_hamiltonian(scheme, params).astype(complex)
    for upper, _, rate in channels:
        gen[upper, upper] -= 0.5 * rate
    per_traj = []
    for child in np.random.SeedSequence(seed).spawn(n_traj):
        rng = np.random.default_rng(child)
        restart, level, thresh = 0.0, initial_level, rng.random()
        acc = np.zeros((dim, dim), dtype=complex)

        def state(t):
            return expm(gen * (t - restart))[:, level]

        def excess(t):
            return np.vdot(state(t), state(t)).real - thresh

        for n in range(1, n_steps + 1):
            while excess(n * dt) < 0:
                lo = max(restart, (n - 1) * dt)
                t_jump = brentq(excess, lo, n * dt, xtol=1e-15, rtol=1e-15)
                psi = state(t_jump)
                weights = np.array([rate * abs(psi[u]) ** 2 for u, _, rate in channels])
                cum = np.cumsum(weights) / weights.sum()
                pick = min(np.searchsorted(cum, rng.random(), side="right"), len(channels) - 1)
                restart, level, thresh = t_jump, channels[pick][1], rng.random()
            if n > burn_steps:
                psi = state(n * dt)
                acc += np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        per_traj.append(acc / (n_steps - burn_steps))
    per_traj = np.array(per_traj)
    return per_traj.mean(axis=0), per_traj.std(axis=0, ddof=1).real / math.sqrt(n_traj)


class TestQuantumJumpReference:
    CASES = {
        "default": (1.0, 0.5, 0.5, False, {}),
        "two_level": (0.8, 0.0, 1.0, True, {}),
        "exceptional_point": (0.5, 0.5, 0.5, False, {}),
        "strong_drive": (10.0, 0.5, 0.5, False, {}),
        "very_strong_drive": (1e3, 0.5, 0.5, False, {}),  # ||H_eff dt|| >> 1: squarings
        "excited_start": (1.0, 0.3, 0.7, False, {"initial_level": 0}),
        "no_burn_in": (1.0, 0.5, 0.5, False, {"burn_fraction": 0.0}),
        "no_jumps": (1e-3, 0.5, 0.5, False, {}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_scalar_reference(self, case):
        g, gamma0, gamma, two_level, kwargs = self.CASES[case]
        p = DriveDecayParams(g=g, gamma0=gamma0, gamma=gamma)
        scheme = two_level_scheme(p.total) if two_level else hg_level_scheme(p)
        res = quantum_jump_estimate(scheme, p, n_traj=5, t_total=20.0, seed=31, **kwargs)
        rho, stderr = reference_jump_sampler(
            scheme,
            p,
            5,
            20.0,
            31,
            kwargs.get("burn_fraction", 0.1),
            kwargs.get("initial_level", min(scheme.ground_levels)),
        )
        assert np.max(np.abs(res.rho - rho)) <= 1e-9
        assert np.max(np.abs(res.stderr - stderr)) <= 1e-9
        assert (res.n_jumps == 0) == (case == "no_jumps")

    def test_single_trajectory_has_infinite_stderr(self, scheme, params):
        res = quantum_jump_estimate(scheme, params, n_traj=1, t_total=10.0, seed=3)
        assert np.all(np.isinf(res.stderr))
        check_density_matrix(res.rho)

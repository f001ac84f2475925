import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import roots_legendre

from atompair import (
    DegenerateSteadyStateError,
    DriveDecayParams,
    LevelScheme,
    Transition,
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
from atompair import dynamics
from atompair.atom_model import Z_HAT
from atompair.dynamics import (
    _DRAW_BLOCK,
    _generator,
    _no_jump,
    _pair_blocks,
    _propagator,
    drive_hamiltonian,
    unvectorize,
    vectorize,
)
from atompair.validation import _with_rejected_populations

from conftest import random_params
from reference import check_density_matrix, jump_operators, liouvillian_matrix, propagate


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
    def test_matches_reference_equations(self, params):
        rng = np.random.default_rng(0)
        for p in [params] + [random_params(rng) for _ in range(20)]:
            liou = build_liouvillian(hg_level_scheme(p), p)
            for _ in range(10):
                m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                rho = m + m.conj().T
                expected = reference_rhs(rho, p.g, p.gamma0, p.gamma)
                got = unvectorize(liou @ vectorize(rho), 4)
                assert_allclose(got, expected, atol=1e-13)

    def test_matches_kronecker_reference(self):
        # the same generator assembled term by term from H and the jump operators by np.kron
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng)
            for scheme in (hg_level_scheme(p), two_level_scheme(p.total)):
                liou = build_liouvillian(scheme, p)
                kron = liouvillian_matrix(drive_hamiltonian(scheme, p), jump_operators(scheme))
                assert np.max(np.abs(liou - kron)) <= 1e-15 * np.max(np.abs(liou))

    def test_recycling_carries_the_exact_rate(self):
        # rate_c enters as itself, the rate the Monte Carlo draws channels with, not as
        # sqrt(rate_c)^2 (2.0000000000000004 for rate 2)
        p = DriveDecayParams(g=0.7, gamma0=0.0, gamma=1.0)
        liou = build_liouvillian(two_level_scheme(p.total), p)
        assert liou[1 + 2 * 1, 0 + 2 * 0] == 2.0 * p.total

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
        for g, trace, tol in ((1e-8, 3.0, 1e-9), (1.0, 5 / 3, 1e-12)):
            p = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
            rejected = _with_rejected_populations(steady_state_analytic(p), p)
            assert abs(rejected.trace() - trace) < tol

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

    def test_degenerate_without_sigma_decay(self):
        # driven, but with no sigma decay the two pi pairs never exchange population
        p = DriveDecayParams(g=1.0, gamma0=1.0, gamma=0.0)
        with pytest.raises(DegenerateSteadyStateError, match="not unique") as info:
            steady_state_numeric(build_liouvillian(hg_level_scheme(p), p))
        assert "dimension 2" in str(info.value)
        assert "no decay links the driven pairs" in str(info.value)

    def test_degenerate_below_the_weak_drive_limit(self):
        # unique in exact arithmetic, but the optical-pumping gap falls under the 1e-10 threshold
        p = DriveDecayParams(g=1e-5, gamma0=0.5, gamma=0.5)
        with pytest.raises(DegenerateSteadyStateError, match="not unique") as info:
            steady_state_numeric(build_liouvillian(hg_level_scheme(p), p))
        assert "optical-pumping gap falls under the solver's 1e-10 relative threshold" in str(info.value)

    def test_analytic_rejects_zero_drive(self):
        with pytest.raises(ValueError):
            steady_state_analytic(DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5))

    def test_two_level_closed_form(self):
        p = DriveDecayParams(g=0.7, gamma0=0.0, gamma=1.3)
        numeric = steady_state_numeric(build_liouvillian(two_level_scheme(p.total), p))
        assert np.max(np.abs(numeric - two_level_steady_state_analytic(p))) < 1e-12

    def test_two_level_closed_form_at_zero_drive(self):
        # undriven, the two-level state is unique: the ground state, whatever the route
        p = DriveDecayParams(g=0.0, gamma0=0.2, gamma=0.9)
        analytic = two_level_steady_state_analytic(p)
        numeric = steady_state_numeric(build_liouvillian(two_level_scheme(p.total), p))
        assert np.array_equal(analytic, np.diag([0.0, 1.0]))
        assert np.max(np.abs(numeric - analytic)) < 1e-12


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
        res = quantum_jump_estimate(hg_level_scheme(p), p, n_traj=240, t_total=400.0, seed=4)
        leading = p.g**2 / (2.0 * p.total**2)
        assert abs(res.rho[0, 0].real - leading) <= 3.0 * res.stderr[0, 0] + 2e-4

    def test_deterministic_for_fixed_seed(self, scheme, params):
        a = quantum_jump_estimate(scheme, params, n_traj=40, t_total=30.0, seed=12)
        b = quantum_jump_estimate(scheme, params, n_traj=40, t_total=30.0, seed=12)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.stderr, b.stderr)

    def test_trajectory_groups_leave_the_estimate_unchanged(self, scheme, params, monkeypatch):
        # trajectories are independent, so groups of 7 (the last one shorter) give the same bits
        whole = quantum_jump_estimate(scheme, params, n_traj=20, t_total=30.0, seed=12)
        monkeypatch.setattr(dynamics, "_GROUP", 7)
        grouped = quantum_jump_estimate(scheme, params, n_traj=20, t_total=30.0, seed=12)
        assert np.array_equal(whole.rho, grouped.rho) and np.array_equal(whole.stderr, grouped.stderr)
        assert whole.n_jumps == grouped.n_jumps > 0

    def test_one_generator_per_call(self, scheme, params, monkeypatch):
        # the draws of every trajectory come from one Generator: no per-trajectory set-up
        made, spawned = [], []
        default_rng = np.random.default_rng

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args))
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        res = quantum_jump_estimate(scheme, params, n_traj=300, t_total=10.0, seed=12)
        assert len(made) == 1 and spawned == [] and res.n_jumps > 0

    def test_stderr_scales_with_trajectories(self, scheme, params):
        small = quantum_jump_estimate(scheme, params, n_traj=64, t_total=40.0, seed=21)
        large = quantum_jump_estimate(scheme, params, n_traj=256, t_total=40.0, seed=22)
        ratio = small.stderr[1, 1] / large.stderr[1, 1]
        assert 1.4 < ratio < 2.9  # expect ~2 from a 4x trajectory count

    def test_estimate_is_state(self, scheme, params):
        res = quantum_jump_estimate(scheme, params, n_traj=50, t_total=30.0, seed=5)
        check_density_matrix(res.rho)

    def test_horizon_past_survival_underflow(self, scheme, params):
        # at 800/Gamma the tabulated no-jump states underflow to zero norm, far past any drawn
        # threshold; no stretch reaches them, so the time average never reads their norm
        res = quantum_jump_estimate(scheme, params, n_traj=2, t_total=800.0, seed=3)
        check_density_matrix(res.rho)

    def test_two_level_scheme(self):
        p = DriveDecayParams(g=0.8, gamma0=0.0, gamma=1.0)
        scheme = two_level_scheme(p.total)
        res = quantum_jump_estimate(scheme, p, n_traj=200, t_total=60.0, seed=17)
        exact = two_level_steady_state_analytic(p)
        assert abs(res.rho[0, 0].real - exact[0, 0].real) <= 3.0 * res.stderr[0, 0]
        assert abs(res.rho[0, 1] - exact[0, 1]) <= 4.0 * res.stderr[0, 1]

    def test_rejects_ground_level_driven_to_two_excited_levels(self):
        # the closed-form time average needs each restart level in one driven excited-ground pair
        p = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
        scheme = LevelScheme(
            n_levels=3,
            transitions=(
                Transition(upper=0, lower=1, dipole=Z_HAT, decay_rate=1.0, driven=True),
                Transition(upper=2, lower=1, dipole=Z_HAT, decay_rate=1.0, driven=True),
            ),
            excited_levels=frozenset({0, 2}),
        )
        with pytest.raises(ValueError, match="driven excited-ground pair"):
            quantum_jump_estimate(scheme, p, n_traj=2, t_total=5.0, seed=1)


def pairs_of_both_kinds():
    """A scheme and drive with an overdamped pair (0, 1) and an underdamped pair (2, 3) linked by
    undriven decay, so a batch of stretches mixes both branches of the no-jump map."""
    x_hat = np.array([1.0, 0.0, 0.0])
    scheme = LevelScheme(
        n_levels=4,
        transitions=(
            Transition(upper=0, lower=1, dipole=Z_HAT, decay_rate=3.0, driven=True),
            Transition(upper=2, lower=3, dipole=Z_HAT, decay_rate=0.2, driven=True),
            Transition(upper=0, lower=3, dipole=x_hat, decay_rate=0.5),
            Transition(upper=2, lower=1, dipole=x_hat, decay_rate=0.3),
        ),
        excited_levels=frozenset({0, 2}),
    )
    return scheme, DriveDecayParams(g=0.6, gamma0=0.5, gamma=0.5)


def mixed_columns(scheme, params):
    """Each pair's column of ``_pair_blocks`` twice, with both start vectors per pair, (0, 1) and
    (1, 0), as (x, y) rows: crossing() carries any tabulated (x, y)."""
    form = _pair_blocks(_generator(scheme, params), np.array([1, 3]))[1][:, [0, 0, 1, 1]]
    return form, np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])[:, :, None]


def survival_tables(scheme, params, n_steps=2000):
    """S_l(m dt) = x^2 + y^2 per ground level l, on the grid quantum_jump_estimate tabulates."""
    form = _pair_blocks(_generator(scheme, params), np.array(sorted(scheme.ground_levels)))[1]
    x, y = _no_jump(form[:, :, None], 0.02 / params.total * np.arange(n_steps + 1), 1.0, 0.0)
    return x**2 + y**2


class TestSurvivalTables:
    @pytest.mark.parametrize("g", [0.0, 0.05, 0.5, 1.0, 1e3])
    def test_four_level_ground_levels_share_one_table(self, g):
        # the two pi pairs differ only in the sign of c, which flips y and leaves y^2: so the
        # estimator searches one table for both restart levels (g = 0.5 is the critical block)
        p = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        tables = survival_tables(hg_level_scheme(p), p)
        assert tables[0].tobytes() == tables[1].tobytes()

    def test_pairs_of_both_kinds_keep_their_own_tables(self):
        # so test_pairs_of_both_kinds runs one search per table against the scalar reference
        tables = survival_tables(*pairs_of_both_kinds())
        assert not np.array_equal(tables[0], tables[1])


def expm_columns(a, taus):
    """expm(a tau) for each tau, as e^{s tau} expm((a - s) tau) for the scalar s = tr(a)/d:
    unshifted, scipy errs by 1.8e-11 at the critical block and tau = 800/Gamma."""
    shift = np.trace(a) / len(a)
    return [np.exp(shift * t) * expm((a - shift * np.eye(len(a))) * t) for t in taus]


class TestPairPropagator:
    @pytest.mark.parametrize("two_level", [False, True])
    @pytest.mark.parametrize("g", [0.0, 0.05, 0.5, 1.0, 1e3, 1e4])
    def test_matches_expm(self, g, two_level):
        # every ground level of both schemes, the levels jumps restart from; g = 0.5 at gamma0 =
        # gamma = 1/2 is the critical block, and at g = 0 every ground level is undriven, kappa = 0
        p = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = two_level_scheme(p.total) if two_level else hg_level_scheme(p)
        generator = _generator(scheme, p)
        a, uppers, _, rates = generator
        dim = scheme.n_levels
        ground = np.array(sorted(scheme.ground_levels))
        excited, form, _ = _pair_blocks(generator, ground)
        assert np.all(form[2] == 0) == (g in (0.0, 0.5))  # critical or undriven
        assert np.all(form[2] < 0) == (g >= 1.0)  # underdamped: kappa = i omega
        dt = 0.02 / p.total
        taus = np.array([0.0, dt / 3, dt, 37 * dt, 800.0 / p.total])
        columns = expm_columns(a, taus)
        # past 1e-13 the bound grows by 2 eps per unit of ||a tau||_1, the exponent and phase
        # that both routes round: at g = 1e4 Gamma, tau = 37 dt (7400 rad), unshifted scipy is
        # 2.5e-13 off a 40-digit evaluation, and the closed form 3.1e-13
        bound = 1e-13 + 2 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * taus
        for row, (l, e) in enumerate(zip(ground, excited)):
            # E(tau) e_k = phase (x e_l + i y e_e): from (x, y) = (1, 0) if k = l, and from (0, 1)
            # with phase -i if k = e, the start of a bracket that crossing() may carry forward
            for k, start, phase in [(l, (1.0, 0.0), 1.0), (e, (0.0, 1.0), -1j)][: 1 + (e != l)]:
                x, y = _no_jump(form[:, [row]], taus, *np.array(start)[:, None])
                assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
                for t, expected, x_t, y_t, tol in zip(taus, columns, x, y, bound):
                    psi = expected[:, k]
                    norm = np.hypot.reduce(np.abs(psi))  # no underflow at 1e-174
                    state = np.zeros(dim, dtype=complex)
                    state[l] += phase * x_t
                    state[e] += phase * 1j * y_t
                    assert np.max(np.abs(state - psi)) <= tol * norm, (k, t)
                    # -dS/dtau = sum_c rate_c |psi_upper_c|^2 = 2 G |psi_e|^2
                    loss = rates @ np.abs(psi[uppers]) ** 2
                    assert abs(2 * form[0, row] * y_t**2 - loss) <= 4 * form[0, row] * tol * norm**2, (k, t)
                    # the turn atan2((x + i y) / (x0 + i y0)) is the angle of psi_l + psi_e
                    turn = np.arctan2(y_t * start[0] - x_t * start[1], x_t * start[0] + y_t * start[1])
                    lag = turn - np.angle(psi[l] + psi[e])
                    assert abs(np.angle(np.exp(1j * lag))) <= 2 * tol, (k, t)

    def test_no_jump_is_the_propagator_on_fixed_terms(self):
        # crossing() forms N (x, y) = (u, v) once per call and p (x, y) + s (u, v) per iteration:
        # bit for bit _no_jump, on both branches in one batch and from both start vectors
        form, (x, y) = mixed_columns(*pairs_of_both_kinds())
        decay, coupling = form[:2, :, None]
        taus = 0.02 * np.array([0.0, 1 / 3, 0.5, 1.0, 37.0, 800.0])
        p, s = _propagator(form[:, :, None], taus)
        u, v = decay / 2 * x - coupling * y, coupling * x - decay / 2 * y
        x_d, y_d = _no_jump(form[:, :, None], taus, x, y)
        assert (p * x + s * u).tobytes() == x_d.tobytes() and (p * y + s * v).tobytes() == y_d.tobytes()


class TestChannelTable:
    @pytest.mark.parametrize("two_level", [False, True])
    @pytest.mark.parametrize("g", [0.05, 0.5, 1.0, 1e3])
    def test_matches_weights_of_the_expm_state(self, g, two_level):
        # unequal pi and sigma rates, so the cumulative weights are not all 1/2 and 1
        p = DriveDecayParams(g=g, gamma0=0.3, gamma=0.7)
        scheme = two_level_scheme(p.total) if two_level else hg_level_scheme(p)
        generator = _generator(scheme, p)
        a, uppers, _, rates = generator
        ground = np.array(sorted(scheme.ground_levels))  # every level a trajectory can restart on
        table = _pair_blocks(generator, ground)[2]
        taus = np.array([1 / 3, 1.0, 7.4, 20.0, 53.0]) * 0.02 / p.total
        for tau, propagator in zip(taus, expm_columns(a, taus)):
            for row, l in enumerate(ground):
                weights = rates * np.abs(propagator[uppers, l]) ** 2
                expected = np.cumsum(weights) / weights.sum()
                assert np.max(np.abs(table[row] - expected)) <= 1e-15, (l, tau)

    def test_level_that_cannot_jump_reads_zero(self):
        p = DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(p)
        table = _pair_blocks(_generator(scheme, p), np.array(sorted(scheme.ground_levels)))[2]
        assert np.all(table == 0)


def reference_jump_sampler(scheme, params, n_traj, t_total, seed, burn_fraction, initial_level):
    """Scalar quantum-jump sampler: one trajectory at a time, scipy's expm for every state,
    brentq for every jump time, and the estimator's draws: from one default_rng(seed), the
    first thresholds rng.random(n_traj), then one (n_traj, _DRAW_BLOCK, 2) array per round, of
    which trajectory i reads row i in order (per jump the channel and the next threshold).
    The estimate is the time average of P = psi psi^dag / |psi|^2 over [t_burn, t_total],
    integrated by 48-node Gauss-Legendre on every piece of a grid interval between jumps
    (t_burn is a grid point, so no piece straddles it).

    The 48-node rule cannot resolve about 200 rad of turn per grid step: at g = 1e4 Gamma,
    t_total = 2 it misses the estimator by 1.2e-3, while both the estimator and this sampler
    with 4001-node composite Simpson per piece agree to 7e-12.  So no case above 1e3 Gamma.

    Returns rho, its standard error, the jumps of each trajectory, and the number of
    trajectories whose stretch across t_burn began with a jump."""
    dim = scheme.n_levels
    dt = 0.02 / params.total
    n_steps = int(round(t_total / dt))
    burn_steps = int(round(burn_fraction * n_steps))
    channels = [(t.upper, t.lower, t.decay_rate) for t in scheme.transitions]
    gen = -1j * drive_hamiltonian(scheme, params).astype(complex)
    for upper, _, rate in channels:
        gen[upper, upper] -= 0.5 * rate
    gl_nodes, gl_weights = roots_legendre(48)
    gl_nodes, gl_weights = (gl_nodes + 1) / 2, gl_weights / 2
    whole_step = np.array([expm(gen * dt * x) for x in gl_nodes])
    rng = np.random.default_rng(seed)
    first, rounds = rng.random(n_traj), []

    def uniforms(i):  # trajectory i's draws, each round drawn when a trajectory first reaches it
        yield first[i]
        for k in itertools.count():
            if k == len(rounds):
                rounds.append(rng.random((n_traj, _DRAW_BLOCK, 2)))
            yield from rounds[k][i].ravel()

    per_traj, jumps, cut_after_jump = [], [], 0
    for i in range(n_traj):
        draw = uniforms(i)
        restart, level, thresh = 0.0, initial_level, next(draw)
        acc = np.zeros((dim, dim), dtype=complex)
        n_jumps = 0

        def state(t):
            return expm(gen * (t - restart))[:, level]

        def excess(t):
            return np.vdot(state(t), state(t)).real - thresh

        def integral(lo, hi, props=None):  # of P over [lo, hi], inside one grid interval
            if props is None:
                props = np.array([expm(gen * (hi - lo) * x) for x in gl_nodes])
            psi = props @ state(lo)
            w = (hi - lo) * gl_weights / np.einsum("ia,ia->i", psi, psi.conj()).real
            return np.einsum("i,ia,ib->ab", w, psi, psi.conj())

        for n in range(1, n_steps + 1):
            lo = max(restart, (n - 1) * dt)
            while excess(n * dt) < 0:
                t_jump = brentq(excess, lo, n * dt, xtol=1e-15, rtol=1e-15)
                if n > burn_steps:
                    acc += integral(lo, t_jump)
                psi = state(t_jump)
                weights = np.array([rate * abs(psi[u]) ** 2 for u, _, rate in channels])
                cum = np.cumsum(weights) / weights.sum()
                pick = min(np.searchsorted(cum, next(draw), side="right"), len(channels) - 1)
                restart, level, thresh = t_jump, channels[pick][1], next(draw)
                lo, n_jumps = t_jump, n_jumps + 1
            if n > burn_steps:
                acc += integral(lo, n * dt, whole_step if lo == (n - 1) * dt else None)
            if n == burn_steps:
                cut_after_jump += restart > 0
        per_traj.append(acc / ((n_steps - burn_steps) * dt))
        jumps.append(n_jumps)
    per_traj = np.array(per_traj)
    stderr = per_traj.std(axis=0, ddof=1).real / math.sqrt(n_traj)
    return per_traj.mean(axis=0), stderr, jumps, cut_after_jump


class TestQuantumJumpReference:
    CASES = {
        "default": (1.0, 0.5, 0.5, False, 20.0),
        "two_level": (0.8, 0.0, 1.0, True, 20.0),
        "exceptional_point": (0.5, 0.5, 0.5, False, 20.0),
        "strong_drive": (10.0, 0.5, 0.5, False, 20.0),
        # each grid step holds about 20 rad of turn, so the root finder bisects there
        "very_strong_drive": (1e3, 0.5, 0.5, False, 20.0),
        "no_jumps": (1e-3, 0.5, 0.5, False, 20.0),
        # more jumps per trajectory than one buffered block of draws
        "draw_refill": (3.0, 0.5, 0.5, False, 40.0),
        # overdamped, so stretches are long: the burn-in cut falls inside each trajectory's first
        # one; restarts reach the pair with coupling -g, where the phase of the state turns back
        "burn_in_inside_stretch": (0.3, 0.5, 0.5, False, 20.0),
        # no partner: the state stays the basis state it started in
        "undriven": (0.0, 0.5, 0.5, False, 20.0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_scalar_reference(self, case):
        g, gamma0, gamma, two_level, t_total = self.CASES[case]
        p = DriveDecayParams(g=g, gamma0=gamma0, gamma=gamma)
        scheme = two_level_scheme(p.total) if two_level else hg_level_scheme(p)
        # at seed 31 one of the 5 trajectories of burn_in_inside_stretch jumps before the cut
        seed = 32 if case == "burn_in_inside_stretch" else 31
        res = quantum_jump_estimate(scheme, p, n_traj=5, t_total=t_total, seed=seed)
        # the estimator's window: the last 90% of the horizon, from the lowest ground level
        start = min(scheme.ground_levels)
        rho, stderr, jumps, cut_after_jump = reference_jump_sampler(scheme, p, 5, t_total, seed, 0.1, start)
        assert np.max(np.abs(res.rho - rho)) <= 1e-9
        assert np.max(np.abs(res.stderr - stderr)) <= 1e-9
        assert res.n_jumps == sum(jumps)
        assert (res.n_jumps == 0) == (case in ("no_jumps", "undriven"))
        if case == "draw_refill":
            assert max(jumps) > _DRAW_BLOCK
        if case == "default":  # the burn-in cut falls inside a stretch that began with a jump
            assert cut_after_jump > 0
        if case == "burn_in_inside_stretch":
            assert cut_after_jump == 0 and res.rho[2, 3] != 0

    def test_pairs_of_both_kinds(self):
        scheme, p = pairs_of_both_kinds()
        form, start = mixed_columns(scheme, p)
        assert form[2, 0] == form[2, 1] > 0 > form[2, 2] == form[2, 3]
        taus = np.linspace(0.0, 5.0, 7)
        mixed = _no_jump(form[:, :, None], taus, *start)
        for k in range(4):
            alone = _no_jump(form[:, [k], None], taus, *start[:, [k]])
            assert np.array_equal(np.array(mixed)[:, k], np.array(alone)[:, 0])
        # at seed 26 trajectories jump from both pairs, so each pair's survival table is searched
        # (at seed 31 no trajectory reached the second pair)
        res = quantum_jump_estimate(scheme, p, n_traj=5, t_total=10.0, seed=26)
        rho, stderr, jumps, _ = reference_jump_sampler(scheme, p, 5, 10.0, 26, 0.1, 1)
        assert np.max(np.abs(res.rho - rho)) <= 1e-9
        assert np.max(np.abs(res.stderr - stderr)) <= 1e-9
        assert res.n_jumps == sum(jumps) > 0 and res.rho[2, 2].real > 0

    def test_single_trajectory_has_infinite_stderr(self, scheme, params):
        res = quantum_jump_estimate(scheme, params, n_traj=1, t_total=10.0, seed=3)
        assert np.all(np.isinf(res.stderr))
        check_density_matrix(res.rho)

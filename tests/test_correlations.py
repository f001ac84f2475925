import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from atompair import (
    DegenerateSteadyStateError,
    Detector,
    DriveDecayParams,
    Geometry,
    build_liouvillian,
    correlation_point,
    field_operator,
    g1,
    g2_factorized,
    g2_normalized,
    g2_normalized_closed_form,
    gamma2,
    hg_level_scheme,
    intensity,
    modulation_depth,
    standard_geometry,
    steady_state_analytic,
    steady_state_numeric,
    witness_from_g2,
)
from atompair.atom_model import Y_HAT, pi_polarization, sigma_polarization
from atompair.correlations import _g2_normalized_closed_form, _point, _steady_state
from atompair.scans import g2_scan, scan_direction

from conftest import count_solves, random_params, random_transverse_detector


def g2_baseline(scheme, geometry, det_1, det_2, rho):
    """G1_A(1,1) G1_B(2,2) + G1_A(2,2) G1_B(1,1) through the field-operator route."""
    op_a1, op_b1, op_a2, op_b2 = (
        field_operator(scheme, geometry, det, atom)
        for det in (det_1, det_2)
        for atom in ("A", "B")
    )
    val = g1(op_a1, op_a1, rho) * g1(op_b2, op_b2, rho) + g1(op_a2, op_a2, rho) * g1(
        op_b1, op_b1, rho
    )
    return float(val.real)


def sigma_ref():
    return Detector(Y_HAT, sigma_polarization(Y_HAT))


class TestG2Factorized:
    def test_coincident_detectors_full_contrast(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        det = sigma_ref()
        g2 = g2_factorized(scheme, geometry, det, det, rho)
        base = g2_baseline(scheme, geometry, det, det, rho)
        assert_allclose(g2, 2.0 * base, atol=1e-15)  # Gamma2 = 1 at zero phase

    def test_orthogonal_polarizations_flat(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        det_1 = Detector(Y_HAT, pi_polarization(Y_HAT))
        values = []
        for theta in np.linspace(0, 2 * math.pi, 25):
            det_2 = Detector(scan_direction("xy", theta), sigma_polarization(Y_HAT))
            values.append(g2_factorized(scheme, geometry, det_1, det_2, rho))
        assert max(values) - min(values) < 1e-15

    def test_equal_polarization_pi_phase_zero(self, scheme, geometry, params):
        # anticorrelation dip: equal analyzers at detector-pair phase pi
        rho = steady_state_analytic(params)
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        det_2 = Detector(scan_direction("xy", 0.0), eps)  # phase -pi
        g2 = g2_factorized(scheme, geometry, det_1, det_2, rho)
        assert abs(g2) < 1e-16

    def test_detector_swap_symmetry(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        rng = np.random.default_rng(31)
        for _ in range(5):
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            forward = g2_factorized(scheme, geometry, det_1, det_2, rho)
            backward = g2_factorized(scheme, geometry, det_2, det_1, rho)
            assert_allclose(forward, backward, rtol=0, atol=1e-15)

    def test_structure_baseline_times_fringe(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        rng = np.random.default_rng(37)
        for _ in range(10):
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            g2 = g2_factorized(scheme, geometry, det_1, det_2, rho)
            base = g2_baseline(scheme, geometry, det_1, det_2, rho)
            fringe = correlation_point(scheme, geometry, params, det_1, det_2, rho=rho).gamma2
            assert abs(g2 - base * (1.0 + fringe)) < 1e-12

    def test_nonnegative_along_scans(self, scheme, geometry, rho):
        for eps in (pi_polarization(Y_HAT), sigma_polarization(Y_HAT)):
            scan = g2_scan(scheme, geometry, eps, eps, rho, n_points=120)
            assert np.min(scan.g2_factorized) > -1e-12


class TestGamma2:
    def test_coincident(self, geometry):
        det = sigma_ref()
        assert_allclose(gamma2(geometry, det, det), 1.0, atol=1e-15)

    def test_orthogonal_zero_everywhere(self, geometry):
        det_1 = Detector(Y_HAT, pi_polarization(Y_HAT))
        for theta in np.linspace(0, 2 * math.pi, 13):
            det_2 = Detector(scan_direction("xy", theta), sigma_polarization(Y_HAT))
            assert gamma2(geometry, det_1, det_2) == 0.0

    def test_pi_phase(self, geometry):
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        det_2 = Detector(scan_direction("xy", 0.0), eps)  # (n1 - n2).(RA - RB) = -1/2
        assert_allclose(gamma2(geometry, det_1, det_2), -1.0, atol=1e-15)

    def test_matches_operator_route(self, scheme, geometry):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_params(rng)
            rho = steady_state_analytic(p)
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            point = correlation_point(hg_level_scheme(p), geometry, p, det_1, det_2, rho=rho)
            assert_allclose(point.gamma2, gamma2(geometry, det_1, det_2), atol=1e-12)

    def test_translation_and_label_exchange_invariance(self):
        rng = np.random.default_rng(43)
        det_1 = random_transverse_detector(rng)
        det_2 = random_transverse_detector(rng)
        base = standard_geometry(0.7)
        value = gamma2(base, det_1, det_2)
        shift = np.array([0.2, 0.4, -0.6])
        moved = Geometry(r_a=base.r_a + shift, r_b=base.r_b + shift, n_l=base.n_l)
        swapped = Geometry(r_a=base.r_b, r_b=base.r_a, n_l=base.n_l)
        assert_allclose(gamma2(moved, det_1, det_2), value, atol=1e-15)
        assert_allclose(gamma2(swapped, det_1, det_2), value, atol=1e-15)

    def test_bounded_by_modulation_depth(self, geometry):
        rng = np.random.default_rng(47)
        for _ in range(20):
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            m = modulation_depth(det_1, det_2)
            assert abs(gamma2(geometry, det_1, det_2)) <= m + 1e-15
            assert m <= 1.0 + 1e-15


class TestModulationDepth:
    def test_equal(self):
        det = sigma_ref()
        assert_allclose(modulation_depth(det, det), 1.0, atol=1e-15)

    def test_orthogonal(self):
        det_1 = Detector(Y_HAT, pi_polarization(Y_HAT))
        det_2 = Detector(Y_HAT, sigma_polarization(Y_HAT))
        assert modulation_depth(det_1, det_2) == 0.0

    def test_half(self):
        eps_1 = sigma_polarization(Y_HAT)
        eps_perp = pi_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps_1)
        det_2 = Detector(Y_HAT, (eps_1 + eps_perp) / math.sqrt(2))
        assert_allclose(modulation_depth(det_1, det_2), 0.5, atol=1e-15)

    def test_drive_independence_of_scan_depth(self, geometry):
        # the coincidence fringe contrast equals |eps1^dag.eps2|^2 for every
        # drive strength; checked for contrasts 1, 1/2 and 0
        eps_sigma = sigma_polarization(Y_HAT)
        eps_pi = pi_polarization(Y_HAT)
        eps_half = (eps_sigma + eps_pi) / math.sqrt(2)
        for g in (0.01, 0.1, 1.0, 10.0, 100.0):
            p = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
            scheme = hg_level_scheme(p)
            rho = steady_state_numeric(build_liouvillian(scheme, p))
            for eps_2, expected in ((eps_sigma, 1.0), (eps_half, 0.5), (eps_pi, 0.0)):
                scan = g2_scan(scheme, geometry, eps_sigma, eps_2, rho, n_points=360)
                assert abs(scan.modulation_depth - expected) < 1e-9


class TestG2Normalized:
    def test_sigma_autocorrelation_is_one(self, scheme, geometry, params):
        det = sigma_ref()
        assert_allclose(g2_normalized(scheme, geometry, params, det, det), 1.0, atol=1e-12)

    def test_sigma_pair_phase_pi_is_zero(self, scheme, geometry, params):
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        det_2 = Detector(scan_direction("xy", 0.0), eps)
        assert abs(g2_normalized(scheme, geometry, params, det_1, det_2)) < 1e-14

    def test_pi_coincident_closed_form(self, scheme, geometry, params):
        # coincident pi detectors at the zero-phase reference:
        # g2(1,1) = 1/D^2 with D = 1 + Gamma^2/(2g^2+Gamma^2) |z.eps|^2
        det = Detector(Y_HAT, pi_polarization(Y_HAT))
        d_factor = 1.0 + 1.0 / 3.0
        expected = 1.0 / d_factor**2
        assert_allclose(g2_normalized(scheme, geometry, params, det, det), expected, atol=1e-12)
        assert_allclose(
            g2_normalized_closed_form(geometry, params, det, det), expected, atol=1e-15
        )

    def test_consistency_with_intensities(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        rng = np.random.default_rng(53)
        for _ in range(10):
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            norm = g2_normalized(scheme, geometry, params, det_1, det_2)
            i1 = intensity(scheme, geometry, det_1, rho, rho)
            i2 = intensity(scheme, geometry, det_2, rho, rho)
            g2 = g2_factorized(scheme, geometry, det_1, det_2, rho)
            assert abs(norm * i1 * i2 - g2) < 1e-10

    def test_closed_form_vs_ratio_at_sigma(self, scheme, geometry, params):
        # for z-dark analyzers the printed closed form and the ratio agree
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        for theta in np.linspace(0, 2 * math.pi, 17):
            det_2 = Detector(scan_direction("xy", theta), eps)
            ratio = g2_normalized(scheme, geometry, params, det_1, det_2)
            closed = g2_normalized_closed_form(geometry, params, det_1, det_2)
            assert abs(ratio - closed) < 1e-12

    def test_closed_form_matches_ratio_random_geometry(self):
        # each intensity factor carries its own detector's drive-relative phase, so
        # the closed form equals the defining ratio for any geometry and analyzers
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = random_params(rng)
            n_l = rng.normal(size=3)
            geom = Geometry(
                r_a=rng.normal(size=3), r_b=rng.normal(size=3), n_l=n_l / np.linalg.norm(n_l)
            )
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            ratio = g2_normalized(hg_level_scheme(p), geom, p, det_1, det_2)
            closed = g2_normalized_closed_form(geom, p, det_1, det_2)
            assert abs(ratio - closed) < 1e-10 * max(1.0, abs(ratio))

    def test_closed_form_over_directions_matches_point_calls(self):
        # one array evaluation over a scan's directions is the public point function per row
        rng = np.random.default_rng(67)
        p = random_params(rng)
        geom = standard_geometry(0.8, (0.3, 0.5, 0.2))
        det_1 = random_transverse_detector(rng)
        eps_2 = random_transverse_detector(rng).epsilon
        directions = scan_direction("xz", np.linspace(0, 2 * math.pi, 37))
        closed = _g2_normalized_closed_form(geom, p, det_1, eps_2, directions)
        points = [g2_normalized_closed_form(geom, p, det_1, Detector(n, eps_2)) for n in directions]
        assert closed.shape == (37,)
        assert np.max(np.abs(closed - points)) <= 1e-15 * np.max(np.abs(points))


class TestWitness:
    def test_sigma_fringe_minimum_violated(self, scheme, geometry, params, rho):
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        det_2 = Detector(scan_direction("xy", 0.0), eps)  # phase -pi
        res = correlation_point(scheme, geometry, params, det_1, det_2, rho=rho)
        assert abs(res.witness_lhs) < 1e-12
        assert_allclose(res.witness_rhs, 1.0, atol=1e-12)
        assert res.violated

    def test_orthogonal_sigma_detection(self, scheme, geometry, params, rho):
        # sigma analyzers at perpendicular directions project to orthogonal
        # vectors; both are z-dark, so g2(1,2) = 1/2: lhs 0, rhs 1/4, violated
        x_hat = np.array([1.0, 0.0, 0.0])
        det_1 = Detector(Y_HAT, sigma_polarization(Y_HAT))
        det_2 = Detector(x_hat, sigma_polarization(x_hat))
        assert modulation_depth(det_1, det_2) < 1e-15
        res = correlation_point(scheme, geometry, params, det_1, det_2, rho=rho)
        assert abs(res.witness_lhs) < 1e-12
        assert_allclose(res.witness_rhs, 0.25, atol=1e-12)
        assert res.violated

    def test_classical_baseline_not_flagged(self):
        res = witness_from_g2(1.0, 1.0, 1.0)
        assert res.lhs == res.rhs == 0.0
        assert not res.violated

    def test_physical_transverse_geometry_violation(self, params, scheme, rho):
        # fully transverse variant: circular analyzers along +-z with the
        # atoms on the z axis at d = 1/4, detector-pair phase 2 k d = pi
        geom = Geometry(
            r_a=np.array([0.0, 0.0, 0.125]),
            r_b=np.array([0.0, 0.0, -0.125]),
            n_l=np.array([0.0, 1.0, 0.0]),
        )
        eps = sigma_polarization(np.array([0.0, 0.0, 1.0]))
        det_1 = Detector(np.array([0.0, 0.0, 1.0]), eps)
        det_2 = Detector(np.array([0.0, 0.0, -1.0]), eps)
        assert det_1.transversality_defect() < 1e-15
        assert det_2.transversality_defect() < 1e-15
        res = correlation_point(scheme, geom, params, det_1, det_2, rho=rho)
        assert abs(res.witness_lhs) < 1e-12
        assert_allclose(res.witness_rhs, 1.0, atol=1e-12)
        assert res.violated


class TestCorrelationPoint:
    def test_bundle_consistency(self, scheme, geometry, params):
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        det_2 = Detector(scan_direction("xy", 2.0), eps)
        point = correlation_point(scheme, geometry, params, det_1, det_2)
        assert abs(point.gamma2) <= point.modulation_depth <= 1.0
        assert point.g2 >= 0.0
        assert_allclose(point.gamma2, gamma2(geometry, det_1, det_2), atol=1e-12)


class TestSteadyStateMemo:
    def test_detector_loop_solves_once(self, monkeypatch, scheme, geometry, params):
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(71)
        for _ in range(8):
            det_1, det_2 = random_transverse_detector(rng), random_transverse_detector(rng)
            g2_normalized(scheme, geometry, params, det_1, det_2)
        assert len(calls) == 1

    def test_new_scheme_or_drive_solves_again(self, monkeypatch, scheme, geometry, params):
        calls = count_solves(monkeypatch)
        det = sigma_ref()
        stronger = DriveDecayParams(g=2.0 * params.g, gamma0=params.gamma0, gamma=params.gamma)
        g2_normalized(scheme, geometry, params, det, det)
        correlation_point(scheme, geometry, stronger, det, det)
        assert len(calls) == 2
        g2_normalized(hg_level_scheme(stronger), geometry, stronger, det, det)
        assert len(calls) == 3

    def test_results_equal_a_fresh_solve(self, geometry):
        rng = np.random.default_rng(73)
        for _ in range(10):
            p = random_params(rng)
            sch = hg_level_scheme(p)
            det_1, det_2 = random_transverse_detector(rng), random_transverse_detector(rng)
            fresh = _point(sch, geometry, det_1, det_2, steady_state_numeric(build_liouvillian(sch, p)))
            for _ in range(2):  # the first call solves, the second reads the memo
                assert g2_normalized(sch, geometry, p, det_1, det_2) == float(fresh[2])
                point = correlation_point(sch, geometry, p, det_1, det_2)
                assert (point.g2, point.gamma2, point.g2_normalized) == tuple(map(float, fresh[:3]))
                assert (point.witness_lhs, point.witness_rhs) == (fresh[3].lhs, fresh[3].rhs)

    def test_degenerate_state_is_never_cached(self, monkeypatch, geometry):
        calls = count_solves(monkeypatch)
        undriven = DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5)
        sch, det = hg_level_scheme(undriven), sigma_ref()
        for _ in range(3):
            with pytest.raises(DegenerateSteadyStateError):
                g2_normalized(sch, geometry, undriven, det, det)
        assert len(calls) == 3
        assert _steady_state.cache_info().currsize == 0

    def test_memoized_state_is_read_only(self, scheme, params):
        rho = _steady_state(scheme, params)
        assert _steady_state(scheme, params) is rho
        with pytest.raises(ValueError):
            rho[0, 0] = 0.0

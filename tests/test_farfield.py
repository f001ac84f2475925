import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from atompair import (
    Detector,
    DriveDecayParams,
    build_liouvillian,
    field_operator,
    g1,
    hg_level_scheme,
    intensity,
    intensity_visibility,
    make_detector,
    mean_field,
    pure_state,
    standard_geometry,
    steady_state_analytic,
    steady_state_numeric,
    two_level_scheme,
)
from atompair.atom_model import Y_HAT, Z_HAT, pi_polarization, sigma_polarization
from atompair.scans import intensity_scan, scan_direction

from conftest import random_params, random_transverse_detector


def pi_detector():
    return make_detector(Y_HAT, pi_polarization(Y_HAT))


def sigma_detector():
    return make_detector(Y_HAT, sigma_polarization(Y_HAT))


class TestFieldOperator:
    def test_pi_detector_couples_pi_channels_only(self, scheme, geometry):
        op = field_operator(scheme, geometry, pi_detector(), "A")
        nonzero = {(i, j) for i in range(4) for j in range(4) if abs(op.coeff[i, j]) > 0}
        assert nonzero == {(1, 0), (3, 2)}
        assert_allclose(op.coeff[1, 0], -1 / math.sqrt(6), atol=1e-15)
        assert_allclose(op.coeff[3, 2], +1 / math.sqrt(6), atol=1e-15)

    def test_sigma_detector_couples_sigma_channels_only(self, scheme, geometry):
        op = field_operator(scheme, geometry, sigma_detector(), "A")
        nonzero = {(i, j) for i in range(4) for j in range(4) if abs(op.coeff[i, j]) > 0}
        assert nonzero == {(3, 0), (1, 2)}

    def test_two_level_single_entry(self, geometry):
        scheme = two_level_scheme(1.0)
        op = field_operator(scheme, geometry, pi_detector(), "A")
        assert abs(op.coeff[1, 0] - 1.0) < 1e-15
        assert np.count_nonzero(op.coeff) == 1

    def test_phase_convention(self, scheme, geometry):
        det = pi_detector()
        op_a = field_operator(scheme, geometry, det, "A")
        # detector along the drive: (n - n_l).R_A = 0
        assert_allclose(op_a.phase, 1.0, atol=1e-15)
        det_x = Detector([1.0, 0.0, 0.0], pi_polarization([1.0, 0.0, 0.0]))
        op_x = field_operator(scheme, geometry, det_x, "A")
        # (n - n_l).R_A = (x - y).(d/2 x) = d/2, phase exp(-i pi d)
        assert_allclose(op_x.phase, np.exp(-1j * math.pi * 0.5), atol=1e-14)

    def test_lowering_nilpotency(self, scheme, geometry):
        rng = np.random.default_rng(13)
        for _ in range(10):
            op_1 = field_operator(scheme, geometry, random_transverse_detector(rng), "A")
            op_2 = field_operator(scheme, geometry, random_transverse_detector(rng), "A")
            assert np.max(np.abs(op_1.coeff @ op_2.coeff)) == 0.0


class TestMeanField:
    def test_sigma_channel_dark(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        op = field_operator(scheme, geometry, sigma_detector(), "A")
        assert abs(mean_field(op, rho)) < 1e-15

    def test_pi_channel_radiates(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        op = field_operator(scheme, geometry, pi_detector(), "A")
        value = mean_field(op, rho)
        # phase is 1 at the reference detector: value = 2 (eps.d_21) rho12
        expected = 2.0 * (-1 / math.sqrt(6)) * rho[0, 1]
        assert_allclose(value, expected, atol=1e-15)
        assert abs(value) > 0.1

    def test_mixed_ground_state_dark(self, scheme, geometry):
        rho = np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)
        for det in (pi_detector(), sigma_detector()):
            op = field_operator(scheme, geometry, det, "A")
            assert abs(mean_field(op, rho)) == 0.0

    def test_dimension_mismatch(self, scheme, geometry):
        op = field_operator(scheme, geometry, pi_detector(), "A")
        with pytest.raises(ValueError, match="shape"):
            mean_field(op, np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_operator_route_rejects_non_finite_state(self, scheme, geometry, rho, bad):
        det = pi_detector()
        op = field_operator(scheme, geometry, det, "A")
        rho = rho.copy()
        rho[1, 1] = bad
        calls = [
            lambda: mean_field(op, rho),
            lambda: g1(op, op, rho),
            lambda: intensity(scheme, geometry, det, rho, rho),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite entries"):
                call()


class TestG1:
    def test_diagonal_value_any_polarization(self, scheme, geometry, params):
        # G1(1,1) = rho11 * D^2/3 independent of the analyzer
        rho = steady_state_analytic(params)
        rng = np.random.default_rng(17)
        for _ in range(10):
            op = field_operator(scheme, geometry, random_transverse_detector(rng), "A")
            assert_allclose(g1(op, op, rho).real, rho[0, 0].real / 3.0, atol=1e-14)
            assert abs(g1(op, op, rho).imag) < 1e-15

    def test_orthogonal_polarizations_uncorrelated(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        op_pi = field_operator(scheme, geometry, pi_detector(), "A")
        op_sigma = field_operator(scheme, geometry, sigma_detector(), "A")
        assert abs(g1(op_pi, op_sigma, rho)) < 1e-15

    def test_equal_polarization_magnitude(self, scheme, geometry, params):
        # same analyzer, different direction: only the phase changes
        rho = steady_state_analytic(params)
        eps = sigma_polarization(Y_HAT)
        op_1 = field_operator(scheme, geometry, Detector(Y_HAT, eps), "A")
        det_2 = Detector(scan_direction("xy", 0.7), eps)
        op_2 = field_operator(scheme, geometry, det_2, "A")
        val = g1(op_1, op_2, rho)
        assert_allclose(abs(val), g1(op_1, op_1, rho).real, atol=1e-14)
        assert abs(val.imag) > 1e-3  # geometric phase present

    def test_hermiticity(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        rng = np.random.default_rng(19)
        for _ in range(10):
            op_1 = field_operator(scheme, geometry, random_transverse_detector(rng), "B")
            op_2 = field_operator(scheme, geometry, random_transverse_detector(rng), "B")
            assert_allclose(g1(op_1, op_2, rho), np.conj(g1(op_2, op_1, rho)), atol=1e-15)

    def test_cauchy_schwarz(self, scheme, geometry):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_params(rng)
            rho = steady_state_analytic(p)
            op_1 = field_operator(hg_level_scheme(p), geometry, random_transverse_detector(rng), "A")
            op_2 = field_operator(hg_level_scheme(p), geometry, random_transverse_detector(rng), "A")
            lhs = abs(g1(op_1, op_2, rho)) ** 2
            rhs = g1(op_1, op_1, rho).real * g1(op_2, op_2, rho).real
            assert lhs <= rhs + 1e-12

    def test_rejects_cross_atom(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        op_a = field_operator(scheme, geometry, pi_detector(), "A")
        op_b = field_operator(scheme, geometry, pi_detector(), "B")
        with pytest.raises(ValueError, match="atom"):
            g1(op_a, op_b, rho)


class TestIntensity:
    def test_sigma_flat_constant(self, scheme, geometry, params):
        # sigma detection: constant 2 rho11 / 3 at every angle
        rho = steady_state_analytic(params)
        eps = sigma_polarization(Y_HAT)
        expected = 2.0 * rho[0, 0].real / 3.0
        for theta in np.linspace(0, 2 * math.pi, 17):
            det = Detector(scan_direction("xy", theta), eps)
            assert_allclose(intensity(scheme, geometry, det, rho, rho), expected, atol=1e-15)

    def test_pi_visibility_one_third(self, scheme, geometry, rho):
        scan = intensity_scan(scheme, geometry, pi_polarization(Y_HAT), rho)
        assert_allclose(scan.visibility, 1.0 / 3.0, atol=1e-12)

    def test_two_level_fringe_formula(self, geometry):
        # intensity ~ 2g^2/(2g^2+gamma^2) [1 + gamma^2/(2g^2+gamma^2) cos phi]
        p = DriveDecayParams(g=0.8, gamma0=0.0, gamma=1.0)
        scheme = two_level_scheme(p.total)
        rho = steady_state_numeric(build_liouvillian(scheme, p))
        scan = intensity_scan(scheme, geometry, pi_polarization(Y_HAT), rho)
        denom = 2 * p.g**2 + p.total**2
        prefactor = p.g**2 / denom  # rho_ee with |eps.d| = 1, two atoms
        expected = 2 * prefactor * (1.0 + (p.total**2 / denom) * np.cos(scan.phases))
        assert_allclose(scan.intensities, expected, atol=1e-14)

    def test_positivity_and_extrema_location(self, scheme, geometry, rho):
        scan = intensity_scan(scheme, geometry, pi_polarization(Y_HAT), rho)
        assert np.all(scan.intensities >= 0)
        assert_allclose(scan.intensities[np.argmax(np.cos(scan.phases))], scan.intensities.max())
        assert_allclose(scan.intensities[np.argmin(np.cos(scan.phases))], scan.intensities.min())

    def test_translation_invariance(self, scheme, params):
        from atompair import Geometry

        rho = steady_state_analytic(params)
        eps = pi_polarization(Y_HAT)
        base = standard_geometry(0.5)
        shift = np.array([0.3, -1.2, 0.8])
        moved = Geometry(r_a=base.r_a + shift, r_b=base.r_b + shift, n_l=base.n_l)
        for theta in np.linspace(0, 2 * math.pi, 9):
            det = Detector(scan_direction("xy", theta), eps)
            i_base = intensity(scheme, base, det, rho, rho)
            i_moved = intensity(scheme, moved, det, rho, rho)
            assert_allclose(i_moved, i_base, atol=1e-13)

    def test_superposition_fringe_scaling(self, geometry):
        # pure two-level superpositions: fringe amplitude 2 |c_e c_g|^2
        scheme = two_level_scheme(1.0)
        eps = pi_polarization(Y_HAT)
        for c_e2 in (0.2, 0.5, 0.9):
            c_e, c_g = math.sqrt(c_e2), math.sqrt(1 - c_e2)
            rho = pure_state([c_e, c_g])
            vals = np.array(
                [
                    intensity(scheme, geometry, Detector(scan_direction("xy", t), eps), rho, rho)
                    for t in np.linspace(0, 2 * math.pi, 360, endpoint=False)
                ]
            )
            assert_allclose(0.5 * (vals.max() - vals.min()), 2 * (c_e * c_g) ** 2, atol=1e-12)

    def test_excited_pair_no_fringes(self, geometry):
        scheme = two_level_scheme(1.0)
        eps = pi_polarization(Y_HAT)
        rho = pure_state([1.0, 0.0])
        vals = [
            intensity(scheme, geometry, Detector(scan_direction("xy", t), eps), rho, rho)
            for t in np.linspace(0, 2 * math.pi, 60)
        ]
        assert max(vals) - min(vals) < 1e-14


class TestVisibilityClosedForm:
    def test_sigma_zero(self, params):
        assert intensity_visibility(params, sigma_polarization(Y_HAT)) == 0.0

    def test_weak_drive_limit(self):
        p = DriveDecayParams(g=1e-6, gamma0=0.5, gamma=0.5)
        assert abs(intensity_visibility(p, Z_HAT) - 1.0) < 1e-11

    def test_g_equals_gamma(self, params):
        assert_allclose(intensity_visibility(params, Z_HAT), 1.0 / 3.0, atol=1e-15)

    def test_matches_scan_for_mixed_polarization(self, scheme, geometry, params, rho):
        # closed form holds for analyzers mixing pi and sigma channels too
        eps = (pi_polarization(Y_HAT) + sigma_polarization(Y_HAT)) / math.sqrt(2)
        scan = intensity_scan(scheme, geometry, eps, rho)
        assert_allclose(scan.visibility, intensity_visibility(params, eps), atol=1e-12)
        assert_allclose(scan.visibility, 1.0 / 6.0, atol=1e-12)

    def test_any_scale(self, params):
        unit = intensity_visibility(params, Z_HAT)
        for scale in (1e200, 1e-200):
            assert intensity_visibility(params, scale * Z_HAT) == unit
        with pytest.raises(ValueError, match="nonzero"):
            intensity_visibility(params, [0.0, 0.0, 0.0])

    def test_rejects_undriven(self):
        with pytest.raises(ValueError):
            intensity_visibility(DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5), Z_HAT)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from atompair import (
    Detector,
    DriveDecayParams,
    build_liouvillian,
    conditioned_state,
    g2_exact,
    g2_exact_scan,
    g2_factorized,
    hg_level_scheme,
    intensity,
    intensity_exact,
    pair_field_matrix,
    standard_geometry,
    steady_state_analytic,
    steady_state_numeric,
    two_level_scheme,
    validation,
)
from atompair.atom_model import Y_HAT, sigma_polarization
from atompair.correlations import _pair_correlations
from atompair.dynamics import unvectorize, vectorize
from atompair.exact_oracle import _coincidences, _conditioned, _fields, _intensities, _pair_fields
from atompair.farfield import lowering_coefficients
from atompair.scans import scan_direction
from atompair.validation import _random_detectors

from conftest import random_params, random_transverse_detector
from reference import product_liouvillian, propagate


def marginals(rho_ab, dim=4):
    t = rho_ab.reshape(dim, dim, dim, dim)
    return np.einsum("ikjk->ij", t), np.einsum("kikj->ij", t)


class TestProductLiouvillian:
    def test_product_steady_state(self, scheme, params):
        liou = product_liouvillian(scheme, params)
        rho = steady_state_analytic(params)
        residual = np.linalg.norm(liou @ vectorize(np.kron(rho, rho)))
        assert residual < 1e-11

    def test_trace_preserving(self, scheme, params):
        liou = product_liouvillian(scheme, params)
        assert np.max(np.abs(vectorize(np.eye(16)) @ liou)) < 1e-12

    def test_marginals_evolve_independently(self, scheme, params):
        liou_pair = product_liouvillian(scheme, params)
        liou_one = build_liouvillian(scheme, params)
        rho_a0 = np.zeros((4, 4), complex)
        rho_a0[0, 0] = 1.0
        rho_b0 = np.zeros((4, 4), complex)
        rho_b0[1, 1] = 1.0
        rho_pair = propagate(liou_pair, np.kron(rho_a0, rho_b0), 4.0)
        marg_a, marg_b = marginals(rho_pair)
        assert np.max(np.abs(marg_a - propagate(liou_one, rho_a0, 4.0))) < 1e-9
        assert np.max(np.abs(marg_b - propagate(liou_one, rho_b0, 4.0))) < 1e-9

    def test_tensor_action(self, scheme, params):
        # L_AB vec(X x Y) = vec((L_A X) x Y + X x (L_B Y))
        liou_pair = product_liouvillian(scheme, params)
        liou_one = build_liouvillian(scheme, params)
        rng = np.random.default_rng(61)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lx = unvectorize(liou_one @ vectorize(x), 4)
        ly = unvectorize(liou_one @ vectorize(y), 4)
        got = unvectorize(liou_pair @ vectorize(np.kron(x, y)), 16)
        assert_allclose(got, np.kron(lx, y) + np.kron(x, ly), atol=1e-12)


class TestFactorizationTheorem:
    def test_random_detector_pairs(self, geometry):
        rng = np.random.default_rng(67)
        for _ in range(5):
            p = random_params(rng)
            scheme = hg_level_scheme(p)
            rho = steady_state_numeric(build_liouvillian(scheme, p))
            rho_pair = np.kron(rho, rho)
            for _ in range(10):
                det_1 = random_transverse_detector(rng)
                det_2 = random_transverse_detector(rng)
                fact = g2_factorized(scheme, geometry, det_1, det_2, rho)
                exact = g2_exact(scheme, geometry, det_1, det_2, rho_pair)
                assert abs(fact - exact) < 1e-10

    def test_intensity_agreement(self, scheme, geometry, params):
        rho = steady_state_analytic(params)
        rho_pair = np.kron(rho, rho)
        rng = np.random.default_rng(71)
        for _ in range(10):
            det = random_transverse_detector(rng)
            assert (
                abs(
                    intensity(scheme, geometry, det, rho, rho)
                    - intensity_exact(scheme, geometry, det, rho_pair)
                )
                < 1e-12
            )

    def test_entangled_state_breaks_factorization(self, scheme, geometry, params):
        # conditioning on a first detection entangles the pair; the
        # factorized formula applied to the marginal then disagrees
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        det_2 = Detector(scan_direction("xy", 1.2), eps)
        rho_pair = np.kron(steady_state_analytic(params), steady_state_analytic(params))
        cond = conditioned_state(scheme, geometry, det_1, rho_pair).normalized
        marg_a, marg_b = marginals(cond)
        assert np.linalg.norm(cond - np.kron(marg_a, marg_b)) > 0.1  # non-product
        exact = g2_exact(scheme, geometry, det_1, det_2, cond)
        fact = g2_factorized(scheme, geometry, det_1, det_2, marg_a)
        assert abs(exact - fact) > 1e-4


class TestSecondOrderInterference:
    def test_excited_pair_flat_intensity_full_g2(self, geometry, params):
        # both atoms excited, sigma detection: no first-order fringes, full
        # coincidence fringes
        scheme = hg_level_scheme(params)
        rho_e = np.zeros((4, 4), complex)
        rho_e[0, 0] = 1.0
        rho_pair = np.kron(rho_e, rho_e)
        eps = sigma_polarization(Y_HAT)
        det_1 = Detector(Y_HAT, eps)
        intensities = []
        coincidences = []
        for theta in np.linspace(0, 2 * math.pi, 360, endpoint=False):
            det = Detector(scan_direction("xy", theta), eps)
            intensities.append(intensity_exact(scheme, geometry, det, rho_pair))
            coincidences.append(g2_exact(scheme, geometry, det_1, det, rho_pair))
        intensities = np.array(intensities)
        coincidences = np.array(coincidences)
        assert intensities.max() - intensities.min() < 1e-14
        depth = (coincidences.max() - coincidences.min()) / (
            coincidences.max() + coincidences.min()
        )
        assert abs(depth - 1.0) < 1e-9

    def test_double_emission_blocks_vanish(self, scheme, geometry):
        # E+(1) E+(2) has no same-atom contribution: with one atom's phase
        # zeroed the product reduces to cross terms only
        rng = np.random.default_rng(73)
        det_1 = random_transverse_detector(rng)
        det_2 = random_transverse_detector(rng)
        e1 = pair_field_matrix(scheme, geometry, det_1)
        e2 = pair_field_matrix(scheme, geometry, det_2)
        from atompair.farfield import geometric_phase, lowering_coefficients

        c1 = lowering_coefficients(scheme, det_1.epsilon)
        c2 = lowering_coefficients(scheme, det_2.epsilon)
        eye = np.eye(4)
        # same-atom double emission terms are identically zero
        assert np.max(np.abs(np.kron(c1, eye) @ np.kron(c2, eye))) == 0.0
        assert np.max(np.abs(np.kron(eye, c1) @ np.kron(eye, c2))) == 0.0
        cross = (
            geometric_phase(geometry, det_2, "A")
            * geometric_phase(geometry, det_1, "B")
            * np.kron(c2, c1)
            + geometric_phase(geometry, det_1, "A")
            * geometric_phase(geometry, det_2, "B")
            * np.kron(c1, c2)
        )
        assert_allclose(e2 @ e1, cross, atol=1e-15)


class TestConditionedState:
    def test_identity_with_g2(self, scheme, geometry, params):
        rho_pair = np.kron(steady_state_analytic(params), steady_state_analytic(params))
        rng = np.random.default_rng(79)
        for _ in range(10):
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            cond = conditioned_state(scheme, geometry, det_1, rho_pair)
            via = intensity_exact(scheme, geometry, det_2, cond.unnormalized)
            exact = g2_exact(scheme, geometry, det_1, det_2, rho_pair)
            assert abs(via - exact) < 1e-12

    def test_rate_is_detector_intensity(self, scheme, geometry, params):
        rho_pair = np.kron(steady_state_analytic(params), steady_state_analytic(params))
        det = Detector(Y_HAT, sigma_polarization(Y_HAT))
        cond = conditioned_state(scheme, geometry, det, rho_pair)
        assert_allclose(cond.rate, intensity_exact(scheme, geometry, det, rho_pair), atol=1e-15)
        assert_allclose(cond.normalized.trace(), 1.0, atol=1e-12)

    def test_conditioning_entangles(self, scheme, geometry, params):
        rho_pair = np.kron(steady_state_analytic(params), steady_state_analytic(params))
        det = Detector(Y_HAT, sigma_polarization(Y_HAT))
        cond = conditioned_state(scheme, geometry, det, rho_pair).normalized
        marg_a, marg_b = marginals(cond)
        assert np.linalg.norm(cond - np.kron(marg_a, marg_b)) > 0.1

    def test_zero_rate_error_dark_state(self, scheme, geometry):
        # all population in the ground levels: nothing radiates
        rho_g = np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)
        rho_pair = np.kron(rho_g, rho_g)
        det = Detector(Y_HAT, sigma_polarization(Y_HAT))
        with pytest.raises(ValueError, match="zero detection rate"):
            conditioned_state(scheme, geometry, det, rho_pair)

    def test_zero_rate_error_dark_analyzer(self, geometry):
        # two-level atoms radiate pi light only; a z-dark analyzer sees nothing
        # (for the four-level scheme no analyzer is dark: the channel dipoles
        # span every polarization)
        from atompair import two_level_scheme

        scheme = two_level_scheme(1.0)
        rho = np.diag([0.4, 0.6]).astype(complex)
        rho_pair = np.kron(rho, rho)
        det = Detector(Y_HAT, sigma_polarization(Y_HAT))
        with pytest.raises(ValueError, match="zero detection rate"):
            conditioned_state(scheme, geometry, det, rho_pair)

    def test_dimension_mismatch(self, scheme, geometry):
        det = Detector(Y_HAT, sigma_polarization(Y_HAT))
        with pytest.raises(ValueError, match="shape"):
            g2_exact(scheme, geometry, det, det, np.eye(4, dtype=complex) / 4)

    def test_non_finite_pair_state(self, scheme, geometry, rho):
        # unchecked, a NaN entry gives nan rates that pass every realness check
        det = Detector(Y_HAT, sigma_polarization(Y_HAT))
        eps = det.epsilon
        rho = rho.copy()
        rho[0, 0] = np.nan
        rho_pair = np.kron(rho, rho)
        calls = [
            lambda: g2_exact(scheme, geometry, det, det, rho_pair),
            lambda: intensity_exact(scheme, geometry, det, rho_pair),
            lambda: conditioned_state(scheme, geometry, det, rho_pair),
            lambda: g2_exact_scan(scheme, geometry, eps, eps, rho, n_points=8),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestStackedKernels:
    """The kernels take one detector pair per row; the point functions are the stack of one."""

    @pytest.mark.parametrize("scheme_name", ["four-level", "two-level"])
    def test_stacked_pairs_match_per_pair_calls(self, scheme_name):
        rng = np.random.default_rng(89)
        params = DriveDecayParams(g=0.7, gamma0=0.3, gamma=0.5)
        schemes = {"four-level": hg_level_scheme(params), "two-level": two_level_scheme(params.total)}
        scheme = schemes[scheme_name]
        # a drive with a component along the atom axis, so every phase is nontrivial
        geometry = standard_geometry(0.8, (0.3, 0.5, 0.2))
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        rho_pair = np.kron(rho, rho)
        # the kernels evaluate all 50 pairs in one call, as validate's oracle group does
        n, eps = (x.reshape(50, 2, 3) for x in _random_detectors(rng, 100))
        pair = (n[:, 0], eps[:, 0], n[:, 1], eps[:, 1])
        e_1, e_2 = _fields(scheme, geometry, *pair[:2]), _fields(scheme, geometry, *pair[2:])
        exact = _coincidences(e_1, e_2, rho_pair)
        conditioned, rates = _conditioned(e_1, rho_pair)
        via_cond = _intensities(e_2, conditioned)
        fact = _pair_correlations(scheme, geometry, *pair, rho)[0]
        dets = [(Detector(n_1, e_1), Detector(n_2, e_2)) for n_1, e_1, n_2, e_2 in zip(*pair)]
        cond = [conditioned_state(scheme, geometry, det_1, rho_pair) for det_1, _ in dets]
        via = [intensity_exact(scheme, geometry, d[1], c.unnormalized) for d, c in zip(dets, cond)]
        columns = {
            "g2_exact": (exact, [g2_exact(scheme, geometry, *d, rho_pair) for d in dets]),
            "rate": (rates, [c.rate for c in cond]),
            "conditioned": (conditioned, [c.unnormalized for c in cond]),
            "via_cond": (via_cond, via),
            "g2_factorized": (fact, [g2_factorized(scheme, geometry, *d, rho) for d in dets]),
        }
        for name, (stacked, per_pair) in columns.items():
            per_pair = np.asarray(per_pair)
            assert stacked.shape == per_pair.shape, name
            assert np.max(np.abs(stacked - per_pair)) <= 1e-15 * np.max(np.abs(per_pair)), name

    @pytest.mark.parametrize("scheme_name", ["four-level", "two-level"])
    def test_unit_phase_rows_are_the_kronecker_products(self, scheme_name):
        # the scan kernel's B_A and B_B come from the builder's identity rows, not np.kron
        params = DriveDecayParams(g=0.7, gamma0=0.3, gamma=0.5)
        scheme = hg_level_scheme(params) if scheme_name == "four-level" else two_level_scheme(1.0)
        eps = np.array([1.0, 0.5j, 1.0]) / 1.5
        coeff, eye = lowering_coefficients(scheme, eps), np.eye(scheme.n_levels)
        b_a, b_b = _pair_fields(scheme, np.eye(2), eps)
        assert np.array_equal(b_a, np.kron(coeff, eye))
        assert np.array_equal(b_b, np.kron(eye, coeff))

    @pytest.mark.parametrize("count", [1, 2, 37])
    def test_random_detectors_match_sequential_draws(self, count):
        batch_rng = np.random.default_rng(97)
        serial_rng = np.random.default_rng(97)
        n, eps = _random_detectors(batch_rng, count)
        dets = [random_transverse_detector(serial_rng) for _ in range(count)]
        assert n.shape == eps.shape == (count, 3)
        np.testing.assert_array_max_ulp(n, np.array([d.n for d in dets]), maxulp=1)
        np.testing.assert_array_max_ulp(
            eps.view(float), np.array([d.epsilon for d in dets]).view(float), maxulp=1
        )
        assert batch_rng.bit_generator.state == serial_rng.bit_generator.state

    def test_random_detectors_reject_a_non_transverse_row(self, monkeypatch):
        # a second basis vector along n leaves every analyzer a component along n
        monkeypatch.setattr(validation.np, "cross", lambda n, e1: n)
        with pytest.raises(ValueError, match="not transverse"):
            _random_detectors(np.random.default_rng(101), 5)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from atompair import (
    Detector,
    DriveDecayParams,
    Geometry,
    Transition,
    intensity_visibility,
    make_detector,
    pi_polarization,
    pure_state,
    sigma_polarization,
    standard_geometry,
    transverse_basis,
    two_level_scheme,
)
from atompair.atom_model import SIGMA_MINUS, X_HAT, Y_HAT, Z_HAT


def transition_map(scheme):
    return {(t.upper, t.lower): t for t in scheme.transitions}


class TestHgScheme:
    def test_structure(self, scheme):
        assert scheme.n_levels == 4
        assert scheme.excited_levels == {0, 2}
        trans = transition_map(scheme)
        assert set(trans) == {(0, 1), (2, 3), (0, 3), (2, 1)}
        assert trans[0, 1].driven and trans[2, 3].driven
        assert not trans[0, 3].driven and not trans[2, 1].driven

    def test_dipoles(self, scheme):
        # pi components carry 1/sqrt(6), sigma components 1/sqrt(3); the
        # 1:2 branching makes the summed projection weight isotropic
        trans = transition_map(scheme)
        assert_allclose(trans[0, 1].dipole, -Z_HAT / math.sqrt(6), atol=1e-15)
        assert_allclose(trans[2, 3].dipole, +Z_HAT / math.sqrt(6), atol=1e-15)
        assert_allclose(trans[0, 3].dipole, SIGMA_MINUS / math.sqrt(3), atol=1e-15)
        assert_allclose(trans[2, 1].dipole, SIGMA_MINUS.conj() / math.sqrt(3), atol=1e-15)

    def test_rates(self, scheme, params):
        trans = transition_map(scheme)
        assert trans[0, 1].decay_rate == trans[2, 3].decay_rate == 2 * params.gamma0
        assert trans[0, 3].decay_rate == trans[2, 1].decay_rate == 2 * params.gamma

    def test_selection_rules(self, scheme):
        trans = transition_map(scheme)
        d_21, d_41, d_23 = trans[0, 1].dipole, trans[0, 3].dipole, trans[2, 1].dipole
        # sigma dipoles have no z component; pi dipole orthogonal to sigma basis
        assert abs(Z_HAT @ d_41) < 1e-15
        assert abs(Z_HAT @ d_23) < 1e-15
        assert abs(np.vdot(SIGMA_MINUS, d_21)) < 1e-15
        # d_41 and d_23 orthogonal in the Hermitian inner product
        assert abs(np.vdot(d_41, d_23)) < 1e-15
        # pi pair antiparallel, sigma pair conjugate
        assert_allclose(trans[2, 3].dipole, -d_21, atol=1e-15)
        assert_allclose(d_23, d_41.conj(), atol=1e-15)

    def test_sigma_weight(self, scheme):
        d_41 = transition_map(scheme)[0, 3].dipole
        assert abs(np.vdot(d_41, d_41).real - 1.0 / 3.0) < 1e-15

    def test_projection_weight_isotropic(self, scheme):
        # sum_t |eps^dag d_t|^2 = 1/3 for every unit eps
        rng = np.random.default_rng(3)
        for _ in range(20):
            eps = rng.normal(size=3) + 1j * rng.normal(size=3)
            eps /= np.linalg.norm(eps)
            total = sum(abs(np.vdot(eps, t.dipole)) ** 2 for t in scheme.transitions)
            assert abs(total - 1.0 / 3.0) < 1e-14


class TestTwoLevelScheme:
    def test_structure(self):
        scheme = two_level_scheme(1.0)
        assert scheme.n_levels == 2
        (t,) = scheme.transitions
        assert (t.upper, t.lower) == (0, 1)
        assert t.driven
        assert t.decay_rate == 2.0
        assert_allclose(t.dipole, Z_HAT.astype(complex))

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            two_level_scheme(0.0)


class TestParams:
    def test_total(self, params):
        assert params.total == 1.0

    def test_rejects_no_relaxation(self):
        with pytest.raises(ValueError):
            DriveDecayParams(g=1.0, gamma0=0.0, gamma=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DriveDecayParams(g=-1.0, gamma0=0.5, gamma=0.5)
        with pytest.raises(ValueError):
            DriveDecayParams(g=1.0, gamma0=-0.5, gamma=1.0)

    def test_undriven_allowed(self):
        assert DriveDecayParams(g=0.0, gamma0=0.5, gamma=0.5).g == 0.0


class TestTransverseBasis:
    def test_along_x(self):
        e1, e2 = transverse_basis(X_HAT)
        assert_allclose(e1, Z_HAT.astype(complex), atol=1e-15)
        assert abs(np.vdot(e1, e2)) < 1e-15

    def test_degenerate_convention(self):
        e1, e2 = transverse_basis(Z_HAT)
        assert_allclose(e1, X_HAT.astype(complex), atol=1e-15)
        assert_allclose(e2, Y_HAT.astype(complex), atol=1e-15)

    def test_rejects_non_unit(self):
        # one vector, and a stack with one non-unit row
        for n in ([0.0, 0.0, 2.0], [X_HAT, Y_HAT, [0.0, 0.0, 2.0]]):
            with pytest.raises(ValueError, match="n must be a unit vector"):
                transverse_basis(n)

    def test_stack_rows_are_one_at_a_time_calls(self):
        # random rows, plus rows on the along-z branch: +z, -z and 1e-9 from z
        rng = np.random.default_rng(13)
        n = np.vstack([rng.normal(size=(20, 3)), Z_HAT, -Z_HAT, [1e-9, 0.0, 1.0]])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        e1, e2 = transverse_basis(n)
        assert e1.shape == e2.shape == n.shape
        for k, row in enumerate(n):
            one = transverse_basis(row)
            assert e1[k].tobytes() == one[0].tobytes() and e2[k].tobytes() == one[1].tobytes()
        assert np.array_equal(e1[-3:], np.tile(X_HAT, (3, 1)))

    def test_orthonormal_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            e1, e2 = transverse_basis(n)
            for e in (e1, e2):
                assert abs(np.vdot(e, n)) < 1e-12
                assert abs(np.vdot(e, e).real - 1.0) < 1e-12
            assert abs(np.vdot(e1, e2)) < 1e-12
            # completeness: n n^T + e1 e1^dag + e2 e2^dag = 1
            recon = np.outer(n, n) + np.outer(e1, e1.conj()) + np.outer(e2, e2.conj())
            assert np.max(np.abs(recon - np.eye(3))) < 1e-12


class TestPolarizationKeywords:
    def test_pi_in_xy_plane_is_z(self):
        assert_allclose(pi_polarization(Y_HAT), Z_HAT.astype(complex), atol=1e-15)

    def test_sigma_at_y_is_x(self):
        assert_allclose(sigma_polarization(Y_HAT), X_HAT.astype(complex), atol=1e-15)

    def test_sigma_at_z_is_circular(self):
        assert_allclose(sigma_polarization(Z_HAT), SIGMA_MINUS, atol=1e-15)

    def test_null_projection_rejected(self):
        with pytest.raises(ValueError, match="pi"):
            pi_polarization(Z_HAT)

    def test_keywords_orthogonal_in_xy(self):
        assert abs(np.vdot(pi_polarization(Y_HAT), sigma_polarization(Y_HAT))) < 1e-15


class TestDetector:
    def test_unit_checks(self):
        with pytest.raises(ValueError):
            Detector([0, 2, 0], Z_HAT)
        with pytest.raises(ValueError):
            Detector(Y_HAT, 2 * Z_HAT)

    def test_make_detector_enforces_transversality(self):
        make_detector(Y_HAT, Z_HAT)
        with pytest.raises(ValueError, match="transverse"):
            make_detector(Y_HAT, Y_HAT)

    def test_plain_constructor_permits_matched_analyzers(self):
        # scans hold the reference analyzer fixed while the direction moves
        det = Detector(X_HAT, sigma_polarization(Y_HAT))
        assert det.transversality_defect() > 0.9


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: standard_geometry(0.5, (0.0, 0.0, 0.0)), "n_l must be a unit vector"),
        (lambda: standard_geometry(NAN), "separation must be > 0"),
        (lambda: Detector([NAN, 0.0, 0.0], Z_HAT), "n must be a unit vector"),
        (lambda: Detector(Y_HAT, [NAN, 0.0, 0.0]), "eps must satisfy"),
        (lambda: transverse_basis([NAN, 0.0, 0.0]), "n must be a unit vector"),
        (lambda: DriveDecayParams(g=NAN, gamma0=0.5, gamma=0.5), "g must be >= 0"),
        (lambda: DriveDecayParams(g=1.0, gamma0=NAN, gamma=0.5), "half-rates must be >= 0"),
        (lambda: DriveDecayParams(g=1.0, gamma0=0.5, gamma=NAN), "half-rates must be >= 0"),
        (lambda: two_level_scheme(NAN), "gamma must be > 0"),
        (lambda: Transition(upper=0, lower=1, dipole=Z_HAT, decay_rate=NAN), "decay rate"),
    ],
    ids=[
        "zero_drive_direction",
        "nan_separation",
        "nan_direction",
        "nan_analyzer",
        "nan_basis_direction",
        "nan_g",
        "nan_gamma0",
        "nan_gamma",
        "nan_two_level_gamma",
        "nan_decay_rate",
    ],
)
def test_validators_reject_nan(build, message):
    with pytest.raises(ValueError, match=message):
        build()


PARAMS = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)


# each case raises ValueError before any arithmetic that would warn
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pure_state([INF, 0.0]), "entries must be finite"),
        (lambda: pure_state([NAN, 0.0]), "entries must be finite"),
        (lambda: intensity_visibility(PARAMS, [0.0, 0.0, INF]), "entries must be finite"),
        (lambda: standard_geometry(0.5, (0.0, INF, 0.0)), "entries must be finite"),
        (lambda: standard_geometry(INF), "separation must be > 0 and finite"),
        (lambda: DriveDecayParams(g=INF, gamma0=0.5, gamma=0.5), "g must be >= 0 and finite"),
        (lambda: DriveDecayParams(g=1.0, gamma0=INF, gamma=0.5), "half-rates must be >= 0 and finite"),
        (lambda: DriveDecayParams(g=1.0, gamma0=0.5, gamma=INF), "half-rates must be >= 0 and finite"),
        (lambda: Transition(upper=0, lower=1, dipole=Z_HAT, decay_rate=INF), "decay rate"),
        (lambda: Geometry(r_a=[INF, 0.0, 0.0], r_b=[0.0, 0.0, 0.0], n_l=Y_HAT), "positions must be finite"),
        (lambda: Geometry(r_a=[0.0, 0.0, 0.0], r_b=[0.0, NAN, 0.0], n_l=Y_HAT), "positions must be finite"),
    ],
    ids=[
        "inf_amplitude",
        "nan_amplitude",
        "inf_visibility_analyzer",
        "inf_drive_direction",
        "inf_separation",
        "inf_g",
        "inf_gamma0",
        "inf_gamma",
        "inf_decay_rate",
        "inf_position",
        "nan_position",
    ],
)
def test_validators_reject_non_finite(build, message):
    with pytest.raises(ValueError, match=message):
        build()

import itertools
import tracemalloc

import numpy as np
import pytest

from atompair import (
    Detector,
    DriveDecayParams,
    build_liouvillian,
    g2_exact,
    g2_normalized_closed_form,
    hg_level_scheme,
    intensity,
    pure_state,
    standard_geometry,
    steady_state_numeric,
    two_level_scheme,
)
from atompair import exact_oracle
from atompair.scans import (
    g2_exact_scan,
    g2_scan,
    intensity_scan,
    reference_direction,
    scan_angles,
    scan_direction,
)

from conftest import patch_aliases
from reference import g2_exact_per_point

PARAMS = DriveDecayParams(g=0.7, gamma0=0.3, gamma=0.5)
# separation 0.8 and a drive with a component along the atom axis (x), so the
# drive-relative phase psi of the fixed detector is nonzero
GEOMETRY = standard_geometry(0.8, (0.3, 0.5, 0.2))
SCHEMES = {"four-level": hg_level_scheme(PARAMS), "two-level": two_level_scheme(PARAMS.total)}
# scans take any single-atom state: pure superpositions that are not stationary
# (four-level order: excited 0, 2; ground 1, 3)
SUPERPOSITIONS = {
    "four-level": pure_state([0.6, 0.3j, 0.5, -0.4 + 0.2j]),
    "two-level": pure_state([0.6, 0.8j]),
}


def unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


# the scans hold the analyzers fixed while the direction moves, so they need
# not be transverse; each has a z component so the two-level atom is never dark
ANALYZER_PAIRS = (
    (unit([1.0, 0.5j, 1.0]), unit([1.0, 0.5j, 1.0])),
    (unit([1.0, 0.5j, 1.0]), unit([0.3, 1.0, -0.5 + 0.2j])),
)


@pytest.mark.parametrize("plane", ["xy", "xz"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_scan_kernel_matches_operator_route(scheme_name, plane):
    scheme = SCHEMES[scheme_name]
    steady = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    assert abs(GEOMETRY.n_l @ GEOMETRY.separation) > 0.1
    for rho, (eps_1, eps_2) in itertools.product((steady, SUPERPOSITIONS[scheme_name]), ANALYZER_PAIRS):
        scan = intensity_scan(scheme, GEOMETRY, eps_1, rho, plane=plane, n_points=37)
        per_angle = np.array(
            [
                intensity(scheme, GEOMETRY, Detector(scan_direction(plane, theta), eps_1), rho, rho)
                for theta in scan.angles
            ]
        )
        np.testing.assert_allclose(scan.intensities, per_angle, rtol=1e-14, atol=0)

        g2 = g2_scan(scheme, GEOMETRY, eps_1, eps_2, rho, plane=plane, n_points=37)
        exact = g2_exact_scan(scheme, GEOMETRY, eps_1, eps_2, rho, plane=plane, n_points=37)
        assert np.max(np.abs(g2.g2_factorized - exact)) < 1e-12
        # the closed form describes the steady state only
        if scheme_name == "four-level" and rho is steady:
            det_1 = Detector(reference_direction(plane), eps_1)
            closed = np.array(
                [
                    g2_normalized_closed_form(
                        GEOMETRY, PARAMS, det_1, Detector(scan_direction(plane, theta), eps_2)
                    )
                    for theta in g2.angles
                ]
            )
            assert np.max(np.abs(g2.g2_normalized - closed)) < 1e-10


def test_g2_scan_never_reaches_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("g2_scan called the product-space oracle")

    # the point query and the stacked evaluation that g2_exact_scan goes through
    for target in (exact_oracle.g2_exact, exact_oracle._g2_exact_stack):
        assert (exact_oracle, target.__name__) in patch_aliases(monkeypatch, target, refuse)
    scheme = SCHEMES["four-level"]
    rho = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    eps_1, eps_2 = ANALYZER_PAIRS[1]
    scan = g2_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=36)
    assert scan.g2_factorized.shape == (36,)
    with pytest.raises(AssertionError, match="oracle"):
        g2_exact_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=36)


# 15, 16 and 17 points straddle one evaluation block of the stacked oracle
@pytest.mark.parametrize("n_points", [2, 15, 16, 17, 361])
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_stacked_oracle_matches_per_point_formula(scheme_name, n_points):
    scheme = SCHEMES[scheme_name]
    steady = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    directions = scan_direction("xy", scan_angles(n_points))
    for rho, (eps_1, eps_2) in itertools.product((steady, SUPERPOSITIONS[scheme_name]), ANALYZER_PAIRS):
        rho_pair = np.kron(rho, rho)
        det_1 = Detector(reference_direction("xy"), eps_1)
        dets_2 = [Detector(n, eps_2) for n in directions]
        expected = np.array([g2_exact_per_point(scheme, GEOMETRY, det_1, d, rho_pair) for d in dets_2])
        scale = np.max(np.abs(expected))
        column = g2_exact_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=n_points)
        points = np.array([g2_exact(scheme, GEOMETRY, det_1, d, rho_pair) for d in dets_2])
        assert column.shape == (n_points,)
        assert np.max(np.abs(column - expected)) <= 1e-15 * scale
        assert np.max(np.abs(points - expected)) <= 1e-15 * scale


def test_stacked_oracle_rejects_a_non_hermitian_pair_state():
    scheme = SCHEMES["four-level"]
    rng = np.random.default_rng(83)
    rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    eps_1, eps_2 = ANALYZER_PAIRS[1]
    with pytest.raises(ValueError, match="coincidence rate should be real"):
        g2_exact_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=17)
    det_1 = Detector(reference_direction("xy"), eps_1)
    det_2 = Detector(scan_direction("xy", 1.0), eps_2)
    with pytest.raises(ValueError, match="coincidence rate should be real"):
        g2_exact(scheme, GEOMETRY, det_1, det_2, np.kron(rho, rho))


def test_stacked_oracle_memory_stays_flat():
    scheme = SCHEMES["four-level"]
    rho = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    eps_1, eps_2 = ANALYZER_PAIRS[1]
    tracemalloc.start()
    try:
        g2_exact_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=3600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (3600, 16, 16) complex stack of field operators alone takes 14.7 MB
    assert peak < 2e6

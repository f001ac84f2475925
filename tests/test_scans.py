import itertools
import tracemalloc

import numpy as np
import pytest

from atompair import (
    Detector,
    DriveDecayParams,
    build_liouvillian,
    correlation_point,
    g2_exact,
    g2_factorized,
    g2_normalized_closed_form,
    hg_level_scheme,
    intensity,
    pure_state,
    standard_geometry,
    steady_state_numeric,
    two_level_scheme,
)
from atompair import config, exact_oracle, scans
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

    # the point query, the coincidence kernel behind it and validate, and the scan kernel that
    # g2_exact_scan goes through
    for target in (exact_oracle.g2_exact, exact_oracle._coincidences, exact_oracle._g2_exact_scan):
        assert (exact_oracle, target.__name__) in patch_aliases(monkeypatch, target, refuse)
    scheme = SCHEMES["four-level"]
    rho = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    eps_1, eps_2 = ANALYZER_PAIRS[1]
    scan = g2_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=36)
    assert scan.g2_factorized.shape == (36,)
    with pytest.raises(AssertionError, match="oracle"):
        g2_exact_scan(scheme, GEOMETRY, eps_1, eps_2, rho, n_points=36)


@pytest.mark.parametrize("analyzer", [[np.nan, 0.0, 1.0], [0.0, 0.0, 2.0]], ids=["nan", "norm-2"])
@pytest.mark.parametrize("scan", [intensity_scan, g2_scan, g2_exact_scan], ids=lambda f: f.__name__)
def test_scans_reject_an_analyzer_that_is_not_a_unit_vector(scan, analyzer):
    # unchecked, a NaN entry gives all-NaN columns and a norm of 2 scales intensities by 4
    scheme = SCHEMES["four-level"]
    rho = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    good = ANALYZER_PAIRS[1][0]
    slots = [(analyzer,)] if scan is intensity_scan else [(analyzer, good), (good, analyzer)]
    for analyzers in slots:
        with pytest.raises(ValueError, match="polarization eps must satisfy"):
            scan(scheme, GEOMETRY, *analyzers, rho)


# 15, 16 and 17 points sit on both sides of a power of two; neither g2_exact_scan nor the
# coincidence kernel behind g2_exact splits its rows, so every count gives the same values
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


def random_entangled_pair_state(rng, d):
    """Rank-2 random pair state, checked entangled by a negative partial transpose."""
    amplitudes = rng.normal(size=(d * d, 2)) + 1j * rng.normal(size=(d * d, 2))
    rho_ab = amplitudes @ amplitudes.conj().T
    partial_transpose = rho_ab.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    assert np.min(np.linalg.eigvalsh(partial_transpose)) < 0
    return rho_ab / np.trace(rho_ab).real


@pytest.mark.parametrize("plane", ["xy", "xz"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_scan_kernel_matches_per_point_formula_on_any_pair_state(scheme_name, plane):
    # the kernel takes any pair state, not only rho (x) rho; the ground-state pair is dark, so
    # it must return zeros where the conditioned-state route raises on its zero detection rate
    scheme = SCHEMES[scheme_name]
    d = scheme.n_levels
    ground = np.zeros((d * d, d * d), dtype=complex)
    ground[d + 1, d + 1] = 1.0  # |1> (x) |1>, ground level 1 in both schemes
    directions = scan_direction(plane, scan_angles(37))
    entangled = random_entangled_pair_state(np.random.default_rng(29), d)
    for eps_1, eps_2 in ANALYZER_PAIRS:
        det_1 = Detector(reference_direction(plane), eps_1)
        column = exact_oracle._g2_exact_scan(scheme, GEOMETRY, det_1, directions, eps_2, entangled)
        expected = np.array(
            [g2_exact_per_point(scheme, GEOMETRY, det_1, Detector(n, eps_2), entangled) for n in directions]
        )
        assert np.max(np.abs(column - expected)) <= 1e-15 * np.max(np.abs(expected))
        dark = exact_oracle._g2_exact_scan(scheme, GEOMETRY, det_1, directions, eps_2, ground)
        assert np.array_equal(dark, np.zeros(37))


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_scan_kernel_builds_no_kronecker_product(monkeypatch, scheme_name):
    # B_A = kron(c2, 1) and B_B = kron(1, c2) come from the pair-field builder
    scheme = SCHEMES[scheme_name]
    rho_pair = np.kron(SUPERPOSITIONS[scheme_name], SUPERPOSITIONS[scheme_name])
    eps_1, eps_2 = ANALYZER_PAIRS[1]
    det_1 = Detector(reference_direction("xy"), eps_1)
    directions = scan_direction("xy", scan_angles(36))
    expected = exact_oracle._g2_exact_scan(scheme, GEOMETRY, det_1, directions, eps_2, rho_pair)

    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(exact_oracle.np, "kron", refuse)
    column = exact_oracle._g2_exact_scan(scheme, GEOMETRY, det_1, directions, eps_2, rho_pair)
    assert np.array_equal(column, expected)


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


def test_real_traces_name_the_first_value_that_is_not_real():
    # each value on its own scale: 1e-8 i is real next to 1e3, not next to 1
    values = np.array([1e3 + 1e-8j, 2.0, 1.0 + 1e-8j, 1.0 - 5e-3j, np.nan + 1j])
    reals = exact_oracle._real_traces(values[:2], "rate")
    assert reals.tobytes() == np.array([1e3, 2.0]).tobytes()
    with pytest.raises(ValueError, match=r"^rate should be real, got imaginary part 1\.000e-08$"):
        exact_oracle._real_traces(values, "rate")
    with pytest.raises(ValueError, match=r"imaginary part -5\.000e-03$"):
        exact_oracle._real_traces(values[3:], "rate")


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


SINGLE_ATOM_ENTRY_POINTS = {
    "g2_factorized": lambda s, g, d, rho: g2_factorized(s, g, d, d, rho),
    "correlation_point": lambda s, g, d, rho: correlation_point(s, g, PARAMS, d, d, rho=rho),
    "intensity_scan": lambda s, g, d, rho: intensity_scan(s, g, d.epsilon, rho, n_points=8),
    "g2_scan": lambda s, g, d, rho: g2_scan(s, g, d.epsilon, d.epsilon, rho, n_points=8),
    "g2_exact_scan": lambda s, g, d, rho: g2_exact_scan(s, g, d.epsilon, d.epsilon, rho, n_points=8),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(SINGLE_ATOM_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_single_atom_state(entry, bad):
    # unchecked, the traces of such a state are nan with no error, and np.kron of an infinite
    # entry warns before the pair-state check can reject it
    scheme = SCHEMES["four-level"]
    rho = steady_state_numeric(build_liouvillian(scheme, PARAMS))
    rho[0, 0] = bad
    det = Detector(reference_direction("xy"), unit([1.0, 0.5j, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        SINGLE_ATOM_ENTRY_POINTS[entry](scheme, GEOMETRY, det, rho)


def test_scan_plane_rule_stated_once():
    # one table of planes: both plane functions reject the same way, and the config offers its keys
    for plane_function in (lambda plane: scan_direction(plane, 0.0), reference_direction):
        with pytest.raises(ValueError, match=r"^scan plane must be one of \('xy', 'xz'\), got 'yz'$"):
            plane_function("yz")
    assert config._CHOICES["scan_plane"] == tuple(scans._PLANES)

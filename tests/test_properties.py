"""Property tests of the paper's central claim over drawn drives, decay rates and analyzers.

Two atoms driven on the four-level scheme keep the coincidence fringe contrast
|eps1^dag . eps2|^2 at every drive strength, while the pi intensity fringe fades
as Gamma^2/(2 g^2 + Gamma^2) (Eichmann et al., PRL 70, 2359 (1993); Itano et al.,
PRA 57, 4176 (1998)).  The scans sample the fringes of the steady state; the
closed forms carry no state at all.

g/Gamma is drawn from [1e-2, 1e2]: below that the null-space steady state loses
digits to the slow optical pumping and the depth errs by up to 2.2e-9 at
g/Gamma in [1e-4, 1e-3).

The single-atom Liouvillian carries no such loss, so its property test draws
g/Gamma from [1e-8, 1e2] and either decay half-rate from [0, 2], on both schemes.

The scans hold for any geometry the config accepts, not only the default one
(separation lambda/2, drive along +y, a point count divisible by 4): their
property test draws the separation, the drive direction, the point count, the
plane, the scheme and the pi/sigma analyzers, and compares both scans with the
product-space oracle on rho (x) rho.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atompair import (
    Detector,
    DriveDecayParams,
    build_liouvillian,
    hg_level_scheme,
    intensity_visibility,
    modulation_depth,
    standard_geometry,
    steady_state_numeric,
    two_level_scheme,
)
from atompair.dynamics import drive_hamiltonian, vectorize
from atompair.exact_oracle import _fields, _intensities
from atompair.scans import (
    g2_exact_scan,
    g2_scan,
    intensity_scan,
    reference_direction,
    resolve_polarization,
    scan_direction,
)

from reference import jump_operators, liouvillian_matrix

GEOMETRY = standard_geometry(0.5)
N_REF = reference_direction("xy")
EPS_PI = resolve_polarization("pi", N_REF)

rates = st.floats(0.1, 2.0)
# (x, y, z) complex components; the y part is along the reference direction and is projected out
analyzers = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(
    lambda parts: np.array(parts[:3]) + 1j * np.array(parts[3:])
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(log_drive=st.floats(-2.0, 2.0), gamma0=rates, gamma=rates, vector_1=analyzers, vector_2=analyzers)
def test_coincidence_contrast_is_drive_free_and_intensity_contrast_fades(
    log_drive, gamma0, gamma, vector_1, vector_2
):
    for vector in (vector_1, vector_2):
        assume(np.linalg.norm(vector[[0, 2]]) > 1e-3)
    params = DriveDecayParams(g=(gamma0 + gamma) * 10.0**log_drive, gamma0=gamma0, gamma=gamma)
    scheme = hg_level_scheme(params)
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    eps_1, eps_2 = (resolve_polarization("custom", N_REF, v) for v in (vector_1, vector_2))

    depth = g2_scan(scheme, GEOMETRY, eps_1, eps_2, rho).modulation_depth
    assert abs(depth - modulation_depth(Detector(N_REF, eps_1), Detector(N_REF, eps_2))) < 1e-12
    visibility = intensity_scan(scheme, GEOMETRY, EPS_PI, rho).visibility
    assert abs(visibility - intensity_visibility(params, EPS_PI)) < 1e-12


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(log_drive=st.floats(-8.0, 2.0), gamma0=st.floats(0.0, 2.0), gamma=st.floats(0.0, 2.0))
def test_liouvillian_matches_kronecker_reference_and_preserves_trace(log_drive, gamma0, gamma):
    # a positive total; below 1e-300 the bound 1e-15 max|L| would fall under L's own rounding
    assume(gamma0 + gamma >= 1e-300)
    params = DriveDecayParams(g=(gamma0 + gamma) * 10.0**log_drive, gamma0=gamma0, gamma=gamma)
    for scheme in (hg_level_scheme(params), two_level_scheme(params.total)):
        liou = build_liouvillian(scheme, params)
        scale = np.max(np.abs(liou))
        kron = liouvillian_matrix(drive_hamiltonian(scheme, params), jump_operators(scheme))
        assert np.max(np.abs(liou - kron)) <= 1e-15 * scale
        assert np.linalg.norm(vectorize(np.eye(scheme.n_levels)) @ liou) <= 1e-15 * scale


# (two-level scheme, plane, analyzers) with light at both detectors: pi is undefined at +z,
# the xz reference direction, and the two-level atom emits no sigma light
SCAN_CASES = [(False, "xy", k1, k2) for k1 in ("pi", "sigma") for k2 in ("pi", "sigma")]
SCAN_CASES += [(False, "xz", "sigma", "sigma"), (True, "xy", "pi", "pi")]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    separation=st.floats(0.2, 3.0),
    polar=st.floats(0.0, np.pi),
    azimuth=st.floats(0.0, 2.0 * np.pi),
    scan_points=st.integers(5, 97),
    case=st.sampled_from(SCAN_CASES),
    log_drive=st.floats(-2.0, 2.0),
)
def test_scans_match_the_oracle_at_any_geometry(
    separation, polar, azimuth, scan_points, case, log_drive
):
    two_level, plane, *kinds = case
    params = DriveDecayParams(g=10.0**log_drive, gamma0=0.5, gamma=0.5)
    scheme = two_level_scheme(params.total) if two_level else hg_level_scheme(params)
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    drive = [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
    geometry = standard_geometry(separation, drive)
    eps_1, eps_2 = (resolve_polarization(kind, reference_direction(plane)) for kind in kinds)
    grid = {"plane": plane, "n_points": scan_points}

    factorized = g2_scan(scheme, geometry, eps_1, eps_2, rho, **grid).g2_factorized
    exact = g2_exact_scan(scheme, geometry, eps_1, eps_2, rho, **grid)
    assert np.max(np.abs(factorized - exact)) <= 1e-12 * np.max(np.abs(exact))
    scan = intensity_scan(scheme, geometry, eps_1, rho, **grid)
    directions = scan_direction(plane, scan.angles)
    oracle = _intensities(_fields(scheme, geometry, directions, eps_1), np.kron(rho, rho))
    assert np.max(np.abs(scan.intensities - oracle)) <= 1e-12 * np.max(np.abs(oracle))

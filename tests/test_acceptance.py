"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import math
import time

import numpy as np

from atompair import (
    Detector,
    DriveDecayParams,
    build_liouvillian,
    conditioned_state,
    field_operator,
    g2_exact,
    g2_factorized,
    g2_normalized,
    hg_level_scheme,
    intensity,
    intensity_exact,
    intensity_visibility,
    liouvillian_residual,
    mean_field,
    nonclassicality_witness,
    pure_state,
    quantum_jump_estimate,
    standard_geometry,
    steady_state_analytic,
    steady_state_numeric,
    two_level_scheme,
    witness_from_g2,
)
from atompair.atom_model import pi_polarization, sigma_polarization
from atompair.scans import g2_scan, intensity_scan, reference_direction, scan_direction
from atompair.validation import _trace_group

from conftest import random_params, random_transverse_detector

GEOMETRY = standard_geometry(0.5)
N_REF = reference_direction("xy")


def report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def test_criterion_01_steady_state_agreement():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        p = random_params(rng)  # g log-uniform in [0.01, 100] Gamma
        numeric = steady_state_numeric(build_liouvillian(hg_level_scheme(p), p))
        analytic = steady_state_analytic(p)
        worst = max(worst, float(np.max(np.abs(numeric - analytic))))
        assert np.max(np.abs(analytic[np.ix_([0, 1], [2, 3])])) == 0.0  # cross coherences
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, f"null-space vs closed form: max entrywise {worst:.2e} < 1e-10 in {elapsed:.2f}s")


def test_criterion_02_trace_typo_detection():
    weak = DriveDecayParams(g=1e-8, gamma0=0.5, gamma=0.5)
    bad_trace = steady_state_analytic(weak, corrected=False).trace().real
    assert abs(bad_trace - 3.0) < 1e-6  # the discarded variant fails trace = 1
    p = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    residual = liouvillian_residual(build_liouvillian(hg_level_scheme(p), p),
                                    steady_state_analytic(p))
    assert residual < 1e-12
    group = _trace_group(inject=False)
    assert group.passed
    assert any(c.name == "rejected_variant_detected" and c.passed for c in group.checks)
    injected = _trace_group(inject=True)
    assert not injected.passed
    report(
        2,
        f"variant trace -> {bad_trace:.6f} (rejected), corrected residual {residual:.2e} < 1e-12; "
        "validation group demonstrates both and catches the injected bug",
    )


def test_criterion_03_intensity_visibility():
    worst_pi = 0.0
    worst_sigma = 0.0
    for g in (0.1, 1.0, 10.0):
        p = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(p)
        eps_pi = pi_polarization(N_REF)
        scan = intensity_scan(scheme, GEOMETRY, p, eps_pi, n_points=360)
        closed = intensity_visibility(p, eps_pi)
        assert closed == p.total**2 / (2 * g**2 + p.total**2)  # |z.eps| = 1 here
        worst_pi = max(worst_pi, abs(scan.visibility - closed))
        sigma_scan = intensity_scan(scheme, GEOMETRY, p, sigma_polarization(N_REF), n_points=360)
        worst_sigma = max(worst_sigma, sigma_scan.visibility)
    assert worst_pi < 1e-9
    assert worst_sigma < 1e-12
    report(3, f"pi fringes match closed form to {worst_pi:.2e} < 1e-9; "
              f"sigma scan flat to {worst_sigma:.2e} < 1e-12")


def test_criterion_04_two_level_limit():
    worst = 0.0
    for g in (0.05, 0.3, 1.0, 3.0, 20.0):
        p = DriveDecayParams(g=g, gamma0=0.0, gamma=1.0)
        scheme = two_level_scheme(p.total)
        scan = intensity_scan(scheme, GEOMETRY, p, pi_polarization(N_REF), n_points=360)
        expected = p.total**2 / (2 * g**2 + p.total**2)
        worst = max(worst, abs(scan.visibility - expected))
    assert worst < 1e-9
    report(4, f"two-level visibility gamma^2/(2g^2+gamma^2) to {worst:.2e} < 1e-9 over 5 drives")


def test_criterion_05_g2_full_contrast_drive_independent():
    eps_pi = pi_polarization(N_REF)
    eps_sigma = sigma_polarization(N_REF)
    worst_equal = 0.0
    worst_orth = 0.0
    for g in (0.01, 0.1, 1.0, 10.0, 100.0):
        p = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(p)
        for eps in (eps_pi, eps_sigma):
            scan = g2_scan(scheme, GEOMETRY, p, eps, eps, n_points=360)
            worst_equal = max(worst_equal, abs(scan.modulation_depth - 1.0))
        orth = g2_scan(scheme, GEOMETRY, p, eps_pi, eps_sigma, n_points=360)
        worst_orth = max(worst_orth, orth.modulation_depth)
    assert worst_equal < 1e-9
    assert worst_orth < 1e-12
    report(5, f"pi/pi and sigma/sigma coincidence contrast |depth-1| <= {worst_equal:.2e} < 1e-9 "
              f"for g in [0.01, 100] Gamma; orthogonal depth {worst_orth:.2e} < 1e-12")


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    worst = 0.0
    worst_cond = 0.0
    for _ in range(5):
        p = random_params(rng)
        scheme = hg_level_scheme(p)
        rho = steady_state_numeric(build_liouvillian(scheme, p))
        rho_pair = np.kron(rho, rho)
        for _ in range(50):
            det_1 = random_transverse_detector(rng)
            det_2 = random_transverse_detector(rng)
            fact = g2_factorized(scheme, GEOMETRY, det_1, det_2, rho)
            exact = g2_exact(scheme, GEOMETRY, det_1, det_2, rho_pair)
            worst = max(worst, abs(fact - exact))
            cond = conditioned_state(scheme, GEOMETRY, det_1, rho_pair)
            via_cond = intensity_exact(scheme, GEOMETRY, det_2, cond.unnormalized)
            worst_cond = max(worst_cond, abs(via_cond - exact))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert worst_cond < 1e-12
    assert elapsed < 30.0
    report(6, f"factorized vs exact {worst:.2e} < 1e-10 over 5x50 detector pairs; "
              f"conditioned-state identity {worst_cond:.2e} < 1e-12; {elapsed:.1f}s < 30s")


def test_criterion_07_normalized_correlation():
    p = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(p)
    eps = sigma_polarization(N_REF)
    det = Detector(N_REF, eps)
    auto = g2_normalized(scheme, GEOMETRY, p, det, det)
    assert abs(auto - 1.0) < 1e-10
    scan = g2_scan(scheme, GEOMETRY, p, eps, eps, n_points=360)
    worst = float(np.max(np.abs(scan.g2_normalized - 0.5 * (1.0 + np.cos(scan.phases)))))
    assert worst < 1e-10
    report(7, f"sigma g2(1,1) = 1 to {abs(auto - 1.0):.2e}; "
              f"g2(1,2) = (1+cos phi)/2 across the scan to {worst:.2e} < 1e-10")


def test_criterion_08_nonclassicality_witness():
    p = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(p)
    eps = sigma_polarization(N_REF)
    det_1 = Detector(N_REF, eps)
    det_2 = Detector(scan_direction("xy", 0.0), eps)  # detector-pair phase -pi
    res = nonclassicality_witness(scheme, GEOMETRY, p, det_1, det_2)
    assert abs(res.lhs) < 1e-10
    assert abs(res.rhs - 1.0) < 1e-10
    assert res.violated
    classical = witness_from_g2(1.0, 1.0, 1.0)
    assert not classical.violated
    report(8, f"fringe minimum: lhs = {res.lhs:.2e}, rhs = {res.rhs:.12f}, flagged; "
              "classical g2 = 1 baseline not flagged")


def test_criterion_09_monte_carlo_consistency():
    p = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(p)
    start = time.perf_counter()
    first = quantum_jump_estimate(scheme, p, n_traj=2000, t_total=200.0, seed=20260809)
    second = quantum_jump_estimate(scheme, p, n_traj=2000, t_total=200.0, seed=20260809)
    elapsed = time.perf_counter() - start
    exact = steady_state_analytic(p)
    pulls = [
        abs(first.rho[i, i].real - exact[i, i].real) / first.stderr[i, i] for i in range(4)
    ]
    assert max(pulls) < 3.0
    assert np.array_equal(first.rho, second.rho)
    assert np.array_equal(first.stderr, second.stderr)
    assert elapsed < 120.0
    report(9, f"2000 trajectories x 200/Gamma: max population pull {max(pulls):.2f} sigma < 3; "
              f"rerun bit-identical; both runs in {elapsed:.1f}s < 120s")


def test_criterion_10_superposition_contrast():
    scheme = two_level_scheme(1.0)
    eps = pi_polarization(N_REF)
    angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    det_ref = Detector(N_REF, eps)
    op_a = field_operator(scheme, GEOMETRY, det_ref, "A")
    op_b = field_operator(scheme, GEOMETRY, det_ref, "B")
    worst = 0.0
    for excited_fraction in (0.1, 0.25, 0.5, 0.75, 0.9):
        c_e = math.sqrt(excited_fraction)
        c_g = math.sqrt(1.0 - excited_fraction)
        rho = pure_state([c_e, c_g])
        vals = np.array(
            [
                intensity(scheme, GEOMETRY, Detector(scan_direction("xy", t), eps), rho, rho)
                for t in angles
            ]
        )
        amplitude = 0.5 * (vals.max() - vals.min())
        from_mean_fields = 2.0 * abs(mean_field(op_a, rho)) * abs(mean_field(op_b, rho))
        assert abs(from_mean_fields - 2.0 * (c_e * c_g) ** 2) < 1e-14
        worst = max(worst, abs(amplitude - from_mean_fields))
    assert worst < 1e-10

    # |e, e>: flat intensity, full-contrast coincidence fringes
    rho_e = pure_state([1.0, 0.0])
    vals = np.array(
        [
            intensity(scheme, GEOMETRY, Detector(scan_direction("xy", t), eps), rho_e, rho_e)
            for t in angles
        ]
    )
    spread = float(vals.max() - vals.min())
    assert spread < 1e-12
    rho_pair = np.kron(rho_e, rho_e)
    coincidences = np.array(
        [
            g2_exact(scheme, GEOMETRY, det_ref, Detector(scan_direction("xy", t), eps), rho_pair)
            for t in angles
        ]
    )
    depth = (coincidences.max() - coincidences.min()) / (coincidences.max() + coincidences.min())
    assert abs(depth - 1.0) < 1e-9
    report(10, f"fringe amplitude tracks |c_e c_g|^2 to {worst:.2e} < 1e-10; "
               f"|e,e>: intensity spread {spread:.2e}, coincidence contrast {depth:.12f}")

"""Invariant suite behind the ``validate`` CLI command and the acceptance tests.

Each group bundles related checks; a group passes iff all its checks pass.
Every invariant is defined once, here: the acceptance criteria run these
groups with their own seeds.  The report is plain data (JSON-serializable)
so the CLI can emit it as a machine-readable file next to the human lines.

The trace-normalization group always demonstrates both sides: the
implemented closed-form steady state satisfies trace = 1 and L rho = 0,
while a rejected candidate population formula (:func:`_rejected_steady_state`,
private to this module and kept only for this demonstration) blows the
trace up to 3 as the drive is switched off.  The hidden ``inject_trace_bug``
switch routes the rejected formula into the checks to show they would catch
it; the group then fails and the command exits nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atom_model import (
    Detector,
    DriveDecayParams,
    hg_level_scheme,
    make_detector,
    standard_geometry,
    transverse_basis,
    two_level_scheme,
)
from .config import RunConfig
from .correlations import (
    correlation_point,
    g2_factorized,
    g2_normalized_closed_form,
    witness_from_g2,
)
from .dynamics import (
    build_liouvillian,
    liouvillian_residual,
    pure_state,
    quantum_jump_estimate,
    steady_state_analytic,
    steady_state_numeric,
)
from .exact_oracle import conditioned_state, g2_exact, intensity_exact
from .farfield import field_operator, intensity_visibility, mean_field
from .scans import (
    g2_exact_scan,
    g2_scan,
    intensity_scan,
    reference_direction,
    resolve_polarization,
    scan_depth,
    scan_direction,
)

__all__ = ["Check", "Group", "ValidationReport", "model_from_config", "run_validation"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Group:
    name: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name=name, passed=bool(passed), detail=detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class ValidationReport:
    groups: list[Group]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "groups": [
                {
                    "name": g.name,
                    "passed": g.passed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail} for c in g.checks
                    ],
                }
                for g in self.groups
            ],
        }


def model_from_config(config: RunConfig):
    """(scheme, params, geometry) for a run configuration.

    The two-level scheme uses the total half-rate gamma0 + gamma as its
    single decay half-rate, so closed forms keep the same Gamma.
    """
    params = DriveDecayParams(g=config.g, gamma0=config.gamma0, gamma=config.gamma)
    if config.scheme == "two-level":
        scheme = two_level_scheme(params.total)
    else:
        scheme = hg_level_scheme(params)
    geometry = standard_geometry(config.separation_wavelengths, config.drive_direction)
    return scheme, params, geometry


def _random_params(rng: np.random.Generator) -> DriveDecayParams:
    gamma0 = rng.uniform(0.1, 2.0)
    gamma = rng.uniform(0.1, 2.0)
    total = gamma0 + gamma
    g = total * 10.0 ** rng.uniform(-2.0, 2.0)
    return DriveDecayParams(g=g, gamma0=gamma0, gamma=gamma)


def _random_detector(rng: np.random.Generator) -> Detector:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    e1, e2 = transverse_basis(n)
    amp = rng.normal(size=2) + 1j * rng.normal(size=2)
    eps = amp[0] * e1 + amp[1] * e2
    return make_detector(n, eps / np.linalg.norm(eps))


def _rejected_steady_state(params: DriveDecayParams) -> np.ndarray:
    """The closed-form steady state with the rejected ground populations
    rho22 = rho44 = 1 - (3 g^2 - Gamma^2)/(2 (2 g^2 + Gamma^2)): trace -> 3 as g -> 0."""
    g, gam = params.g, params.total
    rho = steady_state_analytic(params)
    rho[1, 1] = rho[3, 3] = 1.0 - (3.0 * g**2 - gam**2) / (2.0 * (2.0 * g**2 + gam**2))
    return rho


def _steady_state_group(rng: np.random.Generator, inject: bool) -> Group:
    group = Group("steady_state")
    worst_entry = 0.0
    worst_residual = 0.0
    cross_zero = True
    for _ in range(20):
        params = _random_params(rng)
        scheme = hg_level_scheme(params)
        liou = build_liouvillian(scheme, params)
        numeric = steady_state_numeric(liou)
        analytic = (_rejected_steady_state if inject else steady_state_analytic)(params)
        worst_entry = max(worst_entry, float(np.max(np.abs(numeric - analytic))))
        # the two driven transitions share no coherence
        cross_zero &= bool(np.all(analytic[np.ix_([0, 1], [2, 3])] == 0.0))
        # residual in units where the largest rate is 1, so the check is
        # scale free across the g sweep
        scale = max(params.g, params.total, 1.0)
        worst_residual = max(worst_residual, liouvillian_residual(liou / scale, analytic))
    group.add(
        "numeric_matches_analytic",
        worst_entry < 1e-10 and cross_zero,
        f"max entrywise |numeric - analytic| = {worst_entry:.3e} over 20 random parameter sets (tol 1e-10)",
    )
    group.add(
        "analytic_is_stationary",
        worst_residual < 1e-12,
        f"max scaled null-space residual = {worst_residual:.3e} (tol 1e-12)",
    )
    return group


def _trace_group(inject: bool) -> Group:
    group = Group("trace_normalization")
    params = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(params)
    liou = build_liouvillian(scheme, params)
    reference = (_rejected_steady_state if inject else steady_state_analytic)(params)
    trace_err = abs(reference.trace().real - 1.0)
    residual = liouvillian_residual(liou, reference)
    group.add("trace_is_one", trace_err < 1e-12, f"|trace - 1| = {trace_err:.3e} (tol 1e-12)")
    group.add("stationary", residual < 1e-12, f"|L rho| = {residual:.3e} (tol 1e-12)")
    # demonstration: the rejected candidate formula must be caught
    weak = DriveDecayParams(g=1e-8, gamma0=0.5, gamma=0.5)
    bad_trace = _rejected_steady_state(weak).trace().real
    group.add(
        "rejected_variant_detected",
        abs(bad_trace - 3.0) < 1e-6,
        f"rejected population formula gives trace {bad_trace:.6f} as g -> 0 (expected 3)",
    )
    return group


def _visibility_group(geometry) -> Group:
    group = Group("intensity_visibility")
    worst_pi = 0.0
    worst_sigma = 0.0
    closed_exact = True
    n_ref = reference_direction("xy")
    eps_pi = resolve_polarization("pi", n_ref)
    for g in (0.1, 1.0, 10.0):
        params = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(params)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        closed = intensity_visibility(params, eps_pi)
        # |z.eps| = 1 at the reference direction
        closed_exact &= closed == params.total**2 / (2.0 * g**2 + params.total**2)
        scan_pi = intensity_scan(scheme, geometry, eps_pi, rho, n_points=360)
        worst_pi = max(worst_pi, abs(scan_pi.visibility - closed))
        scan_sigma = intensity_scan(
            scheme, geometry, resolve_polarization("sigma", n_ref), rho, n_points=360
        )
        worst_sigma = max(worst_sigma, scan_sigma.visibility)
    group.add(
        "pi_matches_closed_form",
        worst_pi < 1e-9 and closed_exact,
        f"max |scan - closed form| = {worst_pi:.3e} over g in (0.1, 1, 10) Gamma (tol 1e-9)",
    )
    group.add(
        "sigma_flat",
        worst_sigma < 1e-12,
        f"max sigma-scan visibility = {worst_sigma:.3e} (tol 1e-12)",
    )
    worst_two = 0.0
    for g in (0.05, 0.3, 1.0, 3.0, 20.0):
        params = DriveDecayParams(g=g, gamma0=0.0, gamma=1.0)
        scheme = two_level_scheme(params.total)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        scan = intensity_scan(scheme, geometry, eps_pi, rho, n_points=360)
        expected = params.total**2 / (2.0 * g**2 + params.total**2)
        worst_two = max(worst_two, abs(scan.visibility - expected))
    group.add(
        "two_level_limit",
        worst_two < 1e-9,
        f"max |scan - gamma^2/(2g^2+gamma^2)| = {worst_two:.3e} over 5 drives (tol 1e-9)",
    )
    return group


def _g2_modulation_group(geometry) -> Group:
    group = Group("g2_modulation")
    n_ref = reference_direction("xy")
    eps_pi = resolve_polarization("pi", n_ref)
    eps_sigma = resolve_polarization("sigma", n_ref)
    worst_equal = 0.0
    worst_orth = 0.0
    for g in (0.01, 0.1, 1.0, 10.0, 100.0):
        params = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(params)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        for eps in (eps_pi, eps_sigma):
            scan = g2_scan(scheme, geometry, eps, eps, rho, n_points=360)
            worst_equal = max(worst_equal, abs(scan.modulation_depth - 1.0))
        scan = g2_scan(scheme, geometry, eps_pi, eps_sigma, rho, n_points=360)
        worst_orth = max(worst_orth, scan.modulation_depth)
    group.add(
        "equal_polarizations_full_contrast",
        worst_equal < 1e-9,
        f"max |depth - 1| = {worst_equal:.3e} over pi/pi and sigma/sigma, 5 drives (tol 1e-9)",
    )
    group.add(
        "orthogonal_polarizations_flat",
        worst_orth < 1e-12,
        f"max depth = {worst_orth:.3e} for orthogonal analyzers (tol 1e-12)",
    )
    return group


def _oracle_group(rng: np.random.Generator, geometry) -> Group:
    group = Group("oracle_equivalence")
    worst = 0.0
    worst_cond = 0.0
    for _ in range(5):
        params = _random_params(rng)
        scheme = hg_level_scheme(params)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        rho_pair = np.kron(rho, rho)
        for _ in range(50):
            det_1 = _random_detector(rng)
            det_2 = _random_detector(rng)
            fact = g2_factorized(scheme, geometry, det_1, det_2, rho)
            exact = g2_exact(scheme, geometry, det_1, det_2, rho_pair)
            worst = max(worst, abs(fact - exact))
            cond = conditioned_state(scheme, geometry, det_1, rho_pair)
            via_cond = intensity_exact(scheme, geometry, det_2, cond.unnormalized)
            worst_cond = max(worst_cond, abs(via_cond - exact))
    group.add(
        "factorized_matches_exact",
        worst < 1e-10,
        f"max |factorized - exact| = {worst:.3e} over 5 x 50 random detector pairs (tol 1e-10)",
    )
    group.add(
        "conditioned_state_identity",
        worst_cond < 1e-12,
        f"max |conditioned-intensity - exact| = {worst_cond:.3e} (tol 1e-12)",
    )
    return group


def _normalized_group(geometry) -> Group:
    group = Group("normalized_g2")
    params = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(params)
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    n_ref = reference_direction("xy")
    eps_sigma = resolve_polarization("sigma", n_ref)
    scan = g2_scan(scheme, geometry, eps_sigma, eps_sigma, rho, n_points=360)
    expected = 0.5 * (1.0 + np.cos(scan.phases))
    worst = float(np.max(np.abs(scan.g2_normalized - expected)))
    group.add(
        "sigma_half_one_plus_cos",
        worst < 1e-10,
        f"max |g2(1,2) - (1 + cos phi)/2| = {worst:.3e} across the sigma scan (tol 1e-10)",
    )
    det = Detector(n_ref, eps_sigma)
    auto = correlation_point(scheme, geometry, params, det, det, rho=rho).g2_normalized
    group.add(
        "sigma_autocorrelation_is_one",
        abs(auto - 1.0) < 1e-10,
        f"|g2(1,1) - 1| = {abs(auto - 1.0):.3e} (tol 1e-10)",
    )
    eps_pi = resolve_polarization("pi", n_ref)
    det_1_pi = Detector(n_ref, eps_pi)
    scan_pi = g2_scan(scheme, geometry, eps_pi, eps_pi, rho, n_points=72)
    worst_cf = 0.0
    for theta, ratio in zip(scan_pi.angles, scan_pi.g2_normalized):
        det_2 = Detector(scan_direction("xy", theta), eps_pi)
        cf = g2_normalized_closed_form(geometry, params, det_1_pi, det_2)
        worst_cf = max(worst_cf, abs(cf - ratio))
    group.add(
        "closed_form_matches_ratio",
        worst_cf < 1e-10,
        f"max |closed form - G2/(I1 I2)| = {worst_cf:.3e} across a pi/pi scan (tol 1e-10)",
    )
    return group


def _witness_group(geometry) -> Group:
    group = Group("nonclassicality")
    params = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(params)
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    n_ref = reference_direction("xy")
    eps_sigma = resolve_polarization("sigma", n_ref)
    scan = g2_scan(scheme, geometry, eps_sigma, eps_sigma, rho, n_points=360)
    at_min = int(np.argmin(np.cos(scan.phases)))
    lhs = scan.witness_lhs[at_min]
    rhs = scan.witness_rhs[at_min]
    group.add(
        "fringe_minimum_violation",
        abs(lhs) < 1e-10 and abs(rhs - 1.0) < 1e-10 and bool(scan.violated[at_min]),
        f"at phase {scan.phases[at_min]:+.4f}: lhs = {lhs:.3e}, rhs = {rhs:.6f}, flagged = {bool(scan.violated[at_min])}",
    )
    classical = witness_from_g2(1.0, 1.0, 1.0)
    group.add(
        "classical_baseline_not_flagged",
        (not classical.violated) and classical.lhs == 0.0 and classical.rhs == 0.0,
        f"g2 == 1 baseline: lhs = {classical.lhs}, rhs = {classical.rhs}, flagged = {classical.violated}",
    )
    return group


def _superposition_group(geometry) -> Group:
    group = Group("superposition")
    scheme = two_level_scheme(1.0)
    n_ref = reference_direction("xy")
    eps = resolve_polarization("pi", n_ref)
    det_ref = Detector(n_ref, eps)
    op_a = field_operator(scheme, geometry, det_ref, "A")
    op_b = field_operator(scheme, geometry, det_ref, "B")

    worst = 0.0
    worst_dipole = 0.0
    for ratio in (0.0, 0.3, 0.5, 0.8, 1.0):
        c_e = math.sqrt(ratio)
        c_g = math.sqrt(1.0 - ratio)
        rho = pure_state([c_e, c_g])
        vals = intensity_scan(scheme, geometry, eps, rho).intensities
        fringe_amplitude = 0.5 * (vals.max() - vals.min())
        # mean-field product formula: the oscillating part is
        # 2 Re[<E_A>^* <E_B>], with amplitude 2 |<E_A>||<E_B>| = 2 |c_e c_g|^2
        expected = 2.0 * abs(mean_field(op_a, rho)) * abs(mean_field(op_b, rho))
        worst_dipole = max(worst_dipole, abs(expected - 2.0 * (c_e * c_g) ** 2))
        worst = max(worst, abs(fringe_amplitude - expected))
        if c_e * c_g == 0.0:
            worst = max(worst, fringe_amplitude)
    group.add(
        "fringe_amplitude_tracks_dipole",
        worst < 1e-10 and worst_dipole < 1e-14,
        f"max |amplitude - 2|c_e c_g|^2| = {worst:.3e} over 5 amplitude ratios (tol 1e-10)",
    )
    # both atoms excited: no intensity fringes, full coincidence fringes
    rho_e = pure_state([1.0, 0.0])
    intensities = intensity_scan(scheme, geometry, eps, rho_e).intensities
    flat = float(intensities.max() - intensities.min())
    depth = g2_scan(scheme, geometry, eps, eps, rho_e).modulation_depth
    depth_exact = scan_depth(g2_exact_scan(scheme, geometry, eps, eps, rho_e))
    group.add(
        "excited_pair_contrast",
        flat < 1e-12 and abs(depth - 1.0) < 1e-9 and abs(depth_exact - 1.0) < 1e-9,
        f"intensity spread = {flat:.3e} (flat), coincidence depth = {depth:.12f} (full)",
    )
    return group


def _monte_carlo_group(config: RunConfig) -> Group:
    group = Group("monte_carlo")
    params = DriveDecayParams(g=config.g, gamma0=config.gamma0, gamma=config.gamma)
    scheme = hg_level_scheme(params)
    t_total = config.t_total / params.total
    first = quantum_jump_estimate(scheme, params, config.n_traj, t_total, config.seed)
    second = quantum_jump_estimate(scheme, params, config.n_traj, t_total, config.seed)
    identical = bool(
        np.array_equal(first.rho, second.rho) and np.array_equal(first.stderr, second.stderr)
    )
    group.add(
        "seed_reproducible",
        identical,
        f"two runs with seed {config.seed} are bit-identical: {identical}",
    )
    analytic = steady_state_analytic(params)
    worst_pull = 0.0
    for i in range(4):
        pull = abs(first.rho[i, i].real - analytic[i, i].real) / max(first.stderr[i, i], 1e-300)
        worst_pull = max(worst_pull, pull)
    group.add(
        "populations_within_3_sigma",
        worst_pull < 3.0,
        f"max |population pull| = {worst_pull:.2f} standard errors "
        f"({config.n_traj} trajectories, t_total = {config.t_total}/Gamma, "
        f"mc_jumps_per_traj = {first.n_jumps / first.n_traj:.2f})",
    )
    return group


def run_validation(config: RunConfig, *, inject_trace_bug: bool = False) -> ValidationReport:
    """Run every invariant group; see module docstring for the hidden switch."""
    rng = np.random.default_rng(config.seed)
    geometry = standard_geometry(config.separation_wavelengths, config.drive_direction)
    groups = [
        _steady_state_group(rng, inject_trace_bug),
        _trace_group(inject_trace_bug),
        _visibility_group(geometry),
        _g2_modulation_group(geometry),
        _oracle_group(rng, geometry),
        _normalized_group(geometry),
        _witness_group(geometry),
        _superposition_group(geometry),
        _monte_carlo_group(config),
    ]
    return ValidationReport(groups=groups)

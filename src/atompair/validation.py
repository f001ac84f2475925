"""Invariant suite behind the ``validate`` CLI command and the acceptance tests.

Each group bundles related checks; a group passes iff all its checks pass.
Every invariant is defined once, here: the acceptance criteria run these
groups with their own seeds.  The report is plain data (JSON-serializable)
so the CLI can emit it as a machine-readable file next to the human lines.

The trace-normalization group always demonstrates both sides: the
implemented closed-form steady state satisfies trace = 1 and L rho = 0,
while a rejected candidate population formula (:func:`_with_rejected_populations`,
private to this module and kept only for this demonstration) blows the
trace up to 3 as the drive is switched off.

A check against a tolerance goes through :meth:`Group.bound`, which states the
bound once for both the verdict and the detail text.

Each group compares the factorized kernel with an independent second route:
a closed form, the null-space steady state, the product-space oracle or the
Monte Carlo.  None of them is the field-operator route of
:mod:`atompair.farfield`, which only the tests and the benchmark use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atom_model import (
    _TRANSVERSE_TOL,
    _UNIT_TOL,
    Detector,
    DriveDecayParams,
    _norms,
    hg_level_scheme,
    standard_geometry,
    transverse_basis,
    two_level_scheme,
)
from .config import RunConfig
from .correlations import (
    _g2_normalized_closed_form,
    _pair_correlations,
    correlation_point,
    witness_from_g2,
)
from .dynamics import (
    DegenerateSteadyStateError,
    QuantumJumpResult,
    build_liouvillian,
    liouvillian_residual,
    pure_state,
    quantum_jump_estimate,
    steady_state_analytic,
    steady_state_numeric,
)
from .exact_oracle import _coincidences, _conditioned, _fields, _intensities, intensity_exact
from .farfield import intensity_visibility
from .scans import (
    g2_exact_scan,
    g2_scan,
    intensity_scan,
    reference_direction,
    resolve_polarization,
    scan_depth,
    scan_direction,
)

__all__ = ["Check", "Group", "ValidationReport", "run_validation"]

# the fixed analyzers of every scan below, resolved at the xy reference direction
_N_REF = reference_direction("xy")
_EPS_PI = resolve_polarization("pi", _N_REF)
_EPS_SIGMA = resolve_polarization("sigma", _N_REF)


def _tol_text(tol: float) -> str:
    """A tolerance as written in the source: 1e-9, not format's 1e-09."""
    return format(tol, "g").replace("e-0", "e-")


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

    def bound(self, name: str, value: float, tol: float, what: str, where: str = "") -> None:
        """Add a check that passes iff ``value < tol`` (so a nan fails), detailed as
        ``"<what> = <value><where> (tol <tol>)"``."""
        self.add(name, value < tol, f"{what} = {value:.3e}{where} (tol {_tol_text(tol)})")

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


def _random_params(rng: np.random.Generator) -> DriveDecayParams:
    gamma0 = rng.uniform(0.1, 2.0)
    gamma = rng.uniform(0.1, 2.0)
    total = gamma0 + gamma
    g = total * 10.0 ** rng.uniform(-2.0, 2.0)
    return DriveDecayParams(g=g, gamma0=gamma0, gamma=gamma)


def _random_detectors(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and analyzers, shape (count, 3) each, of ``count`` random transverse
    detectors drawn in one call.  Row k is the k-th of ``count`` one-at-a-time draws: ``n``
    from three normals, then ``eps`` from complex normal weights (two real parts, then two
    imaginary parts) on ``atom_model.transverse_basis(n)``, normalized.  Raises ValueError,
    as ``atom_model.make_detector`` does, when a row fails its unit-norm or transversality
    check.
    """
    draws = rng.normal(size=(count, 7))
    n = draws[:, :3] / _norms(draws[:, :3])
    e1, e2 = transverse_basis(n)
    amp = draws[:, 3:5] + 1j * draws[:, 5:]
    eps = amp[:, :1] * e1 + amp[:, 1:] * e2
    eps /= _norms(eps)
    if not np.all(np.abs(np.sum(np.abs(eps) ** 2, axis=1) - 1.0) <= _UNIT_TOL):
        raise ValueError("polarization eps must satisfy eps^dag . eps = 1")
    defect = np.abs(np.sum(eps.conj() * n, axis=1))
    if not np.all(defect <= _TRANSVERSE_TOL):
        raise ValueError(
            f"polarization is not transverse to n (|eps^dag.n| = {np.max(defect):.3e})"
        )
    return n, eps


def _with_rejected_populations(rho: np.ndarray, params: DriveDecayParams) -> np.ndarray:
    """rho, rewritten in place, with the rejected ground populations
    rho22 = rho44 = 1 - (3 g^2 - Gamma^2)/(2 (2 g^2 + Gamma^2)): trace -> 3 as g -> 0."""
    g, gam = params.g, params.total
    rho[1, 1] = rho[3, 3] = 1.0 - (3.0 * g**2 - gam**2) / (2.0 * (2.0 * g**2 + gam**2))
    return rho


def _steady_state_group(rng: np.random.Generator) -> Group:
    group = Group("steady_state")
    worst_entry = 0.0
    worst_residual = 0.0
    cross_zero = True
    for _ in range(20):
        params = _random_params(rng)
        scheme = hg_level_scheme(params)
        liou = build_liouvillian(scheme, params)
        numeric = steady_state_numeric(liou)
        analytic = steady_state_analytic(params)
        worst_entry = max(worst_entry, float(np.max(np.abs(numeric - analytic))))
        # the two driven transitions share no coherence
        cross_zero &= bool(np.all(analytic[np.ix_([0, 1], [2, 3])] == 0.0))
        # residual in units where the largest rate is 1, so the check is
        # scale free across the g sweep
        scale = max(params.g, params.total, 1.0)
        worst_residual = max(worst_residual, liouvillian_residual(liou / scale, analytic))
    # a coherence between the driven transitions fails the bound as nan
    group.bound("numeric_matches_analytic", worst_entry if cross_zero else math.nan, 1e-10,
                "max entrywise |numeric - analytic|", " over 20 random parameter sets")
    group.bound("analytic_is_stationary", worst_residual, 1e-12, "max scaled null-space residual")
    return group


def _trace_group() -> Group:
    group = Group("trace_normalization")
    params = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(params)
    liou = build_liouvillian(scheme, params)
    reference = steady_state_analytic(params)
    trace_err = abs(reference.trace().real - 1.0)
    residual = liouvillian_residual(liou, reference)
    group.bound("trace_is_one", trace_err, 1e-12, "|trace - 1|")
    group.bound("stationary", residual, 1e-12, "|L rho|")
    # demonstration: the rejected candidate formula must be caught
    weak = DriveDecayParams(g=1e-8, gamma0=0.5, gamma=0.5)
    bad_trace = _with_rejected_populations(steady_state_analytic(weak), weak).trace().real
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
    for g in (0.1, 1.0, 10.0):
        params = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(params)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        closed = intensity_visibility(params, _EPS_PI)
        # |z.eps| = 1 at the reference direction
        closed_exact &= closed == params.total**2 / (2.0 * g**2 + params.total**2)
        scan_pi = intensity_scan(scheme, geometry, _EPS_PI, rho, n_points=360)
        worst_pi = max(worst_pi, abs(scan_pi.visibility - closed))
        scan_sigma = intensity_scan(scheme, geometry, _EPS_SIGMA, rho, n_points=360)
        worst_sigma = max(worst_sigma, scan_sigma.visibility)
    # a closed form that is not exactly Gamma^2/(2g^2+Gamma^2) here fails the bound as nan
    group.bound("pi_matches_closed_form", worst_pi if closed_exact else math.nan, 1e-9,
                "max |scan - closed form|", " over g in (0.1, 1, 10) Gamma")
    group.bound("sigma_flat", worst_sigma, 1e-12, "max sigma-scan visibility")
    worst_two = 0.0
    for g in (0.05, 0.3, 1.0, 3.0, 20.0):
        params = DriveDecayParams(g=g, gamma0=0.0, gamma=1.0)
        scheme = two_level_scheme(params.total)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        scan = intensity_scan(scheme, geometry, _EPS_PI, rho, n_points=360)
        expected = params.total**2 / (2.0 * g**2 + params.total**2)
        worst_two = max(worst_two, abs(scan.visibility - expected))
    group.bound("two_level_limit", worst_two, 1e-9,
                "max |scan - gamma^2/(2g^2+gamma^2)|", " over 5 drives")
    return group


def _g2_modulation_group(geometry) -> Group:
    group = Group("g2_modulation")
    worst_equal = 0.0
    worst_orth = 0.0
    for g in (0.01, 0.1, 1.0, 10.0, 100.0):
        params = DriveDecayParams(g=g, gamma0=0.5, gamma=0.5)
        scheme = hg_level_scheme(params)
        rho = steady_state_numeric(build_liouvillian(scheme, params))
        for eps in (_EPS_PI, _EPS_SIGMA):
            scan = g2_scan(scheme, geometry, eps, eps, rho, n_points=360)
            worst_equal = max(worst_equal, abs(scan.modulation_depth - 1.0))
        scan = g2_scan(scheme, geometry, _EPS_PI, _EPS_SIGMA, rho, n_points=360)
        worst_orth = max(worst_orth, scan.modulation_depth)
    group.bound("equal_polarizations_full_contrast", worst_equal, 1e-9,
                "max |depth - 1|", " over pi/pi and sigma/sigma, 5 drives")
    group.bound("orthogonal_polarizations_flat", worst_orth, 1e-12,
                "max depth", " for orthogonal analyzers")
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
        # row 2k is the first and row 2k + 1 the second detector of pair k
        n, eps = (x.reshape(50, 2, 3) for x in _random_detectors(rng, 100))
        fact = _pair_correlations(scheme, geometry, n[:, 0], eps[:, 0], n[:, 1], eps[:, 1], rho)[0]
        e_1, e_2 = (_fields(scheme, geometry, n[:, k], eps[:, k]) for k in (0, 1))
        exact = _coincidences(e_1, e_2, rho_pair)
        worst = max(worst, float(np.max(np.abs(fact - exact))))
        via_cond = _intensities(e_2, _conditioned(e_1, rho_pair)[0])
        worst_cond = max(worst_cond, float(np.max(np.abs(via_cond - exact))))
    group.bound("factorized_matches_exact", worst, 1e-10,
                "max |factorized - exact|", " over 5 x 50 random detector pairs")
    group.bound("conditioned_state_identity", worst_cond, 1e-12,
                "max |conditioned-intensity - exact|")
    return group


def _normalized_group(geometry) -> Group:
    group = Group("normalized_g2")
    params = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(params)
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    scan = g2_scan(scheme, geometry, _EPS_SIGMA, _EPS_SIGMA, rho, n_points=360)
    expected = 0.5 * (1.0 + np.cos(scan.phases))
    worst = float(np.max(np.abs(scan.g2_normalized - expected)))
    group.bound("sigma_half_one_plus_cos", worst, 1e-10,
                "max |g2(1,2) - (1 + cos phi)/2|", " across the sigma scan")
    det = Detector(_N_REF, _EPS_SIGMA)
    auto = correlation_point(scheme, geometry, params, det, det, rho=rho).g2_normalized
    group.bound("sigma_autocorrelation_is_one", abs(auto - 1.0), 1e-10, "|g2(1,1) - 1|")
    det_1_pi = Detector(_N_REF, _EPS_PI)
    scan_pi = g2_scan(scheme, geometry, _EPS_PI, _EPS_PI, rho, n_points=72)
    directions = scan_direction("xy", scan_pi.angles)
    closed = _g2_normalized_closed_form(geometry, params, det_1_pi, _EPS_PI, directions)
    worst_cf = float(np.max(np.abs(closed - scan_pi.g2_normalized)))
    group.bound("closed_form_matches_ratio", worst_cf, 1e-10,
                "max |closed form - G2/(I1 I2)|", " across a pi/pi scan")
    return group


def _witness_group(geometry) -> Group:
    group = Group("nonclassicality")
    params = DriveDecayParams(g=1.0, gamma0=0.5, gamma=0.5)
    scheme = hg_level_scheme(params)
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    scan = g2_scan(scheme, geometry, _EPS_SIGMA, _EPS_SIGMA, rho, n_points=360)
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
    worst = 0.0
    worst_dipole = 0.0
    for ratio in (0.0, 0.3, 0.5, 0.8, 1.0):
        c_e = math.sqrt(ratio)
        c_g = math.sqrt(1.0 - ratio)
        rho = pure_state([c_e, c_g])
        scan = intensity_scan(scheme, geometry, _EPS_PI, rho)
        vals = scan.intensities
        fringe_amplitude = 0.5 * (vals.max() - vals.min())
        # the oscillating part is 2 Re[<E_A>^* <E_B>], with amplitude
        # 2 |<E_A>||<E_B>| = 2 |c_e c_g|^2; the product-space oracle on rho (x) rho
        # gives it independently at the scan's brightest and darkest directions
        rho_pair = np.kron(rho, rho)
        hi, lo = (
            intensity_exact(scheme, geometry, Detector(n, _EPS_PI), rho_pair)
            for n in scan_direction("xy", scan.angles[[np.argmax(vals), np.argmin(vals)]])
        )
        expected = 0.5 * (hi - lo)
        worst_dipole = max(worst_dipole, abs(expected - 2.0 * (c_e * c_g) ** 2))
        worst = max(worst, abs(fringe_amplitude - expected))
        if c_e * c_g == 0.0:
            worst = max(worst, fringe_amplitude)
    tol, tol_dipole = 1e-10, 1e-14
    group.add(
        "fringe_amplitude_tracks_dipole",
        worst < tol and worst_dipole < tol_dipole,
        f"max |scan amplitude - oracle amplitude| = {worst:.3e} (tol {_tol_text(tol)}), "
        f"max |oracle amplitude - 2|c_e c_g|^2| = {worst_dipole:.3e} (tol {_tol_text(tol_dipole)}) "
        "over 5 amplitude ratios",
    )
    # both atoms excited: no intensity fringes, full coincidence fringes
    rho_e = pure_state([1.0, 0.0])
    intensities = intensity_scan(scheme, geometry, _EPS_PI, rho_e).intensities
    flat = float(intensities.max() - intensities.min())
    depth = g2_scan(scheme, geometry, _EPS_PI, _EPS_PI, rho_e).modulation_depth
    depth_exact = scan_depth(g2_exact_scan(scheme, geometry, _EPS_PI, _EPS_PI, rho_e))
    group.add(
        "excited_pair_contrast",
        flat < 1e-12 and abs(depth - 1.0) < 1e-9 and abs(depth_exact - 1.0) < 1e-9,
        f"intensity spread = {flat:.3e} (flat), coincidence depth = {depth:.12f} (full)",
    )
    return group


def _population_pull(mc: QuantumJumpResult, reference: np.ndarray) -> float:
    """Largest |MC - reference| population, in MC standard errors: inf where a level has zero
    spread yet differs from the reference, 0 where it agrees exactly, and nan where a standard
    error is not finite (one trajectory), which no pull can pass."""
    diff = np.abs(np.diag(mc.rho).real - np.diag(reference).real)
    spread = np.diag(mc.stderr)
    if not np.isfinite(spread).all():
        return math.nan
    pulls = np.divide(diff, spread, out=np.where(diff > 0, np.inf, 0.0), where=spread > 0)
    return float(np.max(pulls))


def _monte_carlo_group(config: RunConfig) -> Group:
    group = Group("monte_carlo")
    params = config.model[1]
    scheme = hg_level_scheme(params)  # whatever the config's scheme: the closed form is four-level
    t_total = config.t_total / params.total
    try:
        first = quantum_jump_estimate(scheme, params, config.n_traj, t_total, config.seed)
    except ValueError as exc:
        group.add("populations_within_3_sigma", False, f"the Monte Carlo did not run: {exc}")
        return group
    second = quantum_jump_estimate(scheme, params, config.n_traj, t_total, config.seed)
    identical = bool(
        np.array_equal(first.rho, second.rho) and np.array_equal(first.stderr, second.stderr)
    )
    group.add(
        "seed_reproducible",
        identical,
        f"two runs with seed {config.seed} are bit-identical: {identical}",
    )
    try:
        steady_state_numeric(build_liouvillian(scheme, params))
    except DegenerateSteadyStateError as exc:
        # a pull needs the unique stationary state: without sigma decay or drive the trajectories
        # keep the population of the pi pair they start in, with zero spread; with both, the state
        # is unique and only the solver misses it
        if config.gamma == 0 or config.g == 0:
            why = "the Monte Carlo never leaves the pi pair it starts in, so no population pull is defined"
        else:
            why = (
                "with g > 0 and sigma decay the state is unique, but this drive is below the "
                "null-space solver's weak-drive limit, so no population pull is computed"
            )
        group.add("populations_within_3_sigma", False, f"{exc}; {why}")
        return group
    worst_pull = _population_pull(first, steady_state_analytic(params))
    note = "" if first.n_jumps else "; no trajectory jumped, so t_total is too short at this drive"
    note += "; one trajectory gives no standard error" if math.isnan(worst_pull) else ""
    group.add(
        "populations_within_3_sigma",
        worst_pull < 3.0,
        f"max |population pull| = {worst_pull:.2f} standard errors "
        f"({config.n_traj} trajectories, t_total = {config.t_total}/Gamma, "
        f"mc_jumps_per_traj = {first.n_jumps / first.n_traj:.2f}){note}",
    )
    return group


def run_validation(config: RunConfig) -> ValidationReport:
    """Run every invariant group.

    The groups run at d = lambda/2 with the drive along +y, the geometry whose 360-point scans
    hold the fringe extrema their tolerances assume; from the config they read only the seed,
    the rates, ``n_traj`` and ``t_total``.
    """
    rng = np.random.default_rng(config.seed)
    geometry = standard_geometry(0.5)
    groups = [
        _steady_state_group(rng),
        _trace_group(),
        _visibility_group(geometry),
        _g2_modulation_group(geometry),
        _oracle_group(rng, geometry),
        _normalized_group(geometry),
        _witness_group(geometry),
        _superposition_group(geometry),
        _monte_carlo_group(config),
    ]
    return ValidationReport(groups=groups)

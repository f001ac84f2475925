"""Single-atom master equation: construction, integration, steady states.

The density-matrix equation of the driven J=1/2 -> J=1/2 scheme at resonance
is, writing Gamma = gamma0 + gamma and labelling the levels 1..4 as in
:func:`atompair.atom_model.hg_level_scheme` (code indices 0..3),

    d rho11/dt = +i g rho21 - i g rho12 - 2 Gamma rho11
    d rho12/dt = +i g rho22 - i g rho11 -   Gamma rho12
    d rho13/dt = +i g rho23 + i g rho14 - 2 Gamma rho13
    d rho14/dt = +i g rho24 + i g rho13 -   Gamma rho14
    d rho22/dt = -i g rho21 + i g rho12 + 2 gamma0 rho11 + 2 gamma rho33
    d rho23/dt = +i g rho13 + i g rho24 -   Gamma rho23
    d rho24/dt = +i g rho14 + i g rho23
    d rho33/dt = -i g rho43 + i g rho34 - 2 Gamma rho33
    d rho34/dt = -i g rho44 + i g rho33 -   Gamma rho34
    d rho44/dt = -i g rho34 + i g rho43 + 2 gamma0 rho33 + 2 gamma rho11

with the remaining entries fixed by Hermiticity.  This is the Lindblad
equation with drive Hamiltonian H = -g(|1><2| + h.c.) + g(|3><4| + h.c.)
(the sign follows the orientation of the pi dipoles) and the four jump
operators sqrt(2 gamma0)|2><1|, sqrt(2 gamma0)|4><3|, sqrt(2 gamma)|4><1|,
sqrt(2 gamma)|2><3|.

The unique steady state for g > 0 is

    rho11 = rho33 = g^2 / (2 (2 g^2 + Gamma^2))
    rho22 = rho44 = (g^2 + Gamma^2) / (2 (2 g^2 + Gamma^2))
    rho12 = -rho34 = i g Gamma / (2 (2 g^2 + Gamma^2))

with all cross coherences (rho13, rho14, rho23, rho24) equal to zero.

Superoperators act on column-major (Fortran-order) vectorized density
matrices: vec(A rho B) = kron(B.T, A) vec(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_model import DriveDecayParams, LevelScheme, Z_HAT

__all__ = [
    "DegenerateSteadyStateError",
    "vectorize",
    "unvectorize",
    "pure_state",
    "check_density_matrix",
    "drive_hamiltonian",
    "jump_operators",
    "liouvillian_matrix",
    "build_liouvillian",
    "liouvillian_residual",
    "evolve",
    "steady_state_numeric",
    "steady_state_analytic",
    "two_level_steady_state_analytic",
    "QuantumJumpResult",
    "quantum_jump_estimate",
]


class DegenerateSteadyStateError(ValueError):
    """The Liouvillian null space has dimension > 1 (no unique steady state)."""


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major (Fortran-order) vectorization of a square matrix."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return np.asarray(vec, dtype=complex).reshape((dim, dim), order="F")


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix |psi><psi| of a (normalized) amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero state vector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def check_density_matrix(
    rho,
    dim: int | None = None,
    *,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    eig_floor: float = 1e-9,
) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (up to tolerances).

    Returns the input as a complex ndarray; raises ValueError naming the
    violated property otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {rho.shape[0]}")
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if herm_defect > herm_tol:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_defect:.3e}")
    trace_defect = abs(rho.trace() - 1.0)
    if trace_defect > trace_tol:
        raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
    min_eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if min_eig < -eig_floor:
        raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return rho


def drive_hamiltonian(scheme: LevelScheme, params: DriveDecayParams) -> np.ndarray:
    """Resonant drive Hamiltonian in the rotating frame.

    Each driven transition contributes g * sign(z . dipole) (|u><l| + |l><u|);
    the relative sign between the two pi channels follows their antiparallel
    dipoles.  Driven transitions must carry dipoles parallel to z (the drive
    polarization).
    """
    dim = scheme.n_levels
    h = np.zeros((dim, dim), dtype=complex)
    for t in scheme.transitions:
        if not t.driven:
            continue
        z_component = Z_HAT @ t.dipole
        magnitude = np.linalg.norm(t.dipole)
        if magnitude == 0 or abs(abs(z_component) - magnitude) > 1e-12 * max(1.0, magnitude):
            raise ValueError(
                f"driven transition {t.upper}->{t.lower} must have a dipole parallel to z"
            )
        coupling = params.g * math.copysign(1.0, z_component.real)
        h[t.upper, t.lower] += coupling
        h[t.lower, t.upper] += coupling
    return h


def jump_operators(scheme: LevelScheme) -> list[np.ndarray]:
    """One lowering operator sqrt(rate) |lower><upper| per decay channel."""
    dim = scheme.n_levels
    ops = []
    for t in scheme.transitions:
        op = np.zeros((dim, dim), dtype=complex)
        op[t.lower, t.upper] = math.sqrt(t.decay_rate)
        ops.append(op)
    return ops


def liouvillian_matrix(hamiltonian: np.ndarray, jumps) -> np.ndarray:
    """Lindblad superoperator on column-major vectorized density matrices."""
    h = np.asarray(hamiltonian, dtype=complex)
    dim = h.shape[0]
    eye = np.eye(dim)
    liou = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op in jumps:
        op = np.asarray(op, dtype=complex)
        opdop = op.conj().T @ op
        liou += np.kron(op.conj(), op)
        liou -= 0.5 * (np.kron(eye, opdop) + np.kron(opdop.T, eye))
    return liou


def build_liouvillian(scheme: LevelScheme, params: DriveDecayParams) -> np.ndarray:
    """Superoperator generating d(vec rho)/dt for one atom of the scheme."""
    return liouvillian_matrix(drive_hamiltonian(scheme, params), jump_operators(scheme))


def liouvillian_residual(liouvillian: np.ndarray, rho: np.ndarray) -> float:
    """Euclidean norm of L vec(rho); zero iff rho is stationary."""
    return float(np.linalg.norm(liouvillian @ vectorize(rho)))


def evolve(liouvillian: np.ndarray, rho0, t_final: float, dt: float) -> np.ndarray:
    """Propagate rho0 to t_final with fixed-step classical RK4.

    The generator is linear and time independent, so the usual four stages
    are computed from precomputed powers-free matrix-vector products.  A
    short final step covers any remainder of t_final that is not an integer
    multiple of dt.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    liou = np.asarray(liouvillian, dtype=complex)
    dim = int(round(math.sqrt(liou.shape[0])))
    rho0 = check_density_matrix(rho0, dim, herm_tol=1e-8, trace_tol=1e-8, eig_floor=1e-7)
    vec = vectorize(rho0)

    def rk4_step(v, h):
        k1 = liou @ v
        k2 = liou @ (v + 0.5 * h * k1)
        k3 = liou @ (v + 0.5 * h * k2)
        k4 = liou @ (v + h * k3)
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_full = int(t_final / dt)
    remainder = t_final - n_full * dt
    for _ in range(n_full):
        vec = rk4_step(vec, dt)
    if remainder > 1e-15 * max(t_final, 1.0):
        vec = rk4_step(vec, remainder)
    return unvectorize(vec, dim)


def steady_state_numeric(liouvillian: np.ndarray) -> np.ndarray:
    """Steady state as the (unique) null vector of the Liouvillian.

    Uses a dense SVD; the returned matrix is Hermitized and trace
    normalized.  Raises :class:`DegenerateSteadyStateError` when the null
    space has dimension > 1, which happens for g = 0 where any population
    split of the ground manifold (and its internal coherence) is stationary.
    """
    liou = np.asarray(liouvillian, dtype=complex)
    dim = int(round(math.sqrt(liou.shape[0])))
    _, svals, vh = np.linalg.svd(liou)
    scale = svals[0] if svals[0] > 0 else 1.0
    if svals[-1] > 1e-8 * scale:
        raise ValueError("Liouvillian has no null vector (not trace preserving?)")
    if svals[-2] < 1e-10 * scale:
        n_null = int(np.sum(svals < 1e-10 * scale))
        raise DegenerateSteadyStateError(
            f"steady state is not unique: Liouvillian null space has dimension {n_null} "
            "(undriven ground-manifold populations are all stationary at g = 0)"
        )
    candidate = unvectorize(vh[-1].conj(), dim)
    trace = candidate.trace()
    if abs(trace) < 1e-12:
        raise ValueError("null vector is traceless; cannot normalize to a state")
    candidate = candidate / trace
    return 0.5 * (candidate + candidate.conj().T)


def steady_state_analytic(params: DriveDecayParams) -> np.ndarray:
    """Closed-form steady state of the four-level scheme (module docstring)."""
    if params.g <= 0:
        raise ValueError("closed-form steady state requires g > 0")
    g = params.g
    gam = params.total
    denom = 2.0 * (2.0 * g**2 + gam**2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[2, 2] = g**2 / denom
    rho[1, 1] = rho[3, 3] = (g**2 + gam**2) / denom
    rho[0, 1] = 1j * g * gam / denom
    rho[1, 0] = rho[0, 1].conjugate()
    rho[2, 3] = -rho[0, 1]
    rho[3, 2] = rho[2, 3].conjugate()
    return rho


def two_level_steady_state_analytic(params: DriveDecayParams) -> np.ndarray:
    """Closed-form steady state of the driven two-level scheme.

    Uses the total half-rate gamma = gamma0 + gamma as the single decay
    channel's half-rate: rho_ee = g^2/(2 g^2 + gamma^2) and
    rho_eg = -i g gamma/(2 g^2 + gamma^2).
    """
    if params.g <= 0:
        raise ValueError("closed-form steady state requires g > 0")
    g = params.g
    gam = params.total
    denom = 2.0 * g**2 + gam**2
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = g**2 / denom
    rho[1, 1] = (g**2 + gam**2) / denom
    rho[0, 1] = -1j * g * gam / denom
    rho[1, 0] = rho[0, 1].conjugate()
    return rho


@dataclass(frozen=True, eq=False)
class QuantumJumpResult:
    """Trajectory-ensemble steady-state estimate with per-entry standard errors."""

    rho: np.ndarray
    stderr: np.ndarray
    n_traj: int
    n_samples: int
    n_jumps: int  # jumps of all trajectories within the horizon


def quantum_jump_estimate(
    scheme: LevelScheme,
    params: DriveDecayParams,
    n_traj: int,
    t_total: float,
    seed: int,
    *,
    burn_fraction: float = 0.1,
    initial_level: int | None = None,
) -> QuantumJumpResult:
    """Steady-state estimate from a quantum-jump (Monte Carlo wave function) unraveling.

    Waiting-time (delay-function) sampler: Plenio & Knight, Rev. Mod. Phys. 70, 101 (1998),
    Sec. IV; cf. Dalibard, Castin & Molmer, PRL 68, 580 (1992).  Every jump operator is
    |lower><upper|, so after a jump the state is a basis vector e_k and each trajectory is a
    renewal process: until the next jump it is E(tau) e_k, with E(tau) = expm(-i H_eff tau) and
    H_eff = H - (i/2) sum_c L_c^dag L_c, whose squared norm S_k(tau) is the survival function of
    the waiting time.  E(m dt) e_k is tabulated once per restart level; the jump falls where S_k
    reaches the drawn threshold, bracketed on the table and solved to machine precision with
    exact propagation inside one grid step (no discretization bias), and the channel is drawn
    with weights rate_c |psi_upper_c|^2 there.  Each round moves every live trajectory one jump
    ahead, vectorized, so the cost scales with the jumps.  The normalized projector is sampled
    on the fixed grid t_n = n dt, dt = 0.02/Gamma; after the first ``burn_fraction`` of the
    grid, samples are time averaged per trajectory, and each entry's standard error is taken
    across trajectories.

    Determinism: trajectory i draws only from its own substream of ``SeedSequence(seed)``,
    in a fixed order (the first threshold; per jump, the channel, then the next threshold),
    so results are bit-identical for a fixed seed and independent of any batching order.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if t_total <= 0:
        raise ValueError("t_total must be > 0")
    if not 0.0 <= burn_fraction < 1.0:
        raise ValueError("burn_fraction must be in [0, 1)")
    dim = scheme.n_levels
    if initial_level is None:
        initial_level = min(scheme.ground_levels)
    if not 0 <= initial_level < dim:
        raise ValueError(f"initial level {initial_level} out of range")
    dt = 0.02 / params.total
    n_steps = int(round(t_total / dt))
    n_samples = n_steps - int(round(burn_fraction * n_steps))
    if n_samples == 0:
        raise ValueError("no samples collected; decrease burn_fraction or increase t_total")

    uppers = np.array([t.upper for t in scheme.transitions])
    lowers = np.array([t.lower for t in scheme.transitions])
    rates = np.array([t.decay_rate for t in scheme.transitions])
    a = -1j * drive_hamiltonian(scheme, params).astype(complex)  # -i H_eff
    np.add.at(a, (uppers, uppers), -0.5 * rates)
    # propagate(taus)[i] = expm(a taus[i]) for 0 <= taus <= dt: degree-18 Taylor series of
    # expm(a tau / 2^s) with ||a dt / 2^s||_1 <= 1/2 (truncation below 1e-22), squared s times
    squarings = max(0, math.ceil(math.log2(max(2.0 * dt * np.abs(a).sum(axis=0).max(), 1.0))))
    terms = [np.eye(dim, dtype=complex)]
    for n in range(1, 19):
        terms.append(terms[-1] @ a / n)
    terms = np.reshape(terms, (len(terms), -1))

    def propagate(taus) -> np.ndarray:
        x = np.asarray(taus, dtype=float)[:, None] / 2.0**squarings
        out = (x ** np.arange(len(terms)) @ terms).reshape(-1, dim, dim)
        for _ in range(squarings):
            out = out @ out
        return out

    # table[searchsorted(restart, k), m] = E(m dt) e_k, past the longest stretch r0 + n_steps dt
    restart = np.unique(np.append(lowers, initial_level))
    table = np.zeros((len(restart), n_steps + 2, dim), dtype=complex)
    table[:, 0] = np.eye(dim)[restart]
    power, filled = propagate([dt])[0], 1
    while filled < table.shape[1]:
        n = min(filled, table.shape[1] - filled)
        table[:, filled : filled + n] = table[:, :n] @ power.T
        power, filled = power @ power, filled + n
    neg_survival = -np.einsum("lmi,lmi->lm", table, table.conj()).real

    def decay(psi):  # rate_c |psi_upper_c|^2: the channel weights, summing to -dS/dtau
        return rates * np.abs(psi[:, uppers]) ** 2

    def crossing(rows, m, thresh):
        """Offsets delta in [0, dt] where ||E(delta) table[rows, m]||^2 = thresh, and the
        states there: Newton from the linear interpolation of the bracketing survival values,
        bisecting instead of any step that leaves the bracket or fails to halve the last."""
        phi, s_lo, s_hi = table[rows, m], -neg_survival[rows, m], -neg_survival[rows, m + 1]
        tol = 4.0 * np.finfo(float).eps
        lo, hi = np.zeros_like(thresh), np.full_like(thresh, dt)
        delta = dt * (s_lo - thresh) / (s_lo - s_hi)
        prev_step, done = hi, np.zeros(thresh.shape, dtype=bool)
        for _ in range(200):
            psi = np.einsum("bij,bj->bi", propagate(delta), phi)
            excess = np.einsum("bi,bi->b", psi, psi.conj()).real - thresh
            lo, hi = np.where(excess >= 0, delta, lo), np.where(excess >= 0, hi, delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -excess / decay(psi).sum(axis=1)
            inside = (delta - step > lo) & (delta - step < hi)
            newton = inside & (2.0 * abs(step) <= abs(prev_step))
            step = np.where(newton, step, delta - (lo + hi) / 2)
            done |= (abs(excess) <= tol * thresh) | (abs(step) <= tol * dt)
            if done.all():
                return delta, psi
            delta, prev_step = np.where(done, delta, delta - step), step
        raise RuntimeError("jump-time root finding did not converge")

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    # trajectory i restarted from level row[i] at time start[i] dt - r0[i], 0 <= r0 < dt,
    # so its grid point start[i] + j holds E(r0 + j dt) e_k
    row = np.full(n_traj, np.searchsorted(restart, initial_level))
    start = np.zeros(n_traj, dtype=int)
    r0 = np.zeros(n_traj)
    thresholds = np.array([rng.random() for rng in rngs])
    live = np.arange(n_traj)
    acc = np.zeros((n_traj, dim, dim), dtype=complex)
    n_jumps = 0
    while live.size:
        lev, first, off, thresh = row[live], start[live], r0[live], thresholds[live]
        m = np.empty(live.size, dtype=int)  # first table index with survival below threshold
        for level in np.unique(lev):
            m[lev == level] = np.searchsorted(neg_survival[level], -thresh[lev == level], "right")
        n_cov = n_steps + 1 - first  # grid points left, all covered unless a jump comes first
        cand = np.flatnonzero((m < table.shape[1]) & ((m - 1) * dt < off + (n_cov - 1) * dt))
        delta, psi_jump = crossing(lev[cand], m[cand] - 1, thresh[cand])
        # jump at tau = (m - 1) dt + delta, after the grid points r0 + j dt it covers
        past = delta > off[cand]
        covered = m[cand] - 1 + past
        jumped = first[cand] + covered <= n_steps
        n_cov[cand[jumped]] = covered[jumped]
        # normalized projector at the covered grid points after the burn-in
        j_lo = np.maximum(n_steps - n_samples + 1 - first, 0)
        for i, v in zip(np.flatnonzero(n_cov > j_lo), propagate(off[n_cov > j_lo])):
            psi = table[lev[i], j_lo[i] : n_cov[i]] @ v.T
            norms2 = np.einsum("sa,sa->s", psi, psi.conj()).real
            acc[live[i]] += (psi / norms2[:, None]).T @ psi.conj()
        cand, delta, past, covered = cand[jumped], delta[jumped], past[jumped], covered[jumped]
        weights = decay(psi_jump[jumped])
        total = weights.sum(axis=1)
        if np.any(total <= 0):
            raise RuntimeError("survival reached the jump threshold with no decaying amplitude")
        traj = live[cand]
        draws = np.array([rngs[i].random(2) for i in traj]).reshape(-1, 2)  # channel, threshold
        # per row: searchsorted(cumsum(weights) / total, draw, side="right")
        pick = (np.cumsum(weights, axis=1) / total[:, None] <= draws[:, :1]).sum(axis=1)
        row[traj] = np.searchsorted(restart, lowers[np.minimum(pick, len(rates) - 1)])
        start[traj] = first[cand] + covered
        r0[traj] = np.where(past, dt, 0.0) + off[cand] - delta
        thresholds[traj] = draws[:, 1]
        n_jumps += traj.size
        live = traj

    per_traj = acc / n_samples
    rho = per_traj.mean(axis=0)
    if n_traj > 1:
        stderr = per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        stderr = np.full((dim, dim), np.inf)
    return QuantumJumpResult(rho, stderr.real, n_traj, n_samples, n_jumps)

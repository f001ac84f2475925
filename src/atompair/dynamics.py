"""Single-atom master equation: construction, steady states, quantum-jump estimate.

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
matrices: vec(A rho B) = kron(B.T, A) vec(rho).  With the no-jump generator
a = -i H_eff, H_eff = H - (i/2) sum_c rate_c |u_c><u_c|, the Liouvillian is

    L = 1 (x) a + conj(a) (x) 1 + sum_c rate_c |l_c l_c><u_c u_c|

summed over the decay channels c = u_c -> l_c, where |k k> = vec(|k><k|).
The quantum-jump estimate propagates with the same a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_model import DriveDecayParams, LevelScheme, Z_HAT, _rescaled

__all__ = [
    "DegenerateSteadyStateError",
    "vectorize",
    "unvectorize",
    "pure_state",
    "drive_hamiltonian",
    "build_liouvillian",
    "liouvillian_residual",
    "steady_state_numeric",
    "steady_state_analytic",
    "two_level_steady_state_analytic",
    "QuantumJumpResult",
    "quantum_jump_estimate",
]


class DegenerateSteadyStateError(ValueError):
    """The Liouvillian null space has dimension > 1 (no unique steady state): on the four-level
    scheme at g = 0, or at gamma = 0, where no decay links the two driven pi pairs."""


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-major (Fortran-order) vectorization of a square matrix."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return np.asarray(vec, dtype=complex).reshape((dim, dim), order="F")


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix |psi><psi| of a (normalized) amplitude vector."""
    psi = _rescaled(amplitudes, complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero state vector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


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


def _generator(scheme: LevelScheme, params: DriveDecayParams):
    """No-jump generator a = -i H_eff, H_eff = H - (i/2) sum_c rate_c |u_c><u_c|, and the
    upper levels, lower levels and rates of the decay channels c."""
    uppers = np.array([t.upper for t in scheme.transitions])
    lowers = np.array([t.lower for t in scheme.transitions])
    rates = np.array([t.decay_rate for t in scheme.transitions])
    a = -1j * drive_hamiltonian(scheme, params).astype(complex)  # -i H_eff
    np.add.at(a, (uppers, uppers), -0.5 * rates)
    return a, uppers, lowers, rates


def build_liouvillian(scheme: LevelScheme, params: DriveDecayParams) -> np.ndarray:
    """Superoperator generating d(vec rho)/dt for one atom of the scheme: L = 1 (x) a +
    conj(a) (x) 1 + sum_c rate_c |l_c l_c><u_c u_c|, with a = -i H_eff from ``_generator``
    and |k k> = vec(|k><k|) at index k (d + 1)."""
    a, uppers, lowers, rates = _generator(scheme, params)
    dim = a.shape[0]
    eye = np.eye(dim)
    liou = eye[:, None, :, None] * a[None, :, None, :] + a.conj()[:, None, :, None] * eye[None, :, None, :]
    liou = liou.reshape(dim * dim, dim * dim)
    np.add.at(liou, (lowers * (dim + 1), uppers * (dim + 1)), rates)
    return liou


def liouvillian_residual(liouvillian: np.ndarray, rho: np.ndarray) -> float:
    """Euclidean norm of L vec(rho); zero iff rho is stationary."""
    return float(np.linalg.norm(liouvillian @ vectorize(rho)))


def steady_state_numeric(liouvillian: np.ndarray) -> np.ndarray:
    """Steady state as the (unique) null vector of the Liouvillian.

    Uses a dense SVD; the returned matrix is Hermitized and trace
    normalized.  Raises :class:`DegenerateSteadyStateError`, naming the null-space
    dimension, when it is > 1: at g = 0, or with no decay linking the driven pairs.
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
            "(either g = 0, which leaves every ground-manifold population stationary, or no "
            "decay links the driven pairs, so each pair keeps its own population)"
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
    rho_eg = -i g gamma/(2 g^2 + gamma^2); at g = 0 it is the ground state.
    """
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
    n_samples: int  # averaging window [t_burn, t_total] in grid steps: its length is n_samples dt
    n_jumps: int  # jumps of all trajectories within the horizon


# Buffered jumps per refill of a trajectory's draws: rng.random((n, 2)) returns the same
# numbers as 2 n scalar calls, so the substreams and the draw order do not depend on it
_DRAW_BLOCK = 16


def _pair_blocks(scheme: LevelScheme, a: np.ndarray, levels: np.ndarray):
    """Per level k: the excited and ground level (e, l) of the driven pair that holds k, and N =
    a - mu, which maps that block into itself and squares to kappa^2 there; an undriven level is
    its own block, e = l = k and N e_k = kappa = 0.  Any other structure raises ValueError."""

    def linked(k):
        return [j for j in np.flatnonzero(a[k]) if j != k]

    excited, ground = levels.copy(), levels.copy()
    for row, k in enumerate(levels):
        if linked(k):
            e, l = (k, linked(k)[0]) if k in scheme.excited_levels else (linked(k)[0], k)
            if linked(e) != [l] or linked(l) != [e] or a[e, e] == 0:
                raise ValueError(f"level {k} is not in exactly one driven excited-ground pair")
            excited[row], ground[row] = e, l
    mu = (a[excited, excited] + a[ground, ground]) / 2
    n = a - mu[:, None, None] * np.eye(len(a))
    kappa = np.sqrt(np.einsum("rij,rji->ri", n, n)[np.arange(len(levels)), levels])  # (N^2)_kk
    return excited, ground, mu, n, kappa


def _pair_propagated(mu, kappa, phi, n_phi, tau: np.ndarray) -> np.ndarray:
    """expm(a tau) phi = e^{(mu + kappa) tau} [(1 + w)/2 phi + (1 - w)/(2 kappa) N phi], w =
    e^{-2 kappa tau}, for phi in a block a = mu + N, N^2 = kappa^2, given n_phi = N phi and tau of
    the batch shape.  With the principal root kappa, Re(mu + kappa) <= 0 and |w| <= 1, so nothing
    overflows at any tau, overdamped, underdamped or critical (kappa = 0: the fraction is tau)."""
    mu, kappa, tau = (np.asarray(x)[..., None] for x in (mu, kappa, tau))
    sinhc = np.expm1(-2 * kappa * tau)
    sinhc = np.divide(sinhc, -2 * kappa, out=tau.astype(complex), where=kappa != 0)
    return np.exp((mu + kappa) * tau) * (phi + sinhc * (n_phi - kappa * phi))


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
    renewal process: until the next jump it is E(tau) e_k, E(tau) = expm(a tau), whose squared
    norm S_k(tau) is the survival function of the waiting time.  E(tau) e_k stays in the driven
    excited-ground pair that holds k, where ``_pair_propagated`` gives it in closed form.  The
    grid dt = 0.02/Gamma only brackets jumps: S_k(m dt) is tabulated per restart level, the jump
    time is solved to machine precision inside its grid step, and the channel is drawn with
    weights rate_c |psi_upper_c|^2 there.

    Estimator: the exact time average of the normalized projector P = psi psi^dag / |psi|^2 over
    [t_burn, t_total], t_total = n_steps dt and t_burn = (n_steps - n_samples) dt, the first
    ``burn_fraction`` of the horizon.  By the renewal structure (Breuer & Petruccione, The Theory
    of Open Quantum Systems, OUP 2002, ch. 6) a stretch from level k contributes
    F_k(tau_b) - F_k(tau_a), F_k(tau) = int_0^tau P(E(s) e_k) ds, between its part's ends in the
    window, in its own time tau.  On the pair of excited level e and ground level l, a[e, l] =
    a[l, e] = i c and a[e, e] = -G; up to a constant phase E(tau) e_k = |psi| (cos t e_l + i sin
    t e_e), with t' = c - G sin t cos t and d ln S_k / dtau = -2 G sin^2 t.  So F_ee = -ln S_k /
    (2 G), F_ll = tau - F_ee and F_el = -F_le = i (c tau - (t(tau) - t(0))) / G, where t is read
    from the state by atan2 and unwound to within pi of t(0) + sign(c) |Im kappa| tau: the
    no-jump map preserves orientation, so t never strays further.  An undriven level stays put,
    F_k = tau e_k e_k^T; a restart level in any other structure raises ValueError.  Each round
    moves every live trajectory one jump ahead and adds its stretch, vectorized, so the cost
    scales with the jumps.  Each entry's standard error is taken across the per-trajectory
    averages.

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

    a, uppers, lowers, rates = _generator(scheme, params)
    restart = np.unique(np.append(lowers, initial_level))
    excited, ground, mu, n_pair, kappa = _pair_blocks(scheme, a, restart)
    unit = np.eye(dim)[restart]  # e_k per restart row
    # F_k's c = a[e, l] / i and G = -a[e, e] per row; G = inf on an undriven row zeroes F_ee, F_el
    coupling = a[excited, ground].imag
    half_decay = np.where(excited != ground, -a[excited, excited].real, np.inf)
    rotation = np.sign(coupling) * abs(kappa.imag)

    # table[searchsorted(restart, k), m] = E(m dt) e_k up to t_total, written on k's pair columns
    table = np.zeros((len(restart), n_steps + 1, dim), dtype=complex)
    for row, k in enumerate(restart):
        cols = [excited[row], ground[row]]
        table[row][:, cols] = _pair_propagated(
            mu[row], kappa[row], unit[row, cols], n_pair[row, cols, k], dt * np.arange(n_steps + 1)
        )
    neg_survival = -np.einsum("lmi,lmi->lm", table, table.conj()).real

    def integrated(lev, tau) -> np.ndarray:
        """F_k(tau) in closed form from the no-jump state E(tau) e_k."""
        psi = _pair_propagated(mu[lev], kappa[lev], unit[lev], n_pair[lev, :, restart[lev]], tau)
        rows, e, l = np.arange(len(lev)), excited[lev], ground[lev]
        # psi_l + psi_e = |psi| exp(i (t(tau) - t(0))), whether k = l (t(0) = 0) or k = e
        turn = np.angle(psi[rows, l] + psi[rows, e])
        turn += 2 * np.pi * np.round((rotation[lev] * tau - turn) / (2 * np.pi))
        f_ee = -np.log(np.einsum("bi,bi->b", psi, psi.conj()).real) / (2 * half_decay[lev])
        f_el = 1j * (coupling[lev] * tau - turn) / half_decay[lev]
        out = np.zeros((len(lev), dim, dim), dtype=complex)
        out[rows, e, e] = f_ee
        out[rows, l, l] += tau - f_ee
        out[rows, e, l] += f_el
        out[rows, l, e] -= f_el
        return out

    def decay(psi):  # rate_c |psi_upper_c|^2: the channel weights, summing to -dS/dtau
        return rates * np.abs(psi[:, uppers]) ** 2

    def crossing(rows, m, thresh):
        """Times m dt + delta, delta in [0, dt], where ||E(delta) table[rows, m]||^2 = thresh,
        and the states there: Newton from the linear interpolation of the bracketing survival
        values, bisecting instead of any step that leaves the bracket or fails to halve the last."""
        phi, s_lo, s_hi = table[rows, m], -neg_survival[rows, m], -neg_survival[rows, m + 1]
        n_phi = np.einsum("bij,bj->bi", n_pair[rows], phi)
        tol = 4.0 * np.finfo(float).eps
        lo, hi = np.zeros_like(thresh), np.full_like(thresh, dt)
        delta = dt * (s_lo - thresh) / (s_lo - s_hi)
        prev_step, done = hi, np.zeros(thresh.shape, dtype=bool)
        for _ in range(200):
            psi = _pair_propagated(mu[rows], kappa[rows], phi, n_phi, delta)
            excess = np.einsum("bi,bi->b", psi, psi.conj()).real - thresh
            lo, hi = np.where(excess >= 0, delta, lo), np.where(excess >= 0, hi, delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -excess / decay(psi).sum(axis=1)
            inside = (delta - step > lo) & (delta - step < hi)
            newton = inside & (2.0 * abs(step) <= abs(prev_step))
            step = np.where(newton, step, delta - (lo + hi) / 2)
            done |= (abs(excess) <= tol * thresh) | (abs(step) <= tol * dt)
            if done.all():
                return m * dt + delta, psi
            delta, prev_step = np.where(done, delta, delta - step), step
        raise RuntimeError("jump-time root finding did not converge")

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    draws = np.empty((n_traj, _DRAW_BLOCK, 2))  # per jump: channel, threshold
    used = np.full(n_traj, _DRAW_BLOCK)  # buffered jumps consumed
    row = np.full(n_traj, np.searchsorted(restart, initial_level))
    restarted = np.zeros(n_traj)  # the time of each trajectory's last jump
    thresholds = np.array([rng.random() for rng in rngs])
    live = np.arange(n_traj)
    acc = np.zeros((n_traj, dim, dim), dtype=complex)  # each trajectory's integral
    n_jumps = 0
    while live.size:
        lev, thresh = row[live], thresholds[live]
        end = n_steps * dt - restarted[live]  # t_total in each stretch's own time
        cut = end - n_samples * dt  # t_burn there; F_k(cut) = 0 for cut <= 0
        m = np.empty(live.size, dtype=int)  # first table index with survival below threshold
        for level in np.unique(lev):
            m[lev == level] = np.searchsorted(neg_survival[level], -thresh[lev == level], "right")
        cand = np.flatnonzero((m - 1) * dt < end)  # brackets before t_total: m <= n_steps
        tau, psi_jump = crossing(lev[cand], m[cand] - 1, thresh[cand])
        jumped = tau <= end[cand]
        cand, tau = cand[jumped], tau[jumped]
        end[cand] = tau  # the stretch ends at the jump, else at t_total
        ends = np.flatnonzero(end > np.maximum(cut, 0.0))
        cuts = ends[cut[ends] > 0]
        values = integrated(lev[np.append(ends, cuts)], np.append(end[ends], cut[cuts]))
        acc[live[ends]] += values[: ends.size]
        acc[live[cuts]] -= values[ends.size :]
        weights = decay(psi_jump[jumped])
        total = weights.sum(axis=1)
        if np.any(total <= 0):
            raise RuntimeError("survival reached the jump threshold with no decaying amplitude")
        traj = live[cand]
        for i in traj[used[traj] == _DRAW_BLOCK]:
            draws[i], used[i] = rngs[i].random((_DRAW_BLOCK, 2)), 0
        draw = draws[traj, used[traj]]
        used[traj] += 1
        # per row: searchsorted(cumsum(weights) / total, draw, side="right")
        pick = (np.cumsum(weights, axis=1) / total[:, None] <= draw[:, :1]).sum(axis=1)
        row[traj] = np.searchsorted(restart, lowers[np.minimum(pick, len(rates) - 1)])
        restarted[traj] += tau
        thresholds[traj] = draw[:, 1]
        n_jumps += traj.size
        live = traj

    per_traj = acc / (n_samples * dt)
    rho = per_traj.mean(axis=0)
    if n_traj > 1:
        stderr = per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj)
    else:
        stderr = np.full((dim, dim), np.inf)
    return QuantumJumpResult(rho, stderr.real, n_traj, n_samples, n_jumps)

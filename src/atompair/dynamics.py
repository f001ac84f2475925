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


# Jumps per round: a stretch's restart level follows from the channel draws alone and its waiting
# time from that level and its threshold, so each round takes every live trajectory through a
# whole block of buffered draws (its levels, one batch of waiting times, one cumsum of restart
# times) up to its first stretch that does not jump before t_total.  rng.random((n, 2)) returns
# the same numbers as 2 n scalar calls, so the draw order does not depend on the block.  Groups
# of at most _GROUP trajectories run their rounds in turn, which caps each round's arrays.  The
# time average leaves out the first _BURN_IN of the horizon, where the ground start still relaxes.
_DRAW_BLOCK, _GROUP, _BURN_IN = 16, 128, 0.1


def _pair_blocks(generator, levels: np.ndarray):
    """Per ground level l, from ``_generator``'s (a, uppers, lowers, rates): the excited level e of
    the driven pair (e, l); its column (G, c, kappa) for ``_no_jump``, a[e, e] = -G, a[e, l] = a[l,
    e] = i c, kappa = sqrt(G^2/4 - c^2) or -omega for kappa = i omega; and the cumulative channel
    weights at a jump over their total, rate_c |psi_upper_c|^2 = rate_c |psi_e|^2 on e's channels
    as only e is populated then (0 if l cannot jump).  An undriven level is its own block, e = l."""
    a, uppers, _, rates = generator

    def linked(k):
        return [j for j in np.flatnonzero(a[k]) if j != k]

    excited = levels.copy()
    for row, l in enumerate(levels):
        if linked(l):
            e = linked(l)[0]
            if linked(e) != [l] or linked(l) != [e] or a[e, e] == 0:
                raise ValueError(f"level {l} is not in exactly one driven excited-ground pair")
            excited[row] = e
    decay, coupling = -a[excited, excited].real, a[excited, levels].imag
    square = decay**2 / 4 - coupling**2
    weights = np.where(uppers == excited[:, None], rates, 0.0)
    total = weights.sum(axis=1, keepdims=True)
    form = np.array([decay, coupling, np.copysign(np.sqrt(abs(square)), square)])
    return excited, form, np.cumsum(weights, axis=1) / np.where(total > 0, total, 1.0)


def _no_jump(form, tau, x, y):
    """expm(A tau) (x, y), A = [[0, -c], [c, -G]] per column (G, c, kappa) of ``form``: the no-jump
    map of x e_l + i y e_e in a pair of ``_pair_blocks``.  A = -G/2 + N, N^2 = kappa^2, so it is p +
    s N, p = e^{-G tau/2} cosh(kappa tau), s = e^{-G tau/2} sinh(kappa tau)/kappa: for real kappa >=
    0 via e^{(kappa - G/2) tau} <= 1 and w = e^{-2 kappa tau}, which cannot overflow (s = tau e^{-G
    tau/2} at the critical kappa = 0), else cos and sin/omega.  A batch of one kind takes one branch."""
    decay, coupling, kappa = form
    oscillating = kappa < 0
    if oscillating.all():  # kappa = i omega
        fade, angle = np.exp(-decay / 2 * tau), -kappa * tau
        p, s = fade * np.cos(angle), fade * np.sin(angle) / -kappa
    elif not oscillating.any():
        fade, gone = np.exp((kappa - decay / 2) * tau), -np.expm1(-2 * kappa * tau)  # gone = 1 - w
        p, s = fade * (1 - gone / 2), fade * np.divide(gone, 2 * kappa, out=tau + 0 * gone, where=kappa != 0)
    else:  # rows of both kinds: each takes its own branch
        under = _no_jump(np.array([decay, coupling, np.where(oscillating, kappa, -1.0)]), tau, x, y)
        over = _no_jump(np.array([decay, coupling, np.where(oscillating, 0.0, kappa)]), tau, x, y)
        return tuple(np.where(oscillating, u, o) for u, o in zip(under, over))
    return p * x + s * (decay / 2 * x - coupling * y), p * y + s * (coupling * x - decay / 2 * y)


def quantum_jump_estimate(
    scheme: LevelScheme,
    params: DriveDecayParams,
    n_traj: int,
    t_total: float,
    seed: int,
) -> QuantumJumpResult:
    """Steady-state estimate from a quantum-jump (Monte Carlo wave function) unraveling.

    Waiting-time (delay-function) sampler: Plenio & Knight, Rev. Mod. Phys. 70, 101 (1998), Sec. IV;
    cf. Dalibard, Castin & Molmer, PRL 68, 580 (1992).  A trajectory starts in the lowest ground
    level, and every jump operator is |lower><upper|, so each stretch starts in a ground basis
    vector e_l and each trajectory is a renewal process: until the next jump it is E(tau) e_l,
    E(tau) = expm(a tau), whose squared norm S_l(tau) is the survival function of the waiting time.
    In the driven pair (e, l), E(tau) e_l = x e_l + i y e_e with the real amplitudes of ``_no_jump``
    from (1, 0): S_l = x^2 + y^2 and -S_l' = 2 G y^2 (Cohen-Tannoudji & Dalibard, Europhys. Lett. 1,
    441 (1986)).  The grid dt = 0.02/Gamma only brackets jumps: (x, y)(m dt) is tabulated per restart
    level, and each jump time is solved to machine precision from its bracket's amplitudes.  At a
    jump only e is populated, so the channel is drawn from e's fixed rate table, exactly.

    Estimator: the exact time average of the normalized projector P = psi psi^dag / |psi|^2 over
    [t_burn, t_total], t_total = n_steps dt and t_burn = (n_steps - n_samples) dt, the first
    tenth (``_BURN_IN``) of the horizon.  By the renewal structure (Breuer & Petruccione, The
    Theory of Open Quantum Systems, OUP 2002, ch. 6) a stretch from level l contributes
    F_l(tau_b) - F_l(tau_a), F_l(tau) = int_0^tau P(E(s) e_l) ds, between its part's ends in the
    window, in its own time tau.  With x + i y = |psi| e^{i t}, t' = c - G sin t cos t and
    d ln S_l / dtau = -2 G sin^2 t, so F_ee = -ln S_l / (2 G), F_ll = tau - F_ee and F_el = -F_le
    = i (c tau - t(tau)) / G, where t is read by atan2 and unwound to within pi of sign(c) |Im
    kappa| tau: the no-jump map preserves orientation, so t never strays further.  An undriven
    level stays put, F_l = tau e_l e_l^T; a restart level in any other structure raises
    ValueError.  The three reals are summed per trajectory and restart level in stretch order and
    put on the pair at the end; standard errors are taken across trajectories.

    Determinism: trajectory i draws only from its own substream of ``SeedSequence(seed)``,
    in a fixed order (the first threshold; per jump, the channel, then the next threshold),
    so results are bit-identical for a fixed seed and independent of any batching order.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if t_total <= 0:
        raise ValueError("t_total must be > 0")
    dim = scheme.n_levels
    dt = 0.02 / params.total
    n_steps = int(round(t_total / dt))
    n_samples = n_steps - int(round(_BURN_IN * n_steps))
    if n_samples == 0:
        raise ValueError("no samples collected; increase t_total")

    generator = _generator(scheme, params)
    restart = np.unique(np.append(generator[2], min(scheme.ground_levels)))  # ground levels; the start is [0]
    excited, form, cumulative = _pair_blocks(generator, restart)
    # searchsorted(cumulative[row], draw, "right") picks the channel, following[pick] the next row
    following = np.searchsorted(restart, np.append(generator[2], generator[2][-1]))
    half_decay = np.where(excited != restart, form[0], np.inf)  # F's G: inf zeroes an undriven F_ee
    rotation = np.sign(form[1]) * np.maximum(-form[2], 0.0)
    table_x, table_y = _no_jump(form[:, :, None], dt * np.arange(n_steps + 1), 1.0, 0.0)
    neg_survival = -(table_x**2 + table_y**2)

    def integrated(lev, tau) -> np.ndarray:
        """(F_ee, F_ll, Im F_el)(tau) per row, in closed form from the no-jump amplitudes."""
        x, y = _no_jump(form[:, lev], tau, 1.0, 0.0)
        turn = np.arctan2(y, x)  # t(tau) - t(0), as t(0) = 0
        turn += 2 * np.pi * np.round((rotation[lev] * tau - turn) / (2 * np.pi))
        f_ee = -np.log(x**2 + y**2) / (2 * half_decay[lev])
        return np.column_stack([f_ee, tau - f_ee, (form[1, lev] * tau - turn) / half_decay[lev]])

    def crossing(rows, m, thresh):
        """Times m dt + delta, delta in [0, dt], where the survival from the tabulated (x, y)(m dt)
        reaches thresh, and -dS/dtau = 2 G y^2 there: Newton from the linear interpolation of the
        bracket, bisecting instead of any step that leaves it or fails to halve the last."""
        pair, x, y = form[:, rows], table_x[rows, m], table_y[rows, m]
        s_lo, s_hi = -neg_survival[rows, m], -neg_survival[rows, m + 1]
        tol = 4.0 * np.finfo(float).eps
        lo, hi = np.zeros_like(thresh), np.full_like(thresh, dt)
        delta = dt * (s_lo - thresh) / (s_lo - s_hi)
        prev_step, done = hi, np.zeros(thresh.shape, dtype=bool)
        for _ in range(200):
            x_d, y_d = _no_jump(pair, delta, x, y)
            excess, slope = x_d**2 + y_d**2 - thresh, 2 * pair[0] * y_d**2
            lo, hi = np.where(excess >= 0, delta, lo), np.where(excess >= 0, hi, delta)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -excess / slope
            inside = (delta - step > lo) & (delta - step < hi)
            newton = inside & (2.0 * abs(step) <= abs(prev_step))
            step = np.where(newton, step, delta - (lo + hi) / 2)
            done |= (abs(excess) <= tol * thresh) | (abs(step) <= tol * dt)
            if done.all():
                return m * dt + delta, slope
            delta, prev_step = np.where(done, delta, delta - step), step
        raise RuntimeError("jump-time root finding did not converge")

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    row = np.zeros(n_traj, dtype=int)
    restarted = np.zeros(n_traj)  # the time of each trajectory's last jump
    thresholds = np.array([rng.random() for rng in rngs])
    block = _DRAW_BLOCK
    acc = np.zeros((n_traj, len(restart), 3))  # per trajectory and restart row: the sum of its F
    n_jumps = 0
    for live in np.array_split(np.arange(n_traj), -(-n_traj // _GROUP)):
        while live.size:
            draws = np.array([rngs[i].random((block, 2)) for i in live])  # per jump: channel, threshold
            # each stretch's restart row: rows[:, j + 1] follows rows[:, j] by the j-th channel draw
            picked = following[(cumulative[:, None, None, :] <= draws[None, :, :, :1]).sum(axis=-1)]
            rows = np.repeat(row[live, None], block + 1, axis=1)
            for j in range(block):
                rows[:, j + 1] = picked[rows[:, j], np.arange(live.size), j]
            lev, thresh = rows[:, :-1].ravel(), np.column_stack([thresholds[live], draws[:, :-1, 1]]).ravel()
            m = np.empty(lev.size, dtype=int)  # first table index with survival below threshold
            for level in np.unique(lev):
                m[lev == level] = np.searchsorted(neg_survival[level], -thresh[lev == level], "right")
            tau, slope = np.full(lev.size, np.inf), np.zeros(lev.size)
            inside = np.flatnonzero(m <= n_steps)  # the survival crosses the threshold in the table
            tau[inside], slope[inside] = crossing(lev[inside], m[inside] - 1, thresh[inside])
            # each stretch's start, by the same additions as restart time += tau per jump
            begun = np.cumsum(np.column_stack([restarted[live], tau.reshape(-1, block)]), axis=1)
            end = n_steps * dt - begun[:, :-1].ravel()  # t_total in each stretch's own time
            cut = end - n_samples * dt  # t_burn there; F_k(cut) = 0 for cut <= 0
            jumped = ((m - 1) * dt < end) & (tau <= end)
            held = np.logical_and.accumulate(jumped.reshape(-1, block), axis=1)
            reached = np.column_stack([np.ones(live.size, dtype=bool), held[:, :-1]]).ravel()
            if np.any(slope[reached & jumped] <= 0):
                raise RuntimeError("survival reached the jump threshold with no decaying amplitude")
            n_jumps += int(np.sum(reached & jumped))
            end = np.where(jumped, tau, end)  # the stretch ends at the jump, else at t_total
            ends = np.flatnonzero(reached & (end > np.maximum(cut, 0.0)))
            cuts = ends[cut[ends] > 0]
            values = integrated(lev[np.append(ends, cuts)], np.append(end[ends], cut[cuts]))
            gain = values[: ends.size]
            gain[np.searchsorted(ends, cuts)] -= values[ends.size :]
            np.add.at(acc, (live[ends // block], lev[ends]), gain)  # in stretch order
            more = held[:, -1]  # the whole block jumped
            live = live[more]
            row[live], thresholds[live], restarted[live] = rows[more, -1], draws[more, -1, 1], begun[more, -1]

    acc /= n_samples * dt  # each row's F_ee, F_ll, F_el and F_le = -F_el go onto its pair
    per_traj = np.zeros((n_traj, dim, dim), dtype=complex)
    e, l = np.stack([excited, restart, excited, restart], 1), np.stack([excited, restart, restart, excited], 1)
    np.add.at(per_traj, (slice(None), e, l), acc[..., [0, 1, 2, 2]] * np.array([1, 1, 1j, -1j]))
    stderr = per_traj.std(axis=0, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.full((dim, dim), np.inf)
    return QuantumJumpResult(per_traj.mean(axis=0), stderr.real, n_traj, n_samples, n_jumps)

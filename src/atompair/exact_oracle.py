"""Brute-force two-atom validator.

Everything here works on the full product Hilbert space of the pair
(atom A is the first tensor factor), with no factorization assumption:
the pair field operator is

    E^(+)(det) = phase_A kron(c, 1) + phase_B kron(1, c),

with c the single-atom lowering-coefficient matrix of the detector, and
observables are plain operator traces against an arbitrary 16x16 (or 4x4
for two-level atoms) pair density matrix.  The coincidence, conditioned-state
and intensity kernels take stacks of detectors, one direction and analyzer
per row for each detector, and work ``_BLOCK`` rows at a time on the random
detector pairs of ``validate``; the public point functions run them on a
stack of one.  A scan moves only the second detector's direction, so
:func:`_g2_exact_scan` conditions the pair state on the first detector once
and reduces the second to a 2x2 form in the two atoms' phases.  Agreement with
the factorized formulas on product states is the central consistency theorem
of the package; on entangled states the factorized formulas are wrong by
design and the values computed here are the truth.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .atom_model import Detector, Geometry, LevelScheme
from .farfield import _geometric_phases, lowering_coefficients

__all__ = [
    "pair_field_matrix",
    "intensity_exact",
    "g2_exact",
    "ConditionedState",
    "conditioned_state",
]


#: detector rows per stacked evaluation; bounds the temporaries of a batch of detector pairs
#: to a few (BLOCK, d^2, d^2) arrays whatever its length
_BLOCK = 16


def _pair_field_matrices(
    scheme: LevelScheme, geometry: Geometry, directions: np.ndarray, epsilon
) -> np.ndarray:
    """E^(+)(n) = phase_A(n) kron(c, 1) + phase_B(n) kron(1, c) at every row n of ``directions``
    (shape (N, 3)), with one analyzer for every row (shape (3,)) or one analyzer per row
    (shape (N, 3)); returns shape (N, d^2, d^2)."""
    phase_a = _geometric_phases(geometry, directions, geometry.r_a)[:, None, None]
    phase_b = _geometric_phases(geometry, directions, geometry.r_b)[:, None, None]
    coeff = lowering_coefficients(scheme, epsilon)
    d = scheme.n_levels
    e_plus = np.zeros((len(directions), d, d, d, d), dtype=complex)
    # writeable diagonal views of kron(c, 1)[ij, kl] = c[i, k] delta_jl
    # and kron(1, c)[ij, kl] = delta_ik c[j, l]
    np.einsum("nijkj->nikj", e_plus)[...] = (phase_a * coeff)[..., None]
    np.einsum("nijil->nijl", e_plus)[...] += (phase_b * coeff)[:, None]
    return e_plus.reshape(len(directions), d * d, d * d)


def pair_field_matrix(scheme: LevelScheme, geometry: Geometry, detector: Detector) -> np.ndarray:
    """Positive-frequency pair field operator E^(+) for one detector."""
    return _pair_field_matrices(scheme, geometry, detector.n[None], detector.epsilon[None])[0]


def _check_pair_state(scheme: LevelScheme, rho_ab) -> np.ndarray:
    rho_ab = np.asarray(rho_ab, dtype=complex)
    dim = scheme.n_levels**2
    if rho_ab.shape != (dim, dim):
        raise ValueError(f"pair state must have shape ({dim}, {dim}), got {rho_ab.shape}")
    return rho_ab


def _real_traces(values: np.ndarray, label: str) -> list[float]:
    """Real parts of traces that must be real, each checked on its own scale."""
    reals = []
    for value in values.tolist():
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise ValueError(f"{label} should be real, got imaginary part {value.imag:.3e}")
        reals.append(value.real)
    return reals


def _intensities_exact(
    scheme: LevelScheme, geometry: Geometry, directions: np.ndarray, epsilon, rho_ab: np.ndarray
) -> np.ndarray:
    """tr(rho_AB E^(-) E^(+)) at every row of ``directions`` and ``epsilon`` (as in
    :func:`_pair_field_matrices`), against one checked pair state or one per row."""
    e_plus = _pair_field_matrices(scheme, geometry, directions, epsilon)
    values = np.trace(rho_ab @ e_plus.conj().swapaxes(1, 2) @ e_plus, axis1=-2, axis2=-1)
    return np.array(_real_traces(values, "intensity"))


def intensity_exact(
    scheme: LevelScheme, geometry: Geometry, detector: Detector, rho_ab
) -> float:
    """tr(rho_AB E^(-) E^(+)) without any factorization assumption."""
    rho_ab = _check_pair_state(scheme, rho_ab)
    rows = (detector.n[None], detector.epsilon[None])
    return float(_intensities_exact(scheme, geometry, *rows, rho_ab)[0])


def g2_exact(
    scheme: LevelScheme,
    geometry: Geometry,
    det_1: Detector,
    det_2: Detector,
    rho_ab,
) -> float:
    """tr(rho_AB E1^(-) E2^(-) E2^(+) E1^(+)), the exact coincidence rate.

    The same-atom double-emission terms vanish identically because the
    single-atom coefficient matrices are nilpotent lowering maps; only the
    cross-atom two-photon amplitudes survive, which is where the fringes
    come from.
    """
    rows = (det_1.n[None], det_1.epsilon[None], det_2.n[None], det_2.epsilon[None])
    return float(_g2_exact_stack(scheme, geometry, *rows, rho_ab)[0])


def _g2_exact_stack(
    scheme: LevelScheme,
    geometry: Geometry,
    n_1: np.ndarray,
    epsilon_1: np.ndarray,
    n_2: np.ndarray,
    epsilon_2: np.ndarray,
    rho_ab,
) -> np.ndarray:
    """:func:`g2_exact` of the detector pair in every row of n_1, epsilon_1 (first detector)
    and n_2, epsilon_2 (second detector), evaluated ``_BLOCK`` rows at a time.

    Each argument has shape (N, 3), or (1, 3) for one vector shared by every row.  The
    first detector's field operators are built once for all its rows, so it has one row
    or at most ``_BLOCK``.  With M = E2^(+) E1^(+), the rate tr(rho_AB M^dag M) is the sum
    over both indices of conj(M) * (M rho_AB); each value gets its own realness check.
    """
    rho_ab = _check_pair_state(scheme, rho_ab)
    e_1 = _pair_field_matrices(scheme, geometry, n_1, epsilon_1)
    rates = []
    for start in range(0, max(len(e_1), len(n_2)), _BLOCK):
        e_1_rows, n_2_rows, epsilon_2_rows = (
            x if len(x) == 1 else x[start : start + _BLOCK] for x in (e_1, n_2, epsilon_2)
        )
        m = _pair_field_matrices(scheme, geometry, n_2_rows, epsilon_2_rows) @ e_1_rows
        rates += _real_traces(np.sum(m.conj() * (m @ rho_ab), axis=(1, 2)), "coincidence rate")
    return np.array(rates)


def _g2_exact_scan(
    scheme: LevelScheme, geometry: Geometry, det_1: Detector, n_2: np.ndarray, epsilon_2, rho_ab
) -> np.ndarray:
    """:func:`g2_exact` of det_1 with a second detector of analyzer epsilon_2 at every row of n_2.
    With sigma = E1^(+) rho_AB E1^(-) and E2^(+)(n) = phi_A(n) kron(c2, 1) + phi_B(n) kron(1, c2)
    = sum_k phi_k(n) B_k, the rate is sum_km phi_k conj(phi_m) Q_km, Q_km = tr(B_k sigma B_m^dag):
    real at every phase pair exactly when the 2x2 form Q is Hermitian."""
    rho_ab = _check_pair_state(scheme, rho_ab)
    e_1 = _pair_field_matrices(scheme, geometry, det_1.n[None], det_1.epsilon[None])[0]
    c_2, eye = lowering_coefficients(scheme, epsilon_2), np.eye(scheme.n_levels)
    b = np.stack([np.kron(c_2, eye), np.kron(eye, c_2)])
    q = np.einsum("kij,mij->km", b @ (e_1 @ rho_ab @ e_1.conj().T), b.conj())
    asymmetry = np.max(np.abs(q - q.conj().T))
    if asymmetry > 1e-10 * max(1.0, np.max(np.abs(q))):
        raise ValueError(f"coincidence rate should be real, got non-Hermitian part {asymmetry:.3e}")
    phi = np.stack([_geometric_phases(geometry, n_2, r) for r in (geometry.r_a, geometry.r_b)], 1)
    return np.einsum("nk,km,nm->n", phi, q, phi.conj()).real


@dataclass(frozen=True, eq=False)
class ConditionedState:
    """Pair state after one photon detection: E1^(+) rho E1^(-), its trace
    (the detection rate), and the renormalized state."""

    unnormalized: np.ndarray
    rate: float
    normalized: np.ndarray


def _conditioned_states(
    scheme: LevelScheme, geometry: Geometry, n_1: np.ndarray, epsilon_1: np.ndarray, rho_ab
) -> tuple[np.ndarray, np.ndarray]:
    """E1^(+) rho_AB E1^(-) and its trace, the detection rate, for the first detector in every
    row of the (N, 3) arrays n_1 and epsilon_1; shapes (N, d^2, d^2) and (N,)."""
    rho_ab = _check_pair_state(scheme, rho_ab)
    e_1 = _pair_field_matrices(scheme, geometry, n_1, epsilon_1)
    sigma = e_1 @ rho_ab @ e_1.conj().swapaxes(1, 2)
    rates = _real_traces(np.trace(sigma, axis1=1, axis2=2), "detection rate")
    if min(rates) <= 0:
        raise ValueError(
            "zero detection rate: the analyzer is orthogonal to every radiating channel"
        )
    return sigma, np.array(rates)


def conditioned_state(
    scheme: LevelScheme, geometry: Geometry, det_1: Detector, rho_ab
) -> ConditionedState:
    """State of the pair conditioned on a detection at det_1.

    The coincidence rate with any second detector equals the (un-normalized)
    conditioned expectation of that detector's intensity, which is how
    detecting the first photon entangles initially uncorrelated atoms.
    """
    sigma, rates = _conditioned_states(scheme, geometry, det_1.n[None], det_1.epsilon[None], rho_ab)
    rate = float(rates[0])
    return ConditionedState(unnormalized=sigma[0], rate=rate, normalized=sigma[0] / rate)

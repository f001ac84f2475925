"""Brute-force two-atom validator.

Everything here works on the full product Hilbert space of the pair
(atom A is the first tensor factor), with no factorization assumption:
the pair field operator is

    E^(+)(det) = phase_A kron(c, 1) + phase_B kron(1, c),

with c the single-atom lowering-coefficient matrix of the detector, and
observables are plain operator traces against an arbitrary 16x16 (or 4x4
for two-level atoms) pair density matrix.  :func:`_pair_fields` builds these
operators for a stack of phase rows, and the coincidence, conditioned-state and
intensity kernels evaluate every row of such stacks at once: on ``validate``'s
random detector pairs, or on stacks of one in the public point functions.  A
scan moves only the second detector's direction, so :func:`_g2_exact_scan`
conditions the pair state on the first detector once and reduces the second
to a 2x2 form in the two atoms' phases.  Agreement with the factorized
formulas on product states is the central consistency theorem of the package;
on entangled states the factorized formulas are wrong by design and the
values computed here are the truth.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .atom_model import Detector, Geometry, LevelScheme, _density_matrix
from .farfield import _geometric_phases, lowering_coefficients

__all__ = [
    "pair_field_matrix",
    "intensity_exact",
    "g2_exact",
    "ConditionedState",
    "conditioned_state",
]


def _pair_fields(scheme: LevelScheme, phases: np.ndarray, epsilon) -> np.ndarray:
    """phase_A kron(c, 1) + phase_B kron(1, c) at every row of the (N, 2) ``phases``, with c the
    lowering coefficients of one analyzer (3,) or one per row (N, 3); shape (N, d^2, d^2)."""
    coeff = lowering_coefficients(scheme, epsilon)
    d = scheme.n_levels
    e_plus = np.zeros((len(phases), d, d, d, d), dtype=complex)
    # writeable diagonal views of kron(c, 1)[ij, kl] = c[i, k] delta_jl
    # and kron(1, c)[ij, kl] = delta_ik c[j, l]
    np.einsum("nijkj->nikj", e_plus)[...] = (phases[:, 0, None, None] * coeff)[..., None]
    np.einsum("nijil->nijl", e_plus)[...] += (phases[:, 1, None, None] * coeff)[:, None]
    return e_plus.reshape(len(phases), d * d, d * d)


def _phases(geometry: Geometry, directions: np.ndarray) -> np.ndarray:
    """(phase_A, phase_B) at every row of the (N, 3) array ``directions``; shape (N, 2)."""
    atoms = (geometry.r_a, geometry.r_b)
    return np.array([_geometric_phases(geometry, directions, r) for r in atoms]).T


def _fields(scheme: LevelScheme, geometry: Geometry, directions: np.ndarray, epsilon) -> np.ndarray:
    """:func:`_pair_fields` at every row of ``directions``, with ``epsilon`` as there."""
    return _pair_fields(scheme, _phases(geometry, directions), epsilon)


def _detector_fields(scheme: LevelScheme, geometry: Geometry, *detectors: Detector) -> np.ndarray:
    """:func:`_fields` with one row per detector."""
    rows = (np.array([d.n for d in detectors]), np.array([d.epsilon for d in detectors]))
    return _fields(scheme, geometry, *rows)


def pair_field_matrix(scheme: LevelScheme, geometry: Geometry, detector: Detector) -> np.ndarray:
    """Positive-frequency pair field operator E^(+) for one detector."""
    return _detector_fields(scheme, geometry, detector)[0]


def _real_traces(values: np.ndarray, label: str) -> np.ndarray:
    """Real parts of traces that must be real, each checked on its own scale; an error names the
    first value that is not."""
    reals, imags = values.real, values.imag
    bad = abs(imags) > 1e-10 * np.fmax(1.0, abs(reals))
    if np.count_nonzero(bad):
        raise ValueError(f"{label} should be real, got imaginary part {imags[bad.argmax()]:.3e}")
    return reals.copy()


def _coincidences(e_1: np.ndarray, e_2: np.ndarray, rho_ab: np.ndarray) -> np.ndarray:
    """tr(rho_AB E1^(-) E2^(-) E2^(+) E1^(+)) at every row of the field stacks e_1 and e_2.
    With M = E2^(+) E1^(+) it is the sum over both indices of conj(M) * (M rho_AB)."""
    m = e_2 @ e_1
    return _real_traces(np.sum(m.conj() * (m @ rho_ab), axis=(1, 2)), "coincidence rate")


def _conditioned(e_1: np.ndarray, rho_ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E1^(+) rho_AB E1^(-) and its trace, the detection rate, at every row of the field
    stack e_1; shapes (N, d^2, d^2) and (N,)."""
    sigma = e_1 @ rho_ab @ e_1.conj().swapaxes(1, 2)
    rates = _real_traces(np.trace(sigma, axis1=1, axis2=2), "detection rate")
    if min(rates) <= 0:
        raise ValueError(
            "zero detection rate: the analyzer is orthogonal to every radiating channel"
        )
    return sigma, rates


def _intensities(e: np.ndarray, states: np.ndarray) -> np.ndarray:
    """tr(rho_AB E^(-) E^(+)) at every row of the field stack e, for one state or one per row."""
    values = np.trace(states @ e.conj().swapaxes(1, 2) @ e, axis1=-2, axis2=-1)
    return _real_traces(values, "intensity")


def intensity_exact(scheme: LevelScheme, geometry: Geometry, detector: Detector, rho_ab) -> float:
    """tr(rho_AB E^(-) E^(+)) without any factorization assumption."""
    rho_ab = _density_matrix(rho_ab, scheme.n_levels**2, "pair state")
    return float(_intensities(_detector_fields(scheme, geometry, detector), rho_ab)[0])


def g2_exact(
    scheme: LevelScheme, geometry: Geometry, det_1: Detector, det_2: Detector, rho_ab
) -> float:
    """tr(rho_AB E1^(-) E2^(-) E2^(+) E1^(+)), the exact coincidence rate.

    The same-atom double-emission terms vanish identically because the
    single-atom coefficient matrices are nilpotent lowering maps; only the
    cross-atom two-photon amplitudes survive, which is where the fringes
    come from.
    """
    rho_ab = _density_matrix(rho_ab, scheme.n_levels**2, "pair state")
    e_1, e_2 = _detector_fields(scheme, geometry, det_1, det_2)[:, None]
    return float(_coincidences(e_1, e_2, rho_ab)[0])


def _g2_exact_scan(
    scheme: LevelScheme, geometry: Geometry, det_1: Detector, n_2: np.ndarray, epsilon_2, rho_ab
) -> np.ndarray:
    """:func:`g2_exact` of det_1 with a second detector of analyzer epsilon_2 at every row of n_2.
    With sigma = E1^(+) rho_AB E1^(-) and E2^(+)(n) = phi_A(n) B_A + phi_B(n) B_B, where
    B_A = kron(c2, 1) and B_B = kron(1, c2), the rate is sum_km phi_k conj(phi_m) Q_km with
    Q_km = tr(B_k sigma B_m^dag): real at every phase pair exactly when Q is Hermitian."""
    rho_ab = _density_matrix(rho_ab, scheme.n_levels**2, "pair state")
    e_1 = _detector_fields(scheme, geometry, det_1)[0]
    b = _pair_fields(scheme, np.eye(2), epsilon_2)
    q = np.einsum("kij,mij->km", b @ (e_1 @ rho_ab @ e_1.conj().T), b.conj())
    asymmetry = np.max(np.abs(q - q.conj().T))
    if asymmetry > 1e-10 * max(1.0, np.max(np.abs(q))):
        raise ValueError(f"coincidence rate should be real, got non-Hermitian part {asymmetry:.3e}")
    phi = _phases(geometry, n_2)
    return np.einsum("nk,km,nm->n", phi, q, phi.conj()).real


@dataclass(frozen=True, eq=False)
class ConditionedState:
    """Pair state after one photon detection: E1^(+) rho E1^(-), its trace
    (the detection rate), and the renormalized state."""

    unnormalized: np.ndarray
    rate: float
    normalized: np.ndarray


def conditioned_state(
    scheme: LevelScheme, geometry: Geometry, det_1: Detector, rho_ab
) -> ConditionedState:
    """State of the pair conditioned on a detection at det_1.

    The coincidence rate with any second detector equals the (un-normalized)
    conditioned expectation of that detector's intensity, which is how
    detecting the first photon entangles initially uncorrelated atoms.
    """
    rho_ab = _density_matrix(rho_ab, scheme.n_levels**2, "pair state")
    sigma, rates = _conditioned(_detector_fields(scheme, geometry, det_1), rho_ab)
    rate = float(rates[0])
    return ConditionedState(unnormalized=sigma[0], rate=rate, normalized=sigma[0] / rate)

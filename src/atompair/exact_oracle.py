"""Brute-force two-atom validator.

Everything here works on the full product Hilbert space of the pair
(atom A is the first tensor factor), with no factorization assumption:
the pair field operator is

    E^(+)(det) = phase_A kron(c, 1) + phase_B kron(1, c),

with c the single-atom lowering-coefficient matrix of the detector, and
observables are plain operator traces against an arbitrary 16x16 (or 4x4
for two-level atoms) pair density matrix.  Agreement with the factorized
formulas on product states is the central consistency theorem of the
package; on entangled states the factorized formulas are wrong by design
and the values computed here are the truth.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .atom_model import Detector, Geometry, LevelScheme
from .farfield import geometric_phase, lowering_coefficients

__all__ = [
    "pair_field_matrix",
    "intensity_exact",
    "g2_exact",
    "ConditionedState",
    "conditioned_state",
]


def pair_field_matrix(scheme: LevelScheme, geometry: Geometry, detector: Detector) -> np.ndarray:
    """Positive-frequency pair field operator E^(+) for one detector."""
    coeff = lowering_coefficients(scheme, detector.epsilon)
    eye = np.eye(scheme.n_levels)
    return geometric_phase(geometry, detector, "A") * np.kron(coeff, eye) + geometric_phase(
        geometry, detector, "B"
    ) * np.kron(eye, coeff)


def _check_pair_state(scheme: LevelScheme, rho_ab) -> np.ndarray:
    rho_ab = np.asarray(rho_ab, dtype=complex)
    dim = scheme.n_levels**2
    if rho_ab.shape != (dim, dim):
        raise ValueError(f"pair state must have shape ({dim}, {dim}), got {rho_ab.shape}")
    return rho_ab


def _real_trace(value: complex, label: str) -> float:
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"{label} should be real, got imaginary part {value.imag:.3e}")
    return float(value.real)


def intensity_exact(
    scheme: LevelScheme, geometry: Geometry, detector: Detector, rho_ab
) -> float:
    """tr(rho_AB E^(-) E^(+)) without any factorization assumption."""
    rho_ab = _check_pair_state(scheme, rho_ab)
    e_plus = pair_field_matrix(scheme, geometry, detector)
    return _real_trace(complex(np.trace(rho_ab @ e_plus.conj().T @ e_plus)), "intensity")


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
    rho_ab = _check_pair_state(scheme, rho_ab)
    e1 = pair_field_matrix(scheme, geometry, det_1)
    e2 = pair_field_matrix(scheme, geometry, det_2)
    op = e1.conj().T @ e2.conj().T @ e2 @ e1
    return _real_trace(complex(np.trace(rho_ab @ op)), "coincidence rate")


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
    rho_ab = _check_pair_state(scheme, rho_ab)
    e1 = pair_field_matrix(scheme, geometry, det_1)
    sigma = e1 @ rho_ab @ e1.conj().T
    rate = _real_trace(complex(np.trace(sigma)), "detection rate")
    if rate <= 0:
        raise ValueError(
            "zero detection rate: the analyzer is orthogonal to every radiating channel"
        )
    return ConditionedState(unnormalized=sigma, rate=rate, normalized=sigma / rate)

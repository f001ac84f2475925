"""Brute-force two-atom validator.

Everything here works on the full product Hilbert space of the pair
(atom A is the first tensor factor), with no factorization assumption:
the pair field operator is

    E^(+)(det) = phase_A kron(c, 1) + phase_B kron(1, c),

with c the single-atom lowering-coefficient matrix of the detector, and
observables are plain operator traces against an arbitrary 16x16 (or 4x4
for two-level atoms) pair density matrix.  Coincidence rates are built for a
stack of second-detector directions at once, a fixed block of directions at
a time; one detector pair is the stack of one.  Agreement with the factorized
formulas on product states is the central consistency theorem of the
package; on entangled states the factorized formulas are wrong by design
and the values computed here are the truth.
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


#: second-detector directions per stacked coincidence evaluation; bounds the
#: temporaries of a scan to a few (BLOCK, d^2, d^2) arrays whatever its length
_BLOCK = 16


def _pair_field_matrices(
    scheme: LevelScheme, geometry: Geometry, directions: np.ndarray, epsilon
) -> np.ndarray:
    """E^(+)(n) = phase_A(n) kron(c, 1) + phase_B(n) kron(1, c) of one analyzer at every
    row n of ``directions`` (shape (N, 3)); returns shape (N, d^2, d^2)."""
    coeff = lowering_coefficients(scheme, epsilon)
    d = scheme.n_levels
    eye = np.eye(d)
    kron_a = (coeff[:, None, :, None] * eye[None, :, None, :]).reshape(d * d, d * d)
    kron_b = (eye[:, None, :, None] * coeff[None, :, None, :]).reshape(d * d, d * d)
    phase_a = _geometric_phases(geometry, directions, geometry.r_a)[:, None, None]
    phase_b = _geometric_phases(geometry, directions, geometry.r_b)[:, None, None]
    return phase_a * kron_a + phase_b * kron_b


def pair_field_matrix(scheme: LevelScheme, geometry: Geometry, detector: Detector) -> np.ndarray:
    """Positive-frequency pair field operator E^(+) for one detector."""
    return _pair_field_matrices(scheme, geometry, detector.n[None], detector.epsilon)[0]


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
    return float(_g2_exact_stack(scheme, geometry, det_1, det_2.epsilon, det_2.n[None], rho_ab)[0])


def _g2_exact_stack(
    scheme: LevelScheme,
    geometry: Geometry,
    det_1: Detector,
    epsilon_2,
    directions_2: np.ndarray,
    rho_ab,
) -> np.ndarray:
    """:func:`g2_exact` with det_1 fixed and the analyzer epsilon_2 at every row of
    directions_2, evaluated ``_BLOCK`` directions at a time.

    With M = E2^(+) E1^(+), the rate tr(rho_AB M^dag M) is the sum over both
    indices of conj(M) * (M rho_AB); each value gets its own realness check.
    """
    rho_ab = _check_pair_state(scheme, rho_ab)
    e_1 = pair_field_matrix(scheme, geometry, det_1)
    rates = []
    for start in range(0, len(directions_2), _BLOCK):
        block = directions_2[start : start + _BLOCK]
        m = _pair_field_matrices(scheme, geometry, block, epsilon_2) @ e_1
        traces = np.sum(m.conj() * (m @ rho_ab), axis=(1, 2))
        rates += [_real_trace(t, "coincidence rate") for t in traces.tolist()]
    return np.array(rates)


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

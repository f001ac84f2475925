"""Reference routines that only the tests use.

The package computes steady states and the equal-time pair quantities; the
routines here propagate states in time, check them, build the generator of
the pair and evaluate the coincidence rate one detector pair at a time, so
that the tests can compare the package against them.
"""

import numpy as np
from scipy.linalg import expm

from atompair.dynamics import (
    drive_hamiltonian,
    jump_operators,
    liouvillian_matrix,
    unvectorize,
    vectorize,
)
from atompair.farfield import geometric_phase, lowering_coefficients


def propagate(liouvillian, rho0, t) -> np.ndarray:
    """rho(t) = expm(L t) vec(rho0), exact up to the rounding of scipy's expm."""
    liou = np.asarray(liouvillian, dtype=complex)
    return unvectorize(expm(liou * t) @ vectorize(rho0), np.shape(rho0)[0])


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity (1e-10), unit trace (1e-10) and positivity (eigenvalues above
    -1e-9); returns the input as a complex ndarray, raises ValueError naming the violated
    property otherwise."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm_defect = np.max(np.abs(rho - rho.conj().T))
    if not herm_defect <= 1e-10:
        raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_defect:.3e}")
    trace_defect = abs(rho.trace() - 1.0)
    if not trace_defect <= 1e-10:
        raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
    min_eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if not min_eig >= -1e-9:
        raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
    return rho


def product_liouvillian(scheme, params) -> np.ndarray:
    """Generator of two independent, non-interacting copies of the scheme.

    Built from H_AB = H x 1 + 1 x H and the per-atom jump operators lifted
    to the pair space; equal to L_A (x) id + id (x) L_B in the vectorized
    representation.  No cross-atom coupling of any kind.
    """
    h = drive_hamiltonian(scheme, params)
    eye = np.eye(scheme.n_levels)
    h_pair = np.kron(h, eye) + np.kron(eye, h)
    jumps = [np.kron(op, eye) for op in jump_operators(scheme)]
    jumps += [np.kron(eye, op) for op in jump_operators(scheme)]
    return liouvillian_matrix(h_pair, jumps)


def g2_exact_per_point(scheme, geometry, det_1, det_2, rho_ab) -> float:
    """Re trace(rho_AB E1^dag E2^dag E2 E1) for one detector pair, with each pair field
    operator E = phase_A kron(c, 1) + phase_B kron(1, c) built by np.kron."""

    def field(det):
        coeff = lowering_coefficients(scheme, det.epsilon)
        eye = np.eye(scheme.n_levels)
        phase_a = geometric_phase(geometry, det, "A")
        return phase_a * np.kron(coeff, eye) + geometric_phase(geometry, det, "B") * np.kron(eye, coeff)

    e1, e2 = field(det_1), field(det_2)
    return float(np.trace(np.asarray(rho_ab) @ e1.conj().T @ e2.conj().T @ e2 @ e1).real)

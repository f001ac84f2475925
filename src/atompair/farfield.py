"""Far-field field operators and first-order (intensity) quantities.

The positive-frequency field radiated by one atom toward a detector is,
up to a global prefactor that cancels in every reported quantity,

    E^(+)  =  exp(-i k (n - n_l) . R_atom) * sum_t (eps^dag . d_t) |lower_t><upper_t|

summed over the decay channels t of the scheme.  The geometric phase keeps
the drive-imprinted phase exp(i k n_l . R) together with the propagation
phase exp(-i k n . R); only position differences ever enter observables.

Because the coefficient matrix only lowers (excited columns to ground
rows), products of two field operators of the same atom vanish identically:
one atom cannot emit twice without re-excitation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atom_model import (
    Detector,
    DriveDecayParams,
    Geometry,
    LevelScheme,
    WAVENUMBER,
    Z_HAT,
    _rescaled,
)

__all__ = [
    "FieldOperator",
    "lowering_coefficients",
    "geometric_phase",
    "field_operator",
    "mean_field",
    "g1",
    "intensity",
    "intensity_visibility",
]


def lowering_coefficients(scheme: LevelScheme, epsilon) -> np.ndarray:
    """Matrix of analyzer-projected dipole elements, coeff[..., l, u] = eps^dag . d_{lu}, of
    one analyzer (shape (3,)) or of every row of a stack (shape (..., 3))."""
    epsilon = np.asarray(epsilon, dtype=complex)
    d = scheme.n_levels
    coeff = epsilon.conj() @ scheme.dipole_matrix.reshape(3, d * d)
    return coeff.reshape(epsilon.shape[:-1] + (d, d))


def _geometric_phases(geometry: Geometry, directions, r) -> np.ndarray:
    """exp(-i k (n - n_l) . r) for one direction n or every row of an (N, 3) array."""
    return np.exp(-1j * WAVENUMBER * ((directions - geometry.n_l) @ r))


def geometric_phase(geometry: Geometry, detector: Detector, atom: str) -> complex:
    """exp(-i k (n - n_l) . R_atom) with k = 2*pi and positions in wavelengths."""
    if atom not in ("A", "B"):
        raise ValueError(f"atom must be 'A' or 'B', got {atom!r}")
    r = geometry.r_a if atom == "A" else geometry.r_b
    return complex(_geometric_phases(geometry, detector.n, r))


@dataclass(frozen=True, eq=False)
class FieldOperator:
    """Lowering part of one atom's field at one detector.

    ``coeff`` maps excited columns to ground rows only; ``phase`` is the
    unit-modulus geometric factor of the atom position.
    """

    atom: str
    phase: complex
    coeff: np.ndarray


def field_operator(
    scheme: LevelScheme, geometry: Geometry, detector: Detector, atom: str
) -> FieldOperator:
    """Field operator of ``atom`` ("A" or "B") as seen by ``detector``.

    Any :class:`Detector` is accepted: the scans hold the analyzer vector
    fixed while the observation direction moves (matched analyzers), and
    physical transverse analyzers come from ``make_detector``.
    """
    coeff = lowering_coefficients(scheme, detector.epsilon)
    coeff.setflags(write=False)
    return FieldOperator(atom=atom, phase=geometric_phase(geometry, detector, atom), coeff=coeff)


def _check_rho(op: FieldOperator, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != op.coeff.shape:
        raise ValueError(f"density matrix shape {rho.shape} does not match operator {op.coeff.shape}")
    return rho


def mean_field(op: FieldOperator, rho) -> complex:
    """Mean radiated amplitude <E^(+)> = phase * tr(rho coeff)."""
    rho = _check_rho(op, rho)
    return op.phase * complex(np.trace(rho @ op.coeff))


def g1(op_i: FieldOperator, op_j: FieldOperator, rho) -> complex:
    """Amplitude correlation <E_i^(-) E_j^(+)> of one atom between two detectors.

    Both operators must belong to the same atom; cross-atom first-order
    terms factorize into mean fields for uncorrelated atoms and are handled
    by :func:`intensity`.
    """
    if op_i.atom != op_j.atom:
        raise ValueError(
            f"g1 is a single-atom quantity; got operators for atoms {op_i.atom!r} and {op_j.atom!r}"
        )
    rho = _check_rho(op_i, rho)
    return (
        np.conj(op_i.phase)
        * op_j.phase
        * complex(np.trace(rho @ op_i.coeff.conj().T @ op_j.coeff))
    )


def intensity(scheme: LevelScheme, geometry: Geometry, detector: Detector, rho_a, rho_b) -> float:
    """Far-field intensity of the pair for uncorrelated atoms in states rho_a, rho_b.

    I = G1_A(1,1) + G1_B(1,1) + 2 Re[<E_A^(+)>^* <E_B^(+)>]; the cross term
    carries the fringe phase k (n - n_l).(R_A - R_B).
    """
    op_a = field_operator(scheme, geometry, detector, "A")
    op_b = field_operator(scheme, geometry, detector, "B")
    baseline = g1(op_a, op_a, rho_a).real + g1(op_b, op_b, rho_b).real
    cross = 2.0 * (np.conj(mean_field(op_a, rho_a)) * mean_field(op_b, rho_b)).real
    return float(baseline + cross)


def intensity_visibility(params: DriveDecayParams, epsilon) -> float:
    """Closed-form fringe visibility Gamma^2/(2 g^2 + Gamma^2) * |z . eps|^2.

    Equals (max - min)/(max + min) of a full-period steady-state intensity
    scan with the analyzer vector ``epsilon`` held fixed; the scan is the
    independent cross-check, this is the formula.
    """
    if params.g <= 0:
        raise ValueError("visibility closed form requires g > 0")
    epsilon = _rescaled(epsilon, complex)
    norm2 = np.vdot(epsilon, epsilon).real
    if norm2 <= 0:
        raise ValueError("polarization vector must be nonzero")
    z_weight = abs(Z_HAT @ epsilon) ** 2 / norm2
    gam = params.total
    return gam**2 / (2.0 * params.g**2 + gam**2) * z_weight

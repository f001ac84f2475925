"""Equal-time second-order (intensity-intensity) correlation quantities.

For uncorrelated atoms in the same single-atom state the two-detector
coincidence rate factorizes into single-atom amplitude correlations,

    G2(1,2) = G1_A(1,1) G1_B(2,2) + G1_A(1,2) G1_B(2,1)
            + G1_A(2,1) G1_B(1,2) + G1_A(2,2) G1_B(1,1)
            = baseline * (1 + Gamma2(1,2)),

with baseline = G1_A(1,1) G1_B(2,2) + G1_A(2,2) G1_B(1,1) and the
interference factor

    Gamma2(1,2) = |eps1^dag . eps2|^2 * cos(k (n1 - n2).(R_A - R_B)).

The fringe contrast |eps1^dag . eps2|^2 contains no drive or decay
parameter at all; matched analyzers give unit contrast even for detection
channels whose mean field (and hence whose intensity fringe) vanishes.

The normalized correlation g2(1,2) is defined as the ratio
G2(1,2)/(I(1) I(2)).  A closed form is provided separately; each of its
intensity normalization factors carries that detector's own drive-relative
fringe phase k (n_i - n_l).(R_A - R_B), and the validation report asserts
that it matches the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_model import Detector, DriveDecayParams, Geometry, LevelScheme, WAVENUMBER, Z_HAT
from .dynamics import build_liouvillian, steady_state_numeric
from .farfield import (
    FieldOperator,
    field_operator,
    g1,
    intensity,
    intensity_modulation_factor,
)

__all__ = [
    "WitnessResult",
    "CorrelationResult",
    "g2_baseline",
    "g2_factorized",
    "gamma2",
    "gamma2_from_operators",
    "modulation_depth",
    "g2_normalized",
    "g2_normalized_closed_form",
    "witness_from_g2",
    "nonclassicality_witness",
    "correlation_point",
]

_WITNESS_MARGIN = 1e-12


def _check_atom_assignment(op_a1, op_b1, op_a2, op_b2) -> None:
    if not (op_a1.atom == op_a2.atom == "A" and op_b1.atom == op_b2.atom == "B"):
        raise ValueError(
            "mixed-up atom assignment: expected (A, B, A, B), got "
            f"({op_a1.atom}, {op_b1.atom}, {op_a2.atom}, {op_b2.atom})"
        )


def g2_baseline(
    op_a1: FieldOperator,
    op_b1: FieldOperator,
    op_a2: FieldOperator,
    op_b2: FieldOperator,
    rho,
) -> float:
    """Non-oscillating part G1_A(1,1) G1_B(2,2) + G1_A(2,2) G1_B(1,1)."""
    _check_atom_assignment(op_a1, op_b1, op_a2, op_b2)
    val = g1(op_a1, op_a1, rho) * g1(op_b2, op_b2, rho) + g1(op_a2, op_a2, rho) * g1(
        op_b1, op_b1, rho
    )
    return float(val.real)


def g2_factorized(
    op_a1: FieldOperator,
    op_b1: FieldOperator,
    op_a2: FieldOperator,
    op_b2: FieldOperator,
    rho,
) -> float:
    """Two-detector coincidence rate for uncorrelated atoms sharing state rho.

    The four amplitude-correlation products of the factorized form; the two
    cross products are complex conjugates, so the sum is real.
    """
    _check_atom_assignment(op_a1, op_b1, op_a2, op_b2)
    val = (
        g1(op_a1, op_a1, rho) * g1(op_b2, op_b2, rho)
        + g1(op_a1, op_a2, rho) * g1(op_b2, op_b1, rho)
        + g1(op_a2, op_a1, rho) * g1(op_b1, op_b2, rho)
        + g1(op_a2, op_a2, rho) * g1(op_b1, op_b1, rho)
    )
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"coincidence rate should be real, got imaginary part {val.imag:.3e}")
    return float(val.real)


def gamma2(geometry: Geometry, det_1: Detector, det_2: Detector) -> float:
    """Closed-form interference factor |eps1^dag.eps2|^2 cos(k (n1-n2).(R_A-R_B)).

    Depends only on the analyzer overlap and the detector-pair geometry;
    drive and decay rates never enter.
    """
    phase = WAVENUMBER * ((det_1.n - det_2.n) @ geometry.separation)
    return modulation_depth(det_1, det_2) * math.cos(phase)


def gamma2_from_operators(
    op_a1: FieldOperator,
    op_b1: FieldOperator,
    op_a2: FieldOperator,
    op_b2: FieldOperator,
    rho,
) -> float:
    """Interference factor computed from the operator route (cross over baseline)."""
    base = g2_baseline(op_a1, op_b1, op_a2, op_b2, rho)
    if base <= 0:
        raise ValueError("zero baseline; interference factor undefined")
    cross = 2.0 * (g1(op_a1, op_a2, rho) * g1(op_b2, op_b1, rho)).real
    return float(cross / base)


def modulation_depth(det_1: Detector, det_2: Detector) -> float:
    """Fringe contrast |eps1^dag . eps2|^2 of the coincidence pattern."""
    return float(abs(np.vdot(det_1.epsilon, det_2.epsilon)) ** 2)


def _steady_state(scheme: LevelScheme, params: DriveDecayParams) -> np.ndarray:
    return steady_state_numeric(build_liouvillian(scheme, params))


def _pair_operators(scheme, geometry, det_1, det_2):
    return (
        field_operator(scheme, geometry, det_1, "A", require_transverse=False),
        field_operator(scheme, geometry, det_1, "B", require_transverse=False),
        field_operator(scheme, geometry, det_2, "A", require_transverse=False),
        field_operator(scheme, geometry, det_2, "B", require_transverse=False),
    )


def _g2_normalized_given_state(scheme, geometry, det_1, det_2, rho) -> float:
    ops = _pair_operators(scheme, geometry, det_1, det_2)
    g2 = g2_factorized(*ops, rho)
    i1 = intensity(scheme, geometry, det_1, rho, rho)
    i2 = intensity(scheme, geometry, det_2, rho, rho)
    if i1 <= 0 or i2 <= 0:
        raise ValueError(f"zero intensity at a detector (I1 = {i1:.3e}, I2 = {i2:.3e})")
    return g2 / (i1 * i2)


def g2_normalized(
    scheme: LevelScheme,
    geometry: Geometry,
    params: DriveDecayParams,
    det_1: Detector,
    det_2: Detector,
) -> float:
    """Normalized coincidence rate g2(1,2) = G2(1,2)/(I(1) I(2)) in steady state."""
    return _g2_normalized_given_state(scheme, geometry, det_1, det_2, _steady_state(scheme, params))


def g2_normalized_closed_form(
    geometry: Geometry,
    params: DriveDecayParams,
    det_1: Detector,
    det_2: Detector,
) -> float:
    """Closed-form normalized coincidence for the four-level scheme:

        g2(1,2) = (1 / (2 D(1) D(2))) (1 + |eps1^dag.eps2|^2 cos phi12),
        D(i)    = 1 + Gamma^2/(2 g^2 + Gamma^2) |z.eps_i|^2 cos phi_i,

    with the detector-pair phase phi12 = k (n1 - n2).(R_A - R_B) and each
    detector's own drive-relative fringe phase phi_i = k (n_i - n_l).(R_A - R_B)
    in its intensity factor D(i).  Equals the defining ratio of
    :func:`g2_normalized`.
    """
    separation = geometry.separation
    phi12 = WAVENUMBER * ((det_1.n - det_2.n) @ separation)
    mod = intensity_modulation_factor(params)
    factors = []
    for det in (det_1, det_2):
        z_weight = abs(Z_HAT @ det.epsilon) ** 2
        phase = WAVENUMBER * ((det.n - geometry.n_l) @ separation)
        factors.append(1.0 + mod * z_weight * math.cos(phase))
    m = modulation_depth(det_1, det_2)
    return (1.0 + m * math.cos(phi12)) / (2.0 * factors[0] * factors[1])


@dataclass(frozen=True)
class WitnessResult:
    """Classical-field inequality (g2(1,1)-1)(g2(2,2)-1) >= (g2(1,2)-1)^2."""

    lhs: float
    rhs: float
    violated: bool


def witness_from_g2(g2_11: float, g2_22: float, g2_12: float) -> WitnessResult:
    lhs = (g2_11 - 1.0) * (g2_22 - 1.0)
    rhs = (g2_12 - 1.0) ** 2
    return WitnessResult(lhs=lhs, rhs=rhs, violated=bool(lhs < rhs - _WITNESS_MARGIN))


def nonclassicality_witness(
    scheme: LevelScheme,
    geometry: Geometry,
    params: DriveDecayParams,
    det_1: Detector,
    det_2: Detector,
) -> WitnessResult:
    """Evaluate the classicality inequality in steady state; violation certifies
    nonclassical light."""
    rho = _steady_state(scheme, params)
    g2_11 = _g2_normalized_given_state(scheme, geometry, det_1, det_1, rho)
    g2_22 = _g2_normalized_given_state(scheme, geometry, det_2, det_2, rho)
    g2_12 = _g2_normalized_given_state(scheme, geometry, det_1, det_2, rho)
    return witness_from_g2(g2_11, g2_22, g2_12)


@dataclass(frozen=True)
class CorrelationResult:
    """All second-order quantities of one detector pair."""

    g2: float
    gamma2: float
    modulation_depth: float
    g2_normalized: float
    witness_lhs: float
    witness_rhs: float
    violated: bool


def correlation_point(
    scheme: LevelScheme,
    geometry: Geometry,
    params: DriveDecayParams,
    det_1: Detector,
    det_2: Detector,
    rho: np.ndarray | None = None,
) -> CorrelationResult:
    """Bundle of the second-order quantities for one detector pair in steady state."""
    if rho is None:
        rho = _steady_state(scheme, params)
    ops = _pair_operators(scheme, geometry, det_1, det_2)
    g2 = g2_factorized(*ops, rho)
    gam2 = gamma2_from_operators(*ops, rho)
    g2_11 = _g2_normalized_given_state(scheme, geometry, det_1, det_1, rho)
    g2_22 = _g2_normalized_given_state(scheme, geometry, det_2, det_2, rho)
    g2_12 = _g2_normalized_given_state(scheme, geometry, det_1, det_2, rho)
    witness = witness_from_g2(g2_11, g2_22, g2_12)
    return CorrelationResult(
        g2=g2,
        gamma2=gam2,
        modulation_depth=modulation_depth(det_1, det_2),
        g2_normalized=g2_12,
        witness_lhs=witness.lhs,
        witness_rhs=witness.rhs,
        violated=witness.violated,
    )

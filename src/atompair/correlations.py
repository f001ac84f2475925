"""Equal-time second-order (intensity-intensity) correlation quantities.

Two uncorrelated atoms in the same single-atom state rho radiate a pair
field whose every factorized first- and second-order quantity is phase
algebra over five single-atom traces of the two analyzers,

    a_ij = tr(rho c_i^dag c_j)  (i, j = 1, 2),     m_i = tr(rho c_i),

where c_i is the lowering-coefficient matrix of analyzer i.  With the
detector-pair phase phi12 = k (n1 - n2).(R_A - R_B) and each detector's
drive-relative phase psi_i = k (n_i - n_l).(R_A - R_B), the two-atom Young
picture reads

    G2(1,2) = 2 a11 a22 + 2 |a12|^2 cos phi12 = baseline * (1 + Gamma2(1,2)),
    I(i)    = 2 a_ii   + 2 |m_i|^2 cos psi_i,

with the interference factor

    Gamma2(1,2) = |a12|^2 / (a11 a22) * cos phi12
                = |eps1^dag . eps2|^2 * cos phi12.

The fringe contrast |a12|^2/(a11 a22) = |eps1^dag . eps2|^2 contains no
drive or decay parameter at all; matched analyzers give unit contrast even
for detection channels whose mean field (and hence whose intensity fringe)
vanishes.  The phases may be scalars (one detector pair) or arrays (a
scan): the traces do not depend on the directions.

The normalized correlation g2(1,2) is defined as the ratio
G2(1,2)/(I(1) I(2)).  A closed form is provided separately; each of its
intensity normalization factors carries that detector's own drive-relative
fringe phase psi_i, and the validation report asserts that it matches the
ratio.  The operator route of :mod:`atompair.farfield` (field operators and
``g1``) and the product-space oracle are the independent checks of these
formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .atom_model import Detector, DriveDecayParams, Geometry, LevelScheme, WAVENUMBER
from .dynamics import build_liouvillian, steady_state_numeric
from .farfield import g1  # noqa: F401  (perfbench/tests checks the tracer rebinds this alias)
from .farfield import intensity_visibility, lowering_coefficients

__all__ = [
    "WitnessResult",
    "CorrelationResult",
    "g2_factorized",
    "gamma2",
    "modulation_depth",
    "g2_normalized",
    "g2_normalized_closed_form",
    "witness_from_g2",
    "correlation_point",
]

_WITNESS_MARGIN = 1e-12


def _checked_state(scheme: LevelScheme, rho) -> np.ndarray:
    """rho as a complex (d, d) array of the scheme's d levels, rejected unless every entry is
    finite: a nan or inf would otherwise spread silently through every trace."""
    rho = np.asarray(rho, dtype=complex)
    dim = scheme.n_levels
    if rho.shape != (dim, dim):
        raise ValueError(f"single-atom state must have shape ({dim}, {dim}), got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("single-atom state must have finite entries")
    return rho


def _traces(scheme: LevelScheme, rho, *epsilons) -> tuple[np.ndarray, np.ndarray]:
    """Single-atom traces a[..., i, j] = tr(rho c_i^dag c_j) and m[..., i] = tr(rho c_i) of
    analyzers that are each one vector (shape (3,)) or one per row (shape (N, 3))."""
    c = np.stack([lowering_coefficients(scheme, eps) for eps in epsilons], axis=-3)
    rho = _checked_state(scheme, rho)
    a = np.einsum("xy,...iky,...jkx->...ij", rho, c.conj(), c)
    return a, np.einsum("xy,...iyx->...i", rho, c)


def _fringe_phase(geometry: Geometry, n, n_ref=None):
    """k (n - n_ref).(R_A - R_B), with n_ref the drive direction by default; n may be (N, 3)."""
    reference = geometry.n_l if n_ref is None else n_ref
    return WAVENUMBER * ((n - reference) @ geometry.separation)


def _intensity(a_ii, m_i, psi):
    """I = 2 a_ii + 2 |m_i|^2 cos psi: both atoms plus their mean-field cross term."""
    return 2.0 * (a_ii.real + abs(m_i) ** 2 * np.cos(psi))


def _correlations(a, m, phi_12, psi_1, psi_2):
    """(G2, Gamma2, g2(1,2), witness) of a detector pair from its traces and phases.

    Traces and phases may be those of one pair or stacked over pairs or scan points.
    Raises ValueError when a detector sees no light, where the normalized quantities
    are undefined.
    """
    # transposed, the detector indices come first: one pair unpacks to scalars, a stack to arrays
    (a_11, _), (a_12, a_22) = a.T
    m_1, m_2 = m.T
    i_1 = _intensity(a_11, m_1, psi_1)
    i_2 = _intensity(a_22, m_2, psi_2)
    if np.any(i_1 <= 0) or np.any(i_2 <= 0):
        raise ValueError(
            f"zero intensity at a detector (I1 = {np.min(i_1):.3e}, I2 = {np.min(i_2):.3e})"
        )
    baseline = 2.0 * (a_11 * a_22).real
    cross = 2.0 * abs(a_12) ** 2 * np.cos(phi_12)
    g2 = baseline + cross
    g2_12 = g2 / (i_1 * i_2)
    # coincident detectors have phi = 0, so G2(i,i) = 4 a_ii^2
    witness = witness_from_g2(
        4.0 * a_11.real**2 / (i_1 * i_1), 4.0 * a_22.real**2 / (i_2 * i_2), g2_12
    )
    return g2, cross / baseline, g2_12, witness


def _pair_correlations(scheme, geometry, n_1, epsilon_1, n_2, epsilon_2, rho):
    """:func:`_correlations` of the detector pair (n_1, epsilon_1), (n_2, epsilon_2): one pair
    of (3,) vectors, or one pair per row of (N, 3) arrays."""
    a, m = _traces(scheme, rho, epsilon_1, epsilon_2)
    return _correlations(
        a,
        m,
        _fringe_phase(geometry, n_1, n_2),
        _fringe_phase(geometry, n_1),
        _fringe_phase(geometry, n_2),
    )


def _point(scheme, geometry, det_1: Detector, det_2: Detector, rho):
    """:func:`_pair_correlations` of one detector pair."""
    return _pair_correlations(scheme, geometry, det_1.n, det_1.epsilon, det_2.n, det_2.epsilon, rho)


def g2_factorized(
    scheme: LevelScheme,
    geometry: Geometry,
    det_1: Detector,
    det_2: Detector,
    rho,
) -> float:
    """Two-detector coincidence rate G2(1,2) = 2 a11 a22 + 2 |a12|^2 cos phi12
    for uncorrelated atoms sharing state rho.

    Raises ValueError when a detector sees no light (zero intensity).
    """
    return float(_point(scheme, geometry, det_1, det_2, rho)[0])


def gamma2(geometry: Geometry, det_1: Detector, det_2: Detector) -> float:
    """Closed-form interference factor |eps1^dag.eps2|^2 cos(k (n1-n2).(R_A-R_B)).

    Depends only on the analyzer overlap and the detector-pair geometry;
    drive and decay rates never enter.
    """
    return modulation_depth(det_1, det_2) * math.cos(_fringe_phase(geometry, det_1.n, det_2.n))


def modulation_depth(det_1: Detector, det_2: Detector) -> float:
    """Fringe contrast |eps1^dag . eps2|^2 of the coincidence pattern."""
    return float(abs(np.vdot(det_1.epsilon, det_2.epsilon)) ** 2)


@functools.lru_cache(maxsize=1)
def _steady_state(scheme: LevelScheme, params: DriveDecayParams) -> np.ndarray:
    """The null-space steady state, kept read-only for the last (scheme object, params) asked:
    a detector loop over one parameter set solves once."""
    rho = steady_state_numeric(build_liouvillian(scheme, params))
    rho.setflags(write=False)
    return rho


def g2_normalized(
    scheme: LevelScheme,
    geometry: Geometry,
    params: DriveDecayParams,
    det_1: Detector,
    det_2: Detector,
) -> float:
    """Normalized coincidence rate g2(1,2) = G2(1,2)/(I(1) I(2)) in steady state.

    The steady state is solved once per scheme object and params (the last pair asked is
    kept), so a loop over detector pairs should pass the same two objects.
    """
    return float(_point(scheme, geometry, det_1, det_2, _steady_state(scheme, params))[2])


def g2_normalized_closed_form(
    geometry: Geometry,
    params: DriveDecayParams,
    det_1: Detector,
    det_2: Detector,
) -> float:
    """Closed-form normalized coincidence for the four-level scheme:

        g2(1,2) = (1 / (2 D(1) D(2))) (1 + Gamma2(1,2)),
        D(i)    = 1 + V(eps_i) cos psi_i,

    with the interference factor Gamma2(1,2) of :func:`gamma2`, the intensity
    visibility V of :func:`atompair.farfield.intensity_visibility`, and each
    detector's own drive-relative fringe phase psi_i = k (n_i - n_l).(R_A - R_B)
    in its intensity factor D(i).  Equals the defining ratio of
    :func:`g2_normalized`.
    """
    return float(_g2_normalized_closed_form(geometry, params, det_1, det_2.epsilon, det_2.n))


def _g2_normalized_closed_form(
    geometry: Geometry, params: DriveDecayParams, det_1: Detector, epsilon_2, directions_2
):
    """:func:`g2_normalized_closed_form` with the second analyzer epsilon_2 at one direction
    (shape (3,)) or at every row of ``directions_2`` (shape (N, 3))."""
    psi_1 = _fringe_phase(geometry, det_1.n)
    psi_2 = _fringe_phase(geometry, directions_2)
    d_1 = 1.0 + intensity_visibility(params, det_1.epsilon) * np.cos(psi_1)
    d_2 = 1.0 + intensity_visibility(params, epsilon_2) * np.cos(psi_2)
    overlap = abs(np.vdot(det_1.epsilon, epsilon_2)) ** 2
    gamma_2 = overlap * np.cos(_fringe_phase(geometry, det_1.n, directions_2))
    return (1.0 + gamma_2) / (2.0 * d_1 * d_2)


@dataclass(frozen=True)
class WitnessResult:
    """Classical-field inequality (g2(1,1)-1)(g2(2,2)-1) >= (g2(1,2)-1)^2.

    Fields are arrays when the inputs are arrays (one entry per scan point).
    """

    lhs: float
    rhs: float
    violated: bool


def witness_from_g2(g2_11, g2_22, g2_12) -> WitnessResult:
    lhs = (g2_11 - 1.0) * (g2_22 - 1.0)
    rhs = (g2_12 - 1.0) ** 2
    violated = np.less(lhs, rhs - _WITNESS_MARGIN)
    return WitnessResult(lhs=lhs, rhs=rhs, violated=violated if violated.ndim else bool(violated))


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
    """Bundle of the second-order quantities for one detector pair in steady state.

    Without ``rho`` the steady state is solved as in :func:`g2_normalized`: once per scheme
    object and params, so a loop over detector pairs should pass the same two objects.
    """
    if rho is None:
        rho = _steady_state(scheme, params)
    g2, gam2, g2_12, witness = _point(scheme, geometry, det_1, det_2, rho)
    return CorrelationResult(
        g2=float(g2),
        gamma2=float(gam2),
        modulation_depth=modulation_depth(det_1, det_2),
        g2_normalized=float(g2_12),
        witness_lhs=float(witness.lhs),
        witness_rhs=float(witness.rhs),
        violated=witness.violated,
    )

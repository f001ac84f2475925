"""Angle scans of the intensity pattern and of the two-detector coincidence rate.

Scan conventions
----------------
Atoms sit at +-d/2 on the x axis and the drive runs along +y by default
(:func:`atompair.atom_model.standard_geometry`).  Detector directions sweep
a full circle in the chosen plane:

* ``xy``: n(theta) = (cos, sin, 0), reference direction +y (theta = pi/2);
* ``xz``: n(theta) = (sin, 0, cos), reference direction +z (theta = 0).

The reference direction is perpendicular to the atom axis, so its fringe
phase is zero; with the default separation d = 1/2 the phase sweeps exactly
[-pi, pi] over a scan, and a grid whose point count is a multiple of 4
contains the phase extrema exactly.  Scanned visibilities then reproduce
the closed forms to rounding error, which the acceptance tolerances assume.

Analyzer convention: polarization keywords are resolved once, at the
reference direction, and the resulting vectors are held fixed while the
directions move.  For the coincidence scan this is the matched-analyzer
idealization (both arms configured identically) under which equal
polarizations give unit fringe contrast at any drive strength; recomputing
a transverse sigma analyzer at every angle would instead roll the contrast
off geometrically.  Away from the reference direction the held analyzers
are not transverse, which :class:`atompair.atom_model.Detector` permits.

Phase algebra
-------------
Both analyzers are fixed during a scan, so the single-atom traces
a_ij = tr(rho c_i^dag c_j) and m_i = tr(rho c_i) are computed once and only
the geometric phases move with the scan direction n:

    I(n)     = 2 a + 2 |m|^2 cos psi,          psi   = k (n - n_l).(R_A - R_B),
    G2(1, 2) = 2 a11 a22 + 2 |a12|^2 cos phi12, phi12 = k (n1 - n2).(R_A - R_B),

evaluated as numpy expressions over the whole phase array (see
:mod:`atompair.correlations`).

Both scans take the single-atom state ``rho`` they scan (the pair is
``rho (x) rho``), stationary or not, and solve no steady state; closed forms
take ``params``, and callers that compare against them call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_model import (
    Detector,
    Geometry,
    LevelScheme,
    _density_matrix,
    _keyword_polarization,
    pi_polarization,
    sigma_polarization,
)
from .correlations import _fringe_phase, _intensity, _pair_correlations, _traces
from .exact_oracle import _g2_exact_scan

__all__ = [
    "scan_angles",
    "scan_direction",
    "reference_direction",
    "resolve_polarization",
    "IntensityScan",
    "intensity_scan",
    "G2Scan",
    "g2_scan",
    "g2_exact_scan",
    "scan_depth",
]

# per scan plane: the places of (cos, sin, 0) of the angle in n(theta), and the reference direction
_PLANES = {"xy": ((0, 1, 2), (0.0, 1.0, 0.0)), "xz": ((1, 2, 0), (0.0, 0.0, 1.0))}


def _plane(plane: str) -> tuple[tuple[int, int, int], tuple[float, float, float]]:
    if plane not in _PLANES:
        raise ValueError(f"scan plane must be one of {tuple(_PLANES)}, got {plane!r}")
    return _PLANES[plane]


def scan_angles(n_points: int) -> np.ndarray:
    if n_points < 2:
        raise ValueError("scan needs at least 2 points")
    return np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)


def scan_direction(plane: str, theta) -> np.ndarray:
    """Unit direction(s) at angle(s) theta; an array of N angles gives shape (N, 3)."""
    places, _ = _plane(plane)
    theta = np.asarray(theta, dtype=float)
    parts = (np.cos(theta), np.sin(theta), np.zeros_like(theta))
    return np.stack([parts[i] for i in places], axis=-1)


def reference_direction(plane: str) -> np.ndarray:
    """Fixed detector direction of a scan: in plane, perpendicular to the atom axis."""
    return np.array(_plane(plane)[1])


def _scan_grid(plane: str, n_points: int, *polarizations):
    """Scan angles, the moving detector's directions and one :class:`Detector` per analyzer
    at the reference direction, which rejects an analyzer that is not a finite unit vector."""
    angles = scan_angles(n_points)
    n_ref = reference_direction(plane)
    return angles, scan_direction(plane, angles), [Detector(n_ref, eps) for eps in polarizations]


def resolve_polarization(kind: str, n_ref, vector=None) -> np.ndarray:
    """Analyzer vector for a keyword at the reference direction.

    ``pi``/``sigma`` project the quantization axis / the circular sigma
    vector transverse to ``n_ref`` and normalize; ``custom`` does the same
    to a user-supplied complex vector.  A projection that is numerically null
    on the vector's own scale is rejected (analyzer along the direction).
    """
    if kind == "pi":
        return pi_polarization(n_ref)
    if kind == "sigma":
        return sigma_polarization(n_ref)
    if kind == "custom":
        if vector is None:
            raise ValueError("custom polarization requires an explicit vector")
        return _keyword_polarization(n_ref, vector, "custom")
    raise ValueError(f"polarization must be pi, sigma or custom, got {kind!r}")


def scan_depth(values: np.ndarray) -> float:
    """(max - min)/(max + min) of a sampled fringe; 0 for an all-zero scan."""
    hi, lo = float(np.max(values)), float(np.min(values))
    return 0.0 if hi + lo == 0.0 else (hi - lo) / (hi + lo)


@dataclass(frozen=True, eq=False)
class IntensityScan:
    angles: np.ndarray
    phases: np.ndarray          # k (n - n_l).(R_A - R_B)
    intensities: np.ndarray
    visibility: float           # (max - min)/(max + min) of the samples


def intensity_scan(
    scheme: LevelScheme,
    geometry: Geometry,
    polarization,
    rho: np.ndarray,
    *,
    plane: str = "xy",
    n_points: int = 360,
) -> IntensityScan:
    """Far-field intensity of two atoms in state rho over a full circle of directions."""
    angles, n, (det,) = _scan_grid(plane, n_points, polarization)
    phases = _fringe_phase(geometry, n)
    a, m = _traces(scheme, rho, det.epsilon)
    values = _intensity(a[0, 0], m[0], phases)
    return IntensityScan(
        angles=angles,
        phases=phases,
        intensities=values,
        visibility=scan_depth(values),
    )


@dataclass(frozen=True, eq=False)
class G2Scan:
    angles: np.ndarray
    phases: np.ndarray          # k (n1 - n2).(R_A - R_B)
    g2_factorized: np.ndarray
    gamma2: np.ndarray
    g2_normalized: np.ndarray
    witness_lhs: np.ndarray
    witness_rhs: np.ndarray
    violated: np.ndarray
    modulation_depth: float     # (max - min)/(max + min) of the factorized column


def g2_scan(
    scheme: LevelScheme,
    geometry: Geometry,
    polarization_1,
    polarization_2,
    rho: np.ndarray,
    *,
    plane: str = "xy",
    n_points: int = 360,
) -> G2Scan:
    """Coincidences of two atoms in state rho: detector 1 fixed at the reference
    direction, detector 2 sweeping the scan plane, both analyzers held fixed."""
    angles, n_2, (det_1, det_2) = _scan_grid(plane, n_points, polarization_1, polarization_2)
    phases = _fringe_phase(geometry, det_1.n, n_2)
    fact, gam2, norm, witness = _pair_correlations(
        scheme, geometry, det_1.n, det_1.epsilon, n_2, det_2.epsilon, rho
    )
    return G2Scan(
        angles=angles,
        phases=phases,
        g2_factorized=fact,
        gamma2=gam2,
        g2_normalized=norm,
        witness_lhs=witness.lhs,
        witness_rhs=witness.rhs,
        violated=witness.violated,
        modulation_depth=scan_depth(fact),
    )


def g2_exact_scan(
    scheme: LevelScheme,
    geometry: Geometry,
    polarization_1,
    polarization_2,
    rho: np.ndarray,
    *,
    plane: str = "xy",
    n_points: int = 360,
) -> np.ndarray:
    """Product-space oracle G2 of the pair state rho (x) rho over the grid of :func:`g2_scan`.

    It is the independent route that the factorized column of that scan is compared against.
    Detector 1's conditioned pair state and detector 2's 2x2 form in the atoms' phases are
    built once, and the scan's phases enter as one array."""
    _, n_2, (det_1, det_2) = _scan_grid(plane, n_points, polarization_1, polarization_2)
    rho = _density_matrix(rho, scheme.n_levels, "single-atom state")
    return _g2_exact_scan(scheme, geometry, det_1, n_2, det_2.epsilon, np.kron(rho, rho))

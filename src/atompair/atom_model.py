"""Level schemes, dipole matrix elements, polarization vectors and geometry.

All static physical data lives here.  Conventions used throughout the package:

* The quantization axis is z; the drive is linearly polarized along z
  ("pi" polarized) and propagates along ``Geometry.n_l``.
* Positions are measured in wavelengths, so the wavenumber is ``k = 2*pi``
  (``WAVENUMBER`` below) and fringe phases are ``2*pi*(n_i - n_j).(R_A - R_B)``.
* The reduced dipole moment is normalized to 1.  For the J=1/2 -> J=1/2
  scheme the pi components then have magnitude 1/sqrt(6) and the sigma
  components 1/sqrt(3) (branching 1:2), which makes the summed emission
  weight sum_t |eps^dag . d_t|^2 = 1/3 per excited level for every unit
  polarization vector eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WAVENUMBER",
    "X_HAT",
    "Y_HAT",
    "Z_HAT",
    "SIGMA_MINUS",
    "Transition",
    "LevelScheme",
    "DriveDecayParams",
    "Geometry",
    "Detector",
    "hg_level_scheme",
    "two_level_scheme",
    "transverse_basis",
    "pi_polarization",
    "sigma_polarization",
    "make_detector",
    "standard_geometry",
]

#: wavenumber for positions measured in wavelengths
WAVENUMBER = 2.0 * math.pi

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

#: circular basis vector (x - i y)/sqrt(2); the sigma decay dipole direction
SIGMA_MINUS = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)

_UNIT_TOL = 1e-12
#: largest |eps^dag . n| of a physical (transverse) analyzer
_TRANSVERSE_TOL = 1e-9


def _frozen(v, dtype) -> np.ndarray:
    """v as a read-only 3-vector of dtype."""
    a = np.asarray(v, dtype=dtype).reshape(3)
    a.setflags(write=False)
    return a


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of one 3-vector, shape (1,), or of every row of an (N, 3) stack, shape
    (N, 1); each rounded as ``np.linalg.norm`` rounds one vector: one dot product per row (and
    per part if complex)."""
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum(np.matmul(part[..., None, :], part[..., :, None])[..., 0] for part in parts))


def _density_matrix(rho, dim: int, label: str) -> np.ndarray:
    """rho as a complex (dim, dim) array, rejected unless every entry is finite: a nan or inf
    would otherwise spread silently through every trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{label} must have shape ({dim}, {dim}), got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError(f"{label} must have finite entries")
    return rho


@dataclass(frozen=True, eq=False)
class Transition:
    """One spontaneous-decay channel upper -> lower of a level scheme."""

    upper: int
    lower: int
    dipole: np.ndarray  # complex 3-vector, units of the reduced dipole
    decay_rate: float   # full population decay rate of the channel (2*gamma)
    driven: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dipole", _frozen(self.dipole, complex))
        if not 0 <= self.decay_rate < math.inf:
            raise ValueError(f"decay rate must be >= 0 and finite, got {self.decay_rate}")


@dataclass(frozen=True, eq=False)
class LevelScheme:
    """Internal structure of one atom: levels, decay channels, drive couplings."""

    n_levels: int
    transitions: tuple[Transition, ...]
    excited_levels: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "excited_levels", frozenset(self.excited_levels))
        for t in self.transitions:
            if not (0 <= t.upper < self.n_levels and 0 <= t.lower < self.n_levels):
                raise ValueError(f"transition {t.upper}->{t.lower} outside 0..{self.n_levels - 1}")
            if t.upper not in self.excited_levels:
                raise ValueError(f"upper level {t.upper} not marked excited")
            if t.lower in self.excited_levels:
                raise ValueError(f"lower level {t.lower} marked excited")

    @property
    def ground_levels(self) -> frozenset[int]:
        return frozenset(range(self.n_levels)) - self.excited_levels

    @functools.cached_property
    def dipole_matrix(self) -> np.ndarray:
        """Lowering part of the dipole operator, d[:, lower, upper] summed over the decay
        channels; read-only, shape (3, n_levels, n_levels)."""
        dipoles = np.zeros((3, self.n_levels, self.n_levels), dtype=complex)
        for t in self.transitions:
            dipoles[:, t.lower, t.upper] += t.dipole
        dipoles.setflags(write=False)
        return dipoles


@dataclass(frozen=True)
class DriveDecayParams:
    """Drive and relaxation rates: 2*g is the Rabi frequency, 2*gamma0 and
    2*gamma the pi and sigma spontaneous-emission rates.

    ``g = 0`` is accepted so that the undriven degeneracy paths are reachable;
    operations that need a unique steady state reject it themselves.
    """

    g: float
    gamma0: float
    gamma: float

    def __post_init__(self):
        if not 0 <= self.g < math.inf:
            raise ValueError(f"g must be >= 0 and finite, got {self.g}")
        if not (0 <= self.gamma0 < math.inf and 0 <= self.gamma < math.inf):
            raise ValueError("decay half-rates must be >= 0 and finite")
        if not self.gamma0 + self.gamma > 0:
            raise ValueError("gamma0 + gamma must be > 0 (no relaxation otherwise)")

    @property
    def total(self) -> float:
        """Gamma = gamma0 + gamma, the optical-coherence damping rate."""
        return self.gamma0 + self.gamma


@dataclass(frozen=True, eq=False)
class Geometry:
    """Atom positions (wavelength units) and drive propagation direction."""

    r_a: np.ndarray
    r_b: np.ndarray
    n_l: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r_a", _frozen(self.r_a, float))
        object.__setattr__(self, "r_b", _frozen(self.r_b, float))
        object.__setattr__(self, "n_l", _frozen(self.n_l, float))
        if not (np.all(np.isfinite(self.r_a)) and np.all(np.isfinite(self.r_b))):
            raise ValueError("atom positions must be finite")
        if not abs(np.linalg.norm(self.n_l) - 1.0) <= _UNIT_TOL:
            raise ValueError("drive direction n_l must be a unit vector")

    @property
    def separation(self) -> np.ndarray:
        return self.r_a - self.r_b


@dataclass(frozen=True, eq=False)
class Detector:
    """Far-field observation direction plus the analyzer polarization vector.

    Construction only validates the unit norms.  Physical analyzers are
    transverse (eps^dag . n = 0); build those through :func:`make_detector`,
    the package's one transversality check, or the pi/sigma keyword helpers,
    transverse by construction.  The scan code deliberately reuses one
    fixed polarization vector while the direction moves (matched-analyzer
    idealization), which is why transversality is not hard-wired here.
    """

    n: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _frozen(self.n, float))
        object.__setattr__(self, "epsilon", _frozen(self.epsilon, complex))
        if not abs(np.linalg.norm(self.n) - 1.0) <= _UNIT_TOL:
            raise ValueError("observation direction n must be a unit vector")
        if not abs(np.vdot(self.epsilon, self.epsilon).real - 1.0) <= _UNIT_TOL:
            raise ValueError("polarization eps must satisfy eps^dag . eps = 1")

    def transversality_defect(self) -> float:
        """|eps^dag . n|; zero for a physical (transverse) analyzer."""
        return abs(np.vdot(self.epsilon, self.n))


def make_detector(n, epsilon) -> Detector:
    """Build a detector and enforce transversality eps^dag . n = 0."""
    det = Detector(n, epsilon)
    if det.transversality_defect() > _TRANSVERSE_TOL:
        raise ValueError(
            f"polarization is not transverse to n (|eps^dag.n| = {det.transversality_defect():.3e})"
        )
    return det


def hg_level_scheme(params: DriveDecayParams) -> LevelScheme:
    """Four-level J=1/2 -> J=1/2 scheme of a single ion.

    Levels are indexed 0..3: 0 and 2 are the excited Zeeman pair, 1 and 3
    the ground pair.  The two pi channels 0->1 and 2->3 (dipoles -z/sqrt(6)
    and +z/sqrt(6), rate 2*gamma0) are driven; the two sigma channels 0->3
    and 2->1 (dipoles sigma_minus/sqrt(3) and its conjugate, rate 2*gamma)
    are not.  The pi dipoles are antiparallel and the sigma dipoles are
    mutually orthogonal in the Hermitian inner product, so the four channels
    radiate independently.
    """
    d_pi = Z_HAT / math.sqrt(6.0)
    d_sigma = SIGMA_MINUS / math.sqrt(3.0)
    return LevelScheme(
        n_levels=4,
        transitions=(
            Transition(upper=0, lower=1, dipole=-d_pi, decay_rate=2.0 * params.gamma0, driven=True),
            Transition(upper=2, lower=3, dipole=+d_pi, decay_rate=2.0 * params.gamma0, driven=True),
            Transition(upper=0, lower=3, dipole=d_sigma, decay_rate=2.0 * params.gamma),
            Transition(upper=2, lower=1, dipole=d_sigma.conj(), decay_rate=2.0 * params.gamma),
        ),
        excited_levels=frozenset({0, 2}),
    )


def two_level_scheme(gamma: float) -> LevelScheme:
    """Driven two-level atom: level 0 excited, level 1 ground, dipole z, rate 2*gamma."""
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return LevelScheme(
        n_levels=2,
        transitions=(
            Transition(upper=0, lower=1, dipole=Z_HAT, decay_rate=2.0 * gamma, driven=True),
        ),
        excited_levels=frozenset({0}),
    )


def transverse_basis(n) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal basis (e1, e2) of the plane transverse to n.

    e1 lies in the plane spanned by n and z (it is the normalized transverse
    projection of z); when n is (anti)parallel to z that plane degenerates
    and the convention is e1 = x, e2 = n x e1.  n is one direction, shape (3,),
    or one per row, shape (N, 3); e1 and e2 are complex and of n's shape, each
    row bit for bit what a call on that row alone returns.
    """
    n = np.asarray(n, dtype=float)
    if n.ndim != 2 or n.shape[1] != 3:
        n = n.reshape(3)
    if not np.all(np.abs(_norms(n) - 1.0) <= _UNIT_TOL):
        raise ValueError("n must be a unit vector")
    e1 = Z_HAT - n[..., 2:] * n
    norm = _norms(e1)
    along_z = norm < 1e-8
    e1 = np.where(along_z, X_HAT, e1 / np.where(along_z, 1.0, norm))
    e2 = np.cross(n, e1)
    return e1.astype(complex), e2.astype(complex)


def _rescaled(v, dtype) -> np.ndarray:
    """v as a 1-D array of dtype, times the power of two that brings its largest real or
    imaginary part into [1/2, 1): its norm cannot under- or overflow, and the scaling is exact.
    Raises ValueError for a non-finite entry."""
    parts = np.array(v, dtype=dtype).ravel().view(float)
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"vector entries must be finite, got {np.asarray(v)}")
    _, exponent = np.frexp(np.max(np.abs(parts)))
    return np.ldexp(parts, -exponent).view(dtype)


def _keyword_polarization(n, vector, label: str) -> np.ndarray:
    """Normalized transverse projection of ``vector`` at n; null on the vector's own scale."""
    n = np.asarray(n, dtype=float).reshape(3)
    vector = _rescaled(vector, complex)
    proj = vector - n * (n @ vector)
    norm = np.linalg.norm(proj)
    if norm <= 1e-8 * np.linalg.norm(vector):
        raise ValueError(
            f"{label} polarization is undefined for observation direction {np.asarray(n)}: "
            "the transverse projection vanishes"
        )
    return proj / norm


def pi_polarization(n) -> np.ndarray:
    """Normalized transverse projection of the quantization axis z at direction n."""
    return _keyword_polarization(n, Z_HAT.astype(complex), "pi")


def sigma_polarization(n) -> np.ndarray:
    """Normalized transverse projection of sigma_minus = (x - i y)/sqrt(2) at direction n."""
    return _keyword_polarization(n, SIGMA_MINUS, "sigma")


def standard_geometry(separation_wavelengths: float, drive_direction=Y_HAT) -> Geometry:
    """Atoms at +-d/2 on the x axis, drive along ``drive_direction`` (default +y)."""
    if not 0 < separation_wavelengths < math.inf:
        raise ValueError("separation must be > 0 and finite")
    d = float(separation_wavelengths)
    n_l = _rescaled(drive_direction, float)
    norm = np.linalg.norm(n_l)
    if norm == 0:
        raise ValueError("drive direction n_l must be a unit vector, got the zero vector")
    n_l = n_l / norm
    return Geometry(r_a=+0.5 * d * X_HAT, r_b=-0.5 * d * X_HAT, n_l=n_l)

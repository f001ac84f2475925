"""Interference of resonance fluorescence from two independently driven atoms.

The package computes, from a single-atom master equation and far-field
dipole radiation operators, the first-order intensity pattern and the
equal-time two-detector coincidence statistics of a pair of uncorrelated
atoms, together with a brute-force product-space oracle that validates the
factorized formulas and a quantum-jump Monte Carlo cross-check of the
steady state.
"""

from .atom_model import (
    Detector,
    DriveDecayParams,
    Geometry,
    LevelScheme,
    Transition,
    WAVENUMBER,
    hg_level_scheme,
    make_detector,
    pi_polarization,
    sigma_polarization,
    standard_geometry,
    transverse_basis,
    two_level_scheme,
)
from .correlations import (
    CorrelationResult,
    WitnessResult,
    correlation_point,
    g2_factorized,
    gamma2,
    modulation_depth,
    g2_normalized,
    g2_normalized_closed_form,
    witness_from_g2,
)
from .dynamics import (
    DegenerateSteadyStateError,
    QuantumJumpResult,
    build_liouvillian,
    check_density_matrix,
    evolve,
    liouvillian_residual,
    pure_state,
    quantum_jump_estimate,
    steady_state_analytic,
    steady_state_numeric,
    two_level_steady_state_analytic,
)
from .exact_oracle import (
    ConditionedState,
    conditioned_state,
    g2_exact,
    intensity_exact,
    pair_field_matrix,
    product_liouvillian,
)
from .farfield import (
    FieldOperator,
    field_operator,
    g1,
    intensity,
    intensity_visibility,
    mean_field,
)
from .scans import G2Scan, IntensityScan, g2_exact_scan, g2_scan, intensity_scan

__version__ = "0.1.0"

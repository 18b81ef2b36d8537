"""Finite quantum systems under repeated conditional null measurements.

The survival operator S = (1 - |psi_d><psi_d|) exp(-i H tau) is analyzed
through its three eigenvalue classes (one zero, interior disk points,
unit-circle dark states), the electrostatic charge picture of the disk
points, conditional trajectories, asymptotic regimes, and closed-form
perturbative estimates.
"""

__version__ = "0.1.0"

from .errors import (
    BoundNotApplicableError,
    CertainDetectionError,
    ConfigError,
    ExceptionalSpectrumError,
    InvalidMatrixError,
    InvalidParameterError,
    NoBrightSubspaceError,
    NotApplicableError,
    NullsteerError,
    NumericalFailureError,
    PoleError,
    RootTooCloseError,
    UnsupportedMultiplicityError,
)
from .models import (
    DetectionState,
    HermitianModel,
    Level,
    SpectralDecomposition,
    build_custom,
    build_exceptional_three_level,
    build_glued_tree,
    build_three_level_chain,
    build_two_level,
    build_v_atom,
    glued_tree_column_sizes,
    propagator,
    site_state,
    spectral_decompose,
)
from .charges import (
    Charge,
    ChargeConfiguration,
    DetectorSplit,
    ExceptionalReport,
    StationaryPoints,
    charges,
    config_from_levels,
    dark_combination_coeffs,
    detect_exceptional,
    energy_spread,
    field,
    merged_charge_config,
    stationary_points,
    zeno_bound,
)
from .survival import (
    EigenSurvivalOperator,
    EigenTriple,
    SurvivalOperator,
    SurvivalSpectrum,
    bright_states,
    build_survival,
    completeness_check,
    dark_states,
    disk_eigenpairs,
    full_spectrum,
    zero_eigenpair,
)
from .evolution import (
    AsymptoticRegime,
    OscillationDescriptor,
    Trajectory,
    TrajectoryRecord,
    classify_regime,
    energy_conservation_check,
    evolve,
    evolve_spectral,
    oscillation_descriptor,
    step,
)
from .perturbation import (
    PerturbationEstimate,
    PerturbationRegimeWarning,
    triple_charge_estimate,
    two_merge_estimate,
    weak_charge_estimate,
    zeno_time_estimate,
)
from .configio import ExperimentConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]

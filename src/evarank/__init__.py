"""Exact low-rank covariance models of evanescent random fields.

Construct the covariance of a sum of evanescent components over a finite
lattice, predict its rank in closed form, verify the count numerically and
through explicit dependence certificates, and apply the result to
jammer/clutter subspace projection.
"""

from .covariance import (
    CovarianceModel,
    assemble_gamma,
    load_matrix_binary,
    process_covariance,
    sample_covariance,
    save_matrix_binary,
    save_matrix_csv,
)
from .fields import (
    EvanescentComponent,
    ModulatingProcessSpec,
    ProcessKind,
    modulating_indices,
    synthesize_batch,
)
from .lattice import (
    LatticeRect,
    SlopePair,
    diophantine_shifts,
    make_slope_pair,
    rnshp_precedes,
)
from .rank import (
    DependencyCertificate,
    RankPrediction,
    RegimeFlag,
    dependent_point_set,
    find_certificate,
    independent_point_set,
    make_certificate,
    numerical_rank,
    predict_rank,
    spectral_gap_ratio,
    verify_certificate,
)
from .stap import (
    ClutterRidgeSpec,
    JammerSpec,
    StapScenario,
    SubspaceReport,
    TargetSpec,
    dominant_projection,
    interference_covariance,
    scenario_to_components,
    suppression_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceModel",
    "ClutterRidgeSpec",
    "DependencyCertificate",
    "EvanescentComponent",
    "JammerSpec",
    "LatticeRect",
    "ModulatingProcessSpec",
    "ProcessKind",
    "RankPrediction",
    "RegimeFlag",
    "SlopePair",
    "StapScenario",
    "SubspaceReport",
    "TargetSpec",
    "assemble_gamma",
    "dependent_point_set",
    "diophantine_shifts",
    "dominant_projection",
    "find_certificate",
    "independent_point_set",
    "interference_covariance",
    "load_matrix_binary",
    "make_certificate",
    "make_slope_pair",
    "modulating_indices",
    "numerical_rank",
    "predict_rank",
    "process_covariance",
    "rnshp_precedes",
    "sample_covariance",
    "save_matrix_binary",
    "save_matrix_csv",
    "scenario_to_components",
    "spectral_gap_ratio",
    "suppression_experiment",
    "synthesize_batch",
    "verify_certificate",
]

"""Exact low-rank covariance models of evanescent random fields.

Construct the covariance of a sum of evanescent components over a finite
lattice, predict its rank in closed form, verify the count numerically and
through explicit dependence certificates, and apply the result to
jammer/clutter subspace projection.  The package root exports the names of
the README's quick start and matrix export; everything else is imported
from its submodule.
"""

from .covariance import assemble_gamma, load_matrix_binary
from .fields import EvanescentComponent, ModulatingProcessSpec, ProcessKind
from .lattice import LatticeRect, make_slope_pair
from .rank import find_certificate, numerical_rank, predict_rank, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "EvanescentComponent",
    "LatticeRect",
    "ModulatingProcessSpec",
    "ProcessKind",
    "assemble_gamma",
    "find_certificate",
    "load_matrix_binary",
    "make_slope_pair",
    "numerical_rank",
    "predict_rank",
    "verify_certificate",
]

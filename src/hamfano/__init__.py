"""Exact fixed-point data of Hamiltonian circle actions and its constraint checks."""

from .fixed_data import (
    FixedComponent,
    FixedPointData,
    GradientEdge,
    Rational,
    extremal,
    index,
    validate,
)
from .graphs import LabelledGraph
from .localization import Polynomial, abbv_sum_4d, abbv_sum_6d, alpha, beta, chi_y
from .reports import Report, StructuralError, Violation
from .toric import LatticePolytope, delpezzo_catalog

__version__ = "0.1.0"

__all__ = [
    "FixedComponent",
    "FixedPointData",
    "GradientEdge",
    "LabelledGraph",
    "LatticePolytope",
    "Polynomial",
    "Rational",
    "Report",
    "StructuralError",
    "Violation",
    "abbv_sum_4d",
    "abbv_sum_6d",
    "alpha",
    "beta",
    "chi_y",
    "delpezzo_catalog",
    "extremal",
    "index",
    "validate",
]

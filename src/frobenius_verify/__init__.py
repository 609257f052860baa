"""Verification engine and catalog for flat Kahler / Frobenius geometry.

Given a Kahler potential on a chart (plus optional lattice and finite
group action) the package computes the metric, Christoffel, curvature,
Ricci and WDVV tensors by forward-mode automatic differentiation,
tests the Frobenius-algebra and pencil-of-connections axioms, validates
the surface classification catalog and checks theta-function laws.
"""

__version__ = "0.3.0"

from .expr import ParseError, PotentialExpr, eval_point, parse, to_source
from .kahler import MetricData, metric_at, wdvv_residual_at
from .wirtinger import Jet, jet_eval, partial, seed

__all__ = [
    "__version__",
    "ParseError",
    "PotentialExpr",
    "parse",
    "to_source",
    "eval_point",
    "Jet",
    "seed",
    "jet_eval",
    "partial",
    "MetricData",
    "metric_at",
    "wdvv_residual_at",
]

"""Verification engine and catalog for flat Kahler / Frobenius geometry.

Given a Kahler potential on a chart (plus optional lattice and finite
group action) the package computes the metric, Christoffel, curvature,
Ricci and WDVV tensors by forward-mode automatic differentiation,
tests the Frobenius-algebra and pencil-of-connections axioms, validates
the surface classification catalog and checks theta-function laws.
"""

__version__ = "0.7.0"

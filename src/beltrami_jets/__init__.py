"""Exact obstruction analysis for Beltrami fields near critical factor points.

Builds the degree-graded linear systems that a divergence-free field with
curl(X) = f X must satisfy near a non-degenerate critical point of f,
computes their nullspaces in exact rational arithmetic, classifies Hessian
spectra by resonance, and verifies the concrete worked examples end to end.
"""

from .cascade import (
    CascadeReport,
    TruncatedFactor,
    VERDICT_INCONCLUSIVE,
    VERDICT_TRIVIAL,
    WindowSystem,
    analyze,
    assemble_window,
    window_kernel,
)
from .cylindrical import (
    RadialSeries,
    bessel_series_coefficients,
    solve_cylindrical_recurrence,
    verify_beltrami_cylindrical,
)
from .harmonics import PlanarHarmonicPair, lifted_field, planar_harmonics
from .linalg import ConstraintMatrix, KernelBasis, kernel_basis, rank
from .polynomials import (
    CoefficientIndex,
    HomogeneousPolynomial,
    PolynomialVectorField,
    curl,
    div,
    dot,
    grad,
    laplacian,
    scale_mul,
)
from .single_degree import (
    SigmaTriple,
    SpectrumClassification,
    assemble_single,
    classify_spectrum,
    kernel_single,
    resonance_search,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeReport",
    "CoefficientIndex",
    "ConstraintMatrix",
    "HomogeneousPolynomial",
    "KernelBasis",
    "PlanarHarmonicPair",
    "PolynomialVectorField",
    "RadialSeries",
    "SigmaTriple",
    "SpectrumClassification",
    "TruncatedFactor",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_TRIVIAL",
    "WindowSystem",
    "analyze",
    "assemble_single",
    "assemble_window",
    "bessel_series_coefficients",
    "classify_spectrum",
    "curl",
    "div",
    "dot",
    "grad",
    "kernel_basis",
    "kernel_single",
    "laplacian",
    "lifted_field",
    "planar_harmonics",
    "rank",
    "resonance_search",
    "scale_mul",
    "solve_cylindrical_recurrence",
    "verify_beltrami_cylindrical",
    "window_kernel",
]

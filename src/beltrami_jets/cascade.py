"""Coupled multi-degree ("window") systems and the cascade analyzer.

Substituting the graded expansions X = X_i + X_{i+1} + ... (with X_j = 0
below the base degree i) and f = f0 + f2 + ... + fD into curl(X) = f X,
div(X) = 0 and <grad f, X> = 0 and matching degrees yields, for a window
[i, i+d], the system `_assembly.graded_system` assembles: an equation
enters only if every unknown it references lies in [i, i+d], and
equations referencing higher-degree terms are deferred entirely, never
truncated.  The kernel's projection onto the X_i block measures whether a
nontrivial leading term survives the extra constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._assembly import graded_system
from .linalg import (
    ConstraintMatrix,
    KernelBasis,
    coerce_rational,
    format_rational,
    is_consistent,
    kernel_basis,
    parse_rational,
    rank_of_vectors,
)
from .polynomials import (
    CoefficientIndex,
    HomogeneousPolynomial,
    PolynomialVectorField,
    coefficient_vector,
    field_to_json,
    fields_from_vector,
    jet_residuals_vanish,
    poly_from_json,
    poly_to_json,
)
from .single_degree import SigmaTriple, SpectrumClassification, classify_spectrum

DEGREE_CAP = 16

VERDICT_TRIVIAL = "TrivialOnly"
VERDICT_INCONCLUSIVE = "ObstructionInconclusive"


@dataclass(frozen=True)
class TruncatedFactor:
    """Truncated factor f = f0 + f2 + ... + fD (no degree-1 term)."""

    constant: Fraction
    components: dict[int, HomogeneousPolynomial]

    def __post_init__(self):
        object.__setattr__(self, "constant", coerce_rational(self.constant))
        clean: dict[int, HomogeneousPolynomial] = {}
        for degree, poly in self.components.items():
            if type(degree) is not int:  # bool is an int subclass; floats would truncate
                raise TypeError(f"component degree {degree!r} is not an int")
            if degree < 2:
                raise ValueError("factor components start at degree 2")
            if poly.degree != degree:
                raise ValueError(f"component at degree {degree} has degree {poly.degree}")
            if not poly.is_zero():
                clean[degree] = poly
        object.__setattr__(self, "components", clean)

    @classmethod
    def diagonal(
        cls, f0, sigma: SigmaTriple, extra: dict[int, HomogeneousPolynomial] | None = None
    ) -> "TruncatedFactor":
        components = {2: sigma.quadric()}
        components.update(extra or {})
        return cls(constant=coerce_rational(f0), components=components)

    def with_cubic_scaled(self, eps) -> "TruncatedFactor":
        """f0 + f2 + eps*f3 + f4 + ...; eps = 0 drops f3."""
        if 3 not in self.components:
            raise ValueError("scaling f3 requires a degree-3 factor component")
        cubic = self.components[3] * coerce_rational(eps)
        return TruncatedFactor(self.constant, {**self.components, 3: cubic})

    def sigma(self) -> SigmaTriple:
        """Extract (s1, s2, s3) from f2; requires an exactly diagonal quadric."""
        f2 = self.components.get(2)
        diag = {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
        if f2 is None or set(f2.coeffs) - diag:
            raise ValueError("non-degenerate diagonal Hessian required")
        try:
            return SigmaTriple(
                f2.coefficient((2, 0, 0)),
                f2.coefficient((0, 2, 0)),
                f2.coefficient((0, 0, 2)),
            )
        except ValueError as exc:
            raise ValueError("non-degenerate diagonal Hessian required") from exc

    def to_json(self) -> dict:
        return {
            "f0": format_rational(self.constant),
            "components": {str(d): poly_to_json(p) for d, p in sorted(self.components.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedFactor":
        if not isinstance(data, dict) or not isinstance(data.get("components", {}), dict):
            raise ValueError("factor must be an object with a components object")
        unknown = set(data) - {"f0", "components"}
        if unknown:
            raise ValueError(f"unknown factor keys {sorted(unknown)}")
        components = {}
        for key, poly in data.get("components", {}).items():
            if not (key.isascii() and key.isdigit() and str(int(key)) == key):
                raise ValueError(f"component key {key!r} is not a decimal degree")
            components[int(key)] = poly_from_json(poly)
        return cls(constant=parse_rational(data.get("f0", "0")), components=components)


@dataclass(frozen=True)
class WindowSystem:
    """Coupled system over the unknowns X_i .. X_{i+d} (lower terms zero)."""

    base_degree: int
    depth: int
    matrix: ConstraintMatrix


def assemble_window(
    f: TruncatedFactor, i: int, d: int, *, degree_cap: int = DEGREE_CAP
) -> WindowSystem:
    """Assemble the window system for unknowns X_i .. X_{i+d}."""
    if i < 1 or d < 0:
        raise ValueError("window requires i >= 1 and d >= 0")
    if i + d > degree_cap:
        raise ValueError(f"window top degree {i + d} exceeds cap {degree_cap}")
    matrix = graded_system(f.constant, f.components, i, i + d)
    return WindowSystem(base_degree=i, depth=d, matrix=matrix)


def block_projection_dim(basis: KernelBasis, term_degree: int) -> int:
    """Dimension of the kernel's projection onto one X_d coefficient block."""
    positions = [
        pos
        for pos, label in enumerate(basis.col_labels)
        if isinstance(label, CoefficientIndex) and label.term_degree == term_degree
    ]
    return rank_of_vectors([[vec[p] for p in positions] for vec in basis.vectors])


def check_window_solution(
    f: TruncatedFactor,
    i: int,
    d: int,
    fields: dict[int, PolynomialVectorField],
) -> bool:
    """Verify a candidate jet against every equation the window determines.

    Independent of the matrix path: the residuals of the whole truncated
    jet (missing blocks zero) are recomputed with the polynomial operators.
    """
    jet = {m: fields.get(m, PolynomialVectorField.zero(m)) for m in range(i, i + d + 1)}
    factor = dict(f.components)
    if f.constant:
        factor[0] = HomogeneousPolynomial(0, {(0, 0, 0): f.constant})
    return jet_residuals_vanish(factor, jet)


def window_kernel(
    f: TruncatedFactor, i: int, d: int, *, degree_cap: int = DEGREE_CAP
) -> tuple[KernelBasis, int]:
    """Kernel of the window system and its projection dimension on X_i."""
    system = assemble_window(f, i, d, degree_cap=degree_cap)
    basis = kernel_basis(system.matrix)
    for vector in basis.vectors:
        fields = fields_from_vector(vector, basis.col_labels)
        if not check_window_solution(f, i, d, fields):
            raise AssertionError("window kernel vector fails substitution check")
    return basis, block_projection_dim(basis, i)


def forced_source_feasible(
    f: TruncatedFactor, i: int, d: int, x_i: PolynomialVectorField
) -> bool:
    """Feasibility of the window with X_i pinned to a given field.

    The X_i columns are moved to the right-hand side and feasibility is
    decided by `is_consistent`: by the kernel of [A | -b].
    """
    if x_i.degree != i:
        raise ValueError("pinned field degree must equal the window base degree")
    matrix = assemble_window(f, i, d).matrix
    pinned = coefficient_vector({i: x_i}, matrix.col_labels)
    keep = [pos for pos, label in enumerate(matrix.col_labels) if label.term_degree != i]
    keep_index = {old: new for new, old in enumerate(keep)}
    rhs = []
    kept_rows = []
    for row in matrix.row_dicts():
        b = Fraction(0)
        kept = {}
        for c, v in row.items():
            if c in keep_index:
                kept[keep_index[c]] = v
            else:
                b -= v * pinned[c]
        rhs.append(b)
        kept_rows.append(kept)
    reduced = ConstraintMatrix(
        col_labels=tuple(matrix.col_labels[c] for c in keep),
        row_labels=matrix.row_labels,
        row_entries=tuple(kept_rows),
    )
    return is_consistent(reduced, rhs)


@dataclass(frozen=True)
class RiskyWindowResult:
    degree: int
    depth: int
    kernel_dim: int
    projection_dim: int
    basis: KernelBasis

    def to_json(self) -> dict:
        vectors = []
        for vec in self.basis.vectors:
            fields = fields_from_vector(vec, self.basis.col_labels)
            vectors.append(
                {"blocks": {str(m): field_to_json(v) for m, v in sorted(fields.items())}}
            )
        return {
            "degree": self.degree,
            "depth": self.depth,
            "window_kernel_dim": self.kernel_dim,
            "projection_dim": self.projection_dim,
            "kernel": vectors,
        }


@dataclass(frozen=True)
class CascadeReport:
    """Per-truncation verdict: no nontrivial jet through each risky window.

    The verdict speaks about the assembled truncated systems only; the
    analytic upgrade from vanishing jets to vanishing fields is cited
    background, not computed here.
    """

    sigma: SigmaTriple
    classification: SpectrumClassification
    risky: tuple[RiskyWindowResult, ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "sigma": [format_rational(v) for v in self.sigma.as_tuple()],
            "classification": self.classification.to_json(),
            "risky": [entry.to_json() for entry in self.risky],
            "verdict": self.verdict,
        }


def analyze(
    f: TruncatedFactor,
    depth_f0_zero: int = 3,
    depth_f0_nonzero: int = 1,
    *,
    degree_cap: int = DEGREE_CAP,
) -> CascadeReport:
    """Classify the spectrum, solve every risky window, and report a verdict.

    TrivialOnly iff every risky degree's window kernel projects to zero on
    its X_i block.
    """
    sigma = f.sigma()
    classification = classify_spectrum(sigma)
    depth = depth_f0_zero if f.constant == 0 else depth_f0_nonzero
    results = []
    for i in sorted(classification.risky_degrees):
        basis, projection = window_kernel(f, i, depth, degree_cap=degree_cap)
        results.append(
            RiskyWindowResult(
                degree=i,
                depth=depth,
                kernel_dim=basis.dimension,
                projection_dim=projection,
                basis=basis,
            )
        )
    verdict = (
        VERDICT_TRIVIAL
        if all(r.projection_dim == 0 for r in results)
        else VERDICT_INCONCLUSIVE
    )
    return CascadeReport(
        sigma=sigma, classification=classification, risky=tuple(results), verdict=verdict
    )

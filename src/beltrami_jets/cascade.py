"""Coupled multi-degree ("window") systems and the cascade analyzer.

Substituting the graded expansions X = X_i + X_{i+1} + ... (with X_j = 0
below the base degree i) and f = f0 + f2 + ... + fD into

    curl(X) = f X,   div(X) = 0,   <grad f, X> = 0

and matching degrees yields, for a window [i, i+d], the system

    curl(X_m) = sum_j f_j X_{m-1-j}      for m in [i, i+d]
    div(X_m)  = 0                        for m in [i, i+d]
    sum_j <grad f_j, X_{t+1-j}> = 0      for matched degrees t

An equation enters the window only if every unknown it references lies in
[i, i+d]; equations referencing higher-degree terms are deferred entirely,
never truncated.  The kernel's projection onto the X_i block measures
whether a nontrivial leading term survives the extra constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._assembly import ColumnSpace, curl_rows, div_rows, first_integral_rows
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
    curl,
    div,
    dot,
    field_to_coefficients,
    field_to_json,
    fields_from_vector,
    grad,
    poly_from_json,
    poly_to_json,
    scale_mul,
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
            degree = int(degree)
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

    @property
    def max_degree(self) -> int:
        return max(self.components, default=0)

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


def _couplings_for_curl(
    f: TruncatedFactor, m: int, lo: int
) -> list[tuple[HomogeneousPolynomial, int]]:
    out = []
    if f.constant != 0 and m - 1 >= lo:
        out.append((HomogeneousPolynomial(0, {(0, 0, 0): f.constant}), m - 1))
    for j, poly in sorted(f.components.items()):
        src = m - 1 - j
        if src >= lo:
            out.append((poly, src))
    return out


def assemble_window(
    f: TruncatedFactor, i: int, d: int, *, degree_cap: int = DEGREE_CAP
) -> WindowSystem:
    """Assemble the window system for unknowns X_i .. X_{i+d}."""
    if i < 1 or d < 0:
        raise ValueError("window requires i >= 1 and d >= 0")
    hi = i + d
    if hi > degree_cap:
        raise ValueError(f"window top degree {hi} exceeds cap {degree_cap}")
    cs = ColumnSpace.for_degrees(range(i, hi + 1))
    rows = []
    for m in range(i, hi + 1):
        rows.extend(curl_rows(m, _couplings_for_curl(f, m, i), cs))
        rows.extend(div_rows(m, cs))
    present = sorted(f.components)
    if present:
        jmin = present[0]
        for t in range(i + jmin - 1, hi + jmin):
            couplings = [
                (grad(f.components[j]) * Fraction(1, 2), t + 1 - j)
                for j in present
                if i <= t + 1 - j <= hi
            ]
            rows.extend(first_integral_rows(t, couplings, cs))
    matrix = ConstraintMatrix.from_rows(cs.labels, rows)
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

    Independent of the matrix path: the residuals curl X - f X, div X and
    <grad f, X> of the whole truncated jet (X_m = 0 below m = i) are
    computed with curl/div/dot/scale_mul, using full (unhalved) gradients,
    at the degrees fixed by X_i .. X_{i+d}.
    """
    hi = i + d
    jet = {m: fields.get(m, PolynomialVectorField.zero(m)) for m in range(i, hi + 1)}
    factor = dict(f.components)
    if f.constant:
        factor[0] = HomogeneousPolynomial(0, {(0, 0, 0): f.constant})
    for m in range(i, hi + 1):
        if not div(jet[m]).is_zero():
            return False
        residual = curl(jet[m])
        for j, poly in factor.items():
            if m - 1 - j in jet:
                residual = residual - scale_mul(poly, jet[m - 1 - j])
        if not residual.is_zero():
            return False
    gradients = {j: grad(poly) for j, poly in factor.items() if j > 0}
    if gradients:
        jmin = min(gradients)
        for t in range(i + jmin - 1, hi + jmin):
            total = HomogeneousPolynomial.zero(t)
            for j, gradient in gradients.items():
                if t + 1 - j in jet:
                    total = total + dot(gradient, jet[t + 1 - j])
            if not total.is_zero():
                return False
    return True


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
    decided by exact rank comparison of [A | b] against A.
    """
    if x_i.degree != i:
        raise ValueError("pinned field degree must equal the window base degree")
    matrix = assemble_window(f, i, d).matrix
    pinned = field_to_coefficients(x_i)
    keep = [pos for pos, label in enumerate(matrix.col_labels) if label.term_degree != i]
    keep_index = {old: new for new, old in enumerate(keep)}
    rhs = [Fraction(0)] * matrix.rows
    entries: dict[tuple[int, int], Fraction] = {}
    for (r, c), v in matrix.entries.items():
        label = matrix.col_labels[c]
        if label.term_degree == i:
            rhs[r] -= v * pinned.get(label, Fraction(0))
        else:
            entries[(r, keep_index[c])] = v
    reduced = ConstraintMatrix(
        rows=matrix.rows,
        cols=len(keep),
        entries=entries,
        col_labels=tuple(matrix.col_labels[c] for c in keep),
        row_labels=matrix.row_labels,
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

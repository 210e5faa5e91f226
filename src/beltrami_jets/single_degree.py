"""Single-degree obstruction systems and Hessian spectrum classification.

For a diagonal quadratic factor term f2 = s1*x^2 + s2*y^2 + s3*z^2 the
degree-i obstruction system is

    curl(X_i) = 0,   div(X_i) = 0,   <grad f2, X_i> = 0,

assembled as one exact constraint matrix over the 3*C(i+2,2) unknown
coefficients of X_i.  Nontrivial kernels only occur at spectrum-dependent
"risky" degrees: a +/- eigenvalue pair allows degree 1, a traceless
spectrum allows degree 2, and a spectrum of shape (a, a, -i*a) with an
integer i >= 3 allows exactly degree i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from ._assembly import graded_system
from .linalg import ConstraintMatrix, KernelBasis, coerce_rational, kernel_basis, parse_rational
from .polynomials import HomogeneousPolynomial, fields_from_vector, jet_residuals_vanish


@dataclass(frozen=True)
class SigmaTriple:
    """Half-eigenvalues (s1, s2, s3) of the diagonalized Hessian; all nonzero."""

    s1: Fraction
    s2: Fraction
    s3: Fraction

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            value = coerce_rational(getattr(self, name))
            if value == 0:
                raise ValueError("degenerate Hessian: sigma components must be nonzero")
            object.__setattr__(self, name, value)

    @classmethod
    def parse(cls, text: str) -> "SigmaTriple":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated rationals, got {text!r}")
        return cls(*(parse_rational(p) for p in parts))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.s1, self.s2, self.s3)

    def quadric(self) -> HomogeneousPolynomial:
        """f2 = s1*x^2 + s2*y^2 + s3*z^2."""
        return HomogeneousPolynomial(
            2, {(2, 0, 0): self.s1, (0, 2, 0): self.s2, (0, 0, 2): self.s3}
        )

    def __str__(self) -> str:
        return f"({self.s1}, {self.s2}, {self.s3})"


@dataclass(frozen=True)
class SpectrumClassification:
    same_sign: bool
    plus_minus_pair: bool
    trace_zero: bool
    resonant_pair_degree: int | None
    risky_degrees: frozenset[int]

    def to_json(self) -> dict:
        return {
            "same_sign": self.same_sign,
            "plus_minus_pair": self.plus_minus_pair,
            "trace_zero": self.trace_zero,
            "resonant_pair_degree": self.resonant_pair_degree,
            "risky_degrees": sorted(self.risky_degrees),
        }


def classify_spectrum(s: SigmaTriple) -> SpectrumClassification:
    """All applicable spectrum flags; categories can overlap."""
    values = s.as_tuple()
    same_sign = all(v > 0 for v in values) or all(v < 0 for v in values)
    plus_minus_pair = any(values[a] + values[b] == 0 for a, b in ((0, 1), (0, 2), (1, 2)))
    trace_zero = sum(values) == 0

    resonant_pair_degree: int | None = None
    for a, b, c in permutations(range(3)):
        if values[a] != values[b]:
            continue
        ratio = -values[c] / values[a]
        if ratio.denominator == 1 and ratio >= 3:
            resonant_pair_degree = int(ratio)
            break

    risky: set[int] = set()
    if plus_minus_pair:
        risky.add(1)
    if trace_zero:
        risky.add(2)
    if resonant_pair_degree is not None:
        risky.add(resonant_pair_degree)
    return SpectrumClassification(
        same_sign=same_sign,
        plus_minus_pair=plus_minus_pair,
        trace_zero=trace_zero,
        resonant_pair_degree=resonant_pair_degree,
        risky_degrees=frozenset(risky),
    )


def assemble_single(i: int, s: SigmaTriple) -> ConstraintMatrix:
    """The degree-i obstruction system: the depth-0 window of f = f2 at i.

    Row order: curl_x, curl_y, curl_z, div (degree i-1 monomials), then the
    first-integral rows (degree i+1 monomials), each block in descending
    lex monomial order.  First-integral rows are stored halved, carrying
    (s1, s2, s3) coefficients directly.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    return graded_system(Fraction(0), {2: s.quadric()}, i, i)


def kernel_single(i: int, s: SigmaTriple) -> KernelBasis:
    """Exact kernel of the degree-i system, substitution-checked."""
    basis = kernel_basis(assemble_single(i, s))
    factor = {2: s.quadric()}
    for vector in basis.vectors:
        if not jet_residuals_vanish(factor, fields_from_vector(vector, basis.col_labels)):
            raise AssertionError("kernel field fails operator substitution check")
    return basis


def resonance_search(s: SigmaTriple, bound: int) -> list[tuple[int, int, int]]:
    """All integer triples (k1,k2,k3) != 0 with |kj| <= bound and s.k = 0."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    hits = []
    span = range(-bound, bound + 1)
    for k1 in span:
        for k2 in span:
            partial_sum = s.s1 * k1 + s.s2 * k2
            for k3 in span:
                if (k1, k2, k3) == (0, 0, 0):
                    continue
                if partial_sum + s.s3 * k3 == 0:
                    hits.append((k1, k2, k3))
    return hits

"""Homogeneous polynomials and polynomial vector fields in (x, y, z).

Coefficients are exact rationals.  Monomials are exponent triples
(k1, k2, k3); within a fixed degree they are enumerated in descending
lexicographic order with x > y > z, which fixes all row/column orderings
downstream.  The zero polynomial carries an explicit degree tag so degree
bookkeeping in graded systems never collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import coerce_rational, format_rational, parse_rational

Monomial = tuple[int, int, int]

AXES = ("x", "y", "z")


def monomial_degree(m: Monomial) -> int:
    return m[0] + m[1] + m[2]


def monomials_of_degree(d: int) -> list[Monomial]:
    """All degree-d monomials, descending lex with x > y > z."""
    return [
        (k1, k2, d - k1 - k2)
        for k1 in range(d, -1, -1)
        for k2 in range(d - k1, -1, -1)
    ]


def monomial_str(m: Monomial) -> str:
    if m == (0, 0, 0):
        return "1"
    parts = []
    for name, k in zip(AXES, m):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Exact homogeneous polynomial: degree tag plus a sparse coefficient map."""

    degree: int
    coeffs: dict[Monomial, Fraction]

    def __post_init__(self):
        clean: dict[Monomial, Fraction] = {}
        for m, c in self.coeffs.items():
            c = coerce_rational(c)
            if c == 0:
                continue
            if len(m) != 3 or min(m) < 0 or monomial_degree(m) != self.degree:
                raise ValueError(f"monomial {m} incompatible with degree {self.degree}")
            clean[tuple(m)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousPolynomial":
        return cls(degree, {})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "HomogeneousPolynomial":
        return cls(monomial_degree(m), {m: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: Monomial) -> Fraction:
        return self.coeffs.get(m, Fraction(0))

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.coeffs[m]) for m in sorted(self.coeffs, reverse=True)]

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degrees")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return HomogeneousPolynomial(self.degree, out)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def __neg__(self) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, HomogeneousPolynomial):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
            return HomogeneousPolynomial(self.degree + other.degree, out)
        c = coerce_rational(other)
        return HomogeneousPolynomial(self.degree, {m: c * v for m, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HomogeneousPolynomial":
        """n successive products.  Nothing in the package calls it (the
        Bessel lift builds (x^2+y^2)^n from its binomial form); it stays as
        the tests' oracle and because `bench/tracing.py` traces it."""
        if n < 0:
            raise ValueError("negative power")
        result = HomogeneousPolynomial(0, {(0, 0, 0): 1})
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        px, py, pz = (coerce_rational(v) for v in point)
        total = Fraction(0)
        for (k1, k2, k3), c in self.coeffs.items():
            total += c * px**k1 * py**k2 * pz**k3
        return total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({format_rational(c)})*{monomial_str(m)}" for m, c in self.terms())


@dataclass(frozen=True)
class PolynomialVectorField:
    """Triple of equal-degree homogeneous polynomials (components X^x, X^y, X^z)."""

    degree: int
    x: HomogeneousPolynomial
    y: HomogeneousPolynomial
    z: HomogeneousPolynomial

    def __post_init__(self):
        for comp in (self.x, self.y, self.z):
            if comp.degree != self.degree:
                raise ValueError("all components must share the declared degree")

    @classmethod
    def zero(cls, degree: int) -> "PolynomialVectorField":
        z = HomogeneousPolynomial.zero(degree)
        return cls(degree, z, z, z)

    @property
    def components(self) -> tuple[HomogeneousPolynomial, ...]:
        return (self.x, self.y, self.z)

    def component(self, axis: str) -> HomogeneousPolynomial:
        return {"x": self.x, "y": self.y, "z": self.z}[axis]

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero() and self.z.is_zero()

    def __add__(self, other: "PolynomialVectorField") -> "PolynomialVectorField":
        return PolynomialVectorField(
            self.degree, self.x + other.x, self.y + other.y, self.z + other.z
        )

    def __sub__(self, other: "PolynomialVectorField") -> "PolynomialVectorField":
        return PolynomialVectorField(
            self.degree, self.x - other.x, self.y - other.y, self.z - other.z
        )

    def __neg__(self) -> "PolynomialVectorField":
        return PolynomialVectorField(self.degree, -self.x, -self.y, -self.z)

    def __mul__(self, scalar) -> "PolynomialVectorField":
        return PolynomialVectorField(
            self.degree, self.x * scalar, self.y * scalar, self.z * scalar
        )

    __rmul__ = __mul__

    def evaluate(self, point: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x.evaluate(point), self.y.evaluate(point), self.z.evaluate(point))

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z})"


def partial(g: HomogeneousPolynomial, axis: str) -> HomogeneousPolynomial:
    """Partial derivative along one axis; degree drops by 1 (0 stays 0)."""
    idx = AXES.index(axis)
    out: dict[Monomial, Fraction] = {}
    for m, c in g.coeffs.items():
        k = m[idx]
        if k == 0:
            continue
        shifted = list(m)
        shifted[idx] = k - 1
        out[tuple(shifted)] = c * k
    return HomogeneousPolynomial(max(g.degree - 1, 0), out)


def grad(g: HomogeneousPolynomial) -> PolynomialVectorField:
    return PolynomialVectorField(
        max(g.degree - 1, 0), partial(g, "x"), partial(g, "y"), partial(g, "z")
    )


def curl(v: PolynomialVectorField) -> PolynomialVectorField:
    return PolynomialVectorField(
        max(v.degree - 1, 0),
        partial(v.z, "y") - partial(v.y, "z"),
        partial(v.x, "z") - partial(v.z, "x"),
        partial(v.y, "x") - partial(v.x, "y"),
    )


def div(v: PolynomialVectorField) -> HomogeneousPolynomial:
    return partial(v.x, "x") + partial(v.y, "y") + partial(v.z, "z")


def laplacian(g: HomogeneousPolynomial) -> HomogeneousPolynomial:
    return div(grad(g))


def dot(u: PolynomialVectorField, v: PolynomialVectorField) -> HomogeneousPolynomial:
    return u.x * v.x + u.y * v.y + u.z * v.z


def scale_mul(g: HomogeneousPolynomial, v: PolynomialVectorField) -> PolynomialVectorField:
    """Componentwise product g*v of a scalar polynomial and a field."""
    return PolynomialVectorField(g.degree + v.degree, g * v.x, g * v.y, g * v.z)


def jet_residuals_vanish(
    factor: dict[int, HomogeneousPolynomial], jet: dict[int, PolynomialVectorField]
) -> bool:
    """Whether the jet X_lo .. X_hi (consecutive degrees, zero below lo)
    satisfies every equation it fixes for f = sum of factor[j] (f0 at j = 0).

    The residuals of the equations `_assembly.graded_system` builds rows
    for are computed with the operators above and full gradients.
    """
    lo, hi = min(jet), max(jet)
    for m in range(lo, hi + 1):
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
        for t in range(lo + jmin - 1, hi + jmin):
            total = HomogeneousPolynomial.zero(t)
            for j, gradient in gradients.items():
                if t + 1 - j in jet:
                    total = total + dot(gradient, jet[t + 1 - j])
            if not total.is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# Coefficient indexing: the unknowns of the graded linear systems.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientIndex:
    """One unknown coefficient: component, monomial, and which X_d it belongs to."""

    component: str
    monomial: Monomial
    term_degree: int

    def __post_init__(self):
        if self.component not in AXES:
            raise ValueError(f"bad component {self.component!r}")
        if monomial_degree(self.monomial) != self.term_degree:
            raise ValueError("monomial degree must equal term_degree")

    def __str__(self) -> str:
        return f"{self.component}{self.monomial}@{self.term_degree}"


def coefficient_indices(degree: int) -> list[CoefficientIndex]:
    """All 3*C(degree+2, 2) coefficient labels of a degree-d field.

    Ordered component-major (x, then y, then z), monomials descending lex.
    """
    monos = monomials_of_degree(degree)
    return [
        CoefficientIndex(component=axis, monomial=m, term_degree=degree)
        for axis in AXES
        for m in monos
    ]


def field_to_coefficients(v: PolynomialVectorField) -> dict[CoefficientIndex, Fraction]:
    out: dict[CoefficientIndex, Fraction] = {}
    for axis in AXES:
        for m, c in v.component(axis).coeffs.items():
            out[CoefficientIndex(axis, m, v.degree)] = c
    return out


def fields_from_vector(
    vector: Sequence[Fraction], col_labels: Sequence[CoefficientIndex]
) -> dict[int, PolynomialVectorField]:
    """Split a kernel vector into one field per term degree present."""
    degrees = sorted({idx.term_degree for idx in col_labels})
    comps = {d: {axis: {} for axis in AXES} for d in degrees}
    for idx, value in zip(col_labels, vector):
        if value != 0:
            comps[idx.term_degree][idx.component][idx.monomial] = value
    return {
        d: PolynomialVectorField(d, *(HomogeneousPolynomial(d, comps[d][axis]) for axis in AXES))
        for d in degrees
    }


def coefficient_vector(
    fields: dict[int, PolynomialVectorField], col_labels: Sequence[CoefficientIndex]
) -> list[Fraction]:
    """The column vector of one field per term degree: the inverse of
    `fields_from_vector`.  A coefficient with no column raises KeyError."""
    position = {label: pos for pos, label in enumerate(col_labels)}
    vector = [Fraction(0)] * len(col_labels)
    for field in fields.values():
        for label, c in field_to_coefficients(field).items():
            vector[position[label]] = c
    return vector


# ---------------------------------------------------------------------------
# JSON forms (the CLI's input/output contract).
# ---------------------------------------------------------------------------


def poly_to_json(g: HomogeneousPolynomial) -> dict:
    return {
        "degree": g.degree,
        "terms": [{"k": list(m), "c": format_rational(c)} for m, c in g.terms()],
    }


def _json_int(value) -> int:
    if type(value) is not int:  # bool is an int subclass; floats would truncate
        raise ValueError(f"expected a JSON integer, got {value!r}")
    return value


def poly_from_json(data: dict) -> HomogeneousPolynomial:
    degree = _json_int(data["degree"])
    coeffs: dict[Monomial, Fraction] = {}
    for term in data.get("terms", []):
        k = tuple(_json_int(e) for e in term["k"])
        if k in coeffs:
            raise ValueError(f"monomial {list(k)} repeated in terms")
        coeffs[k] = parse_rational(term["c"])
    return HomogeneousPolynomial(degree, coeffs)


def field_to_json(v: PolynomialVectorField) -> dict:
    return {
        "degree": v.degree,
        "x": poly_to_json(v.x),
        "y": poly_to_json(v.y),
        "z": poly_to_json(v.z),
    }


"""Exact power-series verification of the degenerate axisymmetric example.

The factor f = x^2 + y^2 has the whole z-axis as critical set yet admits a
nontrivial field.  In cylindrical coordinates with X^r = 0 and r-only
profiles u = X^phi, v = X^z, the equations curl(X) = f X, div(X) = 0 reduce
to the radial system

    -v'(r) = r^2 u(r),        u'(r) + u(r)/r = r^2 v(r),

whose unique regular solution with v(0) = 1 satisfies the recurrences
-(k+3) v_{k+3} = u_k and (k+4) u_{k+3} = v_k.  The closed form is a pair of
Bessel-J profiles in t = r^3/3; after the normalizing Gamma prefactors the
series is rational, because consecutive Bessel term ratios telescope to
rationals.  Both derivations are computed independently and compared, then
the Cartesian polynomial lift is checked against the 3D operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .linalg import coerce_rational
from .polynomials import (
    HomogeneousPolynomial,
    Monomial,
    PolynomialVectorField,
    curl,
    div,
    dot,
    grad,
    scale_mul,
)

NU_PLUS_TWO_THIRDS = "plus_two_thirds"
NU_MINUS_ONE_THIRD = "minus_one_third"


@dataclass(frozen=True)
class RadialSeries:
    """Truncated series sum(c_k * r^k), exact coefficients, 0 <= k <= order."""

    order: int
    coeffs: dict[int, Fraction]

    def __post_init__(self):
        clean = {}
        for k, c in self.coeffs.items():
            c = coerce_rational(c)
            if c == 0:
                continue
            if not 0 <= k <= self.order:
                raise ValueError(f"exponent {k} outside truncation order {self.order}")
            clean[k] = c
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def agrees_with(self, other: "RadialSeries", through: int) -> bool:
        return all(
            self.coefficient(k) == other.coefficient(k) for k in range(through + 1)
        )


def solve_cylindrical_recurrence(N: int) -> tuple[RadialSeries, RadialSeries]:
    """Unique regular solution (u, v) with v(0)=1, u(0)=0, through order N."""
    if N < 3:
        raise ValueError("order must be at least 3")
    u = {0: Fraction(0)}
    v = {0: Fraction(1)}
    for k in range(0, N - 2):
        v[k + 3] = -u.get(k, Fraction(0)) / (k + 3)
        u[k + 3] = v.get(k, Fraction(0)) / (k + 4)
    return (RadialSeries(N, u), RadialSeries(N, v))


def bessel_series_coefficients(nu_branch: str, N: int) -> RadialSeries:
    """Closed-form component expanded in r, with exact rational term ratios.

    Successive nonzero coefficients are related by the Bessel term ratio
    -(t/2)^2 / ((m+1)(m+1+nu)) at t = r^3/3, i.e. a factor
    -1 / (36 (m+1)(m+1+nu)) between r^(6m) and r^(6m+6) terms.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    if nu_branch == NU_MINUS_ONE_THIRD:
        nu = Fraction(-1, 3)
        start, coeff = 0, Fraction(1)
    elif nu_branch == NU_PLUS_TWO_THIRDS:
        nu = Fraction(2, 3)
        # Gamma(2/3)/Gamma(5/3) = 3/2, and the prefactor contributes 1/6.
        start, coeff = 3, Fraction(1, 4)
    else:
        raise ValueError(f"unknown branch {nu_branch!r}")
    coeffs: dict[int, Fraction] = {}
    k = start
    m = 0
    while k <= N:
        coeffs[k] = coeff
        coeff = coeff * Fraction(-1, 36) / ((m + 1) * (m + 1 + nu))
        k += 6
        m += 1
    return RadialSeries(N, coeffs)


@dataclass(frozen=True)
class CylindricalReport:
    order: int
    recurrence_ok: bool
    bessel_match_ok: bool
    cartesian_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.recurrence_ok and self.bessel_match_ok and self.cartesian_ok

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "recurrence_ok": self.recurrence_ok,
            "bessel_match_ok": self.bessel_match_ok,
            "cartesian_ok": self.cartesian_ok,
        }


def _radial_equations_hold(u: RadialSeries, v: RadialSeries, through: int) -> bool:
    """Residuals of the four cylindrical equations vanish through r^through.

    The angular/axial equations ((1/r) d_phi X^z - d_z X^phi = 0 and
    (1/r) d_phi X^phi + d_z X^z = 0) are identically zero for r-only
    profiles with X^r = 0, so the substantive residuals are the two radial
    ones: -v' - r^2 u and u' + u/r - r^2 v.
    """
    for e in range(through + 1):
        # coefficient of r^e in -v' - r^2 u
        if -(e + 1) * v.coefficient(e + 1) - u.coefficient(e - 2) != 0:
            return False
        # coefficient of r^e in u' + u/r - r^2 v
        if (e + 2) * u.coefficient(e + 1) - v.coefficient(e - 2) != 0:
            return False
    return True


def _radial_power_times(c: Fraction, n: int, m: Monomial) -> HomogeneousPolynomial:
    """c (x^2+y^2)^n x^a y^b z^e for m = (a, b, e), from the binomial form
    sum_j C(n, j) x^(2j) y^(2n-2j)."""
    a, b, e = m
    return HomogeneousPolynomial(
        2 * n + a + b + e,
        {(2 * j + a, 2 * (n - j) + b, e): c * comb(n, j) for j in range(n + 1)},
    )


def _lift_degree(u: RadialSeries, v: RadialSeries, k: int) -> PolynomialVectorField:
    """Degree-k component of X = (u/r)(-y, x, 0) + v (0, 0, 1), zero where u and v vanish.

    The supports must be the ones `_check_lift_support` accepts.
    """
    if k in u.coeffs:
        n, c = (k - 1) // 2, u.coeffs[k]
        return PolynomialVectorField(
            k,
            _radial_power_times(-c, n, (0, 1, 0)),
            _radial_power_times(c, n, (1, 0, 0)),
            HomogeneousPolynomial.zero(k),
        )
    if k in v.coeffs:
        z = HomogeneousPolynomial.zero(k)
        return PolynomialVectorField(k, z, z, _radial_power_times(v.coeffs[k], k // 2, (0, 0, 0)))
    return PolynomialVectorField.zero(k)


def _check_lift_support(u: RadialSeries, v: RadialSeries) -> None:
    for k in u.coeffs:
        if k % 6 != 3:
            raise ValueError("phi profile must be supported on exponents 3 mod 6")
    for k in v.coeffs:
        if k % 6 != 0:
            raise ValueError("z profile must be supported on exponents 0 mod 6")


def cartesian_lift(u: RadialSeries, v: RadialSeries, through: int) -> dict[int, PolynomialVectorField]:
    """Homogeneous components of X = (u/r)(-y, x, 0) + v (0, 0, 1).

    Requires u supported on exponents 3 mod 6 and v on 0 mod 6, which makes
    every component a polynomial in (x, y).  Nothing in the package calls it
    (`verify_beltrami_cylindrical` lifts one degree at a time); it stays
    because `bench/tracing.py` traces it as the `cylindrical.lift` layer.
    """
    _check_lift_support(u, v)
    return {k: _lift_degree(u, v, k) for k in (*u.coeffs, *v.coeffs) if k <= through}


def verify_beltrami_cylindrical(N: int) -> CylindricalReport:
    """Check recurrence = closed form and the Cartesian equations through N.

    Series data is computed through order N+3 so no residual zero is an
    artifact of truncation.
    """
    if N < 6:
        raise ValueError("order must be at least 6")
    pad = N + 3
    u, v = solve_cylindrical_recurrence(pad)
    recurrence_ok = _radial_equations_hold(u, v, N)

    bessel_phi = bessel_series_coefficients(NU_PLUS_TWO_THIRDS, pad)
    bessel_z = bessel_series_coefficients(NU_MINUS_ONE_THIRD, pad)
    bessel_match_ok = u.agrees_with(bessel_phi, pad) and v.agrees_with(bessel_z, pad)

    factor = HomogeneousPolynomial(2, {(2, 0, 0): 1, (0, 2, 0): 1})
    gradient = grad(factor)
    # the factor's differential vanishes on the whole z-axis
    axis_critical = all(
        m[0] + m[1] >= 1 for comp in gradient.components for m in comp.coeffs
    )
    _check_lift_support(u, v)
    # Degree t of curl(X) = f X pairs X_{t+1} with f2 * X_{t-2}.  The lift is
    # built one degree ahead and each component is dropped once no equation
    # refers to it, so the check holds four components, not N.
    lifted = {0: _lift_degree(u, v, 0)}
    cartesian_ok = axis_critical
    for t in range(N + 1):
        lifted[t + 1] = _lift_degree(u, v, t + 1)
        lifted.pop(t - 3, None)
        rhs = scale_mul(factor, lifted[t - 2]) if t >= 2 else PolynomialVectorField.zero(t)
        field = lifted[t]
        if not (
            (curl(lifted[t + 1]) - rhs).is_zero()
            and div(field).is_zero()
            and dot(gradient, field).is_zero()
        ):
            cartesian_ok = False
            break
    return CylindricalReport(
        order=N,
        recurrence_ok=recurrence_ok,
        bessel_match_ok=bessel_match_ok,
        cartesian_ok=cartesian_ok,
    )

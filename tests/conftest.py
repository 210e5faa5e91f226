"""Shared random generators for the test suite (seeded, exact rationals)."""

from __future__ import annotations

import random
from fractions import Fraction

from beltrami_jets import HomogeneousPolynomial, PolynomialVectorField, SigmaTriple
from beltrami_jets.golden import random_nonzero_rational
from beltrami_jets.polynomials import monomials_of_degree


def random_rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng: random.Random, degree: int, density: float = 0.4) -> HomogeneousPolynomial:
    coeffs = {
        m: random_rational(rng)
        for m in monomials_of_degree(degree)
        if rng.random() < density
    }
    return HomogeneousPolynomial(degree, coeffs)


def random_nonzero_poly(rng: random.Random, degree: int, density: float = 0.4) -> HomogeneousPolynomial:
    while True:
        p = random_poly(rng, degree, density)
        if not p.is_zero():
            return p


def random_field(rng: random.Random, degree: int, density: float = 0.4) -> PolynomialVectorField:
    return PolynomialVectorField(
        degree,
        random_poly(rng, degree, density),
        random_poly(rng, degree, density),
        random_poly(rng, degree, density),
    )


def random_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    return (random_rational(rng, 5), random_rational(rng, 5), random_rational(rng, 5))


def random_same_sign_sigma(rng: random.Random) -> SigmaTriple:
    sign = rng.choice([1, -1])
    return SigmaTriple(*(sign * random_nonzero_rational(rng) for _ in range(3)))


def random_mixed_sigma(rng: random.Random) -> SigmaTriple:
    while True:
        values = [rng.choice([1, -1]) * random_nonzero_rational(rng) for _ in range(3)]
        if not (all(v > 0 for v in values) or all(v < 0 for v in values)):
            return SigmaTriple(*values)

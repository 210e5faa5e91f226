"""Polynomial algebra and the differential operators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    PolynomialVectorField,
    SigmaTriple,
    curl,
    div,
    dot,
    grad,
    laplacian,
    scale_mul,
)
from beltrami_jets import golden
from beltrami_jets.harmonics import lifted_field, planar_harmonics
from beltrami_jets.linalg import coerce_rational
from beltrami_jets.polynomials import (
    coefficient_indices,
    coefficient_vector,
    field_to_json,
    fields_from_vector,
    monomials_of_degree,
    poly_from_json,
    poly_to_json,
)
from conftest import random_field, random_point, random_poly

P = HomogeneousPolynomial


def _field(degree, cx, cy, cz):
    return PolynomialVectorField(degree, P(degree, cx), P(degree, cy), P(degree, cz))


def test_monomial_enumeration_graded_lex():
    assert monomials_of_degree(2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert len(monomials_of_degree(5)) == 21


def test_grad_of_xyz():
    g = P(3, {(1, 1, 1): 1})
    assert grad(g) == _field(2, {(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1})


def test_grad_of_diagonal_quadric():
    s = SigmaTriple(1, 2, 3)
    assert grad(s.quadric()) == _field(1, {(1, 0, 0): 2}, {(0, 1, 0): 4}, {(0, 0, 1): 6})


def test_grad_of_lifted_cubic():
    # (x^3 - 3xy^2) z has gradient ((3x^2-3y^2) z, -6xyz, x^3 - 3xy^2)
    g = P(4, {(3, 0, 1): 1, (1, 2, 1): -3})
    assert grad(g) == _field(
        3,
        {(2, 0, 1): 3, (0, 2, 1): -3},
        {(1, 1, 1): -6},
        {(3, 0, 0): 1, (1, 2, 0): -3},
    )


def test_grad_of_constant_is_zero_field():
    g = P(0, {(0, 0, 0): 5})
    assert grad(g).is_zero()


def test_curl_of_gradients_vanishes():
    rng = random.Random(11)
    for _ in range(25):
        g = random_poly(rng, rng.randint(1, 8))
        assert curl(grad(g)).is_zero()


def test_curl_of_counterexample_second_term():
    x1, x2 = golden.counterexample_pair()
    assert curl(x2) == x1
    assert div(x2).is_zero()


def test_mistyped_basis_candidate_is_not_curl_free():
    v = _field(1, {(0, 0, 1): 1}, {}, {(0, 1, 0): 1})
    assert curl(v) == _field(0, {(0, 0, 0): 1}, {(0, 0, 0): 1}, {})


def test_div_of_curls_vanishes():
    rng = random.Random(13)
    for _ in range(25):
        w = random_field(rng, rng.randint(1, 8))
        assert div(curl(w)).is_zero()


def test_div_of_position_field():
    v = _field(1, {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
    assert div(v) == P(0, {(0, 0, 0): 3})


def test_laplacian_examples():
    assert laplacian(P(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -2})).is_zero()
    assert laplacian(P(2, {(2, 0, 0): 1})) == P(0, {(0, 0, 0): 2})
    for i in range(1, 11):
        assert laplacian(planar_harmonics(i).re_part).is_zero()
        assert laplacian(planar_harmonics(i).im_part).is_zero()


def test_div_grad_equals_laplacian():
    rng = random.Random(17)
    for _ in range(20):
        g = random_poly(rng, rng.randint(2, 8))
        assert div(grad(g)) == laplacian(g)


def test_dot_traceless_first_integral_instance():
    s = SigmaTriple(1, 2, -3)
    assert dot(grad(s.quadric()), grad(P(3, {(1, 1, 1): 1}))).is_zero()


def test_dot_counterexample_identity():
    f = golden.counterexample_factor().components
    x1, x2 = golden.counterexample_pair()
    assert (dot(grad(f[2]), x2) + dot(grad(f[3]), x1)).is_zero()


def test_dot_with_zero_field():
    rng = random.Random(19)
    v = random_field(rng, 4)
    assert dot(PolynomialVectorField.zero(4), v).is_zero()


def test_dot_symmetric_and_bilinear():
    rng = random.Random(23)
    for _ in range(10):
        u = random_field(rng, rng.randint(0, 5))
        v = random_field(rng, u.degree)
        w = random_field(rng, u.degree)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert dot(u, v) == dot(v, u)
        assert dot(u, v + w * c) == dot(u, v) + dot(u, w) * c


def test_scale_mul_identity_and_monomial():
    rng = random.Random(29)
    v = random_field(rng, 3)
    one = P(0, {(0, 0, 0): 1})
    assert scale_mul(one, v) == v
    g = P(2, {(2, 0, 0): 1, (0, 2, 0): 1})
    unit_z = _field(0, {}, {}, {(0, 0, 0): 1})
    assert scale_mul(g, unit_z) == _field(2, {}, {}, {(2, 0, 0): 1, (0, 2, 0): 1})


def test_scale_mul_quadric_times_lifted_cubic():
    # frozen hand expansion of (x^2 + y^2 - 3z^2) * grad((x^3-3xy^2) z)
    g = SigmaTriple(1, 1, -3).quadric()
    product = scale_mul(g, lifted_field(3, 1))
    assert product == _field(
        5,
        {(4, 0, 1): 3, (0, 4, 1): -3, (2, 0, 3): -9, (0, 2, 3): 9},
        {(3, 1, 1): -6, (1, 3, 1): -6, (1, 1, 3): 18},
        {(5, 0, 0): 1, (3, 2, 0): -2, (1, 4, 0): -3, (3, 0, 2): -3, (1, 2, 2): 9},
    )


def test_scale_mul_pointwise_oracle():
    rng = random.Random(31)
    for _ in range(15):
        g = random_poly(rng, rng.randint(0, 4))
        v = random_field(rng, rng.randint(0, 4))
        pt = random_point(rng)
        gv = scale_mul(g, v)
        gval = g.evaluate(pt)
        assert gv.evaluate(pt) == tuple(gval * c for c in v.evaluate(pt))


def test_leibniz_rule():
    rng = random.Random(37)
    for _ in range(15):
        g = random_poly(rng, rng.randint(1, 5))
        v = random_field(rng, rng.randint(1, 5))
        assert div(scale_mul(g, v)) == dot(grad(g), v) + g * div(v)


def test_no_zero_coefficients_stored():
    rng = random.Random(41)
    for _ in range(20):
        g = random_poly(rng, 3)
        h = random_poly(rng, 3)
        for result in (g + h, g - h, g * h, grad(g).x, curl(random_field(rng, 4)).y):
            assert all(c != 0 for c in result.coeffs.values())


def test_degree_tags_are_strict():
    with pytest.raises(ValueError):
        P(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        P(2, {(2, 0, 0): 1}) + P(3, {(3, 0, 0): 1})
    with pytest.raises(ValueError):
        PolynomialVectorField(2, P(2, {}), P(1, {}), P(2, {}))
    zero = P(5, {})
    assert zero.is_zero() and zero.degree == 5


def test_floats_rejected():
    with pytest.raises(TypeError):
        P(1, {(1, 0, 0): 0.5})
    for inexact in (True, 0.5, 2.0):
        with pytest.raises(TypeError):
            coerce_rational(inexact)
    half = Fraction(1, 2)
    assert coerce_rational(half) is half
    assert coerce_rational(" -3/6 ") == Fraction(-1, 2) and coerce_rational(7) == 7
    with pytest.raises(ValueError):
        coerce_rational("1e3")


def test_coefficient_vector_inverts_fields_from_vector():
    rng = random.Random(17)
    labels = coefficient_indices(1) + coefficient_indices(2)
    vector = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in labels]
    fields = fields_from_vector(vector, labels)
    assert coefficient_vector(fields, labels) == vector
    assert coefficient_vector({2: fields[2]}, labels) == [0] * 9 + vector[9:]
    with pytest.raises(KeyError):
        coefficient_vector({3: random_field(rng, 3, density=1.0)}, labels)


def test_coefficient_indices_count_and_order():
    labels = coefficient_indices(2)
    assert len(labels) == 18
    assert labels[0].component == "x" and labels[0].monomial == (2, 0, 0)
    assert labels[6].component == "y"
    assert all(l.term_degree == 2 for l in labels)


def test_json_round_trip():
    g = P(3, {(3, 0, 0): Fraction(1, 2), (1, 1, 1): -2})
    data = poly_to_json(g)
    assert data == {
        "degree": 3,
        "terms": [{"k": [3, 0, 0], "c": "1/2"}, {"k": [1, 1, 1], "c": "-2"}],
    }
    assert poly_from_json(data) == g
    rng = random.Random(43)
    v = random_field(rng, 4)
    data = field_to_json(v)
    assert PolynomialVectorField(data["degree"], *(poly_from_json(data[a]) for a in "xyz")) == v

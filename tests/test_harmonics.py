"""Planar harmonic pairs and lifted gradient fields."""

from __future__ import annotations

from fractions import Fraction

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    SigmaTriple,
    curl,
    div,
    dot,
    grad,
    laplacian,
)
from beltrami_jets.harmonics import lifted_field, planar_harmonics
from beltrami_jets.linalg import ConstraintMatrix, rank
from beltrami_jets.polynomials import coefficient_vector, monomials_of_degree
from beltrami_jets.single_degree import assemble_single

P = HomogeneousPolynomial


def test_low_degree_pairs():
    pair = planar_harmonics(1)
    assert pair.re_part == P(1, {(1, 0, 0): 1})
    assert pair.im_part == P(1, {(0, 1, 0): 1})
    pair = planar_harmonics(2)
    assert pair.re_part == P(2, {(2, 0, 0): 1, (0, 2, 0): -1})
    assert pair.im_part == P(2, {(1, 1, 0): 2})
    pair = planar_harmonics(3)
    assert pair.re_part == P(3, {(3, 0, 0): 1, (1, 2, 0): -3})
    assert pair.im_part == P(3, {(2, 1, 0): 3, (0, 3, 0): -1})


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        planar_harmonics(0)
    with pytest.raises(ValueError):
        lifted_field(0, 1)
    with pytest.raises(ValueError):
        lifted_field(3, 4)


def test_pairs_are_planar_and_harmonic():
    for i in range(1, 11):
        pair = planar_harmonics(i)
        for part in (pair.re_part, pair.im_part):
            assert all(m[2] == 0 for m in part.coeffs)
            assert laplacian(part).is_zero()


def test_planar_harmonic_space_has_dimension_two():
    # exact rank of the planar harmonicity system on degree-i polynomials
    for i in range(2, 9):
        cols = [m for m in monomials_of_degree(i) if m[2] == 0]
        pos = {m: k for k, m in enumerate(cols)}
        rows = []
        for mu in monomials_of_degree(i - 2):
            if mu[2] != 0:
                continue
            row = {
                pos[(mu[0] + 2, mu[1], 0)]: Fraction((mu[0] + 2) * (mu[0] + 1)),
                pos[(mu[0], mu[1] + 2, 0)]: Fraction((mu[1] + 2) * (mu[1] + 1)),
            }
            rows.append((("lap", mu), row))
        matrix = ConstraintMatrix.from_rows(cols, rows)
        assert rank(matrix) == len(cols) - 2


def test_lifted_cubic_explicit():
    assert lifted_field(3, 1).components == (
        P(3, {(2, 0, 1): 3, (0, 2, 1): -3}),
        P(3, {(1, 1, 1): -6}),
        P(3, {(3, 0, 0): 1, (1, 2, 0): -3}),
    )


def test_third_component_is_the_planar_harmonic():
    for i in range(1, 9):
        pair = planar_harmonics(i)
        assert lifted_field(i, 1).z == pair.re_part
        assert lifted_field(i, 2).z == pair.im_part


def test_lifted_fields_solve_the_resonant_equations():
    for i in range(3, 9):
        quadric = P(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -i})
        for which in (1, 2):
            field = lifted_field(i, which)
            assert curl(field).is_zero()
            assert div(field).is_zero()
            assert dot(grad(quadric), field).is_zero()


def test_lifted_fields_lie_in_single_system_kernels():
    # matrix route, independent of the operator route above
    for i in range(1, 11):
        system = assemble_single(i, SigmaTriple(1, 1, -i))
        for which in (1, 2):
            vec = coefficient_vector({i: lifted_field(i, which)}, system.col_labels)
            assert all(r == 0 for r in system.multiply(vec))

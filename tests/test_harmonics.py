"""Planar harmonic pairs and lifted gradient fields."""

from __future__ import annotations

from dataclasses import replace

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    SigmaTriple,
    curl,
    div,
    dot,
    golden,
    grad,
)
from beltrami_jets.harmonics import lifted_field, planar_harmonics
from beltrami_jets.polynomials import coefficient_vector
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
        assert golden.planar_harmonics_hold(i), i


def test_collapsed_pair_is_not_a_planar_basis(monkeypatch):
    # (Re, Re) is z-free and harmonic but spans one dimension, not two
    def collapsed(i):
        pair = planar_harmonics(i)
        return replace(pair, im_part=pair.re_part)

    monkeypatch.setattr(golden, "planar_harmonics", collapsed)
    assert not golden.planar_harmonics_hold(5)


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

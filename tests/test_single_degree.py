"""Spectrum classification and the single-degree obstruction systems."""

from __future__ import annotations

from fractions import Fraction

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    SigmaTriple,
    classify_spectrum,
    curl,
    div,
    dot,
    grad,
    kernel_single,
    resonance_search,
)
from beltrami_jets import golden
from beltrami_jets.harmonics import lifted_field
from beltrami_jets.linalg import kernel_dimension_dense
from beltrami_jets.polynomials import fields_from_vector
from beltrami_jets.single_degree import assemble_single

P = HomogeneousPolynomial


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_same_sign_triple():
    c = classify_spectrum(SigmaTriple(1, 2, 3))
    assert c.same_sign and not c.risky_degrees
    assert not (c.plus_minus_pair or c.trace_zero or c.resonant_pair_degree)
    c = classify_spectrum(SigmaTriple(-1, Fraction(-1, 3), -7))
    assert c.same_sign and not c.risky_degrees


def test_resonant_pair_triple():
    c = classify_spectrum(SigmaTriple(1, 1, -3))
    assert c.resonant_pair_degree == 3 and c.risky_degrees == {3}
    # repeated pair (-5, -5) with ratio 1/5: not an integer >= 3
    c = classify_spectrum(SigmaTriple(-5, 1, -5))
    assert c.resonant_pair_degree is None
    c = classify_spectrum(SigmaTriple(-1, 4, -1))
    assert c.resonant_pair_degree == 4 and c.risky_degrees == {4}


def test_trace_zero_with_resonant_shape_ratio_two():
    c = classify_spectrum(SigmaTriple(1, 1, -2))
    assert c.trace_zero and c.resonant_pair_degree is None
    assert c.risky_degrees == {2}


def test_plus_minus_pair():
    c = classify_spectrum(SigmaTriple(1, -1, 5))
    assert c.plus_minus_pair and c.risky_degrees == {1}


def test_overlapping_flags():
    c = classify_spectrum(SigmaTriple(1, -1, -3))
    assert c.plus_minus_pair and not c.trace_zero and c.resonant_pair_degree is None
    # (a, a, -a) carries +/- pairs but its repeated-pair ratio 1 is not >= 3
    c = classify_spectrum(SigmaTriple(1, 1, -1))
    assert c.plus_minus_pair and c.risky_degrees == {1}


def test_degenerate_sigma_rejected():
    with pytest.raises(ValueError):
        SigmaTriple(0, 1, 2)
    with pytest.raises(ValueError):
        SigmaTriple.parse("1,1")
    with pytest.raises(ValueError):
        SigmaTriple("1e3", "0.5", 1)
    with pytest.raises(TypeError):
        SigmaTriple(True, 1, 1)


def test_parse_rational_sigma():
    s = SigmaTriple.parse(" 1/2 , -3 , 7/5 ")
    assert s.as_tuple() == (Fraction(1, 2), Fraction(-3), Fraction(7, 5))


# ---------------------------------------------------------------------------
# golden rows (frozen by hand from the reference listings, in `golden`)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sigma",
    [SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9), SigmaTriple(1, 1, -1)],
)
def test_degree_one_system_matches_reference_rows(sigma):
    matrix = assemble_single(1, sigma)
    expected = golden.reference_rows_degree_one(sigma)
    for tag in ("curl", "div", "fi"):
        assert golden.rows_match(golden.rows_by_tag(matrix, tag), expected[tag])


@pytest.mark.parametrize(
    "sigma", [SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9)]
)
def test_degree_two_system_matches_reference_rows(sigma):
    matrix = assemble_single(2, sigma)
    expected = golden.reference_rows_degree_two(sigma)
    for tag in ("curl", "div"):
        assert golden.rows_match(golden.rows_by_tag(matrix, tag), expected[tag])
    # the reference listing displays eight of the ten first-integral rows
    fi_rows = golden.rows_by_tag(matrix, "fi")
    assert len(fi_rows) == 10
    assert golden.rows_contain(fi_rows, expected["fi_listed"])


def test_degree_zero_system_forces_constant_field_to_vanish():
    basis = kernel_single(0, SigmaTriple(1, 2, 3))
    assert basis.dimension == 0
    matrix = assemble_single(0, SigmaTriple(1, 2, 3))
    assert matrix.rows == 3 and matrix.cols == 3


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_resonant_kernel_is_the_lifted_pair():
    basis = kernel_single(5, SigmaTriple(1, 1, -5))
    assert basis.dimension == 2
    pair = [lifted_field(5, 1), lifted_field(5, 2)]
    assert golden.span_equals(basis.vectors, basis.col_labels, pair)


def test_span_equals_rejects_a_repeated_field():
    basis = kernel_single(5, SigmaTriple(1, 1, -5))
    field = lifted_field(5, 1)
    assert not golden.span_equals(basis.vectors, basis.col_labels, [field, field])


def test_degree_one_pair_kernel():
    basis = kernel_single(1, SigmaTriple(1, -1, 5))
    assert basis.dimension == 1
    swap = HomogeneousPolynomial(2, {(1, 1, 0): 1})  # grad(xy) = (y, x, 0)
    assert golden.span_equals(basis.vectors, basis.col_labels, [grad(swap)])


def test_degree_two_traceless_kernel():
    basis = kernel_single(2, SigmaTriple(1, 2, -3))
    assert basis.dimension == 1
    assert golden.span_equals(basis.vectors, basis.col_labels, [grad(P(3, {(1, 1, 1): 1}))])


def test_degree_two_double_resonance_kernel():
    basis = kernel_single(2, SigmaTriple(1, 1, -2))
    assert basis.dimension == 2
    fields = [grad(P(3, {(1, 1, 1): 1})), grad(P(3, {(2, 0, 1): 1, (0, 2, 1): -1}))]
    assert golden.span_equals(basis.vectors, basis.col_labels, fields)


def test_off_resonance_degree_is_trivial():
    assert kernel_single(4, SigmaTriple(1, 1, -3)).dimension == 0


def test_kernel_dimensions_confirmed_by_dense_oracle():
    cases = [
        (1, SigmaTriple(1, -1, 5)),
        (2, SigmaTriple(1, 2, -3)),
        (2, SigmaTriple(1, 1, -2)),
        (4, SigmaTriple(1, 1, -3)),
        (5, SigmaTriple(1, 1, -5)),
    ]
    for i, sigma in cases:
        sparse_dim = kernel_single(i, sigma).dimension
        assert sparse_dim == kernel_dimension_dense(assemble_single(i, sigma))


def test_kernel_fields_satisfy_the_operators():
    sigma = SigmaTriple(1, 1, -4)
    basis = kernel_single(4, sigma)
    gradient = grad(sigma.quadric())
    assert basis.dimension == 2
    for vec in basis.vectors:
        field = fields_from_vector(vec, basis.col_labels)[4]
        assert curl(field).is_zero()
        assert div(field).is_zero()
        assert dot(gradient, field).is_zero()


def test_kernel_scaling_invariance():
    for scale in (Fraction(2), Fraction(-3, 5)):
        for i, sigma in ((1, SigmaTriple(1, -1, 5)), (3, SigmaTriple(1, 1, -3))):
            a = kernel_single(i, sigma)
            b = kernel_single(i, SigmaTriple(*(scale * s for s in sigma.as_tuple())))
            assert a.vectors == b.vectors


def test_kernel_permutation_equivariance():
    base = (1, 1, -3)
    for perm in ((0, 2, 1), (2, 0, 1), (1, 2, 0)):
        permuted = SigmaTriple(*(base[p] for p in perm))
        for i in range(1, 6):
            assert (
                kernel_single(i, permuted).dimension
                == kernel_single(i, SigmaTriple(*base)).dimension
            )


# ---------------------------------------------------------------------------
# resonance search
# ---------------------------------------------------------------------------


def test_resonance_search_includes_rational_relation():
    hits = resonance_search(SigmaTriple(1, Fraction(2, 3), 5), 10)
    assert (-2, 3, 0) in hits
    assert hits == sorted(hits)
    assert all(any(k != 0 for k in h) for h in hits)


def test_resonance_search_resonant_triple():
    hits = set(resonance_search(SigmaTriple(1, 1, -3), 3))
    assert {(1, 2, 1), (2, 1, 1), (3, 0, 1), (0, 3, 1)} <= hits


def test_resonance_search_relation_free_triple():
    assert resonance_search(SigmaTriple(1, Fraction(7, 5), Fraction(-22, 7)), 4) == []


def test_resonance_search_bound_validation():
    with pytest.raises(ValueError):
        resonance_search(SigmaTriple(1, 1, -3), 0)

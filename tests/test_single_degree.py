"""Spectrum classification and the single-degree obstruction systems."""

from __future__ import annotations

import random
from collections import Counter
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
from beltrami_jets.harmonics import lifted_field
from beltrami_jets.linalg import kernel_dimension_dense, rank_of_vectors
from beltrami_jets.polynomials import (
    CoefficientIndex,
    field_to_coefficients,
    fields_from_vector,
)
from beltrami_jets.single_degree import assemble_single
from conftest import random_mixed_sigma, random_same_sign_sigma

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
# golden rows (frozen by hand from the reference listings)
# ---------------------------------------------------------------------------


def _rows_by_tag(matrix, prefix):
    rows = []
    for (tag, _), row in matrix.labeled_rows():
        if tag.startswith(prefix):
            rows.append(frozenset(row.items()))
    return Counter(rows)


def _expect(rows):
    return Counter(frozenset(row.items()) for row in rows)


def _x(m, d):
    return CoefficientIndex("x", m, d)


def _y(m, d):
    return CoefficientIndex("y", m, d)


def _z(m, d):
    return CoefficientIndex("z", m, d)


@pytest.mark.parametrize(
    "sigma",
    [SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9), SigmaTriple(1, 1, -1)],
)
def test_degree_one_system_matches_reference_rows(sigma):
    s1, s2, s3 = sigma.as_tuple()
    one = Fraction(1)
    matrix = assemble_single(1, sigma)
    curl_rows = [
        {_y((0, 0, 1), 1): -one, _z((0, 1, 0), 1): one},
        {_x((0, 0, 1), 1): one, _z((1, 0, 0), 1): -one},
        {_x((0, 1, 0), 1): -one, _y((1, 0, 0), 1): one},
    ]
    div_rows = [{_x((1, 0, 0), 1): one, _y((0, 1, 0), 1): one, _z((0, 0, 1), 1): one}]
    fi_rows = [
        {_x((0, 1, 0), 1): s1, _y((1, 0, 0), 1): s2},
        {_y((0, 0, 1), 1): s2, _z((0, 1, 0), 1): s3},
        {_x((0, 0, 1), 1): s1, _z((1, 0, 0), 1): s3},
        {_z((0, 0, 1), 1): s3},
        {_y((0, 1, 0), 1): s2},
        {_x((1, 0, 0), 1): s1},
    ]
    assert _rows_by_tag(matrix, "curl") == _expect(curl_rows)
    assert _rows_by_tag(matrix, "div") == _expect(div_rows)
    assert _rows_by_tag(matrix, "fi") == _expect(fi_rows)


@pytest.mark.parametrize(
    "sigma", [SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9)]
)
def test_degree_two_system_matches_reference_rows(sigma):
    s1, s2, s3 = sigma.as_tuple()
    one = Fraction(1)
    two = Fraction(2)
    matrix = assemble_single(2, sigma)
    curl_rows = [
        {_z((0, 1, 1), 2): one, _y((0, 0, 2), 2): -two},
        {_z((0, 2, 0), 2): two, _y((0, 1, 1), 2): -one},
        {_z((1, 1, 0), 2): one, _y((1, 0, 1), 2): -one},
        {_x((0, 1, 1), 2): one, _z((1, 1, 0), 2): -one},
        {_x((1, 0, 1), 2): one, _z((2, 0, 0), 2): -two},
        {_y((1, 0, 1), 2): one, _x((0, 1, 1), 2): -one},
        {_y((2, 0, 0), 2): two, _x((1, 1, 0), 2): -one},
        {_x((0, 0, 2), 2): two, _z((1, 0, 1), 2): -one},
        {_y((1, 1, 0), 2): one, _x((0, 2, 0), 2): -two},
    ]
    div_rows = [
        {_x((1, 0, 1), 2): one, _y((0, 1, 1), 2): one, _z((0, 0, 2), 2): two},
        {_x((1, 1, 0), 2): one, _y((0, 2, 0), 2): two, _z((0, 1, 1), 2): one},
        {_x((2, 0, 0), 2): two, _y((1, 1, 0), 2): one, _z((1, 0, 1), 2): one},
    ]
    # the reference listing displays eight of the ten first-integral rows
    fi_listed = [
        {_x((0, 0, 2), 2): s1, _z((1, 0, 1), 2): s3},
        {_x((0, 2, 0), 2): s1, _y((1, 1, 0), 2): s2},
        {_x((0, 1, 1), 2): s1, _y((1, 0, 1), 2): s2, _z((1, 1, 0), 2): s3},
        {_x((1, 0, 1), 2): s1, _z((2, 0, 0), 2): s3},
        {_x((1, 1, 0), 2): s1, _y((2, 0, 0), 2): s2},
        {_z((0, 0, 2), 2): s3},
        {_y((0, 2, 0), 2): s2},
        {_x((2, 0, 0), 2): s1},
    ]
    assert _rows_by_tag(matrix, "curl") == _expect(curl_rows)
    assert _rows_by_tag(matrix, "div") == _expect(div_rows)
    fi_actual = _rows_by_tag(matrix, "fi")
    fi_expected = _expect(fi_listed)
    assert sum(fi_actual.values()) == 10
    assert all(fi_actual[key] >= n for key, n in fi_expected.items())


def test_degree_zero_system_forces_constant_field_to_vanish():
    basis = kernel_single(0, SigmaTriple(1, 2, 3))
    assert basis.dimension == 0
    matrix = assemble_single(0, SigmaTriple(1, 2, 3))
    assert matrix.rows == 3 and matrix.cols == 3


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _field_vector(field, labels):
    coeffs = field_to_coefficients(field)
    return [coeffs.get(l, Fraction(0)) for l in labels]


def _spans_same(basis, fields):
    stacked = [list(v) for v in basis.vectors]
    extra = [_field_vector(f, basis.col_labels) for f in fields]
    return (
        rank_of_vectors(stacked)
        == rank_of_vectors(stacked + extra)
        == len(fields)
    )


def test_resonant_kernel_is_the_lifted_pair():
    basis = kernel_single(5, SigmaTriple(1, 1, -5))
    assert basis.dimension == 2
    assert _spans_same(basis, [lifted_field(5, 1), lifted_field(5, 2)])


def test_degree_one_pair_kernel():
    basis = kernel_single(1, SigmaTriple(1, -1, 5))
    assert basis.dimension == 1
    swap = HomogeneousPolynomial(2, {(1, 1, 0): 1})  # grad(xy) = (y, x, 0)
    assert _spans_same(basis, [grad(swap)])


def test_degree_two_traceless_kernel():
    basis = kernel_single(2, SigmaTriple(1, 2, -3))
    assert basis.dimension == 1
    assert _spans_same(basis, [grad(P(3, {(1, 1, 1): 1}))])


def test_degree_two_double_resonance_kernel():
    basis = kernel_single(2, SigmaTriple(1, 1, -2))
    assert basis.dimension == 2
    fields = [grad(P(3, {(1, 1, 1): 1})), grad(P(3, {(2, 0, 1): 1, (0, 2, 1): -1}))]
    assert _spans_same(basis, fields)


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


def test_same_sign_kernels_trivial_sampled():
    rng = random.Random(211)
    for _ in range(20):
        sigma = random_same_sign_sigma(rng)
        for i in range(1, 7):
            assert kernel_single(i, sigma).dimension == 0


def test_mixed_unflagged_kernels_trivial_sampled():
    rng = random.Random(223)
    found = 0
    while found < 20:
        sigma = random_mixed_sigma(rng)
        if classify_spectrum(sigma).risky_degrees:
            continue
        for i in range(1, 7):
            assert kernel_single(i, sigma).dimension == 0
        found += 1


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

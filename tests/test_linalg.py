"""Exact linear algebra: rank, kernels, cross-oracle agreement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from beltrami_jets import golden, linalg
from beltrami_jets.cascade import assemble_window
from beltrami_jets.linalg import (
    PRIME,
    ConstraintMatrix,
    format_rational,
    is_consistent,
    kernel_basis,
    kernel_basis_dense,
    kernel_dimension_dense,
    parse_rational,
    rank,
    rank_dense,
    rank_of_vectors,
)
from beltrami_jets.single_degree import SigmaTriple, assemble_single


def _matrix(rows, cols, data):
    """Matrix from {(row, col): value}; values become Fractions, zeros drop."""
    row_entries = [{} for _ in range(rows)]
    for (r, c), v in data.items():
        if v != 0:
            row_entries[r][c] = Fraction(v)
    return ConstraintMatrix(
        col_labels=tuple(range(cols)),
        row_labels=tuple(range(rows)),
        row_entries=tuple(row_entries),
    )


def _random_matrix(rng, rows, cols, density=0.35):
    data = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if v:
                    data[(r, c)] = v
    return _matrix(rows, cols, data)


def test_rank_zero_matrix():
    assert rank(_matrix(3, 3, {})) == 0


def test_rank_identity():
    m = _matrix(3, 3, {(i, i): 1 for i in range(3)})
    assert rank(m) == 3
    assert kernel_basis(m).dimension == 0


def test_kernel_of_difference_row():
    m = _matrix(1, 2, {(0, 0): 1, (0, 1): -1})
    basis = kernel_basis(m)
    assert basis.vectors == ((Fraction(1), Fraction(1)),)


def test_degree_one_curl_block_has_rank_three():
    # hand row-reduction: the three coefficient equations of a curl-free
    # linear field are independent; columns a(100..001), b(...), c(...)
    a, b, c = 0, 3, 6
    rows = {
        (0, b + 2): -1, (0, c + 1): 1,   # -b(001) + c(010)
        (1, a + 2): 1, (1, c + 0): -1,   # a(001) - c(100)
        (2, a + 1): -1, (2, b + 0): 1,   # -a(010) + b(100)
    }
    assert rank(_matrix(3, 9, rows)) == 3


def test_stacked_degree_one_system_kernel_dimension():
    # full degree-1 system at sigma = (1,1,-1), written out by hand:
    # curl rows, div row, and the six halved first-integral rows
    s1, s2, s3 = Fraction(1), Fraction(1), Fraction(-1)
    a, b, c = 0, 3, 6  # column offsets for components; order (100),(010),(001)
    rows = [
        {b + 2: -1, c + 1: 1},
        {a + 2: 1, c + 0: -1},
        {a + 1: -1, b + 0: 1},
        {a + 0: 1, b + 1: 1, c + 2: 1},
        {a + 1: s1, b + 0: s2},
        {b + 2: s2, c + 1: s3},
        {a + 2: s1, c + 0: s3},
        {c + 2: s3},
        {b + 1: s2},
        {a + 0: s1},
    ]
    data = {(r, col): v for r, row in enumerate(rows) for col, v in row.items()}
    m = _matrix(10, 9, data)
    basis = kernel_basis(m)
    assert basis.dimension == 2
    # kernel is span{(z,0,x), (0,z,y)}: columns a(001)=2, c(100)=6 / b(001)=5, c(010)=7
    expected = [
        [0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 1, 0],
    ]
    stacked = [list(v) for v in basis.vectors]
    assert rank_of_vectors(stacked + expected) == 2


def test_rank_nullity_and_cross_oracle_on_random_matrices():
    rng = random.Random(101)
    matrices = [
        _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(60)
    ]
    # rows the modular pass misses join the exact elimination: the rank drops
    # mod PRIME, a denominator is divisible by PRIME, and (1, 0, 0, 0) alone
    # is chosen mod PRIME, so the row set grows twice, to kernel dim 1
    matrices.append(_matrix(2, 2, {(0, 0): 1, (1, 1): PRIME}))
    matrices.append(_matrix(1, 2, {(0, 0): Fraction(1, PRIME), (0, 1): 1}))
    matrices.append(_matrix(3, 4, {(0, 0): 1, (1, 1): PRIME, (2, 2): PRIME}))
    for m in matrices:
        ncols = m.cols
        r = rank(m)
        assert r == rank_dense(m)
        basis = kernel_basis(m)
        assert r + basis.dimension == ncols
        assert basis.dimension == kernel_dimension_dense(m)
        for vec in basis.vectors:
            assert all(v == 0 for v in m.multiply(vec))
        if basis.dimension:
            assert rank_of_vectors([list(v) for v in basis.vectors]) == basis.dimension
        # both kernels span the same space
        dense = kernel_basis_dense(m)
        both = [list(v) for v in basis.vectors] + [list(v) for v in dense]
        assert rank_of_vectors(both) == basis.dimension
        # and both give the same canonical basis
        assert basis.vectors == tuple(dense)


def test_grown_row_set_alone_reaches_the_exact_kernel(monkeypatch):
    # with no rows chosen mod PRIME, re-multiplication picks every row the
    # exact elimination needs, one per round
    systems = [
        assemble_single(i, SigmaTriple(*sigma))
        for sigma in ((1, -1, 5), (1, 1, -2), (5, 7, 11))
        for i in (1, 2, 3)
    ]
    systems.append(assemble_window(golden.counterexample_factor(), 1, 1).matrix)
    monkeypatch.setattr(linalg, "_independent_rows_mod_p", lambda rows, cols: [])
    for m in systems:
        assert kernel_basis(m).vectors == tuple(kernel_basis_dense(m))


def test_kernel_vectors_normalized_to_leading_one():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(2, 7))
        for vec in kernel_basis(m).vectors:
            lead = next(v for v in vec if v != 0)
            assert lead == 1


def test_empty_matrix_kernel_is_full_space():
    m = _matrix(0, 4, {})
    basis = kernel_basis(m)
    assert basis.dimension == 4
    assert rank(m) == 0


def test_consistency_by_rank_comparison():
    m = _matrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 2})
    assert is_consistent(m, [Fraction(1), Fraction(2)])
    assert not is_consistent(m, [Fraction(1), Fraction(3)])
    # zero-column system: consistent iff rhs vanishes
    m0 = _matrix(2, 0, {})
    assert is_consistent(m0, [Fraction(0), Fraction(0)])
    assert not is_consistent(m0, [Fraction(0), Fraction(1)])


def _sparse_value(rng):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def test_clearing_path_agrees_with_dense_oracle():
    # is_consistent and rank_of_vectors against rank_dense on sparse matrices
    # with all-zero rows and columns and zero rhs; rhs and vectors mix int
    # and Fraction values
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(120):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 6)
        zero_rows = {r for r in range(nrows) if rng.random() < 0.25}
        zero_cols = {c for c in range(ncols) if rng.random() < 0.25}
        data = {}
        for r in range(nrows):
            for c in range(ncols):
                if r not in zero_rows and c not in zero_cols and rng.random() < 0.4:
                    v = _sparse_value(rng)
                    if v:
                        data[(r, c)] = v
        m = _matrix(nrows, ncols, data)
        if rng.random() < 0.2:
            rhs = [0] * nrows
        else:
            rhs = [_sparse_value(rng) if rng.random() < 0.5 else 0 for _ in range(nrows)]
        augmented = _matrix(
            nrows, ncols + 1, {**data, **{(r, ncols): b for r, b in enumerate(rhs)}}
        )
        consistent = is_consistent(m, rhs)
        assert consistent == (rank_dense(augmented) == rank_dense(m))
        verdicts.add(consistent)
        vectors = [[data.get((r, c), 0) for c in range(ncols)] for r in range(nrows)]
        assert rank_of_vectors(vectors) == rank_dense(m)
    assert verdicts == {True, False}


def test_labels_must_match_dimensions():
    # one column "a" and one row label "r": two rows, a zero entry, an int
    # or float entry, and a column past either end are all rejected
    for row_entries in (
        ({}, {}),
        ({0: Fraction(0)},),
        ({0: 1},),
        ({0: 0.5},),
        ({1: Fraction(1)},),
        ({-1: Fraction(1)},),
    ):
        with pytest.raises(ValueError):
            ConstraintMatrix(col_labels=("a",), row_labels=("r",), row_entries=row_entries)
    ConstraintMatrix(col_labels=("a",), row_labels=("r",), row_entries=({0: Fraction(1)},))


def test_rational_round_trip():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational("-8") == Fraction(-8)
    # only ASCII p or p/q: no decimals, exponents, underscores or U+0663
    for text in ("1/0", "three", "1e3", "0.5", "1_000", "\u0663", "1e2000000", "1/-2", ""):
        with pytest.raises(ValueError):
            parse_rational(text)

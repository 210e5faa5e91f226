"""Row-by-row operator oracle for the assembled graded systems.

For each column c, column c of M must hold, keyed by row label, the
coefficients of the residuals of the row equations on the jet of the unit
vector e_c, computed with the `polynomials` operators; and every nonzero
residual coefficient must have a row.  Both sides are linear in the jet, so
agreement on every e_c proves M equal to the residual map.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    SigmaTriple,
    TruncatedFactor,
    assemble_window,
    curl,
    div,
    dot,
    grad,
    golden,
    scale_mul,
)
from beltrami_jets.polynomials import AXES, fields_from_vector
from beltrami_jets.single_degree import assemble_single
from conftest import random_nonzero_poly


def _factor(f: TruncatedFactor) -> dict[int, HomogeneousPolynomial]:
    factor = dict(f.components)
    if f.constant:
        factor[0] = HomogeneousPolynomial(0, {(0, 0, 0): f.constant})
    return factor


def _residuals(factor, jet) -> dict[tuple[str, tuple[int, int, int]], Fraction]:
    """{(row tag, monomial): coefficient} of every equation on X_lo .. X_hi."""
    lo, hi = min(jet), max(jet)
    out = {}
    for m in range(lo, hi + 1):
        residual = curl(jet[m])
        for j, poly in factor.items():
            if m - 1 - j in jet:
                residual = residual - scale_mul(poly, jet[m - 1 - j])
        for axis in AXES:
            for mu, c in residual.component(axis).coeffs.items():
                out[f"curl_{axis}@{m}", mu] = c
        for mu, c in div(jet[m]).coeffs.items():
            out[f"div@{m}", mu] = c
    jmin = min(j for j in factor if j)
    for t in range(lo + jmin - 1, hi + jmin):
        total = HomogeneousPolynomial.zero(t)
        for j, poly in factor.items():
            if j and t + 1 - j in jet:
                total = total + dot(grad(poly), jet[t + 1 - j])
        for mu, c in total.coeffs.items():
            out[f"fi@{t}", mu] = c / 2
    return out


def _dense_factor() -> TruncatedFactor:
    rng = random.Random(3)
    extra = {d: random_nonzero_poly(rng, d, density=1.0) for d in (3, 4, 5)}
    return TruncatedFactor.diagonal(Fraction(3, 7), SigmaTriple(1, 1, -3), extra)


CASES = {
    "dense f3..f5, f0=3/7, i=3, d=3": lambda: (_dense_factor(), 3, 3),
    "counterexample i=1, d=1": lambda: (golden.counterexample_factor(), 1, 1),
    "counterexample i=1, d=3": lambda: (golden.counterexample_factor(), 1, 3),
    "counterexample eps=1/10": lambda: (
        golden.counterexample_factor().with_cubic_scaled(Fraction(1, 10)), 1, 1
    ),
    "single degree i=3": lambda: (TruncatedFactor.diagonal(0, SigmaTriple(1, 2, -3)), 3, 0),
    "counterexample i=1, d=0": lambda: (golden.counterexample_factor(), 1, 0),
    "counterexample i=1, d=2": lambda: (golden.counterexample_factor(), 1, 2),
    "resonant f0=0, i=4, d=2": lambda: (TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -4)), 4, 2),
    "resonant f0=1, i=3, d=1": lambda: (TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -3)), 3, 1),
}


@pytest.mark.parametrize("case", CASES)
def test_rows_are_the_operator_residuals(case):
    f, i, d = CASES[case]()
    if d == 0:
        matrix = assemble_single(i, f.sigma())
    else:
        matrix = assemble_window(f, i, d).matrix
    cols = matrix.col_labels
    assert {label.term_degree for label in cols} == set(range(i, i + d + 1))
    rows = dict(matrix.labeled_rows())
    assert len(rows) == matrix.rows
    factor = _factor(f)
    for c, col in enumerate(cols):
        unit = [0] * len(cols)
        unit[c] = 1
        column = {label: row[col] for label, row in rows.items() if col in row}
        assert column == _residuals(factor, fields_from_vector(unit, cols)), col


@pytest.mark.parametrize("case", CASES)
def test_window_is_block_lower_triangular(case):
    """The rows whose highest block is X_m, cut to X_m, are the rows of the
    single-degree system at m: same labels, same entries."""
    f, i, d = CASES[case]()
    top_rows = {m: {} for m in range(i, i + d + 1)}
    for label, row in assemble_window(f, i, d).matrix.labeled_rows():
        m = max(col.term_degree for col in row)
        top_rows[m][label] = {col: v for col, v in row.items() if col.term_degree == m}
    for m, cut in top_rows.items():
        assert cut == dict(assemble_single(m, f.sigma()).labeled_rows()), m

"""Row-by-row operator oracle for the assembled graded systems.

For a random coefficient vector v, each entry (M v)[row] must be the
coefficient of the row's monomial in the residual of the row's equation,
computed on the fields of v with the `polynomials` operators; and every
nonzero residual coefficient must have a row.  A row with a wrong, missing
or extra coupling changes (M v) for almost every v.
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
from conftest import random_nonzero_poly, random_rational


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
}


@pytest.mark.parametrize("case", CASES)
def test_rows_are_the_operator_residuals(case):
    f, i, d = CASES[case]()
    if d == 0:
        matrix = assemble_single(i, f.sigma())
    else:
        matrix = assemble_window(f, i, d).matrix
    rng = random.Random(case)
    vector = [random_rational(rng) for _ in range(matrix.cols)]
    jet = fields_from_vector(vector, matrix.col_labels)
    assert sorted(jet) == list(range(i, i + d + 1))
    expected = _residuals(_factor(f), jet)
    product = dict(zip(matrix.row_labels, matrix.multiply(vector)))
    assert len(product) == matrix.rows
    for label, value in product.items():
        assert value == expected.get(label, 0), label
    assert set(expected) <= set(product)

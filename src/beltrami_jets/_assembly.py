"""Row builders for the degree-graded coefficient-matching systems.

Rows are produced directly from exponent arithmetic (derivative shifts and
convolution with known factor polynomials), independently of the operator
implementations in `polynomials`; kernel vectors are later re-verified with
those operators, so the two derivations cross-check each other.

Every builder finds its columns in one index {(axis, monomial): position}
made by `graded_system`: a monomial's degree already names its block X_d.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import ConstraintMatrix
from .polynomials import (
    AXES,
    HomogeneousPolynomial,
    Monomial,
    coefficient_indices,
    monomials_of_degree,
)

RowLabel = tuple[str, Monomial]
Row = tuple[RowLabel, dict[int, Fraction]]
ColumnIndex = dict[tuple[str, Monomial], int]

_UNITS: tuple[Monomial, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _sub(m: Monomial, n: Monomial) -> Monomial | None:
    out = (m[0] - n[0], m[1] - n[1], m[2] - n[2])
    return out if min(out) >= 0 else None


def _add_entry(row: dict[int, Fraction], pos: int, value) -> None:
    new = row.get(pos, 0) + value
    if new == 0:
        row.pop(pos, None)
    else:
        row[pos] = new


def _coupling_entries(
    row: dict[int, Fraction],
    index: ColumnIndex,
    mu: Monomial,
    coeffs: dict[Monomial, Fraction],
    axis: str,
) -> None:
    """Entries of coefficient(mu) in g * X^axis, g given by its coeffs."""
    for nu, c in coeffs.items():
        target = _sub(mu, nu)
        if target is not None:
            _add_entry(row, index[axis, target], c)


def curl_rows(
    m_degree: int, couplings: Sequence[HomogeneousPolynomial], index: ColumnIndex
) -> list[Row]:
    """Rows of curl(X_m) - sum(f_j * X_{m-1-j}) = 0, matched at degree m-1.

    Emitted in component order (curl_x, curl_y, curl_z), monomials in
    descending lex within each component.
    """
    if m_degree < 1:
        return []
    monos = monomials_of_degree(m_degree - 1)
    negated = [{nu: -c for nu, c in poly.coeffs.items()} for poly in couplings]
    # curl components as (positive axis, shift axis index, negative axis, shift axis index)
    parts = (
        ("curl_x", "z", 1, "y", 2),
        ("curl_y", "x", 2, "z", 0),
        ("curl_z", "y", 0, "x", 1),
    )
    rows: list[Row] = []
    for tag, plus_axis, plus_idx, minus_axis, minus_idx in parts:
        comp = tag[-1]
        for mu in monos:
            row: dict[int, Fraction] = {}
            up = list(mu)
            up[plus_idx] += 1
            _add_entry(row, index[plus_axis, tuple(up)], Fraction(mu[plus_idx] + 1))
            up = list(mu)
            up[minus_idx] += 1
            _add_entry(row, index[minus_axis, tuple(up)], Fraction(-(mu[minus_idx] + 1)))
            for coeffs in negated:
                _coupling_entries(row, index, mu, coeffs, comp)
            if row:
                rows.append(((f"{tag}@{m_degree}", mu), row))
    return rows


def div_rows(m_degree: int, index: ColumnIndex) -> list[Row]:
    """Rows of div(X_m) = 0, matched at degree m-1."""
    if m_degree < 1:
        return []
    rows: list[Row] = []
    for mu in monomials_of_degree(m_degree - 1):
        row: dict[int, Fraction] = {}
        for idx, axis in enumerate(AXES):
            up = list(mu)
            up[idx] += 1
            _add_entry(row, index[axis, tuple(up)], Fraction(mu[idx] + 1))
        if row:
            rows.append(((f"div@{m_degree}", mu), row))
    return rows


def first_integral_rows(
    t_degree: int, couplings: Sequence[HomogeneousPolynomial], index: ColumnIndex
) -> list[Row]:
    """Rows of sum(<grad(f_j)/2, X_{t+1-j}>) = 0 matched at degree t.

    The halved gradient is taken by exponent arithmetic, so the stored rows
    carry sigma-coefficients rather than 2*sigma.
    """
    halved = [
        (axis, {
            _sub(nu, unit): c * nu[k] / 2 for nu, c in poly.coeffs.items() if nu[k]
        })
        for poly in couplings
        for k, (axis, unit) in enumerate(zip(AXES, _UNITS))
    ]
    rows: list[Row] = []
    for mu in monomials_of_degree(t_degree):
        row: dict[int, Fraction] = {}
        for axis, coeffs in halved:
            _coupling_entries(row, index, mu, coeffs, axis)
        if row:
            rows.append(((f"fi@{t_degree}", mu), row))
    return rows


def graded_system(
    constant: Fraction, components: dict[int, HomogeneousPolynomial], lo: int, hi: int
) -> ConstraintMatrix:
    """The degree-matched system of f = constant + sum(components) on X_lo .. X_hi.

    The one inclusion rule for windows and single-degree systems (lo = hi):
    with X_m = 0 below lo, an equation enters only if every unknown it
    references lies in [lo, hi]:

        curl(X_m) = sum_j f_j X_{m-1-j}     for m in [lo, hi]
        div(X_m)  = 0                       for m in [lo, hi]
        sum_j <grad f_j, X_{t+1-j}> = 0     for t in [lo+jmin-1, hi+jmin-1]

    with jmin the lowest nonconstant component degree; terms below lo drop.
    """
    factor = sorted(components.items())
    if constant != 0:
        factor.insert(0, (0, HomogeneousPolynomial(0, {(0, 0, 0): constant})))
    labels = [label for d in range(lo, hi + 1) for label in coefficient_indices(d)]
    index = {(label.component, label.monomial): pos for pos, label in enumerate(labels)}
    rows: list[Row] = []
    for m in range(lo, hi + 1):
        rows.extend(curl_rows(m, [g for j, g in factor if m - 1 - j >= lo], index))
        rows.extend(div_rows(m, index))
    if components:
        jmin = min(components)
        for t in range(lo + jmin - 1, hi + jmin):
            couplings = [g for j, g in factor if j and lo <= t + 1 - j <= hi]
            rows.extend(first_integral_rows(t, couplings, index))
    return ConstraintMatrix.from_rows(labels, rows)

"""Exact rational linear algebra on sparse labeled constraint matrices.

Everything here is computed over the rationals with no rounding: the
elimination core works fraction-free on integer rows (each row cleared of
denominators and kept primitive via gcd reduction), and results are exposed
as `fractions.Fraction` values.  Pivoting is deterministic: rows are
processed in order and each row pivots on its smallest remaining column
label, so ranks and kernel bases are reproducible across runs.  Kernels
start with the same elimination modulo a fixed prime, which bounds the rank
from below: it proves a trivial kernel outright and picks the rows the
exact elimination needs.  Every other kernel is re-multiplied against the
full matrix, and a row it misses joins the exact elimination.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Hashable, Iterable, Sequence

# The fixed prime of the modular pass in `kernel_basis`.
PRIME = 2**31 - 1


def coerce_rational(value) -> Fraction:
    """A Fraction as is, an int as a Fraction, a str by `parse_rational`;
    anything else (bool and float included) raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ASCII "p" or "p/q" (surrounding whitespace allowed), rejecting the
    decimals, exponents, underscores and non-ASCII digits `Fraction` takes."""
    if isinstance(text, str) and _RATIONAL.fullmatch(text.strip()):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ValueError(f"not a rational number: {text!r}")


@dataclass(frozen=True)
class ConstraintMatrix:
    """Sparse exact matrix with labeled rows and columns.

    Each row is a {column position: nonzero Fraction} dict, stored as built.
    Row labels identify (equation tag, monomial); column labels identify the
    unknown coefficient each column stands for.  The dimensions are the
    lengths of the label tuples.
    """

    col_labels: tuple[Hashable, ...]
    row_labels: tuple[Hashable, ...]
    row_entries: tuple[dict[int, Fraction], ...]

    def __post_init__(self):
        if len(self.row_entries) != len(self.row_labels):
            raise ValueError("one row label per row required")
        cols = len(self.col_labels)
        for r, row in enumerate(self.row_entries):
            for c, v in row.items():
                if not (isinstance(v, Fraction) and v != 0):
                    raise ValueError(f"entry at {(r, c)} is not a nonzero Fraction: {v!r}")
                if not 0 <= c < cols:
                    raise ValueError(f"entry position {(r, c)} out of range")

    @property
    def rows(self) -> int:
        return len(self.row_labels)

    @property
    def cols(self) -> int:
        return len(self.col_labels)

    @classmethod
    def from_rows(
        cls,
        col_labels: Sequence[Hashable],
        labeled_rows: Iterable[tuple[Hashable, dict[int, Fraction]]],
    ) -> "ConstraintMatrix":
        """Build from (row_label, {col_position: nonzero Fraction}) pairs."""
        labeled = list(labeled_rows)
        return cls(
            col_labels=tuple(col_labels),
            row_labels=tuple(label for label, _ in labeled),
            row_entries=tuple(row for _, row in labeled),
        )

    def row_dicts(self) -> tuple[dict[int, Fraction], ...]:
        """The stored rows, in order (not copies)."""
        return self.row_entries

    def labeled_rows(self) -> list[tuple[Hashable, dict[Hashable, Fraction]]]:
        """Rows with entries re-keyed by column label (for golden comparisons)."""
        return [
            (label, {self.col_labels[c]: v for c, v in row.items()})
            for label, row in zip(self.row_labels, self.row_entries)
        ]

    def multiply(self, vector: Sequence[Fraction]) -> list[Fraction]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return [
            sum((v * vector[c] for c, v in row.items()), Fraction(0))
            for row in self.row_entries
        ]


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the exact nullspace, column labels carried from the source.

    Each vector is normalized so its first nonzero entry (in column-label
    order) equals 1; vectors are indexed by the free column they activate,
    so they are linearly independent by construction.
    """

    vectors: tuple[tuple[Fraction, ...], ...]
    col_labels: tuple[Hashable, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _primitive(row: dict[int, int]) -> None:
    """Divide an integer row by the gcd of its entries, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _integer_rows(rational_rows: Iterable[dict[int, Fraction]]) -> list[dict[int, int]]:
    """Clear each nonempty row's denominators and make it primitive."""
    rows: list[dict[int, int]] = []
    for row in rational_rows:
        if not row:
            continue
        lcm = 1
        for v in row.values():
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
        irow = {c: int(v * lcm) for c, v in row.items()}
        _primitive(irow)
        rows.append(irow)
    return rows


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free forward elimination; returns {pivot_col: row}.

    Rows are consumed in order; each surviving row pivots on its smallest
    column, and every stored row's minimum key is its pivot column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for incoming in rows:
        row = dict(incoming)
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                _primitive(row)
                pivots[lead] = row
                break
            a = row[lead]
            b = pivot_row[lead]
            reduced = {c: b * v for c, v in row.items()}
            for c, pv in pivot_row.items():
                v = reduced.get(c, 0) - a * pv
                if v:
                    reduced[c] = v
                else:
                    reduced.pop(c, None)
            _primitive(reduced)
            row = reduced
    return pivots


def rank(m: ConstraintMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_echelon(_integer_rows(m.row_dicts())))


def rank_of_vectors(vectors: Iterable[Sequence[Fraction]]) -> int:
    """Rank of a list of dense rational vectors (stacked as rows)."""
    rows = ({c: v for c, v in enumerate(vec) if v != 0} for vec in vectors)
    return len(_echelon(_integer_rows(rows)))


def _independent_rows_mod_p(rows: Sequence[dict[int, Fraction]], cols: int) -> list[int]:
    """Indices of the rows that become pivots when the rows, reduced mod
    `PRIME`, are eliminated in order on their largest columns.  A row with a
    denominator divisible by `PRIME` is skipped.

    Rows independent mod `PRIME` are independent over Q, so the count is a
    lower bound on the rank.  Elimination stops once every column has a pivot.

    In the assembled systems a row's largest columns are its sparse
    derivative entries in its highest block, and its dense coupling entries
    sit in lower blocks, so the rows arrive nearly triangular and few updates
    are needed.  The pivot order changes no certificate: any rows independent
    mod p prove a trivial kernel, `kernel_basis` still eliminates the chosen
    rows exactly on their smallest columns, as `_echelon` does, and
    re-multiplication proves that kernel equal to the full one.
    """
    p = PRIME
    inverse: dict[int, int] = {}  # x -> x^-1 mod p, for denominators and pivot leads
    pivots: dict[int, dict[int, int]] = {}
    chosen: list[int] = []
    for index, row in enumerate(rows):
        residues: dict[int, int] = {}
        for c, v in row.items():
            d = v.denominator
            if d == 1:
                x = v.numerator % p
            else:
                inv = inverse.get(d)
                if inv is None:
                    if d % p == 0:  # no residue: skip the row
                        residues.clear()
                        break
                    inv = inverse[d] = pow(d, -1, p)
                x = v.numerator * inv % p
            if x:
                residues[c] = x
        while residues:
            lead = max(residues)
            pivot = pivots.get(lead)
            if pivot is None:
                x = residues[lead]
                inv = inverse.get(x)
                if inv is None:
                    inv = inverse[x] = pow(x, -1, p)
                pivots[lead] = {c: v * inv % p for c, v in residues.items()}
                chosen.append(index)
                break
            factor = residues[lead]
            for c, v in pivot.items():
                x = (residues.get(c, 0) - factor * v) % p
                if x:
                    residues[c] = x
                else:
                    del residues[c]
        if len(chosen) == cols:
            break
    return chosen


def _back_substitute(pivots: dict[int, dict[int, int]], cols: int) -> list[tuple[Fraction, ...]]:
    """One kernel vector per free column of an echelon form: 1 on that
    column, 0 on the other free columns, scaled to a leading 1."""
    vectors: list[tuple[Fraction, ...]] = []
    pivot_cols_desc = sorted(pivots, reverse=True)
    for f in (c for c in range(cols) if c not in pivots):
        values: dict[int, Fraction] = {f: Fraction(1)}
        for p in pivot_cols_desc:
            if p > f:
                continue
            row = pivots[p]
            acc = Fraction(0)
            for c, v in row.items():
                if c != p:
                    acc += v * values.get(c, Fraction(0))
            if acc:
                values[p] = -acc / row[p]
        vec = [values.get(c, Fraction(0)) for c in range(cols)]
        first = next(v for v in vec if v != 0)
        if first != 1:
            vec = [v / first for v in vec]
        vectors.append(tuple(vec))
    return vectors


def kernel_basis(m: ConstraintMatrix) -> KernelBasis:
    """Basis of {v : M v = 0}, dimension cols - rank, possibly empty.

    The vectors are canonical: one per free column of the echelon form, 1 on
    it and 0 on the other free columns, scaled to a leading 1.

    The rows that become pivots mod `PRIME` are chosen; they are independent
    over Q.  Then, in a loop:

    - as many chosen rows as columns prove rank cols, and the empty basis is
      returned with no exact elimination;
    - otherwise the chosen rows are eliminated exactly, and anything but one
      exact pivot per row raises `AssertionError`;
    - each kernel vector is re-multiplied against every row.  When all rows
      are annihilated, the kernel of the chosen rows is the kernel of M, and
      its canonical basis is returned.  Otherwise the first row a vector
      misses lies outside the span of the chosen rows: it is chosen too, the
      rank goes up by one, and so the loop ends within cols rounds.

    The pass mod p pivots on the largest column, which only chooses rows; the
    exact elimination pivots on the smallest column, which fixes the free
    columns and so the canonical basis.
    """
    rows = m.row_dicts()
    chosen = _independent_rows_mod_p(rows, m.cols)
    while len(chosen) < m.cols:
        pivots = _echelon(_integer_rows(rows[r] for r in chosen))
        if len(pivots) != len(chosen):
            raise AssertionError(
                f"rank mismatch: exact elimination found {len(pivots)} pivots on "
                f"{len(chosen)} independent rows"
            )
        vectors = _back_substitute(pivots, m.cols)
        missed = [r for vec in vectors for r, x in enumerate(m.multiply(vec)) if x]
        if not missed:
            return KernelBasis(vectors=tuple(vectors), col_labels=m.col_labels)
        chosen.append(min(missed))
    return KernelBasis(vectors=(), col_labels=m.col_labels)


def is_consistent(m: ConstraintMatrix, rhs: Sequence[Fraction]) -> bool:
    """Whether M x = rhs has a solution: whether the kernel of [M | -rhs]
    holds a vector that is nonzero on the rhs column.

    The kernel comes from `kernel_basis`, so the answer carries its
    certificates: either the rank bound mod `PRIME` proves that kernel
    trivial, or its vectors annihilate every row of [M | -rhs].  A
    homogeneous rhs is consistent with no elimination: x = 0 solves it.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length does not match row count")
    if not any(rhs):
        return True
    augmented = ConstraintMatrix(
        col_labels=m.col_labels + ("rhs",),
        row_labels=m.row_labels,
        row_entries=tuple(
            {**row, m.cols: -coerce_rational(b)} if b != 0 else row
            for row, b in zip(m.row_dicts(), rhs)
        ),
    )
    return any(vec[-1] != 0 for vec in kernel_basis(augmented).vectors)


def _dense_grid(m: ConstraintMatrix) -> list[list[Fraction]]:
    return [[row.get(c, Fraction(0)) for c in range(m.cols)] for row in m.row_entries]


def rank_dense(m: ConstraintMatrix) -> int:
    """Independent oracle: dense Gaussian elimination over Fraction."""
    return _dense_rref(_dense_grid(m))[0]


def kernel_dimension_dense(m: ConstraintMatrix) -> int:
    return m.cols - rank_dense(m)


def kernel_basis_dense(m: ConstraintMatrix) -> list[tuple[Fraction, ...]]:
    """Independent oracle kernel: dense RREF back-substitution over Fraction."""
    grid = _dense_grid(m)
    nrank, pivot_cols = _dense_rref(grid)
    free_cols = [c for c in range(m.cols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for i in range(nrank - 1, -1, -1):
            p = pivot_cols[i]
            acc = Fraction(0)
            for c in range(p + 1, m.cols):
                if grid[i][c]:
                    acc += grid[i][c] * vec[c]
            vec[p] = -acc / grid[i][p]
        first = next(v for v in vec if v != 0)
        if first != 1:
            vec = [v / first for v in vec]
        basis.append(tuple(vec))
    return basis


def _dense_rref(grid: list[list[Fraction]]) -> tuple[int, list[int]]:
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if grid[i][c] != 0), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        pv = grid[r][c]
        grid[r] = [v / pv for v in grid[r]]
        for i in range(nrows):
            if i != r and grid[i][c] != 0:
                factor = grid[i][c]
                grid[i] = [v - factor * w for v, w in zip(grid[i], grid[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivot_cols

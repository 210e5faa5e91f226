"""Built-in verification suite: every worked example, re-checked exactly.

Each check is named and independent; `run_suite` executes all of them and
reports one pass/fail result apiece.  The sigma values driving the checks
live in `SuiteConfig`, so a corrupted configuration surfaces as a named
failure rather than a crash.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .cascade import (
    TruncatedFactor,
    VERDICT_INCONCLUSIVE,
    VERDICT_TRIVIAL,
    analyze,
    block_projection_dim,
    check_window_solution,
    forced_source_feasible,
    window_kernel,
)
from .cylindrical import verify_beltrami_cylindrical
from .harmonics import lifted_field, planar_harmonics
from .linalg import ConstraintMatrix, kernel_dimension_dense, rank, rank_of_vectors
from .polynomials import (
    CoefficientIndex,
    HomogeneousPolynomial,
    PolynomialVectorField,
    coefficient_vector,
    laplacian,
    monomials_of_degree,
)
from .single_degree import (
    SigmaTriple,
    assemble_single,
    classify_spectrum,
    kernel_single,
    resonance_search,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class SuiteConfig:
    """Sigma tables and sample sizes used by the suite checks."""

    resonance_table: tuple[tuple[int, str], ...] = (
        (3, "1,1,-3"),
        (4, "1,1,-4"),
        (5, "1,1,-5"),
        (6, "1,1,-6"),
    )
    pair_sigmas: tuple[str, ...] = ("1,-1,1", "1,-1,2", "1,-1,5")
    traceless_sigmas: tuple[str, ...] = ("1,1,-2", "1,2,-3")
    same_sign_samples: int = 40
    mixed_samples: int = 40
    sample_max_degree: int = 8
    window_zero_range: tuple[int, ...] = (3, 4, 5, 6)
    window_nonzero_range: tuple[int, ...] = (3, 4, 5, 6)
    series_order: int = 18
    seed: int = 20260810

    def __post_init__(self):
        is_int = lambda v: type(v) is int  # a bool is an int subclass; a float would truncate
        is_str = lambda v: isinstance(v, str)
        minimums = {
            "same_sign_samples": 1, "mixed_samples": 1, "sample_max_degree": 1, "series_order": 6,
        }
        for name, least in minimums.items():
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        lists = {
            "resonance_table": ("[int, str] pairs", lambda e: type(e) is tuple and len(e) == 2
                                and is_int(e[0]) and is_str(e[1])),
            "pair_sigmas": ("strings", is_str),
            "traceless_sigmas": ("strings", is_str),
            "window_zero_range": ("integers", is_int),
            "window_nonzero_range": ("integers", is_int),
        }
        for name, (kind, valid) in lists.items():
            value = getattr(self, name)
            if type(value) is not tuple or not value or not all(map(valid, value)):
                raise ValueError(f"{name} must be a non-empty list of {kind}, got {value!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValueError("suite config must be a JSON object")
        kwargs = {}
        names = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in names:
                raise ValueError(f"unknown suite config key {key!r}")
            if isinstance(value, list):  # arrays, and the pairs inside them, as tuples
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            kwargs[key] = value
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Frozen reference rows for the degree-1 and degree-2 systems.
# ---------------------------------------------------------------------------


def _ci(component: str, monomial, degree: int) -> CoefficientIndex:
    return CoefficientIndex(component, tuple(monomial), degree)


def reference_rows_degree_one(s: SigmaTriple) -> dict[str, list[dict]]:
    """Hand-derived coefficient rows of the degree-1 system."""
    a = lambda m: _ci("x", m, 1)
    b = lambda m: _ci("y", m, 1)
    c = lambda m: _ci("z", m, 1)
    one = Fraction(1)
    return {
        "curl": [
            {b((0, 0, 1)): -one, c((0, 1, 0)): one},
            {a((0, 0, 1)): one, c((1, 0, 0)): -one},
            {a((0, 1, 0)): -one, b((1, 0, 0)): one},
        ],
        "div": [{a((1, 0, 0)): one, b((0, 1, 0)): one, c((0, 0, 1)): one}],
        "fi": [
            {a((0, 1, 0)): s.s1, b((1, 0, 0)): s.s2},
            {b((0, 0, 1)): s.s2, c((0, 1, 0)): s.s3},
            {a((0, 0, 1)): s.s1, c((1, 0, 0)): s.s3},
            {c((0, 0, 1)): s.s3},
            {b((0, 1, 0)): s.s2},
            {a((1, 0, 0)): s.s1},
        ],
    }


def reference_rows_degree_two(s: SigmaTriple) -> dict[str, list[dict]]:
    """Hand-derived curl and div rows of the degree-2 system, plus the eight
    listed first-integral rows (the full system carries ten)."""
    a = lambda m: _ci("x", m, 2)
    b = lambda m: _ci("y", m, 2)
    c = lambda m: _ci("z", m, 2)
    one = Fraction(1)
    two = Fraction(2)
    return {
        "curl": [
            {c((0, 1, 1)): one, b((0, 0, 2)): -two},
            {c((0, 2, 0)): two, b((0, 1, 1)): -one},
            {c((1, 1, 0)): one, b((1, 0, 1)): -one},
            {a((0, 1, 1)): one, c((1, 1, 0)): -one},
            {a((1, 0, 1)): one, c((2, 0, 0)): -two},
            {b((1, 0, 1)): one, a((0, 1, 1)): -one},
            {b((2, 0, 0)): two, a((1, 1, 0)): -one},
            {a((0, 0, 2)): two, c((1, 0, 1)): -one},
            {b((1, 1, 0)): one, a((0, 2, 0)): -two},
        ],
        "div": [
            {a((1, 0, 1)): one, b((0, 1, 1)): one, c((0, 0, 2)): two},
            {a((1, 1, 0)): one, b((0, 2, 0)): two, c((0, 1, 1)): one},
            {a((2, 0, 0)): two, b((1, 1, 0)): one, c((1, 0, 1)): one},
        ],
        "fi_listed": [
            {a((0, 0, 2)): s.s1, c((1, 0, 1)): s.s3},
            {a((0, 2, 0)): s.s1, b((1, 1, 0)): s.s2},
            {a((0, 1, 1)): s.s1, b((1, 0, 1)): s.s2, c((1, 1, 0)): s.s3},
            {a((1, 0, 1)): s.s1, c((2, 0, 0)): s.s3},
            {a((1, 1, 0)): s.s1, b((2, 0, 0)): s.s2},
            {c((0, 0, 2)): s.s3},
            {b((0, 2, 0)): s.s2},
            {a((2, 0, 0)): s.s1},
        ],
    }


def _canonical_rows(rows) -> Counter:
    return Counter(frozenset(row.items()) for row in rows)


def rows_by_tag(matrix: ConstraintMatrix, prefix: str) -> list[dict]:
    return [
        row
        for (tag, _), row in matrix.labeled_rows()
        if tag.startswith(prefix)
    ]


def rows_match(actual: list[dict], expected: list[dict]) -> bool:
    """Multiset equality of coefficient rows, order-insensitive."""
    return _canonical_rows(actual) == _canonical_rows(expected)


def rows_contain(actual: list[dict], expected: list[dict]) -> bool:
    have = _canonical_rows(actual)
    return all(have[key] >= n for key, n in _canonical_rows(expected).items())


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def random_nonzero_rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(1, span), rng.randint(1, span))


def span_equals(basis_vectors, col_labels, fields) -> bool:
    """Whether span(basis) == span(basis + fields), by exact rank."""
    stacked = [list(v) for v in basis_vectors]
    extra = [coefficient_vector({field.degree: field}, col_labels) for field in fields]
    return rank_of_vectors(stacked) == rank_of_vectors(stacked + extra) == len(fields)


def planar_harmonics_hold(i: int) -> bool:
    """Re/Im((x+Iy)^i) are z-free and harmonic, and the planar Laplacian on
    degree-i (x,y)-polynomials has a 2-dim kernel."""
    pair = planar_harmonics(i)
    for part in (pair.re_part, pair.im_part):
        if not (all(m[2] == 0 for m in part.coeffs) and laplacian(part).is_zero()):
            return False
    cols = [m for m in monomials_of_degree(i) if m[2] == 0]
    pos = {m: k for k, m in enumerate(cols)}
    rows = []
    for mu in monomials_of_degree(i - 2):
        if mu[2] != 0:
            continue
        row = {}
        mx = (mu[0] + 2, mu[1], 0)
        my = (mu[0], mu[1] + 2, 0)
        row[pos[mx]] = Fraction((mu[0] + 2) * (mu[0] + 1))
        row[pos[my]] = Fraction((mu[1] + 2) * (mu[1] + 1))
        rows.append((("lap", mu), row))
    return rank(ConstraintMatrix.from_rows(cols, rows)) == len(cols) - 2


def lifted_fields_span_kernel(i: int, s: SigmaTriple) -> bool:
    """The degree-i kernel for s is 2-dim and spanned by the lifted fields."""
    basis = kernel_single(i, s)
    return basis.dimension == 2 and span_equals(
        basis.vectors, basis.col_labels, [lifted_field(i, 1), lifted_field(i, 2)]
    )


def counterexample_factor() -> TruncatedFactor:
    """f = 1 + (x^2 + y^2 - z^2) + 2xyz."""
    return TruncatedFactor.diagonal(
        1, SigmaTriple(1, 1, -1), {3: HomogeneousPolynomial(3, {(1, 1, 1): 2})}
    )


def counterexample_pair() -> tuple[PolynomialVectorField, PolynomialVectorField]:
    """The explicit nontrivial jet (X_1, X_2) = ((-z,0,-x), (xy,0,-yz))."""
    x1 = PolynomialVectorField(
        1,
        HomogeneousPolynomial(1, {(0, 0, 1): -1}),
        HomogeneousPolynomial.zero(1),
        HomogeneousPolynomial(1, {(1, 0, 0): -1}),
    )
    x2 = PolynomialVectorField(
        2,
        HomogeneousPolynomial(2, {(1, 1, 0): 1}),
        HomogeneousPolynomial.zero(2),
        HomogeneousPolynomial(2, {(0, 1, 1): -1}),
    )
    return x1, x2


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def _check_reference_rows_degree_one(cfg: SuiteConfig) -> tuple[bool, str]:
    ok = True
    for s in (SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9)):
        matrix = assemble_single(1, s)
        expected = reference_rows_degree_one(s)
        ok = ok and rows_match(rows_by_tag(matrix, "curl"), expected["curl"])
        ok = ok and rows_match(rows_by_tag(matrix, "div"), expected["div"])
        ok = ok and rows_match(rows_by_tag(matrix, "fi"), expected["fi"])
    return ok, "curl/div/first-integral rows at degree 1"


def _check_reference_rows_degree_two(cfg: SuiteConfig) -> tuple[bool, str]:
    ok = True
    for s in (SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9)):
        matrix = assemble_single(2, s)
        expected = reference_rows_degree_two(s)
        ok = ok and rows_match(rows_by_tag(matrix, "curl"), expected["curl"])
        ok = ok and rows_match(rows_by_tag(matrix, "div"), expected["div"])
        ok = ok and rows_contain(rows_by_tag(matrix, "fi"), expected["fi_listed"])
    return ok, "curl/div rows at degree 2, listed FI rows included"


def _check_planar_harmonics(cfg: SuiteConfig) -> tuple[bool, str]:
    ok = all(planar_harmonics_hold(i) for i in range(1, 9))
    return ok, "harmonic, z-free, and spanning a 2-dim kernel"


def _check_lifted_fields(cfg: SuiteConfig) -> tuple[bool, str]:
    ok = True
    details = []
    for i, sigma_text in cfg.resonance_table:
        good = lifted_fields_span_kernel(i, SigmaTriple.parse(sigma_text))
        details.append(f"i={i}:{'ok' if good else 'BAD'}")
        ok = ok and good
    return ok, " ".join(details)


def _check_same_sign(cfg: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(cfg.seed)
    ok = True
    for _ in range(cfg.same_sign_samples):
        sign = rng.choice([1, -1])
        s = SigmaTriple(*(sign * random_nonzero_rational(rng) for _ in range(3)))
        for i in range(1, cfg.sample_max_degree + 1):
            ok = ok and kernel_single(i, s).dimension == 0
    return (
        ok,
        f"{cfg.same_sign_samples} random spectra, degrees 1..{cfg.sample_max_degree}",
    )


def _check_mixed_nonresonant(cfg: SuiteConfig) -> tuple[bool, str]:
    rng = random.Random(cfg.seed + 1)
    ok = True
    done = 0
    while done < cfg.mixed_samples:
        s = SigmaTriple(*(rng.choice([1, -1]) * random_nonzero_rational(rng) for _ in range(3)))
        c = classify_spectrum(s)
        if c.same_sign or c.risky_degrees:
            continue
        for i in range(1, cfg.sample_max_degree + 1):
            ok = ok and kernel_single(i, s).dimension == 0
        done += 1
    return (
        ok,
        f"{cfg.mixed_samples} random mixed spectra, degrees 1..{cfg.sample_max_degree}",
    )


def _check_derived_kernel_table(cfg: SuiteConfig) -> tuple[bool, str]:
    table = [
        (1, SigmaTriple(1, -1, 5), 1),
        (2, SigmaTriple(1, 2, -3), 1),
        (2, SigmaTriple(1, 1, -2), 2),
        (4, SigmaTriple(1, 1, -3), 0),
    ]
    ok = True
    for i, s, want in table:
        basis = kernel_single(i, s)
        dense = kernel_dimension_dense(assemble_single(i, s))
        ok = ok and basis.dimension == want == dense
    return ok, "fixed table, dense-oracle confirmed"


def _check_resonance_search(cfg: SuiteConfig) -> tuple[bool, str]:
    hits = resonance_search(SigmaTriple(1, 1, -3), 3)
    need = {(1, 2, 1), (2, 1, 1), (3, 0, 1), (0, 3, 1)}
    ok = need <= set(hits)
    ok = ok and resonance_search(SigmaTriple(1, Fraction(7, 5), Fraction(-22, 7)), 4) == []
    ok = ok and (-2, 3, 0) in resonance_search(SigmaTriple(1, Fraction(2, 3), 5), 10)
    return ok, "exhaustive integer-relation scans"


def _check_window_zero_constant(cfg: SuiteConfig) -> tuple[bool, str]:
    ok = True
    details = []
    for i in cfg.window_zero_range:
        f = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -i))
        basis, projection = window_kernel(f, i, 3)
        good = projection == 0 and basis.dimension == 0
        offset = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -(i + 3)))
        obasis, oproj = window_kernel(offset, i, 3)
        good = good and oproj == 0 and block_projection_dim(obasis, i + 3) == 2
        details.append(f"i={i}:{'ok' if good else 'BAD'}")
        ok = ok and good
    return ok, " ".join(details)


def _check_window_nonzero_constant(cfg: SuiteConfig) -> tuple[bool, str]:
    cases = [(f"i={i}", SigmaTriple(1, 1, -i), i) for i in cfg.window_nonzero_range]
    cases += [(f"i=1 ({text})", SigmaTriple.parse(text), 1) for text in cfg.pair_sigmas]
    cases += [(f"i=2 ({text})", SigmaTriple.parse(text), 2) for text in cfg.traceless_sigmas]
    ok = True
    details = []
    for label, sigma, i in cases:
        _, projection = window_kernel(TruncatedFactor.diagonal(1, sigma), i, 1)
        details.append(f"{label}:{'ok' if projection == 0 else 'BAD'}")
        ok = ok and projection == 0
    return ok, " ".join(details)


def _check_pinned_leading_term(cfg: SuiteConfig) -> tuple[bool, str]:
    f = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3))
    probes = [(1, 0), (0, 1), (1, 1), (2, -3), (-1, 5)]
    ok = True
    for l1, l2 in probes:
        pinned = lifted_field(3, 1) * l1 + lifted_field(3, 2) * l2
        ok = ok and not forced_source_feasible(f, 3, 3, pinned)
    ok = ok and forced_source_feasible(f, 3, 3, PolynomialVectorField.zero(3))
    return ok, f"{len(probes)} nonzero probes rejected"


def _check_counterexample(cfg: SuiteConfig) -> tuple[bool, str]:
    f = counterexample_factor()
    basis, projection = window_kernel(f, 1, 1)
    x1, x2 = counterexample_pair()
    pair_fields = {1: x1, 2: x2}
    ok = basis.dimension == 1 and projection == 1
    ok = ok and check_window_solution(f, 1, 1, pair_fields)
    pair_vec = coefficient_vector(pair_fields, basis.col_labels)
    stacked = [list(v) for v in basis.vectors]
    ok = ok and rank_of_vectors(stacked + [pair_vec]) == rank_of_vectors(stacked)
    ok = ok and analyze(f).verdict == VERDICT_INCONCLUSIVE
    return ok, "explicit jet spans the window kernel"


def _check_epsilon_scaling(cfg: SuiteConfig) -> tuple[bool, str]:
    f = counterexample_factor()
    stripped = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1))
    ok = f.with_cubic_scaled(0) == stripped and f.with_cubic_scaled(1) == f
    dims = []
    for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(0)):
        _, projection = window_kernel(f.with_cubic_scaled(eps), 1, 1)
        dims.append((eps, projection))
    ok = ok and [p for _, p in dims] == [1, 0, 0, 0]
    return ok, " ".join(f"eps={e}:proj={p}" for e, p in dims)


def _check_axisymmetric_series(cfg: SuiteConfig) -> tuple[bool, str]:
    report = verify_beltrami_cylindrical(cfg.series_order)
    return (
        report.all_ok,
        f"order {cfg.series_order}: recurrence={report.recurrence_ok} "
        f"bessel={report.bessel_match_ok} cartesian={report.cartesian_ok}",
    )


def _check_quartic_tail(cfg: SuiteConfig) -> tuple[bool, str]:
    f4 = HomogeneousPolynomial(
        4, {(2, 2, 0): 3, (0, 0, 4): 1, (1, 1, 2): Fraction(5, 7), (4, 0, 0): -2}
    )
    report = analyze(TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), {4: f4}))
    ok = report.verdict == VERDICT_TRIVIAL and [r.degree for r in report.risky] == [3]
    same_sign = analyze(TruncatedFactor.diagonal(1, SigmaTriple(1, 2, 3)))
    ok = ok and same_sign.verdict == VERDICT_TRIVIAL and not same_sign.risky
    return ok, "risky {3} resolved, same-sign empty"


# (published name, check): a result carries this name whether its check
# passes, fails or crashes
CHECKS = (
    ("reference_rows_degree_one", _check_reference_rows_degree_one),
    ("reference_rows_degree_two", _check_reference_rows_degree_two),
    ("planar_harmonics_basis", _check_planar_harmonics),
    ("lifted_fields_span_resonant_kernels", _check_lifted_fields),
    ("same_sign_spectra_trivial", _check_same_sign),
    ("mixed_unflagged_spectra_trivial", _check_mixed_nonresonant),
    ("derived_kernel_dimensions", _check_derived_kernel_table),
    ("resonance_relation_search", _check_resonance_search),
    ("coupled_window_zero_constant", _check_window_zero_constant),
    ("coupled_window_nonzero_constant", _check_window_nonzero_constant),
    ("pinned_leading_term_infeasible", _check_pinned_leading_term),
    ("counterexample_window_reproduced", _check_counterexample),
    ("epsilon_scaling_reductions", _check_epsilon_scaling),
    ("axisymmetric_series_verified", _check_axisymmetric_series),
    ("quartic_tail_cascade_trivial", _check_quartic_tail),
)


def run_suite(config: SuiteConfig | None = None) -> list[CheckResult]:
    """Run every named check; failures are reported, never raised."""
    cfg = config or SuiteConfig()
    results = []
    for name, check in CHECKS:
        try:
            passed, detail = check(cfg)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results

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
    assemble_window,
    block_projection_dim,
    check_window_solution,
    epsilon_window,
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
    field_to_coefficients,
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
        minimums = {
            "same_sign_samples": 1, "mixed_samples": 1, "sample_max_degree": 1, "series_order": 6,
        }
        for name, least in minimums.items():
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("resonance_table", "pair_sigmas", "traceless_sigmas",
                     "window_zero_range", "window_nonzero_range"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SuiteConfig":
        kwargs = {}
        names = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in names:
                raise ValueError(f"unknown suite config key {key!r}")
            if key == "resonance_table":
                value = tuple((int(i), str(s)) for i, s in value)
            elif isinstance(value, list):
                value = tuple(value)
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
    extra = []
    for field in fields:
        coeffs = field_to_coefficients(field)
        extra.append([coeffs.get(l, Fraction(0)) for l in col_labels])
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


def _check_reference_rows_degree_one(cfg: SuiteConfig) -> CheckResult:
    ok = True
    for s in (SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9)):
        matrix = assemble_single(1, s)
        expected = reference_rows_degree_one(s)
        ok = ok and rows_match(rows_by_tag(matrix, "curl"), expected["curl"])
        ok = ok and rows_match(rows_by_tag(matrix, "div"), expected["div"])
        ok = ok and rows_match(rows_by_tag(matrix, "fi"), expected["fi"])
    return CheckResult("reference_rows_degree_one", ok, "curl/div/first-integral rows at degree 1")


def _check_reference_rows_degree_two(cfg: SuiteConfig) -> CheckResult:
    ok = True
    for s in (SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9)):
        matrix = assemble_single(2, s)
        expected = reference_rows_degree_two(s)
        ok = ok and rows_match(rows_by_tag(matrix, "curl"), expected["curl"])
        ok = ok and rows_match(rows_by_tag(matrix, "div"), expected["div"])
        ok = ok and rows_contain(rows_by_tag(matrix, "fi"), expected["fi_listed"])
    return CheckResult("reference_rows_degree_two", ok, "curl/div rows at degree 2, listed FI rows included")


def _check_planar_harmonics(cfg: SuiteConfig) -> CheckResult:
    ok = all(planar_harmonics_hold(i) for i in range(1, 9))
    return CheckResult("planar_harmonics_basis", ok, "harmonic, z-free, and spanning a 2-dim kernel")


def _check_lifted_fields(cfg: SuiteConfig) -> CheckResult:
    ok = True
    details = []
    for i, sigma_text in cfg.resonance_table:
        good = lifted_fields_span_kernel(i, SigmaTriple.parse(sigma_text))
        details.append(f"i={i}:{'ok' if good else 'BAD'}")
        ok = ok and good
    return CheckResult("lifted_fields_span_resonant_kernels", ok, " ".join(details))


def _check_same_sign(cfg: SuiteConfig) -> CheckResult:
    rng = random.Random(cfg.seed)
    ok = True
    for _ in range(cfg.same_sign_samples):
        sign = rng.choice([1, -1])
        s = SigmaTriple(*(sign * random_nonzero_rational(rng) for _ in range(3)))
        for i in range(1, cfg.sample_max_degree + 1):
            ok = ok and kernel_single(i, s).dimension == 0
    return CheckResult(
        "same_sign_spectra_trivial",
        ok,
        f"{cfg.same_sign_samples} random spectra, degrees 1..{cfg.sample_max_degree}",
    )


def _check_mixed_nonresonant(cfg: SuiteConfig) -> CheckResult:
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
    return CheckResult(
        "mixed_unflagged_spectra_trivial",
        ok,
        f"{cfg.mixed_samples} random mixed spectra, degrees 1..{cfg.sample_max_degree}",
    )


def _check_derived_kernel_table(cfg: SuiteConfig) -> CheckResult:
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
    return CheckResult("derived_kernel_dimensions", ok, "fixed table, dense-oracle confirmed")


def _check_resonance_search(cfg: SuiteConfig) -> CheckResult:
    hits = resonance_search(SigmaTriple(1, 1, -3), 3)
    need = {(1, 2, 1), (2, 1, 1), (3, 0, 1), (0, 3, 1)}
    ok = need <= set(hits)
    ok = ok and resonance_search(SigmaTriple(1, Fraction(7, 5), Fraction(-22, 7)), 4) == []
    ok = ok and (-2, 3, 0) in resonance_search(SigmaTriple(1, Fraction(2, 3), 5), 10)
    return CheckResult("resonance_relation_search", ok, "exhaustive integer-relation scans")


def _check_window_zero_constant(cfg: SuiteConfig) -> CheckResult:
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
    return CheckResult("coupled_window_zero_constant", ok, " ".join(details))


def _check_window_nonzero_constant(cfg: SuiteConfig) -> CheckResult:
    cases = [(f"i={i}", SigmaTriple(1, 1, -i), i) for i in cfg.window_nonzero_range]
    cases += [(f"i=1 ({text})", SigmaTriple.parse(text), 1) for text in cfg.pair_sigmas]
    cases += [(f"i=2 ({text})", SigmaTriple.parse(text), 2) for text in cfg.traceless_sigmas]
    ok = True
    details = []
    for label, sigma, i in cases:
        _, projection = window_kernel(TruncatedFactor.diagonal(1, sigma), i, 1)
        details.append(f"{label}:{'ok' if projection == 0 else 'BAD'}")
        ok = ok and projection == 0
    return CheckResult("coupled_window_nonzero_constant", ok, " ".join(details))


def _check_pinned_leading_term(cfg: SuiteConfig) -> CheckResult:
    f = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3))
    probes = [(1, 0), (0, 1), (1, 1), (2, -3), (-1, 5)]
    ok = True
    for l1, l2 in probes:
        pinned = lifted_field(3, 1) * l1 + lifted_field(3, 2) * l2
        ok = ok and not forced_source_feasible(f, 3, 3, pinned)
    ok = ok and forced_source_feasible(f, 3, 3, PolynomialVectorField.zero(3))
    return CheckResult("pinned_leading_term_infeasible", ok, f"{len(probes)} nonzero probes rejected")


def _check_counterexample(cfg: SuiteConfig) -> CheckResult:
    f = counterexample_factor()
    basis, projection = window_kernel(f, 1, 1)
    x1, x2 = counterexample_pair()
    pair_fields = {1: x1, 2: x2}
    ok = basis.dimension == 1 and projection == 1
    ok = ok and check_window_solution(f, 1, 1, pair_fields)
    coeffs = {}
    coeffs.update(field_to_coefficients(x1))
    coeffs.update(field_to_coefficients(x2))
    pair_vec = [coeffs.get(l, Fraction(0)) for l in basis.col_labels]
    stacked = [list(v) for v in basis.vectors]
    ok = ok and rank_of_vectors(stacked + [pair_vec]) == rank_of_vectors(stacked)
    ok = ok and analyze(f).verdict == VERDICT_INCONCLUSIVE
    return CheckResult("counterexample_window_reproduced", ok, "explicit jet spans the window kernel")


def _check_epsilon_scaling(cfg: SuiteConfig) -> CheckResult:
    f = counterexample_factor()
    stripped = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1))
    ok = epsilon_window(f, 1, 1, 0).matrix == assemble_window(stripped, 1, 1).matrix
    ok = ok and epsilon_window(f, 1, 1, 1).matrix == assemble_window(f, 1, 1).matrix
    dims = []
    for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(0)):
        _, projection = window_kernel(f, 1, 1, f3_scale=eps)
        dims.append((eps, projection))
    ok = ok and [p for _, p in dims] == [1, 0, 0, 0]
    detail = " ".join(f"eps={e}:proj={p}" for e, p in dims)
    return CheckResult("epsilon_scaling_reductions", ok, detail)


def _check_axisymmetric_series(cfg: SuiteConfig) -> CheckResult:
    report = verify_beltrami_cylindrical(cfg.series_order)
    return CheckResult(
        "axisymmetric_series_verified",
        report.all_ok,
        f"order {cfg.series_order}: recurrence={report.recurrence_ok} "
        f"bessel={report.bessel_match_ok} cartesian={report.cartesian_ok}",
    )


def _check_quartic_tail(cfg: SuiteConfig) -> CheckResult:
    f4 = HomogeneousPolynomial(
        4, {(2, 2, 0): 3, (0, 0, 4): 1, (1, 1, 2): Fraction(5, 7), (4, 0, 0): -2}
    )
    report = analyze(TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), {4: f4}))
    ok = report.verdict == VERDICT_TRIVIAL and [r.degree for r in report.risky] == [3]
    same_sign = analyze(TruncatedFactor.diagonal(1, SigmaTriple(1, 2, 3)))
    ok = ok and same_sign.verdict == VERDICT_TRIVIAL and not same_sign.risky
    return CheckResult("quartic_tail_cascade_trivial", ok, "risky {3} resolved, same-sign empty")


CHECKS = (
    _check_reference_rows_degree_one,
    _check_reference_rows_degree_two,
    _check_planar_harmonics,
    _check_lifted_fields,
    _check_same_sign,
    _check_mixed_nonresonant,
    _check_derived_kernel_table,
    _check_resonance_search,
    _check_window_zero_constant,
    _check_window_nonzero_constant,
    _check_pinned_leading_term,
    _check_counterexample,
    _check_epsilon_scaling,
    _check_axisymmetric_series,
    _check_quartic_tail,
)


def run_suite(config: SuiteConfig | None = None) -> list[CheckResult]:
    """Run every named check; failures are reported, never raised."""
    cfg = config or SuiteConfig()
    results = []
    for check in CHECKS:
        try:
            results.append(check(cfg))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__.removeprefix("_check_"), False, f"error: {exc}"))
    return results

"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Each test prints a single `ACCEPTANCE <n> ... PASS` line on success (visible
with `pytest -s` or `-rP`); a failure shows up as the usual pytest failure.
Criteria with stated wall-clock budgets assert them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from beltrami_jets import (
    HomogeneousPolynomial,
    SigmaTriple,
    TruncatedFactor,
    VERDICT_INCONCLUSIVE,
    VERDICT_TRIVIAL,
    analyze,
    bessel_series_coefficients,
    classify_spectrum,
    curl,
    div,
    dot,
    grad,
    kernel_single,
    laplacian,
    scale_mul,
    solve_cylindrical_recurrence,
    verify_beltrami_cylindrical,
    window_kernel,
)
from beltrami_jets import golden
from beltrami_jets.cascade import block_projection_dim, check_window_solution
from beltrami_jets.cylindrical import NU_MINUS_ONE_THIRD, NU_PLUS_TWO_THIRDS
from beltrami_jets.harmonics import lifted_field
from beltrami_jets.linalg import kernel_dimension_dense, rank_of_vectors
from beltrami_jets.polynomials import coefficient_vector, fields_from_vector
from beltrami_jets.single_degree import assemble_single
from conftest import (
    random_field,
    random_mixed_sigma,
    random_nonzero_poly,
    random_poly,
    random_same_sign_sigma,
)

P = HomogeneousPolynomial


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_vector_calculus_identities():
    started = time.perf_counter()
    rng = random.Random(1001)
    samples = 0
    for _ in range(170):
        g = random_poly(rng, rng.randint(1, 8))
        assert curl(grad(g)).is_zero()
        assert div(grad(g)) == laplacian(g)
        samples += 1
    for _ in range(170):
        w = random_field(rng, rng.randint(1, 8))
        assert div(curl(w)).is_zero()
        samples += 1
    for _ in range(90):
        g = random_poly(rng, rng.randint(1, 5))
        v = random_field(rng, rng.randint(1, 5))
        assert div(scale_mul(g, v)) == dot(grad(g), v) + g * div(v)
        samples += 2
    for _ in range(40):
        u = random_field(rng, rng.randint(0, 5))
        v = random_field(rng, u.degree)
        w = random_field(rng, u.degree)
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        assert dot(u, v) == dot(v, u)
        assert dot(u, v + w * c) == dot(u, v) + dot(u, w) * c
        samples += 3
    elapsed = time.perf_counter() - started
    assert samples >= 500
    assert elapsed < 10.0
    _report(f"1 identity suite ({samples} samples, {elapsed:.2f}s)")


def test_criterion_02_reference_row_golden_match():
    sigmas = (SigmaTriple(5, 7, 11), SigmaTriple(Fraction(2, 3), -4, 9), SigmaTriple(1, 1, -1))
    for sigma in sigmas:
        m1 = assemble_single(1, sigma)
        ref1 = golden.reference_rows_degree_one(sigma)
        for tag in ("curl", "div", "fi"):
            assert golden.rows_match(golden.rows_by_tag(m1, tag), ref1[tag])
        m2 = assemble_single(2, sigma)
        ref2 = golden.reference_rows_degree_two(sigma)
        for tag in ("curl", "div"):
            assert golden.rows_match(golden.rows_by_tag(m2, tag), ref2[tag])
        # the reference listing displays eight of the ten first-integral rows
        fi_rows = golden.rows_by_tag(m2, "fi")
        assert len(fi_rows) == 10
        assert golden.rows_contain(fi_rows, ref2["fi_listed"])
    _report("2 reference rows at degrees 1 and 2 (exact, up to row ordering)")


def test_criterion_03_same_sign_spectra_trivial():
    started = time.perf_counter()
    rng = random.Random(1003)
    for _ in range(200):
        sigma = random_same_sign_sigma(rng)
        assert classify_spectrum(sigma).same_sign
        for degree in range(1, 9):
            assert kernel_single(degree, sigma).dimension == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(f"3 same-sign triviality (200 spectra x degrees 1..8, {elapsed:.1f}s)")


def test_criterion_04_resonant_kernels_and_unflagged_spectra():
    for i in range(3, 9):
        sigma = SigmaTriple(1, 1, -i)
        basis = kernel_single(i, sigma)
        assert basis.dimension == 2
        pair = [lifted_field(i, 1), lifted_field(i, 2)]
        assert golden.span_equals(basis.vectors, basis.col_labels, pair)
    rng = random.Random(1004)
    found = 0
    while found < 200:
        sigma = random_mixed_sigma(rng)
        if classify_spectrum(sigma).risky_degrees:
            continue
        for degree in range(1, 9):
            assert kernel_single(degree, sigma).dimension == 0
        found += 1
    _report("4 resonant kernels span the lifted pair; 200 unflagged spectra trivial")


def test_criterion_05_derived_kernel_table_with_oracle():
    xyz = grad(P(3, {(1, 1, 1): 1}))
    table = [
        # (degree, sigma, kernel dim, fields spanning the kernel)
        (1, SigmaTriple(1, -1, 5), 1, [grad(P(2, {(1, 1, 0): 1}))]),
        (2, SigmaTriple(1, 2, -3), 1, [xyz]),
        (2, SigmaTriple(1, 1, -2), 2, [xyz, grad(P(3, {(2, 0, 1): 1, (0, 2, 1): -1}))]),
        (4, SigmaTriple(1, 1, -3), 0, []),
        (5, SigmaTriple(1, 1, -5), 2, [lifted_field(5, 1), lifted_field(5, 2)]),
    ]
    for degree, sigma, dim, fields in table:
        basis = kernel_single(degree, sigma)
        assert basis.dimension == dim == kernel_dimension_dense(assemble_single(degree, sigma))
        assert golden.span_equals(basis.vectors, basis.col_labels, fields)
    _report("5 derived kernel table confirmed by the dense brute-force oracle")


def test_criterion_06_zero_constant_window_sweep():
    started = time.perf_counter()
    for i in range(3, 7):
        factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -i))
        basis, projection = window_kernel(factor, i, 3)
        assert projection == 0 and basis.dimension == 0
        offset = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -(i + 3)))
        obasis, oprojection = window_kernel(offset, i, 3)
        assert oprojection == 0
        assert block_projection_dim(obasis, i + 3) == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(f"6 zero-constant windows, degrees 3..6 with offset resonances ({elapsed:.1f}s)")


def test_criterion_07_nonzero_constant_window_sweep():
    for i in range(3, 7):
        factor = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -i))
        basis, projection = window_kernel(factor, i, 1)
        assert projection == 0 and basis.dimension == 0
    for beta in (1, 2, 5):
        factor = TruncatedFactor.diagonal(1, SigmaTriple(1, -1, beta))
        basis, projection = window_kernel(factor, 1, 1)
        assert projection == 0 and basis.dimension == 0
    for sigma in (SigmaTriple(1, 1, -2), SigmaTriple(1, 2, -3)):
        factor = TruncatedFactor.diagonal(1, sigma)
        basis, projection = window_kernel(factor, 2, 1)
        assert projection == 0 and basis.dimension == 0
    _report("7 nonzero-constant windows: degrees 3..6 plus the degree-1/2 solves")


def test_criterion_08_counterexample_reproduction():
    factor = golden.counterexample_factor()
    basis, projection = window_kernel(factor, 1, 1)
    assert basis.dimension == 1 and projection == 1
    x1, x2 = golden.counterexample_pair()
    assert check_window_solution(factor, 1, 1, {1: x1, 2: x2})
    pair_vec = coefficient_vector({1: x1, 2: x2}, basis.col_labels)
    assert rank_of_vectors([*basis.vectors, pair_vec]) == 1
    assert analyze(factor).verdict == VERDICT_INCONCLUSIVE
    _report("8 counterexample window kernel is exactly the displayed pair")


def test_criterion_09_axisymmetric_series_through_order_thirty():
    started = time.perf_counter()
    u, v = solve_cylindrical_recurrence(30)
    assert u.agrees_with(bessel_series_coefficients(NU_PLUS_TWO_THIRDS, 30), 30)
    assert v.agrees_with(bessel_series_coefficients(NU_MINUS_ONE_THIRD, 30), 30)
    report = verify_beltrami_cylindrical(30)
    assert report.recurrence_ok and report.bessel_match_ok and report.cartesian_ok
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(f"9 axisymmetric series verified through order 30 ({elapsed:.2f}s)")


def test_criterion_10_end_to_end_cascades():
    rng = random.Random(1010)
    for _ in range(3):
        extra = {4: random_nonzero_poly(rng, 4), 6: random_nonzero_poly(rng, 6)}
        factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), extra)
        report = analyze(factor)
        assert report.verdict == VERDICT_TRIVIAL
        assert [(r.degree, r.projection_dim) for r in report.risky] == [(3, 0)]
    inconclusive_seen = 0
    for _ in range(3):
        extra = {3: random_nonzero_poly(rng, 3)}
        factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), extra)
        report = analyze(factor)
        inconclusive = report.verdict == VERDICT_INCONCLUSIVE
        assert inconclusive == any(r.projection_dim > 0 for r in report.risky)
        if inconclusive:
            inconclusive_seen += 1
            witness = next(r for r in report.risky if r.projection_dim > 0)
            vec = witness.basis.vectors[0]
            fields = fields_from_vector(vec, witness.basis.col_labels)
            assert check_window_solution(factor, witness.degree, witness.depth, fields)
    _report(
        "10 end-to-end cascades: quartic/sextic tails trivial; "
        f"cubic tails obey the witness rule ({inconclusive_seen}/3 inconclusive)"
    )

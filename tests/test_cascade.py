"""Window systems, the counterexample, and the cascade analyzer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    PolynomialVectorField,
    SigmaTriple,
    TruncatedFactor,
    VERDICT_INCONCLUSIVE,
    VERDICT_TRIVIAL,
    analyze,
    assemble_window,
    kernel_single,
    window_kernel,
)
from beltrami_jets import _assembly, golden, linalg
from beltrami_jets.cascade import (
    block_projection_dim,
    check_window_solution,
    forced_source_feasible,
)
from beltrami_jets.harmonics import lifted_field
from beltrami_jets.linalg import rank_of_vectors
from beltrami_jets.polynomials import (
    CoefficientIndex,
    field_to_coefficients,
    fields_from_vector,
)
from beltrami_jets.single_degree import assemble_single
from conftest import random_nonzero_poly

P = HomogeneousPolynomial


def _counterexample_factor():
    return TruncatedFactor.diagonal(
        1, SigmaTriple(1, 1, -1), {3: P(3, {(1, 1, 1): 2})}
    )


def _pair():
    x1 = PolynomialVectorField(
        1, P(1, {(0, 0, 1): -1}), P.zero(1), P(1, {(1, 0, 0): -1})
    )
    x2 = PolynomialVectorField(
        2, P(2, {(1, 1, 0): 1}), P.zero(2), P(2, {(0, 1, 1): -1})
    )
    return x1, x2


def _row_lookup(matrix):
    return {label: row for label, row in zip(matrix.row_labels, matrix.row_dicts())}


def _labeled(matrix, label):
    rows = {
        lab: {matrix.col_labels[c]: v for c, v in row.items()}
        for lab, row in _row_lookup(matrix).items()
    }
    return rows[label]


# ---------------------------------------------------------------------------
# factor handling
# ---------------------------------------------------------------------------


def test_factor_validation():
    with pytest.raises(ValueError):
        TruncatedFactor(constant=Fraction(1), components={1: P(1, {(1, 0, 0): 1})})
    with pytest.raises(ValueError):
        TruncatedFactor(constant=Fraction(0), components={3: P(2, {(2, 0, 0): 1})})
    with pytest.raises(TypeError):
        TruncatedFactor(constant=Fraction(0), components={2.9: P(2, {(2, 0, 0): 1})})
    f = TruncatedFactor(constant=Fraction(1), components={2: P(2, {}), 3: P(3, {(1, 1, 1): 1})})
    assert list(f.components) == [3]


def test_factor_sigma_extraction():
    f = TruncatedFactor.diagonal(0, SigmaTriple(1, 2, -3))
    assert f.sigma().as_tuple() == (1, 2, -3)
    mixed = TruncatedFactor(
        constant=Fraction(0), components={2: P(2, {(2, 0, 0): 1, (1, 1, 0): 1})}
    )
    with pytest.raises(ValueError, match="diagonal Hessian"):
        mixed.sigma()
    missing = TruncatedFactor(constant=Fraction(1), components={3: P(3, {(1, 1, 1): 1})})
    with pytest.raises(ValueError, match="diagonal Hessian"):
        missing.sigma()
    degenerate = TruncatedFactor(
        constant=Fraction(0), components={2: P(2, {(2, 0, 0): 1, (0, 2, 0): 1})}
    )
    with pytest.raises(ValueError, match="diagonal Hessian"):
        degenerate.sigma()


def test_factor_json_round_trip():
    f = _counterexample_factor()
    data = f.to_json()
    assert data["f0"] == "1"
    assert set(data["components"]) == {"2", "3"}
    assert TruncatedFactor.from_json(data) == f


# ---------------------------------------------------------------------------
# window assembly
# ---------------------------------------------------------------------------


def test_depth_zero_window_equals_single_system():
    for f0 in (0, 1):
        factor = TruncatedFactor.diagonal(f0, SigmaTriple(1, 1, -3))
        window = assemble_window(factor, 3, 0)
        assert window.matrix == assemble_single(3, SigmaTriple(1, 1, -3))


def test_window_bounds_and_cap():
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3))
    with pytest.raises(ValueError):
        assemble_window(factor, 0, 1)
    with pytest.raises(ValueError):
        assemble_window(factor, 14, 3)
    assemble_window(factor, 14, 3, degree_cap=17)


def test_zero_constant_window_structure_and_frozen_rows():
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3))
    window = assemble_window(factor, 3, 3)
    matrix = window.matrix
    assert len(matrix.col_labels) == 3 * (10 + 15 + 21 + 28)
    tags = {label[0] for label in matrix.row_labels}
    assert tags == {
        f"{kind}@{m}" for kind in ("curl_x", "curl_y", "curl_z", "div") for m in (3, 4, 5, 6)
    } | {f"fi@{t}" for t in (4, 5, 6, 7)}

    def ci(comp, mono, deg):
        return CoefficientIndex(comp, mono, deg)

    # coupled curl row: curl_z(X_6) - (f2 X_3)_z at monomial x y^4
    assert _labeled(matrix, ("curl_z@6", (1, 4, 0))) == {
        ci("y", (2, 4, 0), 6): Fraction(2),
        ci("x", (1, 5, 0), 6): Fraction(-5),
        ci("z", (1, 2, 0), 3): Fraction(-1),
    }
    # div rows of the top block at y^5 and x y^4
    assert _labeled(matrix, ("div@6", (0, 5, 0))) == {
        ci("x", (1, 5, 0), 6): Fraction(1),
        ci("y", (0, 6, 0), 6): Fraction(6),
        ci("z", (0, 5, 1), 6): Fraction(1),
    }
    assert _labeled(matrix, ("div@6", (1, 4, 0))) == {
        ci("x", (2, 4, 0), 6): Fraction(2),
        ci("y", (1, 5, 0), 6): Fraction(5),
        ci("z", (1, 4, 1), 6): Fraction(1),
    }
    # first-integral single-entry row forcing the y^7 coefficient of X_6^y
    assert _labeled(matrix, ("fi@7", (0, 7, 0))) == {ci("y", (0, 6, 0), 6): Fraction(1)}
    # intermediate degrees carry plain single systems: no cross-block entries
    for label, row in _row_lookup(matrix).items():
        tag = label[0]
        if tag.endswith("@4") or tag.endswith("@5"):
            m = int(tag.split("@")[1])
            wanted = {m} if tag.startswith(("curl", "div")) else {m - 1}
            degrees = {matrix.col_labels[c].term_degree for c in row}
            assert degrees <= wanted


def test_nonzero_constant_window_frozen_rows():
    factor = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -3))
    matrix = assemble_window(factor, 3, 1).matrix

    def ci(comp, mono, deg):
        return CoefficientIndex(comp, mono, deg)

    # curl(X_4) = f0 X_3, x-component at y^3
    assert _labeled(matrix, ("curl_x@4", (0, 3, 0))) == {
        ci("z", (0, 4, 0), 4): Fraction(4),
        ci("y", (0, 3, 1), 4): Fraction(-1),
        ci("x", (0, 3, 0), 3): Fraction(-1),
    }
    # div(X_4) at y^3
    assert _labeled(matrix, ("div@4", (0, 3, 0))) == {
        ci("x", (1, 3, 0), 4): Fraction(1),
        ci("y", (0, 4, 0), 4): Fraction(4),
        ci("z", (0, 3, 1), 4): Fraction(1),
    }


def test_counterexample_window_frozen_rows():
    matrix = assemble_window(_counterexample_factor(), 1, 1).matrix

    def ci(comp, mono, deg):
        return CoefficientIndex(comp, mono, deg)

    # curl(X_2) = f0 X_1, x-component at monomial x
    assert _labeled(matrix, ("curl_x@2", (1, 0, 0))) == {
        ci("z", (1, 1, 0), 2): Fraction(1),
        ci("y", (1, 0, 1), 2): Fraction(-1),
        ci("x", (1, 0, 0), 1): Fraction(-1),
    }
    # halved first-integral row <(x,y,-z), X_1> at monomial xy
    assert _labeled(matrix, ("fi@2", (1, 1, 0))) == {
        ci("x", (0, 1, 0), 1): Fraction(1),
        ci("y", (1, 0, 0), 1): Fraction(1),
    }
    # mixed row <(x,y,-z), X_2> + <(yz,xz,xy), X_1> at monomial x^2 y
    assert _labeled(matrix, ("fi@3", (2, 1, 0))) == {
        ci("x", (1, 1, 0), 2): Fraction(1),
        ci("y", (2, 0, 0), 2): Fraction(1),
        ci("z", (1, 0, 0), 1): Fraction(1),
    }


def test_quartic_component_couples_into_first_integral_rows():
    f4 = P(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), {4: f4})
    matrix = assemble_window(factor, 3, 3).matrix
    fi6 = [
        row
        for label, row in _row_lookup(matrix).items()
        if label[0] == "fi@6"
    ]
    touched = {
        matrix.col_labels[c].term_degree for row in fi6 for c in row
    }
    assert touched == {3, 5}  # f2 couples X_5, f4 couples X_3


# ---------------------------------------------------------------------------
# window kernels
# ---------------------------------------------------------------------------


def test_zero_constant_window_forces_resonant_leading_term():
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3))
    basis, projection = window_kernel(factor, 3, 3)
    assert projection == 0 and basis.dimension == 0


def test_offset_resonance_lives_in_top_block():
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -6))
    basis, projection = window_kernel(factor, 3, 3)
    assert projection == 0
    assert basis.dimension == 2
    assert block_projection_dim(basis, 6) == 2
    for vec in basis.vectors:
        fields = fields_from_vector(vec, basis.col_labels)
        assert all(fields[m].is_zero() for m in (3, 4, 5))
        assert check_window_solution(factor, 3, 3, fields)
    # the top block is spanned by the degree-6 lifted pair
    top = [
        [v for v, label in zip(vec, basis.col_labels) if label.term_degree == 6]
        for vec in basis.vectors
    ]
    labels6 = [l for l in basis.col_labels if l.term_degree == 6]
    lifted = []
    for which in (1, 2):
        coeffs = field_to_coefficients(lifted_field(6, which))
        lifted.append([coeffs.get(l, Fraction(0)) for l in labels6])
    assert rank_of_vectors(top) == rank_of_vectors(top + lifted) == 2


def test_nonzero_constant_window_forces_resonant_leading_term():
    factor = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -3))
    basis, projection = window_kernel(factor, 3, 1)
    assert projection == 0 and basis.dimension == 0


def test_window_projection_contained_in_single_kernel():
    factor = _counterexample_factor()
    basis, projection = window_kernel(factor, 1, 1)
    assert projection == 1
    single = kernel_single(1, SigmaTriple(1, 1, -1))
    base_labels = [l for l in basis.col_labels if l.term_degree == 1]
    window_block = [
        [v for v, label in zip(vec, basis.col_labels) if label.term_degree == 1]
        for vec in basis.vectors
    ]
    single_vectors = [list(v) for v in single.vectors]
    assert rank_of_vectors(single_vectors) == rank_of_vectors(
        single_vectors + window_block
    )
    assert base_labels == list(single.col_labels)


def test_window_scaling_invariance():
    base = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -3))
    c = Fraction(3, 2)
    scaled = TruncatedFactor.diagonal(c, SigmaTriple(c, c, -3 * c))
    a, pa = window_kernel(base, 3, 1)
    b, pb = window_kernel(scaled, 3, 1)
    assert (a.dimension, pa) == (b.dimension, pb)


def test_counterexample_window_kernel_is_the_displayed_pair():
    factor = _counterexample_factor()
    basis, projection = window_kernel(factor, 1, 1)
    assert basis.dimension == 1 and projection == 1
    x1, x2 = _pair()
    assert check_window_solution(factor, 1, 1, {1: x1, 2: x2})
    coeffs = {}
    coeffs.update(field_to_coefficients(x1))
    coeffs.update(field_to_coefficients(x2))
    pair_vec = [coeffs.get(l, Fraction(0)) for l in basis.col_labels]
    stacked = [list(v) for v in basis.vectors]
    assert rank_of_vectors(stacked + [pair_vec]) == 1


def test_guard_catches_dropped_curl_couplings(monkeypatch):
    # the guard recomputes curl X - f X itself, so a coupling-selection bug
    # in the assembler cannot hide from it
    curl_rows = _assembly.curl_rows
    monkeypatch.setattr(
        _assembly, "curl_rows", lambda m, couplings, cs: curl_rows(m, [], cs)
    )
    with pytest.raises(AssertionError, match="substitution check"):
        window_kernel(TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -3)), 3, 1)


def test_single_degree_guard_catches_dropped_first_integral_rows(monkeypatch):
    # without <grad f2, X> = 0 the degree-1 kernel holds every linear
    # gradient field, which the operator check in kernel_single rejects
    monkeypatch.setattr(_assembly, "first_integral_rows", lambda *args: [])
    with pytest.raises(AssertionError, match="operator substitution check"):
        kernel_single(1, SigmaTriple(1, 1, -1))


def test_rank_certificate_catches_an_echelon_that_claims_every_column(monkeypatch):
    # an exact elimination that reports a pivot on every column would hide
    # the counterexample's kernel; the rows chosen mod p bound its rank
    echelon = linalg._echelon

    def every_column(rows):
        pivots = echelon(rows)
        for row in rows:
            for c in row:
                pivots.setdefault(c, {c: 1})
        return pivots

    monkeypatch.setattr(linalg, "_echelon", every_column)
    with pytest.raises(AssertionError, match="rank mismatch"):
        analyze(golden.counterexample_factor())
    # pinning X_1 to the pair's leading term is feasible; the same echelon
    # must not turn that into a silent False
    x1, _ = golden.counterexample_pair()
    with pytest.raises(AssertionError, match="rank mismatch"):
        forced_source_feasible(golden.counterexample_factor(), 1, 1, x1)


def test_forced_source_probe():
    factor = TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3))
    for l1, l2 in ((1, 0), (0, 1), (1, 1), (2, -3), (-1, 5)):
        pinned = lifted_field(3, 1) * l1 + lifted_field(3, 2) * l2
        assert not forced_source_feasible(factor, 3, 3, pinned)
    assert forced_source_feasible(factor, 3, 3, PolynomialVectorField.zero(3))
    with pytest.raises(ValueError):
        forced_source_feasible(factor, 3, 3, PolynomialVectorField.zero(4))


# ---------------------------------------------------------------------------
# epsilon scaling
# ---------------------------------------------------------------------------


def test_epsilon_zero_equals_cubic_free_window():
    factor = _counterexample_factor()
    stripped = TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1))
    scaled = factor.with_cubic_scaled
    assert assemble_window(scaled(0), 1, 1).matrix == assemble_window(stripped, 1, 1).matrix
    assert assemble_window(scaled(1), 1, 1).matrix == assemble_window(factor, 1, 1).matrix


def test_epsilon_requires_cubic_component():
    with pytest.raises(ValueError):
        TruncatedFactor.diagonal(1, SigmaTriple(1, 1, -1)).with_cubic_scaled(Fraction(1, 2))


def test_epsilon_sweep_projection_dimensions():
    factor = _counterexample_factor()
    dims = []
    for eps in (Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(0)):
        _, projection = window_kernel(factor.with_cubic_scaled(eps), 1, 1)
        dims.append(projection)
    assert dims == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# cascade analyzer
# ---------------------------------------------------------------------------


def test_same_sign_cascade_trivial_with_empty_risky_set():
    report = analyze(TruncatedFactor.diagonal(1, SigmaTriple(1, 2, 3)))
    assert report.verdict == VERDICT_TRIVIAL
    assert report.risky == ()


def test_resonant_cascade_with_quartic_tail_trivial():
    rng = random.Random(59)
    f4 = random_nonzero_poly(rng, 4)
    report = analyze(TruncatedFactor.diagonal(0, SigmaTriple(1, 1, -3), {4: f4}))
    assert report.verdict == VERDICT_TRIVIAL
    assert [r.degree for r in report.risky] == [3]
    assert report.risky[0].projection_dim == 0


def test_counterexample_cascade_inconclusive():
    report = analyze(_counterexample_factor())
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert [r.degree for r in report.risky] == [1]
    assert report.risky[0].projection_dim >= 1
    data = report.to_json()
    assert data["verdict"] == VERDICT_INCONCLUSIVE
    assert data["classification"]["risky_degrees"] == [1]
    assert data["risky"][0]["kernel"]
    assert data["sigma"] == ["1", "1", "-1"]


def test_cascade_requires_diagonal_quadric():
    bad = TruncatedFactor(
        constant=Fraction(1), components={2: P(2, {(2, 0, 0): 1, (1, 0, 1): 2})}
    )
    with pytest.raises(ValueError, match="diagonal Hessian"):
        analyze(bad)

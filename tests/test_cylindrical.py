"""Radial recurrence, closed-form series, and the Cartesian lift."""

from __future__ import annotations

from fractions import Fraction

import pytest

from beltrami_jets import (
    HomogeneousPolynomial,
    bessel_series_coefficients,
    curl,
    cylindrical,
    div,
    scale_mul,
    solve_cylindrical_recurrence,
    verify_beltrami_cylindrical,
)
from beltrami_jets.cylindrical import (
    NU_MINUS_ONE_THIRD,
    NU_PLUS_TWO_THIRDS,
    RadialSeries,
    cartesian_lift,
)

P = HomogeneousPolynomial


def test_recurrence_first_coefficients():
    u, v = solve_cylindrical_recurrence(6)
    assert v.coefficient(0) == 1
    assert u.coefficient(3) == Fraction(1, 4)
    assert v.coefficient(6) == Fraction(-1, 24)
    for k in range(6):
        if k not in (0, 3):
            assert u.coefficient(k) == 0
        if k not in (0, 6):
            assert v.coefficient(k) == 0


def test_recurrence_support_is_multiples_of_three():
    u, v = solve_cylindrical_recurrence(30)
    assert all(k % 6 == 3 for k in u.coeffs)
    assert all(k % 6 == 0 for k in v.coeffs)


def test_recurrence_order_validation():
    with pytest.raises(ValueError):
        solve_cylindrical_recurrence(2)


def test_bessel_leading_terms():
    z_branch = bessel_series_coefficients(NU_MINUS_ONE_THIRD, 0)
    assert z_branch.coeffs == {0: Fraction(1)}
    phi_branch = bessel_series_coefficients(NU_PLUS_TWO_THIRDS, 3)
    assert phi_branch.coeffs == {3: Fraction(1, 4)}


def test_bessel_term_ratio():
    z_branch = bessel_series_coefficients(NU_MINUS_ONE_THIRD, 6)
    assert z_branch.coefficient(6) / z_branch.coefficient(0) == Fraction(-1, 24)
    phi_branch = bessel_series_coefficients(NU_PLUS_TWO_THIRDS, 9)
    assert phi_branch.coefficient(9) / phi_branch.coefficient(3) == Fraction(-1, 60)


def test_bessel_branch_validation():
    with pytest.raises(ValueError):
        bessel_series_coefficients("minus_two_thirds", 6)


def test_recurrence_equals_bessel_expansion_through_order_thirty():
    u, v = solve_cylindrical_recurrence(30)
    assert u.agrees_with(bessel_series_coefficients(NU_PLUS_TWO_THIRDS, 30), 30)
    assert v.agrees_with(bessel_series_coefficients(NU_MINUS_ONE_THIRD, 30), 30)


def test_cartesian_lift_low_degrees():
    u, v = solve_cylindrical_recurrence(9)
    fields = cartesian_lift(u, v, 6)
    assert fields[0].components == (P.zero(0), P.zero(0), P(0, {(0, 0, 0): 1}))
    quarter = Fraction(1, 4)
    assert fields[3].components == (
        P(3, {(2, 1, 0): -quarter, (0, 3, 0): -quarter}),
        P(3, {(3, 0, 0): quarter, (1, 2, 0): quarter}),
        P.zero(3),
    )
    factor = P(2, {(2, 0, 0): 1, (0, 2, 0): 1})
    assert (curl(fields[3]) - scale_mul(factor, fields[0])).is_zero()
    assert div(fields[3]).is_zero()


def test_cartesian_lift_support_validation():
    bad_u = RadialSeries(4, {4: Fraction(1)})
    ok_v = RadialSeries(4, {0: Fraction(1)})
    with pytest.raises(ValueError):
        cartesian_lift(bad_u, ok_v, 4)
    with pytest.raises(ValueError):
        cartesian_lift(RadialSeries(4, {3: Fraction(1)}), RadialSeries(4, {3: Fraction(1)}), 4)


def test_radial_series_validation():
    with pytest.raises(ValueError):
        RadialSeries(3, {4: Fraction(1)})
    series = RadialSeries(3, {2: Fraction(0), 3: Fraction(2)})
    assert series.coeffs == {3: Fraction(2)}


def test_full_verification_report():
    report = verify_beltrami_cylindrical(12)
    assert report.recurrence_ok and report.bessel_match_ok and report.cartesian_ok
    assert report.to_json() == {
        "order": 12,
        "recurrence_ok": True,
        "bessel_match_ok": True,
        "cartesian_ok": True,
    }
    with pytest.raises(ValueError):
        verify_beltrami_cylindrical(5)


@pytest.mark.parametrize("wrong_degree", [0, 3, 12])
def test_cartesian_check_sees_every_lifted_degree(monkeypatch, wrong_degree):
    """The check keeps only a window of lifted components; a wrong one still fails it."""
    lift = cylindrical._lift_degree

    def doubled_at_wrong_degree(u, v, k):
        field = lift(u, v, k)
        return field * 2 if k == wrong_degree else field

    monkeypatch.setattr(cylindrical, "_lift_degree", doubled_at_wrong_degree)
    report = verify_beltrami_cylindrical(12)
    assert report.recurrence_ok and report.bessel_match_ok
    assert not report.cartesian_ok

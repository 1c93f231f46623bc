"""Unit tests for the exact rational-function layer."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcascade.ratfun import ONE, Poly, RatU, solve_exact

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeff_lists = st.lists(small_fracs, min_size=1, max_size=5)


def poly_from(coeffs):
    return Poly(coeffs)


def test_poly_exact_evaluation():
    p = Poly([1, -2, 1])  # (u - 1)^2 ascending
    assert p(Fraction(3)) == Fraction(4)
    assert p(Fraction(1, 2)) == Fraction(1, 4)
    assert p.eval_float(3.0) == pytest.approx(4.0)


def test_poly_deflate_at_one():
    p = Poly([1, -2, 1])
    q, mult = p.deflate(1)
    assert mult == 2
    assert q(Fraction(7)) == Fraction(1)


@given(coeff_lists, coeff_lists)
def test_poly_addition_matches_pointwise(ca, cb):
    pa, pb = poly_from(ca), poly_from(cb)
    u = Fraction(3, 2)
    assert (pa + pb)(u) == pa(u) + pb(u)
    assert (pa * pb)(u) == pa(u) * pb(u)
    assert (pa - pb)(u) == pa(u) - pb(u)


@given(coeff_lists)
def test_poly_derivative_matches_symbolic(ca):
    p = poly_from(ca)
    u = Fraction(2, 3)
    h = Fraction(1, 10**9)
    numeric = (p(u + h) - p(u - h)) / (2 * h)
    # Central difference of a polynomial is exact up to the cubic term.
    assert abs(numeric - p.deriv()(u)) < Fraction(1, 10**15)


def test_poly_positive_roots_sturm_count():
    assert Poly([6, -5, 1]).positive_roots() == 2      # (u-2)(u-3)
    assert Poly([2, 3, 1]).positive_roots() == 0       # (u+1)(u+2)
    assert Poly([1, -1, 1]).positive_roots() == 0      # u^2-u+1, complex
    assert Poly([0, 0, 6, -5, 1]).positive_roots() == 2  # u^2 stripped
    assert Poly([4, -4, 1]).positive_roots() == 1      # double root u=2


def test_ratu_positive_off_one():
    assert _delta_gen().d2x().positive_off_one()
    assert _delta_gen().positive_off_one()             # (u-1)^2 (u+1)^2/...
    assert not (-1 * _delta_gen()).positive_off_one()  # N(1), D(1) differ
    assert not RatU(Poly([-1, 1])).positive_off_one()  # m = 1 is odd
    assert not RatU(Poly([6, -5, 1])).positive_off_one()  # roots at 2, 3
    assert not RatU(ONE, Poly([6, -5, 1])).positive_off_one()  # poles


def _delta_gen():
    # (x - 1)^2 / (x + 1) written in u = sqrt(x): num (u-1)^2 (u+1)^2, den u^2+1.
    num = Poly([1, -2, 1]) * Poly([1, 2, 1])
    den = Poly([1, 0, 1])
    return RatU(num, den)


def test_ratu_matches_closed_form():
    g = _delta_gen()
    for x in (0.25, 0.5, 2.0, 9.0):
        assert g(x) == pytest.approx((x - 1.0) ** 2 / (x + 1.0), rel=1e-14)
    assert g.at_x(4) == Fraction(9, 5)
    assert g.limit_at_1() == 0


def test_ratu_cancellation_near_one():
    """Float evaluation stays accurate where (x-1)^m would cancel."""
    g = _delta_gen()
    for eps in (1e-8, -1e-8, 1e-12):
        x = 1.0 + eps
        exact = float(g.eval_mp(x, dps=50))
        got = g(x)
        if exact == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(exact, rel=1e-12)


def test_ratu_arithmetic_and_equality():
    g = _delta_gen()
    twice = 2 * g
    assert (twice - g - g).is_zero()
    assert twice == g + g
    quotient = twice / g
    assert quotient.limit_at_1() == 2
    scaled = Fraction(3, 4) * g
    assert scaled(2.0) == pytest.approx(0.75 * g(2.0), rel=1e-15)


def test_ratu_second_derivative_against_mpmath():
    g = _delta_gen()
    fpp = g.d2x()
    for x in (0.3, 0.9, 1.5, 4.0, 25.0):
        with mpmath.workdps(50):
            ref = mpmath.diff(
                lambda t: (t - 1) ** 2 / (t + 1), mpmath.mpf(x), 2)
        assert fpp(x) == pytest.approx(float(ref), rel=1e-12)


def test_ratio_limit_at_1():
    g = _delta_gen()
    assert g.ratio_limit_at_1(g) == 1
    assert (2 * g).ratio_limit_at_1(g) == 2


def test_solve_exact_recovers_coefficients():
    g = _delta_gen()
    h = g.d2x()
    target = Fraction(2, 3) * g + Fraction(-5, 7) * h
    coeffs = solve_exact([g, h], target)
    assert coeffs == [Fraction(2, 3), Fraction(-5, 7)]


def test_solve_exact_reports_unreachable_target():
    g = _delta_gen()
    unreachable = RatU(Poly([0, 0, 0, 0, 0, 1]))  # u^5: odd in u
    assert solve_exact([g], unreachable) is None


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=30)
def test_linear_combination_evaluates_linearly(p, q):
    g = _delta_gen()
    h = g.d2x()
    combo = p * g + q * h
    x = 2.5
    assert combo(x) == pytest.approx(p * g(x) + q * h(x), rel=1e-12, abs=1e-12)

"""Unit tests for the exact rational-function layer."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcascade import analysis, catalog
from divcascade.ratfun import ONE, Poly, RatU, UContext, solve_exact

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


def test_sum_has_the_form_of_the_undeflated_sum():
    # Addition keeps (u-1)^min(m) factored out.  The normalized result must
    # equal the one built from the undeflated numerators, so that float
    # evaluation of every sum keeps its bits.
    gens = [RatU(Poly([1, 2]), Poly([3, 1]), -2),
            RatU(Poly([5, 1]), Poly([1, 1]), -1),
            RatU(Poly([2, 0, 1]), ONE, 3), _delta_gen(), _delta_gen().d2x(),
            catalog.get("V1").fpp, catalog.get("D15").gen, RatU.zero()]
    for a in gens:
        for b in gens:
            an, ad = a._as_pair()
            bn, bd = b._as_pair()
            for got, num in ((a + b, an * bd + bn * ad),
                             (a - b, an * bd - bn * ad)):
                ref = RatU(num, ad * bd)
                assert (got.m, got.num, got.den) == (ref.m, ref.num, ref.den)


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


# -- float evaluation against the plain per-call formula --------------------

def _reference_horner(poly, u):
    acc = np.zeros_like(u) if isinstance(u, np.ndarray) else 0.0
    for c in reversed([float(c) for c in poly.coeffs]):
        acc = acc * u + c
    return acc


def _reference_call(gen, x):
    """sqrt, um1, Horner and um1 ** float(m), recomputed on every call."""
    arr = isinstance(x, np.ndarray)
    xv = x if arr else np.asarray(float(x))
    u = np.sqrt(xv)
    um1 = (xv - 1.0) / (u + 1.0)
    val = _reference_horner(gen.num, u) / _reference_horner(gen.den, u)
    if gen.m:
        with np.errstate(divide="ignore"):
            val = val * um1 ** float(gen.m)
    return val if arr else float(val)


def _reference_measure(measure, x):
    if measure.gen is not None:
        return _reference_call(measure.gen, x)
    if measure.id == "S":
        return catalog.sqrt_mean_fn(x)
    numer, partner = catalog._S_DIFFS[measure.id]
    return (_reference_call(numer, x)
            / (catalog.sqrt_mean_fn(x)
               + _reference_call(catalog._MEAN_GEN[partner], x)))


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _float_eval_ids():
    ids = list(catalog.all_ids())
    ids += [f"{fam}:{t}" for fam in catalog.FAMILY_IDS for t in (0, 4, 64)]
    ids += [f"topsoe:{t}" for t in (1, 4, 64)]
    ids += [f"Lt:{t}" for t in range(-8, 9)]
    return ids


def test_float_evaluation_is_bitwise_the_reference():
    a, b = analysis.sample_pairs(5_000, seed=21)
    x = np.concatenate([a / b, [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.25,
                                4.0, 1e-300, 1e300]])
    scalars = (1.0, 0.999, 1.001, 0.5, 3.0, 1e-6, 1e6, 1e-300, 1e300)
    ids = _float_eval_ids()
    assert len(ids) == 108 + 21 + 17
    with np.errstate(all="ignore"):
        for mid in ids:
            m = catalog.get(mid)
            assert _bits(m(x)) == _bits(_reference_measure(m, x)), mid
            for xs in scalars:
                got, ref = m(xs), _reference_measure(m, xs)
                assert type(got) is type(ref), mid
                assert _bits(got) == _bits(ref), (mid, xs)


def test_shared_context_reuses_the_power():
    x = np.array([0.5, 1.0, 2.0, 7.0])
    ctx = UContext(x)
    assert ctx.um1_pow(4) is ctx.um1_pow(4)
    assert _bits(ctx.um1_pow(4)) == _bits(ctx.um1 ** 4.0)
    for mid in ("D29", "D30", "W1", "D_SN", "S"):
        m = catalog.get(mid)
        assert _bits(m.eval_ctx(ctx)) == _bits(m(x)), mid

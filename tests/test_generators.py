"""Unit tests for the generated families and their exponential series."""

import itertools
import math
import struct
import sys
import time
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from divcascade import cascade, catalog, generators
from divcascade.ratfun import RatU

ratio = st.floats(min_value=0.2, max_value=5.0,
                  allow_nan=False, allow_infinity=False)

FAMILIES = ("Delta1", "Delta2", "K1", "K2", "Hgen", "Mnew")


def test_family_members_match_catalog():
    pair = (4.0, 1.0)
    for fid in FAMILIES:
        for t in range(5):
            via_fn = generators.family(fid, t, pair)
            via_catalog = catalog.get(f"{fid}:{t}").value(*pair)
            assert via_fn == pytest.approx(via_catalog, rel=1e-12), (fid, t)


@given(ratio)
@settings(max_examples=40)
def test_step_ratio_is_constant_in_t(r):
    pair = (r, 1.0)
    for fid in FAMILIES:
        q = generators.step_ratio(fid, pair)
        for t in range(4):
            cur = generators.family(fid, t, pair)
            nxt = generators.family(fid, t + 1, pair)
            assert nxt == pytest.approx(q * cur, rel=1e-11), (fid, t)


def test_exp_series_matches_closed_form():
    for fid in FAMILIES:
        for pair in [(1.5, 1.0), (3.0, 2.0), (0.4, 1.1)]:
            closed = generators.exp_representation(fid, pair)
            partial = generators.exp_series_partial(fid, pair, 30)
            assert partial == pytest.approx(closed, rel=1e-13), (fid, pair)


def test_exp_series_partial_is_monotone_in_n():
    pair = (3.0, 1.0)
    closed = generators.exp_representation("Delta1", pair)
    errs = [abs(generators.exp_series_partial("Delta1", pair, n) - closed)
            for n in (5, 10, 20, 30)]
    assert errs[0] > errs[-1]
    assert errs == sorted(errs, reverse=True)


def _every_step(family_id, start, last, pair):
    """The series partial sum through all its steps, none skipped."""
    term, r = generators._lead_and_ratio(family_id, start, pair)
    total = term
    for k in range(last - start):
        term *= r / (k + 1)
        total += term
    return float(total)


_SERIES_GRID = [10.0 ** e for e in (-300, -150, -20, -1, 0, 1, 20, 150, 300)]
_SERIES_GRID += [4.0, 1.0 + 1e-9]


@pytest.mark.parametrize("family_id, start", [
    *((fid, 0) for fid in generators.EXP_FORMS), ("Lt", -1)])
def test_a_series_that_stops_early_has_the_bits_of_every_step(family_id,
                                                               start):
    # The loop stops at a term of 0 or a sum of inf or NaN.
    for pair in itertools.product(_SERIES_GRID, repeat=2):
        for n in (0, 1, 7, 60, 700, 2000):
            got = (generators.exp_series_partial(family_id, pair, n)
                   if start == 0 else
                   generators.exp_L_series_partial(pair, n))
            want = _every_step(family_id, start, n, pair)
            assert struct.pack("<d", got) == struct.pack("<d", want), (
                pair, n)


@pytest.mark.parametrize("pair", [(4.0, 1.0), (1.0, 1.0), (1e300, 1e-300),
                                  (1e-300, 1e300), (1e6, 1.0)])
def test_a_series_of_a_huge_n_returns_at_once(pair):
    for fid in generators.EXP_FORMS:
        started = time.perf_counter()
        generators.exp_series_partial(fid, pair, 10**12)
        generators.exp_L_series_partial(pair, 10**12)
        assert time.perf_counter() - started < 0.1, fid


def test_L_series_offset_weights():
    """The L members sum with 1/(t+1)! weights from t = -1; the naive
    1/t! weighting from t = 0 produces the K-led closed form instead."""
    for pair in [(1.5, 1.0), (4.0, 1.0), (2.0, 5.0)]:
        a, b = pair
        arg = (a + b) / (2.0 * math.sqrt(a * b))
        shifted = generators.exp_L_series_partial(pair, 35, offset=True)
        assert shifted == pytest.approx(
            2.0 * catalog.get("delta").value(a, b) * math.exp(arg),
            rel=1e-12)
        assert generators.exp_L_representation(pair) == pytest.approx(
            shifted, rel=1e-12)
        naive = generators.exp_L_series_partial(pair, 35, offset=False)
        assert naive == pytest.approx(
            catalog.get("K").value(a, b) * math.exp(arg), rel=1e-12)


def test_display_mismatches_are_the_known_three():
    mismatched = {fid for fid in generators.EXP_FORMS
                  if not generators.display_is_series_limit(fid)}
    assert mismatched == {"Delta1", "K1", "Mnew"}


def test_witness_reconstruction_matches_analytic():
    for fid in generators.WITNESS_FORMS:
        for t in range(4):
            fpp = catalog.family_gen(fid, t).d2x()
            for x in (0.3, 1.5, 4.0):
                truth = float(fpp(x))
                recon = generators.witness_second_derivative(fid, x, t)
                assert recon == pytest.approx(truth, rel=1e-12), (fid, t, x)


def test_printed_witness_variants_deviate():
    # The corrupted printed forms exist for two families and differ from
    # the analytic second derivative away from x = 1.
    got = generators.witness_second_derivative("Delta1", 2.0, 2, printed=True)
    truth = generators.witness_second_derivative("Delta1", 2.0, 2)
    assert abs(got - truth) > 1e-3 * abs(truth)
    got_m = generators.witness_second_derivative("Mnew", 2.0, 2, printed=True)
    truth_m = generators.witness_second_derivative("Mnew", 2.0, 2)
    assert abs(got_m - truth_m) > 1e-3 * abs(truth_m)


_T_CALLS = {
    "family": lambda t: generators.family("Hgen", t, (2.0, 1.0)),
    "convexity_witness": lambda t: generators.convexity_witness("K1", 2.0, t),
    "witness_second_derivative":
        lambda t: generators.witness_second_derivative("K1", 2.0, t),
    "witness_fpp": lambda t: generators.witness_fpp("K1", t),
}


@pytest.mark.parametrize("name", sorted(_T_CALLS))
def test_t_must_be_an_integer(name):
    call = _T_CALLS[name]
    for t in (1.5, math.nan, math.inf, "2", None):
        with pytest.raises(ValueError, match="must be an integer"):
            call(t)
    assert call(2.0) == call(np.int64(2)) == call(np.float32(2.0)) == call(2)


def test_witness_helpers_reject_a_negative_t():
    # A t past the family's 64 is refused too: 10**400 used to build
    # ratio ** t without end.
    for name in ("convexity_witness", "witness_second_derivative",
                 "witness_fpp"):
        for t in (-1, 65, 10**400):
            with pytest.raises(ValueError, match=r"^t must be in 0\.\.64, "):
                _T_CALLS[name](t)


@pytest.mark.parametrize("pair", [
    (True, 2.0), (10**400, 2.0), (math.nan, 1.0), (0.0, 1.0), None, "ab",
    (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("call", [
    lambda pair: generators.step_ratio("Lt", pair),
    lambda pair: generators.family("Hgen", 2, pair),
    lambda pair: generators.exp_representation("K1", pair),
    lambda pair: generators.exp_L_series_partial(pair, 3),
], ids=["step_ratio", "family", "exp_representation",
        "exp_L_series_partial"])
def test_a_pair_is_two_positive_finite_reals(call, pair):
    # step_ratio("Lt", (True, 2)) used to give a value.
    with pytest.raises(ValueError, match=r"^pair \(a, b\) must be"):
        call(pair)


def test_envelopes_overflow_to_inf():
    pair = (1e6, 1e-6)      # inside the audit's sampling window
    assert generators.exp_representation("Delta1", pair) == math.inf
    assert generators.exp_L_representation(pair) == math.inf


def test_envelope_past_the_range_of_exp_keeps_a_finite_value():
    pair = (5.2e-15, 1e-20)
    lead = generators.family("Hgen", 0, pair)
    arg = generators.step_ratio("Hgen", pair)
    assert arg > math.log(sys.float_info.max)   # exp(arg) alone overflows
    with localcontext(Context(prec=40)):
        want = float(Decimal(lead) * Decimal(arg).exp())
    got = generators.exp_representation("Hgen", pair)
    assert math.isfinite(want)
    assert got == pytest.approx(want, rel=1e-12)


def test_witness_positive_on_grid():
    for fid in FAMILIES:
        for t in range(3):
            for x in (0.2, 0.9, 1.1, 7.0):
                assert generators.convexity_witness(fid, x, t) > 0.0


# -- The exact tables against sympy, an independent oracle -------------------
# Every form is a function of (a, b) taken at a = u^2, b = 1, so it is a
# rational function of u, and d/dx = d/du / (2u).

_u = sympy.Symbol("u", positive=True)
_a, _b = sympy.symbols("a b", positive=True)


def _at_u(expr):
    return expr.subs({_a: _u**2, _b: 1})


def _sym(form: RatU):
    """A RatU as a sympy rational function of u."""
    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * _u**i
                   for i, c in enumerate(p.coeffs))
    scale = sympy.Rational(form.scale.numerator, form.scale.denominator)
    return scale * (_u - 1) ** form.m * poly(form.num) / poly(form.den)


def _d2x(expr):
    def dx(e):
        return sympy.diff(e, _u) / (2 * _u)
    return dx(dx(expr))


def _same(x, y) -> bool:
    return sympy.cancel(x - y) == 0


_SQRT_STEP = (sympy.sqrt(_a) - sympy.sqrt(_b)) ** 2 / sympy.sqrt(_a * _b)
_SQUARE_STEP = (_a - _b) ** 2 / (_a * _b)
_TOPSOE_STEP = (_a - _b) ** 2 / (_a + _b) ** 2
_DELTA = (_a - _b) ** 2 / (_a + _b)
_K = (_a - _b) ** 2 / sympy.sqrt(_a * _b)

# The members as the paper's series print them: lead * step^t.
_MEMBERS = {
    "Delta1": lambda t: _DELTA * _SQRT_STEP**t,
    "Delta2": lambda t: _DELTA * _SQUARE_STEP**t,
    "K1": lambda t: _K * _SQRT_STEP**t,
    "K2": lambda t: _K * _SQUARE_STEP**t,
    "Hgen": lambda t: (sympy.sqrt(_a) - sympy.sqrt(_b)) ** 2 * _SQRT_STEP**t,
    "Mnew": lambda t: ((sympy.sqrt(_a) - sympy.sqrt(_b)) ** 4 / (_a + _b)
                       * _SQRT_STEP**t),
    "Lt": lambda t: ((_a - _b) ** 2 * (_a + _b) ** t
                     / (2**t * (_a * _b) ** sympy.Rational(t + 1, 2))),
    "topsoe": lambda t: _DELTA * _TOPSOE_STEP ** (t - 1),
}
_STEPS = {"Delta1": _SQRT_STEP, "K1": _SQRT_STEP, "Hgen": _SQRT_STEP,
          "Mnew": _SQRT_STEP, "Delta2": _SQUARE_STEP, "K2": _SQUARE_STEP,
          "Lt": (_a + _b) / (2 * sympy.sqrt(_a * _b)),
          "topsoe": _TOPSOE_STEP}


def test_step_ratios_against_sympy():
    assert set(generators.STEP_RATIOS) == set(_STEPS)
    for fid, step in _STEPS.items():
        table = _sym(generators.STEP_RATIOS[fid])
        assert _same(table, _at_u(step)), fid
        lo, hi = catalog.family_range(fid)
        start = max(generators.series_start(fid), lo)
        for t in range(start, start + 3):
            member = _at_u(_MEMBERS[fid](t))
            assert _same(member, _sym(catalog.family_gen(fid, t))), (fid, t)
            nxt = _at_u(_MEMBERS[fid](t + 1))
            assert _same(nxt / member, table), (fid, t)
        # Past the members above, and at both ends of the catalog's range.
        for t in {lo, min(9, hi), hi} - set(range(start, start + 3)):
            member = _at_u(_MEMBERS[fid](t))
            assert _same(member, _sym(catalog.family_gen(fid, t))), (fid, t)


def test_every_family_ratio_has_a_step_ratio_proved_equal_to_it():
    # topsoe's has no series row in the audit, so it is proved here.
    assert set(generators.STEP_RATIOS) == set(catalog.FAMILY_FORMS)
    for fid, (_, ratio) in catalog.FAMILY_FORMS.items():
        assert cascade.is_exact_combination(
            ((1, RatU(*ratio)),), ((1, generators.STEP_RATIOS[fid]),)), fid
    assert generators.step_ratio("topsoe", (3.0, 1.0)) == 0.25


def test_witness_factorizations_against_sympy():
    # t = 7 and 20 lie past the three values of t the audit's proof needs.
    for fid, form in generators.WITNESS_FORMS.items():
        step = _at_u(_STEPS[fid])
        has_printed = {"printed_witness", "printed_prefactor"} & form.keys()
        for t in (0, 1, 2, 3, 4, 7, 20):
            fpp = _d2x(_at_u(_MEMBERS[fid](t)))
            derived = sympy.cancel(fpp / (_sym(form["prefactor"]) * step**t))
            w0, w1, w2 = form["witness"]
            witness = w0 + w1 * t + w2 * (t * t)
            core = witness.deflate(0)[0].coeffs
            assert core == core[::-1], (fid, t)    # palindromic past u^k
            assert _same(derived, _sym(RatU(witness))), (fid, t)
            if t <= 4:      # the members the audit holds the misprints to
                printed = _sym(generators.witness_fpp(fid, t, printed=True))
                assert _same(printed, fpp) != bool(has_printed), (fid, t)


def test_witness_coefficients_prove_positivity_for_every_t():
    """With W0 != 0 and no negative coefficient in W0, W1 or W2, the
    witness W0 + t W1 + t^2 W2 is > 0 at every u > 0 for every t >= 0."""
    assert set(generators.WITNESS_FORMS) == set(FAMILIES)
    for fid in FAMILIES:
        w0, w1, w2 = generators.WITNESS_FORMS[fid]["witness"]
        assert not w0.is_zero(), fid
        assert all(c >= 0 for w in (w0, w1, w2) for c in w.coeffs), fid


def test_printed_w_second_derivatives_against_sympy():
    g = sympy.sqrt(_a * _b)
    n = (_a + g + _b) / 3
    r = 2 * (_a**2 + _a * _b + _b**2) / (3 * (_a + _b))
    c = (_a**2 + _b**2) / (_a + _b)
    ladder = {
        1: 2 * _DELTA, 2: sympy.Rational(24, 7) * (c - n),
        3: sympy.Rational(8, 3) * (c - g), 4: sympy.Rational(24, 5) * (r - g),
        5: 4 * (sympy.sqrt(_a) - sympy.sqrt(_b)) ** 2, 6: _K,
        7: (_a - _b) ** 2 * (_a + _b) / (2 * _a * _b),
        8: (_a**2 - _b**2) ** 2 / (4 * (_a * _b) ** sympy.Rational(3, 2)),
        9: (_a - _b) ** 2 * (_a + _b) ** 3 / (8 * (_a * _b) ** 2),
    }
    for i, w in ladder.items():
        fpp = _d2x(_at_u(w))
        assert _same(fpp, _sym(catalog.get(f"W{i}").fpp)), i
        assert _same(fpp, _sym(cascade.W_FPP_PRINTED[i])) == (i != 8), i

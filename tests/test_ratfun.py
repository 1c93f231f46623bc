"""Unit tests for the exact layer: rational functions of sqrt(x), r + t*S."""

import json
import math
import os
import subprocess
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divcascade import analysis, cascade, catalog, ratfun
from divcascade.ratfun import ONE, Poly, RatS, RatU, UContext, solve_exact

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeff_lists = st.lists(small_fracs, min_size=1, max_size=5)


def poly_from(coeffs):
    return Poly(coeffs)


def test_poly_exact_evaluation():
    p = Poly([1, -2, 1])  # (u - 1)^2 ascending
    assert p(Fraction(3)) == Fraction(4)
    assert p(Fraction(1, 2)) == Fraction(1, 4)


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


def test_poly_polya_degree_hand_cases():
    assert Poly([2, 3, 1]).polya_degree() == 0          # (u+1)(u+2)
    assert Poly([1, -1, 1]).polya_degree() == 1   # (1+u)(u^2-u+1) = 1+u^3
    assert Poly([6, -5, 1]).polya_degree() is None      # (u-2)(u-3)
    assert Poly([0, 0, 6, -5, 1]).polya_degree() is None  # u^2 stripped
    assert Poly([4, -4, 1]).polya_degree() is None      # double root u=2
    assert Poly([-2, -3, -1]).polya_degree() == 0       # one sign, negative
    assert Poly([]).polya_degree() is None              # vanishes everywhere


def test_polya_cap_errs_only_towards_unproved(monkeypatch):
    # u^2 - c*u + 1 has no real root for c < 2, but the N of its
    # certificate grows without bound as c -> 2.  Above the cap such a
    # polynomial is reported unproved, never proved.
    assert Poly([100, -193, 100]).polya_degree() == 55
    for p in (Poly([100, -194, 100]), Poly([1000, -1999, 1000])):
        assert _sympy_poly(p).count_roots() == 0
        assert p.polya_degree() is None
        assert not RatU(p).positive_off_one()
    monkeypatch.setattr(ratfun, "POLYA_CAP", 65)
    assert Poly([100, -194, 100]).polya_degree() == 65


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
        exact = float(g.eval_decimal(Decimal(x), Context(prec=50)))
        got = g(x)
        if exact == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(exact, rel=1e-12)


def test_ratu_arithmetic_and_equality():
    g = _delta_gen()
    twice = 2 * g
    zero = twice - g - g
    assert zero.is_zero()
    assert _bits(zero(np.array([0.5, 1.0, 2.0]))) == _bits(np.zeros(3))
    assert twice == g + g
    quotient = twice / g
    assert quotient.limit_at_1() == 2
    scaled = Fraction(3, 4) * g
    assert scaled(2.0) == pytest.approx(0.75 * g(2.0), rel=1e-15)
    one = RatU(Poly([1, 1]), Poly([1, 1]))    # (u + 1) / (u + 1)
    assert one == RatU(ONE) and hash(one) == hash(RatU(ONE))


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


def test_solve_exact_matches_both_parts_of_r_plus_t_s():
    g = _delta_gen()
    s = RatS(RatU.zero(), RatU(ONE))
    target = s * Fraction(3) + g * Fraction(-2)
    assert solve_exact([g, s], target) == [Fraction(-2), Fraction(3)]
    assert solve_exact([g], target) is None      # t part unmatched
    assert solve_exact([s], target) is None      # r part unmatched


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

def _reference_horner(poly, u, scale=1):
    """Horner over each exact coefficient scale * c, rounded once.

    The sum starts from the leading coefficient, so u = inf gives +-inf
    where a start from zero would give 0 * inf = NaN.
    """
    cs = [float(scale * Fraction(c)) for c in poly.coeffs] or [0.0]
    acc = np.full_like(u, cs[-1])
    for c in reversed(cs[:-1]):
        acc = acc * u + c
    return acc


def _reference_power(v, m):
    """v ** m by recursive squaring: v^m = (v^(m // 2))^2, times v if m is odd.

    Written apart from ``ratfun._power``'s loop over the bits, with the
    same products in the same order; a negative m is 1 / v^|m|.
    """
    if m < 0:
        with np.errstate(divide="ignore"):
            return 1.0 / _reference_power(v, -m)
    if m == 1:
        return v
    half = _reference_power(v, m // 2)
    return half * half * v if m % 2 else half * half


def _reference_call(gen, x):
    """sqrt, um1, Horner and um1 ** m, recomputed on every call."""
    arr = isinstance(x, np.ndarray)
    xv = x if arr else np.asarray(float(x))
    u = np.sqrt(xv)
    um1 = (xv - 1.0) / (u + 1.0)
    val = (_reference_horner(gen.num, u, gen.scale)
           / _reference_horner(gen.den, u))
    if gen.m:
        val = val * _reference_power(um1, gen.m)
    return val if arr else float(val)


def _p(*coeffs):
    return Poly(coeffs)


_UM1, _XP1, _XM1SQ = _p(-1, 1), _p(1, 0, 1), _p(-1, 0, 1) ** 2

# The conjugate forms that evaluated the six root-mean-square differences
# before they had an exact generator: numerator over (S + partner mean).
_S_DIFFS = {
    "D_SH": (RatU(_XM1SQ * _p(1, 0, 4, 0, 1), 2 * _XP1 * _XP1), "H"),
    "D_SG": (RatU(_XM1SQ, _p(2)), "G"),
    "D_SN": (RatU(_UM1 * _UM1 * _p(7, 10, 7), _p(18)), "N"),
    "D_SA": (RatU(_XM1SQ, _p(4)), "A"),
    "D_SR": (RatU(_XM1SQ * _p(1, 0, 4, 0, 1), 18 * _XP1 * _XP1), "R"),
    "D_CS": (RatU(_XM1SQ * _p(1, 0, 0, 0, 1), 2 * _XP1 * _XP1), "C"),
}


def _reference_sqrt_mean(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt((x * x + 1.0) / 2.0)


def _reference_measure(measure, x):
    if isinstance(measure.gen, RatU):
        return _reference_call(measure.gen, x)
    if measure.id == "S":
        val = _reference_sqrt_mean(x)
    else:
        numer, partner = _S_DIFFS[measure.id]
        val = (_reference_call(numer, x)
               / (_reference_sqrt_mean(x)
                  + _reference_call(catalog.get(partner).gen, x)))
    # Every measure returns a Python float for a scalar x.
    return val if isinstance(x, np.ndarray) else float(val)


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _same_value(got, ref):
    """Bitwise where ref is finite; else by class: NaN, +inf or -inf.

    IEEE 754 leaves a NaN's sign and payload open: numpy's 0/0 on x86
    is the negative default NaN, and ``math.nan`` is positive.
    """
    if math.isfinite(ref):
        return _bits(got) == _bits(ref)
    return (math.isnan(got) and math.isnan(ref)) or got == ref


def _float_eval_ids():
    ids = list(catalog.all_ids())
    ids += [f"{fam}:{t}" for fam in catalog.FAMILY_IDS for t in (0, 4, 64)]
    ids += [f"topsoe:{t}" for t in (1, 4, 64)]
    ids += [f"Lt:{t}" for t in range(-8, 9)]
    return ids


def test_float_evaluation_is_bitwise_the_reference():
    a, b = analysis.sample_pairs(5_000, seed=21)
    x = np.concatenate([a / b, [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.25,
                                4.0, 1e-300, 1e300, 0.0, 5e-324, np.inf]])
    scalars = (1.0, 0.999, 1.001, 0.5, 3.0, 1e-6, 1e6, 1e-300, 1e300,
               0.0, 5e-324, math.inf)
    ids = _float_eval_ids()
    assert len(ids) == 108 + 21 + 17
    with np.errstate(all="ignore"):
        for mid in ids:
            m = catalog.get(mid)
            assert _bits(m(x)) == _bits(_reference_measure(m, x)), mid
            # A scalar has the bits of the array value at the same x.
            for xs in scalars:
                got = m(xs)
                ref = float(_reference_measure(m, np.array([xs]))[0])
                assert type(got) is type(ref), mid
                assert _same_value(got, ref), (mid, xs, got, ref)
                assert _same_value(m(np.asarray(xs)), ref), (mid, xs)


# Runs of zeros below a lead of 1, -1 or another integer, with a constant
# term that is zero or not; u at zero, the subnormals, the ends of the
# double range, inf and sampled values.
_coefficients = st.tuples(
    st.lists(st.one_of(st.just(0), st.integers(-9, 9)), max_size=10),
    st.sampled_from([1, -1, 2, -3, 7]))
_EDGE_U = [0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf]


@given(_coefficients, st.sampled_from([1, Fraction(1, 3), Fraction(-5, 7)]),
       st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1,
                max_size=8))
@example(([0, 0, 0, 0], 1), 1, [2.0])          # u^4
@example(([1, 0], 1), 1, [2.0])                # 1 + u^2
@example(([0], 1), 1, [2.0])                   # u
@example(([], -3), 1, [2.0])                   # a constant
@example(([], 0), 1, [2.0])                    # the zero polynomial
@settings(max_examples=200, deadline=None)
def test_horner_plan_is_bitwise_the_textbook_sum(coeffs, scale, sampled):
    below, lead = coeffs
    poly = Poly([*below, lead])
    u = np.array(_EDGE_U + sampled)
    floats = [float(scale * Fraction(c)) for c in poly.coeffs]
    plan = ratfun._plan(floats)
    with np.errstate(all="ignore"):
        ref = _reference_horner(poly, u, scale)
        got = ratfun._horner(plan, u)
        assert got.tobytes() == ref.tobytes()
        # A scalar u has the bits of the array element.
        for k, uk in enumerate(u.tolist()):
            assert _bits(ratfun._horner(plan, uk)) == _bits(ref[k]), uk


class _Claim:
    """A claim whose values are fn(ctx), failing above 0."""

    terms, tol = (), 0.0

    def __init__(self, fn):
        self.values = fn


def _compiled(fn):
    """The steps a scan compiles fn(ctx) into, each as (ufunc, its
    register, its operands' registers or floats): each value's making
    but that of a and b, which the scan draws into registers 0 and 1."""
    (_, steps, _), = analysis._Program([_Claim(fn)]).segments
    return steps


def _horner_ops(coeffs):
    """The array operations of the planned Horner sum: its compiled
    steps past x = a/b and u = sqrt(x).  Its value is checked at a few
    u."""
    plan = ratfun._plan([float(c) for c in coeffs])
    u = np.array([0.5, 2.0, 3.0])
    ref = _reference_horner(Poly(coeffs), u)
    assert ratfun._horner(plan, u).tobytes() == ref.tobytes(), coeffs
    steps = _compiled(lambda ctx: ratfun._horner(plan, ctx.u))
    assert [step[0] for step in steps[:2]] == [np.divide, np.sqrt]
    return len(steps) - 2


def test_horner_plan_skips_the_zero_coefficients():
    assert _horner_ops([0, 0, 0, 0, 1]) == 4          # u^4: 9 unplanned
    assert _horner_ops([1, 0, 1]) == 2                # 1 + u^2: 5
    for d in range(1, 9):                             # 2d + 1 unplanned
        assert _horner_ops([3, -1, 4, 1, -5, 9, 2, -6, 5][:d] + [2]) == 2 * d
        assert _horner_ops(list(range(1, d + 1)) + [-7]) == 2 * d


def test_a_constant_numerator_divides_into_the_denominators_array():
    x = np.array([0.5, 1.0, 2.0, 7.0])
    r = RatU(Poly([3]), Poly([1, 1]))   # 3 / (1 + u)
    steps = _compiled(r.eval_ctx)
    # x, u, the denominator u + 1 and 3 / (u + 1) in the denominator's
    # register: no fill of the constant, and um1 is not formed.
    x_reg, u_reg, den = steps[0][1], steps[1][1], steps[2][1]
    assert steps == [(np.divide, x_reg, 0, 1), (np.sqrt, u_reg, x_reg),
                     (np.add, den, u_reg, 1.0), (np.divide, den, 3.0, den)]
    val = r.eval_ctx(UContext(x))
    assert _bits(val) == _bits(np.divide(3.0, np.sqrt(x) + 1.0))
    for xs in x.tolist():
        assert _bits(r(xs)) == _bits(3.0 / (math.sqrt(xs) + 1.0))


def test_a_constant_polynomial_fills_one_register():
    # A constant's array is one fill step, +2.0 into its register; u,
    # which nothing reads, is not kept.
    (op, _, value), = _compiled(lambda ctx: ratfun._horner((2.0, ()), ctx.u))
    assert (op, value) == (np.positive, 2.0)
    u = np.array([0.5, 1.0, 2.0])
    assert _bits(ratfun._horner((2.0, ()), u)) == _bits(np.full(3, 2.0))


def test_shared_context_reuses_the_power():
    x = np.array([0.5, 1.0, 2.0, 7.0])
    ctx = UContext(x)
    assert ctx.um1_pow(4) is ctx.um1_pow(4)
    assert _bits(ctx.um1_pow(4)) == _bits(_reference_power(ctx.um1, 4))
    for mid in ("D29", "D30", "W1", "D_SN", "S"):
        m = catalog.get(mid)
        assert _bits(m.eval_ctx(ctx)) == _bits(m(x)), mid


def test_an_integer_array_has_the_bits_of_the_equal_float_array():
    # x * x of an int64 array wraps above 3.04e9; a context holds an
    # array x as float64.
    x = np.array([1, 2, 3, 1000, 3 * 10**9, 7 * 10**9, 2**40])
    ids = catalog.all_ids()
    assert len(ids) == 108
    with np.errstate(all="ignore"):
        for mid in ids:
            m = catalog.get(mid)
            assert _bits(m(x)) == _bits(m(x.astype(np.float64))), mid
    assert catalog.get("S")(np.array([7 * 10**9]))[0] == pytest.approx(
        7e9 / math.sqrt(2.0), rel=1e-15)
    assert UContext(np.float32([0.1])).x.dtype == np.float64


def test_a_context_keeps_x_and_forms_u_and_um1():
    x = np.array([0.5, 1.0, 2.0, 7.0])
    ctx = UContext(x)
    assert ctx.x is x
    ref = UContext(x.copy())
    assert _bits(ctx.u) == _bits(np.sqrt(x))
    assert _bits(ctx.um1) == _bits((x - 1.0) / (np.sqrt(x) + 1.0))
    assert _bits(ctx.um1_pow(3)) == _bits(ref.um1_pow(3))
    # Nothing it formed writes into x.
    assert x.tolist() == [0.5, 1.0, 2.0, 7.0]


# -- binary powering against exact powers ----------------------------------

def _within_gamma(p, v, m, vm=None):
    """|p - v^m| <= gamma_(m-1) |v^m|, exactly, with v^m a normal double.

    gamma_k = k u / (1 - k u) with u = 2^-53 is Higham's bound for a
    product of k + 1 doubles.  The comparison runs on the integers of the
    dyadic fractions p = P / 2^j and v^m = N^m / 2^(k m); ``vm`` may pass
    N^m in.  Returns None when v^m is not a normal double, where underflow
    or overflow voids the bound.
    """
    n, d = v.as_integer_ratio()
    big = n ** m if vm is None else vm
    if big == 0:
        return p == 0.0
    shift = (d.bit_length() - 1) * m            # v^m = big / 2^shift
    if not -1022 <= big.bit_length() - 1 - shift <= 1022:
        return None
    pn, pd = p.as_integer_ratio()
    j = pd.bit_length() - 1
    gap = abs((pn << shift) - (big << j))
    return gap * (2**53 - (m - 1)) <= (m - 1) * (abs(big) << j)


def test_um1_pow_is_within_the_error_bound_of_binary_powering():
    rng = np.random.default_rng(7)
    x = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 2_000),
                        1.0 + rng.uniform(-0.05, 0.05, 1_000)])
    ctx = UContext(x)
    um1 = [float(v) for v in ctx.um1]
    nums = [v.as_integer_ratio()[0] for v in um1]
    vms = [1] * len(um1)
    checked = 0
    for m in range(1, 133):
        vms = [vm * n for vm, n in zip(vms, nums)]
        for v, p, vm in zip(um1, ctx.um1_pow(m).tolist(), vms):
            ok = _within_gamma(p, v, m, vm)
            assert ok is not False, (v, m, p)
            checked += ok is True
    assert checked > 0.9 * len(um1) * 132


@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 132))
@settings(max_examples=300)
def test_scalar_um1_pow_is_within_the_error_bound(x, m):
    ctx = UContext(x)
    assert _within_gamma(ctx.um1_pow(m), ctx.um1, m) is not False


# -- the same bits on every SIMD width -------------------------------------

# Pairs from exact ldexp, a quarter of them within 2^-3..2^-42 of the
# diagonal; a digest of each measure's values over them.
_DIGESTS = """
import hashlib, json
import numpy as np
from divcascade import catalog
k = np.arange(4096)
a = np.ldexp(1.0 + (k * 2654435761 % 2**20) / 2.0**20, k * 7919 % 81 - 40)
b = np.ldexp(1.0 + (k * 40503 % 2**20) / 2.0**20, k * 104729 % 81 - 40)
b[::4] = a[::4] * (1.0 + np.ldexp(1.0, -(k[::4] % 40) - 3))
ids = catalog.all_ids() + ["Hgen:64", "Mnew:4", "Lt:-8", "topsoe:64"]
with np.errstate(all="ignore"):
    print(json.dumps({mid: hashlib.sha256(
        catalog.get(mid).value(a, b).tobytes()).hexdigest() for mid in ids}))
"""


def _digests(**env):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src), **env), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_values_do_not_depend_on_numpy_cpu_dispatch():
    # Without AVX-512 kernels, as on an AVX2-only CPU.  numpy's SIMD pow
    # rounded apart between the two; +, -, *, / and sqrt do not.
    default = _digests()
    assert len(default) == 108 + 4
    portable = _digests(NPY_DISABLE_CPU_FEATURES="X86_V4")
    assert [mid for mid in default if default[mid] != portable[mid]] == []


# -- r + t*S: the root-mean-square mean and its six differences --------------

_S_IDS = ("S", "D_SH", "D_SG", "D_SN", "D_SA", "D_SR", "D_CS")


def _sympy_means(x):
    root = sympy.sqrt(x)
    return {"H": 2 * x / (x + 1), "G": root, "N": (x + root + 1) / 3,
            "A": (x + 1) / 2, "R": 2 * (x**2 + x + 1) / (3 * (x + 1)),
            "S": sympy.sqrt((x**2 + 1) / 2), "C": (x**2 + 1) / (x + 1)}


def test_root_mean_square_forms_against_sympy():
    x = sympy.Symbol("x", positive=True)
    means = _sympy_means(x)
    points = [Fraction(1, 7), Fraction(1, 2), Fraction(999, 1000),
              Fraction(1001, 1000), Fraction(3), Fraction(50)]
    ctx = Context(prec=50)
    for mid in _S_IDS:
        expr = means[mid] if mid == "S" else means[mid[2]] - means[mid[3]]
        m = catalog.get(mid)
        for form, oracle in ((m.gen, expr), (m.fpp, sympy.diff(expr, x, 2))):
            at_one = sympy.nsimplify(sympy.simplify(oracle.subs(x, 1)))
            assert form.limit_at_1() == Fraction(str(at_one)), mid
            for q in points:
                xv = ctx.divide(Decimal(q.numerator), q.denominator)
                ref = Decimal(str(oracle.subs(x, sympy.Rational(str(xv)))
                                  .evalf(60)))
                got = form.eval_decimal(xv, ctx)
                assert abs(got - ref) <= Decimal("1e-35") * abs(ref), (
                    mid, q)


def test_root_mean_square_sign_proofs_and_negative_controls():
    gens = catalog._MEAN_GEN
    s = gens["S"]
    for p in "HGNAR":
        assert (s - gens[p]).positive_off_one(), p
        assert not (gens[p] - s).positive_off_one(), p   # wrong-signed S
    assert (gens["C"] - s).positive_off_one()
    assert not (s - gens["C"]).positive_off_one()
    convex = {mid: catalog.get(mid).fpp.positive_off_one()
              for mid in _S_IDS[1:]}
    assert convex == {"D_SH": True, "D_SG": True, "D_SN": True,
                      "D_SA": True, "D_SR": False, "D_CS": True}
    assert (s - s).is_zero() and not s.is_zero()
    assert cascade.is_exact_combination([(1, "D_SA")], [(1, "S"), (-1, "A")])
    assert not cascade.is_exact_combination([(1, "S")], [(1, "R")])


def test_conjugate_only_where_the_signs_are_opposite():
    # f''_{D_SG} = S'' - G'' has r > 0 and t S > 0; its conjugate would be
    # 0/0 at x = 1, so it is evaluated directly.
    fpp = catalog.get("D_SG").fpp
    assert fpp.limit_at_1() == Fraction(1, 2)
    assert fpp(1.0) == 0.5
    assert np.all(np.isfinite(fpp(np.array([1.0, 1.0 + 2.0**-52]))))


# -- the integer layer against sympy, an independent oracle ------------------

_u = sympy.Symbol("u", positive=True)
_FORM_IDS = list(catalog.all_ids()) + [
    f"{fam}:{t}" for fam in catalog.FAMILY_IDS for t in range(5)]


def _sympy_poly(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], _u)


def _sympy_form(f):
    scale = sympy.Rational(f.scale.numerator, f.scale.denominator)
    return (scale * (_u - 1) ** f.m * _sympy_poly(f.num).as_expr()
            / _sympy_poly(f.den).as_expr())


def _sympy_positive_roots(p):
    """sympy's count of distinct roots in u > 0, with u = 0 stripped."""
    k = next(i for i, c in enumerate(p.coeffs) if c != 0)
    return _sympy_poly(Poly(p.coeffs[k:])).count_roots(0, None)


def _rational_parts(form):
    """The RatU forms a sign proof about ``form`` certifies."""
    parts = [form] if isinstance(form, RatU) else [form.r, form.t, form._norm()]
    return [p for p in parts if not p.is_zero()]


def test_polya_certifies_catalog_parts_exactly_when_root_free():
    for mid in _FORM_IDS:
        for part in _rational_parts(catalog.get(mid).fpp):
            for p in (part.num, part.den):
                assert ((p.polya_degree() is not None)
                        == (_sympy_positive_roots(p) == 0)), mid


@given(st.lists(st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3]),
                min_size=2, max_size=9))
@example([-2, 2, 0, 0, 2])        # 2u^4 + 2u - 2: one root, at 0.72
@settings(max_examples=300)
def test_polya_never_certifies_a_polynomial_with_a_positive_root(coeffs):
    # Sparse coefficients give polynomials with roots in u > 0, double
    # roots and root-free ones alike.  A certificate never covers a root,
    # and its N is the smallest that sympy's expansion confirms.
    p = Poly(coeffs)
    n = p.polya_degree()
    if n is not None:
        assert _sympy_positive_roots(p) == 0
        assert _one_sign_after(p, n) and not (n and _one_sign_after(p, n - 1))


def _one_sign_after(p, n):
    """Whether sympy's (1 + u)^n * p has nonzero coefficients of one sign."""
    cs = sympy.Poly((1 + _u) ** n * _sympy_poly(p).as_expr(), _u).coeffs()
    return all(c > 0 for c in cs) or all(c < 0 for c in cs)


def test_second_derivatives_match_sympy_diff():
    # The S forms are checked against sympy above.  d/dx = d/du / (2u),
    # taken on sympy polynomial pairs and compared crosswise.
    def pair(form):
        return [sympy.Poly(e, _u) for e in sympy.fraction(
            sympy.together(_sympy_form(form)))]

    for mid in _FORM_IDS:
        m = catalog.get(mid)
        if isinstance(m.gen, RatU):
            n, d = pair(m.gen)
            for _ in range(2):
                n, d = (n.diff(_u) * d - n * d.diff(_u),
                        d * d * sympy.Poly(2 * _u, _u))
            fn, fd = pair(m.fpp)
            assert n * fd == fn * d, mid


def test_beta_proof_gaps_match_sympy_cancel():
    parts = cascade.theorem_parts()
    assert len(parts) == 53
    for part in parts:
        small = catalog.get(part.small).fpp
        big = catalog.get(part.big).fpp
        gap = cascade._claim_sum(((part.beta, big),), ((1, small),))
        beta = sympy.Rational(part.beta.numerator, part.beta.denominator)
        want = sympy.cancel(beta * _sympy_form(big) - _sympy_form(small))
        assert sympy.cancel(_sympy_form(gap)) == want, part.id


_RATS_IDS = [i for i in catalog.all_ids()
             if isinstance(catalog.get(i).gen, RatS)]
_RATU_IDS = [i for i in catalog.all_ids() if i not in _RATS_IDS]
_claim_terms = st.lists(st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.one_of(st.sampled_from(_RATU_IDS), st.sampled_from(_RATS_IDS))),
    min_size=2, max_size=4)


def _sympy_parts(form):
    """(r, t) of r + t*S as sympy expressions in u; a ``RatU`` has t = 0."""
    r, t = (form.r, form.t) if isinstance(form, RatS) else (form, RatU.zero())
    return _sympy_form(r), _sympy_form(t)


@settings(max_examples=60, deadline=None)
@given(terms=_claim_terms, split=st.integers(0, 4), mirror=st.booleans())
@example(terms=[(Fraction(2, 3), "D_SA"), (Fraction(2, 3), "S"),
                (Fraction(-2, 3), "A")], split=1, mirror=False)
@example(terms=[(Fraction(1), "D_AG"), (Fraction(1), "A"),
                (Fraction(-1), "G")], split=1, mirror=False)
def test_claim_sums_match_sympy_cancel(terms, split, mirror):
    # The claim is plus - minus.  A mirrored one has the same terms on both
    # sides, in reverse order, so zero sums are drawn as well as others.
    plus, minus = terms[:split], terms[split:]
    if mirror:
        plus, minus = terms, terms[::-1]
    r = t = 0
    for sign, side in ((1, plus), (-1, minus)):
        for c, mid in side:
            k = sign * sympy.Rational(c.numerator, c.denominator)
            pr, pt = _sympy_parts(catalog.get(mid).gen)
            r, t = r + k * pr, t + k * pt
    want = [sympy.cancel(r), sympy.cancel(t)]
    got = _sympy_parts(cascade._claim_sum(plus, minus))
    assert [sympy.cancel(g - w) for g, w in zip(got, want)] == [0, 0]
    assert cascade.is_exact_combination(plus, minus) == (want == [0, 0])


def test_exact_forms_hold_integers_and_give_fractions():
    for mid in _FORM_IDS:
        m = catalog.get(mid)
        for form in (m.gen, m.fpp):
            for part in _rational_parts(form):
                for p in (part.num, part.den):
                    assert all(type(c) is int for c in p.coeffs), mid
                assert type(part.scale) is Fraction, mid
            assert type(form.limit_at_1()) is Fraction, mid
        if isinstance(m.gen, RatU):
            assert type(m.gen.at_x(4)) is Fraction, mid
            assert type(m.gen.at_x(1, 9)) is Fraction, mid
    for part in cascade.theorem_parts():
        ratio = catalog.get(part.small).fpp.ratio_limit_at_1(
            catalog.get(part.big).fpp)
        assert type(ratio) is Fraction and ratio == part.beta, part.id

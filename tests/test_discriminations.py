"""Unit tests for base discriminations and the unifying L_t family."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcascade import catalog, discriminations
from divcascade.ratfun import ONE, RatU, U, X


def test_base_ids_and_values():
    ids = discriminations.base_ids()
    assert set(ids) == {"delta", "h", "K", "psi", "F", "L"}
    assert discriminations.base("delta", 4.0, 1.0) == pytest.approx(1.8)
    assert discriminations.base("psi", 4.0, 1.0) == pytest.approx(11.25)
    with pytest.raises(KeyError):
        discriminations.base("V1", 4.0, 1.0)


@pytest.mark.parametrize("pair", [(-1.0, 1.0), (math.nan, 1.0),
                                  (1.0, math.inf), (0.0, 1.0), (True, 2),
                                  (2.0, np.True_), (10**400, 2.0), ("4", 1.0)])
def test_base_rejects_a_pair_that_is_not_positive_finite(pair):
    # True used to read as 1.0 and 10**400 to raise OverflowError.
    with pytest.raises(ValueError, match=r"^pair \(a, b\) must be"):
        discriminations.base("delta", *pair)


def test_Lt_reproduces_scaled_bases():
    pair = (4.0, 1.0)
    expect = [(-1, 2 * 1.8), (0, 4.5), (1, 11.25 / 2),
              (2, 14.0625 / 2), (3, 70.3125 / 8)]
    for t, val in expect:
        assert discriminations.L_t(t, pair) == pytest.approx(val, rel=1e-14)


def test_Lt_range_guard():
    lo, hi = discriminations.LT_T_RANGE
    assert discriminations.L_t(lo, (2.0, 1.0)) > 0
    assert discriminations.L_t(hi, (2.0, 1.0)) > 0
    with pytest.raises(ValueError):
        discriminations.L_t(lo - 1, (2.0, 1.0))
    with pytest.raises(ValueError):
        discriminations.L_t(hi + 1, (2.0, 1.0))


@pytest.mark.parametrize("t", [1.5, -0.5, math.nan, math.inf, "1", None])
def test_Lt_rejects_a_t_that_is_not_an_integer(t):
    with pytest.raises(ValueError, match="must be an integer"):
        discriminations.L_t(t, (2.0, 1.0))
    want = discriminations.L_t(2, (2.0, 1.0))
    for same in (2.0, np.int64(2), np.float32(2.0)):
        assert discriminations.L_t(same, (2.0, 1.0)) == want


@pytest.mark.parametrize("pair", [(-1.0, 1.0), (math.nan, 1.0),
                                  (math.inf, 1.0), (0.0, 1.0), (True, 2),
                                  (10**400, 2), None, "ab", (1, 2, 3)])
def test_Lt_rejects_a_pair_that_is_not_positive_finite(pair):
    with pytest.raises(ValueError, match=r"^pair \(a, b\) must be"):
        discriminations.L_t(0, pair)


def test_Lt_reads_the_catalog_member():
    for t in (-8, -1, 0, 3, 8):
        for pair in ((2.0, 1.0), (1e-3, 7.5), (3.0, 3.0000001)):
            assert discriminations.L_t(t, pair) == (
                catalog.get(f"Lt:{t}").value(*pair))


@given(st.integers(min_value=-1, max_value=8),
       st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=80)
def test_A7_certifies_Lt_second_derivative(t, x):
    fpp = float(catalog.family_gen("Lt", t).d2x()(x))
    pref = ((x + 1.0) ** (t - 2)
            / (2.0 ** (t + 2) * x * x * math.sqrt(x) ** (t + 1)))
    assert pref * discriminations.A7(x, t) == pytest.approx(fpp, rel=1e-10)
    assert discriminations.A7(x, t) > 0.0


def _lt_prefactor(t):
    """(x+1)^(t-2) / (2^(t+2) x^2 u^(t+1)) as an exact form in u."""
    xp1 = ONE + X
    num = xp1 ** max(t - 2, 0) * U ** max(-(t + 1), 0)
    den = xp1 ** max(2 - t, 0) * X * X * U ** max(t + 1, 0)
    return RatU(num, den) * Fraction(1, 2) ** (t + 2)


def test_A7_factors_the_Lt_second_derivative_exactly():
    for t in range(-8, 9):
        a7 = discriminations.A7_poly(t)
        assert _lt_prefactor(t) * RatU(a7) == catalog.get(f"Lt:{t}").fpp, t
        if t >= -1:
            assert a7.polya_degree() is not None and a7(1) == 32, t


def test_A7_at_one_is_32():
    for t in (-1, 0, 1, 5, 8):
        assert discriminations.A7(1.0, t) == pytest.approx(32.0)


def test_A7_vectorized():
    xs = np.array([0.5, 1.0, 2.0])
    out = discriminations.A7(xs, 2)
    assert out.shape == (3,)
    assert np.all(out > 0)


def test_topsoe_order_one_is_triangular():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    direct = float(np.sum((p - q) ** 2 / (p + q)))
    assert discriminations.topsoe_delta(1, p, q) == pytest.approx(
        direct, rel=1e-15)
    assert discriminations.topsoe_delta(1, p, q) == pytest.approx(
        2.0 / 15.0, rel=1e-15)


def test_topsoe_higher_orders_shrink():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.5, 0.3])
    vals = [discriminations.topsoe_delta(t, p, q) for t in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_topsoe_guards():
    with pytest.raises(ValueError):
        discriminations.topsoe_delta(0, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        discriminations.topsoe_delta(1, [0.5, 0.5], [0.2, 0.3, 0.5])


@pytest.mark.parametrize("t", [1.7, 2.5, math.nan, "2"])
def test_topsoe_rejects_an_order_that_is_not_an_integer(t):
    p, q = [0.5, 0.3, 0.2], [0.2, 0.5, 0.3]
    with pytest.raises(ValueError, match="must be an integer"):
        discriminations.topsoe_delta(t, p, q)
    assert discriminations.topsoe_delta(2.0, p, q) == (
        discriminations.topsoe_delta(2, p, q))


@pytest.mark.parametrize("p, q", [([0.5, -0.5], [-0.5, 0.5]),
                                  ([0.5, 0.5], [0.0, 1.0]),
                                  ([0.5, 0.7], [0.5, 0.5])])
def test_topsoe_rejects_what_is_not_a_distribution(p, q):
    with pytest.raises(ValueError):
        discriminations.topsoe_delta(1, p, q)

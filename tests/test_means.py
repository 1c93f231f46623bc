"""Unit tests for the seven binary means and their identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divcascade import analysis, means

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


def test_known_values_at_4_1():
    assert means.mean("H", 4, 1) == pytest.approx(1.6, rel=1e-15)
    assert means.mean("G", 4, 1) == pytest.approx(2.0, rel=1e-15)
    assert means.mean("N", 4, 1) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert means.mean("A", 4, 1) == pytest.approx(2.5, rel=1e-15)
    assert means.mean("R", 4, 1) == pytest.approx(2.8, rel=1e-15)
    assert means.mean("S", 4, 1) == pytest.approx(math.sqrt(8.5), rel=1e-15)
    assert means.mean("C", 4, 1) == pytest.approx(3.4, rel=1e-15)


def test_tag_aliases_match_letters():
    for letter, tag in [("H", "Harmonic"), ("G", "Geometric"),
                        ("N", "Heronian"), ("A", "Arithmetic"),
                        ("R", "Centroidal"), ("S", "RootMeanSquare"),
                        ("C", "ContraHarmonic")]:
        assert means.mean(tag, 3.0, 7.0) == means.mean(letter, 3.0, 7.0)


def test_unknown_mean_rejected():
    with pytest.raises(KeyError):
        means.mean("Q", 1.0, 2.0)


@given(positive, positive)
def test_ordering(a, b):
    vals = [means.mean(k, a, b) for k in "HGNARSC"]
    lo = min(a, b) * (1.0 - 1e-12)
    hi = max(a, b) * (1.0 + 1e-12)
    for prev, cur in zip(vals, vals[1:]):
        assert prev <= cur * (1.0 + 1e-12)
    for v in vals:
        assert lo <= v <= hi


@given(positive, positive)
def test_symmetry(a, b):
    for k in "HGNARSC":
        x, y = means.mean(k, a, b), means.mean(k, b, a)
        assert x == pytest.approx(y, rel=1e-12)


@given(positive, positive, st.floats(min_value=1e-3, max_value=1e3))
def test_homogeneity(a, b, lam):
    for k in "HGNARSC":
        scaled = means.mean(k, lam * a, lam * b)
        assert scaled == pytest.approx(lam * means.mean(k, a, b), rel=1e-12)


@given(positive, positive)
@example(*analysis.Sample.draw(200_000, 7).pairs())
def test_generator_consistency(a, b):
    """M(a, b) = b f_M(a/b) within 8 ulps of the mean's formula in a, b,
    with f_M(1) = 1.  The explicit example is the audit's sampling
    window, whose sampled identities read the means as generators only."""
    for k in "HGNARSC":
        m = means.mean(k, a, b)
        via_gen = b * means.mean_generator(k, a / b)
        assert np.all(np.abs(via_gen - m) <= 8 * np.spacing(np.abs(m))), k
        assert means.mean_generator(k, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_mean_difference_values_and_order_guard():
    a, b = 9.0, 4.0
    d = means.mean_difference("A", "G", a, b)
    assert d == pytest.approx(6.5 - 6.0, rel=1e-12)
    with pytest.raises(ValueError):
        means.mean_difference("G", "A", a, b)
    with pytest.raises(ValueError):
        means.mean_difference("A", "A", a, b)


def test_identity_table_shape():
    rows = means.identity_table()
    ids = [r[0] for r in rows]
    assert len(ids) == len(set(ids))
    assert sum(1 for i in ids if i.startswith("item")) == 10
    assert sum(1 for i in ids if i.startswith("remark2")) == 14


@given(positive, positive)
@settings(max_examples=50)
@example(1e200, 1e200)
@example(1e-200, 1e-200)
@example(3e250, 1e250)
@example(7e-250, 2e-250)
def test_identities_hold_pointwise(a, b):
    # The explicit pairs are far outside the sampling window, where a
    # mean's formula in a, b overflows or underflows; the residuals
    # depend on a/b alone.
    rows = means.verify_mean_identities(a, b)
    assert len(rows) == 24
    for ident, residual, ok in rows:
        assert ok, (ident, residual)


@pytest.mark.parametrize("a, b", [(-1.0, 2.0), (0.0, 1.0), (math.nan, 1.0),
                                  (math.inf, 1.0)])
def test_identities_refuse_a_pair_that_is_not_positive_finite(a, b):
    # mean and mean_difference refuse the same scalar pairs; they used to
    # return NaN, or a number: 0.5 for both at (0, 1).
    for call in (means.verify_mean_identities,
                 lambda a, b: means.mean("A", a, b),
                 lambda a, b: means.mean_difference("A", "H", a, b)):
        with pytest.raises(ValueError, match=r"^pair \(a, b\) must be"):
            call(a, b)


def test_vectorized_evaluation():
    a = np.array([1.0, 4.0, 9.0])
    b = np.array([2.0, 1.0, 4.0])
    v = means.mean("A", a, b)
    assert v.shape == (3,)
    assert np.allclose(v, (a + b) / 2.0)

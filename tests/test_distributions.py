"""Unit tests for probability-vector validation, loading, and divergences."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divcascade import catalog, distributions
from divcascade.distributions import (NonPositiveEntry, ProbVector,
                                      SumOutOfTolerance)
from divcascade.ratfun import ONE, Poly, RatU

IDS = catalog.all_ids() + ["Hgen:64", "Mnew:4", "Lt:-8", "topsoe:64"]


def test_validate_accepts_and_renormalizes():
    pv = distributions.validate([0.5, 0.5])
    assert isinstance(pv, ProbVector)
    assert pv.n == 2
    assert sum(pv.entries) == 1.0
    # Values inside the tolerance window are renormalized exactly.
    pv = distributions.validate([0.5, 0.5 + 4e-10])
    assert math.fsum(pv.entries) == pytest.approx(1.0, abs=1e-16)


def test_validate_rejects_nonpositive():
    with pytest.raises(NonPositiveEntry) as err:
        distributions.validate([0.5, 0.0, 0.5])
    assert err.value.index == 1
    assert err.value.value == 0.0
    with pytest.raises(NonPositiveEntry):
        distributions.validate([0.5, -0.1, 0.6])


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_validate_rejects_entries_that_are_not_finite(entry):
    with pytest.raises(NonPositiveEntry) as err:
        distributions.validate([0.5, entry])
    assert err.value.index == 1
    assert str(err.value) == (f"entry 1 is {entry!r}; all entries must be "
                              "positive and finite")


def test_validate_rejects_out_of_tolerance_sum():
    with pytest.raises(SumOutOfTolerance) as err:
        distributions.validate([0.5, 0.5000001])
    assert err.value.sum == pytest.approx(1.0000001)
    # A looser epsilon admits the same vector.
    pv = distributions.validate([0.5, 0.5000001], eps=1e-6)
    assert math.fsum(pv.entries) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("eps", [
    math.nan, math.inf, -math.inf, "1e-9", None, True])
def test_validate_refuses_an_eps_that_is_not_a_finite_real(eps):
    # A NaN eps used to accept a vector that sums to 0.6.
    message = ("eps must be finite" if isinstance(eps, float)
               else "eps must be a real number")
    with pytest.raises(ValueError, match=message):
        distributions.validate([0.3, 0.3], eps=eps)


@pytest.mark.parametrize("eps", [-1.0, -1e-300, -1])
def test_validate_refuses_a_negative_eps(eps):
    # It used to refuse every vector as SumOutOfTolerance, "off by more
    # than -1.0 from 1".  A zero eps still admits an exact sum.
    with pytest.raises(ValueError, match="eps must be >= 0"):
        distributions.validate([0.5, 0.5], eps=eps)
    assert distributions.validate([0.5, 0.5], eps=0).entries == (0.5, 0.5)


def test_validate_takes_an_overflowing_sum_as_infinite():
    # math.fsum raises OverflowError here; numpy warned and gave inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SumOutOfTolerance) as err:
            distributions.validate([1e308, 1e308, 0.5])
    assert err.value.sum == math.inf


@given(st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=2,
                max_size=40))
@settings(max_examples=100)
def test_validate_total_is_the_exact_sum_rounded_once(raw):
    values = [v / math.fsum(raw) for v in raw]
    total = float(sum(map(Fraction, values)))
    pv = distributions.validate(values, eps=1e-6)
    assert pv.entries == tuple(v / total for v in values)


def test_validate_rejects_short_vectors():
    with pytest.raises(ValueError):
        distributions.validate([1.0])


def test_probvector_is_frozen_sequence():
    pv = distributions.validate([0.25, 0.75])
    assert len(pv) == 2
    assert list(pv) == list(pv.entries)
    with pytest.raises(Exception):
        pv.entries = (1.0,)
    arr = pv.as_array()
    assert arr.dtype == float and arr.shape == (2,)
    assert arr.tolist() == list(pv.entries)


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2,
                max_size=12))
@settings(max_examples=60)
def test_validate_renormalization_roundtrip(raw):
    total = math.fsum(raw)
    scaled = [v / total for v in raw]
    pv = distributions.validate(scaled, eps=1e-6)
    assert math.fsum(pv.entries) == pytest.approx(1.0, abs=5e-16)
    assert all(v > 0 for v in pv.entries)


def test_divergence_known_values():
    p, q = (0.5, 0.5), (0.25, 0.75)
    assert distributions.divergence("delta", p, q) == pytest.approx(
        2.0 / 15.0, abs=1e-15)
    h = distributions.divergence("h", p, q)
    expected = 0.5 * ((math.sqrt(0.5) - math.sqrt(0.25)) ** 2
                      + (math.sqrt(0.5) - math.sqrt(0.75)) ** 2)
    assert h == pytest.approx(expected, rel=1e-14)


def test_divergence_identity_of_indiscernibles():
    p = (0.2, 0.3, 0.5)
    assert distributions.divergence("delta", p, p) == 0.0
    assert distributions.divergence("psi", p, p) == 0.0


def test_divergence_terms_have_the_bits_of_the_array_path(monkeypatch):
    # Each term q_i * f(p_i / q_i) on Python floats is bit-identical to
    # the element of the same expression on numpy arrays.
    seen = []
    fsum = distributions._fsum
    monkeypatch.setattr(distributions, "_fsum",
                        lambda terms: seen.append(terms) or fsum(terms))
    rng = np.random.default_rng(17)
    pairs = [(distributions.validate(distributions.sample_simplex(n, rng)),
              distributions.validate(distributions.sample_simplex(n, rng)))
             for n in range(2, 65)]
    for mid in IDS:
        m = catalog.get(mid)
        for p, q in pairs:
            value = distributions.divergence(m, p, q)
            terms = seen.pop()
            pa, qa = p.as_array(), q.as_array()
            # topsoe:64's denominator overflows past x = 270 on both paths.
            with np.errstate(over="ignore"):
                expected = qa * m(pa / qa)
            assert np.array_equal(np.array(terms).view(np.uint64),
                                  expected.view(np.uint64)), (mid, p.n)
            assert value == math.fsum(terms)


@given(st.sampled_from(IDS),
       st.lists(st.tuples(st.floats(min_value=1e-9, max_value=1.0),
                          st.floats(min_value=1e-9, max_value=1.0)),
                min_size=2, max_size=24))
@settings(max_examples=150, deadline=None)
def test_divergence_is_the_exact_sum_of_its_terms_rounded_once(mid, raw):
    p = distributions.validate([a / math.fsum(a for a, _ in raw)
                                for a, _ in raw], eps=1e-6)
    q = distributions.validate([b / math.fsum(b for _, b in raw)
                                for _, b in raw], eps=1e-6)
    m = catalog.get(mid)
    terms = [m.value(a, b) for a, b in zip(p, q)]
    # Non-finite terms have their own test below.
    assume(all(map(math.isfinite, terms)))
    assert distributions.divergence(m, p, q) == float(
        sum(map(Fraction, terms)))


# f = (u - 1)^7 / u^2: -1/x near x = 0 and x^(5/2) for large x, so one
# component's term can be -inf and another's +inf.
_SIGNED = catalog.Measure("signed", "test only", "divergence", "",
                          RatU(ONE, Poly([0, 0, 1]), m=7))


@pytest.mark.parametrize("measure, p, q", [
    ("delta", [0.5, 0.5], [1.0, 5e-324]),             # NaN: inf / inf
    ("psi", [0.5, 0.5], [1.0, 1e-300]),               # +inf
    (_SIGNED, [5e-324, 1.0], [0.5, 0.5]),             # -inf
    (_SIGNED, [5e-324, 0.5, 0.5], [0.5, 0.5, 1e-300]),  # -inf + inf
])
def test_divergence_not_finite_where_the_array_sum_is(measure, p, q):
    m = catalog.get(measure) if isinstance(measure, str) else measure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = distributions.divergence(m, p, q)
    pa = distributions.validate(p).as_array()
    qa = distributions.validate(q).as_array()
    with np.errstate(all="ignore"):
        expected = float(np.sum(qa * m(pa / qa)))
    assert not math.isfinite(expected)
    assert value == expected or (math.isnan(value) and math.isnan(expected))


def test_sum_of_finite_terms_that_overflows_midway():
    # math.fsum raises OverflowError; the exact sum is still rounded once.
    assert distributions._fsum([1e308, 1e308, -1e308]) == 1e308
    assert distributions._fsum([1e308, 1e308, 0.5]) == math.inf
    assert distributions._fsum([-1e308, -1e308]) == -math.inf


def test_divergence_length_mismatch():
    with pytest.raises(ValueError):
        distributions.divergence("delta", (0.5, 0.5), (0.2, 0.3, 0.5))


def test_divergence_unknown_measure():
    with pytest.raises(KeyError):
        distributions.divergence("zeta", (0.5, 0.5), (0.5, 0.5))


def test_load_csv_row_and_column(tmp_path):
    row = tmp_path / "row.csv"
    row.write_text("0.25,0.25,0.5\n")
    col = tmp_path / "col.csv"
    col.write_text("0.25\n0.25\n0.5\n")
    for path in (row, col):
        pv = distributions.load_distribution(str(path))
        assert pv.n == 3
        assert math.fsum(pv.entries) == pytest.approx(1.0, abs=1e-15)


def test_load_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([0.1, 0.9]))
    pv = distributions.load_distribution(str(path))
    assert pv.entries == (0.1, 0.9)


def test_load_csv_parse_error_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,oops\n")
    with pytest.raises(ValueError) as err:
        distributions.load_distribution(str(path))
    msg = str(err.value)
    assert "line 1" in msg and "field 2" in msg


def test_load_json_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        distributions.load_distribution(str(path))


@pytest.mark.parametrize("entry", [None, [0.5], {"p": 0.5}, True, False,
                                   "0.5"])
def test_load_json_rejects_entries_that_are_not_numbers(tmp_path, entry):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([0.5, entry, 0.5]))
    with pytest.raises(ValueError) as err:
        distributions.load_distribution(str(path))
    assert str(err.value) == (f"{path}: entry 1 must be a real number, "
                              f"not {entry!r}")


@pytest.mark.parametrize("entry", [None, [0.5], "half", object(), "0.5",
                                   True, np.False_])
def test_validate_rejects_entries_float_cannot_convert(entry):
    # A bool or a str is not an entry, although float() would read True
    # as 1.0 and "0.5" as 0.5: validate refuses what load_distribution
    # refuses in a JSON file.
    with pytest.raises(ValueError, match="entry 1 must be a real number"):
        distributions.validate([0.5, entry, 0.5])


def test_validate_takes_an_int_beyond_the_double_range_as_infinite():
    with pytest.raises(NonPositiveEntry) as err:
        distributions.validate([10**400, 0.5])
    assert err.value.index == 0 and err.value.value == math.inf


def test_validate_refuses_an_entry_that_renormalizes_to_zero():
    # 5e-324 / 2.0 rounds to 0.0: the sum is within eps, the entry is not.
    with pytest.raises(NonPositiveEntry) as err:
        distributions.validate([5e-324, 2.0], eps=2)
    assert err.value.index == 0 and err.value.value == 0.0


@pytest.mark.parametrize("entries, index", [
    ((-0.5, 1.5), 0), ((0.0, 1.0), 0), ((1.0, -0.0), 1), ((math.nan, 0.5), 0),
    ((0.5, math.inf), 1), ((1, 0.5), 0), ((0.5, np.float64(0.5)), 1),
    ((0.5, True), 1)])
def test_divergence_refuses_a_hand_built_vector_it_cannot_evaluate(entries,
                                                                    index):
    # divergence evaluates a ProbVector's entries unchecked, so the type
    # refuses any entry that is not a positive finite float.
    with pytest.raises(NonPositiveEntry) as err:
        distributions.divergence("delta", ProbVector((0.5, 0.5)),
                                 ProbVector(entries))
    assert err.value.index == index


def test_load_rejects_invalid_distribution(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("0.5,-0.5,1.0\n")
    with pytest.raises(NonPositiveEntry):
        distributions.load_distribution(str(path))


def test_sample_simplex_floor_and_determinism():
    rng = np.random.default_rng(12)
    for n in (2, 5, 16):
        p = distributions.sample_simplex(n, rng, floor=1e-6)
        assert p.shape == (n,)
        assert p.min() >= 1e-6
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
    a = distributions.sample_simplex(4, np.random.default_rng(7))
    b = distributions.sample_simplex(4, np.random.default_rng(7))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        distributions.sample_simplex(1, rng)
    # A floor that no draw meets used to loop for ever.
    for floor in (0.5, math.nan):
        with pytest.raises(ValueError, match="floor must be"):
            distributions.sample_simplex(2, rng, floor=floor)

"""Unit tests for probability-vector validation, loading, and divergences."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcascade import distributions
from divcascade.distributions import (NonPositiveEntry, ProbVector,
                                      SumOutOfTolerance)


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


def test_validate_rejects_out_of_tolerance_sum():
    with pytest.raises(SumOutOfTolerance) as err:
        distributions.validate([0.5, 0.5000001])
    assert err.value.sum == pytest.approx(1.0000001)
    # A looser epsilon admits the same vector.
    pv = distributions.validate([0.5, 0.5000001], eps=1e-6)
    assert math.fsum(pv.entries) == pytest.approx(1.0, abs=1e-15)


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
    assert str(err.value) == (f"{path}: entry 1 is not a number: "
                              f"{json.dumps(entry)}")


@pytest.mark.parametrize("entry", [None, [0.5], "half", object()])
def test_validate_rejects_entries_float_cannot_convert(entry):
    with pytest.raises(ValueError, match="entry 1 is not a number"):
        distributions.validate([0.5, entry, 0.5])


def test_validate_takes_an_int_beyond_the_double_range_as_infinite():
    with pytest.raises(NonPositiveEntry) as err:
        distributions.validate([10**400, 0.5])
    assert err.value.index == 0 and err.value.value == math.inf


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

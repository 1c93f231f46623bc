"""Unit tests for the measure catalog and generated families."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy

from divcascade import catalog, cli, discriminations, generators


def test_static_catalog_size_and_kinds():
    ids = catalog.all_ids()
    assert len(ids) == 108
    assert len(set(ids)) == 108
    kinds = {catalog.get(i).kind for i in ids}
    assert kinds == {"mean", "divergence"}
    assert sum(1 for i in ids if catalog.get(i).kind == "mean") == 7


def test_expected_groups_present():
    ids = set(catalog.all_ids())
    assert {"H", "G", "N", "A", "R", "S", "C"} <= ids
    assert {"delta", "h", "K", "psi", "F", "L"} <= ids
    assert all(f"W{i}" in ids for i in range(1, 10))
    assert all(f"V{t}" in ids for t in range(1, 15))
    assert all(f"U{t}" in ids for t in range(1, 16))
    assert all(f"D{k}" in ids for k in range(1, 37))
    assert sum(1 for i in ids if i.startswith("D_")) == 21


def test_normalization_at_one():
    for mid in catalog.all_ids():
        m = catalog.get(mid)
        expected = 1.0 if m.kind == "mean" else 0.0
        assert m.gen.limit_at_1() == expected, mid
        assert float(m(1.0)) == pytest.approx(expected, abs=1e-15), mid


def test_unknown_ids_raise_or_return_none():
    with pytest.raises(KeyError):
        catalog.get("nope")
    assert catalog.try_get("nope") is None


def test_family_members_resolve_and_anchor():
    assert catalog.get("Delta1:0").value(4.0, 1.0) == pytest.approx(
        catalog.get("delta").value(4.0, 1.0), rel=1e-15)
    assert catalog.get("Lt:0").value(4.0, 1.0) == pytest.approx(
        catalog.get("K").value(4.0, 1.0), rel=1e-15)


def test_family_ranges_enforced():
    assert catalog.family_range("Mnew") == (0, catalog.FAMILY_T_MAX)
    assert catalog.family_range("Lt") == catalog.LT_T_RANGE
    with pytest.raises(KeyError):
        catalog.get(f"Delta1:{catalog.FAMILY_T_MAX + 1}")
    with pytest.raises(KeyError):
        catalog.get("Lt:9")
    # In-range members exist at both ends.
    assert catalog.try_get(f"Mnew:{catalog.FAMILY_T_MAX}") is not None
    assert catalog.try_get("Lt:-8") is not None


def test_family_generators_are_in_lowest_terms():
    # A factor left on both sides (a power of u at Lt:-1, a spare x + 1 in
    # topsoe) would change the stored form, and with it the float bits.
    u = sympy.Symbol("u")
    for name in catalog.FAMILY_IDS + ("Lt", "topsoe"):
        lo, hi = catalog.family_range(name)
        for t in {lo, lo + 1, max(lo, -1), 9 if hi > 9 else hi, hi}:
            g = catalog.family_gen(name, t)
            num, den = (sympy.Poly(p.coeffs[::-1], u) for p in (g.num, g.den))
            assert sympy.gcd(num, den).degree() == 0, (name, t)


@pytest.mark.parametrize("t", [
    3, np.int64(3), np.int8(3), np.uint16(3),
    3.0, np.float64(3.0), np.float32(3.0), np.float16(3.0),
])
def test_family_index_takes_integers_and_integral_floats(t):
    got = catalog.family_index(t)
    assert type(got) is int and got == 3
    assert catalog.family_gen("Hgen", t) is catalog.family_gen("Hgen", 3)


@pytest.mark.parametrize("t", [
    Fraction(3), Decimal(3), "3", [3], 3.5, np.float64(3.5),
])
def test_family_index_rejects_other_types(t):
    # Fraction(3) is a numbers.Real of integer value, and still refused.
    for call in (catalog.family_index,
                 lambda t: catalog.family_gen("Hgen", t),
                 lambda t: catalog.family_member("Hgen", t)):
        with pytest.raises(ValueError, match="must be an integer"):
            call(t)


@pytest.mark.parametrize("call", [
    pytest.param(catalog.family_index, id="family_index"),
    pytest.param(lambda t: catalog.family_gen("Hgen", t), id="family_gen"),
    pytest.param(lambda t: catalog.family_member("Lt", t),
                 id="family_member"),
    pytest.param(lambda t: discriminations.topsoe_delta(
        t, [0.5, 0.5], [0.25, 0.75]), id="topsoe_delta"),
    pytest.param(lambda t: generators.witness_fpp("K1", t),
                 id="witness_fpp"),
])
@pytest.mark.parametrize("t", [True, False, np.True_])
def test_a_family_parameter_is_not_a_bool(call, t):
    # True used to pass as t = 1 and False as t = 0.
    with pytest.raises(ValueError, match="must be an integer"):
        call(t)


def test_family_gen_validates_t_before_its_cache():
    # An unhashable t used to reach lru_cache first: TypeError.
    with pytest.raises(ValueError) as gen_error:
        catalog.family_gen("Hgen", [1])
    with pytest.raises(ValueError) as member_error:
        catalog.family_member("Hgen", [1])
    assert str(gen_error.value) == str(member_error.value)


@pytest.mark.parametrize("mid, expected", [
    ("Hgen:3", "Hgen:3"), ("hgen:3", "Hgen:3"), ("HGEN:03", "Hgen:3"),
    ("Lt:-1", "Lt:-1"), ("lt:2", "Lt:2"), ("l_t:-8", "Lt:-8"),
    ("topsoe:2", "topsoe:2"),
])
def test_family_member_ids_accept_ascii_integers(mid, expected):
    assert catalog.get(mid).id == expected


@pytest.mark.parametrize("mid", [
    "Hgen:1_0", "Hgen: 3", "Hgen:3 ", "Hgen:+3", "Hgen:\u0663", "Hgen:\u00b3",
    "Hgen:", "Hgen:-", "Lt:--1", "Hgen:3.0",
    # More digits than int() converts: a ValueError, not a t.
    pytest.param("Lt:" + "9" * 5000, id="Lt:5000-digits"),
])
def test_family_member_ids_reject_other_integer_spellings(mid, capsys):
    assert catalog.try_get(mid) is None
    assert cli.main(["compute", "--measure", mid, "--a", "2", "--b", "1"]) == 3
    assert "unknown measure" in capsys.readouterr().err


def test_w_formula_aliases_are_exact():
    scale = {"W1": (Fraction(2), "delta"), "W2": (Fraction(24, 7), "D_CN"),
             "W3": (Fraction(8, 3), "D_CG"), "W4": (Fraction(24, 5), "D_RG"),
             "W5": (Fraction(8), "h"),
             "W6": (Fraction(1), "K"), "W7": (Fraction(1, 2), "psi"),
             "W8": (Fraction(1, 2), "F"), "W9": (Fraction(1, 8), "L")}
    for wid, (c, base) in scale.items():
        assert wid in catalog.FORMULA
        diff = catalog.get(wid).gen - c * catalog.get(base).gen
        assert diff.is_zero(), wid
    assert catalog.EQ9_FORMS == tuple(scale.values())


# Each family's t range, as the paper and the catalog's window give it.
_T_RANGES = {"Delta1": (0, 64), "Delta2": (0, 64), "K1": (0, 64),
             "K2": (0, 64), "Hgen": (0, 64), "Mnew": (0, 64),
             "Lt": (-8, 8), "topsoe": (1, 64)}
_WITNESSED = ("Delta1", "Delta2", "K1", "K2", "Hgen", "Mnew")


def _try_get(family, t):
    return catalog.try_get(f"{family}:{t}")


_FAMILY_T_CALLS = {
    "family_member": (catalog.family_member, _T_RANGES),
    "family_gen": (catalog.family_gen, _T_RANGES),
    "witness_fpp": (generators.witness_fpp, _WITNESSED),
    "convexity_witness": (
        lambda f, t: generators.convexity_witness(f, 2.0, t), _WITNESSED),
    "A7_poly": (lambda f, t: discriminations.A7_poly(t), ("Lt",)),
    "L_t": (lambda f, t: discriminations.L_t(t, (4.0, 1.0)), ("Lt",)),
    "topsoe_delta": (lambda f, t: discriminations.topsoe_delta(
        t, [0.5, 0.5], [0.25, 0.75]), ("topsoe",)),
    "try_get": (_try_get, _T_RANGES),
}


@pytest.mark.parametrize("call, family", [
    pytest.param(call, fid, id=f"{name}-{fid}")
    for name, (call, families) in _FAMILY_T_CALLS.items()
    for fid in families])
def test_every_family_t_entry_point_takes_its_range_and_no_more(call,
                                                                family):
    # One rule: both end points pass, and one step past either is refused
    # with the same message, or, by try_get, with None.
    lo, hi = _T_RANGES[family]
    for t in (lo, hi):
        assert call(family, t) is not None
    for t in (lo - 1, hi + 1):
        if call is _try_get:
            assert call(family, t) is None
            continue
        with pytest.raises(ValueError) as err:
            call(family, t)
        assert str(err.value) == f"t must be in {lo}..{hi}, not {t}"


def test_value_broadcasts():
    a = np.array([4.0, 9.0])
    v = catalog.get("K").value(a, 1.0)
    assert v.shape == (2,)
    assert v[0] == pytest.approx(4.5, rel=1e-15)


def test_pinned_point_values():
    assert catalog.get("delta").value(4.0, 1.0) == pytest.approx(1.8)
    assert catalog.get("psi").value(4.0, 1.0) == pytest.approx(11.25)
    assert catalog.get("V1").value(4.0, 1.0) == pytest.approx(0.1)
    assert catalog.get("h").value(4.0, 1.0) == pytest.approx(0.5)
    assert catalog.get("L").value(4.0, 1.0) == pytest.approx(70.3125)


def test_measure_metadata():
    m = catalog.get("V1")
    assert m.ref == "Eq (13)"
    w8 = catalog.get("W8")
    assert "position 8" in w8.ref

"""Unit tests for chains, pyramid differences, and residual decompositions."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from divcascade import analysis, cascade, catalog
from divcascade.ratfun import ONE, RatS, RatU


def test_chain_registry():
    assert len(cascade.CHAINS) == 26
    assert set(cascade.chains()) == set(cascade.CHAINS)
    with pytest.raises(KeyError):
        cascade.get_chain("bogus")


def test_the_generated_chains_read_as_the_paper_prints_them():
    # Sec 1.1's rows of mean differences, Eq (9) and Eq (5)'s window.
    rows = {"pyramid_N": "D_NG D_NH",
            "pyramid_A": "D_AN D_AG D_AH",
            "pyramid_R": "D_RA D_RN D_RG D_RH",
            "pyramid_S": "D_SR D_SA D_SN D_SG D_SH",
            "pyramid_C": "D_CS D_CR D_CA D_CN D_CG D_CH"}
    pyramid = [c for c in cascade.CHAINS.values()
               if c.id.startswith("pyramid")]
    assert [c.id for c in pyramid] == list(rows)
    for chain in pyramid:
        assert chain == cascade.Chain(chain.id, "Sec 1.1", tuple(
            (Fraction(1), m) for m in rows[chain.id].split()))
    assert cascade.CHAINS["means"].terms == tuple(
        (Fraction(1), m) for m in "HGNARSC")
    assert cascade.CHAINS["eq9"].terms == (
        (2, "delta"), (Fraction(24, 7), "D_CN"), (Fraction(8, 3), "D_CG"),
        (Fraction(24, 5), "D_RG"), (8, "h"), (1, "K"), (Fraction(1, 2), "psi"),
        (Fraction(1, 2), "F"), (Fraction(1, 8), "L"))
    assert cascade.CHAINS["Lt_monotone"].terms == tuple(
        (1, f"Lt:{t}") for t in range(-8, 9))


def test_every_chain_passes_small_sample():
    for cid in cascade.chains():
        res = cascade.audit_chain(cascade.get_chain(cid), samples=20_000,
                                  seed=11, tol=1e-12)
        assert res.verdict == "pass", (cid, res.max_violation)


@pytest.mark.parametrize("kw, message", [
    ({"samples": 0}, "samples must be >= 1"),
    ({"samples": -3}, "samples must be >= 1"),
    ({"workers": 0}, "workers must be >= 1"),
    ({"workers": -1}, "workers must be >= 1")])
def test_audit_chain_rejects_bad_samples_and_workers(kw, message):
    with pytest.raises(ValueError, match=message):
        cascade.audit_chain("means", **kw)


@pytest.mark.parametrize("kw, message", [
    ({"samples": 1e4}, "samples must be an integer"),
    ({"samples": 100, "workers": 2.5}, "workers must be an integer"),
    ({"samples": 20_000, "workers": 2.5}, "workers must be an integer"),
    ({"tol": math.nan}, "tol must be finite"),
    ({"tol": math.inf}, "tol must be finite"),
    ({"tol": "1e-3"}, "tol must be a real number"),
    ({"tol": True}, "tol must be a real number"),
    ({"tol": None}, "tol must be a real number"),
    ({"samples": True}, "samples must be an integer"),
    ({"samples": True, "workers": True}, "samples must be an integer"),
    ({"samples": 100, "workers": True}, "workers must be an integer")])
def test_audit_chain_rejects_what_audit_config_rejects(kw, message):
    with pytest.raises(ValueError, match=message):
        cascade.audit_chain("means", **kw)


def test_audit_chain_takes_a_negative_tol():
    res = cascade.audit_chain("means", samples=100, seed=1, tol=-1.0)
    assert res.verdict == "fail" and len(res.counterexamples) == 10


def test_chain_from_dict_roundtrip():
    doc = {"id": "custom", "ref": "", "terms": [["1", "delta"], ["1", "K"]]}
    chain = cascade.chain_from_dict(doc)
    res = cascade.audit_chain(chain, samples=5_000, seed=1)
    assert res.verdict == "pass"


def test_every_chain_link_is_proved_and_fails_reversed():
    links = [(lo, hi) for chain in cascade.CHAINS.values()
             for lo, hi in zip(chain.terms, chain.terms[1:])]
    assert len(links) == 174
    for lo, hi in links:
        assert cascade.is_exact_ordering((lo,), (hi,)), (lo, hi)
        assert not cascade.is_exact_ordering((hi,), (lo,)), (lo, hi)


def test_a_wrong_signed_root_mean_square_fails():
    minus_s = RatS(RatU.zero(), RatU(-1 * ONE))
    assert cascade.is_exact_ordering([(1, "R")], [(1, "S")])
    assert not cascade.is_exact_ordering([(1, "R")], [(1, minus_s)])
    n_minus_s = catalog.get("N").gen - catalog.get("S").gen
    assert cascade.is_exact_ordering([(1, "D_SA")], [(Fraction(3, 4), "D_SN")])
    assert not cascade.is_exact_ordering([(1, "D_SA")],
                                         [(Fraction(3, 4), n_minus_s)])


def test_a_chain_the_scan_passes_fails_its_proof():
    # K / delta = (x + 1) / sqrt(x) passes 1e7 only near x = 1e14, outside
    # the sampled window.
    chain = cascade.chain_from_dict(
        {"id": "planted", "terms": [[1, "K"], [10**7, "delta"]]})
    sample = analysis.Sample.draw(100_000, 0)
    worst, records = analysis.scan_chain_terms(chain.terms, sample, 1e-12)
    assert worst < 0 and not records
    res = cascade.audit_chain(chain, samples=100_000, seed=0)
    assert (res.verdict, res.max_violation) == ("fail", float("inf"))
    assert res.samples == 100_000


def test_planted_reversed_link_fails_proof_and_scan():
    chain = cascade.chain_from_dict(
        {"id": "planted", "terms": [[1, "W2"], [1, "W1"]]})
    assert not cascade.is_exact_ordering(chain.terms[:1], chain.terms[1:])
    sample = analysis.Sample.draw(2_000, 5)
    worst, _ = analysis.scan_chain_terms(chain.terms, sample, 1e-12)
    assert worst > 1e-12
    res = cascade.check_chain(chain, sample)
    assert (res.verdict, res.max_violation) == ("fail", float("inf"))
    assert res.counterexamples[0]["step"] == "1*W2 <= 1*W1"


def test_a_chain_scan_fails_on_nan():
    # x = 1e600 overflows to inf, so every term is NaN at pair 0.
    with np.errstate(all="ignore"):
        sample = analysis.Sample([1e300, 2.0], [1e-300, 1.0])
        res = cascade.check_chain(cascade.get_chain("means"), sample)
    assert res.verdict == "fail"
    assert math.isnan(res.max_violation)
    ce = res.counterexamples[0]
    assert ce["index"] == 0 and math.isnan(ce["violation"])
    assert ce["step"] == "1*H <= 1*G"
    assert len(res.counterexamples) == 1


def test_a_proved_chain_reports_its_scan():
    chain = cascade.get_chain("eq9")
    sample = analysis.Sample.draw(2_000, 5)
    res = cascade.check_chain(chain, sample)
    assert res.verdict == "pass"
    assert res.max_violation == analysis.scan_chain_terms(
        chain.terms, sample, 1e-12)[0]


def test_w_values_match_closed_forms():
    pair = (4.0, 1.0)
    assert cascade.W(1, pair) == pytest.approx(2 * 1.8, rel=1e-15)
    assert cascade.W(6, pair) == pytest.approx(4.5, rel=1e-15)
    assert cascade.W(7, pair) == pytest.approx(11.25 / 2, rel=1e-15)
    assert cascade.W(8, pair) == pytest.approx(14.0625 / 2, rel=1e-15)
    assert cascade.W(9, pair) == pytest.approx(70.3125 / 8, rel=1e-15)


def test_w8_second_derivative_corrected_vs_printed():
    x = 2.0
    corrected = (15 * x**4 + 2 * x**2 + 15) / (16 * x**3.5)
    assert cascade.W_second_derivative(8, x) == pytest.approx(
        corrected, rel=1e-13)
    printed = cascade.W_FPP_PRINTED[8](x)
    assert abs(printed - corrected) > 1e-3
    # The other eight printed second derivatives agree with the analytic ones.
    for i in (1, 2, 3, 4, 5, 6, 7, 9):
        assert cascade.W_FPP_PRINTED[i](x) == pytest.approx(
            cascade.W_second_derivative(i, x), rel=1e-10)


def test_pyramid_indexing():
    assert cascade.pyramid_pair(1) == (2, 1)
    assert cascade.pyramid_pair(36) == (9, 1)
    with pytest.raises(ValueError):
        cascade.pyramid_pair(0)
    with pytest.raises(ValueError):
        cascade.pyramid_pair(37)


@pytest.mark.parametrize("index", [2.0, 2.5, True, np.float64(3.0), "2",
                                   None])
@pytest.mark.parametrize("call, name", [
    (lambda i: cascade.W(i, (4.0, 1.0)), "i"),
    (lambda i: cascade.W_second_derivative(i, 2.0), "i"),
    (lambda t: cascade.V(t, (4.0, 1.0)), "t"),
    (lambda t: cascade.U(t, (4.0, 1.0)), "t"),
    (cascade.pyramid_pair, "k"),
    (lambda k: cascade.pyramid_diff(k, (4.0, 1.0)), "k"),
], ids=["W", "W_second_derivative", "V", "U", "pyramid_pair",
        "pyramid_diff"])
def test_paper_indices_must_be_integers(call, name, index):
    # A paper index names one measure; 2.0 or True would name none, or
    # pyramid_pair(True) the first.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, not "):
        call(index)


@pytest.mark.parametrize("pair", [
    (True, 2.0), (2.0, np.True_), (10**400, 2.0), (math.nan, 1.0),
    (0.0, 1.0), ("4", 1.0), None, "ab", (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("call", [
    lambda pair: cascade.W(1, pair),
    lambda pair: cascade.V(1, pair),
    lambda pair: cascade.U(1, pair),
    lambda pair: cascade.pyramid_diff(1, pair),
    lambda pair: cascade.equivalent_expression("V1", pair),
], ids=["W", "V", "U", "pyramid_diff", "equivalent_expression"])
def test_a_pair_is_two_positive_finite_reals(call, pair):
    # W(1, (True, 2)) used to give 0.667, (10**400, 2) to raise a bare
    # OverflowError, and None, "ab" or three numbers an error that named
    # no pair.
    with pytest.raises(ValueError, match=r"^pair \(a, b\) must be"):
        call(pair)


def test_paper_indices_take_numpy_integers():
    pair = (4.0, 1.0)
    assert cascade.W(np.int64(2), pair) == cascade.W(2, pair)
    assert cascade.pyramid_diff(np.int32(7), pair) == cascade.pyramid_diff(
        7, pair)
    assert cascade.pyramid_pair(np.uint8(36)) == (9, 1)


@pytest.mark.parametrize("series, name, calls", [
    ("W", "i", [lambda i: cascade.W(i, (4.0, 1.0)),
                lambda i: cascade.W_second_derivative(i, 2.0)]),
    ("D", "k", [lambda k: cascade.pyramid_diff(k, (4.0, 1.0)),
                cascade.pyramid_pair]),
    ("V", "t", [lambda t: cascade.V(t, (4.0, 1.0))]),
    ("U", "t", [lambda t: cascade.U(t, (4.0, 1.0))]),
])
def test_a_series_accessor_takes_the_registered_indices(series, name,
                                                         calls):
    last = {"W": 9, "D": 36, "V": 14, "U": 15}[series]
    assert catalog.try_get(f"{series}{last}") is not None
    assert catalog.try_get(f"{series}{last + 1}") is None
    for call in calls:
        call(last)
        with pytest.raises(ValueError) as err:
            call(last + 1)
        assert str(err.value) == f"{name} must be in 1..{last}, not {last + 1}"


@pytest.mark.parametrize("x", [-1.0, 0.0, math.inf, math.nan, True, "2",
                               None])
def test_the_second_derivative_takes_a_positive_x(x):
    # -1.0, 0.0 and inf used to give NaN, and True 2.0.
    with pytest.raises(ValueError, match="^x must be "):
        cascade.W_second_derivative(1, x)


def test_the_second_derivative_evaluates_an_array_as_given():
    x = np.array([0.5, 2.0, -1.0])
    with np.errstate(invalid="ignore"):
        got = cascade.W_second_derivative(6, x)
    assert got[:2].tolist() == [cascade.W_second_derivative(6, v)
                                for v in (0.5, 2.0)]
    assert math.isnan(got[2])


def test_pyramid_common_value():
    pair = (4.0, 1.0)
    common, gaps = cascade.pyramid_equalities(pair)
    # (sqrt a - sqrt b)^4 / (a + b) at (4, 1).
    assert common == pytest.approx(0.2, rel=1e-14)
    assert len(gaps) == 10
    assert max(gaps.values()) <= 1e-12


@pytest.mark.parametrize("tol, message", [
    (math.nan, "tol must be finite"), (math.inf, "tol must be finite"),
    ("1e-12", "tol must be a real number"),
    (True, "tol must be a real number")])
def test_pyramid_equalities_refuse_a_tol_that_is_not_a_finite_real(
        tol, message):
    # A NaN tol used to pass every deviation.
    with pytest.raises(ValueError, match=message):
        cascade.pyramid_equalities((3.0, 1.0), tol=tol)


def test_theorem_part_counts_and_betas():
    parts = cascade.theorem_parts()
    assert len(parts) == 53
    assert len(cascade.theorem_parts("2.2")) == 14
    p1 = cascade.THEOREM_PARTS["2.1:1"]
    assert cascade.beta_constant(p1) == Fraction(1, 14)
    assert cascade.beta_exact(p1) == Fraction(1, 14)


@pytest.mark.parametrize("call, arg, message", [
    (cascade.beta_constant, True, "unknown proof part True"),
    (cascade.beta_constant, "9:1", "unknown proof part '9:1'"),
    (cascade.theorem_parts, "9", "unknown theorem '9'"),
    (cascade.theorem_parts, "2", "unknown theorem '2'"),
])
def test_an_unknown_part_or_theorem_is_refused(call, arg, message):
    # beta_constant(True) read the bool as part 1, and theorem_parts("9")
    # returned no part.  An integer, a numpy one included, is a part of
    # Theorem 2.1.
    with pytest.raises(KeyError, match=re.escape(message)):
        call(arg)
    for part in (1, np.int64(1)):
        assert cascade.beta_constant(part) == Fraction(1, 14)


def test_residual_decomposition_point_check():
    part = cascade.THEOREM_PARTS["2.1:1"]
    out = cascade.residual_decompositions(part, (4.0, 1.0))
    assert out["passed"]
    assert out["claim"].startswith("1/14*D15 - D1")


@pytest.mark.parametrize("tol, message", [
    (math.nan, "tol must be finite"), (-math.inf, "tol must be finite"),
    (None, "tol must be a real number"),
    (False, "tol must be a real number")])
def test_residual_decompositions_refuse_a_tol_that_is_not_a_finite_real(
        tol, message):
    # A NaN tol used to report the point check as failed.
    with pytest.raises(ValueError, match=message):
        cascade.residual_decompositions(1, (3.0, 1.0), tol=tol)


def test_residual_identities_exact():
    for part in cascade.theorem_parts():
        assert cascade.residual_identity_exact(part), part.id


def test_printed_constant_repair_is_recorded():
    repaired = [p for p in cascade.theorem_parts()
                if p.printed_c is not None and p.printed_c != p.c]
    assert [p.id for p in repaired] == ["2.1:17"]
    assert repaired[0].printed_c == Fraction(1, 4)
    assert repaired[0].c == Fraction(1, 16)


def test_combination_lines_statuses():
    assert set(cascade.COMBINATION_LINES) >= {"V1", "U1", "U15"}
    for mid, lines in cascade.COMBINATION_LINES.items():
        statuses = {ln.status for ln in lines}
        assert statuses <= {"ok", "corrected", "printed"}, mid
        assert ("ok" in statuses) or ("corrected" in statuses), mid
    for ln in cascade.combination_lines("V1"):
        if ln.status in ("ok", "corrected"):
            assert cascade.combo_line_exact(ln), ln
        else:
            assert not cascade.combo_line_exact(ln), ln


def test_fit_combination_recovers_known_expansion():
    fit = cascade.fit_combination("V1", ["psi", "K", "delta", "D_CN"])
    assert fit == {"psi": Fraction(0), "K": Fraction(1),
                   "delta": Fraction(26), "D_CN": Fraction(-48)}
    assert cascade.fit_combination("V1", ["psi"]) is None


def test_fit_combination_over_the_root_mean_square():
    fit = cascade.fit_combination("D_SA", ["S", "A"])
    assert fit == {"S": Fraction(1), "A": Fraction(-1)}
    # S is irrational over Q(u): no rational basis reaches it.
    assert cascade.fit_combination("D_SA", ["A", "G", "H"]) is None
    assert cascade.fit_combination("D_CS", ["C", "D_SA", "A"]) == {
        "C": Fraction(1), "D_SA": Fraction(-1), "A": Fraction(-1)}


def test_equivalent_expression_matches_direct_value():
    pair = (4.0, 1.0)
    direct = catalog.get("V1").value(*pair)
    via_combo = cascade.equivalent_expression("V1", pair)
    assert via_combo == pytest.approx(direct, abs=1e-11)


def test_v_and_u_helpers():
    assert cascade.V(1, (4.0, 1.0)) == pytest.approx(0.1, rel=1e-12)
    assert cascade.U(1, (4.0, 1.0)) == pytest.approx(0.05, rel=1e-12)
    # Array evaluation goes through the catalog measure directly.
    a = np.array([4.0, 9.0])
    vals = catalog.get("V1").value(a, 1.0)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(0.1, rel=1e-12)

"""Unit tests for audit configuration, reporting, and errata records."""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from divcascade import analysis, audit, cascade, catalog, means


@pytest.fixture(scope="module")
def report():
    cfg = audit.AuditConfig(chains=["means"], samples=500, seed=1, workers=1)
    return audit.run_audit(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        audit.AuditConfig(samples=0)
    with pytest.raises(ValueError):
        audit.AuditConfig(workers=0)
    with pytest.raises(ValueError):
        audit.AuditConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        audit.AuditConfig(chains=["nosuch"])


def test_chain_selection_exact_and_prefix():
    cfg = audit.AuditConfig(chains=["eq12"])
    assert cfg.chain_ids == ("eq12_main", "eq12_branch")
    cfg = audit.AuditConfig(chains=["means", "eq7"])
    assert cfg.chain_ids == ("means", "eq7")
    cfg = audit.AuditConfig(chains="all")
    assert len(cfg.chain_ids) == 26


def test_small_run_passes_and_reports(report):
    assert audit.report_passed(report)
    header = report["header"]
    assert header["seed"] == 1
    assert header["version"]
    assert "timestamp" in header
    kinds = {c["kind"] for c in report["checks"]}
    assert kinds == {"chain", "identity", "ratio-constant", "convexity",
                     "series", "negative-control"}
    for c in report["checks"]:
        assert set(c) == {"id", "kind", "samples", "max_violation",
                          "verdict", "counterexamples", "paper_ref"}


def test_check_families_present(report):
    ids = [c["id"] for c in report["checks"]]
    assert len(ids) == len(set(ids))
    prefixes = {"chain:", "identity:", "anchor:", "decomposition:",
                "beta:", "convexity:", "combination:", "series:",
                "witness:", "negative-control:"}
    for pre in prefixes:
        assert any(i.startswith(pre) for i in ids), pre
    assert sum(1 for i in ids if i.startswith("decomposition:")) == 53
    assert sum(1 for i in ids if i.startswith("beta:")) == 53
    assert sum(1 for i in ids if i.startswith("convexity:")) == 68
    assert sum(1 for i in ids if i.startswith("anchor:")) == 27


def test_negative_control_detects_planted_violation(report):
    control = [c for c in report["checks"]
               if c["kind"] == "negative-control"]
    assert len(control) == 1
    assert control[0]["verdict"] == "pass"
    assert control[0]["counterexamples"], "control must keep a witness"


def test_errata_records_schema(report):
    ids = [e["id"] for e in audit.ERRATA]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 20
    for e in audit.ERRATA:
        assert set(e) == {"id", "location", "description",
                          "suggested_correction"}
        assert e["id"].startswith("E")
    assert report["errata"] == audit.ERRATA


def test_errata_never_fail_the_run(report):
    assert audit.report_passed(report)
    assert len(report["errata"]) >= 20


def test_write_load_diff_roundtrip(report, tmp_path):
    path = tmp_path / "r.json"
    audit.write_report(report, str(path))
    loaded = audit.load_report(str(path))
    assert loaded == report
    assert audit.diff_reports(report, loaded) == []

    tampered = json.loads(json.dumps(report))
    tampered["checks"][0]["verdict"] = "fail"
    del tampered["checks"][1]
    lines = audit.diff_reports(report, tampered)
    assert len(lines) == 2
    assert any("pass -> fail" in ln for ln in lines)
    assert any("<absent>" in ln for ln in lines)


def test_report_passed_detects_failure(report):
    tampered = json.loads(json.dumps(report))
    tampered["checks"][0]["verdict"] = "fail"
    assert not audit.report_passed(tampered)


# -- the identity checker ----------------------------------------------------
# Reference: the residual formulas of the per-group builders that the one
# identity checker replaced, kept here verbatim in arithmetic.

def _ref_rel_gap(lhs, rhs):
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return np.abs(lhs - rhs) / scale


def _ref_combo_gap(member, terms, a, b):
    parts = [float(c) * catalog.get(mid).value(a, b) for c, mid in terms]
    total, scale = parts[0], np.abs(parts[0])
    for p in parts[1:]:
        total = total + p
        scale = np.maximum(scale, np.abs(p))
    scale = np.maximum(np.maximum(scale, np.abs(member)), 1e-300)
    return np.abs(member - total) / scale


def _reference_violations(a, b):
    out = {}
    for ident, lhs_terms, rhs_terms in means.identity_table():
        lhs = sum(c * means.symbol_value(s, a, b) for c, s in lhs_terms)
        rhs = sum(c * means.symbol_value(s, a, b) for c, s in rhs_terms)
        out[f"identity:{ident}"] = float(np.max(_ref_rel_gap(lhs, rhs)))
    vals = [float(s) * catalog.get(f"D{k}").value(a, b)
            for k, s in enumerate(cascade.PYRAMID_EQ_SCALES, start=1)]
    worst = 0.0
    for v in vals[1:]:
        gap = _ref_rel_gap(v, vals[0])
        worst = max(worst, float(gap[int(np.argmax(gap))]))
    out["identity:pyramid-common-value"] = worst
    for left, right, _ in audit._EXACT_PAIRS:
        out[f"identity:{left}=={right}"] = float(np.max(_ref_rel_gap(
            catalog.get(left).value(a, b), catalog.get(right).value(a, b))))
    out["identity:W-aliases"] = max(
        float(np.max(_ref_combo_gap(catalog.get(wid).value(a, b), terms,
                                    a, b)))
        for wid, terms in audit._W_ALIASES)
    for fid, t, forms in audit._ANCHORS:
        member = catalog.get(f"{fid}:{t}").value(a, b)
        out[f"anchor:{fid}:{t}"] = max(
            float(np.max(_ref_combo_gap(member, terms, a, b)))
            for terms in forms)
    for part in cascade.theorem_parts():
        beta, c = float(part.beta), float(part.c)
        big = catalog.get(part.big).value(a, b)
        small = catalog.get(part.small).value(a, b)
        lhs = beta * big - small
        rhs = c * catalog.get(part.residual).value(a, b)
        scale = np.maximum.reduce([np.abs(beta * big), np.abs(small),
                                   np.abs(rhs), np.full_like(rhs, 1e-300)])
        out[f"decomposition:{part.id}"] = float(
            np.max(np.abs(lhs - rhs) / scale))
    for mid, lines in cascade.COMBINATION_LINES.items():
        ok = [l for l in lines if l.status == "ok"]
        canonical = (ok or [l for l in lines if l.status == "corrected"])[0]
        out[f"combination:{mid}"] = float(np.max(_ref_combo_gap(
            catalog.get(mid).value(a, b), canonical.terms, a, b)))
    return out


def test_identity_checker_reproduces_reference_residuals():
    a, b = analysis.sample_pairs(2000, seed=7)
    idents = audit._identities(1e-12) + audit._combinations(1e-12)
    results = {i.id: audit._check_identity(i, a, b) for i in idents}
    reference = _reference_violations(a, b)
    assert len(results) == len(reference) == 137
    for cid, expected in reference.items():
        assert repr(results[cid].max_violation) == repr(expected), cid
        assert results[cid].verdict == "pass", cid
        assert results[cid].detail == "proved exact", cid


@pytest.fixture(scope="module")
def pairs():
    return analysis.sample_pairs(2000, seed=7)


def _failed(result):
    assert result.verdict == "fail"
    assert len(result.counterexamples) == 1
    ce = result.counterexamples[0]
    assert set(ce) == {"index", "a", "b", "violation"}
    return ce


def test_perturbed_decomposition_fails_proof_and_keeps_witness(pairs):
    part = cascade.THEOREM_PARTS["2.1:1"]
    bad = replace(part, c=part.c * Fraction(101, 100))
    res = audit._check_identity(
        audit.Identity("decomposition:bad", "", 1e-11, (bad.claim,)), *pairs)
    assert res.max_violation == float("inf")
    assert res.detail == "exact identity fails"
    ce = _failed(res)
    assert 1e-11 < ce["violation"] < float("inf")


def test_anchor_with_one_changed_coefficient_fails(pairs):
    good = audit.Identity("anchor:K1:1", "", 1e-12, (
        (((1, "K1:1"),), ((1, "psi"), (-2, "K"))),))
    assert audit._check_identity(good, *pairs).verdict == "pass"
    bad = replace(good, claims=((((1, "K1:1"),), ((1, "psi"), (-3, "K"))),))
    res = audit._check_identity(bad, *pairs)
    assert res.max_violation == float("inf")
    _failed(res)


def test_claim_without_generator_is_caught_by_sampling(pairs):
    true = audit.Identity("identity:S-A", "", 1e-12, (
        (((1, "D_SA"),), ((1, "S"), (-1, "A"))),))
    res = audit._check_identity(true, *pairs)
    assert res.verdict == "pass" and res.detail == "sampled only"
    false = audit.Identity("identity:S=R", "", 1e-12, (
        (((1, "S"),), ((1, "R"),)),))
    res = audit._check_identity(false, *pairs)
    assert res.detail == "sampled only"
    ce = _failed(res)
    assert 1e-12 < res.max_violation == ce["violation"] < float("inf")


def test_exact_misprint_fails_the_combination(pairs):
    lines = cascade.combination_lines("V10")
    ok = [l.claim for l in lines if l.status != "printed"]
    printed = [l.claim for l in lines if l.status == "printed"]
    ident = audit.Identity("combination:V10", "", 1e-12, tuple(ok[:1]),
                           unsampled=tuple(ok[1:]), misprints=tuple(printed))
    assert audit._check_identity(ident, *pairs).verdict == "pass"
    res = audit._check_identity(replace(ident, misprints=tuple(ok[1:2])),
                                *pairs)
    assert res.max_violation == float("inf")
    _failed(res)


@pytest.mark.parametrize("change", [
    {"beta": Fraction(101, 100)}, {"beta": Fraction(99, 100)},
    {"c": Fraction(-1)}, {"c": Fraction(0)}])
def test_perturbed_theorem_part_fails(pairs, change):
    for part in (cascade.THEOREM_PARTS["2.1:1"],
                 cascade.THEOREM_PARTS["2.4:4"]):
        bad = replace(part, **{k: getattr(part, k) * v
                               for k, v in change.items()})
        decomposition = audit._check_identity(audit.Identity(
            "decomposition:bad", "", 1e-11, (bad.claim,)), *pairs)
        assert decomposition.max_violation == float("inf")
        beta = audit._check_beta(bad)
        if "beta" in change:
            assert beta.verdict == "fail"
            assert beta.max_violation == float("inf")
        else:
            assert beta.verdict == "pass"   # beta does not depend on c


def test_sharp_constant_needs_the_bound_off_the_diagonal():
    # Swapped, the ratio tends to 1/beta at x = 1 but exceeds it elsewhere.
    part = cascade.THEOREM_PARTS["2.1:1"]
    swapped = replace(part, small=part.big, big=part.small,
                      beta=1 / part.beta)
    assert cascade.beta_exact(swapped) == swapped.beta
    assert audit._check_beta(part).verdict == "pass"
    assert audit._check_beta(swapped).max_violation == float("inf")


def test_sharp_constants_are_proved_without_samples(report):
    betas = [c for c in report["checks"] if c["id"].startswith("beta:")]
    assert len(betas) == 53
    for c in betas:
        assert (c["kind"], c["samples"], c["max_violation"]) == (
            "ratio-constant", 0, 0.0)

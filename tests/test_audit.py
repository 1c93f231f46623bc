"""Unit tests for audit configuration, reporting, and errata records."""

import functools
import json
import math
import os
import pickle
import threading
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from divcascade import (analysis, audit, cascade, catalog, generators, means,
                        pool, ratfun)
from divcascade.ratfun import Poly


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        audit.AuditConfig(seed=-1)


@pytest.mark.parametrize("field, value", [
    ("samples", 2000.9), ("workers", 2.5), ("seed", 7.7), ("samples", 500.0),
    ("samples", True), ("workers", True), ("seed", True),
])
def test_config_refuses_integer_knobs_that_are_not_integers(field, value):
    # Truncating would run 2000 pairs, 2 workers or seed 7 without a word.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        audit.AuditConfig(**{field: value})


@pytest.mark.parametrize("value", ["1e-3", True, np.True_, None])
def test_config_refuses_a_tolerance_that_is_not_a_real_number(value):
    # float() would read "1e-3" as 0.001 and True as 1.0 without a word.
    with pytest.raises(ValueError, match="tolerance must be a real number"):
        audit.AuditConfig(tolerance=value)


@pytest.mark.parametrize("value", [1, 1e-3, np.float32(0.5), np.int64(2),
                                   Fraction(1, 4)])
def test_config_takes_real_tolerances_as_floats(value):
    cfg = audit.AuditConfig(tolerance=value, workers=1)
    assert type(cfg.tolerance) is float and cfg.tolerance == float(value)


def test_config_takes_numpy_integers():
    cfg = audit.AuditConfig(samples=np.int64(500), workers=np.int32(1),
                            seed=np.uint8(7))
    assert (cfg.samples, cfg.workers, cfg.seed) == (500, 1, 7)
    assert {type(v) for v in (cfg.samples, cfg.workers, cfg.seed)} == {int}


def test_chain_selection_exact_and_prefix():
    cfg = audit.AuditConfig(chains=["eq12"])
    assert cfg.chain_ids == ("eq12_main", "eq12_branch")
    cfg = audit.AuditConfig(chains=["means", "eq7"])
    assert cfg.chain_ids == ("means", "eq7")
    cfg = audit.AuditConfig(chains="all")
    assert len(cfg.chain_ids) == 26


@pytest.mark.parametrize("chains, ids", [
    ("means", ("means",)),
    ("means,eq7", ("means", "eq7")),
    (["means,eq7", "eq12", "means"], ("means", "eq7", "eq12_main",
                                      "eq12_branch")),
    (None, cascade.chains()),
    (["all"], cascade.chains()),
    (["", "all,"], cascade.chains()),
])
def test_chain_selection_splits_each_string_at_commas(chains, ids):
    # A string is one selection, not a sequence of one-letter prefixes.
    assert audit.AuditConfig(chains=chains).chain_ids == ids


@pytest.mark.parametrize("chains", [[], (), "", ",", [","], ["", ",,"]])
def test_an_empty_chain_selection_is_refused(chains):
    with pytest.raises(ValueError, match="no chain selected"):
        audit.AuditConfig(chains=chains)


@pytest.mark.parametrize("check", [{"id": "c"}, {"verdict": "pass"},
                                   {"id": ["c"], "verdict": "pass"}])
def test_diff_reports_refuses_a_check_without_an_id_or_verdict(check):
    # A check without a verdict raised a bare KeyError.
    with pytest.raises(ValueError, match="string 'id' and 'verdict'"):
        audit.diff_reports({"checks": [check]}, {"checks": []})


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
# identity checker replaced, kept here verbatim in arithmetic.  Every term
# is its generator at x = a/b: each measure is b*f(a/b), and the residuals
# are homogeneous of degree 0.

def _ref_rel_gap(lhs, rhs):
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return np.abs(lhs - rhs) / scale


def _ref_combo_gap(member, terms, x):
    parts = [float(c) * catalog.get(mid)(x) for c, mid in terms]
    total, scale = parts[0], np.abs(parts[0])
    for p in parts[1:]:
        total = total + p
        scale = np.maximum(scale, np.abs(p))
    scale = np.maximum(np.maximum(scale, np.abs(member)), 1e-300)
    return np.abs(member - total) / scale


def _reference_violations(a, b):
    x = a / b
    out = {}
    for ident, lhs_terms, rhs_terms in means.identity_table():
        lhs = sum(c * catalog.get(s)(x) for c, s in lhs_terms)
        rhs = sum(c * catalog.get(s)(x) for c, s in rhs_terms)
        out[f"identity:{ident}"] = float(np.max(_ref_rel_gap(lhs, rhs)))
    vals = [float(s) * catalog.get(f"D{k}")(x)
            for k, s in enumerate(cascade.PYRAMID_EQ_SCALES, start=1)]
    worst = 0.0
    for v in vals[1:]:
        gap = _ref_rel_gap(v, vals[0])
        worst = max(worst, float(gap[int(np.argmax(gap))]))
    out["identity:pyramid-common-value"] = worst
    for left, right, _ in audit._EXACT_PAIRS:
        out[f"identity:{left}=={right}"] = float(np.max(_ref_rel_gap(
            catalog.get(left)(x), catalog.get(right)(x))))
    out["identity:W-aliases"] = max(
        float(np.max(_ref_combo_gap(catalog.get(f"W{k}")(x), [form], x)))
        for k, form in enumerate(catalog.EQ9_FORMS, start=1))
    for fid, t, forms in audit._ANCHORS:
        member = catalog.get(f"{fid}:{t}")(x)
        out[f"anchor:{fid}:{t}"] = max(
            float(np.max(_ref_combo_gap(member, terms, x)))
            for terms in forms)
    for part in cascade.theorem_parts():
        beta, c = float(part.beta), float(part.c)
        big = catalog.get(part.big)(x)
        small = catalog.get(part.small)(x)
        lhs = beta * big - small
        rhs = c * catalog.get(part.residual)(x)
        scale = np.maximum.reduce([np.abs(beta * big), np.abs(small),
                                   np.abs(rhs), np.full_like(rhs, 1e-300)])
        out[f"decomposition:{part.id}"] = float(
            np.max(np.abs(lhs - rhs) / scale))
    for mid, lines in cascade.COMBINATION_LINES.items():
        ok = [l for l in lines if l.status == "ok"]
        canonical = (ok or [l for l in lines if l.status == "corrected"])[0]
        out[f"combination:{mid}"] = float(np.max(_ref_combo_gap(
            catalog.get(mid)(x), canonical.terms, x)))
    return out


def test_identity_checker_reproduces_reference_residuals():
    sample = analysis.Sample.draw(2000, seed=7)
    idents = audit._identities(1e-12) + audit._combinations(1e-12)
    results = {i.id: audit._check_identity(i, sample) for i in idents}
    reference = _reference_violations(*sample.pairs())
    assert len(results) == len(reference) == 137
    for cid, expected in reference.items():
        assert repr(results[cid].max_violation) == repr(expected), cid
        assert results[cid].verdict == "pass", cid
        assert results[cid].detail == "proved exact", cid


def _per_call_gap(lhs, rhs, a, b):
    """The claim gap with every symbol's f(a/b) evaluated by its own
    call."""
    x = a / b
    scale = np.full(a.shape, 1e-300)
    sums = []
    for terms in (lhs, rhs):
        total = None
        for c, symbol in terms:
            t = float(c) * catalog.get(symbol)(x)
            np.maximum(scale, np.abs(t), out=scale)
            total = t if total is None else total + t
        np.maximum(scale, np.abs(total), out=scale)
        sums.append(total)
    return np.abs(sums[0] - sums[1]) / scale


def test_shared_context_gaps_are_bitwise_the_per_call_gaps(monkeypatch):
    sample = analysis.Sample.draw(2000, seed=11)
    claims = [claim for ident in audit._identities(1e-12)
              + audit._combinations(1e-12) for claim in ident.claims]
    assert len(claims) == 168
    equalities = [analysis.Equality(lhs, rhs) for lhs, rhs in claims]
    # The per-call gaps, each claim on a chunk of its own, and the gaps of
    # all claims on one context, before _Shared is patched below.
    gaps = [analysis.claim_gaps([eq], sample)[0] for eq in equalities]
    shared = analysis.claim_gaps(equalities, sample)
    for (lhs, rhs), got, one in zip(claims, gaps, shared):
        ref = _per_call_gap(lhs, rhs, *sample.pairs())
        assert got.tobytes() == ref.tobytes(), (lhs, rhs)
        assert one.tobytes() == ref.tobytes(), (lhs, rhs)
    built = []

    class Kept(analysis._Shared):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    monkeypatch.setattr(analysis, "_Shared", Kept)
    folds = analysis.scan_claims(equalities, sample)
    for fold, gap in zip(folds, gaps):
        assert fold.worst == gap.max() and fold.index == np.argmax(gap)
    # One context, compiled once, served all 168 claims: the program
    # holds six distinct powers (u - 1)^m.
    assert len(built) == 1
    assert sorted(built[0]._powers) == [2, 4, 6, 8, 10, 12]


def _sampled_checks(report):
    return json.dumps([c for c in report["checks"] if c["id"].startswith(
        ("chain:", "identity:", "anchor:", "decomposition:", "combination:"))])


@pytest.fixture(scope="module")
def seed7_sampled_checks():
    report = audit.run_audit(audit.AuditConfig(samples=20000, seed=7,
                                               workers=1))
    return _sampled_checks(report)


@pytest.mark.parametrize("chunk, workers", [
    (analysis.CHUNK, 2), (analysis.CHUNK, 3), (8192, 2), (8192, 3),
    (4096, 1), (4096, 2), (4096, 3), (1000, 1), (1000, 4)])
def test_audit_folds_do_not_depend_on_chunk_or_workers(
        monkeypatch, seed7_sampled_checks, chunk, workers):
    monkeypatch.setattr(analysis, "CHUNK", chunk)
    report = audit.run_audit(
        audit.AuditConfig(samples=20000, seed=7, workers=workers))
    assert _sampled_checks(report) == seed7_sampled_checks


def _no_fork():
    raise AssertionError("fork called")


def _no_thread_start(self):
    raise AssertionError("thread started")


def _with_another_thread_alive(monkeypatch, run):
    """``run()`` while a second Python thread waits, with ``os.fork``
    and ``threading.Thread.start`` raising: a pass that cannot fork
    must run serially, on no new thread."""
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "fork", _no_fork)
            m.setattr(threading.Thread, "start", _no_thread_start)
            result = run()
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    return result


def test_audit_with_another_thread_alive_does_not_fork(
        monkeypatch, seed7_sampled_checks):
    report = _with_another_thread_alive(monkeypatch, lambda: audit.run_audit(
        audit.AuditConfig(samples=20000, seed=7, workers=2)))
    assert _sampled_checks(report) == seed7_sampled_checks


def test_chain_scan_with_another_thread_alive_does_not_fork(monkeypatch):
    sample = analysis.Sample.draw(20000, seed=7)
    terms = cascade.get_chain("means").terms
    serial = analysis.scan_chain_terms(terms, sample, -1.0, workers=1)
    got = _with_another_thread_alive(
        monkeypatch,
        lambda: analysis.scan_chain_terms(terms, sample, -1.0, workers=2))
    assert got == serial


def _in_child(parent, action):
    """A chunk's fold (``analysis._chunk_fold``) that runs ``action`` in
    a forked scan helper only.  A test that patches it asks for
    ``no_helpers``, so the helpers are forked with the patch."""
    real = analysis._chunk_fold

    def fold(*args):
        if os.getpid() != parent:
            action()
        return real(*args)
    return fold


def _raise_boom():
    raise ValueError("boom in a scan worker")


def test_scan_worker_exception_is_raised_in_parent(monkeypatch,
                                                   no_helpers):
    monkeypatch.setattr(analysis, "_chunk_fold",
                        _in_child(os.getpid(), _raise_boom))
    with pytest.raises(ValueError, match="boom in a scan worker"):
        audit.run_audit(audit.AuditConfig(samples=20000, seed=7, workers=2))
    assert not pool._helpers
    with pytest.raises(ChildProcessError):     # every helper was reaped
        os.waitpid(-1, os.WNOHANG)


def test_scan_worker_that_dies_raises_runtime_error(monkeypatch,
                                                    no_helpers):
    monkeypatch.setattr(analysis, "_chunk_fold",
                        _in_child(os.getpid(), lambda: os._exit(3)))
    with pytest.raises(RuntimeError, match="without a result.*exit code 3"):
        audit.run_audit(audit.AuditConfig(samples=20000, seed=7, workers=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class NeedsTwo(Exception):
    """Pickles, but cannot be rebuilt from its message alone."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_needs_two():
    raise NeedsTwo(1, 2)


def test_scan_worker_exception_that_does_not_unpickle(monkeypatch,
                                                      no_helpers):
    monkeypatch.setattr(analysis, "_chunk_fold",
                        _in_child(os.getpid(), _raise_needs_two))
    with pytest.raises(RuntimeError, match="NeedsTwo: 1 and 2"):
        audit.run_audit(audit.AuditConfig(samples=20000, seed=7, workers=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_fork_reaps_the_children_already_made(monkeypatch,
                                                     no_helpers):
    forks = []
    real = os.fork

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(11, "fork refused")
        return real()

    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(OSError, match="fork refused"):
        audit.run_audit(audit.AuditConfig(samples=20000, seed=7, workers=3))
    assert len(forks) == 2 and not pool._helpers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_audit_forks_at_most_one_child_per_chunk(monkeypatch,
                                                 no_helpers):
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    # 3 chunks of CHUNK pairs, the last one short: 3 scan helpers, not 64,
    # beside the prover.
    config = audit.AuditConfig(samples=3 * analysis.CHUNK - 1, seed=7,
                               workers=64)
    audit.run_audit(config)
    assert len(forks) == 4
    # They stay, idle, and the next audit leases them again.
    assert [h.busy for h in pool._helpers] == [False] * 4
    audit.run_audit(config)
    assert len(forks) == 4


def test_the_prover_and_the_serial_audit_give_the_same_checks(
        monkeypatch, no_helpers):
    # At 2 workers a forked prover proves and two scan helpers scan; at 1
    # this process does both, forking nothing.
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    reports = []
    for workers in (2, 1):
        reports.append(audit.run_audit(audit.AuditConfig(
            samples=2 * analysis.CHUNK, seed=3, workers=workers)))
        assert len(forks) == 3
    forked, serial = (json.dumps(r["checks"]) for r in reports)
    assert forked == serial


def test_a_proof_that_raises_in_the_prover_is_raised_in_the_parent(
        monkeypatch, no_helpers):
    parent, real = os.getpid(), audit._check_beta

    def check_beta(part):
        if os.getpid() != parent:
            raise ValueError("boom in the prover")
        return real(part)

    monkeypatch.setattr(audit, "_check_beta", check_beta)
    with pytest.raises(ValueError, match="boom in the prover"):
        audit.run_audit(audit.AuditConfig(samples=2 * analysis.CHUNK, seed=7,
                                          workers=2))
    # The prover is reaped; the scan helpers, joined, idle.
    assert [h.busy for h in pool._helpers] == [False, False]


def test_the_prover_is_sent_the_rows_the_parent_built(monkeypatch,
                                                     no_helpers):
    # The request that goes down the prover's pipe holds the parent's
    # chains, identity and table checks, proof parts and convexity ids,
    # to prove and certify as given.
    sent, real = [], pool._send

    def send(fd, data):
        sent.append(data)
        return real(fd, data)

    monkeypatch.setattr(pool, "_send", send)
    config = audit.AuditConfig(chains="means,eq7", samples=2 * analysis.CHUNK,
                               seed=3, workers=2)
    audit.run_audit(config)
    requests = [pickle.loads(data) for data in sent]
    (chains, idents, parts, convex), = [arg for function, arg in requests
                                        if function is audit._proofs]
    assert chains == [cascade.get_chain("means"), cascade.get_chain("eq7")]
    assert idents == audit._identities(1e-12) + audit._tables(1e-12)
    assert len(idents) == 151
    assert parts == cascade.theorem_parts()
    assert convex == audit._convexity_ids() and len(convex) == 68


def test_the_parent_of_a_forked_audit_only_assembles(monkeypatch,
                                                     no_helpers):
    # At 2 workers the scan helpers scan, the control's pairs included,
    # and the prover proves and certifies: this process neither scans,
    # draws nor evaluates a measure, in floats or in decimal.
    parent, calls = os.getpid(), []

    def watch(owner, name):
        real = getattr(owner, name)

        @functools.wraps(real)      # _scan_run still pickles by name
        def watched(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, watched)

    for owner, name in [(analysis, "_scan_run"), (analysis, "_draw"),
                        (ratfun.RatU, "eval_ctx"), (ratfun.RatS, "eval_ctx"),
                        (catalog.Measure, "eval_mp")]:
        watch(owner, name)
    config = dict(samples=2 * analysis.CHUNK, seed=3)
    forked = audit.run_audit(audit.AuditConfig(workers=2, **config))
    assert calls == []
    serial = audit.run_audit(audit.AuditConfig(workers=1, **config))
    assert {"_scan_run", "_draw", "eval_ctx", "eval_mp"} <= set(calls)
    assert json.dumps(forked["checks"]) == json.dumps(serial["checks"])


@pytest.mark.parametrize("workers", [1, 2])
def test_an_audit_builds_its_rows_once(monkeypatch, no_helpers, workers):
    # The parent builds them; the prover, if any, proves what it is sent.
    parent, calls = os.getpid(), []

    def counted(name):
        real = getattr(audit, name)

        def build(tol):
            if os.getpid() != parent:
                raise AssertionError(f"{name} ran in a helper")
            calls.append(name)
            return real(tol)
        return build

    for name in ("_identities", "_tables"):
        monkeypatch.setattr(audit, name, counted(name))
    report = audit.run_audit(audit.AuditConfig(
        chains="means", samples=2 * analysis.CHUNK, seed=3, workers=workers))
    assert audit.report_passed(report)
    assert calls == ["_identities", "_tables"]


def test_workers_default_is_the_usable_cpu_count(monkeypatch):
    assert audit.AuditConfig().workers == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert audit.AuditConfig().workers == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert audit.AuditConfig(workers=None).workers == 3
    monkeypatch.delattr(os, "fork")
    assert audit.AuditConfig().workers == 1


@pytest.fixture(scope="module")
def sample():
    return analysis.Sample.draw(2000, seed=7)


def _failed(result):
    assert result.verdict == "fail"
    assert len(result.counterexamples) == 1
    ce = result.counterexamples[0]
    assert set(ce) == {"index", "a", "b", "violation"}
    return ce


def test_identity_counterexample_is_the_first_nan(sample):
    # The rule of a sampled pass's merge: the first NaN is kept.
    ident = audit.Identity("identity:two", "", 1e-12, (
        (((1, "D_SA"),), ((1, "S"), (-1, "A"))),
        (((1, "D_SA"),), ((1, "S"), (-1, "A")))))
    nan = float("nan")
    folds = [analysis.Fold(nan, 3), analysis.Fold(nan, 7)]
    res = audit._check_identity(ident, sample, folds, proved=True)
    assert math.isnan(res.max_violation)
    assert _failed(res)["index"] == 3
    merged = analysis.Fold(-1.0, 1)
    for fold in folds + [analysis.Fold(2.0, 9)]:
        merged.absorb(fold)
    assert math.isnan(merged.worst) and merged.index == 3


def test_perturbed_decomposition_fails_proof_and_keeps_witness(sample):
    part = cascade.THEOREM_PARTS["2.1:1"]
    bad = replace(part, c=part.c * Fraction(101, 100))
    res = audit._check_identity(
        audit.Identity("decomposition:bad", "", 1e-11, (bad.claim,)), sample)
    assert res.max_violation == float("inf")
    assert res.detail == "exact identity fails"
    ce = _failed(res)
    assert 1e-11 < ce["violation"] < float("inf")


def test_anchor_with_one_changed_coefficient_fails(sample):
    good = audit.Identity("anchor:K1:1", "", 1e-12, (
        (((1, "K1:1"),), ((1, "psi"), (-2, "K"))),))
    assert audit._check_identity(good, sample).verdict == "pass"
    bad = replace(good, claims=((((1, "K1:1"),), ((1, "psi"), (-3, "K"))),))
    res = audit._check_identity(bad, sample)
    assert res.max_violation == float("inf")
    _failed(res)


def test_root_mean_square_claims_are_proved(sample):
    true = audit.Identity("identity:S-A", "", 1e-12, (
        (((1, "D_SA"),), ((1, "S"), (-1, "A"))),))
    res = audit._check_identity(true, sample)
    assert res.verdict == "pass" and res.detail == "proved exact"
    false = audit.Identity("identity:S=R", "", 1e-12, (
        (((1, "S"),), ((1, "R"),)),))
    res = audit._check_identity(false, sample)
    assert res.detail == "exact identity fails"
    assert res.max_violation == float("inf")
    ce = _failed(res)
    assert 1e-12 < ce["violation"] < float("inf")


def test_public_helpers_report_the_audit_gap():
    sample = analysis.Sample.draw(40, seed=7)
    a, b = sample.pairs()
    claims = {i.id: i.claims[0] for i in audit._identities(1e-12)}
    table = means.identity_table()
    assert len(table) == 24
    gaps = analysis.claim_gaps(
        [analysis.Equality(*claims[f"identity:{ident}"])
         for ident, _, _ in table], sample)
    gaps = {ident: gap for (ident, _, _), gap in zip(table, gaps)}
    parts = cascade.theorem_parts()
    assert len(parts) == 53
    part_gaps = analysis.claim_gaps(
        [analysis.Equality(*p.claim) for p in parts], sample)
    for i in range(a.size):
        for ident, resid, ok in means.verify_mean_identities(a[i], b[i]):
            assert resid == gaps[ident][i], (ident, i)
            assert ok
        for p, gap in zip(parts, part_gaps):
            out = cascade.residual_decompositions(p, (a[i], b[i]))
            assert out["residual"] == gap[i], (p.id, i)
            assert out["passed"]


def test_exact_misprint_fails_the_combination(sample):
    lines = cascade.combination_lines("V10")
    ok = [l.claim for l in lines if l.status != "printed"]
    printed = [l.claim for l in lines if l.status == "printed"]
    ident = audit.Identity("combination:V10", "", 1e-12, tuple(ok[:1]),
                           unsampled=tuple(ok[1:]), misprints=tuple(printed))
    assert audit._check_identity(ident, sample).verdict == "pass"
    res = audit._check_identity(replace(ident, misprints=tuple(ok[1:2])),
                                sample)
    assert res.max_violation == float("inf")
    _failed(res)


@pytest.mark.parametrize("change", [
    {"beta": Fraction(101, 100)}, {"beta": Fraction(99, 100)},
    {"c": Fraction(-1)}, {"c": Fraction(0)}])
def test_perturbed_theorem_part_fails(sample, change):
    for part in (cascade.THEOREM_PARTS["2.1:1"],
                 cascade.THEOREM_PARTS["2.4:4"]):
        bad = replace(part, **{k: getattr(part, k) * v
                               for k, v in change.items()})
        decomposition = audit._check_identity(audit.Identity(
            "decomposition:bad", "", 1e-11, (bad.claim,)), sample)
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


def test_printed_formula_checks_are_proofs(report):
    ids = ([f"series:{fid}" for fid in generators.EXP_FORMS]
           + [f"witness:{fid}" for fid in generators.WITNESS_FORMS]
           + ["identity:W8-second-derivative"])
    checks = {c["id"]: c for c in report["checks"]}
    assert len(ids) == 14
    for cid in ids:
        c = checks[cid]
        assert (c["verdict"], c["samples"], c["max_violation"]) == (
            "pass", 0, 0.0), cid


def _printed_row(cid):
    """The series, witness or W8 row as the audit builds it now."""
    rows = audit._printed_forms() + [audit._w8_printed()]
    return next(ident for ident in rows if ident.id == cid)


def _proof_failed(result):
    assert (result.verdict, result.max_violation) == ("fail", float("inf"))
    assert (result.samples, result.counterexamples) == (0, [])


def test_printed_exponent_as_step_ratio_fails_the_series(monkeypatch, sample):
    printed = generators.EXP_FORMS["Delta1"]["printed_arg"][1]
    monkeypatch.setitem(generators.STEP_RATIOS, "Delta1", printed)
    res = audit._check_identity(_printed_row("series:Delta1"), sample)
    assert res.kind == "series"
    _proof_failed(res)


@pytest.mark.parametrize("fid", ["K1", "Delta1"])
def test_changed_witness_coefficient_fails(monkeypatch, sample, fid):
    # The t-free part W0 and the t and t^2 parts W1, W2 each carry a proof.
    form = generators.WITNESS_FORMS[fid]
    witness = form["witness"]
    for k in range(3):
        changed = list(witness)
        changed[k] = changed[k] + Poly([0, 0, 1])
        monkeypatch.setitem(form, "witness", tuple(changed))
        _proof_failed(audit._check_identity(_printed_row(f"witness:{fid}"),
                                            sample))


@pytest.mark.parametrize("fid", ["Delta2", "Lt"])
def test_changed_family_ratio_fails_the_series(monkeypatch, sample, fid):
    lead, (num, den) = catalog.FAMILY_FORMS[fid]
    monkeypatch.setitem(catalog.FAMILY_FORMS, fid,
                        (lead, (num + Poly([0, 0, 1]), den)))
    _proof_failed(audit._check_identity(_printed_row(f"series:{fid}"),
                                        sample))


def test_changed_family_lead_or_ratio_fails_the_witness(monkeypatch, sample):
    (num, den), ratio = catalog.FAMILY_FORMS["K2"]
    bump = Poly([0, 0, 1])
    for forms in [((num + bump, den), ratio),
                  ((num, den), (ratio[0] + bump, ratio[1]))]:
        monkeypatch.setitem(catalog.FAMILY_FORMS, "K2", forms)
        _proof_failed(audit._check_identity(_printed_row("witness:K2"),
                                            sample))


def test_printed_witness_that_matches_fails(monkeypatch, sample):
    form = generators.WITNESS_FORMS["Mnew"]
    monkeypatch.setitem(form, "printed_prefactor",
                        (form["prefactor"], catalog.FAMILY_FORMS["Mnew"][1]))
    _proof_failed(audit._check_identity(_printed_row("witness:Mnew"),
                                        sample))


def test_printed_w8_set_to_the_truth_fails(monkeypatch, sample):
    monkeypatch.setitem(cascade.W_FPP_PRINTED, 8, catalog.get("W8").fpp)
    _proof_failed(audit._check_identity(
        _printed_row("identity:W8-second-derivative"), sample))


def test_erratum_e15_printed_witness_doubles_f2_only_at_t0():
    ratios_at_2 = []
    for t in range(5):
        fpp = catalog.get(f"Delta1:{t}").fpp
        printed = generators.witness_fpp("Delta1", t, printed=True)
        assert (printed == fpp * 2) == (t == 0), t
        if t:
            assert (printed - fpp).positive_off_one(), t
            ratios_at_2.append(round(printed(2.0) / fpp(2.0), 2))
    assert ratios_at_2 == [1.30, 1.23, 1.21, 1.20]
    e15 = next(e for e in audit.ERRATA if e["id"] == "E15")
    assert "only at t = 0" in e15["description"]
    assert "1.30, 1.23, 1.21 and 1.20 at x = 2" in e15["description"]


def _control(config):
    """The negative control's row, each of its parts run here."""
    return audit._control_row(config, audit._control_scan(config),
                              audit._refutation())


def test_negative_control_needs_the_failed_proof(monkeypatch):
    cfg = audit.AuditConfig(chains=["means"], samples=100, seed=1)
    control = _control(cfg)
    assert control.verdict == "pass" and control.max_violation > 1e-12
    monkeypatch.setattr(cascade, "is_exact_ordering", lambda lo, hi: True)
    assert _control(cfg).verdict == "fail"


def test_negative_control_needs_an_exact_refutation(monkeypatch):
    # A proof search that gives up also returns False; with W2 <= W1
    # made true, no exact gap refutes it, and the control fails.
    cfg = audit.AuditConfig(chains=["means"], samples=100, seed=1)
    assert audit._refutation() == Fraction(-2, 35)
    assert "W1 - W2 = -2/35 < 0 at x = 4" in _control(cfg).detail
    monkeypatch.setattr(cascade, "is_exact_ordering", lambda lo, hi: False)
    monkeypatch.setattr(catalog.get("W2"), "gen", catalog.get("W1").gen)
    assert audit._refutation() is None
    scan = (1.0, [])                # a scan that catches the link
    control = audit._control_row(cfg, scan, audit._refutation())
    assert control.verdict == "fail"
    assert control.detail.startswith("no exact refutation")


def test_failing_rows_name_their_link_after_the_violation():
    # The second link, W2 <= W1, is the one that fails.
    chain = cascade.chain_from_dict(
        {"id": "planted", "terms": [[1, "W1"], [1, "W2"], [1, "W1"]]})
    sample = analysis.Sample.draw(2_000, 5)
    fold, = analysis.scan_claims([analysis.Ordering(chain.terms, 1e-12)],
                                 sample)
    rows = [cascade.check_chain(chain, sample, fold=fold) for _ in range(2)]
    assert rows[0] == rows[1]
    assert {tuple(r) for r in fold.records} == {
        ("index", "a", "b", "violation")}
    forked = cascade.audit_chain(chain, samples=2_000, seed=5, workers=2)
    assert forked.counterexamples == rows[0].counterexamples
    control = _control(audit.AuditConfig(chains=["means"], samples=100,
                                         seed=42))
    for res in (rows[0], forked, control):
        assert res.verdict == ("pass" if res is control else "fail")
        assert res.counterexamples
        for ce in res.counterexamples:
            assert list(ce) == ["index", "a", "b", "violation", "step"]
            assert ce["step"] == "1*W2 <= 1*W1"


def test_named_links_of_no_records_build_nothing(monkeypatch):
    monkeypatch.setattr(analysis, "_Shared", None)
    assert cascade.named_links(cascade.get_chain("means").terms, []) == []


def test_the_printed_constant_of_part_17_is_a_misprint(monkeypatch):
    # Erratum E8: part 2.1:17 prints 1/4 where the exact constant is 1/16.
    part = cascade.THEOREM_PARTS["2.1:17"]
    rows = {i.id: i for i in audit._identities(1e-12)}
    row = rows["decomposition:2.1:17"]
    assert row.misprints == part.misprints != ()
    sample = analysis.Sample.draw(100, 1)
    assert audit._check_identity(row, sample).verdict == "pass"
    # A printed constant that equals the exact one is no misprint.
    exact = replace(part, printed_c=part.c)
    monkeypatch.setattr(cascade, "theorem_parts", lambda: [exact])
    row, = [i for i in audit._identities(1e-12)
            if i.id.startswith("decomposition:")]
    res = audit._check_identity(row, sample)
    assert (res.verdict, res.detail) == ("fail", "exact identity fails")


def test_an_audit_starts_two_scans_the_shared_one_and_the_control(monkeypatch):
    # Rows without sampled claims start no scan of their own.
    started = []
    real = analysis.start_scan

    def counted(claims, *args, **kwargs):
        claims = list(claims)
        started.append(len(claims))
        return real(claims, *args, **kwargs)

    monkeypatch.setattr(analysis, "start_scan", counted)
    audit.run_audit(audit.AuditConfig(chains=["means"], samples=100, seed=1,
                                      workers=1))
    assert len(started) == 2 and started[1] == 1

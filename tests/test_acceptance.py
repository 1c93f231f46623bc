"""Acceptance suite: nine numbered criteria, one test per criterion.

Each test prints a single ``PASS criterion N`` line on success (visible
with ``pytest -s``); the test name itself carries the criterion number so
a plain ``pytest -v`` run also shows one verdict line per criterion.
"""

import json
import os
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from divcascade import analysis, audit, cascade, catalog, distributions, generators, means

MEAN_ORDER = ("H", "G", "N", "A", "R", "S", "C")

CHAIN_SUITE = (
    "eq7", "eq9", "eq10", "eq12_main", "eq12_branch",
    "eq28a", "eq28b", "eq29", "eq42a", "eq42b", "eq46",
    "reverse1", "reverse2", "reverse3", "reverse4",
)


def _announce(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_means_and_generator_chains():
    """Seven-means ordering and its generator form on 1e6 log-uniform pairs."""
    n = 1_000_000
    rng = np.random.default_rng(1)
    a = 10.0 ** rng.uniform(-6.0, 6.0, n)
    b = 10.0 ** rng.uniform(-6.0, 6.0, n)
    chain = cascade.get_chain("means")
    assert tuple(mid for _, mid in chain.terms) == MEAN_ORDER

    start = time.perf_counter()
    worst_means, hits_means = analysis.scan_chain_terms(
        chain.terms, analysis.Sample(a, b), 1e-12, workers=1)
    # Generator form: the same ordering pointwise in x = a/b with b = 1.
    x = a / b
    worst_gen, hits_gen = analysis.scan_chain_terms(
        chain.terms, analysis.Sample(x, np.ones_like(x)), 1e-12, workers=1)
    elapsed = time.perf_counter() - start

    assert worst_means <= 1e-12, hits_means
    assert worst_gen <= 1e-12, hits_gen
    assert elapsed < 10.0, f"chain scan took {elapsed:.2f} s"
    _announce(1, f"2x{n} pairs, worst violation "
                 f"{max(worst_means, worst_gen):.3e}, {elapsed:.2f} s")


def test_criterion_2_exact_identity_suite():
    """Mean-difference identities, pyramid common value, family anchors."""
    samples = 100_000
    sample = analysis.Sample.draw(samples, seed=2)
    tol = 1e-12
    checks = []

    idents = means.identity_table()
    item_ids = sorted(i for i, _, _ in idents if i.startswith("item"))
    remark_ids = [i for i, _, _ in idents if i.startswith("remark2")]
    assert len(item_ids) == 10
    assert len(remark_ids) >= 12
    anchor_fids = {fid for fid, _, _ in audit._ANCHORS}
    assert anchor_fids == {"Lt", "Delta1", "Delta2", "K1", "K2", "Hgen", "Mnew"}

    wanted = ("identity:item", "identity:remark2",
              "identity:pyramid-common-value", "anchor:", "identity:U1==V2")
    for ident in audit._identities(tol):
        if ident.id.startswith(wanted):
            checks.append(audit._check_identity(replace(ident, tol=tol),
                                                sample))
    assert len(checks) == len(idents) + 1 + len(audit._ANCHORS) + 1

    failed = [c for c in checks if c.verdict != "pass"]
    assert not failed, [(c.id, c.max_violation) for c in failed]
    worst = max(c.max_violation for c in checks)
    _announce(2, f"{len(checks)} identity checks on {samples} pairs, "
                 f"worst residual {worst:.3e}")


def test_criterion_3_chain_suite():
    """Ordering chains at 1e5 pairs each, near-diagonal band included."""
    union = set()
    for cid in ("eq12_main", "eq12_branch"):
        union.update(mid for _, mid in cascade.get_chain(cid).terms)
    assert len(union) == 27

    results = []
    for cid in CHAIN_SUITE:
        results.append(cascade.audit_chain(
            cascade.get_chain(cid), samples=100_000, seed=3, tol=1e-12))
    failed = [r for r in results if r.verdict != "pass"]
    assert not failed, [(r.id, r.max_violation) for r in failed]
    worst = max(r.max_violation for r in results)
    _announce(3, f"{len(results)} chains x 100000 pairs, "
                 f"worst violation {worst:.3e}")


def test_criterion_4_beta_constants():
    """Sharp constants proved from the exact second derivatives, 53 parts."""
    parts = cascade.theorem_parts()
    assert len(parts) == 53
    assert parts[0].beta == Fraction(1, 14)

    results = [audit._check_beta(part) for part in parts]
    failed = [r for r in results if r.verdict != "pass"]
    assert not failed, [(r.id, r.max_violation) for r in failed]
    worst = max(r.max_violation for r in results)
    _announce(4, f"53 ratio constants, worst deviation {worst:.3e}")


def test_criterion_5_residual_decompositions():
    """beta*D_A - D_B = c*residual for every proof part, 1e4 pairs."""
    parts = cascade.theorem_parts()
    from collections import Counter
    by_thm = Counter(p.id.split(":")[0] for p in parts)
    assert by_thm == {"2.1": 27, "2.2": 14, "2.3": 8, "2.4": 4}

    sample = analysis.Sample.draw(10_000, seed=5)
    results = [audit._check_identity(ident, sample)
               for ident in audit._identities(1e-12)
               if ident.id.startswith("decomposition:")]
    assert len(results) == 53
    assert all(r.max_violation <= 1e-11 for r in results)
    failed = [r for r in results if r.verdict != "pass"]
    assert not failed, [(r.id, r.max_violation) for r in failed]

    # Parts whose printed constant needed repair must carry erratum records.
    repaired = [p for p in parts if p.printed_c is not None
                and p.printed_c != p.c]
    assert repaired, "expected at least one repaired residual constant"
    erratum_ids = {e["id"] for e in audit.ERRATA}
    assert {"E8", "E12", "E13", "E14"} <= erratum_ids
    worst = max(r.max_violation for r in results)
    _announce(5, f"53 decompositions on 10000 pairs, worst residual "
                 f"{worst:.3e}, {len(repaired)} repaired with errata")


def test_criterion_6_convexity_suite():
    """Positive second derivative, f(1)=0, and FD agreement for the catalog."""
    ids = ([f"W{i}" for i in range(1, 10)]
           + [f"V{t}" for t in range(1, 15)]
           + [f"U{t}" for t in range(1, 16)]
           + [f"{fid}:{t}" for fid in catalog.FAMILY_IDS for t in range(5)])
    assert len(ids) == 68
    results = [analysis.certify_convexity(mid) for mid in ids]
    failed = [r for r in results if r.verdict != "pass"]
    assert not failed, [(r.id, r.max_violation) for r in failed]

    # Corrected W8 second derivative against an independently written form;
    # the printed variant (14x^4 lead) must disagree.
    xs = np.logspace(-2.0, 2.0, 41)
    corrected = (15.0 * xs**4 + 2.0 * xs**2 + 15.0) / (16.0 * xs**3.5)
    analytic = np.array([cascade.W_second_derivative(8, x) for x in xs])
    assert np.max(np.abs(analytic / corrected - 1.0)) <= 1e-12
    printed = np.array([cascade.W_FPP_PRINTED[8](x) for x in xs])
    assert np.max(np.abs(printed / corrected - 1.0)) > 1e-3
    assert any(e["id"] == "E4" for e in audit.ERRATA)
    _announce(6, "68 convexity certificates pass; corrected W8 second "
                 "derivative confirmed, printed variant flagged (E4)")


def test_criterion_7_exponential_series():
    """Thirty-term partial sums against closed forms across a/b in [0.1, 10].

    The per-family term ratio is constant in t, so the truncation error of
    an n-term partial sum scales like q^n / n! relative to the closed form
    e^q.  Over a/b in [0.1, 10] the ratio q stays within the n=30
    convergence radius for five of the seven families; Delta2 and K2 reach
    q = 8.1 at the window edge, where thirty terms floor near 7e-10 and
    forty terms are needed for 1e-12.  Both regimes are asserted exactly.
    """
    families = ("Delta1", "Delta2", "K1", "K2", "Hgen", "Mnew", "Lt")
    rows = [i for i in audit._printed_forms() if i.kind == "series"]
    assert [i.id for i in rows] == [f"series:{fid}" for fid in families]
    sample = analysis.Sample.draw(10, seed=7)
    for ident in rows:
        res = audit._check_identity(ident, sample)
        assert res.verdict == "pass", (ident.id, res.max_violation)

    pairs = [(0.1, 1.0), (0.35, 1.0), (1.0, 3.0), (0.7, 1.3), (1.2, 1.0),
             (2.0, 1.0), (4.0, 1.0), (5.0, 1.0), (7.8, 1.0), (10.0, 1.0),
             (1.0, 10.0)]
    boundary = {"Delta2", "K2"}
    for fid in families:
        for pair in pairs:
            if fid == "Lt":
                closed = generators.exp_L_representation(pair)
                p30 = generators.exp_L_series_partial(pair, 30)
                p40 = generators.exp_L_series_partial(pair, 40)
            else:
                closed = generators.exp_representation(fid, pair)
                p30 = generators.exp_series_partial(fid, pair, 30)
                p40 = generators.exp_series_partial(fid, pair, 40)
            rel30 = abs(p30 - closed) / abs(closed)
            rel40 = abs(p40 - closed) / abs(closed)
            q = generators.step_ratio(fid, pair)
            if fid in boundary and q > 6.0:
                assert rel30 <= 2e-9, (fid, pair, rel30)
                assert rel40 <= 1e-12, (fid, pair, rel40)
            else:
                assert rel30 <= 1e-12, (fid, pair, rel30)

    # Printed display mismatches are reported as errata, never as failures.
    assert any(e["id"].startswith("E5") for e in audit.ERRATA)
    _announce(7, "7 families match closed forms; boundary truncation "
                 "documented, display mismatches recorded as E5")


def _batch_sum(mid: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise divergence sums for (m, n) arrays of distributions."""
    m = catalog.get(mid)
    return np.sum(q * m(p / q), axis=1)


def test_criterion_8_distribution_suite():
    """Chains and identities re-run on Dirichlet samples over n in 2..16."""
    rng = np.random.default_rng(8)
    tol = 1e-12
    per_size = 667
    total = 0
    worst_chain = 0.0
    worst_ident = 0.0

    idents = means.identity_table()
    for size in range(2, 17):
        p = rng.dirichlet(np.ones(size), per_size)
        q = rng.dirichlet(np.ones(size), per_size)
        total += per_size

        sums = {}

        def s(mid):
            if mid not in sums:
                sums[mid] = _batch_sum(mid, p, q)
            return sums[mid]

        for chain in cascade.CHAINS.values():
            vals = [float(c) * s(mid) for c, mid in chain.terms]
            for prev, cur in zip(vals, vals[1:]):
                scale = np.maximum(np.maximum(np.abs(prev), np.abs(cur)),
                                   1e-300)
                worst_chain = max(worst_chain,
                                  float(np.max((prev - cur) / scale)))

        for ident, lhs_terms, rhs_terms in idents:
            groups = []
            for terms in (lhs_terms, rhs_terms):
                acc = None
                mag = None
                for c, sym in terms:
                    v = float(c) * np.sum(catalog.get(sym).value(p, q),
                                          axis=1)
                    acc = v if acc is None else acc + v
                    mag = np.abs(v) if mag is None else np.maximum(
                        mag, np.abs(v))
                groups.append((acc, mag))
            (lv, lm), (rv, rm) = groups
            scale = np.maximum(np.maximum(lm, rm), 1e-300)
            worst_ident = max(worst_ident,
                              float(np.max(np.abs(lv - rv) / scale)))

    assert total >= 10_000
    assert worst_chain <= tol, worst_chain
    assert worst_ident <= tol, worst_ident

    # Point values.
    d = distributions.divergence("delta", (0.5, 0.5), (0.25, 0.75))
    assert abs(d - 2.0 / 15.0) <= 1e-15
    v1 = catalog.get("V1").value(4.0, 1.0)
    assert abs(v1 - 0.1) <= 1e-15
    _announce(8, f"{total} Dirichlet pairs over n=2..16, worst chain gap "
                 f"{worst_chain:.3e}, worst identity gap {worst_ident:.3e}")


def _no_fork():
    raise AssertionError("a one-worker audit must not fork")


def test_criterion_9_determinism(monkeypatch):
    """Byte-identical reports for equal seeds, independent of workers.

    One worker runs the whole audit in this process (``os.fork`` raises);
    2, 3 and 4 scan the sample in forked processes.  The failing run has
    counterexamples in the second half of its sample.
    """
    def run(workers, samples=2000, seed=42, **kw):
        cfg = audit.AuditConfig(chains="all", samples=samples, seed=seed,
                                workers=workers, **kw)
        with monkeypatch.context() as m:
            if workers == 1:
                m.setattr(os, "fork", _no_fork)
            rep = audit.run_audit(cfg)
        rep["header"].pop("timestamp")
        return json.dumps(rep, sort_keys=True)

    first = run(1)
    assert run(1) == first
    for workers in (2, 3, 4):
        assert run(workers) == first

    failing = dict(samples=40000, seed=5, tolerance=1e-17)
    serial = run(1, **failing)
    indices = [ce["index"] for c in json.loads(serial)["checks"]
               if c["verdict"] == "fail"
               for ce in c["counterexamples"] if "index" in ce]
    assert max(indices) >= 20000
    for workers in (2, 3):
        assert run(workers, **failing) == serial
    _announce(9, "reports byte-identical across reruns and worker counts")

"""Unit tests for sampling, certification, and counterexample search."""

import hashlib
import inspect
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcascade import analysis, audit, cascade, catalog, pool, reporting
from divcascade.ratfun import Poly, RatS, RatU
from test_audit import _per_call_gap
from test_ratfun import _Claim


def test_sample_pairs_policy():
    a, b = analysis.sample_pairs(10_000, seed=0)
    assert a.shape == b.shape == (10_000,)
    assert np.all(a > 0) and np.all(b > 0)
    assert a.min() >= 1e-6 and a.max() <= 1e6
    # A tenth of the draws form a near-diagonal band.
    near = np.abs(a / b - 1.0) <= 1e-3
    assert near.sum() >= 1_000


def test_sample_pairs_deterministic():
    a1, b1 = analysis.sample_pairs(1_000, seed=5)
    a2, b2 = analysis.sample_pairs(1_000, seed=5)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    a3, _ = analysis.sample_pairs(1_000, seed=6)
    assert not np.array_equal(a1, a3)


def _whole_draw(n, seed):
    """The pairs as ``sample_pairs`` drew them before draws were lazy:
    the whole sample at once, from one ``default_rng``."""
    rng = np.random.default_rng(seed)
    n_near = n // 10
    n_main = n - n_near
    a_main = 10.0 ** rng.uniform(-6.0, 6.0, n_main)
    b_main = 10.0 ** rng.uniform(-6.0, 6.0, n_main)
    a_near = 10.0 ** rng.uniform(-6.0, 6.0, n_near)
    delta = rng.uniform(-1e-3, 1e-3, n_near)
    a = np.concatenate([a_main, a_near])
    b = np.concatenate([b_main, a_near * (1.0 + delta)])
    return a, b


@pytest.mark.parametrize("n", [1, 9, 10, 11, 19, 100, 8191, 8192, 8193,
                               12345, 10**5, 10**6])
def test_lazy_draws_have_the_bits_of_the_whole_draw(n):
    n_main = n - n // 10
    for seed in (0, 5, 42):
        a, b = _whole_draw(n, seed)
        got = analysis.sample_pairs(n, seed)
        assert np.array_equal(got[0], a) and np.array_equal(got[1], b)
        sample = analysis.Sample.draw(n, seed)
        assert sample.size == n
        ranges = [(lo, lo + analysis.CHUNK)
                  for lo in range(0, n, analysis.CHUNK)]
        # Ranges across the end of the log-uniform pairs.
        ranges += [(max(n_main - k, 0), n_main + k) for k in (1, 2, 4097)]
        ranges += [(n_main - 1, n_main), (n - 1, n), (-3, None), (5, 2)]
        # A scan's draw fills its registers, which hold old values.
        stale = np.full((2, max(n, analysis.CHUNK)), np.nan)
        for lo, hi in ranges:
            got = sample.pairs(lo, hi)
            assert np.array_equal(got[0], a[lo:hi]), (seed, lo, hi)
            assert np.array_equal(got[1], b[lo:hi]), (seed, lo, hi)
            out = (stale[0, :got[0].size], stale[1, :got[0].size])
            lent = sample.pairs(lo, hi, _out=out)
            assert lent[0] is out[0] and lent[1] is out[1]
            assert np.array_equal(lent[0], a[lo:hi]), (seed, lo, hi)
            assert np.array_equal(lent[1], b[lo:hi]), (seed, lo, hi)


@given(st.integers(0, 2**63), st.integers(0, 3000),
       st.sampled_from([(-6.0, 6.0), (-1e-3, 1e-3)]))
@settings(max_examples=60, deadline=None)
def test_the_in_place_uniform_map_is_generator_uniform(seed, n, bounds):
    low, high = bounds
    want = np.random.Generator(np.random.PCG64(seed)).uniform(low, high, n)
    out = np.full(n, np.nan)
    got = analysis._uniform(np.random.Generator(np.random.PCG64(seed)),
                            low, high, out)
    assert got is out and got.tobytes() == want.tobytes()


def test_a_fresh_entropy_sample_is_one_stream():
    assert np.array_equal(analysis.sample_pairs(50, np.int64(5))[1],
                          analysis.sample_pairs(50, 5)[1])
    # The entropy of seed None is taken once, when the sample is made.
    sample = analysis.Sample.draw(3 * analysis.CHUNK + 5, None)
    whole = sample.pairs()
    tail = sample.pairs(2 * analysis.CHUNK)
    assert np.array_equal(whole[0][2 * analysis.CHUNK:], tail[0])
    for tol in (1e-12, -1.0):
        w1 = analysis.scan_chain_terms([(1, "W2"), (1, "W1")], sample, tol)
        w2 = analysis.scan_chain_terms([(1, "W2"), (1, "W1")], sample, tol,
                                       workers=2)
        assert repr(w1) == repr(w2)
        assert len(w1[1]) == 10


@pytest.mark.parametrize("seed", [np.random.default_rng(5),
                                  np.random.SeedSequence(5), 5.0, "5", [5]])
def test_the_draw_refuses_seeds_it_cannot_replay(seed):
    # Ranges are drawn in any order and in any process, so the draw
    # takes a seed, never a generator whose state moves as it is read.
    with pytest.raises(ValueError, match="seed must be an integer"):
        analysis.Sample.draw(10, seed)


@pytest.mark.parametrize("n, seed", [(True, 0), (10, True), (True, True)])
def test_the_draw_refuses_bools(n, seed):
    # A flag is not a count: True would draw one pair, or replay seed 1.
    # n is read first.
    name = "n" if n is True else "seed"
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        analysis.Sample.draw(n, seed)


def test_the_draw_refuses_bad_sizes_and_seeds():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        analysis.Sample.draw(10, -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        analysis.Sample.draw(-1, 0)
    with pytest.raises(ValueError, match="n must be an integer"):
        analysis.Sample.draw(1e4, 0)


@pytest.mark.parametrize("a, b", [
    ([1.0, 2.0, 3.0], [2.0]),           # b would broadcast
    ([1.0, 2.0], [2.0, 3.0, 4.0]),      # b's last value would be dropped
    (2.0, [1.0, 2.0]),
    ([[1.0, 2.0]], [[2.0, 3.0]]),
    (np.ones((2, 2)), np.ones(4))])
def test_given_pairs_must_pair_up(a, b):
    with pytest.raises(ValueError, match="must pair up"):
        analysis.Sample(a, b)


def test_a_forked_scan_draws_only_its_own_run_in_the_parent(monkeypatch):
    def refuse(*args):
        raise AssertionError("the whole sample was drawn")

    drawn = []
    real = analysis._draw

    def counted(n, seed, lo, hi, a, b):
        drawn.append(hi - lo)
        return real(n, seed, lo, hi, a, b)

    monkeypatch.setattr(analysis, "sample_pairs", refuse)
    monkeypatch.setattr(analysis, "_draw", counted)
    sample = analysis.Sample.draw(10**6, 0)
    worst, records = analysis.scan_chain_terms(
        [(1, "W2"), (1, "W1")], sample, 1e-12, workers=2)
    assert worst > 1e-6 and len(records) == 10
    # 62 chunks in two runs: the parent drew the 31 full ones of the
    # first, and the child, whose draws are not seen here, the rest.
    assert drawn == [analysis.CHUNK] * 31
    drawn.clear()
    # A serial scan draws chunk by chunk too.
    small = analysis.Sample.draw(3 * analysis.CHUNK - 1, 0)
    analysis.scan_chain_terms([(1, "W2"), (1, "W1")], small, 1e-12)
    assert drawn == [analysis.CHUNK] * 2 + [analysis.CHUNK - 1]


def test_a_drawn_sample_is_a_recipe():
    tracemalloc.start()
    try:
        sample = analysis.Sample.draw(10**12, 0)
        (a,), (b,) = sample.pairs(10**12 - 1, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.size == 10**12
    assert peak < 100_000
    # The last pair is in the near-diagonal band.
    assert 1e-6 <= a <= 1e6 and abs(b / a - 1.0) <= 1e-3


def test_default_grid_covers_band():
    g = analysis.default_grid()
    assert g.min() == pytest.approx(1e-4)
    assert g.max() == pytest.approx(1e4)
    assert np.any((g > 0.999) & (g < 1.001))
    assert np.all(np.diff(g) > 0)


def test_certify_convexity_passes_for_divergence():
    res = analysis.certify_convexity("delta")
    assert res.verdict == "pass"
    assert res.kind == "convexity"
    assert res.samples == len(cascade.SPOT_POINTS) <= 16


def test_certify_convexity_negative_controls():
    """Exactly three catalog divergences are not convex on (0, inf).

    All three fail the exact sign proof: D_GH and D_NH have f'' < 0 for
    large x, and D_SR = S - R, an r + t*S form, is not convex either.
    """
    divergences = [m for m in catalog.iter_measures()
                   if m.kind == "divergence"]
    assert len(divergences) == 101
    results = {m.id: analysis.certify_convexity(m) for m in divergences}
    assert {r.samples for r in results.values()} == {len(cascade.SPOT_POINTS)}
    failed = {k: r for k, r in results.items() if r.verdict != "pass"}
    assert set(failed) == {"D_GH", "D_NH", "D_SR"}
    for mid in ("D_GH", "D_NH"):
        assert failed[mid].counterexamples[0]["check"] == "f''>0 off x=1"
        assert failed[mid].counterexamples[0]["polya"][0] is None
    assert failed["D_SR"].counterexamples[0]["check"] == "f''>0 off x=1"


def test_certify_convexity_spot_check_catches_wrong_derivative():
    gen = catalog.get("delta").gen
    probe = catalog.Measure("probe", "delta with f'' doubled", "divergence",
                            "", gen=gen)
    probe._fpp = 2 * gen.d2x()  # still provably positive, but wrong
    res = analysis.certify_convexity(probe)
    assert res.verdict == "fail"
    assert [r["check"] for r in res.counterexamples] == ["analytic-vs-fd"]


class _PoisonedAt1001:
    """An exact f'' that evaluates to ``bad`` at x = 1.001."""

    def __init__(self, fpp, bad):
        self.fpp, self.bad = fpp, bad

    def positive_off_one(self):
        return self.fpp.positive_off_one()

    def __call__(self, x):
        return np.where(x == 1.001, self.bad, self.fpp(x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certify_convexity_fails_a_value_that_is_not_finite(bad):
    gen = catalog.get("delta").gen
    probe = catalog.Measure("probe", "delta with f''(1.001) not finite",
                            "divergence", "", gen=gen)
    probe._fpp = _PoisonedAt1001(gen.d2x(), bad)
    res = analysis.certify_convexity(probe)
    assert res.verdict == "fail"
    assert [(r["check"], r["x"], r["violation"])
            for r in res.counterexamples] == [
        ("analytic-vs-fd", 1.001, float("inf"))]


def test_certify_convexity_proves_normalization_exactly():
    # f(1) = 1e-17 is below any float tolerance; the exact limit is not 0.
    gen = catalog.get("delta").gen + RatU(Poly([1]), Poly([1]), 0,
                                          Fraction(1, 10**17))
    probe = catalog.Measure("probe", "delta + 1e-17", "divergence", "",
                            gen=gen)
    res = analysis.certify_convexity(probe)
    assert res.verdict == "fail"
    assert [(r["check"], r["x"], r["violation"])
            for r in res.counterexamples] == [("f(1)=0", 1.0, 1e-17)]


def test_certify_convexity_fails_a_pole_at_one():
    # 1e-17 / (sqrt x - 1) has a pole at x = 1, so f(1) and f'(1) have no
    # finite value to prove 0.
    gen = catalog.get("delta").gen + RatU(Poly([1]), Poly([1]), -1,
                                          Fraction(1, 10**17))
    probe = catalog.Measure("probe", "delta + pole", "divergence", "",
                            gen=gen)
    res = analysis.certify_convexity(probe)
    assert (res.verdict, res.max_violation) == ("fail", math.inf)
    assert [(r["check"], r["x"], r["violation"])
            for r in res.counterexamples[:2]] == [
        ("f(1)=0", 1.0, math.inf), ("f'(1)=0", 1.0, math.inf)]


def _mp_value(form, x, dps):
    """A ``RatU`` or ``RatS`` form in mpmath: the evaluator the decimal
    one replaced, kept as its oracle."""
    with mpmath.workdps(dps):
        xv = mpmath.mpf(x)
        if isinstance(form, RatS):
            s = mpmath.sqrt((xv * xv + 1) / 2)
            return (_mp_value(form.r, xv, dps)
                    + _mp_value(form.t, xv, dps) * s)
        u = mpmath.sqrt(xv)

        def horner(coeffs):
            acc = mpmath.mpf(0)
            for c in reversed(coeffs):
                acc = acc * u + mpmath.mpf(c.numerator) / c.denominator
            return acc

        val = (horner([form.scale * c for c in form.num.coeffs])
               / horner(form.den.coeffs))
        if form.m:
            val = val * ((xv - 1) / (u + 1)) ** form.m
        return val


def _fd2_mpmath(measure, x, dps=40):
    """The 40-digit central difference as mpmath computed it."""
    with mpmath.workdps(dps):
        xv = mpmath.mpf(x)
        h = xv * mpmath.mpf("1e-5")
        f = [_mp_value(measure.gen, v, dps) for v in (xv + h, xv, xv - h)]
        return float((f[0] - 2 * f[1] + f[2]) / (h * h))


def test_decimal_spot_differences_equal_the_mpmath_ones():
    ids = audit._convexity_ids()
    assert len(ids) == 68
    for mid in ids + ["D_SH", "D_SG", "D_SN", "D_SA", "D_CS"]:
        m = catalog.get(mid)
        for x in cascade.SPOT_POINTS:
            assert cascade._fd2_mp(m, x) == _fd2_mpmath(m, x), (
                mid, x)


# The array spot check as it ran before the certificate moved into
# ``cascade``, frozen as the reference for the scalar one.
_ARRAY_SPOT_POINTS = np.concatenate([np.logspace(-4.0, 4.0, 9),
                                     [0.999, 1.001]])


def _array_certify_convexity(measure):
    m = catalog.get(measure)
    bad = []

    def flag(x, check, amount):
        bad.append({"x": float(x), "check": check, "violation": float(amount)})

    for check, form in (("f(1)=0", m.gen), ("f'(1)=0", m.gen.dx())):
        try:
            at_1 = abs(form.limit_at_1())
        except ZeroDivisionError:
            at_1 = float("inf")
        if at_1 != 0:
            flag(1.0, check, at_1)
    f2 = m.fpp
    if not f2.positive_off_one():
        bad.append({"check": "f''>0 off x=1", "violation": float("inf")})
        if isinstance(f2, RatU):
            bad[-1].update(m=f2.m, polya=[f2.num.polya_degree(),
                                          f2.den.polya_degree()])
    fd = np.array([cascade._fd2_mp(m, float(x)) for x in _ARRAY_SPOT_POINTS])
    analytic = f2(_ARRAY_SPOT_POINTS)
    with np.errstate(invalid="ignore"):
        diff = np.abs(analytic - fd)
        excess = diff - (cascade.FD_REL_TOL * np.abs(analytic)
                         + cascade.FD_ABS_TOL)
    i = int(np.argmax(excess))
    if not float(excess[i]) <= 0.0:
        flag(_ARRAY_SPOT_POINTS[i], "analytic-vs-fd",
             diff[i] if np.isfinite(diff[i]) else np.inf)
    worst = max((r["violation"] for r in bad), default=0.0)
    return reporting.make_result(
        f"convexity:{m.id}", "convexity", int(_ARRAY_SPOT_POINTS.size),
        worst, 0.0, bad[:10], ref=m.ref)


def test_the_scalar_spot_check_is_the_array_one():
    assert [x.hex() for x in cascade.SPOT_POINTS] == [
        float(x).hex() for x in _ARRAY_SPOT_POINTS]
    divergences = [m.id for m in catalog.iter_measures()
                   if m.kind == "divergence"]
    ids = divergences + [i for i in audit._convexity_ids()
                         if i not in divergences]
    failed = set()
    for mid in ids:
        res, ref = cascade.certify_convexity(mid), _array_certify_convexity(mid)
        assert repr(res.to_json()) == repr(ref.to_json()), mid
        if not res.passed:
            failed.add(mid)
    assert failed == {"D_GH", "D_NH", "D_SR"}


@pytest.mark.parametrize("mid", ["delta", "D_SA", "W8", "Hgen:3"])
def test_a_planted_second_derivative_error_fails_the_spot_check(mid):
    # f'' scaled by 1 + 1e-4 is still provably positive, but wrong.
    m = catalog.get(mid)
    probe = catalog.Measure("probe", "f'' off by 1e-4", "divergence", "",
                            gen=m.gen)
    probe._fpp = m.fpp * Fraction(10001, 10000)
    for certify in (cascade.certify_convexity, _array_certify_convexity):
        res = certify(probe)
        assert res.verdict == "fail"
        assert [r["check"] for r in res.counterexamples] == ["analytic-vs-fd"]
    assert repr(cascade.certify_convexity(probe).to_json()) == repr(
        _array_certify_convexity(probe).to_json())


def test_certify_convexity_rejects_means():
    with pytest.raises(ValueError):
        analysis.certify_convexity("A")


def test_estimate_sup_ratio_attained_at_one():
    num = catalog.get("D1").gen
    den = catalog.get("D15").gen
    sup, arg, limit = analysis.estimate_sup_ratio(num, den)
    assert limit == pytest.approx(1.0 / 14.0, abs=1e-9)
    assert sup <= 1.0 / 14.0 + 1e-9
    assert arg == pytest.approx(1.0, abs=1e-2)


def test_estimate_sup_ratio_names_a_root_mean_square_measure():
    with pytest.raises(ValueError, match="D_SA"):
        analysis.estimate_sup_ratio("D_SA", "D_SH")
    with pytest.raises(ValueError, match="D_SH"):
        analysis.estimate_sup_ratio("D_AH", "D_SH")


_MEANS = cascade.get_chain("means")


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
@pytest.mark.parametrize("scan", [
    lambda sample, workers: analysis.scan_claims(
        [analysis.Ordering(_MEANS.terms, 1e-12)], sample, workers),
    lambda sample, workers: analysis.scan_chain_terms(
        _MEANS.terms, sample, 1e-12, workers),
    lambda sample, workers: cascade.check_chain(
        _MEANS, sample, 1e-12, workers),
], ids=["scan_claims", "scan_chain_terms", "check_chain"])
def test_every_scan_refuses_a_worker_count_that_is_not_a_count(scan,
                                                               workers):
    with pytest.raises(ValueError, match="workers must be "):
        scan(analysis.Sample.draw(100, 0), workers)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, "1e-3",
                                 True, None])
@pytest.mark.parametrize("scan", [
    lambda sample, tol: analysis.scan_claims(
        [analysis.Ordering(_MEANS.terms, tol)], sample),
    lambda sample, tol: analysis.scan_claims(
        [analysis.Equality(((1, "A"),), ((1, "G"),), tol)], sample),
    lambda sample, tol: analysis.scan_chain_terms(_MEANS.terms, sample, tol),
    lambda sample, tol: cascade.check_chain(_MEANS, sample, tol),
], ids=["scan_claims", "equality", "scan_chain_terms", "check_chain"])
def test_every_scan_refuses_a_tol_that_is_not_a_finite_real(scan, tol):
    with pytest.raises(ValueError, match="tol must be "):
        scan(analysis.Sample.draw(1000, 1), tol)


def test_a_claim_keeps_a_real_tol_as_a_float():
    claim = analysis.Ordering(_MEANS.terms, np.float32(-1))
    assert type(claim.tol) is float and claim.tol == -1.0
    assert analysis.Equality((), (), Fraction(1, 4)).tol == 0.25
    worst, records = analysis.scan_chain_terms(
        _MEANS.terms, analysis.Sample.draw(1000, 1), -1)
    assert worst <= 1e-12 and len(records) == 10


def test_claims_are_values():
    # A claim is part of a scan's request, so one built from lists is the
    # value, with the hash, of one built from tuples.
    listed = analysis.Equality([(1, "A")], [(1, "G")])
    tupled = analysis.Equality(((1, "A"),), ((1, "G"),))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.lhs == ((1, "A"),) and type(listed.lhs[0]) is tuple
    ordering = analysis.Ordering([[1, "G"], [1, "A"]], 1e-12)
    assert ordering.terms == ((1, "G"), (1, "A"))
    assert ordering == analysis.Ordering(((1, "G"), (1, "A")), 1e-12)
    assert len({ordering, analysis.Ordering([(1, "G"), (1, "A")], 1e-12),
                listed, tupled}) == 2


def test_scan_finds_reversed_chain_violation():
    sample = analysis.Sample.draw(2_000, seed=3)
    terms = [(1.0, "K"), (1.0, "delta")]  # K dominates delta: reversed
    worst, records = analysis.scan_chain_terms(terms, sample, 1e-12)
    assert worst > 1e-6
    assert records
    rec = records[0]
    assert set(rec) == {"index", "a", "b", "violation"}


def test_scan_worker_independence(monkeypatch, no_helpers):
    forks = _counted_forks(monkeypatch)
    sample = analysis.Sample.draw(300_000, seed=9)
    chunks = -(-sample.size // analysis.CHUNK)
    assert chunks == 19
    claims = [[(1.0, "delta"), (1.0, "K"), (0.5, "psi")],
              [(1, "W2"), (1, "W1")]]
    claims += [cascade.get_chain(cid).terms for cid in cascade.chains()
               if cid.startswith(("means", "pyramid"))]
    assert len(claims) == 8
    # tol = -1 records offending samples in passing chains too.
    for terms in claims:
        for tol in (1e-12, -1.0):
            forked = len(forks)
            w1 = analysis.scan_chain_terms(terms, sample, tol, workers=1)
            assert len(forks) == forked
            for workers in (2, 4):
                got = analysis.scan_chain_terms(terms, sample, tol, workers)
                assert got == w1, (terms, tol, workers)
        assert len(w1[1]) == 10, terms
    # The waiting caller scans one run and leases workers - 1 helpers:
    # the first scans fork 1 and then 2 more, and every later scan
    # reuses them.
    assert len(forks) == 3 and len(pool._helpers) == 3
    # At most one run per chunk, however many workers are asked for:
    # the caller and 2 helpers scan 3 chunks.
    pool._reap(pool._helpers)
    forks.clear()
    small = analysis.Sample.draw(3 * analysis.CHUNK - 1, seed=9)
    analysis.scan_chain_terms(claims[0], small, 1e-12, workers=64)
    assert len(forks) == 2


def _counted_forks(monkeypatch):
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_a_waiting_scan_forks_one_child_fewer_than_its_workers(
        monkeypatch, workers, no_helpers):
    # scan_claims waits, so it scans a run itself and leases workers - 1
    # helpers; start_scan's caller goes on proving, so it leases one for
    # every run and forks only the one that is missing.
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    sample = analysis.Sample.draw(7500, seed=31)
    claims = [analysis.Ordering(_MEANS.terms, -1.0)]
    serial = analysis.scan_claims(claims, sample)
    assert not forks
    assert analysis.scan_claims(claims, sample, workers) == serial
    assert len(forks) == workers - 1
    forks.clear()
    assert analysis.start_scan(claims, sample, workers)() == serial
    assert len(forks) == 1
    assert [h.busy for h in pool._helpers] == [False] * workers


def test_a_scan_started_while_another_waits_forks_helpers_of_its_own(
        monkeypatch, no_helpers):
    forks = _counted_forks(monkeypatch)
    sample = analysis.Sample.draw(3 * analysis.CHUNK, seed=33)
    claims = [analysis.Ordering(_MEANS.terms, -1.0)]
    serial = analysis.scan_claims(claims, sample)
    first = analysis.start_scan(claims, sample, 2)
    second = analysis.start_scan(claims, sample, 2)
    assert len(forks) == 4
    assert second() == first() == serial
    # Both pairs stay idle, and a later scan leases the first two.
    assert [h.busy for h in pool._helpers] == [False] * 4
    assert analysis.start_scan(claims, sample, 2)() == serial
    assert len(forks) == 4


def test_given_pairs_scan_in_the_caller_at_any_workers(monkeypatch,
                                                       no_helpers):
    # Given pairs never go to a helper: at any worker count the caller
    # scans them, forking nothing, and records keep their index in the
    # whole sample.  W2 <= W1 is false off the diagonal, so only the
    # last chunk, off it, fails.
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    a, b = analysis.Sample.draw(3500, seed=37).pairs()
    a[:3000] = b[:3000] = 2.0
    given = analysis.Sample(a, b)
    claims = [analysis.Ordering(((1, "W2"), (1, "W1")), 1e-12),
              analysis.Equality(((1, "A"),), ((1, "G"),), 1e-12)]
    serial = analysis.scan_claims(claims, given)
    assert [r["index"] for r in serial[0].records] == list(range(3000, 3010))
    assert serial[0].index >= 3000 and serial[1].index >= 3000
    for workers in (2, 3, 5):
        assert analysis.scan_claims(claims, given, workers) == serial
        assert analysis.start_scan(claims, given, workers)() == serial
    assert not forks and not pool._helpers


def test_a_helpers_every_request_comes_through_its_pipe(monkeypatch,
                                                        no_helpers):
    # A helper is forked idle and sent each request, its first included:
    # one send per leased helper, from the first scan, which starts with
    # no helper, on.
    assert not inspect.signature(pool._fork_helper).parameters
    sent, real = [], pool._send

    def send(fd, data):
        sent.append(fd)
        return real(fd, data)

    monkeypatch.setattr(pool, "_send", send)
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    sample = analysis.Sample.draw(7500, seed=39)
    claims = [analysis.Ordering(_MEANS.terms, -1.0)]
    serial = analysis.scan_claims(claims, sample)
    assert not sent
    assert analysis.scan_claims(claims, sample, 3) == serial
    first = [h.send for h in pool._helpers]
    assert len(first) == 2 and sent == first
    sent.clear()
    assert analysis.start_scan(claims, sample, 4)() == serial
    assert sent == [h.send for h in pool._helpers]
    assert len(sent) == 4 and sent[:2] == first


@pytest.mark.parametrize("claims", [
    pytest.param(lambda: _audit_claims(1e-12), id="audit"),
    pytest.param(lambda: [analysis.Ordering(cascade.get_chain(cid).terms,
                                            1e-12)
                          for cid in cascade.chains()], id="chains"),
])
def test_a_program_round_trips_through_pickle(claims):
    # Every parallel scan sends its claims to its helpers pickled, and a
    # helper compiles them: the program it gets is the one the caller
    # would compile.
    claims = claims()
    assert len(claims) in (194, 26)
    program = analysis._Program(claims)
    back = pickle.loads(pickle.dumps(claims, pickle.HIGHEST_PROTOCOL))
    assert back == claims
    back = analysis._Program(back)
    assert back.registers == program.registers
    assert back.segments == program.segments
    # repr tells -0.0 from 0.0 among the steps' floats.
    assert repr(back.segments) == repr(program.segments)


_PROGRAM_SHAPE = """
import hashlib
from divcascade import analysis, audit, cascade
claims = [analysis.Ordering(cascade.get_chain(cid).terms, 1e-12)
          for cid in cascade.chains()]
claims += [analysis.Equality(lhs, rhs, 1e-12)
           for ident in audit._identities(1e-12) + audit._combinations(1e-12)
           for lhs, rhs in ident.claims]
program = analysis._Program(claims)
print(len(claims), program.registers,
      sum(len(steps) for _, steps, _ in program.segments),
      hashlib.sha256(repr(program.segments).encode()).hexdigest())
"""


def test_the_audit_program_compiles_alike_under_any_hash_seed():
    # Each process compiles the claims it scans, so compiling must not
    # depend on the order of a set or a dict of str keys, which the hash
    # seed moves.
    shapes = []
    for seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _PROGRAM_SHAPE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        shapes.append(proc.stdout)
    program = analysis._Program(_audit_claims(1e-12))
    here = (f"194 {program.registers} "
            f"{sum(len(steps) for _, steps, _ in program.segments)} "
            f"{hashlib.sha256(repr(program.segments).encode()).hexdigest()}")
    assert shapes == [here + "\n"] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_the_audits_caller_compiles_its_claims_only_if_it_scans_them(
        monkeypatch, tmp_path, workers, no_helpers):
    # Each build of a program is logged with its pid and claim count, in
    # a file, as a helper's memory is its own.  At 2 workers the audit's
    # two scan helpers each compile the 194 claims for their run, and
    # the caller, which certifies convexity meanwhile, compiles none of
    # them, nor does the prover, forked first; at 1 worker the caller
    # scans, and compiles them once.
    log = tmp_path / "builds"
    real = analysis._Program.__init__

    def init(self, claims):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {len(claims)}\n")
        real(self, claims)

    monkeypatch.setattr(analysis._Program, "__init__", init)
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    forks = _counted_forks(monkeypatch)
    report = audit.run_audit(audit.AuditConfig(samples=3000, seed=5,
                                               workers=workers))
    assert all(c["verdict"] == "pass" for c in report["checks"])
    builds = [tuple(map(int, line.split()))
              for line in log.read_text(encoding="ascii").splitlines()]
    audit_builds = [pid for pid, claims in builds if claims == 194]
    if workers == 1:
        assert audit_builds == [os.getpid()] and not forks
    else:
        assert len(forks) == 3 and len(audit_builds) == 2
        assert sorted(audit_builds) == sorted(h.pid
                                              for h in pool._helpers[1:])


def test_a_scan_refuses_an_unknown_measure_before_it_forks(monkeypatch,
                                                          no_helpers):
    forks = _counted_forks(monkeypatch)
    claims = [analysis.Ordering(_MEANS.terms, 1e-12),
              analysis.Ordering(((1, "A"), (1, "no-such-measure")), 1e-12)]
    for workers in (1, 2):
        with pytest.raises(KeyError, match="no-such-measure"):
            analysis.start_scan(claims, analysis.Sample.draw(
                3 * analysis.CHUNK, seed=1), workers)
    assert not forks and not pool._helpers


def test_a_claim_that_does_not_pickle_is_refused_with_no_child_left(
        no_helpers):
    # A claim whose values are a lambda scans in the calling process, but
    # cannot be sent to a helper.
    claims = [analysis.Ordering(_MEANS.terms, -1.0),
              _Claim(lambda ctx: ctx.x - ctx.x)]
    sample = analysis.Sample.draw(3 * analysis.CHUNK, seed=1)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        analysis.start_scan(claims, sample, 2)
    assert not pool._helpers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    chain, claim = analysis.scan_claims(claims, sample)
    assert len(chain.records) == 10 and claim.worst == 0.0


@pytest.mark.parametrize("terms", [[], [(1, "K")]])
def test_an_ordering_needs_two_terms(terms):
    # A claim of no link would pass having checked nothing.
    with pytest.raises(ValueError, match="at least two terms"):
        analysis.Ordering(tuple(terms), 1e-12)
    with pytest.raises(ValueError, match="at least two terms"):
        analysis.scan_chain_terms(terms, analysis.Sample.draw(10, 0), 1e-12)


def test_a_chain_sweep_forks_one_helper(monkeypatch, no_helpers):
    # Each audit_chain call at 2 workers scans half its chunks in the
    # caller and leases one helper for the other half: the sweep forks
    # it once.
    forks = _counted_forks(monkeypatch)
    swept = [cascade.audit_chain(cid, samples=2 * analysis.CHUNK, seed=3,
                                 tol=1e-12, workers=2)
             for cid in cascade.chains()]
    assert len(swept) == 26 and len(forks) == 1
    assert [h.busy for h in pool._helpers] == [False]
    serial = [cascade.audit_chain(cid, samples=2 * analysis.CHUNK, seed=3,
                                  tol=1e-12, workers=1)
              for cid in cascade.chains()]
    assert [repr(r) for r in swept] == [repr(r) for r in serial]
    assert all(r.verdict == "pass" for r in swept)


def test_an_idle_helper_that_has_ended_is_passed_over(monkeypatch,
                                                     no_helpers):
    sample = analysis.Sample.draw(2 * analysis.CHUNK, seed=34)
    claims = [analysis.Ordering(_MEANS.terms, -1.0)]
    serial = analysis.scan_claims(claims, sample)
    assert analysis.scan_claims(claims, sample, 2) == serial
    helper, = pool._helpers
    os.kill(helper.pid, signal.SIGKILL)
    # Wait for it to end, leaving it to the scan to reap.
    os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOWAIT)
    assert analysis.scan_claims(claims, sample, 2) == serial
    assert helper not in pool._helpers and len(pool._helpers) == 1


def test_a_helper_reaped_by_the_callers_own_wait_is_passed_over(
        monkeypatch, no_helpers):
    # A caller that waits for any child may reap an ended helper first,
    # as the waits by pid here do: the next scan forks a new one, and
    # the exit hook's reap (here called directly) does not raise.
    sample = analysis.Sample.draw(2 * analysis.CHUNK, seed=38)
    claims = [analysis.Ordering(_MEANS.terms, -1.0)]
    serial = analysis.scan_claims(claims, sample)
    assert analysis.scan_claims(claims, sample, 2) == serial
    helper, = pool._helpers
    os.kill(helper.pid, signal.SIGKILL)
    os.waitpid(helper.pid, 0)
    assert analysis.scan_claims(claims, sample, 2) == serial
    assert helper not in pool._helpers and len(pool._helpers) == 1
    second, = pool._helpers
    os.kill(second.pid, signal.SIGKILL)
    os.waitpid(second.pid, 0)
    assert pool._reap(pool._helpers) == [None]
    assert not pool._helpers


def test_an_exception_in_the_callers_own_run_reaps_every_child(
        monkeypatch, no_helpers):
    forks = _counted_forks(monkeypatch)
    parent, real = os.getpid(), analysis._chunk_fold

    def fold(*args):
        if os.getpid() == parent:
            raise ValueError("boom in the caller's run")
        return real(*args)

    monkeypatch.setattr(analysis, "CHUNK", 1000)
    monkeypatch.setattr(analysis, "_chunk_fold", fold)
    with pytest.raises(ValueError, match="boom in the caller's run"):
        analysis.scan_chain_terms(_MEANS.terms,
                                  analysis.Sample.draw(3000, seed=32),
                                  1e-12, workers=3)
    assert len(forks) == 2 and not pool._helpers
    with pytest.raises(ChildProcessError):     # every helper was reaped
        os.waitpid(-1, os.WNOHANG)


def _reference_scan(terms, a, b, tol, links=False):
    """Evaluate every term over all pairs, then compare adjacent ones.

    The plain loop the streamed per-chunk scan replaced; without chunks it
    gives the merged outcome directly.  A later link replaces a pair's
    worst only if strictly greater, and the first NaN link wins.  A raw
    scan's records carry no link; with ``links`` each record has the
    index of its worst link as ``step``.
    """
    x = a / b
    vals = [float(c) * catalog.get(mid)(x) for c, mid in terms]
    worst = np.full(x.shape, -np.inf)
    worst_step = np.zeros(x.shape, dtype=np.int64)
    for i in range(len(vals) - 1):
        lower, upper = vals[i], vals[i + 1]
        scale = np.maximum(np.maximum(np.abs(lower), np.abs(upper)), 1e-300)
        viol = (lower - upper) / scale
        upd = (viol > worst) | (np.isnan(viol) & ~np.isnan(worst))
        worst_step[upd] = i
        worst[upd] = viol[upd]
    records = [{"index": int(j), "a": float(a[j]), "b": float(b[j]),
                "violation": float(worst[j])}
               for j in np.nonzero(~(worst <= tol))[0][:10]]
    if links:
        for rec in records:
            rec["step"] = int(worst_step[rec["index"]])
    return float(worst.max()), records


@pytest.mark.parametrize("chunk", [analysis.CHUNK, 8192, 4096, 1000])
def test_streamed_scan_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(analysis, "CHUNK", chunk)
    sample = analysis.Sample.draw(20_000, seed=13)
    a, b = sample.pairs()
    claims = [cascade.get_chain(cid).terms for cid in cascade.chains()]
    claims.append([(1, "W2"), (1, "W1")])
    assert len(claims) == 27
    # tol = -1 records offending samples in passing chains too.
    for terms in claims:
        for tol in (1e-12, -1.0):
            ref = _reference_scan(terms, a, b, tol)
            for workers in (1, 2):
                got = analysis.scan_chain_terms(terms, sample, tol, workers)
                assert got[0] == ref[0], (terms, workers)
                assert got[1] == ref[1], (terms, workers)
    assert _reference_scan(claims[-1], a, b, 1e-12)[0] > 1e-6


def test_tied_worst_across_a_chunk_boundary_reports_the_first_index(
        monkeypatch):
    monkeypatch.setattr(analysis, "CHUNK", 2)
    # Pairs 3 and 4 are the same worst pair, on either side of a boundary.
    sample = analysis.Sample([2.0, 3.0, 3.0, 5.0, 5.0, 3.0], np.ones(6))
    false_eq = analysis.Equality(((1, "S"),), ((1, "R"),))
    reversed_link = analysis.Ordering(((1, "W2"), (1, "W1")), 1e-12)
    for claims in ([false_eq], [reversed_link], [false_eq, false_eq]):
        values, = analysis.claim_gaps(claims[:1], sample)
        assert values[3] == values[4] == values.max()
        for fold in analysis.scan_claims(claims, sample):
            assert (fold.worst, fold.index) == (values[3], 3)
            assert [r["index"] for r in fold.records] == list(range(6))


_TWICE = [cascade.get_chain(f"reverse{i}").terms for i in range(1, 5)] + [
    ((1, "W2"), (1, "W1"), (0.5, "W1")), ((1, "W1"), (1, "W2"), (1, "W1"))]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_measure_a_chain_reads_twice_folds_as_the_reference(
        monkeypatch, workers):
    # Each chain reads some measure twice, so its f(x) must outlive its
    # first read.  Alone or side by side, every chain folds bit for bit
    # as the reference.
    for terms in _TWICE:
        assert len({s for _, s in terms}) < len(terms), terms
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    sample = analysis.Sample.draw(2500, seed=33)
    a, b = sample.pairs()
    for tol in (1e-12, -1.0):
        together = analysis.scan_claims(
            [analysis.Ordering(terms, tol) for terms in _TWICE], sample,
            workers)
        for terms, fold in zip(_TWICE, together):
            ref = _reference_scan(terms, a, b, tol)
            got = analysis.scan_chain_terms(terms, sample, tol, workers)
            # repr tells -0.0 from 0.0, and nan equals itself.
            assert repr(got) == repr(ref), (terms, tol)
            assert repr((fold.worst, fold.records)) == repr(ref), terms


@pytest.mark.parametrize("workers", [1, 2])
def test_one_pass_over_every_chain_folds_as_each_chain_alone(monkeypatch,
                                                              workers):
    # The 26 chains share their measures in one program of few
    # registers, the reverse1-4 chains' twice-read measures included,
    # and each folds bit for bit as its own scan (and the reverse
    # chains as the reference, above).
    chains = [cascade.get_chain(cid).terms for cid in cascade.chains()]
    assert len(chains) == 26 and set(_TWICE[:4]) <= set(chains)
    assert analysis._Program([analysis.Ordering(terms, -1.0)
                              for terms in chains]).registers <= 38
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    sample = analysis.Sample.draw(2500, seed=35)
    for tol in (1e-12, -1.0):
        claims = [analysis.Ordering(terms, tol) for terms in chains]
        together = analysis.scan_claims(claims, sample, workers)
        for claim, fold in zip(claims, together):
            alone, = analysis.scan_claims([claim], sample, workers)
            # repr tells -0.0 from 0.0, and nan equals itself.
            assert repr(fold) == repr(alone), claim.terms


_DRAWN = analysis.Sample.draw(2_000, seed=5)
_DIAGONAL = analysis.Sample([3.0, 2.0], [3.0, 2.0])


@pytest.mark.parametrize("terms, sample, tol, steps", [
    # Two failing links, the later one worse everywhere.
    ([(1, "W2"), (1, "W1"), (0.5, "W1")], _DRAWN, 1e-12, {1}),
    # Two failing links, either one the worse, depending on the pair.
    ([(1, "W2"), (1, "W1"), (0.9, "W1")], _DRAWN, 1e-12, {0, 1}),
    # A NaN link (inf * delta) after a failing link.
    ([(1, "W2"), (1, "W1"), (math.inf, "delta")], _DRAWN, 1e-12, {1}),
    # At a = b the links are -0 then +0, or +0 then -0: the first stays.
    ([(-1, "delta"), (1, "K"), (-1, "delta")], _DIAGONAL, -1.0, {0}),
    ([(1, "K"), (-1, "delta"), (1, "K")], _DIAGONAL, -1.0, {0}),
])
def test_record_links_follow_the_reference(terms, sample, tol, steps):
    with np.errstate(all="ignore"):
        got = analysis.scan_chain_terms(terms, sample, tol)
        ref = _reference_scan(terms, *sample.pairs(), tol)
        links = analysis.Ordering(tuple(terms), tol).steps(
            [rec["a"] for rec in got[1]], [rec["b"] for rec in got[1]])
        ref_links = [rec["step"] for rec in _reference_scan(
            terms, *sample.pairs(), tol, links=True)[1]]
    # repr tells -0.0 from 0.0, and nan equals itself.
    assert repr(got) == repr(ref)
    assert len(got[1]) == min(10, sample.size)
    assert links.tolist() == ref_links
    assert set(ref_links) == steps


# -- the scan's program and its registers -------------------------------------

def _audit_claims(tol):
    """The audit's sampled claims: its 26 chains and 168 equalities."""
    chains = [analysis.Ordering(cascade.get_chain(cid).terms, tol)
              for cid in cascade.chains()]
    idents = audit._identities(tol) + audit._combinations(tol)
    return chains + [analysis.Equality(lhs, rhs, tol)
                     for ident in idents for lhs, rhs in ident.claims]


def _plain_array_folds(claims, sample, chunk):
    """Each claim folded alone, over fresh chunks that each evaluate it
    on plain arrays of their own."""
    folds = []
    for claim in claims:
        fold = analysis.Fold()
        for lo in range(0, sample.size, chunk):
            a, b = sample.pairs(lo, lo + chunk)
            values, = analysis.claim_gaps([claim], analysis.Sample(a, b))
            fold.absorb(analysis._chunk_fold(claim.tol, values, a, b, lo))
        folds.append(fold)
    return folds


@given(st.integers(1, 4), st.integers(0, 127), st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_a_program_scan_is_bitwise_plain_array_folds(full, rest, seed):
    # Full chunks share one binding of the program's registers per scan
    # process; a partial last chunk binds its own.  tol = -1 records
    # every pair's value in passing claims.
    chunk = 128
    claims = _audit_claims(-1.0)
    assert len(claims) == 26 + 168
    sample = analysis.Sample.draw(full * chunk + rest, seed)
    with mock.patch.object(analysis, "CHUNK", chunk):
        ref = _plain_array_folds(claims, sample, chunk)
        for workers in (1, 2):
            got = analysis.scan_claims(claims, sample, workers)
            for claim, fold, want in zip(claims, got, ref):
                # repr tells -0.0 from 0.0, and nan equals itself.
                assert repr(fold) == repr(want), (workers, claim)


def _per_call_fold(claim, a, b):
    """(worst, records) of a claim over all pairs, from evaluation with
    no program and no shared value: ``_reference_scan`` for an
    ``Ordering``, each symbol's f(a/b) by its own call for an
    ``Equality``."""
    if isinstance(claim, analysis.Ordering):
        return _reference_scan(claim.terms, a, b, claim.tol)
    gap = _per_call_gap(claim.lhs, claim.rhs, a, b)
    return float(gap.max()), [
        {"index": int(j), "a": float(a[j]), "b": float(b[j]),
         "violation": float(gap[j])}
        for j in np.nonzero(~(gap <= claim.tol))[0][:10]]


@pytest.mark.parametrize("workers", [1, 2])
def test_one_program_scan_is_bitwise_the_per_call_reference(workers):
    # All the audit's claims run as one program, over three full chunks
    # and a partial one.  tol = -1 records every pair's value in passing
    # claims.
    chunk = 128
    claims = _audit_claims(-1.0)
    sample = analysis.Sample.draw(3 * chunk + 50, seed=23)
    ref = [_per_call_fold(claim, *sample.pairs()) for claim in claims]
    with mock.patch.object(analysis, "CHUNK", chunk):
        got = analysis.scan_claims(claims, sample, workers)
    for claim, fold, want in zip(claims, got, ref):
        # repr tells -0.0 from 0.0, and nan equals itself.
        assert repr((fold.worst, fold.records)) == repr(want), claim


@pytest.mark.parametrize("k", [-700, 700])
def test_sampled_claims_read_the_ratio_alone(k):
    # Every claim is homogeneous of degree 0 in (a, b), and scaling by a
    # power of two leaves each ratio a/b bit for bit.  So each claim's
    # values keep their bits when a and b are both scaled by 2**k, even
    # where a mean's formula in a, b would overflow or underflow.
    a, b = analysis.Sample.draw(4096, 3).pairs()
    claims = _audit_claims(1e-12)
    assert len(claims) == 194
    base = analysis.claim_gaps(claims, analysis.Sample(a, b))
    scaled = analysis.claim_gaps(claims, analysis.Sample(np.ldexp(a, k),
                                                         np.ldexp(b, k)))
    for claim, got, want in zip(claims, scaled, base):
        assert got.tobytes() == want.tobytes(), claim


def test_shared_measure_values_are_not_clobbered():
    # On plain arrays the claims share each measure's f(x) and never
    # write into it: after all the audit's claims, each keeps the bits
    # of a fresh evaluation.
    sample = analysis.Sample.draw(1000, seed=2)
    ctx = analysis._Shared(np.divide(*sample.pairs()))
    claims = _audit_claims(1e-12)
    for claim in claims:
        claim.values(ctx)
    fresh = analysis._Shared(np.divide(*sample.pairs()))
    symbols = {symbol for claim in claims for _, symbol in claim.terms}
    assert len(symbols) == 146
    for mid in symbols:
        assert ctx.gen(mid).tobytes() == fresh.gen(mid).tobytes(), mid


def _unit_term_claims(tol):
    """Claims whose unit-coefficient terms are the shared f(x) itself: a
    chain with unit terms at both ends and side by side, and equalities
    with a lone unit term on a side, unit terms summed, and a unit term
    summed into a scaled one and the other way round."""
    half, third = Fraction(1, 2), Fraction(3, 7)
    chain = analysis.Ordering(((1, "D_SA"), (Fraction(3, 4), "D_SN"),
                               (third, "D_CN"), (1, "D_CS"), (1, "h")), tol)
    sides = [(((1, "delta"),), ((2, "h"), (1, "D_AH"))),
             (((1, "D_SA"), (1, "D_AN")), ((1, "D_SN"),)),
             (((1, "A"), (half, "H")), ((1, "G"),)),
             (((1, "A"),), ((third, "G"),)),
             (((1, "A"),), ((1, "G"),))]
    return [chain] + [analysis.Equality(lhs, rhs, tol) for lhs, rhs in sides]


@pytest.mark.parametrize("workers", [1, 2])
def test_unit_terms_fold_as_the_per_call_reference(workers):
    chunk = 128
    claims = _unit_term_claims(-1.0)
    sample = analysis.Sample.draw(2 * chunk + 50, seed=29)
    with mock.patch.object(analysis, "CHUNK", chunk):
        got = analysis.scan_claims(claims, sample, workers)
    for claim, fold in zip(claims, got):
        want = _per_call_fold(claim, *sample.pairs())
        assert repr((fold.worst, fold.records)) == repr(want), claim


def test_unit_terms_leave_the_shared_values_alone():
    # A unit term is the measure's f(x) itself, which no claim writes
    # into, and which a program reads from its register, with no step
    # that scales it by 1.
    sample = analysis.Sample.draw(1000, seed=30)
    ctx = analysis._Shared(np.divide(*sample.pairs()))
    assert analysis._term(1, ctx.gen("A")) is ctx.gen("A")
    assert analysis._term(Fraction(1), ctx.gen("A")) is ctx.gen("A")
    fresh = analysis._Shared(np.divide(*sample.pairs()))
    for claim in _unit_term_claims(1e-12):
        claim.values(ctx)
        for _, s in claim.terms:
            assert ctx.gen(s).tobytes() == fresh.gen(s).tobytes(), (claim, s)
    program = analysis._Program(_unit_term_claims(1e-12))
    for _, steps, _ in program.segments:
        for op, _, *args in steps:
            assert (op, args[0]) != (np.multiply, 1.0), args


def _evaluated(monkeypatch, claims):
    """The measures a serial scan of the claims over one full chunk
    evaluates, each time it does."""
    evaluated = []

    def eval_ctx(measure, ctx, real=catalog.Measure.eval_ctx):
        evaluated.append(measure.id)
        return real(measure, ctx)

    monkeypatch.setattr(catalog.Measure, "eval_ctx", eval_ctx)
    sample = analysis.Sample.draw(analysis.CHUNK, seed=42)
    folds = analysis.scan_claims(claims, sample)
    assert all(fold.worst <= 1e-12 for fold in folds)
    return evaluated


def test_a_full_chunk_evaluates_each_measure_once_in_few_arrays(
        monkeypatch):
    # Each f(x) is evaluated once and its register reused once it is
    # dead, so the audit's claims need far fewer registers, a and b
    # included, than their 146 distinct measures.
    claims = _audit_claims(1e-12)
    evaluated = _evaluated(monkeypatch, claims)
    assert len(evaluated) == len(set(evaluated)) == 146
    assert analysis._Program(claims).registers <= 61


def test_a_full_chunk_of_a_long_chain_needs_few_registers(monkeypatch):
    # Lt_monotone's 17 terms each die at their one read, so its program
    # does not hold them all at once.
    claims = [analysis.Ordering(cascade.get_chain("Lt_monotone").terms,
                                1e-12)]
    evaluated = _evaluated(monkeypatch, claims)
    assert len(evaluated) == len(set(evaluated)) == 17
    assert analysis._Program(claims).registers <= 11


def test_every_chain_alone_needs_few_registers():
    for cid in cascade.chains():
        claim = analysis.Ordering(cascade.get_chain(cid).terms, 1e-12)
        assert analysis._Program([claim]).registers <= 18, cid


def test_a_scan_binds_its_registers_once_and_a_partial_chunk_to_their_slices(
        monkeypatch):
    bound, real = [], analysis._bind

    def bind(program, regs):
        bound.append(regs[:program.registers])
        return real(program, regs)

    monkeypatch.setattr(analysis, "_bind", bind)
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    for _ in range(2):
        analysis.scan_claims([analysis.Ordering(_MEANS.terms, -1.0)],
                             analysis.Sample.draw(3500, seed=36))
    assert [regs[0].size for regs in bound] == [1000, 500] * 2
    # The second scan's full chunks ran on the registers the first kept,
    # and each partial chunk on the leading slices of those registers.
    assert all(r is k for r, k in zip(bound[2], bound[0]))
    for full, part in (bound[:2], bound[2:]):
        for r, k in zip(part, full):
            assert np.shares_memory(r, k) and r.base is k


def test_a_run_folds_its_chunks_into_one_fold_per_claim(monkeypatch):
    # A run of four chunks, a short last one included, starting inside
    # the sample: its folds, one per claim, are its chunks' folds
    # absorbed in start order.  The chunks' folds come in the program's
    # claim order, which is not the given one.
    chunks, real = [], analysis._chunk_fold

    def chunk_fold(*args):
        chunks.append(real(*args))
        return chunks[-1]

    monkeypatch.setattr(analysis, "_chunk_fold", chunk_fold)
    claims = [analysis.Ordering(terms, tol) for terms in _TWICE
              for tol in (1e-12, -1.0)] + _audit_claims(-1.0)[::20]
    program = analysis._Program(claims)
    order = [i for i, _, _ in program.segments]
    assert order != sorted(order)
    sample = analysis.Sample.draw(4 * 128 + 50, seed=41)
    run = range(128, sample.size, 128)
    with np.errstate(all="ignore"):
        got = analysis._scan_run((tuple(claims), sample, run))
    assert len(got) == len(claims) and len(chunks) == 4 * len(claims)
    want = [analysis.Fold() for _ in claims]
    for c, lo in enumerate(run):
        for k, i in enumerate(order):
            fold = chunks[c * len(order) + k]
            assert lo <= fold.index < lo + 128
            want[i].absorb(fold)
    # repr tells -0.0 from 0.0, and nan equals itself.
    assert repr(got) == repr(want)
    assert any(fold.records for fold in got)


def test_a_request_is_claims_sample_and_starts(monkeypatch, no_helpers):
    # Each run's request is the pool pair (_scan_run, argument), and the
    # argument is three fields: the claims, each with its tol, the sample
    # and the starts, whose step is the chunk size.  No compiled program
    # is in it: the process that scans the run compiles the claims.
    # start_scan's caller goes on, so every run goes through a pipe.
    parent, requests = os.getpid(), []
    real_send = pool._send

    def send(fd, data):
        if os.getpid() == parent:
            requests.append(pickle.loads(data))
        return real_send(fd, data)

    monkeypatch.setattr(pool, "_send", send)
    monkeypatch.setattr(analysis, "CHUNK", 1000)
    sample = analysis.Sample.draw(3500, seed=40)
    claims = [analysis.Ordering(_MEANS.terms, tol) for tol in (-1.0, 1e-12)]
    loose, strict = analysis.start_scan(claims, sample, 2)()
    assert len(loose.records) == 10 and not strict.records
    assert [run for run, _ in requests] == [analysis._scan_run] * 2
    assert [len(r) for _, r in requests] == [3, 3]
    assert [list(r[2]) for _, r in requests] == [[0, 1000], [2000, 3000]]
    for _, (given, drawn, starts) in requests:
        assert given == tuple(claims) and starts.step == 1000
        assert [claim.tol for claim in given] == [-1.0, 1e-12]
        assert (drawn.size, drawn._ab) == (3500, None)
    # The claims' tols reach a run through its claims alone.
    given, drawn, starts = requests[0][1]
    assert [len(f.records) for f in analysis._scan_run(requests[0][1])] == [
        10, 0]
    swapped = tuple(analysis.Ordering(claim.terms, tol)
                    for claim, tol in zip(given, (1e-12, -1.0)))
    assert [len(f.records)
            for f in analysis._scan_run((swapped, drawn, starts))] == [0, 10]


def test_a_scan_keeps_the_callers_error_state_but_at_a_pole():
    # um1^-2 has a pole at x = 1, which the power's reciprocal step
    # divides out quietly; every other step keeps the caller's error
    # state.
    sample = analysis.Sample([2.0, 3.0, 5.0], [2.0, 1.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fold, = analysis.scan_claims(
            [_Claim(lambda ctx: ctx.um1_pow(-2))], sample)
        assert (fold.worst, fold.index) == (math.inf, 0)
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            analysis.scan_claims([_Claim(lambda ctx: 1.0 / ctx.um1)],
                                 sample)


def test_a_serial_scan_takes_few_page_faults_per_chunk(monkeypatch):
    # Counted in a second scan of the same claims, from the start of its
    # first chunk to the start of its last: its full chunks run on the
    # registers the first scan left kept, so what is counted is the
    # chunks' own work, not the heap that earlier work left behind.
    resource = pytest.importorskip("resource")
    claims = [analysis.Ordering(cascade.get_chain(cid).terms, 1e-12)
              for cid in cascade.chains()]
    sample = analysis.Sample.draw(41 * analysis.CHUNK, 2)
    analysis.scan_claims(claims, sample)
    starts, real = [], analysis._draw

    def draw(*args):
        starts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return real(*args)

    monkeypatch.setattr(analysis, "_draw", draw)
    analysis.scan_claims(claims, sample)
    assert len(starts) == 41
    assert (starts[-1] - starts[0]) / 40 < 20, np.diff(starts).tolist()


def _running(pid: int) -> bool:
    """Whether process pid has not ended; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in "ZX"


def _ended(pids, timeout=30.0) -> bool:
    deadline = time.monotonic() + timeout
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not any(map(_running, pids))


_SRC = str(Path(analysis.__file__).resolve().parents[1])
_SCAN = """
import atexit, os, sys

def left():     # runs after pool's own exit hook, registered later
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", flush=True)

atexit.register(left)
from divcascade import analysis, pool
analysis.scan_chain_terms([(1, "W2"), (1, "W1")],
                          analysis.Sample.draw(3 * analysis.CHUNK, 1),
                          1e-12, workers=3)
print(*[h.pid for h in pool._helpers], flush=True)
"""


def _script(tail: str = "") -> subprocess.Popen:
    """A Python process that scans at 3 workers, prints the pids of its
    two helpers, and runs ``tail``; at exit it prints whether it has a
    child left unreaped."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen([sys.executable, "-c", _SCAN + tail],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env)


_needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                                 reason="reads process states in /proc")


@_needs_proc
def test_no_helper_outlives_a_script_that_returns():
    proc = _script()
    out, _ = proc.communicate(timeout=120)
    pids, left = out.splitlines()
    helpers = [int(pid) for pid in pids.split()]
    assert proc.returncode == 0 and len(helpers) == 2
    # Reaped by the script's exit hook, not left to end on their own.
    assert left == "no child left"
    assert not any(map(_running, helpers))


@_needs_proc
def test_no_helper_outlives_a_script_that_is_killed():
    proc = _script("sys.stdin.read()\n")
    helpers = [int(pid) for pid in proc.stdout.readline().split()]
    assert len(helpers) == 2 and all(map(_running, helpers))
    proc.kill()
    assert proc.wait(timeout=60) == -signal.SIGKILL
    proc.stdin.close()
    proc.stdout.close()
    # Each reads EOF on its request pipe and exits.
    assert _ended(helpers)


@_needs_proc
def test_a_users_fork_after_a_scan_holds_no_helper_pipe():
    # The child reports whether it holds a helper or an open end of a
    # helper's pipe, then waits for stdin to close; the parent returns
    # meanwhile, and its helpers must still read EOF and end.
    proc = _script("""
fds = [fd for h in pool._helpers for fd in (h.send, h.recv)]
child = os.fork()
if child == 0:
    held = []
    for fd in fds:
        try:
            os.fstat(fd)
            held.append(fd)
        except OSError:
            pass
    print("child", len(pool._helpers), len(held), flush=True)
    sys.stdin.read()
    os._exit(0)
print("parent", child, flush=True)
""")
    helpers = [int(pid) for pid in proc.stdout.readline().split()]
    lines = sorted(proc.stdout.readline().split() for _ in range(2))
    child = int(lines[1][1])
    try:
        assert lines[0] == ["child", "0", "0"]
        assert proc.wait(timeout=60) == 0
        assert len(helpers) == 2 and not any(map(_running, helpers))
        assert _running(child)
    finally:
        proc.stdin.close()
        proc.stdout.close()
    assert _ended([child])


@_needs_proc
def test_no_helper_outlives_an_audit_whose_reader_leaves():
    # `divcascade audit --seed 1 | head -1`: the audit's helpers, the
    # prover and two scan helpers, are seen while it runs, then the
    # reader closes stdout, as head does, and the audit ends through the
    # closed-pipe exit, 141.
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "divcascade", "audit", "--seed", "1",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    if not os.path.exists(children):
        proc.kill()
        proc.communicate()
        pytest.skip("the kernel does not list a task's children")
    helpers = []
    while len(helpers) < 3 and proc.poll() is None:
        with open(children, encoding="ascii") as fh:
            helpers = [int(pid) for pid in fh.read().split()]
        time.sleep(0.002)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141, err
    assert len(helpers) == 3 and not any(map(_running, helpers))


def test_the_draw_has_the_whole_draws_bits_under_avx2_dispatch():
    # numpy's AVX-512 pow is not its AVX2 one: with the AVX-512 kernels
    # off, as on a CPU without them, the draw's kept base of 10.0 must
    # still give the bits of a scalar base.
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    if not features.get("X86_V4"):
        pytest.skip("this CPU runs numpy's AVX2 kernels already")
    code = ("import numpy as np\nfrom divcascade import analysis\n"
            + inspect.getsource(_whole_draw) + textwrap.dedent("""
        from numpy._core._multiarray_umath import __cpu_features__
        assert not __cpu_features__["X86_V4"]
        for n in (10**5, 10**6):
            for seed in (0, 5, 42):
                a, b = _whole_draw(n, seed)
                got = analysis.Sample.draw(n, seed).pairs()
                assert a.tobytes() == got[0].tobytes(), (n, seed)
                assert b.tobytes() == got[1].tobytes(), (n, seed)
        print("same bits")
        """))
    env = dict(os.environ, PYTHONPATH=_SRC, NPY_DISABLE_CPU_FEATURES="X86_V4")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "same bits\n"

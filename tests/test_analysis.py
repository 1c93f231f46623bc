"""Unit tests for sampling, certification, and counterexample search."""

import itertools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from divcascade import analysis, audit, cascade, catalog, means
from divcascade.ratfun import RatS


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


def test_default_grid_covers_band():
    g = analysis.default_grid()
    assert g.min() == pytest.approx(1e-4)
    assert g.max() == pytest.approx(1e4)
    assert np.any((g > 0.999) & (g < 1.001))
    assert np.all(np.diff(g) > 0)


def test_fd_second_derivative_on_cubic():
    val = analysis.fd_second_derivative(lambda x: x**3, 2.0)
    assert val == pytest.approx(12.0, rel=1e-6)


def test_certify_convexity_passes_for_divergence():
    res = analysis.certify_convexity("delta")
    assert res.verdict == "pass"
    assert res.kind == "convexity"
    assert res.samples == analysis.SPOT_POINTS.size <= 16


def test_certify_convexity_negative_controls():
    """Exactly three catalog divergences are not convex on (0, inf).

    All three fail the exact sign proof: D_GH and D_NH have f'' < 0 for
    large x, and D_SR = S - R, an r + t*S form, is not convex either.
    """
    divergences = [m for m in catalog.iter_measures()
                   if m.kind == "divergence"]
    assert len(divergences) == 101
    results = {m.id: analysis.certify_convexity(m) for m in divergences}
    assert {r.samples for r in results.values()} == {analysis.SPOT_POINTS.size}
    failed = {k: r for k, r in results.items() if r.verdict != "pass"}
    assert set(failed) == {"D_GH", "D_NH", "D_SR"}
    for mid in ("D_GH", "D_NH"):
        assert failed[mid].counterexamples[0]["check"] == "f''>0 off x=1"
        assert failed[mid].counterexamples[0]["positive_roots"][0] > 0
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
        for x in analysis.SPOT_POINTS:
            assert analysis._fd2_mp(m, float(x)) == _fd2_mpmath(m, x), (
                mid, x)


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


def test_scan_finds_reversed_chain_violation():
    sample = analysis.Sample.draw(2_000, seed=3)
    terms = [(1.0, "K"), (1.0, "delta")]  # K dominates delta: reversed
    worst, records = analysis.scan_chain_terms(terms, sample, 1e-12)
    assert worst > 1e-6
    assert records
    rec = records[0]
    assert {"index", "a", "b", "step", "violation"} <= set(rec)


def test_scan_worker_independence(monkeypatch):
    threads = {}     # chunk serial -> the threads that built and read it
    sizes = {}       # chunk serial -> its number of pairs
    serials = itertools.count()

    class OneThread(analysis.ChunkValues):
        def __init__(self, a, b, *args, **kw):
            super().__init__(a, b, *args, **kw)
            self.serial = next(serials)
            threads[self.serial] = {threading.get_ident()}
            sizes[self.serial] = a.size

        def gen(self, symbol):
            threads[self.serial].add(threading.get_ident())
            return super().gen(symbol)

    monkeypatch.setattr(analysis, "ChunkValues", OneThread)
    sample = analysis.Sample.draw(300_000, seed=9)
    assert sample.size > 2 * analysis.CHUNK
    claims = [[(1.0, "delta"), (1.0, "K"), (0.5, "psi")],
              [(1, "W2"), (1, "W1")]]
    claims += [cascade.get_chain(cid).terms for cid in cascade.chains()
               if cid.startswith(("means", "pyramid"))]
    assert len(claims) == 8
    # tol = -1 records offending samples in passing chains too.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # interleave the chunk tasks finely
    try:
        for terms in claims:
            for tol in (1e-12, -1.0):
                w1 = analysis.scan_chain_terms(terms, sample, tol, workers=1)
                for workers in (2, 4):
                    got = analysis.scan_chain_terms(terms, sample, tol,
                                                    workers)
                    assert got == w1, (terms, tol, workers)
            assert len(w1[1]) == 10, terms
    finally:
        sys.setswitchinterval(interval)
    # Each chunk task built its own context and no other thread read it;
    # the links of a chunk's records come from a context of at most ten
    # of its pairs, built and read by the same task.
    chunks = -(-sample.size // analysis.CHUNK)
    assert sum(n > 10 for n in sizes.values()) == 8 * 2 * 3 * chunks
    assert all(len(t) == 1 for t in threads.values())


def _reference_scan(terms, a, b, tol):
    """Evaluate every term over all pairs, then compare adjacent ones.

    The plain loop the streamed per-chunk scan replaced; without chunks it
    gives the merged outcome directly.  A later link replaces a pair's
    worst only if strictly greater, and the first NaN link wins.
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
                "step": int(worst_step[j]), "violation": float(worst[j])}
               for j in np.nonzero(~(worst <= tol))[0][:10]]
    return float(worst.max()), records


@pytest.mark.parametrize("chunk", [analysis.CHUNK, 4096, 1000])
def test_streamed_scan_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(analysis, "CHUNK", chunk)
    sample = analysis.Sample.draw(20_000, seed=13)
    a, b = sample.a, sample.b
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
    for name in ("CHUNK", "SHARED_CHUNK"):
        monkeypatch.setattr(analysis, name, 2)
    # Pairs 3 and 4 are the same worst pair, on either side of a boundary.
    sample = analysis.Sample([2.0, 3.0, 3.0, 5.0, 5.0, 3.0], np.ones(6))
    false_eq = means.Equality(((1, "S"),), ((1, "R"),))
    reversed_link = analysis.Ordering(((1, "W2"), (1, "W1")), 1e-12)
    for claims in ([false_eq], [reversed_link], [false_eq, false_eq]):
        whole = analysis.ChunkValues(sample.a, sample.b)
        values = claims[0].values(whole)
        assert values[3] == values[4] == values.max()
        for fold in analysis.scan_claims(claims, sample):
            assert (fold.worst, fold.index) == (values[3], 3)
            assert [r["index"] for r in fold.records] == list(range(6))


def test_memo_arrays_reject_in_place_writes():
    sample = analysis.Sample.draw(100, seed=1)
    chunk = analysis.ChunkValues(sample.a, sample.b, memo=True)
    kept = chunk.gen("K")
    assert chunk.gen("K") is kept
    with pytest.raises(ValueError):
        kept *= 2.0
    with pytest.raises(ValueError):
        np.add(kept, 1.0, out=kept)
    # Without a memo every read is a new array.
    fresh = analysis.ChunkValues(sample.a, sample.b)
    assert fresh.gen("K") is not fresh.gen("K")


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
        ref = _reference_scan(terms, sample.a, sample.b, tol)
    # repr tells -0.0 from 0.0, and nan equals itself.
    assert repr(got) == repr(ref)
    assert len(got[1]) == min(10, sample.size)
    assert {rec["step"] for rec in got[1]} == steps

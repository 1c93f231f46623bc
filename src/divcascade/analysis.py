"""Numerical certification machinery.

Convexity certificates (exact sign proofs with spot checks), a grid
estimate of the sup-ratio behind each sharp inequality constant (the
audit proves those constants exactly instead), and randomized
counterexample search.  Everything here is deterministic given the seed
and independent of the worker count: samples are drawn in one stream up
front, split into fixed-size chunks, and merged in chunk order.

A chain scan streams its terms through each chunk: every term is
evaluated from one ``UContext`` per chunk (so sqrt(x), u - 1 and each
(u - 1)^m are computed once per chunk, not once per term), compared
with the term before it, and dropped.  A chunk holds two term arrays at
a time, whatever the chain's length.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from . import catalog
from .catalog import Measure
from .ratfun import RatU, UContext
from .reporting import CheckResult, make_result

__all__ = [
    "default_grid", "sample_pairs", "fd_second_derivative",
    "certify_convexity", "estimate_sup_ratio", "counterexample_search",
    "scan_chain_terms", "CHUNK",
]

CHUNK = 131072

# Spot check of an exact f'' against a 40-digit central difference.
FD_REL_TOL = 1e-6
FD_ABS_TOL = 1e-8
SPOT_POINTS = np.concatenate([np.logspace(-4.0, 4.0, 9), [0.999, 1.001]])


def default_grid() -> np.ndarray:
    """2001 log-spaced points on [1e-4, 1e4] plus 201 on [0.999, 1.001]."""
    coarse = np.logspace(-4.0, 4.0, 2001)
    band = np.linspace(0.999, 1.001, 201)
    return np.unique(np.concatenate([coarse, band]))


def sample_pairs(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n positive pairs per the audit sampling policy.

    90% have a and b independently log-uniform in [1e-6, 1e6]; 10% sit in
    a near-diagonal band b = a(1 + delta), |delta| <= 1e-3, where
    cancellation would hide violations from a naive evaluator.
    """
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


def fd_second_derivative(f: Callable, x: float, h: float | None = None) -> float:
    """Central second difference (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    x = float(x)
    if h is None:
        h = max(1e-5 * x, 1e-7)
    if x - h <= 0.0:
        raise ValueError(f"step h={h} leaves the domain at x={x}")
    return (float(f(x + h)) - 2.0 * float(f(x)) + float(f(x - h))) / (h * h)


def _resolve(measure) -> Measure:
    if isinstance(measure, Measure):
        return measure
    return catalog.get(measure)


def _fd2_mp(measure: Measure, x: float, dps: int = 40) -> float:
    """Central second difference in dps-digit arithmetic, h = 1e-5 x.

    Plain float64 differences cannot certify steep generators: the noise
    floor eps*f/(h^2 f'') passes 1e-6 at the grid edges no matter how h
    is chosen.  Working at 40 digits leaves only the O((h/x)^2) = 1e-10
    truncation term.
    """
    import mpmath as mp

    with mp.workdps(dps):
        xv = mp.mpf(x)
        h = xv * mp.mpf("1e-5")
        out = (measure.eval_mp(xv + h, dps) - 2 * measure.eval_mp(xv, dps)
               + measure.eval_mp(xv - h, dps)) / (h * h)
        return float(out)


def certify_convexity(measure) -> CheckResult:
    """Certify that a divergence generator is convex and normalized.

    Checks f(1) = 0, f'(1) = 0, and proves the exact f'' positive on all
    of x > 0 apart from x = 1 (``RatU.positive_off_one``).  A spot check
    of f'' against a high-precision central difference, to within
    FD_REL_TOL * |f''| + FD_ABS_TOL, catches a wrong derivative; the
    absolute floor covers f'' vanishing to high order near x = 1.
    Measures without an exact generator are certified by the positivity
    of the high-precision difference on ``default_grid()`` alone.
    """
    m = _resolve(measure)
    if m.kind != "divergence":
        raise ValueError(f"{m.id} is a {m.kind}; convexity certificates "
                         "apply to divergence generators")
    bad: list[dict] = []

    def flag(x, check, amount):
        bad.append({"x": float(x), "check": check, "violation": float(amount)})

    f1 = float(m(1.0))
    if abs(f1) > 1e-15:
        flag(1.0, "f(1)=0", abs(f1))

    points = default_grid() if m.gen is None else SPOT_POINTS
    fd = np.array([_fd2_mp(m, float(x)) for x in points])
    if m.gen is None:
        at_one = np.abs(points - 1.0) <= 1e-12
        neg = ~at_one & (fd <= 0.0)
        if np.any(neg):
            i = int(np.argmax(neg))
            flag(points[i], "f''>0", -fd[i])
        if np.any(at_one) and float(np.min(fd[at_one])) < -1e-12:
            flag(1.0, "f''(1)>=0", -np.min(fd[at_one]))
    else:
        if m.gen.deriv_u().m < 1:
            flag(1.0, "f'(1)=0", float(abs(m.gen.deriv_u().limit_at_1())))
        f2 = m.fpp
        if not f2.positive_off_one():
            bad.append({"check": "f''>0 off x=1", "violation": float("inf"),
                        "m": f2.m, "positive_roots": [
                            f2.num.positive_roots(), f2.den.positive_roots()]})
        analytic = f2(points)
        diff = np.abs(analytic - fd)
        excess = diff - (FD_REL_TOL * np.abs(analytic) + FD_ABS_TOL)
        i = int(np.argmax(excess))
        if float(excess[i]) > 0.0:
            flag(points[i], "analytic-vs-fd", diff[i])

    worst = max((r["violation"] for r in bad), default=0.0)
    verdict = "pass" if not bad else "fail"
    return CheckResult(id=f"convexity:{m.id}", kind="convexity",
                       samples=int(points.size), max_violation=worst,
                       verdict=verdict, counterexamples=bad[:10], ref=m.ref)


def _ratio_ratu(num, den) -> RatU:
    fn = num if isinstance(num, RatU) else _resolve(num).fpp
    fd_ = den if isinstance(den, RatU) else _resolve(den).fpp
    if fn is None or fd_ is None:
        raise ValueError("sup-ratio estimation needs exact second derivatives")
    return fn / fd_


def estimate_sup_ratio(num, den, grid: np.ndarray | None = None):
    """Sup over the grid of f''_num / f''_den, plus the x -> 1 limit.

    The quotient is formed exactly at the rational-function level, so the
    shared (sqrt(x)-1)-power cancels and the grid evaluation is free of
    0/0 noise near the diagonal.  The limit is Richardson-extrapolated
    from x = 1 +- eps, eps in {1e-5, 1e-6}.

    Returns (sup value, argmax x, limit at 1).
    """
    ratio = _ratio_ratu(num, den)
    if grid is None:
        grid = default_grid()
    vals = ratio(grid)
    i = int(np.argmax(vals))
    a1 = 0.5 * (ratio(1.0 + 1e-5) + ratio(1.0 - 1e-5))
    a2 = 0.5 * (ratio(1.0 + 1e-6) + ratio(1.0 - 1e-6))
    limit = (100.0 * a2 - a1) / 99.0
    return float(vals[i]), float(grid[i]), float(limit)


def _scan_chunk(terms, x: np.ndarray, lo: int, hi: int, tol: float):
    xs = x[lo:hi]
    ctx = UContext(xs)
    worst = np.full(xs.shape, -np.inf)
    worst_step = np.zeros(xs.shape, dtype=np.int64)
    values = (float(c) * _resolve(mid).eval_ctx(ctx) for c, mid in terms)
    upper = next(values)
    abs_upper = np.abs(upper)
    for i, value in enumerate(values):
        lower, abs_lower = upper, abs_upper
        upper, abs_upper = value, np.abs(value)
        # viol = (lower - upper) / max(|lower|, |upper|, 1e-300)
        scale = np.maximum(abs_lower, abs_upper)
        np.maximum(scale, 1e-300, out=scale)
        viol = np.subtract(lower, upper)
        np.divide(viol, scale, out=viol)
        upd = np.greater(viol, worst)
        np.copyto(worst_step, i, where=upd)
        np.copyto(worst, viol, where=upd)
    chunk_max = float(worst.max()) if xs.size else float("-inf")
    idx = np.nonzero(worst > tol)[0][:10]
    cands = [(int(lo + j), float(worst[j]), int(worst_step[j])) for j in idx]
    return chunk_max, cands


def scan_chain_terms(terms, a: np.ndarray, b: np.ndarray, tol: float,
                     workers: int = 1):
    """Check coef_0*m_0 <= coef_1*m_1 <= ... on every sampled pair.

    Evaluation is chunked; chunk results are merged in index order so the
    outcome does not depend on the worker count.  Within a chunk the terms
    stream against one ``UContext`` built by that chunk's task: term i+1
    is evaluated, compared with term i, and term i is dropped, so a chunk
    holds two term arrays at a time and no context crosses threads.  Returns
    (max violation, counterexamples): violations are relative to the
    larger of the two adjacent terms, counterexamples are capped at ten
    and ordered by global sample index.
    """
    n = int(a.size)
    x = a / b
    spans = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda s: _scan_chunk(terms, x, s[0], s[1], tol), spans))
    else:
        parts = [_scan_chunk(terms, x, lo, hi, tol) for lo, hi in spans]

    max_violation = max((p[0] for p in parts), default=float("-inf"))
    records = []
    for _, cands in parts:
        for gidx, viol, step in cands:
            if len(records) >= 10:
                break
            records.append({
                "index": gidx, "a": float(a[gidx]), "b": float(b[gidx]),
                "step": step, "violation": viol,
            })
        if len(records) >= 10:
            break
    return max_violation, records


def counterexample_search(claim, samples: int = 100000, seed=0,
                          tol: float = 1e-12, workers: int = 1, *,
                          check_id: str | None = None,
                          kind: str = "chain", ref: str = "") -> CheckResult:
    """Randomized search for violations of an ordering or identity claim.

    ``claim`` is either a sequence of (coefficient, measure) terms whose
    scaled values must be nondecreasing, an object with such a ``terms``
    attribute, or a callable mapping sampled arrays (a, b) to a relative
    violation array.  The result records the worst violation seen and up
    to ten offending samples.
    """
    a, b = sample_pairs(samples, seed)
    terms = getattr(claim, "terms", None)
    if terms is None and not callable(claim):
        terms = list(claim)
    if terms is not None:
        max_violation, records = scan_chain_terms(terms, a, b, tol, workers)
        name = check_id or getattr(claim, "id", "chain")
        return make_result(name, kind, samples, max_violation, tol,
                           counterexamples=records,
                           ref=ref or getattr(claim, "ref", ""))
    viol = np.asarray(claim(a, b), dtype=float)
    max_violation = float(viol.max()) if viol.size else float("-inf")
    idx = np.nonzero(viol > tol)[0][:10]
    records = [{"index": int(j), "a": float(a[j]), "b": float(b[j]),
                "violation": float(viol[j])} for j in idx]
    return make_result(check_id or "identity", kind, samples, max_violation,
                       tol, counterexamples=records, ref=ref)

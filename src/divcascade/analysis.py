"""Numerical certification machinery.

Convexity certificates (an exact sign proof of f'' for every divergence,
checked against high-precision differences at 11 points), a grid
estimate of the sup-ratio behind each sharp inequality constant (the
audit proves those constants exactly instead), and the sampled chain
scan, which checks the float evaluators against the orderings that
``cascade`` proves.  Everything here is deterministic given the seed and
independent of the worker count: samples are drawn in one stream up
front, split into fixed-size chunks, and merged in chunk order.

A run draws one ``Sample``: the pairs a, b, their ratios x = a/b and
one ``UContext`` of x, so sqrt(x), u - 1 and each (u - 1)^m are computed
once per run, not once per term, check or chain.  A chain scan streams
its terms through each chunk: every term is evaluated from the
context, compared with the term before it, and dropped.  A chunk holds
two term arrays at a time, whatever the chain's length.  A sample that
spans several chunks is scanned with one context per chunk, built by
the task that owns the chunk.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from . import catalog
from .catalog import Measure
from .ratfun import RatU, UContext
from .reporting import CheckResult

__all__ = [
    "default_grid", "sample_pairs", "Sample", "fd_second_derivative",
    "certify_convexity", "estimate_sup_ratio", "scan_chain_terms", "CHUNK",
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


class Sample:
    """Pairs (a, b) with their ratios x = a/b and one shared ``UContext``.

    ``b * m.eval_ctx(sample.ctx)`` has the bits of ``m.value(a, b)``, so
    every check that reads a measure from the sample shares the powers
    (u - 1)^m of one context.  Scalars are held as one-element arrays.
    The context is built on first use and is stateful: use it from one
    thread only.
    """

    __slots__ = ("a", "b", "x", "_ctx")

    def __init__(self, a, b):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.x = self.a / self.b
        self._ctx = None

    @classmethod
    def draw(cls, n: int, seed) -> "Sample":
        """The n pairs of ``sample_pairs(n, seed)``."""
        return cls(*sample_pairs(n, seed))

    @property
    def size(self) -> int:
        return int(self.a.size)

    @property
    def ctx(self) -> UContext:
        """The ``UContext`` of x, built on first use."""
        if self._ctx is None:
            self._ctx = UContext(self.x)
        return self._ctx


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
    floor eps*f/(h^2 f'') passes 1e-6 at x = 1e-4 and 1e4 no matter how h
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
    of x > 0 apart from x = 1 (``positive_off_one`` of the ``RatU`` or
    ``RatS`` form).  A spot check of f'' against a high-precision central
    difference at ``SPOT_POINTS``, to within FD_REL_TOL * |f''| +
    FD_ABS_TOL, catches a wrong derivative; the absolute floor covers f''
    vanishing to high order near x = 1, and a value that is not finite
    fails.
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
    slope = m.gen.dx().limit_at_1()
    if slope != 0:
        flag(1.0, "f'(1)=0", abs(slope))

    f2 = m.fpp
    if not f2.positive_off_one():
        bad.append({"check": "f''>0 off x=1", "violation": float("inf")})
        if isinstance(f2, RatU):
            bad[-1].update(m=f2.m, positive_roots=[
                f2.num.positive_roots(), f2.den.positive_roots()])
    fd = np.array([_fd2_mp(m, float(x)) for x in SPOT_POINTS])
    analytic = f2(SPOT_POINTS)
    diff = np.abs(analytic - fd)
    with np.errstate(invalid="ignore"):     # inf - inf where f'' is inf
        excess = diff - (FD_REL_TOL * np.abs(analytic) + FD_ABS_TOL)
    i = int(np.argmax(excess))        # the first NaN, if there is one
    if not float(excess[i]) <= 0.0:   # so a value that is not finite fails
        flag(SPOT_POINTS[i], "analytic-vs-fd",
             diff[i] if np.isfinite(diff[i]) else np.inf)

    worst = max((r["violation"] for r in bad), default=0.0)
    verdict = "pass" if not bad else "fail"
    return CheckResult(id=f"convexity:{m.id}", kind="convexity",
                       samples=int(SPOT_POINTS.size), max_violation=worst,
                       verdict=verdict, counterexamples=bad[:10], ref=m.ref)


def _fpp_ratu(measure) -> RatU:
    """The exact f'' of a measure, or a ``RatU`` taken as given."""
    if isinstance(measure, RatU):
        return measure
    m = _resolve(measure)
    if not isinstance(m.fpp, RatU):
        raise ValueError(f"{m.id} has a root-mean-square generator "
                         "r + t*S; the sup-ratio grid needs a rational f''")
    return m.fpp


def estimate_sup_ratio(num, den, grid: np.ndarray | None = None):
    """Sup over the grid of f''_num / f''_den, plus the x -> 1 limit.

    The quotient is formed exactly at the rational-function level, so the
    shared (sqrt(x)-1)-power cancels and the grid evaluation is free of
    0/0 noise near the diagonal.  The limit is Richardson-extrapolated
    from x = 1 +- eps, eps in {1e-5, 1e-6}.

    Returns (sup value, argmax x, limit at 1).
    """
    ratio = _fpp_ratu(num) / _fpp_ratu(den)
    if grid is None:
        grid = default_grid()
    vals = ratio(grid)
    i = int(np.argmax(vals))
    a1 = 0.5 * (ratio(1.0 + 1e-5) + ratio(1.0 - 1e-5))
    a2 = 0.5 * (ratio(1.0 + 1e-6) + ratio(1.0 - 1e-6))
    limit = (100.0 * a2 - a1) / 99.0
    return float(vals[i]), float(grid[i]), float(limit)


def _scan_chunk(terms, ctx: UContext, tol: float):
    worst = np.full(ctx.x.shape, -np.inf)
    worst_step = np.zeros(ctx.x.shape, dtype=np.int64)
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
    chunk_max = float(worst.max()) if worst.size else float("-inf")
    idx = np.nonzero(worst > tol)[0][:10]
    return chunk_max, [(int(j), float(worst[j]), int(worst_step[j]))
                       for j in idx]


def scan_chain_terms(terms, sample: Sample, tol: float, workers: int = 1):
    """Check coef_0*m_0 <= coef_1*m_1 <= ... on every sampled pair.

    Within a chunk the terms stream against one ``UContext``: term i+1
    is evaluated, compared with term i, and term i is dropped, so a
    chunk holds two term arrays at a time.  A sample of at most ``CHUNK``
    pairs is one chunk and streams over the sample's own context, which
    it shares with the run's other checks.  A larger sample is scanned
    chunk by chunk, each chunk with a context built by the task that
    owns it, so no context crosses threads; chunk results are merged in
    index order, so the outcome does not depend on the worker count.
    Returns (max violation, counterexamples): violations are relative to
    the larger of the two adjacent terms, counterexamples are capped at
    ten and ordered by global sample index.
    """
    n = sample.size
    if n <= CHUNK:
        parts = [(0, _scan_chunk(terms, sample.ctx, tol))]
    else:
        def task(lo):
            ctx = UContext(sample.x[lo:lo + CHUNK])
            return lo, _scan_chunk(terms, ctx, tol)

        starts = range(0, n, CHUNK)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(task, starts))
        else:
            parts = [task(lo) for lo in starts]

    max_violation = max(chunk_max for _, (chunk_max, _) in parts)
    records = []
    for lo, (_, cands) in parts:
        for j, viol, step in cands:
            if len(records) >= 10:
                break
            gidx = lo + j
            records.append({
                "index": gidx, "a": float(sample.a[gidx]),
                "b": float(sample.b[gidx]), "step": step, "violation": viol,
            })
        if len(records) >= 10:
            break
    return max_violation, records

"""Numerical certification machinery.

Convexity certificates (an exact sign proof of f'' for every divergence,
checked against 40-digit ``decimal`` differences at 11 points), a grid
estimate of the sup-ratio behind each sharp inequality constant (the
audit proves those constants exactly instead), and the sampled pass,
which checks the float evaluators against the orderings and identities
that ``cascade`` proves.  Everything here is deterministic given the
seed: a run draws one ``Sample``, and ``start_scan`` evaluates all its
claims in one pass over fixed chunks of it, each with one ``UContext``
and one memo of generator values, merged in index order whatever the
chunk size, worker count, or whether the chunks ran in threads or in
forked processes.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from itertools import pairwise
from typing import Callable

import numpy as np

from . import catalog
from .catalog import Measure
from .ratfun import RatU, UContext
from .reporting import CheckResult

__all__ = [
    "default_grid", "sample_pairs", "Sample", "fd_second_derivative",
    "certify_convexity", "estimate_sup_ratio", "Ordering", "ChunkValues",
    "Fold", "start_scan", "scan_claims", "scan_chain_terms", "CHUNK",
    "SHARED_CHUNK",
]

CHUNK = 131072          # pairs per chunk when no measure is shared
SHARED_CHUNK = 8192     # pairs per chunk when claims share measures

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
    """Sampled pairs (a, b); scalars are held as one-element arrays.

    ``b * m.eval_ctx(UContext(a / b))`` has the bits of ``m.value(a, b)``
    over the pairs and over any chunk of them: elementwise work does not
    depend on the chunking.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = np.atleast_1d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))

    @classmethod
    def draw(cls, n: int, seed) -> "Sample":
        """The n pairs of ``sample_pairs(n, seed)``."""
        return cls(*sample_pairs(n, seed))

    @property
    def size(self) -> int:
        return int(self.a.size)


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
    """Central second difference in dps-digit ``decimal``, h = 1e-5 x.

    Plain float64 differences cannot certify steep generators: the noise
    floor eps*f/(h^2 f'') passes 1e-6 at x = 1e-4 and 1e4 no matter how h
    is chosen.  Working at 40 digits leaves only the O((h/x)^2) = 1e-10
    truncation term.
    """
    xv = Decimal(x)
    with localcontext(Context(prec=dps)):
        h = xv * Decimal("1e-5")
        out = (measure.eval_mp(xv + h, dps) - 2 * measure.eval_mp(xv, dps)
               + measure.eval_mp(xv - h, dps)) / (h * h)
    return float(out)


def certify_convexity(measure) -> CheckResult:
    """Certify that a divergence generator is convex and normalized.

    Checks f(1) = 0, f'(1) = 0, and proves the exact f'' positive on all
    of x > 0 apart from x = 1 (``positive_off_one`` of the ``RatU`` or
    ``RatS`` form).  A spot check of f'' against a 40-digit ``decimal``
    central difference at ``SPOT_POINTS``, to within FD_REL_TOL * |f''| +
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


class ChunkValues:
    """Pairs of one chunk, a ``UContext`` of x = a/b and, with ``memo``,
    each f(x) kept read-only after its first evaluation.  Stateful: the
    task that owns the chunk builds it."""

    __slots__ = ("a", "b", "ctx", "_memo")

    def __init__(self, a, b, memo: bool = False):
        self.a, self.b, self.ctx = a, b, UContext(a / b)
        self._memo = {} if memo else None

    def gen(self, symbol):
        """f(x) of a catalog id or ``Measure`` at the chunk's ratios."""
        if self._memo is None:
            return _resolve(symbol).eval_ctx(self.ctx)
        val = self._memo.get(symbol)
        if val is None:
            val = self._memo[symbol] = _resolve(symbol).eval_ctx(self.ctx)
            val.flags.writeable = False
        return val


@dataclass(frozen=True)
class Ordering:
    """The claim coef_0*m_0 <= coef_1*m_1 <= ... of a chain.

    A pair's value is its worst link violation (lower - upper) relative
    to the larger term, or NaN if a link is NaN (a term that is not
    finite).  The terms stream: each is compared with the one before it
    and dropped.
    """

    terms: tuple
    tol: float

    def _links(self, chunk: ChunkValues):
        """Each link's relative violation over the chunk, in order."""
        scaled = (float(c) * chunk.gen(mid) for c, mid in self.terms)
        for (lower, abs_lower), (upper, abs_upper) in pairwise(
                (v, np.abs(v)) for v in scaled):
            # viol = (lower - upper) / max(|lower|, |upper|, 1e-300)
            scale = np.maximum(abs_lower, abs_upper)
            np.maximum(scale, 1e-300, out=scale)
            viol = np.subtract(lower, upper)
            np.divide(viol, scale, out=viol)
            yield viol

    def values(self, chunk: ChunkValues):
        worst = None
        for viol in self._links(chunk):
            # NaN propagates; on a tie (+0 against -0) np.maximum returns
            # its second operand, so the earlier link's value is kept.
            worst = viol if worst is None else np.maximum(viol, worst,
                                                          out=worst)
        return np.full(chunk.a.shape, -np.inf) if worst is None else worst

    def steps(self, chunk: ChunkValues, idx):
        """The link of each pair chunk[idx]: its first NaN link if it has
        one, else its first link equal to its value.

        Elementwise bits do not depend on the chunk, so the links are
        evaluated again on those pairs alone.
        """
        viols = np.array(list(self._links(
            ChunkValues(chunk.a[idx], chunk.b[idx]))))
        nan = np.isnan(viols)
        first_max = np.argmax(viols == viols.max(axis=0), axis=0)
        return np.where(nan.any(axis=0), np.argmax(nan, axis=0), first_max)


@dataclass
class Fold:
    """A claim's worst value (NaN if any is), the first index holding it,
    and records of the first ten pairs above its tol or NaN."""

    worst: float = float("-inf")
    index: int = 0
    records: list = field(default_factory=list)


def _chunk_fold(claim, chunk: ChunkValues, lo: int) -> Fold:
    values = claim.values(chunk)
    bad = np.nonzero(~(values <= claim.tol))[0][:10]
    steps = claim.steps(chunk, bad) if bad.size else None
    records = []
    for k, j in enumerate(bad):
        records.append({"index": lo + int(j), "a": float(chunk.a[j]),
                        "b": float(chunk.b[j])})
        if steps is not None:
            records[-1]["step"] = int(steps[k])
        records[-1]["violation"] = float(values[j])
    # max() is NaN if any value is, and argmax stops at the first NaN.
    return Fold(float(values.max()), lo + int(np.argmax(values)), records)


def start_scan(claims, sample: Sample, workers: int = 1
               ) -> Callable[[], list[Fold]]:
    """Start folding each claim over every sampled pair, in one chunked
    pass; the returned ``join()`` gives the folds.

    A claim (``Ordering`` or ``means.Equality``) has ``terms``, ``tol``,
    ``values(chunk)``: per pair a value, failing above tol or NaN, and
    ``steps(chunk, idx)``: the link index of each pair chunk[idx], or
    None.  Each chunk task builds one ``ChunkValues`` for all claims.
    If claims share a symbol, chunks hold ``SHARED_CHUNK`` pairs and
    memoize f(x); else ``CHUNK`` pairs, streamed.

    Where the pass runs follows from its input.  A shared pass with
    ``workers`` > 1, started from a process with one Python thread, is
    split into contiguous runs of whole chunks, each scanned by a child
    made by ``os.fork`` (at most one per chunk) while the caller goes
    on, so it can prove while they scan; ``join()`` reads their pickled
    folds, reaps every child and raises a child's exception again.
    Threads gain nothing there: a shared chunk makes many short numpy
    calls, and they would wait on the GIL, so a shared pass that cannot
    fork runs serially in ``join()``.  A streamed pass runs in
    ``join()`` on ``workers`` threads when > 1; its numpy calls are
    long enough to release the GIL for most of their time.
    Folds merge in index order: chunk size, worker count and path do
    not change them.
    """
    claims = list(claims)
    reads = Counter(s for c in claims for s in {sym for _, sym in c.terms})
    shared = any(k > 1 for k in reads.values())
    size = SHARED_CHUNK if shared else CHUNK

    def task(lo):
        chunk = ChunkValues(sample.a[lo:lo + size], sample.b[lo:lo + size],
                            memo=shared)
        return [_chunk_fold(claim, chunk, lo) for claim in claims]

    starts = range(0, sample.size if claims else 0, size)
    # fork() copies only the calling thread: with another Python thread
    # alive, a lock it holds would stay held in the child.  Native threads
    # (a BLAS pool, a host's C extension) are not counted here.
    if (shared and workers > 1 and hasattr(os, "fork")
            and threading.active_count() == 1):
        k = min(workers, len(starts))
        children = _fork_scans(task, [starts[i * len(starts) // k:
                                             (i + 1) * len(starts) // k]
                                      for i in range(k)])
        return lambda: _merge(len(claims), _join_children(children))

    def join():
        if workers > 1 and not shared:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return _merge(len(claims), pool.map(task, starts))
        return _merge(len(claims), map(task, starts))
    return join


def scan_claims(claims, sample: Sample, workers: int = 1) -> list[Fold]:
    """The folds of ``start_scan(claims, sample, workers)``, joined."""
    return start_scan(claims, sample, workers)()


def _merge(n: int, parts) -> list[Fold]:
    """Fold n claims' per-chunk folds, given in index order."""
    folds = [Fold() for _ in range(n)]
    for part in parts:
        for fold, new in zip(folds, part):
            if not np.isnan(fold.worst) and (new.worst > fold.worst
                                             or np.isnan(new.worst)):
                fold.worst, fold.index = new.worst, new.index
            fold.records += new.records[:10 - len(fold.records)]
    return folds


def _fork_scans(task, runs) -> list[tuple[int, int]]:
    """``_fork_scan`` for each run of starts; if a fork or pipe fails,
    the children already made are reaped before the error propagates."""
    children = []
    try:
        for starts in runs:
            children.append(_fork_scan(task, starts))
    except BaseException:
        for pid, fd in children:
            os.close(fd)        # a child still writing gets EPIPE and ends
            os.waitpid(pid, 0)
        raise
    return children


def _fork_scan(task, starts) -> tuple[int, int]:
    """Fork a child that pickles ``[task(lo) for lo in starts]``, or the
    exception it raised, into a pipe; return (pid, read end).

    The child always leaves through ``os._exit``: it never returns into
    the caller's stack, and exit handlers and buffered output stay the
    parent's.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            result = (True, [task(lo) for lo in starts])
        except BaseException as exc:    # handed to the parent to raise
            result = (False, exc)
        try:
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            if not result[0]:
                pickle.loads(data)      # as the parent will read it
        except Exception:               # an exception that does not pickle
            exc = result[1]
            data = pickle.dumps(
                (False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _join_children(children) -> list:
    """The children's per-chunk folds in start order, every child reaped.

    A child's exception is raised again here; a child that ended without
    a result raises ``RuntimeError``.
    """
    results = []
    try:
        for _, fd in children:
            with open(fd, "rb", closefd=False) as fh:
                results.append(fh.read())
    finally:
        for _, fd in children:
            os.close(fd)        # a child still writing gets EPIPE and ends
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    parts = []
    for (pid, _), data, status in zip(children, results, statuses):
        if not data:
            raise RuntimeError(
                f"scan worker {pid} ended without a result (exit code "
                f"{os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        parts += value
    return parts


def scan_chain_terms(terms, sample: Sample, tol: float, workers: int = 1):
    """(max violation, first ten counterexamples) of a one-claim
    ``scan_claims`` of coef_0*m_0 <= coef_1*m_1 <= ... over the sample."""
    fold, = scan_claims([Ordering(tuple(terms), tol)], sample, workers)
    return fold.worst, fold.records

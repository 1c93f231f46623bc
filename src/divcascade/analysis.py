"""Numerical certification machinery: the sampled pass.

The sampled pass checks the float evaluators against the orderings and
identities that ``cascade`` proves, and a grid estimate gives the
sup-ratio behind each sharp inequality constant (the audit proves those
constants exactly instead).  ``certify_convexity`` is ``cascade``'s,
named here too: its spot check evaluates f'' one scalar at a time and
loads no numpy, so an audit's prover certifies convexity.

Everything here is deterministic given the seed: a run makes one
``Sample``, n pairs and the seed of their PCG64 stream, and
``start_scan`` evaluates all its claims in one pass over fixed chunks
of it.  ``workers`` is the number of processes that scan:
``scan_claims`` scans the first run of chunks itself and hands each
other run to a scan helper, and ``start_scan`` hands every run to one,
so that its caller may go on working, or, as an audit's parent does,
hold none of a scan's memory.  Only a drawn sample is split so: given
pairs scan in the calling process, whatever ``workers`` is.  Each
chunk's pairs are drawn, by advancing the stream straight to them, in
the process that scans the chunk.  A run folds its chunks into one
fold per claim, and the runs' folds merge in index order, the same
whatever the chunk size, worker count, or where the chunks ran.  A fold
records each failing pair's index, a, b and value; the link of a chain
it broke is named from the pair by ``cascade.named_links``.

A scan helper is one of ``pool``'s forked helpers.  Each run it scans
comes as the request (``_scan_run``, (claims, sample, chunk starts))
through its pipe, so a sweep of scans forks once; an idle helper, and
the registers it holds, stay until the process exits.  In an audit at
more than one worker, the scan helpers scan the sampled pass, then one
of them the negative control's 100 pairs (``audit._control_scan``); the
prover, forked before numpy loads, proves and certifies; and the parent
only starts the scan, joins it, collects and assembles.

The float work of a run is one straight-line program, compiled from
its claims by the process that scans the run, by running the claims'
own evaluators on values that record each ufunc call (``_Program``): no
compiled program crosses a pipe, and a caller whose helpers scan every
run compiles none.  Its steps run in place on a fixed set of
chunk-sized registers, numbered by linear scan over each value's live
range.  Each thread keeps its registers from one scan to the next
(``_Kept``) and runs every chunk on them, a short one on their leading
slices: a sweep of passes neither gives its memory back to the system
after each chunk or scan nor holds every measure's values at once.
The generators share x, u, um1, each power um1^m, S and each measure's
f(x) across the claims; the same ufuncs run on the same operands in the
same order as on plain arrays, so no value changes by a bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random      # here, not once per forked scan worker

from . import catalog, pool
from .cascade import certify_convexity
from .ratfun import RatU, UContext

__all__ = [
    "default_grid", "sample_pairs", "Sample", "certify_convexity",
    "estimate_sup_ratio", "Ordering", "Equality", "Fold",
    "start_scan", "scan_claims", "scan_chain_terms", "claim_gaps", "CHUNK",
]

CHUNK = 16384           # pairs per chunk of a sampled pass


def default_grid() -> np.ndarray:
    """2001 log-spaced points on [1e-4, 1e4] plus 201 on [0.999, 1.001]."""
    coarse = np.logspace(-4.0, 4.0, 2001)
    band = np.linspace(0.999, 1.001, 201)
    return np.unique(np.concatenate([coarse, band]))


def sample_pairs(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n positive pairs per the audit sampling policy.

    90% have a and b independently log-uniform in [1e-6, 1e6]; 10% sit in
    a near-diagonal band b = a(1 + delta), |delta| <= 1e-3, where
    cancellation would hide violations from a naive evaluator.  These
    are the pairs ``Sample.draw(n, seed).pairs(0, n)``.
    """
    return Sample.draw(n, seed).pairs(0, n)


def _draw(n: int, seed: np.random.SeedSequence, lo: int, hi: int, a, b):
    """Pairs [lo, hi) of the n that ``seed`` draws, 0 <= lo <= hi <= n,
    written into a and b, float arrays of hi - lo elements.

    With n_near = n // 10 and n_main = n - n_near, the PCG64 stream of
    ``seed`` holds, one uniform double per 64-bit output, the exponents
    of a_main at positions [0, n_main) and of b_main at [n_main,
    2 n_main), then those of a_near and the deltas, n_near each.  The
    pairs [0, n_main) are (a_main, b_main) and the rest are
    (a_near, a_near (1 + delta)).  ``advance`` jumps straight to each
    run the range needs, in O(log n) steps, so a range has the bits it
    has in the whole sample.  Every step works in place, in a and b; the
    powers 10^e take their base from the kept array ``_Kept.tens``,
    which gives the bits of a scalar base 10.0.
    """
    n_near = n // 10
    n_main = n - n_near
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    at = 0

    def uniform(low, high, start, out):
        nonlocal at
        if out.size:
            bits.advance(start - at)
            at = start + out.size
        _uniform(rng, low, high, out)

    m_lo, m_hi = min(lo, n_main), min(hi, n_main)
    j_lo = max(lo, n_main) - n_main
    k = m_hi - m_lo             # a[:k], b[:k] are main pairs, the rest near
    uniform(-6.0, 6.0, m_lo, a[:k])
    uniform(-6.0, 6.0, n_main + m_lo, b[:k])
    uniform(-6.0, 6.0, 2 * n_main + j_lo, a[k:])
    uniform(-1e-3, 1e-3, 2 * n_main + n_near + j_lo, b[k:])
    tens = _kept.tens(hi - lo)
    for e in (a, b[:k]):        # 10^e, tens.size exponents at a time
        for i in range(0, e.size, tens.size):
            part = e[i:i + tens.size]
            np.power(tens[:part.size], part, out=part)
    near = b[k:]
    near += 1.0
    near *= a[k:]
    return a, b


def _uniform(rng: np.random.Generator, low: float, high: float, out):
    """``rng.uniform(low, high, out.size)``, drawn into out: the doubles
    r of ``rng.random`` mapped in place to low + (high - low) r, as
    ``Generator.uniform`` maps them."""
    rng.random(out=out)
    out *= high - low
    out += low
    return out


class Sample:
    """Sampled pairs (a, b): given ones, or a recipe that draws them.

    ``Sample(a, b)`` holds the pairs given, scalars as one-element
    arrays; a and b that are not 1-d and of one length are a
    ``ValueError``.  A scan of given pairs runs in the calling process.
    ``Sample.draw(n, seed)`` holds only n and its seed, and
    ``pairs(lo, hi)`` draws exactly the pairs [lo, hi) when asked, so
    the recipe is all a scan helper is sent, each chunk is drawn in the
    process that scans it, and no process holds the whole sample.
    ``size`` is the number of pairs.

    ``b * m.eval_ctx(UContext(a / b))`` has the bits of ``m.value(a, b)``
    over the pairs and over any chunk of them: elementwise work does not
    depend on the chunking.
    """

    __slots__ = ("size", "_ab", "_seed")

    def __init__(self, a, b):
        a, b = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b))
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("a and b must pair up, as 1-d arrays of one "
                             f"length, not of shapes {a.shape} and {b.shape}")
        self._ab = (a, b)
        self.size = int(a.size)
        self._seed = None

    @classmethod
    def draw(cls, n: int, seed) -> "Sample":
        """The n pairs of the sampling policy (see ``sample_pairs``),
        drawn when asked from the stream of ``seed``.

        ``n`` is an integer >= 0, and ``seed`` one too, or None for fresh
        entropy, taken once here so that every range of the sample comes
        from one stream.  A
        ``numpy.random.Generator`` is refused: ranges are drawn in any
        order and in any process, and a generator's state moves as it is
        read.  Any other n or ``seed``, a bool included, is a
        ``ValueError``.
        """
        n = catalog.index("n", n, 0)
        if seed is not None:
            seed = catalog.seed(seed)
        self = cls.__new__(cls)
        self.size, self._ab = n, None
        self._seed = np.random.SeedSequence(seed)
        return self

    def pairs(self, lo: int = 0, hi: int | None = None, *, _out=None):
        """The pairs [lo, hi) as arrays (a, b); lo and hi are read as
        the bounds of a slice.  A scan passes ``_out``, its registers for
        a and b, float arrays of the range's size, and gets them filled."""
        lo, hi, _ = slice(lo, hi).indices(self.size)
        hi = max(lo, hi)
        if self._ab is None:
            a, b = _out or (np.empty(hi - lo), np.empty(hi - lo))
            return _draw(self.size, self._seed, lo, hi, a, b)
        a, b = (v[lo:hi] for v in self._ab)
        if _out is None:
            return a, b
        np.copyto(_out[0], a)
        np.copyto(_out[1], b)
        return _out[0], _out[1]


def _fpp_ratu(measure) -> RatU:
    """The exact f'' of a measure, or a ``RatU`` taken as given."""
    if isinstance(measure, RatU):
        return measure
    m = catalog.get(measure)
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


class _Shared(UContext):
    """The ``UContext`` of pairs' ratios x = a/b that claims read their
    terms from: ``gen`` evaluates each measure's f(x) once."""

    __slots__ = ("_gens",)

    def __init__(self, x):
        super().__init__(x)
        self._gens = {}

    def gen(self, symbol):
        """f(x) of a catalog id or ``Measure``, evaluated on first
        request and then reused."""
        val = self._gens.get(symbol)
        if val is None:
            val = self._gens[symbol] = catalog.get(symbol).eval_ctx(self)
        return val


def _pairs(terms) -> tuple:
    """terms as a tuple of (coef, symbol) tuples, so that a claim built
    from lists is the value, and has the hash, of one built from
    tuples."""
    return tuple((c, symbol) for c, symbol in terms)


def _term(c, values):
    """c * f(x); f(x) itself for c = 1, as 1.0 * v is v bit for bit."""
    return values if c == 1 else float(c) * values


@dataclass(frozen=True)
class Ordering:
    """The claim coef_0*m_0 <= coef_1*m_1 <= ... of a chain, of at
    least two terms (fewer is a ``ValueError``, as for ``cascade.Chain``).

    A pair's value is its worst link violation (lower - upper) relative
    to the larger term, or NaN if a link is NaN (a term that is not
    finite).  The terms stream: each is compared with the one before it
    and dropped.  A pair fails above ``tol``, a finite real number (a
    negative one included), kept as a float; any other tol is a
    ``ValueError``, as it is for ``Equality``.  The terms are kept as a
    tuple of (coef, symbol) tuples, so a claim is a hashable value.
    """

    terms: tuple
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "terms", _pairs(self.terms))
        if len(self.terms) < 2:
            raise ValueError("an ordering needs at least two terms")
        object.__setattr__(self, "tol", catalog.finite("tol", self.tol))

    def _links(self, ctx: _Shared):
        """Each link's relative violation over the pairs, in order."""
        lower = abs_lower = None
        for c, symbol in self.terms:
            upper = _term(c, ctx.gen(symbol))
            abs_upper = np.abs(upper)
            if lower is not None:
                # (lower - upper) / max(|lower|, |upper|, 1e-300)
                scale = np.maximum(np.maximum(abs_lower, abs_upper), 1e-300)
                yield (lower - upper) / scale
            lower, abs_lower = upper, abs_upper

    def values(self, ctx: _Shared):
        worst = None
        for viol in self._links(ctx):
            # NaN propagates; on a tie (+0 against -0) np.maximum returns
            # its second operand, so the earlier link's value is kept.
            worst = viol if worst is None else np.maximum(viol, worst)
        return worst

    def steps(self, a, b):
        """The link index of each pair (a, b): its first NaN link, else its
        first link at its value.  Elementwise bits do not depend on the
        chunk, so on a scan's recorded pairs it is the link the scan saw."""
        ctx = _Shared(np.divide(*Sample(a, b).pairs()))
        viols = np.array(list(self._links(ctx)))
        nan = np.isnan(viols)
        first_max = np.argmax(viols == viols.max(axis=0), axis=0)
        return np.where(nan.any(axis=0), np.argmax(nan, axis=0), first_max)


@dataclass(frozen=True)
class Equality:
    """The claim sum(c * s for c, s in lhs) == the same over rhs.

    A pair's value is |L - R| / max(|L|, |R|, |t_1|, ..., |t_n|, 1e-300)
    with t_i = c_i * f_i(x) and L, R the left-to-right sums of each
    side.  Combinations like Psi - 4K + 4Delta cancel to a much higher
    diagonal order than their terms, so the residual is measured against
    the largest term as well.  Every symbol, a mean letter included, is
    its f(x), evaluated once for all claims.  Each measure is
    b * f(a/b), so the gap is a function of x = a/b alone, whatever the
    pair's magnitude, and the 1e-300 floor applies to f(x), not to
    b * f(x).  Each side is kept as a tuple of (coef, symbol) tuples, as
    an ``Ordering``'s terms are.
    """

    lhs: tuple
    rhs: tuple
    tol: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lhs", _pairs(self.lhs))
        object.__setattr__(self, "rhs", _pairs(self.rhs))
        object.__setattr__(self, "tol", catalog.finite("tol", self.tol))

    @property
    def terms(self) -> tuple:
        return (*self.lhs, *self.rhs)

    def values(self, ctx: _Shared):
        # The scale starts from the first |t| and meets its floor once,
        # at the end: a maximum is exact, so the order it is taken in
        # leaves the gap's bits.
        scale = None
        sums = []
        for terms in (self.lhs, self.rhs):
            total = None
            for c, symbol in terms:
                t = _term(c, ctx.gen(symbol))
                scale = (np.abs(t) if scale is None
                         else np.maximum(scale, np.abs(t)))
                total = t if total is None else total + t
            if len(terms) > 1:  # a lone term's |total| is in scale already
                scale = np.maximum(scale, np.abs(total))
            sums.append(total)
        return np.abs(sums[0] - sums[1]) / np.maximum(scale, 1e-300)


def claim_gaps(claims, sample: Sample) -> list:
    """Each claim's ``values`` at every pair, each measure evaluated
    once for all claims."""
    ctx = _Shared(np.divide(*sample.pairs()))
    return [claim.values(ctx) for claim in claims]


def _binary(ufunc, reflected=False):
    if reflected:
        return lambda self, other: self.program.step(ufunc, (other, self))
    return lambda self, other: self.program.step(ufunc, (self, other))


class _Value:
    """A chunk-sized value of a scan program while it is compiled.

    Each numpy ufunc call or arithmetic operator with it as an operand
    records a step of its program and gives the step's value, a new
    ``_Value``: an augmented operator or ``out=`` never writes into one,
    and each value has one step that makes it, op(left, right) or
    op(left) (a and b none).
    """

    __slots__ = ("program", "op", "left", "right", "last", "reg")
    ndim = 1

    def __init__(self, program: "_Program", op=None, left=None, right=None):
        self.program, self.op, self.left, self.right = program, op, left, right
        self.last = None

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs.keys() - {"out"}:
            return NotImplemented
        return self.program.step(ufunc, args)

    __add__ = __iadd__ = _binary(np.add)
    __radd__ = _binary(np.add, reflected=True)
    __sub__ = __isub__ = _binary(np.subtract)
    __rsub__ = _binary(np.subtract, reflected=True)
    __mul__ = __imul__ = _binary(np.multiply)
    __rmul__ = _binary(np.multiply, reflected=True)
    __truediv__ = __itruediv__ = _binary(np.divide)
    __rtruediv__ = _binary(np.divide, reflected=True)


class _Program:
    """The float work of a scan run's claims as one straight-line
    program, compiled by the process that scans the run (``_scan_run``).

    The claims' own ``values`` run once, in ``_schedule``'s order, on an
    x = a/b of ``_Value``s, which record each ufunc call as a step.  A
    step equal to an earlier one of the same claim merges into it;
    across claims only the context's values are shared (x, u, um1, each
    um1^m, S and each f(x)).  ``_allocate`` numbers the values'
    registers, 0 and 1 holding a and b.  Compiling is deterministic: the
    same claims give the same program in every process.  ``segments``
    lists each claim's index, its steps as (ufunc, out register,
    *operands: registers or floats) and the register its fold reads,
    and ``registers`` is how many registers the program needs.
    """

    __slots__ = ("segments", "registers", "_events", "_merged")

    def __init__(self, claims):
        a, b = _Value(self), _Value(self)
        a.reg, b.reg, a.last, b.last = 0, 1, math.inf, math.inf
        self._events, self._merged = [], {}
        ctx = _Shared(a / b)
        for i in _schedule(claims):
            self._merged = {}
            self._events.append((claims[i].values(ctx), i))    # its fold
        # Only the list holds the values now, so each goes once the
        # allocator has passed its last reader.
        events, ctx = self._events, None
        self._events = self._merged = a.program = b.program = None
        self.segments, self.registers = _allocate(events)

    def step(self, op, args) -> _Value:
        """The value of op(*args), recorded as a step unless the claim
        being compiled has made it already (a zero's sign tells)."""
        key = (op, *args) if 0.0 not in args else (op, *map(repr, args))
        val = self._merged.get(key)
        if val is None:
            val = self._merged[key] = _Value(self, op, *args)
            self._events.append(val)
        return val


def _allocate(events) -> tuple[list, int]:
    """The segments and register count of recorded events: each step's
    ``_Value`` and each claim's fold, (values, claim index).

    Backward, each value's last read, by a step or a fold, is found, and
    a step whose value nothing reads is dropped.  Forward, by linear
    scan (Poletto and Sarkar 1999), a step writes into the register of
    an operand that dies at it, else a free one, else a new one; a value
    that dies frees its register.  Each event leaves the list once
    passed, so the values go as the steps that replace them are made.
    """
    for t in range(len(events) - 1, -1, -1):
        val = events[t]
        if type(val) is tuple:
            reads = val[:1]
        elif val.last is not None:
            reads = val.left, val.right
        else:
            continue
        for v in reads:
            if type(v) is _Value and v.last is None:
                v.last = t
    segments, steps, free, registers = [], [], [], 2
    for t, val in enumerate(events):
        events[t] = None
        if type(val) is tuple:
            val, i = val
            segments.append((i, steps, val.reg))
            steps = []
            if val.last == t:
                free.append(val.reg)
        elif val.last is not None:
            reg = None
            for v in (val.left, val.right):     # operands that die here
                if type(v) is _Value and v.last == t and v.reg != reg:
                    if reg is None:
                        reg = v.reg
                    else:
                        free.append(v.reg)
            if reg is None:
                if free:
                    reg = free.pop()
                else:
                    reg, registers = registers, registers + 1
            val.reg = reg
            # Spelt out, with no generator, as it runs once per step.
            left, right = val.left, val.right
            step = (val.op, reg,
                    left.reg if type(left) is _Value else float(left))
            if right is not None:
                step += (right.reg if type(right) is _Value else float(right),)
            steps.append(step)
    return segments, registers


def _bind(program: _Program, regs: list):
    """((a, b), segments) of the program on the arrays regs: each
    segment (claim index, steps (ufunc, out, operands), values) with its
    registers as arrays."""
    def arg(v):
        return regs[v] if type(v) is int else v
    return regs[:2], [
        (i, [(op, regs[out], tuple(map(arg, args)))
             for op, out, *args in steps], regs[values])
        for i, steps, values in program.segments]


class _Kept(threading.local):
    """What a thread keeps for its scans from one to the next.

    ``registers(size, count)`` gives ``count`` registers of ``size``
    elements, for every chunk, a short one on their leading slices: the
    list grows to the largest program the thread has run, and a new
    chunk size drops it.  ``tens(n)`` is a read-only array of 10.0, at
    least n long up to ``CHUNK``, the base of ``_draw``'s powers:
    numpy's pow of two arrays runs faster than with a scalar base, to
    the same bits, and a kept array takes its page faults once.  Each
    thread has its own, so scans in two threads never share a register.
    """

    def __init__(self):
        self._registers, self._tens = [], None

    def registers(self, size: int, count: int) -> list:
        if self._registers and self._registers[0].size != size:
            self._registers = []
        self._registers += [np.empty(size)
                            for _ in range(count - len(self._registers))]
        return self._registers

    def tens(self, n: int) -> np.ndarray:
        n = min(max(n, 1), CHUNK)
        if self._tens is None or self._tens.size < n:
            self._tens = np.full(n, 10.0)
            self._tens.flags.writeable = False
        return self._tens


_kept = _Kept()


@dataclass
class Fold:
    """A claim's worst value (NaN if any is), the first index holding it,
    and records of the first ten pairs above its tol or NaN."""

    worst: float = float("-inf")
    index: int = 0
    records: list = field(default_factory=list)

    def absorb(self, later: "Fold") -> None:
        """Fold in the fold of later pairs: its worst replaces this one
        if strictly greater, or NaN where this one is not, so the first
        index of the worst value (or of the first NaN) is kept; records
        fill up to ten.  So folding is associative."""
        if not (np.isnan(self.worst) or later.worst <= self.worst):
            self.worst, self.index = later.worst, later.index
        self.records += later.records[:10 - len(self.records)]


def _chunk_fold(tol: float, values, a, b, lo: int) -> Fold:
    # max() is NaN if any value is, and argmax stops at the first NaN.
    fold = Fold(float(values.max()), lo + int(np.argmax(values)))
    if not fold.worst <= tol:       # some pair is above tol or NaN
        for j in np.nonzero(~(values <= tol))[0][:10]:
            fold.records.append({"index": lo + int(j), "a": float(a[j]),
                                 "b": float(b[j]),
                                 "violation": float(values[j])})
    return fold


def start_scan(claims, sample: Sample, workers: int = 1, *,
               _caller_scans: bool = False) -> Callable[[], list[Fold]]:
    """Start folding each claim over every sampled pair, in one chunked
    pass; the returned ``join()`` gives the folds.

    A claim (``Ordering`` or ``Equality``) has ``terms``, ``tol`` and
    ``values(ctx)``: per pair a value, failing above tol or NaN, from
    the measures' values ``ctx.gen(symbol)``.  Every symbol is resolved
    here, before any request is sent, so an unknown measure is refused
    by this call.  The pass is split into runs of chunks, and each is a
    ``pool`` request, (``_scan_run``, (claims, sample, starts)): the
    process that scans a run compiles the claims into one straight-line
    program (``_Program``), so a measure several claims read is
    evaluated once per chunk.  Each chunk draws its ``CHUNK`` pairs, or
    fewer, into registers 0 and 1, runs every step in place and folds
    each claim from its values' register, on the scanning thread's
    registers, kept from scan to scan (``_Kept``).  The order of the
    claims is ``_schedule``'s; folds are kept by claim index, so it does
    not show.

    ``workers``, the number of processes that scan, is an integer >= 1,
    or a ``ValueError``.  With a drawn sample, where ``pool._can_fork``
    (``workers`` > 1, ``os.fork`` and one Python thread), the pass is
    split into contiguous runs of whole chunks, at most one run per
    chunk, each sent through its pipe to one of this process's helpers
    (``pool._lease``) while the caller goes on with other work, and
    compiles nothing.  Claims sent to a helper must pickle; one that
    does not is refused here, with no helper left.  ``join()`` reads
    each run's folds and raises a helper's exception again.
    Otherwise, and always for given pairs, the pass runs serially in
    ``join()``.  ``scan_claims``, whose caller only waits, passes
    ``_caller_scans``: the first run is then scanned in ``join()``, not
    by a helper.  An exception while ``join()`` runs, in its own run or
    in a helper, reaps the scan's helpers before it propagates.  Folds
    merge in index order: chunk size, worker count and path do not
    change them.
    """
    claims, workers = tuple(claims), catalog.count("workers", workers)
    for claim in claims:        # an unknown measure is refused here
        for _, symbol in claim.terms:
            catalog.get(symbol)
    starts = range(0, sample.size if claims else 0, CHUNK)
    runs, here = [starts], 1    # the first `here` runs scan in join()
    if sample._ab is None and pool._can_fork(workers):
        k = min(workers, len(starts))
        runs = [starts[i * len(starts) // k:(i + 1) * len(starts) // k]
                for i in range(k)]
        here = int(_caller_scans)
    requests = [(_scan_run, (claims, sample, run)) for run in runs]
    helpers, own = pool._lease(requests[here:]), requests[:here]

    def join():
        try:
            parts = ([run(argument) for run, argument in own]
                     + pool._collect(helpers))
        except BaseException:
            pool._reap(helpers)
            raise
        return _merge(len(claims), parts)
    return join


def _scan_run(request) -> list[Fold]:
    """Each claim's fold over a run of chunks, the chunks' folds
    absorbed in start order.  ``request`` is (claims, sample, starts):
    the claims, with their tols, the sample and the run's chunk starts,
    whose step is the chunk size.  The claims are compiled here, once
    per run, in the process that scans it.  Full chunks run on the
    thread's kept registers, bound once per run, and a short last chunk
    on their leading slices.
    """
    claims, sample, starts = request
    program = _Program(claims)
    size, folds, full = starts.step, [Fold() for _ in claims], None
    for lo in starts:
        n = min(size, sample.size - lo)
        regs = _kept.registers(size, program.registers)
        if n < size:
            bound = _bind(program, [r[:n] for r in regs])
        else:
            bound = full = full or _bind(program, regs)
        (a, b), segments = bound
        sample.pairs(lo, lo + n, _out=(a, b))
        for i, steps, values in segments:
            for op, out, args in steps:
                op(*args, out=out)
            folds[i].absorb(_chunk_fold(claims[i].tol, values, a, b, lo))
    return folds


def _schedule(claims) -> list[int]:
    """The order in which the program takes the claims: sorted (stably)
    by the smallest catalog id among their terms, which brings claims on
    one family's measures together, so each f(x) dies soon after it is
    made: the default audit's 194 claims need 59 registers in this
    order, against 108 in the given one.
    """
    return sorted(range(len(claims)), key=lambda i: min(
        (getattr(symbol, "id", symbol) for _, symbol in claims[i].terms),
        default=""))


def scan_claims(claims, sample: Sample, workers: int = 1) -> list[Fold]:
    """The folds of ``start_scan(claims, sample, workers)``, for a caller
    that waits for them and so scans too: over a drawn sample it leases
    a helper for each run of chunks but the first, at most ``workers`` -
    1, sends each its request, then scans the first run itself, and
    merges its run's folds with the helpers'; given pairs it scans
    alone.  An exception in its own run is raised once the scan's
    helpers are reaped."""
    return start_scan(claims, sample, workers, _caller_scans=True)()


def _merge(n: int, parts) -> list[Fold]:
    """Fold n claims' per-run folds, given in index order."""
    folds = [Fold() for _ in range(n)]
    for part in parts:
        for fold, new in zip(folds, part):
            fold.absorb(new)
    return folds


def scan_chain_terms(terms, sample: Sample, tol: float, workers: int = 1):
    """(max violation, first ten counterexamples) of a one-claim
    ``scan_claims`` of coef_0*m_0 <= coef_1*m_1 <= ... over the sample."""
    fold, = scan_claims([Ordering(terms, tol)], sample, workers)
    return fold.worst, fold.records

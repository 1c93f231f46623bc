"""In-memory span recorder for the traced benchmark runs.

The program is not edited: ``install`` replaces the module and class
attributes that the program calls through with wrappers that record one
span per call (name, start, end, parent span, thread).  Spans stay in
flat arrays until the run ends; ``summary`` then derives each name's call
count, inclusive time and self time, where a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

# Names of the RatU members whose calls count as exact-algebra operations.
RATU_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
            "__neg__", "d2x", "is_zero")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("q")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.useful: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.main_thread = threading.get_native_id()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, note=None):
        """Replace owner.attr by a recording wrapper.

        ``note(args)`` may return the number of pairs a call evaluates;
        it is stored as the span's size.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        local, lock = self._local, self._lock
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            size = note(args) if note is not None else 0
            with lock:
                idx = len(spans.start)
                spans.name.append(nid)
                spans.parent.append(stack[-1] if stack else -1)
                spans.thread.append(threading.get_native_id())
                spans.size.append(size)
                spans.start.append(time.perf_counter())
                spans.end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[idx] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, wall_s: float) -> dict:
        """Per-name totals plus the self-time accounting check.

        ``wall_s`` is the traced wall time of the main thread.  The sum of
        main-thread self times plus the wall time no root span covers must
        give back ``wall_s``.
        """
        s = self.arrays()
        dur = s["end"] - s["start"]
        parent = s["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        count = np.bincount(s["name"], minlength=k)
        total = np.bincount(s["name"], weights=dur, minlength=k)
        self_sum = np.bincount(s["name"], weights=self_time, minlength=k)
        size = np.bincount(s["name"], weights=s["size"], minlength=k)
        main = s["thread"] == self.main_thread
        roots = main & ~has_parent
        uncovered = wall_s - float(dur[roots].sum())
        accounted = float(self_time[main].sum()) + uncovered
        return {
            "spans": int(dur.size),
            "wall_s": wall_s,
            "uncovered_s": uncovered,
            "accounted_s": accounted,
            "min_self_s": float(self_time.min()) if dur.size else 0.0,
            "useful_pairs": int(sum(key[1] for key in self.useful)),
            "names": {
                self.names[i]: {"count": int(count[i]),
                                "total_s": float(total[i]),
                                "self_s": float(self_sum[i]),
                                "size": int(size[i])}
                for i in range(k)
            },
        }


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points with spans."""
    from divcascade import (analysis, audit, cascade, catalog, cli,
                            distributions, ratfun)

    def measured_pairs(args):
        # Measure.__call__(self, x): the measure evaluated on the array x.
        # Identical arrays recur across checks and chains; the first and
        # last entries with the size identify them.
        m, x = args[0], args[1]
        n = int(getattr(x, "size", 1))
        if n > 1:
            tracer.useful.add((m.id, n, float(x.flat[0]), float(x.flat[-1])))
        return n

    for attr in ("certify_convexity", "estimate_sup_ratio", "sample_pairs"):
        tracer.wrap(analysis, attr, f"analysis.{attr}")
    tracer.wrap(analysis, "scan_chain_terms", "analysis.scan_chain_terms",
                note=lambda args: int(args[1].size))
    for attr in ("audit_chain", "residual_identity_exact", "combo_line_exact"):
        tracer.wrap(cascade, attr, f"cascade.{attr}")
    tracer.wrap(catalog.Measure, "value", "catalog.Measure.value",
                note=lambda args: int(getattr(args[1], "size", 1)))
    tracer.wrap(catalog.Measure, "__call__", "catalog.Measure.__call__",
                note=measured_pairs)
    tracer.wrap(catalog.Measure, "eval_mp", "catalog.Measure.eval_mp")
    tracer.wrap(catalog, "try_get", "catalog.try_get")
    for attr in RATU_OPS:
        tracer.wrap(ratfun.RatU, attr, f"ratfun.RatU.{attr}")
    for attr in ("load_distribution", "validate", "divergence"):
        tracer.wrap(distributions, attr, f"distributions.{attr}")
    for attr in ("main", "cmd_compute", "cmd_list", "cmd_audit"):
        tracer.wrap(cli, attr, f"cli.{attr}")
    tracer.wrap(audit, "run_audit", "audit.run_audit")

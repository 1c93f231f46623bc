#!/usr/bin/env python3
"""Layered benchmark for divcascade.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-default --seed 1 \\
        --seconds 15 --trace 0

Workloads (each a closed loop with one client):

  audit-default  one op = a fresh ``divcascade audit --seed S --report F``
                 at the defaults (1e5 samples, all chains, 1 worker)
  scan-1e6       one op = a sweep of ``cascade.audit_chain`` over all 26
                 chains at 1e6 pairs and 2 workers, in one process
  cli-compute    one op = a fresh ``divcascade compute`` / ``list`` run
                 from a seeded mix; references are computed independently
  all            every workload in turn, with one combined result line

The program is launched as ``PYTHONPATH=src python -m divcascade.cli``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
Every result is also written, stamped with the environment, under
``.perfbench_out/`` in the checkout.  The exit code is non-zero when any
known-answer check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from typing import NamedTuple

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PY = sys.executable
LAUNCH = "PYTHONPATH=src python -m divcascade.cli"

SETUP_REPEATS = 7
OP_TIMEOUT_S = 150.0
NEGATIVE_CONTROL = "negative-control:W2<=W1"
SCAN_TOL = 1e-12
# A compute value matches its reference within this relative error (the
# float path's worst in-window error is about 5e-13); below the smallest
# normal double the comparison is absolute.
REL_TOL = 1e-10
ABS_FLOOR = 2.2250738585072014e-308
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
EVAL_METRICS = {"delta": "ratfun.eval_ns.delta", "V10": "ratfun.eval_ns.V10",
                "U15": "ratfun.eval_ns.U15", "Mnew:4": "ratfun.eval_ns.Mnew-4",
                "Hgen:64": "ratfun.eval_ns.Hgen-64",
                "D_SN": "catalog.eval_ns.D_SN"}
FAMILIES = {"Delta1": (0, 64), "Delta2": (0, 64), "K1": (0, 64),
            "K2": (0, 64), "Hgen": (0, 64), "Mnew": (0, 64), "Lt": (-8, 8)}


def _metric_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _lines(name: str) -> list[str]:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Processes.

class Child(NamedTuple):
    """Exit code, wall time, peak RSS and output of one finished process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Run:
    """Scratch directory and bookkeeping for one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
        self.problems: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def out_path(self, name: str) -> str:
        return os.path.join(OUT_DIR, f"{self.workload}-seed{self.seed}-{name}")

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def launch(self, argv: list[str], timeout: float = OP_TIMEOUT_S,
               importtime: bool = False) -> Child:
        """Run argv to completion; its own peak RSS comes from wait4."""
        env = dict(os.environ, PYTHONPATH=SRC)
        if importtime:
            argv = [argv[0], "-X", "importtime"] + argv[1:]
        fd_out, out_name = tempfile.mkstemp(dir=self.tmp, suffix=".out")
        fd_err, err_name = tempfile.mkstemp(dir=self.tmp, suffix=".err")
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=fd_out, stderr=fd_err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            os.close(fd_out)
            os.close(fd_err)
        with open(out_name, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_name, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        os.unlink(out_name)
        os.unlink(err_name)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     stdout, stderr)

    def worker(self, task: str, *args: str, importtime: bool = False):
        """Run a worker task; returns (Child, its JSON document or None)."""
        out = self.path(f"{task}-{time.perf_counter_ns()}.json")
        child = self.launch([PY, os.path.join(HERE, "worker.py"), task,
                             "--out", out, *args], importtime=importtime)
        doc = None
        if child.code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        self.check(doc is not None,
                   f"worker {task} exited {child.code}: "
                   f"{child.stderr.strip()[-400:]}")
        return child, doc

    def cli(self, *args: str) -> Child:
        return self.launch([PY, "-m", "divcascade.cli", *args])


def setup_seconds(run: Run) -> float:
    """Median time from a fresh interpreter to ``import divcascade`` done."""
    walls = []
    for _ in range(SETUP_REPEATS):
        child = run.launch([PY, "-c", "import divcascade"])
        run.check(child.code == 0, "import divcascade failed: "
                  + child.stderr.strip()[-400:])
        walls.append(child.wall_s)
    return statistics.median(walls)


def closed_loop(run: Run, ops, do_op) -> list:
    """Issue ops one after another until the run's seconds have passed."""
    results = []
    deadline = time.perf_counter() + run.seconds
    for op in ops:
        results.append(do_op(op))
        if time.perf_counter() >= deadline:
            break
    return results


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile, 0 <= q <= 1."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def op_metrics(walls_s, rss_mb, ok: int, attempted: int, setup: float):
    return {"setup_s": setup,
            "op_p50_ms": percentile(walls_s, 0.5) * 1e3,
            "op_p90_ms": percentile(walls_s, 0.9) * 1e3,
            "peak_rss_mb": max(rss_mb),
            "ok_ops_frac": ok / attempted}


def import_ms(stderr: str, module: str = "divcascade.catalog") -> float:
    """Cumulative import time of a module from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) / 1e3
    return 0.0


def _name(summary, name, key="total_s"):
    return summary["names"].get(name, {}).get(key, 0)


def layer_metrics(summary: dict) -> dict:
    """Per-layer numbers that every traced run derives from its spans."""
    ratu = sum(v["count"] for k, v in summary["names"].items()
               if k.startswith("ratfun.RatU."))
    eval_pairs = _name(summary, "catalog.Measure.__call__", "size")
    scan_s = _name(summary, "analysis.scan_chain_terms")
    scan_pairs = _name(summary, "analysis.scan_chain_terms", "size")
    return {
        "analysis.convexity_s": _name(summary, "analysis.certify_convexity"),
        "analysis.convexity_calls":
            _name(summary, "analysis.certify_convexity", "count"),
        "analysis.mp_evals": _name(summary, "catalog.Measure.eval_mp",
                                   "count"),
        "analysis.sup_ratio_s": _name(summary, "analysis.estimate_sup_ratio"),
        "cascade.exact_checks_ms": 1e3 * (
            _name(summary, "cascade.residual_identity_exact")
            + _name(summary, "cascade.combo_line_exact")),
        "ratfun.exact_ops": ratu,
        "analysis.sample_draws": _name(summary, "analysis.sample_pairs",
                                       "count"),
        "analysis.sample_s": _name(summary, "analysis.sample_pairs"),
        "catalog.eval_pairs": eval_pairs,
        "catalog.eval_useful_frac":
            summary["useful_pairs"] / eval_pairs if eval_pairs else 0.0,
        "analysis.scan_s": scan_s,
        "analysis.scan_mpairs_per_s":
            scan_pairs / scan_s / 1e6 if scan_s else 0.0,
        "audit.self_s": _name(summary, "audit.run_audit", "self_s"),
        "cli.main_ms": 1e3 * _name(summary, "cli.main"),
    }


def merge_summaries(summaries) -> dict:
    """Sum per-name totals over several traced processes."""
    out = {"names": {}, "useful_pairs": 0}
    for s in summaries:
        out["useful_pairs"] += s["useful_pairs"]
        for k, v in s["names"].items():
            acc = out["names"].setdefault(
                k, {"count": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            for key in acc:
                acc[key] += v[key]
    return out


def check_accounting(run: Run, summary: dict) -> None:
    wall = summary["wall_s"]
    run.check(abs(summary["accounted_s"] - wall) <= 1e-6 * wall + 1e-6,
              f"self times plus uncovered time {summary['accounted_s']!r} "
              f"!= traced wall {wall!r}")
    run.check(summary["min_self_s"] >= -1e-6,
              f"negative self time {summary['min_self_s']!r}: spans overlap")


# ---------------------------------------------------------------------------
# audit-default

def check_report(run: Run, code: int, stderr: str, report_path: str) -> bool:
    ok = run.check(code == 0, f"audit exited {code}")
    ok &= run.check("Traceback" not in stderr,
                    "audit raised: " + stderr.strip()[-400:])
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as e:
        return run.check(False, f"unreadable report: {e}")
    ids = [c["id"] for c in report["checks"]]
    ok &= run.check(ids == _lines("audit_ids.txt"),
                    f"report has {len(ids)} checks, not the 299 expected "
                    "ids in order")
    failed = [c["id"] for c in report["checks"] if c["verdict"] != "pass"]
    ok &= run.check(not failed, f"failed checks: {failed[:5]}")
    ok &= run.check(NEGATIVE_CONTROL in ids and NEGATIVE_CONTROL not in failed,
                    "negative control W2<=W1 was not caught")
    ok &= run.check(report["header"].get("seed") == run.seed,
                    "report header has the wrong seed")
    return ok


def same_report(path_a: str, path_b: str) -> bool:
    """Byte-identical apart from the timestamp (criterion 9)."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return (TIMESTAMP.sub(b"", fa.read()) == TIMESTAMP.sub(b"", fb.read()))


def run_audit(run: Run) -> dict:
    setup = setup_seconds(run)
    reports = []

    def op(i):
        report = run.path(f"report-{i}.json")
        child = run.cli("audit", "--seed", str(run.seed), "--report", report)
        ok = check_report(run, child.code, child.stderr, report)
        reports.append(report)
        return {"wall_s": child.wall_s, "rss_mb": child.rss_mb, "ok": ok}

    if not run.trace:
        results = closed_loop(run, itertools.count(), op)
        for other in reports[1:]:
            run.check(same_report(reports[0], other),
                      "reports of one run differ beyond the timestamp")
        ok = sum(r["ok"] for r in results)
        return {"attempted": len(results), "failed": len(results) - ok,
                "metrics": op_metrics([r["wall_s"] for r in results],
                                      [r["rss_mb"] for r in results], ok,
                                      len(results), setup)}

    # Traced run: the untraced op and the traced in-process op run side by
    # side, one per CPU, on the same seed.
    traced_report = run.path("report-traced.json")
    with ThreadPoolExecutor(max_workers=2) as pool:
        plain = pool.submit(op, 0)
        traced = pool.submit(
            run.worker, "audit", "--seed", str(run.seed), "--report",
            traced_report, "--spans", run.out_path("spans.npz"),
            importtime=True)
        plain = plain.result()
        child, doc = traced.result()
    attempted, failed = 2, int(not plain["ok"])
    if doc is None:
        return {"attempted": attempted, "failed": failed + 1, "metrics": {}}
    ok = check_report(run, doc["exit"], child.stderr, traced_report)
    failed += int(not ok)
    run.check(same_report(reports[0], traced_report),
              "traced report differs from the untraced one")
    summary = doc["summary"]
    check_accounting(run, summary)
    with open(traced_report, encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = layer_metrics(summary)
    metrics.update({
        "audit.checks": len(report["checks"]),
        "audit.failed_checks": sum(c["verdict"] != "pass"
                                   for c in report["checks"]),
        "catalog.import_ms": import_ms(child.stderr),
        "trace.overhead_frac": doc["wall_s"] / plain["wall_s"] - 1.0,
    })
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# scan-1e6

def check_scan(run: Run, doc: dict) -> bool:
    ok = run.check(doc["chains"] == 26, f"{doc['chains']} chains, not 26")
    ok &= run.check(doc["control"]["verdict"] == "fail",
                    "planted reversed chain W2<=W1 came back pass")
    sweeps = doc["sweeps"] + ([doc["traced"]] if "traced" in doc else [])
    for sweep in sweeps:
        bad = [r["id"] for r in sweep["results"]
               if r["verdict"] != "pass" or r["max_violation"] > SCAN_TOL]
        ok &= run.check(not bad, f"chains failed the 1e6 scan: {bad[:5]}")
    return ok


def run_scan(run: Run) -> dict:
    setup = setup_seconds(run)
    args = ["--seed", str(run.seed), "--seconds", str(run.seconds)]
    if run.trace:
        args += ["--trace", "1", "--spans", run.out_path("spans.npz")]
    child, doc = run.worker("scan", *args, importtime=bool(run.trace))
    if doc is None:
        return {"attempted": 1, "failed": 1, "metrics": {}}
    ok = check_scan(run, doc)
    walls = [s["wall_s"] for s in doc["sweeps"]]
    n = len(walls)
    print(f"scan: {n} sweep(s), "
          f"{26 * doc['samples'] / statistics.median(walls) / 1e6:.3f} "
          "Mpairs/s at the median sweep")
    if not run.trace:
        return {"attempted": n, "failed": 0 if ok else n,
                "metrics": op_metrics(walls, [child.rss_mb], n if ok else 0,
                                      n, setup)}
    traced = doc["traced"]
    check_accounting(run, traced["summary"])
    metrics = layer_metrics(traced["summary"])
    metrics.update({EVAL_METRICS[k]: v for k, v in doc["eval_ns"].items()
                    if k in EVAL_METRICS})
    metrics.update({
        "catalog.family_build_ms": doc["eval_ns"]["family_build_ms"],
        "catalog.import_ms": import_ms(child.stderr),
        "trace.overhead_frac": traced["wall_s"] / walls[0] - 1.0,
    })
    return {"attempted": n + 1, "failed": 0 if ok else n + 1,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# cli-compute

def _square_float(rng: random.Random, lo_exp: float, hi_exp: float,
                  m: int) -> tuple[float, int]:
    """(m^2 * 4^i near 10^U(lo_exp, hi_exp), i); exact in binary."""
    target = rng.uniform(lo_exp, hi_exp)
    i = round((target - 2 * math.log10(m)) / math.log10(4))
    return float(m * m) * 4.0 ** i, i


def _pair(rng: random.Random, full: bool) -> tuple[str, str]:
    """A pair (a, b) whose ratio a/b is the square of a rational.

    Window pairs have a and b near [1e-6, 1e6], a fifth of them within
    about 1e-3 of the diagonal; full-range pairs span 1e-300..1e300.
    """
    span = 300.0 if full else 6.0
    if not full and rng.random() < 0.2:
        m = rng.randint(512, 2047)
        a, i = _square_float(rng, -span, span, m)
        b = float((m + rng.choice((-1, 1))) ** 2) * 4.0 ** i
    else:
        a, _ = _square_float(rng, -span, span, rng.randint(1, 2047))
        b, _ = _square_float(rng, -span, span, rng.randint(1, 2047))
    return repr(a), repr(b)


def _write_distribution(path: str, values, fmt: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "json":
            json.dump(values, fh)
        elif fmt == "csv-row":
            fh.write(",".join(repr(v) for v in values) + "\n")
        else:
            fh.write("".join(repr(v) + "\n" for v in values))


def make_ops(run: Run, blocks: int) -> list[dict]:
    """The seeded operation mix, twenty operations per shuffled block.

    Per block: 11 scalar calls on catalog ids at window pairs, one family
    member with small t and one at t = 64 (window pairs), 2 full-range
    scalar calls, 3 distribution-file calls, one ``list`` and one unknown
    measure.  A fixed count per block keeps every run's mix alike.
    """
    rng = random.Random(run.seed)
    ids = _lines("catalog_ids.txt")
    ops: list[dict] = []
    for k in range(blocks):
        block = []

        def scalar(measure, full=False, strict=True):
            a, b = _pair(rng, full)
            block.append({"kind": "scalar", "measure": measure, "a": a,
                          "b": b, "json": rng.random() < 0.25,
                          "strict": strict and not full})

        for _ in range(11):
            scalar(rng.choice(ids))
        fam = rng.choice(sorted(FAMILIES))
        lo = FAMILIES[fam][0]
        scalar(f"{fam}:{rng.randint(lo, lo + 8)}", strict=False)
        scalar(f"{rng.choice(sorted(set(FAMILIES) - {'Lt'}))}:64",
               strict=False)
        for _ in range(2):
            scalar(rng.choice(ids), full=True)
        for fmt in ("csv-row", "csv-col", "json"):
            n = rng.randint(3, 8)
            P = rng.sample(range(1, 30), n)
            Q = P[:]
            while Q == P:
                rng.shuffle(Q)
            total = sum(p * p for p in P)
            files = []
            for name, vec in (("p", P), ("q", Q)):
                ext = "json" if fmt == "json" else "csv"
                path = run.path(f"{name}-{k}-{len(block)}.{ext}")
                _write_distribution(path, [v * v / total for v in vec], fmt)
                files.append(path)
            block.append({"kind": "file", "measure": rng.choice(ids),
                          "p": files[0], "q": files[1], "P": P, "Q": Q,
                          "json": False, "strict": True})
        block.append({"kind": "list", "strict": True})
        block.append({"kind": "unknown", "strict": True,
                      "measure": rng.choice(["W10", "Hgen:65", "nosuch",
                                             "Lt:9", "D_XY"])})
        rng.shuffle(block)
        ops.extend(block)
    return ops


def cli_argv(op: dict) -> list[str]:
    if op["kind"] == "list":
        return ["list"]
    if op["kind"] == "unknown":
        return ["compute", "--measure", op["measure"], "--a", "4", "--b", "1"]
    argv = ["compute", "--measure", op["measure"]]
    if op["kind"] == "scalar":
        argv += ["--a", op["a"], "--b", op["b"]]
    else:
        argv += ["--p", op["p"], "--q", op["q"]]
    if op["json"]:
        argv += ["--format", "json"]
    return argv


def _printed_value(op: dict, stdout: str):
    """The value a compute call printed, or None when unparsable."""
    try:
        if op["json"]:
            doc = json.loads(stdout)
            if doc.get("measure") != op["measure"]:
                return None
            return float(doc["value"])
        return float(stdout.strip())
    except (ValueError, TypeError, KeyError, AttributeError):
        return None


def classify(op: dict, code: int, stdout: str, stderr: str, ref,
             expected_list: list[str]) -> str:
    """ok, traceback, wrong_exit or wrong_value for one CLI call."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if op["kind"] == "unknown":
        return "ok" if code == 3 else "wrong_exit"
    if op["kind"] == "list":
        if code != 0:
            return "wrong_exit"
        heads = [re.split(r" = |,", line, maxsplit=1)[0]
                 for line in stdout.splitlines()]
        return "ok" if heads == expected_list else "wrong_value"
    overflow = math.isinf(ref)
    if code != 0:
        # A clean non-zero exit is the contract's answer to an overflow.
        return "ok" if overflow else "wrong_exit"
    value = _printed_value(op, stdout)
    if value is None:
        return "wrong_value"
    if overflow:
        return "ok" if value == ref else "wrong_value"
    if abs(value - ref) <= REL_TOL * abs(ref) + ABS_FLOOR:
        return "ok"
    return "wrong_value"


def run_cli(run: Run) -> dict:
    setup = setup_seconds(run)
    ops = make_ops(run, blocks=4)
    ops_path = run.path("ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    _, doc = run.worker("refs", "--ops", ops_path)
    if doc is None:
        return {"attempted": 1, "failed": 1, "metrics": {}}
    for op, ref in zip(ops, doc["refs"]):
        op["ref"] = ref
    expected_list = _lines("catalog_ids.txt") + [f"{f}:t" for f in FAMILIES]

    def judge(op, code, stdout, stderr):
        outcome = classify(op, code, stdout, stderr, op["ref"],
                           expected_list)
        gate = op["strict"] and outcome != "ok"
        run.check(not gate, f"{' '.join(cli_argv(op))}: {outcome} "
                            f"(exit {code}, printed {stdout.strip()[:80]!r}, "
                            f"reference {op['ref']!r})")
        return outcome, gate

    def plain(op):
        child = run.cli(*cli_argv(op))
        outcome, gate = judge(op, child.code, child.stdout, child.stderr)
        return {"op": op, "wall_s": child.wall_s, "rss_mb": child.rss_mb,
                "outcome": outcome, "gate": gate}

    # A faster program may run out of operations: it meets them again.
    results = closed_loop(run, itertools.cycle(ops), plain)
    counts = {k: sum(r["outcome"] == k for r in results)
              for k in ("ok", "traceback", "wrong_value", "wrong_exit")}
    gates = sum(r["gate"] for r in results)
    print("cli-compute outcomes: " + ", ".join(f"{k}={v}"
                                               for k, v in counts.items()))
    if not run.trace:
        return {"attempted": len(results), "failed": gates,
                "metrics": op_metrics([r["wall_s"] for r in results],
                                      [r["rss_mb"] for r in results],
                                      counts["ok"], len(results), setup)}

    # Traced run: the same operations again, each in a fresh traced process.
    summaries, per_op = [], []
    traced_wall = 0.0
    for k, r in enumerate(results):
        op = r["op"]
        child, tdoc = run.worker("cli", "--spans",
                                 run.out_path(f"spans-{k}.npz"), "--",
                                 *cli_argv(op), importtime=True)
        traced_wall += child.wall_s
        if tdoc is None:
            gates += 1
            continue
        outcome, gate = judge(op, tdoc["exit"], tdoc["stdout"],
                              tdoc["stderr"])
        gates += int(gate)
        s = tdoc["summary"]
        check_accounting(run, s)
        summaries.append(s)
        per_op.append((op, s, import_ms(child.stderr)))
    family_64 = [_name(s, "catalog.try_get") * 1e3 for op, s, _ in per_op
                 if op.get("measure", "").endswith(":64")
                 and op["kind"] == "scalar"]
    files = [(op, s) for op, s, _ in per_op if op["kind"] == "file"]

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = layer_metrics(merge_summaries(summaries))
    metrics.update({
        "cli.main_ms": med([_name(s, "cli.main") * 1e3
                            for _, s, _ in per_op]),
        "catalog.import_ms": med([ms for _, _, ms in per_op]),
        "catalog.family_build_ms": med(family_64),
        "distributions.load_ms": med([
            _name(s, "distributions.load_distribution") * 1e3
            for _, s in files]),
        "distributions.divergence_ms": med([
            _name(s, "distributions.divergence") * 1e3 for _, s in files]),
        "cli.fail_traceback": counts["traceback"],
        "cli.fail_wrong_value": counts["wrong_value"],
        "cli.fail_wrong_exit": counts["wrong_exit"],
        "trace.overhead_frac":
            traced_wall / sum(r["wall_s"] for r in results) - 1.0,
    })
    return {"attempted": 2 * len(results), "failed": gates,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Entry point.

WORKLOADS = {"audit-default": run_audit, "scan-1e6": run_scan,
             "cli-compute": run_cli}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "divcascade")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "mpmath": metadata.version("mpmath"),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "launch": LAUNCH}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 env: dict) -> dict:
    run = Run(workload, seed, seconds, trace)
    try:
        result = WORKLOADS[workload](run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    for problem in run.problems:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
    # A metric the workload does not exercise reads 0.
    units = _metric_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": result["metrics"].get(k, 0.0), "unit": unit}
               for k, unit in units.items()}
    for k, m in metrics.items():
        print(f"{workload} {k} = {m['value']:.6g} {m['unit']}")
    out = {"correct": not run.problems and result["failed"] == 0,
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-"
                                    f"trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": workload, "seed": seed,
                   "seconds": seconds, "trace": trace,
                   "problems": run.problems, **out}, fh, indent=2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "divcascade", "cli.py")):
        print("perfbench: run from the root of a divcascade checkout "
              "(src/divcascade/cli.py not found)", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                  env) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{k}": v
                             for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

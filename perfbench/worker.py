"""Child-process side of the benchmark; imports the program under test.

Run as ``PYTHONPATH=src python perfbench/worker.py <task> --out F ...``.
Tasks:

  scan   closed loop of 26-chain sweeps at 1e6 pairs and 2 workers,
         plus the planted reversed chain; with --trace, one untraced and
         one traced sweep and the per-measure evaluation costs
  audit  one traced in-process ``cli.main(["audit", ...])``
  cli    one traced in-process ``cli.main(argv)``, argv after ``--``
  refs   reference values for the cli-compute operations

Each task writes one JSON document to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

SCAN_SAMPLES = 1_000_000
SCAN_WORKERS = 2
SCAN_TOL = 1e-12
# Measures whose float evaluation cost the scan-1e6 traced run reports.
EVAL_IDS = ("delta", "V10", "U15", "Mnew:4", "Hgen:64", "D_SN")


def _write(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _sweep(cascade, chain_ids, seed):
    t0 = time.perf_counter()
    results = [cascade.audit_chain(cid, samples=SCAN_SAMPLES, seed=seed,
                                   tol=SCAN_TOL, workers=SCAN_WORKERS)
               for cid in chain_ids]
    wall = time.perf_counter() - t0
    return wall, [{"id": r.id, "verdict": r.verdict,
                   "max_violation": r.max_violation} for r in results]


def _eval_ns(catalog, analysis, seed) -> dict:
    """ns per pair of each measure's float evaluation at 1e6 pairs."""
    a, b = analysis.sample_pairs(SCAN_SAMPLES, seed)
    x = a / b
    out = {}
    for mid in EVAL_IDS:
        t0 = time.perf_counter()
        m = catalog.get(mid)
        if mid == "Hgen:64":
            out["family_build_ms"] = (time.perf_counter() - t0) * 1e3
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            m(x)
            times.append(time.perf_counter() - t0)
        times.sort()
        out[mid] = times[2] / x.size * 1e9
    return out


def task_scan(args) -> dict:
    from divcascade import analysis, cascade, catalog

    chain_ids = cascade.chains()
    planted = cascade.chain_from_dict(
        {"id": "planted-W2<=W1", "ref": "Eq (9) reversed",
         "terms": [[1, "W2"], [1, "W1"]]})
    control = cascade.audit_chain(planted, samples=SCAN_SAMPLES,
                                  seed=args.seed, tol=SCAN_TOL,
                                  workers=SCAN_WORKERS)
    doc = {"chains": len(chain_ids), "samples": SCAN_SAMPLES,
           "control": {"verdict": control.verdict,
                       "max_violation": control.max_violation},
           "sweeps": []}
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, results = _sweep(cascade, chain_ids, args.seed)
        doc["sweeps"].append({"wall_s": wall, "results": results})
        if args.trace or time.perf_counter() >= deadline:
            break
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        wall, results = _sweep(cascade, chain_ids, args.seed)
        doc["traced"] = {"wall_s": wall, "results": results,
                         "summary": tr.summary(wall)}
        doc["eval_ns"] = _eval_ns(catalog, analysis, args.seed)
        if args.spans:
            tr.save(args.spans)
    return doc


def task_audit(args) -> dict:
    from divcascade import cli

    tr = tracing.Tracer()
    tracing.install(tr)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["audit", "--seed", str(args.seed),
                         "--report", args.report])
    wall = time.perf_counter() - t0
    if args.spans:
        tr.save(args.spans)
    return {"exit": code, "wall_s": wall, "summary": tr.summary(wall)}


def task_cli(args) -> dict:
    from divcascade import cli

    tr = tracing.Tracer()
    tracing.install(tr)
    out, err = io.StringIO(), io.StringIO()
    tb = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args.argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # the traceback is the finding being recorded
            tb = traceback.format_exc()
            code = 1
    wall = time.perf_counter() - t0
    if args.spans:
        tr.save(args.spans)
    stderr = err.getvalue() + (tb or "")
    return {"exit": code, "stdout": out.getvalue(), "stderr": stderr,
            "wall_s": wall, "summary": tr.summary(wall)}


def _reference(measure, u: Fraction):
    """f(u^2) for a catalog measure at exact rational u = sqrt(x)."""
    f, kind = reference.generator(measure.id)
    if kind == "exact":
        value = f(u)
        if measure.gen is not None and measure.gen.value_exact(u) != value:
            raise AssertionError(f"{measure.id}: catalog generator disagrees "
                                 "with the first-principles definition")
        return value
    if kind == "mp":
        return reference.mp_eval(f, u)
    return measure.gen.value_exact(u)


def task_refs(args) -> dict:
    from divcascade import catalog

    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    refs = []
    for op in ops:
        if op["kind"] == "scalar":
            m = catalog.get(op["measure"])
            a, b = Fraction(float(op["a"])), Fraction(float(op["b"]))
            u = reference.sqrt_exact(a / b)
            refs.append(reference.to_float(
                reference.scale(b, _reference(m, u))))
        elif op["kind"] == "file":
            # sum_i q_i f(p_i / q_i) with p_i = P_i^2 / T, q_i = Q_i^2 / T.
            m = catalog.get(op["measure"])
            total = sum(p * p for p in op["P"])
            terms = [reference.scale(Fraction(q * q, total),
                                     _reference(m, Fraction(p, q)))
                     for p, q in zip(op["P"], op["Q"])]
            with reference.mp.workdps(reference.DPS):
                refs.append(reference.to_float(sum(terms)))
        else:
            refs.append(None)
    return {"refs": refs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("task", choices=("scan", "audit", "cli", "refs"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--report")
    parser.add_argument("--ops")
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.argv = argv[cut + 1:]
    task = {"scan": task_scan, "audit": task_audit, "cli": task_cli,
            "refs": task_refs}[args.task]
    _write(args.out, task(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())

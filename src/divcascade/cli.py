"""Command-line surface: list, compute, audit, report-diff.

Exit codes: 0 success; 2 input validation or parse failure, or a value
that is not finite; 3 unknown measure; 4 audit check failure; 5 audit
configuration error.  A report-diff that finds verdict differences exits 1.
When the reader of stdout closes it early (``divcascade list | head``),
the command stops quietly with 141, the status of a process ended by
SIGPIPE (128 + 13).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import catalog  # the commands import the rest of what they run

SEED_ENV = "DIVCASCADE_SEED"
EXIT_CLOSED_PIPE = 141


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the double exactly.

    Integral values print without a fractional part; everything else
    uses repr: up to 17 significant digits, or ``inf``, ``-inf``, ``nan``.
    """
    v = float(value)
    if abs(v) < 1e16 and v == int(v):       # false for inf and NaN
        return str(int(v))
    return repr(v)


def _err(message: str) -> None:
    print(f"divcascade: {message}", file=sys.stderr)


def cmd_list(_args) -> int:
    for mid in catalog.all_ids():
        m = catalog.get(mid)
        alias = catalog.FORMULA.get(mid)
        head = f"{mid} = {alias}" if alias else mid
        norm = "f(1)=1" if m.kind == "mean" else "f(1)=0"
        print(f"{head}, {m.ref}, {norm} [{m.kind}]")
    for fid in catalog.FAMILY_IDS + ("Lt",):
        lo, hi = catalog.family_range(fid)
        ref = catalog.get(f"{fid}:{lo}").ref
        print(f"{fid}:t, {ref}, t in [{lo}, {hi}], f(1)=0 "
              "[divergence family]")
    return 0


def _positive_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{flag} expects a number, got {text!r}")
    return catalog.positive(flag, value)


def cmd_compute(args) -> int:
    measure = catalog.try_get(args.measure)
    if measure is None:
        _err(f"unknown measure {args.measure!r}; see 'divcascade list'")
        return 3
    scalar_mode = args.a is not None or args.b is not None
    file_mode = args.p is not None or args.q is not None
    if scalar_mode == file_mode:
        _err("provide either --a/--b scalars or --p/--q files, not both")
        return 2
    try:
        if scalar_mode:
            if args.a is None or args.b is None:
                raise ValueError("both --a and --b are required")
            a = _positive_float(args.a, "--a")
            b = _positive_float(args.b, "--b")
            value = measure._at(a, b)       # reported below if not finite
        else:
            if args.p is None or args.q is None:
                raise ValueError("both --p and --q are required")
            from . import distributions
            p = distributions.load_distribution(args.p)
            q = distributions.load_distribution(args.q)
            value = distributions.divergence(measure, p, q)
    except (ValueError, OSError) as e:
        _err(str(e))
        return 2
    if not math.isfinite(value):
        _err(f"{measure.id} is not finite at this input ({float(value)!r})")
        return 2
    if args.format == "json":
        print(f'{{"measure": "{measure.id}", "value": {_fmt(value)}}}')
    else:
        print(_fmt(value))
    return 0


def _option(name: str, text, kind):
    """An option's text as kind, int or float; text that does not parse
    is a ``ValueError`` naming the option."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a real number"
        raise ValueError(f"{name} must be {what}, not {text!r}") from None


def cmd_audit(args) -> int:
    from . import audit, reporting
    # Only the options given, and $DIVCASCADE_SEED where --seed is not:
    # AuditConfig holds every default.
    try:
        options = {name: _option(name, text, kind) for name, text, kind in (
            ("seed", args.seed, int), ("samples", args.samples, int),
            ("tolerance", args.tolerance, float),
            ("workers", args.workers, int)) if text is not None}
        if "seed" not in options and SEED_ENV in os.environ:
            options["seed"] = _option(SEED_ENV, os.environ[SEED_ENV], int)
        if args.chains is not None:
            options["chains"] = args.chains
        config = audit.AuditConfig(**options)
    except ValueError as e:
        _err(f"configuration error: {e}")
        return 5
    report = audit.run_audit(config)
    if args.report:
        try:
            reporting.write_report(report, args.report)
        except OSError as e:
            _err(f"cannot write report: {e}")
            return 5
    passed = reporting.report_passed(report)
    if args.format == "json":
        import json
        print(json.dumps(report, indent=2))
    else:
        for check in report["checks"]:
            mark = "PASS" if check["verdict"] == "pass" else "FAIL"
            print(f"{mark} {check['id']} "
                  f"max_violation={_fmt(check['max_violation'])} "
                  f"[{check['paper_ref']}]")
        print(f"errata: {len(report['errata'])} documented source "
              "misprints (informational)")
        for entry in report["errata"]:
            print(f"  {entry['id']}: {entry['location']}")
        print(("all checks passed" if passed else "CHECK FAILURES above"),
              f"(checks={len(report['checks'])}, seed={config.seed}, "
              f"samples={config.samples})")
    return 0 if passed else 4


def cmd_report_diff(args) -> int:
    from . import reporting
    try:
        ra = reporting.load_report(args.report_a)
        rb = reporting.load_report(args.report_b)
        lines = reporting.diff_reports(ra, rb)
    except (OSError, ValueError) as e:
        _err(f"cannot parse reports: {e}")
        return 2
    for line in lines:
        print(line)
    return 1 if lines else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divcascade",
        description="Mean-difference divergence measures, their ordering "
                    "chains, and the verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the measure registry")
    p_list.set_defaults(func=cmd_list)

    p_comp = sub.add_parser("compute",
                            help="evaluate a measure on scalars or on "
                                 "distribution files")
    p_comp.add_argument("--measure", required=True)
    p_comp.add_argument("--a", help="first positive scalar")
    p_comp.add_argument("--b", help="second positive scalar")
    p_comp.add_argument("--p", help="path to the first distribution "
                                    "(csv or json)")
    p_comp.add_argument("--q", help="path to the second distribution")
    p_comp.add_argument("--format", choices=("text", "json"),
                        default="text")
    p_comp.set_defaults(func=cmd_compute)

    p_aud = sub.add_parser("audit", help="run the verification suite")
    p_aud.add_argument("--chains", action="append",
                       help="chain ids or prefixes (comma separated, "
                            "repeatable); default all")
    p_aud.add_argument("--samples", help="random pairs per check "
                                         "(default 100000)")
    p_aud.add_argument("--seed", help=f"RNG seed (default 42 or "
                                      f"${SEED_ENV})")
    p_aud.add_argument("--tolerance", help="relative tolerance "
                                           "(default 1e-12)")
    p_aud.add_argument("--workers",
                       help="processes that scan the sample while one "
                            "more proves and certifies convexity, and this "
                            "one only assembles (default: the usable "
                            "CPUs); 1 runs all in one process")
    p_aud.add_argument("--report", help="write the JSON report here")
    p_aud.add_argument("--format", choices=("text", "json"),
                       default="text")
    p_aud.set_defaults(func=cmd_audit)

    p_diff = sub.add_parser("report-diff",
                            help="compare the verdicts of two reports")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.set_defaults(func=cmd_report_diff)
    return parser


def main(argv=None) -> int:
    # numpy's bundled OpenBLAS starts threads at import that spin for work
    # and take CPU from the audit's prover and scan helpers, though no
    # command calls BLAS.  Set before any command loads numpy; a value the
    # caller set is kept, and library callers, who never run main, are
    # left alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send the rest of the output, and the flush at exit, to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Print the memory peaks of a default audit, run in process at 1 and 2
workers.

Run it with no options (Linux only: it reads ``/proc/self/status``):

    python tools/peaks.py

For each worker count it forks a child of this process, which has not
imported numpy, so each audit starts from the same small process.  The
child imports the package of its own tree (``src`` beside this
directory) and runs ``divcascade audit --seed 42 --workers W`` through
``cli.main``, with its output sent to ``os.devnull``.  It prints the
caller's ``VmHWM``, ``RssAnon`` and ``RssFile`` after the import, after
the audit's ``start_scan`` returns, after the proofs (when the scan's
``join()`` is called) and at the end; then, once the scan helpers are
reaped, the largest RSS any of them reached
(``getrusage(RUSAGE_CHILDREN).ru_maxrss``, 0 with no helper).

The audit runs in process, not launched through ``subprocess``: a
program started that way may count its launcher's peak RSS in its own
``ru_maxrss``, so a launcher that has grown hides the program's peak.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = ("VmHWM", "RssAnon", "RssFile")


def status() -> dict[str, float]:
    """This process's ``FIELDS`` from ``/proc/self/status``, in MB."""
    out = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in FIELDS:
                out[key] = int(value.split()[0]) / 1024     # from kB
    return out


def _line(label: str, readings: dict[str, float]) -> str:
    return f"  {label:<18}" + "".join(
        f"  {key} {readings[key]:7.2f} MB" for key in FIELDS)


def audit_peaks(workers: int) -> list[str]:
    """The lines of one ``audit --seed 42`` at ``workers``, run in this
    process."""
    from divcascade import analysis, cli

    lines = [f"workers {workers}", _line("after import", status())]
    real = analysis.start_scan

    def start_scan(*args, **kwargs):
        analysis.start_scan = real      # the audit's shared scan alone
        join = real(*args, **kwargs)
        lines.append(_line("after start_scan", status()))

        def joined():
            lines.append(_line("after the proofs", status()))
            return join()
        return joined

    analysis.start_scan = start_scan
    try:
        with open(os.devnull, "w", encoding="utf-8") as null, \
                contextlib.redirect_stdout(null):
            code = cli.main(["audit", "--seed", "42", "--workers",
                             str(workers)])
    finally:
        analysis.start_scan = real
    lines.append(_line("at the end", status()))
    analysis._reap(analysis._helpers)
    helpers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines.append(f"  {'helpers max RSS':<18}  {helpers:7.2f} MB"
                 f"  (audit exit {code})")
    return lines


def main() -> None:
    sys.path.insert(0, str(SRC))
    for workers in (1, 2):
        sys.stdout.flush()
        pid = os.fork()
        if not pid:
            try:
                print(*audit_peaks(workers), sep="\n", flush=True)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        if os.waitpid(pid, 0)[1]:
            sys.exit(f"the audit at {workers} workers failed")


if __name__ == "__main__":
    main()

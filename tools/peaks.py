"""Print the memory peaks of a default audit, run in process at 1 and 2
workers.

Run it with no options (Linux only: it reads ``/proc/self/status``):

    python tools/peaks.py

For each worker count it forks a child of this process, which has not
imported numpy, so each audit starts from the same small process.  The
child imports the package of its own tree (``src`` beside this
directory), ``cli`` and ``pool`` alone, which load no numpy, and runs
``divcascade audit --seed 42 --workers W`` through ``cli.main``, with
its output sent to ``os.devnull``: so the audit runs in the order of a
fresh command line, its proofs sent to the prover before numpy loads.
It prints the caller's ``VmHWM``, ``RssAnon`` and ``RssFile`` after the
import; after each request is sent to helpers (the proofs, the scan,
then the negative control's scan, sent to a scan helper once the scan
is joined), when its join starts and when it is joined; and at the end.
Then, once the helpers it leased are reaped, it prints the largest RSS
the prover and the scan helpers each reached (``ru_maxrss`` of
``os.wait4``, 0 with no such helper); a helper counts as what it was
first sent.  At 1 worker no helper is sent a request, so only the first
and last readings show.

The audit runs in process, not launched through ``subprocess``: a
program started that way may count its launcher's peak RSS in its own
``ru_maxrss``, so a launcher that has grown hides the program's peak.
"""

from __future__ import annotations

import contextlib
import os
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = ("VmHWM", "RssAnon", "RssFile")
# The helpers' work, by the function of the requests they are sent.
WORK = {"_proofs": "proofs", "_scan_run": "scan", "_control_scan": "control"}


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
    return f"  {label:<19}" + "".join(
        f"  {key} {readings[key]:7.2f} MB" for key in FIELDS)


def audit_peaks(workers: int) -> list[str]:
    """The lines of one ``audit --seed 42`` at ``workers``, run in this
    process."""
    from divcascade import cli, pool

    lines = [f"workers {workers}", _line("after import", status())]
    work = {}                   # helper pid -> what it was first sent
    last = {}                   # helper pid -> what it was last sent
    real_lease, real_collect = pool._lease, pool._collect

    def lease(requests):
        helpers = real_lease(requests)
        for helper, (function, _) in zip(helpers, requests):
            last[helper.pid] = WORK[function.__name__]
            work.setdefault(helper.pid, last[helper.pid])
        if helpers:
            lines.append(_line(f"sent the {last[helpers[0].pid]}", status()))
        return helpers

    def collect(helpers):
        if not helpers:
            return real_collect(helpers)
        label = last[helpers[0].pid]
        lines.append(_line(f"joining the {label}", status()))
        results = real_collect(helpers)
        lines.append(_line(f"joined the {label}", status()))
        return results

    pool._lease, pool._collect = lease, collect
    try:
        with open(os.devnull, "w", encoding="utf-8") as null, \
                contextlib.redirect_stdout(null):
            code = cli.main(["audit", "--seed", "42", "--workers",
                             str(workers)])
    finally:
        pool._lease, pool._collect = real_lease, real_collect
    lines.append(_line("at the end", status()))
    peaks = dict.fromkeys(WORK.values(), 0.0)
    for helper in [h for h in pool._helpers if h.pid in work]:
        pool._drop(helper)      # it reads EOF and exits
        peak = os.wait4(helper.pid, 0)[2].ru_maxrss / 1024
        peaks[work[helper.pid]] = max(peaks[work[helper.pid]], peak)
    for kind, label in (("proofs", "prover max RSS"), ("scan", "scan max RSS")):
        lines.append(f"  {label:<19}  {peaks[kind]:7.2f} MB")
    lines[-1] += f"  (audit exit {code})"
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

"""Print digests of the bits the sampled scans produce.

Run it on two trees, with no options, and diff what they print: equal
lines mean equal bits.

    python tools/bits.py > bits.txt

It runs the package of its own tree (``src`` beside this directory) and
prints, one line each:

- the sha256 of ``python -m divcascade audit --seed S --workers W``, of
  its text output and of its ``--format json`` output without the
  timestamp line, for S in {42, 1} and W in {1, 2}, with the exit code;
- the sha256 over ``repr(cascade.audit_chain(...))`` of the 26 chains in
  48 configurations: n 1e5 and 1e6, seeds 1-4, tol 1e-12 and -1 and
  workers 1-3, all in this process;
- the register count, step count and sha256 of ``repr(segments)`` of the
  scan program (``analysis._Program``) of the audit's 194 sampled
  claims, and of the 26 chains;
- the sha256 of the ``python -m divcascade list`` output and of
  ``repr(cascade.CHAINS)``, the chains' ids, refs, terms, notes and order.

The sweep at 1e6 pairs dominates: about a minute on 2 CPUs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def audit_lines() -> list[str]:
    """The digests of the audit's text and JSON reports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lines = []
    for seed in (42, 1):
        for workers in (1, 2):
            for fmt in ("text", "json"):
                proc = subprocess.run(
                    [sys.executable, "-m", "divcascade", "audit", "--seed",
                     str(seed), "--workers", str(workers), "--format", fmt],
                    capture_output=True, env=env)
                out = proc.stdout
                if fmt == "json":
                    out = b"".join(line for line in out.splitlines(True)
                                   if b'"timestamp":' not in line)
                lines.append(f"audit seed {seed} workers {workers} {fmt}: "
                             f"exit {proc.returncode} {_sha(out)}")
    return lines


def sweep_line() -> str:
    """The digest of the 26-chain ``audit_chain`` sweep over 48
    configurations."""
    from divcascade import cascade

    digest = hashlib.sha256()
    for n in (10**5, 10**6):
        for seed in range(1, 5):
            for tol in (1e-12, -1.0):
                for workers in (1, 2, 3):
                    for cid in cascade.chains():
                        result = cascade.audit_chain(
                            cid, samples=n, seed=seed, tol=tol,
                            workers=workers)
                        digest.update(repr(result).encode())
    return f"sweep 26 chains x 48 configurations: {digest.hexdigest()}"


def program_lines() -> list[str]:
    """The shape of the scan programs of the audit's sampled claims and
    of the 26 chains."""
    from divcascade import analysis, audit, cascade

    chains = [analysis.Ordering(cascade.get_chain(cid).terms, 1e-12)
              for cid in cascade.chains()]
    idents = audit._identities(1e-12) + audit._combinations(1e-12)
    claims = chains + [analysis.Equality(lhs, rhs, 1e-12)
                       for ident in idents for lhs, rhs in ident.claims]
    lines = []
    for name, group in (("audit", claims), ("chains", chains)):
        program = analysis._Program(group)
        steps = sum(len(steps) for _, steps, _ in program.segments)
        lines.append(f"program {name}: {len(group)} claims, "
                     f"{program.registers} registers, {steps} steps, "
                     f"segments {_sha(repr(program.segments).encode())}")
    return lines


def listing_lines() -> list[str]:
    """The digests of the registry listing and of the chain table."""
    from divcascade import cascade

    listing = subprocess.run(
        [sys.executable, "-m", "divcascade", "list"], capture_output=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    return [f"list: {_sha(listing)}",
            f"chains table: {_sha(repr(cascade.CHAINS).encode())}"]


def main() -> None:
    sys.path.insert(0, str(SRC))
    print(*program_lines(), sep="\n", flush=True)
    print(*listing_lines(), sep="\n", flush=True)
    print(*audit_lines(), sep="\n", flush=True)
    print(sweep_line(), flush=True)


if __name__ == "__main__":
    main()

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
  ``repr(cascade.CHAINS)``, the chains' ids, refs, terms, notes and order;
- the sha256 over the ``repr`` of every public scalar evaluator, or of
  the exception it raises, at each pair (a, b), or point x, of a fixed
  grid from 1e-300 to 1e300.  It calls public names only, so the line
  of one tree's package compares with another's.

The sweep at 1e6 pairs dominates: about a minute on 2 CPUs.  The first
five lines read no sampled number, so their bits do not follow numpy's
CPU dispatch: ``tests/portable_bits.txt`` holds them, and a test compares.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import warnings
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


GRID = [10.0 ** e for e in (-300, -150, -20, -1, 0, 1, 20, 150, 300)] + [
    0.5, 3.0]


def measure_wrappers():
    """(label, measure id, wrapper as a function of a and b) of every
    public scalar wrapper of one catalog measure: W, D, V and U, the mean
    differences, the base measures, every L_t and five members of each
    family, the ladder Lt included."""
    from divcascade import (cascade, catalog, discriminations, generators,
                            means)

    series = {"W": cascade.W, "D": cascade.pyramid_diff, "V": cascade.V,
              "U": cascade.U}
    for mid in catalog.all_ids():
        if mid[1:].isdigit():
            yield mid, mid, lambda a, b, f=series[mid[0]], k=int(mid[1:]): (
                f(k, (a, b)))
        elif mid.startswith("D_"):
            yield mid, mid, lambda a, b, hi=mid[2], lo=mid[3]: (
                means.mean_difference(hi, lo, a, b))
    for mid in catalog.BASE_IDS:
        yield f"base {mid}", mid, lambda a, b, mid=mid: (
            discriminations.base(mid, a, b))
    for t in range(catalog.LT_T_RANGE[0], catalog.LT_T_RANGE[1] + 1):
        yield f"L_t {t}", f"Lt:{t}", lambda a, b, t=t: (
            discriminations.L_t(t, (a, b)))
    for fid in generators.EXP_FORMS:
        lo, hi = catalog.family_range(fid)
        for t in sorted({lo, max(lo, 0), 1, 3, hi}):
            yield f"family {fid}:{t}", f"{fid}:{t}", (
                lambda a, b, fid=fid, t=t: generators.family(fid, t, (a, b)))


def _scalar_calls():
    """(label, evaluator as a function of a and b) of every public scalar
    evaluator: the ``measure_wrappers``, and the rest over the catalog's
    ids, proof parts and combination lines.  An evaluator of a point x
    takes x = a."""
    from divcascade import (cascade, catalog, discriminations,
                            distributions, generators, means)

    for label, _, call in measure_wrappers():
        yield label, call
    for mid in catalog.all_ids():
        yield f"divergence {mid}", lambda a, b, mid=mid: (
            distributions.divergence(mid, [a / (a + b), b / (a + b)],
                                     [0.25, 0.75]))
    for i in range(1, 10):
        yield f"W'' {i}", lambda a, b, i=i: cascade.W_second_derivative(i, a)
    yield "pyramid_equalities", lambda a, b: cascade.pyramid_equalities(
        (a, b))
    for part in cascade.THEOREM_PARTS:
        yield part, lambda a, b, part=part: (
            cascade.residual_decompositions(part, (a, b)))
    for mid in cascade.COMBINATION_LINES:
        yield f"line {mid}", lambda a, b, mid=mid: (
            cascade.equivalent_expression(mid, (a, b)))
    for fid in generators.EXP_FORMS:
        yield f"ratio {fid}", lambda a, b, fid=fid: (
            generators.step_ratio(fid, (a, b)))
        yield f"exp {fid}", lambda a, b, fid=fid: (
            generators.exp_representation(fid, (a, b)))
        yield f"series {fid}", lambda a, b, fid=fid: (
            generators.exp_series_partial(fid, (a, b), 20))
    for fid in generators.WITNESS_FORMS:
        for t in (0, 3):
            yield f"witness {fid}:{t}", lambda a, b, fid=fid, t=t: (
                generators.convexity_witness(fid, a, t),
                generators.witness_second_derivative(fid, a, t),
                generators.witness_second_derivative(fid, a, t, True))
    for t in range(catalog.LT_T_RANGE[0], catalog.LT_T_RANGE[1] + 1):
        yield f"A7 {t}", lambda a, b, t=t: discriminations.A7(a, t)
    for letter in "HGNARSC":
        yield f"mean {letter}", lambda a, b, letter=letter: (
            means.mean(letter, a, b), means.mean_generator(letter, a))


def _outcome(call, a, b) -> str:
    """repr of what call(a, b) returns, or of the error it raises."""
    try:
        return repr(call(a, b))
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


def scalar_line() -> str:
    """The digest of the public scalar evaluators over the grid."""
    digest = hashlib.sha256()
    with warnings.catch_warnings():     # numpy's, at the grid's extremes
        warnings.simplefilter("ignore", RuntimeWarning)
        for label, call in _scalar_calls():
            for a in GRID:
                for b in GRID:
                    digest.update(f"{label} {a!r} {b!r} "
                                  f"{_outcome(call, a, b)}\n".encode())
    return f"scalars over a {len(GRID)}x{len(GRID)} grid: {digest.hexdigest()}"


def main() -> None:
    sys.path.insert(0, str(SRC))
    print(*program_lines(), sep="\n", flush=True)
    print(*listing_lines(), sep="\n", flush=True)
    print(scalar_line(), flush=True)
    print(*audit_lines(), sep="\n", flush=True)
    print(sweep_line(), flush=True)


if __name__ == "__main__":
    main()

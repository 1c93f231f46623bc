"""Smoke tests of the scripts under ``tools``, and a test of the package
over the scalar evaluators and grid that ``bits.py`` digests."""

import hashlib
import importlib.util
import itertools
import math
import re
import struct
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
PORTABLE = Path(__file__).resolve().parent / "portable_bits.txt"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bits_imports_and_digests_the_scan_programs():
    # Importing runs nothing; the program digests are the quick part of
    # its output, one line per program.
    bits = _load("bits")
    assert bits.SRC == TOOLS.parent / "src"
    lines = bits.program_lines()
    assert [line.split(":")[0] for line in lines] == [
        "program audit", "program chains"]
    for line, claims in zip(lines, (194, 26)):
        assert re.fullmatch(rf"program \w+: {claims} claims, \d+ registers, "
                            r"\d+ steps, segments [0-9a-f]{64}", line), line


def test_bits_digests_the_listing_and_the_chain_table(capsys):
    # The listing's digest is of what ``list`` prints, here in process.
    from divcascade import cascade, cli

    bits = _load("bits")
    assert cli.main(["list"]) == 0
    listing = capsys.readouterr().out.encode()
    assert bits.listing_lines() == [
        f"list: {hashlib.sha256(listing).hexdigest()}",
        "chains table: "
        f"{hashlib.sha256(repr(cascade.CHAINS).encode()).hexdigest()}"]


def test_peaks_imports_and_reads_an_audit_in_process(no_helpers):
    # Importing runs nothing; one audit at 1 worker, in this process,
    # sends no request to a helper: it gives the first and last readings
    # and the prover's and scan helpers' lines, both 0.  At 2 workers each
    # request shows when it is sent, when its join starts and when it is
    # joined: the proofs, the scan, then the control's scan.
    peaks = _load("peaks")
    assert peaks.SRC == TOOLS.parent / "src"
    now = peaks.status()
    assert set(now) == set(peaks.FIELDS) and all(v > 0 for v in now.values())
    lines = peaks.audit_peaks(1)
    assert [line.split("  ")[1].strip() for line in lines[1:]] == [
        "after import", "at the end", "prover max RSS", "scan max RSS"]
    assert [float(line.split()[3]) for line in lines[-2:]] == [0.0, 0.0]
    assert lines[0] == "workers 1" and lines[-1].endswith("(audit exit 0)")
    lines = peaks.audit_peaks(2)
    assert [line.split("  ")[1].strip() for line in lines[1:]] == [
        "after import", "sent the proofs", "sent the scan",
        "joining the scan", "joined the scan", "sent the control",
        "joining the control", "joined the control", "joining the proofs",
        "joined the proofs", "at the end", "prover max RSS", "scan max RSS"]
    assert all(float(line.split()[3]) > 0 for line in lines[-2:])
    assert lines[0] == "workers 2" and lines[-1].endswith("(audit exit 0)")


def test_bits_digests_the_scalar_evaluators(monkeypatch):
    # One line over the grid, which reads any change of an evaluator's
    # bits; a smaller grid keeps this quick.
    bits = _load("bits")
    labels = [label for label, _ in bits._scalar_calls()]
    assert len(labels) == len(set(labels))
    monkeypatch.setattr(bits, "GRID", [1e-300, 0.5, 3.0, 1e300])
    line = bits.scalar_line()
    assert re.fullmatch(r"scalars over a 4x4 grid: [0-9a-f]{64}", line)
    assert bits.scalar_line() == line

    from divcascade import cascade

    real = cascade.W
    monkeypatch.setattr(cascade, "W", lambda i, pair: real(i, pair) * 1.5)
    assert bits.scalar_line() != line


def test_the_portable_bits_are_the_committed_ones():
    # The program, listing and scalar lines read no sampled number, so
    # their bits do not follow numpy's CPU dispatch; the audit and sweep
    # lines do, and stay a manual comparison.  A change that moves these
    # bits on purpose rewrites portable_bits.txt from ``bits.py``'s first
    # five lines.
    bits = _load("bits")
    lines = bits.program_lines() + bits.listing_lines() + [bits.scalar_line()]
    assert lines == PORTABLE.read_text().splitlines()


def _bits(value):
    """A float's bits, one key for every NaN."""
    value = float(value)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def test_every_scalar_wrapper_has_the_bits_of_its_measures_value():
    # The wrappers and the grid are those ``bits.py`` digests.
    from divcascade import catalog

    bits = _load("bits")
    wrappers = list(bits.measure_wrappers())
    # W, D, V and U; the mean differences; the base measures; every Lt
    # member; and four members of each of the six families, five of Lt.
    assert len(wrappers) == 9 + 36 + 14 + 15 + 21 + 6 + 17 + 6 * 4 + 5
    for _, mid, wrapper in wrappers:
        value = catalog.get(mid).value
        for a, b in itertools.product(bits.GRID, repeat=2):
            assert _bits(wrapper(a, b)) == _bits(value(a, b)), (mid, a, b)

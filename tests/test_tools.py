"""Smoke tests of the scripts under ``tools``."""

import hashlib
import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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


def test_peaks_imports_and_reads_an_audit_in_process():
    # Importing runs nothing; one audit at 1 worker, in this process,
    # gives a reading at each of the four points and the helpers' line.
    peaks = _load("peaks")
    assert peaks.SRC == TOOLS.parent / "src"
    now = peaks.status()
    assert set(now) == set(peaks.FIELDS) and all(v > 0 for v in now.values())
    lines = peaks.audit_peaks(1)
    assert [line.split("  ")[1].strip() for line in lines[1:]] == [
        "after import", "after start_scan", "after the proofs", "at the end",
        "helpers max RSS"]
    assert lines[0] == "workers 1" and lines[-1].endswith("(audit exit 0)")

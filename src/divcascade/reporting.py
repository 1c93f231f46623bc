"""Audit results and report files, on the standard library alone.

``CheckResult`` is the record every audit check returns.  A report is
the JSON document ``audit.run_audit`` builds from them; this module
writes and loads report files and compares the verdicts of two, so
``report-diff`` loads neither the audit nor numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of one audited claim.

    ``max_violation`` is the worst relative violation seen (negative or
    zero means the claim held with margin everywhere).  Counterexamples
    hold at most the first ten offending samples in sample-index order.
    """

    id: str
    kind: str
    samples: int
    max_violation: float
    verdict: str                      # "pass" or "fail"
    counterexamples: list = field(default_factory=list)
    ref: str = ""
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "verdict": self.verdict,
            "counterexamples": self.counterexamples,
            "paper_ref": self.ref,
        }


def make_result(id: str, kind: str, samples: int, max_violation: float,
                tol: float, counterexamples=None, ref: str = "",
                detail: str = "") -> CheckResult:
    return CheckResult(
        id=id, kind=kind, samples=samples,
        max_violation=float(max_violation),
        verdict="pass" if max_violation <= tol else "fail",
        counterexamples=list(counterexamples or []), ref=ref, detail=detail)


def report_passed(report: dict) -> bool:
    return all(c["verdict"] == "pass" for c in report["checks"])


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def diff_reports(report_a: dict, report_b: dict) -> list[str]:
    """Lines describing checks whose verdicts differ between two reports.

    Raises ValueError for a report that is not an object or whose
    ``checks`` is not a list of objects, each with a string ``id`` and
    ``verdict``.
    """
    va, vb = _verdicts(report_a), _verdicts(report_b)
    lines = []
    for cid in sorted(va.keys() | vb.keys()):
        da, db = va.get(cid, "<absent>"), vb.get(cid, "<absent>")
        if da != db:
            lines.append(f"{cid}: {da} -> {db}")
    return lines


def _verdicts(report) -> dict:
    checks = report.get("checks", []) if isinstance(report, dict) else None
    if not (isinstance(checks, list)
            and all(isinstance(c, dict) and isinstance(c.get("id"), str)
                    and isinstance(c.get("verdict"), str) for c in checks)):
        raise ValueError("a report is a JSON object whose 'checks' is a "
                         "list of objects, each with a string 'id' and "
                         "'verdict'")
    return {c["id"]: c["verdict"] for c in checks}

"""Run the full audit engine and inspect its report and errata table.

Run with: python3 demos/03_audit_and_errata.py
(The complete battery takes a few seconds.)
"""

import collections
import json
import tempfile

from divcascade import audit

config = audit.AuditConfig(chains="all", samples=5000, seed=42, workers=1)
print(f"Running every registered check with {config.samples} samples "
      f"per randomized suite, seed {config.seed} ...")
report = audit.run_audit(config)

checks = report["checks"]
by_kind = collections.Counter(c["kind"] for c in checks)
failures = [c for c in checks if c["verdict"] != "pass"]
print(f"  {len(checks)} checks: " +
      ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items())))
print(f"  failures: {len(failures)}")

worst = max(checks, key=lambda c: c["max_violation"])
print(f"  largest recorded violation: {worst['max_violation']:.3e} "
      f"in {worst['id']} (tolerance scales differ per kind)")

print()
print("The negative control plants a reversed inequality and must find a")
print("counterexample, proving the scanner can actually fail:")
control = next(c for c in checks if c["kind"] == "negative-control")
ce = control["counterexamples"][0]
print(f"  {control['id']}: violation {ce['violation']:.4f} "
      f"at (a, b) = ({ce['a']:.4f}, {ce['b']:.4f})")

print()
print(f"The errata table documents {len(report['errata'])} places where "
      "the printed source text")
print("disagrees with its own surrounding structure; they are reported,")
print("never counted as failures:")
for e in report["errata"][:6]:
    print(f"  {e['id']:4s} {e['location']}")
print(f"  ... and {len(report['errata']) - 6} more")

print()
print("Reports are deterministic: same seed, same bytes (apart from the")
print("timestamp), regardless of worker count.  Diffing a tampered copy:")
with tempfile.TemporaryDirectory() as tmp:
    p1 = f"{tmp}/r1.json"
    p2 = f"{tmp}/r2.json"
    audit.write_report(report, p1)
    tampered = json.loads(json.dumps(report))
    tampered["checks"][10]["verdict"] = "fail"
    audit.write_report(tampered, p2)
    for line in audit.diff_reports(audit.load_report(p1),
                                   audit.load_report(p2)):
        print(f"  {line}")

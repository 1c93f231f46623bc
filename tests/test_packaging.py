"""The declared dependencies, and the library without mpmath."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from divcascade import audit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _imported_packages() -> set[str]:
    """Top-level names of every import in the package's modules."""
    names = set()
    for path in (SRC / "divcascade").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"divcascade"}


def test_runtime_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert declared == {"numpy"}
    assert _imported_packages() == declared


_HIDE_MPMATH = """
import sys

class Refuse:
    asked = []

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            cls.asked.append(name)
            raise ImportError("mpmath is hidden")
        return None

sys.meta_path.insert(0, Refuse)
import divcascade
from divcascade import cli
code = cli.main(sys.argv[1:])
print("mpmath asked for", len(Refuse.asked), "times")
sys.exit(code)
"""


def test_the_library_runs_with_mpmath_hidden():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _HIDE_MPMATH, "audit", "--seed", "7",
         "--samples", "2000"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert sum(ln.startswith("PASS ") for ln in lines) == 299
    assert not any(ln.startswith("FAIL ") for ln in lines)
    assert any(ln.startswith("PASS negative-control:W2<=W1") for ln in lines)
    assert "all checks passed (checks=299, seed=7, samples=2000)" in lines
    assert lines[-1] == "mpmath asked for 0 times"


def test_an_audit_does_not_import_mpmath(monkeypatch):
    # Take mpmath out of sys.modules for the run; monkeypatch puts the
    # loaded modules back afterwards.
    for name in [n for n in sys.modules if n.partition(".")[0] == "mpmath"]:
        monkeypatch.delitem(sys.modules, name)
    cfg = audit.AuditConfig(chains=["means"], samples=500, seed=1)
    assert audit.report_passed(audit.run_audit(cfg))
    assert "mpmath" not in sys.modules

"""The declared dependencies, and the library without mpmath."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divcascade
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


def test_the_import_scan_sees_imports_inside_functions():
    cli_tree = ast.parse((SRC / "divcascade" / "cli.py").read_text())
    nested = [node for fn in ast.walk(cli_tree)
              if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(nested) >= 3
    assert "numpy" in _imported_packages()


def test_the_version_is_a_literal_setuptools_reads_without_imports():
    # pyproject.toml reads attr = "divcascade.__version__"; setuptools takes
    # a top-level literal from the source without importing the package.
    with open(ROOT / "pyproject.toml", encoding="utf-8") as fh:
        assert 'attr = "divcascade.__version__"' in fh.read()
    tree = ast.parse((SRC / "divcascade" / "__init__.py").read_text())
    versions = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__version__"]]
    assert len(versions) == 1
    assert isinstance(versions[0], ast.Constant)
    assert isinstance(versions[0].value, str)
    assert divcascade.__version__ == versions[0].value


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

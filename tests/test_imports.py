"""The lazy package namespace: each command imports only what it runs.

Every check runs in a fresh interpreter, since the test process itself
has long since imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# Every module but __init__ and __main__ (which runs the command line).
LIBRARY = sorted(p.stem for p in (SRC / "divcascade").glob("*.py")
                 if not p.stem.startswith("__"))
# The verifier's machinery, which compute and list never need.
HEAVY = ("audit", "analysis", "cascade", "means", "generators",
         "discriminations", "distributions", "pool")


def fresh(code: str, *argv: str):
    """Run code in a new interpreter; return the JSON on its last line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


_RUN_CLI = """
import contextlib, io, json, sys
from divcascade import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:      # --help
        code = stop.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded(modules):
    return {m.partition(".")[2] for m in modules
            if m.startswith("divcascade.")}


def test_library_modules_are_counted():
    assert len(LIBRARY) == 12
    assert {"cli", "catalog", "ratfun", *HEAVY} <= set(LIBRARY)


def test_import_loads_no_submodule_and_no_numpy():
    # The argument rules live in catalog, and neither catalog nor
    # distributions, which takes its rules from there, loads numpy.
    for name, submodules in [("divcascade", set()),
                             ("divcascade.catalog", {"catalog", "ratfun"}),
                             ("divcascade.distributions",
                              {"catalog", "ratfun", "distributions"})]:
        modules = fresh(f"import json, sys, {name}\n"
                        "print(json.dumps(sorted(sys.modules)))")
        assert "numpy" not in modules, name
        assert loaded(modules) == submodules, name


@pytest.mark.parametrize("argv, code", [
    (["compute", "--measure", "delta", "--a", "3", "--b", "2"], 0),
    (["compute", "--measure", "Hgen:4", "--a", "3", "--b", "2",
      "--format", "json"], 0),
    (["list"], 0),
    (["compute", "--measure", "zeta", "--a", "3", "--b", "2"], 3),
    (["compute", "--measure", "D_SN", "--a", "3", "--b", "2",
      "--format", "json"], 0),
    (["compute", "--measure", "Hgen:64", "--a", "1e-300", "--b", "1e300"],
     2),
    (["--help"], 0),
])
def test_compute_and_list_load_only_the_catalog(argv, code):
    # A scalar is evaluated in Python floats: numpy is never loaded.
    got, modules = fresh(_RUN_CLI, *argv)
    assert got == code
    assert loaded(modules) == {"cli", "catalog", "ratfun"}
    assert "numpy" not in modules


def test_file_compute_loads_distributions_but_not_the_audit(tmp_path):
    # A distribution is validated and summed in Python floats.
    p = tmp_path / "p.json"
    q = tmp_path / "q.csv"
    p.write_text("[0.5, 0.5]")
    q.write_text("0.25,0.75\n")
    got, modules = fresh(_RUN_CLI, "compute", "--measure", "delta",
                         "--p", str(p), "--q", str(q))
    assert got == 0
    assert "distributions" in loaded(modules)
    assert not loaded(modules) & (set(HEAVY) - {"distributions"})
    assert "numpy" not in modules


@pytest.mark.parametrize("verdict, code", [("pass", 0), ("fail", 1)])
def test_report_diff_loads_neither_the_audit_nor_numpy(tmp_path, verdict,
                                                       code):
    paths = []
    for name, v in (("a", "pass"), ("b", verdict)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"checks": [{"id": "c", "verdict": v}]}))
        paths.append(str(path))
    got, modules = fresh(_RUN_CLI, "report-diff", *paths)
    assert got == code
    assert loaded(modules) == {"cli", "catalog", "ratfun", "reporting"}
    assert "numpy" not in modules


def test_audit_loads_numpy():
    got, modules = fresh(_RUN_CLI, "audit", "--samples", "500",
                         "--workers", "1")
    assert got == 0
    assert "numpy" in modules and "audit" in loaded(modules)


@pytest.mark.parametrize("name", ["audit", "cascade", "means", "pool"])
def test_the_exact_half_loads_no_numpy(name):
    # Only the functions that sample import analysis, so an audit can
    # fork its prover before numpy loads; cascade holds the convexity
    # certificates too.
    modules = fresh(f"import json, sys, divcascade.{name}\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in modules and "analysis" not in loaded(modules)


def test_a_convexity_certificate_loads_no_numpy():
    # Its spot check evaluates f'' one scalar at a time.
    verdict, modules = fresh(
        "import json, sys, divcascade\n"
        "res = divcascade.certify_convexity('Hgen:3')\n"
        "print(json.dumps([res.verdict, sorted(sys.modules)]))")
    assert verdict == "pass"
    assert "numpy" not in modules and "analysis" not in loaded(modules)


_SENDS = """
import contextlib, io, json, os, pickle, sys
from divcascade import cli, pool
parent, sends, convex, real = os.getpid(), [], [], pool._send

def send(fd, data):
    if os.getpid() == parent:
        function, argument = pickle.loads(data)
        sends.append([function.__qualname__, "numpy" in sys.modules])
        if function.__qualname__ == "_proofs":
            convex.extend(argument[3])
    return real(fd, data)

pool._send = send
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sends, convex]))
"""


def test_a_fresh_audit_sends_its_proofs_before_numpy_loads():
    # The prover is leased first, while numpy is still absent, with the
    # convexity rows to certify; the scan helpers after it, once analysis
    # has loaded numpy; and the control's scan to a scan helper, once the
    # scan is joined.
    from divcascade import audit

    code, sends, convex = fresh(_SENDS, "audit", "--samples", "40000",
                                "--workers", "2")
    assert code == 0
    assert sends == [["_proofs", False], ["_scan_run", True],
                     ["_scan_run", True], ["_control_scan", True]]
    assert convex == audit._convexity_ids()


def test_analysis_loads_numpy_random():
    # Loaded once before a scan forks, not again in every worker.
    modules = fresh("import json, sys\nimport divcascade.analysis\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "numpy.random" in modules


@pytest.mark.parametrize("name, absent", [("means", "analysis"),
                                          ("cascade", "means")])
def test_the_claim_kernels_live_in_analysis_alone(name, absent):
    # Ordering and Equality, and the context they share, live in
    # analysis alone: means loads no analysis, and cascade no means.
    modules = fresh(f"import json, sys, divcascade.{name}\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert absent not in loaded(modules)


_TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
spans = tracer.Tracer()
tracer.install(spans)
from divcascade import cascade
cascade.audit_chain("means", samples=100, workers=1)
names = spans.summary(0.0)["names"]
print(json.dumps({name: v["count"] for name, v in names.items()}))
"""


def test_the_benchmark_tracer_wraps_names_that_exist():
    # perfbench/run.py --trace 1 installs these wrappers; a name that
    # moved would stop it, and an audit_chain that scanned past
    # analysis.scan_chain_terms would leave its scan span empty.
    counts = fresh(_TRACED, str(SRC.parent / "perfbench"))
    assert counts["cascade.audit_chain"] == 1
    assert counts["analysis.scan_chain_terms"] == 1


@pytest.mark.parametrize("name", LIBRARY)
def test_each_module_imports_first(name):
    # The old eager __init__ fixed one import order, which could hide a
    # circular import between the submodules.
    modules = fresh(f"import json, sys, divcascade.{name}\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert name in loaded(modules)


_SAME_OBJECTS = """
import json
from importlib import import_module
import divcascade
homes = {name: module for module, names in divcascade._EXPORTS.items()
         for name in names.split()}
print(json.dumps({
    "all": divcascade.__all__,
    "homes": homes,
    "differ": [name for name, module in homes.items()
               if getattr(divcascade, name) is not getattr(
                   import_module("divcascade." + module), name)],
}))
"""


def test_every_export_is_the_object_of_its_home_module():
    doc = fresh(_SAME_OBJECTS)
    assert doc["differ"] == []
    assert len(doc["all"]) == len(set(doc["all"])) == 53
    assert set(doc["all"]) == set(doc["homes"]) | {"__version__"}


_STALE = """
import json, sys
from importlib import import_module
checked, stale = [], {}
for name in sys.argv[1:]:
    module = import_module("divcascade." + name)
    if hasattr(module, "__all__"):
        checked.append(name)
        stale[name] = [n for n in module.__all__ if not hasattr(module, n)]
print(json.dumps({"checked": checked, "stale": stale}))
"""


def test_every_submodule_all_names_only_what_it_defines():
    # Only the package's own __all__ is checked by the star import below;
    # a name removed from a submodule could stay in that module's __all__.
    doc = fresh(_STALE, *LIBRARY)
    assert set(doc["checked"]) >= {
        "analysis", "audit", "cascade", "catalog", "discriminations",
        "distributions", "generators", "means", "ratfun"}
    assert doc["stale"] == {name: [] for name in doc["checked"]}


_STAR = """
import json
import divcascade
undir = sorted(set(divcascade.__all__) - set(dir(divcascade)))
namespace = {}
exec("from divcascade import *", namespace)
missing = [n for n in divcascade.__all__ if n not in namespace]
try:
    divcascade.no_such_name
    raised = False
except AttributeError:
    raised = True
print(json.dumps({
    "missing": missing,
    "undir": undir,
    "raised": raised,
    "hasattr": hasattr(divcascade, "no_such_name"),
    "submodule": divcascade.audit.__name__,
    "version": namespace["__version__"],
}))
"""


def test_star_import_dir_and_unknown_names():
    doc = fresh(_STAR)
    assert doc["missing"] == []
    assert doc["undir"] == []
    assert doc["raised"] is True and doc["hasattr"] is False
    assert doc["submodule"] == "divcascade.audit"
    assert doc["version"] == "0.1.0"

"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from divcascade import audit, cascade, catalog, cli


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    """One real audit run through the CLI, shared by the report tests."""
    path = tmp_path_factory.mktemp("reports") / "r1.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["audit", "--chains", "means", "--samples", "300",
                       "--seed", "7", "--report", str(path)])
    assert rc == 0
    return path, buf.getvalue()


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# -- list ------------------------------------------------------------------

def test_list_contains_pinned_entries(capsys):
    rc, out, _ = run(capsys, "list")
    assert rc == 0
    lines = out.splitlines()
    assert any(ln.startswith("W8 = (1/2)F, Eq (9) position 8") for ln in lines)
    assert any(ln.startswith("V1, Eq (13)") for ln in lines)
    assert any(ln.startswith("A, ") for ln in lines)
    # Family descriptors close the listing.
    assert any("t in [" in ln for ln in lines)
    assert sum(1 for ln in lines if ln) >= 108


# -- compute ---------------------------------------------------------------

def test_compute_scalar_examples(capsys):
    rc, out, _ = run(capsys, "compute", "--measure", "V1",
                     "--a", "4", "--b", "1")
    assert rc == 0 and out.strip() == "0.1"
    rc, out, _ = run(capsys, "compute", "--measure", "K",
                     "--a", "5", "--b", "5")
    assert rc == 0 and out.strip() == "0"


def test_compute_json_format(capsys):
    rc, out, _ = run(capsys, "compute", "--measure", "V1",
                     "--a", "4", "--b", "1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"measure": "V1", "value": 0.1}


def test_compute_distribution_files(capsys, tmp_path):
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    p.write_text("0.5,0.5\n")
    q.write_text("0.25,0.75\n")
    rc, out, _ = run(capsys, "compute", "--measure", "delta",
                     "--p", str(p), "--q", str(q))
    assert rc == 0
    assert abs(float(out.strip()) - 2.0 / 15.0) < 1e-14


def test_compute_unknown_measure(capsys):
    rc, _, err = run(capsys, "compute", "--measure", "zeta",
                     "--a", "1", "--b", "2")
    assert rc == 3
    assert "zeta" in err


def test_compute_validation_errors(capsys):
    rc, _, err = run(capsys, "compute", "--measure", "delta",
                     "--a", "-1", "--b", "2")
    assert rc == 2 and "positive" in err
    rc, _, err = run(capsys, "compute", "--measure", "delta", "--a", "1")
    assert rc == 2
    rc, _, err = run(capsys, "compute", "--measure", "delta",
                     "--a", "1", "--b", "2", "--p", "x.csv", "--q", "y.csv")
    assert rc == 2 and "not both" in err
    rc, _, err = run(capsys, "compute", "--measure", "delta",
                     "--p", "missing.csv", "--q", "missing.csv")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("--measure", "V1", "--a", "1e300", "--b", "1e-300"),
    ("--measure", "U15", "--a", "1e200", "--b", "1"),
    ("--measure", "K", "--a", "1e300", "--b", "1e-300", "--format", "json"),
])
def test_compute_non_finite_result_exits_2(capsys, argv):
    rc, out, err = run(capsys, "compute", *argv)
    assert rc == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("text", ["inf", "nan", "1e999"])
def test_compute_rejects_non_finite_input(capsys, text):
    rc, out, err = run(capsys, "compute", "--measure", "delta",
                       "--a", text, "--b", "2")
    assert rc == 2
    assert out == ""
    assert "--a must be positive and finite" in err


def test_compute_bad_distribution_file(capsys, tmp_path):
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    p.write_text("0.5,oops\n")
    q.write_text("0.25,0.75\n")
    rc, _, err = run(capsys, "compute", "--measure", "delta",
                     "--p", str(p), "--q", str(q))
    assert rc == 2
    assert "line 1" in err


@pytest.mark.parametrize("content", ["[null, 0.5, 0.5]", "[[0.5], [0.5]]",
                                     "[true, 0.5, 0.5]", '["0.5", 0.5]'])
def test_compute_json_entry_that_is_not_a_number_exits_2(capsys, tmp_path,
                                                          content):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(content)
    q.write_text("[0.5, 0.5]")
    rc, out, err = run(capsys, "compute", "--measure", "delta",
                       "--p", str(p), "--q", str(q))
    assert rc == 2
    assert out == ""
    assert f"{p}: entry 0 is not a number" in err
    assert "Traceback" not in err


# -- audit -----------------------------------------------------------------

def test_audit_config_errors_exit_5(capsys):
    rc, _, err = run(capsys, "audit", "--samples", "0")
    assert rc == 5 and "configuration error" in err
    rc, _, err = run(capsys, "audit", "--workers", "x")
    assert rc == 5
    rc, _, err = run(capsys, "audit", "--chains", "nosuch")
    assert rc == 5 and "no chain matches" in err
    rc, out, err = run(capsys, "audit", "--chains", ",")
    assert rc == 5 and "no chain selected" in err and out == ""
    rc, _, err = run(capsys, "audit", "--tolerance", "-1")
    assert rc == 5
    rc, _, err = run(capsys, "audit", "--tolerance", "abc")
    assert rc == 5 and "configuration error" in err


@pytest.mark.parametrize("argv, env, message", [
    (["--samples", "1e5"], None, "samples must be an integer, not '1e5'"),
    (["--seed", "abc"], None, "seed must be an integer, not 'abc'"),
    (["--workers", "2.5"], None, "workers must be an integer, not '2.5'"),
    (["--tolerance", "abc"], None,
     "tolerance must be a real number, not 'abc'"),
    ([], "1.5", "DIVCASCADE_SEED must be an integer, not '1.5'"),
])
def test_audit_option_errors_name_the_option(capsys, monkeypatch, argv, env,
                                             message):
    if env is not None:
        monkeypatch.setenv(cli.SEED_ENV, env)
    rc, out, err = run(capsys, "audit", *argv)
    assert (rc, out) == (5, "")
    assert err == f"divcascade: configuration error: {message}\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_audit_non_finite_tolerance_exits_5(capsys, value):
    rc, _, err = run(capsys, "audit", "--tolerance", value)
    assert rc == 5 and "configuration error: tolerance" in err


@pytest.mark.parametrize("value, text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (3.0, "3"), (-0.25, "-0.25"), (1e16, "1e+16")])
def test_fmt_prints_every_double(value, text):
    assert cli._fmt(value) == text


def test_text_audit_with_a_failed_proof_exits_4(capsys, monkeypatch):
    # A failed proof reports max_violation = inf, which the text format
    # must print, not crash on, before it exits 4.
    monkeypatch.setattr(cascade, "is_exact_combination", lambda *claim: False)
    rc, out, err = run(capsys, "audit", "--samples", "2000", "--workers",
                       "1", "--chains", "means")
    lines = out.splitlines()
    assert rc == 4 and err == ""
    assert "FAIL identity:item1a max_violation=inf [Sec 1.1]" in lines
    assert lines[-1].startswith("CHECK FAILURES above")


def test_negative_seed_exits_5(capsys, monkeypatch):
    rc, _, err = run(capsys, "audit", "--seed", "-1")
    assert rc == 5 and "configuration error: seed" in err
    monkeypatch.setenv(cli.SEED_ENV, "-1")
    rc, _, err = run(capsys, "audit")
    assert rc == 5 and "configuration error: seed" in err


def test_default_seed_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert cli._default_seed() == 42
    monkeypatch.setenv(cli.SEED_ENV, "99")
    assert cli._default_seed() == 99


def test_audit_report_file_is_valid(audit_run):
    path, _ = audit_run
    rep = audit.load_report(str(path))
    assert rep["header"]["seed"] == 7
    assert audit.report_passed(rep)


def test_audit_text_output_format(audit_run):
    _, text = audit_run
    lines = text.splitlines()
    assert any(ln.startswith("PASS chain:means") for ln in lines)
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert any(ln.startswith("errata:") for ln in lines)
    assert lines[-1].startswith("all checks passed")
    # Every check appears as one verdict line with its reference tag.
    rep = audit.load_report(str(audit_run[0]))
    verdicts = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    assert len(verdicts) == len(rep["checks"])


def test_audit_json_output_is_pure_json(audit_run, monkeypatch, capsys):
    path, _ = audit_run
    saved = audit.load_report(str(path))
    monkeypatch.setattr(audit, "run_audit", lambda cfg: saved)
    rc, out, _ = run(capsys, "audit", "--chains", "means",
                     "--samples", "300", "--seed", "7", "--format", "json")
    assert rc == 0
    assert json.loads(out) == saved


def test_audit_integer_flags_reach_the_config(audit_run, monkeypatch,
                                              capsys):
    saved, seen = audit.load_report(str(audit_run[0])), []
    monkeypatch.setattr(audit, "run_audit",
                        lambda cfg: seen.append(cfg) or saved)
    rc, _, _ = run(capsys, "audit", "--samples", "500", "--workers", "2",
                   "--seed", "7")
    assert rc == 0
    assert (seen[0].samples, seen[0].workers, seen[0].seed) == (500, 2, 7)
    rc, _, err = run(capsys, "audit", "--workers", "2.5")
    assert rc == 5 and "configuration error" in err and len(seen) == 1


def test_audit_chains_values_reach_the_config(audit_run, monkeypatch,
                                              capsys):
    saved, seen = audit.load_report(str(audit_run[0])), []
    monkeypatch.setattr(audit, "run_audit",
                        lambda cfg: seen.append(cfg) or saved)
    assert run(capsys, "audit", "--chains", "means,eq7",
               "--chains", "eq12")[0] == 0
    assert run(capsys, "audit", "--chains", "all")[0] == 0
    assert run(capsys, "audit")[0] == 0
    assert seen[0].chains == ["means,eq7", "eq12"]
    assert seen[0].chain_ids == ("means", "eq7", "eq12_main", "eq12_branch")
    assert seen[1].chain_ids == seen[2].chain_ids == audit.cascade.chains()


def test_console_entry_point():
    import subprocess
    proc = subprocess.run(["divcascade", "list"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "W8 = (1/2)F" in proc.stdout


def test_python_m_entry_point():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "divcascade", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    listed = [re.split(r",| = ", ln, maxsplit=1)[0]
              for ln in proc.stdout.splitlines() if ln]
    ids = catalog.all_ids()
    assert len(ids) == 108
    assert listed[:len(ids)] == ids


def test_closed_pipe_exits_quietly():
    # The read end is closed before the child writes, so its first flush
    # meets a broken pipe.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "divcascade", "list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_PIPE
    assert err == b""


# -- report-diff -----------------------------------------------------------

def test_report_diff_identical(audit_run, capsys):
    path, _ = audit_run
    rc, out, _ = run(capsys, "report-diff", str(path), str(path))
    assert rc == 0
    assert out.strip() == ""


def test_report_diff_tampered(audit_run, tmp_path, capsys):
    path, _ = audit_run
    rep = audit.load_report(str(path))
    rep["checks"][0]["verdict"] = "fail"
    other = tmp_path / "r2.json"
    audit.write_report(rep, str(other))
    rc, out, _ = run(capsys, "report-diff", str(path), str(other))
    assert rc == 1
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert "pass -> fail" in lines[0]


def test_report_diff_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    rc, _, err = run(capsys, "report-diff", str(bad), str(bad))
    assert rc == 2
    assert "cannot parse" in err


@pytest.mark.parametrize("doc", ["[]", '{"checks": "abc"}',
                                 '{"checks": [1]}'])
def test_report_diff_rejects_a_report_of_the_wrong_shape(tmp_path, capsys,
                                                         doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    rc, _, err = run(capsys, "report-diff", str(bad), str(bad))
    assert rc == 2
    assert "cannot parse reports" in err
    assert "Traceback" not in err


def test_report_diff_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "report-diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"))
    assert rc == 2

"""Command-line interface: exit codes, report files, determinism."""

import json
import math

import besovcalc.suite as suite_mod
from besovcalc.cli import run
from besovcalc.estimates import EstimateReport


def test_norm_command(capsys, tmp_path):
    rc = run(["norm", "--f", "cayley(n=1)", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3.000" in out
    doc = json.loads((tmp_path / "norm.json").read_text())
    assert doc["schema"] == "besov-calc/1"
    assert abs(doc["result"]["value"] - 3.0) < 1e-3


def test_apply_command(capsys, tmp_path):
    rc = run(["apply", "--A", "diag(1,2)", "--f", "exp(a=1)", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3.678794e-01" in out
    doc = json.loads((tmp_path / "apply.json").read_text())
    m = doc["result"]["matrix"]
    assert abs(m[0][0]["re"] - math.exp(-1.0)) < 1e-4
    assert abs(m[1][1]["re"] - math.exp(-2.0)) < 1e-4


def test_profile_command(capsys):
    rc = run(["profile", "--A", "diag(1)"])
    out = capsys.readouterr().out
    assert rc == 0 and "K = 1.0" in out


def test_pair_command(capsys):
    rc = run(["pair", "--g", "resolvent(a=1)", "--f", "const(3)"])
    assert rc == 0
    assert "0.00000000" in capsys.readouterr().out


def test_demo_command(tmp_path, capsys):
    rc = run(
        [
            "demo",
            "--A",
            "diag(1,2)",
            "--f",
            "exp(a=1)",
            "--n-list",
            "1,8",
            "--out",
            str(tmp_path),
            "--plot-data",
        ]
    )
    assert rc == 0
    assert (tmp_path / "demo_curve.csv").exists()
    header = (tmp_path / "demo_curve.csv").read_text().splitlines()[0]
    assert header == "n,shrink,stretch"


SMALL_MANIFEST = """
# small grid for fast checks
cayley_norm n=1|2
expinv_exact t=1
deriv_bound a=2 omega=1
"""


def test_suite_small_manifest(tmp_path, capsys):
    mf = tmp_path / "small.suite"
    mf.write_text(SMALL_MANIFEST)
    rc = run(["suite", "--manifest", str(mf), "--out", str(tmp_path), "--plot-data"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4/4 validators passed" in out
    csv_text = (tmp_path / "suite.csv").read_text()
    assert csv_text.splitlines()[0] == "estimate_id,params,lhs,rhs,slack,pass"
    assert csv_text.count("cayley_norm") == 2
    assert (tmp_path / "suite_slack.csv").exists()
    doc = json.loads((tmp_path / "suite.json").read_text())
    assert doc["schema"] == "besov-calc/1"
    assert all(row["pass"] for row in doc["result"])


def test_suite_determinism(tmp_path):
    mf = tmp_path / "small.suite"
    mf.write_text(SMALL_MANIFEST)
    run(["suite", "--manifest", str(mf), "--out", str(tmp_path / "a")])
    run(["suite", "--manifest", str(mf), "--out", str(tmp_path / "b")])
    for name in ("suite.csv", "suite.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2


def test_suite_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing(params, cfg):
        return EstimateReport("cayley_norm", dict(params), lhs=10.0, rhs=1.0)

    monkeypatch.setitem(suite_mod.VALIDATORS, "cayley_norm", (failing, [{"n": 1}]))
    mf = tmp_path / "fail.suite"
    mf.write_text("cayley_norm n=1\n")
    rc = run(["suite", "--manifest", str(mf), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out


def test_bad_function_spec_exit_code(capsys):
    rc = run(["norm", "--f", "nonsense(1)"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_non_finite_operator_exit_code(capsys):
    for spec in ("diag(nan,1)", "diag(1,inf)"):
        assert run(["profile", "--A", spec]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


def test_empty_operator_profile_exit_code(capsys):
    assert run(["profile", "--A", "diag()"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "1x1" in err and "Traceback" not in err


def test_empty_operator_apply_exit_code(capsys):
    assert run(["apply", "--A", "diag()", "--f", "exp(a=1)"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "1x1" in err and "Traceback" not in err


def test_bad_manifest_exit_code(capsys):
    rc = run(["suite", "--manifest", "/nonexistent/path.suite"])
    assert rc == 1


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 1

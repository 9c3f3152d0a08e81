"""Command-line interface: exit codes, report files, determinism."""

import json
import math

import pytest

import besovcalc.suite as suite_mod
from besovcalc import quadrature
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
    assert set(doc["result"]) == {"A", "f", "matrix", "error", "certified"}
    assert doc["result"]["certified"] is True and "not certified" not in out
    m = doc["result"]["matrix"]
    assert abs(m[0][0]["re"] - math.exp(-1.0)) < 1e-4
    assert abs(m[1][1]["re"] - math.exp(-2.0)) < 1e-4


def test_profile_command(capsys):
    rc = run(["profile", "--A", "diag(1)"])
    out = capsys.readouterr().out
    assert rc == 0 and "K = 1.0" in out


@pytest.mark.parametrize("a,certified", [("1e7", False), ("1", True)])
def test_norm_marks_an_uncertified_value(a, certified, capsys):
    # e0 of resolvent(a=1e7) reads 0.298156 where the exact value is pi
    assert run(["norm", "--kind", "e0", "--f", f"resolvent(a={a})"]) == 0
    assert ("(not certified)" in capsys.readouterr().out) is not certified


def test_profile_reports_gamma_settled(capsys, tmp_path):
    assert run(["profile", "--A", "diag(1e6)", "--out", str(tmp_path)]) == 0
    assert "gamma settled = False" in capsys.readouterr().out
    doc = json.loads((tmp_path / "profile.json").read_text())
    assert set(doc["result"]) == {
        "A", "K", "M", "gamma_hat", "gamma_settled", "gamma_weak_sample"
    }
    assert doc["result"]["gamma_settled"] is False


def test_apply_marks_an_uncertified_bound(capsys, tmp_path):
    argv = ["apply", "--A", "jordan(lambda=0.1,m=2)", "--f", "cayley(n=1)", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert "(not certified)" in capsys.readouterr().out
    assert json.loads((tmp_path / "apply.json").read_text())["result"]["certified"] is False


def test_pair_command(capsys):
    rc = run(["pair", "--g", "resolvent(a=1)", "--f", "const(3)"])
    assert rc == 0
    assert "0.00000000" in capsys.readouterr().out


def test_norm_json_fields(capsys, tmp_path):
    assert run(["norm", "--kind", "hinf", "--f", "exp(a=1)", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "norm.json").read_text())
    assert set(doc["result"]) == {"f", "kind", "value", "error_bound", "pieces", "certified"}
    assert doc["result"]["kind"] == "hinf" and doc["result"]["certified"] is True


@pytest.mark.parametrize("panels,converged", [(None, True), (5, False)])
def test_pair_marks_an_unconverged_pairing(panels, converged, capsys, tmp_path, monkeypatch):
    # a budget of 5 panels stops the pairing's integrals short of their tolerance
    if panels is not None:
        monkeypatch.setattr(quadrature, "_MAX_PANELS", panels)
    argv = ["pair", "--g", "resolvent(a=1)", "--f", "exp(a=1)", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert ("(not converged)" in capsys.readouterr().out) is not converged
    doc = json.loads((tmp_path / "pair.json").read_text())
    assert set(doc["result"]) == {"g", "f", "value", "error"}


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
    doc = json.loads((tmp_path / "demo.json").read_text())
    assert set(doc["result"]) == {"A", "f", "n", "shrink", "stretch"}
    assert doc["result"]["n"] == [1, 8]


def test_demo_seed_and_plot_data(tmp_path, capsys):
    for seed in ("5", "6"):
        argv = ["demo", "--A", "diag(1,2)", "--n-list", "1,8", "--out", str(tmp_path / seed)]
        assert run(argv + ["--seed", seed, "--plot-data"]) == 0
        assert (tmp_path / seed / "demo_curve.csv").exists()
    capsys.readouterr()
    # the seed picks the start vector
    a, b = (json.loads((tmp_path / s / "demo.json").read_text()) for s in ("5", "6"))
    assert a["result"]["shrink"] != b["result"]["shrink"]


@pytest.mark.parametrize("n_list", ["0", "abc", "", "1,-4", "2.5"])
def test_demo_bad_n_list_exit_code(n_list, capsys):
    rc = run(["demo", "--A", "diag(1,2)", "--n-list", n_list])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize(
    "argv,extras",
    [
        (["norm", "--f", "cayley(n=1)"], set()),
        (["pair", "--g", "resolvent(a=1)", "--f", "const(3)"], set()),
        (["apply", "--A", "diag(1,2)", "--f", "exp(a=1)"], set()),
        (["profile", "--A", "diag(1)"], set()),
        (["suite", "--plot-data"], {"suite.csv", "suite_slack.csv"}),
        (["demo", "--A", "diag(1,2)", "--n-list", "1,8", "--plot-data"], {"demo_curve.csv"}),
    ],
    ids=["norm", "pair", "apply", "profile", "suite", "demo"],
)
def test_out_holds_the_document_and_its_extras(argv, extras, tmp_path, capsys):
    """Each command writes <command>.json, plus its CSV files, and nothing else."""
    if argv[0] == "suite":
        mf = tmp_path / "small.suite"
        mf.write_text(SMALL_MANIFEST)
        argv = argv + ["--manifest", str(mf)]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert {p.name for p in (tmp_path / "out").iterdir()} == {f"{argv[0]}.json"} | extras
    doc = json.loads((tmp_path / "out" / f"{argv[0]}.json").read_text())
    assert doc["schema"] == "besov-calc/1" and doc["command"] == argv[0]


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
    rc = run(["suite", "--manifest", str(mf), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out and "0/1 validators passed" in out
    # a failing validator still gets its reports written
    doc = json.loads((tmp_path / "out" / "suite.json").read_text())
    assert [row["pass"] for row in doc["result"]] == [False]
    assert (tmp_path / "out" / "suite.csv").read_text().splitlines()[1].endswith(",False")


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


@pytest.mark.parametrize("family", ["fractional_smoothing", "bernstein_resolvent"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_manifest_lambda_exit_code(family, value, tmp_path, capsys):
    mf = tmp_path / "one.suite"
    mf.write_text(f"{family} lambda={value}\n")
    assert run(["suite", "--manifest", str(mf)]) == 1
    err = capsys.readouterr().err
    assert f"{family} lambda" in err and "Traceback" not in err


@pytest.mark.parametrize("first", ["x", "2.5"])
def test_bad_matrix_file_size_exit_code(first, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(f"{first}\n1+0i 0+0i\n0+0i 2+0i\n")
    assert run(["profile", "--A", f"file:{path}"]) == 1
    err = capsys.readouterr().err
    assert "matrix size" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["norm", "--kind", "e0", "--f", "resolvent(a=1e160)"], "resolvent"),
        (["profile", "--A", "diag(1e160)"], "diag(1e160)"),
        (["apply", "--A", "diag(1e160)", "--f", "cayley(n=1)"], "diag(1e160)"),
    ],
    ids=["e0-resolvent", "profile", "apply"],
)
def test_input_whose_square_overflows_exit_code(argv, named, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--f", "exp(a=1)", "--seed", "1"],
        ["apply", "--A", "diag(1)", "--f", "exp(a=1)", "--seed", "7"],
        ["suite", "--seed", "3"],
        ["pair", "--g", "resolvent(a=1)", "--f", "const(3)", "--plot-data"],
        ["profile", "--A", "diag(1)", "--plot-data"],
        ["apply", "--A", "diag(1,2)", "--f", "exp(a=1)", "--tol", "1e-3"],
        ["demo", "--A", "diag(1,2)", "--n-list", "1,4", "--tol", "1e-3"],
        ["profile", "--A", "diag(1)", "--tol", "1e-3"],
    ],
    ids=[
        "norm-seed", "apply-seed", "suite-seed", "pair-plot-data", "profile-plot-data",
        "apply-tol", "demo-tol", "profile-tol",
    ],
)
def test_flag_on_a_command_that_ignores_it_exit_code(argv, capsys):
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_profile_seed(tmp_path, capsys):
    for seed in ("7", "8"):
        argv = ["profile", "--A", "diag(1,2)", "--out", str(tmp_path / seed)]
        assert run(argv + ["--seed", seed]) == 0
    capsys.readouterr()
    a, b = (json.loads((tmp_path / s / "profile.json").read_text()) for s in ("7", "8"))
    # the seed picks the weak-sample vectors and nothing else
    assert a["result"]["gamma_weak_sample"] != b["result"]["gamma_weak_sample"]
    assert a["result"]["gamma_hat"] == b["result"]["gamma_hat"]


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 1

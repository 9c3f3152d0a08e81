"""Spec strings: one argument grammar for function and operator specs, the
inputs it rejects, and the command-line exit codes for them."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import besovcalc
from besovcalc.cli import run
from besovcalc.errors import InvalidParameter, UnknownSpec
from besovcalc.functions import (
    SpecArgs,
    exp_decay,
    parse_complex,
    parse_function_spec,
    resolvent,
)
from besovcalc.operators import jordan_operator, parse_operator_spec
from besovcalc.quadrature import DEFAULT_CONFIG
from besovcalc.report import reports_to_csv, reports_to_json
from besovcalc.suite import VALIDATORS, parse_manifest, run_suite

ZS = np.array([0.5, 1.0 + 2.0j, 3.0 - 0.5j])

# body -> (positional, named) as both parsers read it
GRAMMAR = [
    ("1,2", ["1", "2"], {}),
    ("1;2", ["1", "2"], {}),
    ("a=1+2i", [], {"a": "1+2i"}),
    ("A=1 ; Lambda = 2", [], {"a": "1", "lambda": "2"}),
    ("4,seed=3;angle=0.5", ["4"], {"seed": "3", "angle": "0.5"}),
    (
        "atoms=[(0,1),(1,2)];density=lebesgue(0,1)",
        [],
        {"atoms": "[(0,1),(1,2)]", "density": "lebesgue(0,1)"},
    ),
    ("6,box=[1,2,-0.5,0.5]", ["6"], {"box": "[1,2,-0.5,0.5]"}),
    ("", [], {}),
]


@pytest.mark.parametrize("body,positional,named", GRAMMAR)
@pytest.mark.parametrize("family", ["exp", "diag"])
def test_one_grammar(family, body, positional, named):
    args = SpecArgs(f"{family}({body})", "any")
    assert (args.name, args.positional, args.named) == (family, positional, named)


# spellings of one function spec: positional or key=value, ',' or ';', key case
FUNCTION_SPELLINGS = [
    ["resolvent(a=1+2i)", "resolvent(1+2i)", "resolvent(A=1+2i)", "RESOLVENT( a = 1+2i )"],
    ["band(eps=1,sigma=4)", "band(1,4)", "band(1;sigma=4)", "band(EPS=1;SIGMA=4)"],
    ["cayley(n=2)", "cayley(2)", "cayley(N=2.0)"],
    [
        "laplace(atoms=[(0,1),(2,1)];density=lebesgue(0,1))",
        "laplace(density=lebesgue(0,1),atoms=[(0,1),(2,1)])",
        "laplace(ATOMS=[(0,1),(2,1)];Density=lebesgue(0,1))",
    ],
    ["eta", "eta()", "eta(1)", "eta(delta=1)"],
    [
        "laplace(density=-2*exp(rate=2))",
        "laplace(density=-2*exp(2))",
        "laplace(DENSITY=-2*EXP(RATE=2))",
    ],
    [
        "laplace(density=lebesgue)",
        "laplace(density=lebesgue(0,1))",
        "laplace(density=lebesgue(b=1;a=0))",
    ],
]

OPERATOR_SPELLINGS = [
    ["jordan(lambda=1,m=2)", "jordan(1,2)", "jordan(1;m=2)", "jordan(LAMBDA=1;M=2)"],
    [
        "normal_random(6,seed=2,box=[1,2,-0.5,0.5])",
        "normal_random(n=6;seed=2;box=[1,2,-0.5,0.5])",
        "normal_random(6,2,BOX=[1,2,-0.5,0.5])",
    ],
    ["sectorial_random(4,seed=3,angle=0.5)", "sectorial_random(4;3;0.5)"],
    ["diag(1,2i)", "diag(1;2i)", "diag( 1 , 2i )"],
]


@pytest.mark.parametrize("specs", FUNCTION_SPELLINGS, ids=lambda s: s[0])
def test_function_spellings_agree(specs):
    want = parse_function_spec(specs[0])(ZS)
    for spec in specs[1:]:
        assert np.array_equal(parse_function_spec(spec)(ZS), want), spec


@pytest.mark.parametrize("specs", OPERATOR_SPELLINGS, ids=lambda s: s[0])
def test_operator_spellings_agree(specs):
    want = parse_operator_spec(specs[0]).matrix
    for spec in specs[1:]:
        assert np.array_equal(parse_operator_spec(spec).matrix, want), spec


BAD_FUNCTIONS = [
    "cayley(n=1.5)",
    "cayley(n=1+1i)",
    "exp(a=nan)",
    "exp(a=1e400)",
    "resolvent(a=nan)",
    "resolvent(a=1,b=7)",
    "exp(1,2,3)",
    "exp(1,a=1)",
    "exp(a=1,a=2)",
    "expinv(t=2i)",
    "bernstein_res(1,alpha=0.5,beta=2,theta=0.785,lambda=1)",
    "laplace(density=exp(rate=nan))",
    "laplace(density=exp(2,rate=2))",
    "laplace(density=lebesgue(0,1,2))",
    "laplace(density=gauss(1))",
    "laplace(density=nan*exp(1))",
    "laplace(density=inf*exp(1))",
    "laplace(density=inf*lebesgue(0,1))",
    "laplace(atoms=[(nan,1)])",
    "laplace(atoms=[(1i,1)])",
    "band(eps=1,sigma=4,coeffs=[(1,nan)])",
]

BAD_OPERATORS = [
    "jordan(lambda=1,m=2.5)",
    "jordan(lambda=1,m=0)",
    "normal_random(n=3.5)",
    "normal_random(3,seed=4.7)",
    "normal_random(3,sed=5)",
    "normal_random(3,box=[1,2,nan,1])",
    "sectorial_random(3,seed=1,angle=0.5,extra=1)",
    "diag(1,2,m=3)",
    "diag(nan,1)",
]


@pytest.mark.parametrize("spec", BAD_FUNCTIONS)
def test_bad_function_spec_rejected(spec, capsys):
    with pytest.raises(InvalidParameter):
        parse_function_spec(spec)
    assert run(["norm", "--kind", "hinf", "--f", spec]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", BAD_OPERATORS)
def test_bad_operator_spec_rejected(spec, capsys):
    with pytest.raises(InvalidParameter):
        parse_operator_spec(spec)
    assert run(["profile", "--A", spec]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec", ["laplace(atoms=[(0,1])", "band(eps=1,sigma=4,coeffs=[(1,1),(4,-1])"]
)
def test_unbalanced_pair_list_rejected(spec):
    with pytest.raises(InvalidParameter, match="unbalanced tuple"):
        parse_function_spec(spec)


def test_bare_names():
    assert parse_function_spec("eta").label == parse_function_spec("eta()").label
    with pytest.raises(UnknownSpec):
        parse_operator_spec("diag")
    with pytest.raises(UnknownSpec):
        parse_function_spec("nosuch")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_catalog_rejects_non_finite(bad):
    with pytest.raises(InvalidParameter):
        exp_decay(bad)
    with pytest.raises(InvalidParameter):
        resolvent(bad)
    with pytest.raises(InvalidParameter):
        resolvent(complex(1.0, bad))


@pytest.mark.parametrize("m", [0, -1, 2.5])
def test_jordan_block_size(m):
    with pytest.raises(InvalidParameter):
        jordan_operator(1.0, m)


@pytest.mark.parametrize(
    "manifest", ["cayley_norm n=1.5", "cayley_power n=2.5", "cayley_power A=diag(1,2) n=x"]
)
def test_manifest_integer_rejected(manifest, tmp_path):
    with pytest.raises(InvalidParameter):
        run_suite(manifest)
    mf = tmp_path / "bad.suite"
    mf.write_text(manifest + "\n")
    assert run(["suite", "--manifest", str(mf)]) == 1


@pytest.mark.parametrize(
    "manifest",
    ["deriv_bound omega=nan", "vitse_reg t=inf", "exp_window tau=-inf", "bernstein_resolvent theta=1+i"],
)
def test_manifest_real_rejected(manifest, tmp_path, capsys):
    with pytest.raises(InvalidParameter, match="finite real number"):
        run_suite(manifest)
    mf = tmp_path / "bad.suite"
    mf.write_text(manifest + "\n")
    assert run(["suite", "--manifest", str(mf), "--out", str(tmp_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "manifest,name",
    [
        ("deriv_bound omega=0", "omega"),
        ("deriv_bound omega=-1", "omega"),
        ("deriv_operator omega=0", "omega"),
        ("deriv_operator omega=-1", "omega"),
        ("smoothed_window omega=0", "omega"),
        ("smoothed_window tau=0", "tau"),
        ("smoothed_window omega=-1", "omega"),
        ("fractional_smoothing alpha=0", "alpha"),
        ("fractional_smoothing omega=0", "omega"),
        ("fractional_smoothing alpha=-1", "alpha"),
        ("decay_majorant omega=0", "omega"),
        ("cayley_power n=0", "n"),
        ("cayley_power n=-3", "n"),
        ("product_bound omega=0", "omega"),
        ("band_operator f=exp(a=1) eps=0", "eps"),
    ],
)
def test_manifest_outside_hypotheses_rejected(manifest, name, tmp_path, capsys):
    """A parameter outside its bound's hypotheses is bad input, not a division
    by zero, a math domain error, a failed bound or a stalled quadrature."""
    with pytest.raises(InvalidParameter, match=rf"^{name} must be positive"):
        run_suite(manifest)
    mf = tmp_path / "bad.suite"
    mf.write_text(manifest + "\n")
    assert run(["suite", "--manifest", str(mf), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"{name} must be positive" in err and "Traceback" not in err


def test_manifest_band_embedding_coeffs():
    """Manifest coefficients are text, read by the band(...) spec's pair-list parser."""
    (rep,) = run_suite("band_embedding eps=1 sigma=4 coeffs=[(1,1),(4,-1)]")
    run_default, grid = VALIDATORS["band_embedding"]
    ref = run_default(grid[0], DEFAULT_CONFIG)
    assert (rep.lhs, rep.rhs) == (ref.lhs, ref.rhs)
    # real weights are reported as reals, as the default grid's are
    assert rep.params["coeffs"] == [[1.0, 1.0], [4.0, -1.0]]
    assert reports_to_csv([rep]) == reports_to_csv([ref])


@pytest.mark.parametrize(
    "line,full",
    [
        ("inverse_generator t=0.5", "inverse_generator A=diag(1,4) t=0.5"),
        (
            "smoothed_window omega=0.5",
            "smoothed_window A=diag(1,2) g=resolvent(a=2) omega=0.5 tau=1",
        ),
    ],
)
def test_manifest_line_takes_row_defaults(line, full):
    """A key that a manifest line leaves out takes its row's default, which here is not the
    first grid point (A=diag(1) for inverse_generator, tau=0.1 for smoothed_window)."""
    assert reports_to_json(run_suite(line)) == reports_to_json(run_suite(full))


@pytest.mark.parametrize("name", list(VALIDATORS))
def test_manifest_unknown_key_rejected(name):
    with pytest.raises(InvalidParameter, match=rf"^{name} takes no parameter 'bogus'"):
        parse_manifest(f"{name} bogus=1")


@pytest.mark.parametrize(
    "line", ["cayley_norm N=8", "expinv_exact tt=4", "deriv_operator a=2 omega=1 Omega=1"]
)
def test_manifest_unknown_key_exit_code(line, tmp_path, capsys):
    """A misspelt or miscased key is an error before any validator runs, not a
    silent run at the default value."""
    mf = tmp_path / "bad.suite"
    mf.write_text(line + "\n")
    assert run(["suite", "--manifest", str(mf), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "takes no parameter" in err and "Traceback" not in err
    assert not (tmp_path / "suite.csv").exists()


@pytest.mark.parametrize(
    "name,key,value",
    [
        ("exp_window", "g", "resolvent(a=2)"),
        ("band_operator", "f", "band(eps=1,sigma=4)"),
        ("smoothed_window", "A", "diag(1,2)"),
        ("smoothed_window", "g", "resolvent(a=2)"),
        ("fractional_smoothing", "A", "diag(1,2)"),
        ("fractional_smoothing", "g", "resolvent(a=2)"),
        ("deriv_operator", "A", "diag(1,2)"),
        ("deriv_operator", "a", "2"),
    ],
)
def test_manifest_runner_keys_accepted(name, key, value):
    assert parse_manifest(f"{name} {key}={value}") == [(name, [{key: value}])]


def test_manifest_colon_separates_only_after_the_id(tmp_path):
    for line in ("cayley_norm: n=2", "cayley_norm:n=2", "cayley_norm : n=2", "cayley_norm n=2"):
        assert parse_manifest(line) == [("cayley_norm", [{"n": "2"}])]
    m = tmp_path / "m.txt"
    m.write_text("1\n1\n")
    (rep,) = run_suite(f"sectorial_gamma A=file:{m}")
    (ref,) = run_suite("sectorial_gamma A=diag(1)")
    assert (rep.lhs, rep.rhs) == (ref.lhs, ref.rhs)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["demo", "--A", "diag(1,2)", "--n-list", "abc"], "--n-list entry"),
        (["demo", "--A", "diag(1,2)", "--n-list", "1,"], "--n-list entry"),
        (["norm", "--f", "exp(a=abc)"], "exp 'a'"),
        (["norm", "--f", "band(eps=1,sigma=4,coeffs=[(1,x)])"], "weight"),
        (["profile", "--A", "normal_random(3,box=[1,2,q,1])"], "box"),
    ],
)
def test_malformed_literal_names_parameter(argv, name, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a finite") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,name",
    [
        (["profile", "--A", "diag(1)", "--seed", "-1"], "seed"),
        (["demo", "--A", "diag(1,2)", "--seed", "-1"], "seed"),
        (["profile", "--A", "normal_random(-1)"], "size n"),
        (["profile", "--A", "normal_random(3,seed=-1)"], "seed"),
        (["profile", "--A", "normal_random(3,box=[5,1,-1,1])"], "box"),
        (["profile", "--A", "sectorial_random(-2,seed=1,angle=0.3)"], "size n"),
        (["profile", "--A", "sectorial_random(3,seed=-1,angle=0.3)"], "seed"),
    ],
)
def test_random_spec_rejections_name_parameter(argv, name, capsys):
    """random.Random(-s) repeats the stream of Random(s), so a negative seed is
    rejected, as are a negative size and an inverted spectrum box."""
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["inf", "-inf", "1+infi", "nan"])
def test_non_finite_literal_message(text, capsys):
    assert not math.isfinite(abs(parse_complex(text)))
    assert run(["norm", "--kind", "hinf", "--f", f"exp(a={text})"]) == 1
    err = capsys.readouterr().err
    assert "must be a finite" in err and "bad complex literal" not in err


def test_imaginary_unit_spellings():
    for text, value in [("i", 1j), ("-i", -1j), ("1+i", 1 + 1j), ("2-3.5I", 2 - 3.5j), ("1e-3i", 1e-3j)]:
        assert parse_complex(text) == value


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_exit_code(tol, capsys):
    assert run(["norm", "--f", "cayley(n=1)", "--tol", tol]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("module", ["besovcalc", "besovcalc.cli"])
def test_module_entry_point(module):
    src = os.path.dirname(os.path.dirname(besovcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "norm", "--f", "cayley(n=1)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "b-norm[cayley(n=1)] = 3.000000" in done.stdout

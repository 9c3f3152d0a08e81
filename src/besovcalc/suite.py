"""Validator registry, default parameter grids, and the manifest-driven runner."""

from __future__ import annotations

import inspect
import math
import re

import numpy as np

from .applications import (
    check_band_operator,
    check_deriv_operator,
    check_exp_stable_decay,
    check_fractional_smoothing,
    check_hilbert_calc_bound,
    check_sectorial_gamma,
    check_smoothed_window,
    cayley_power_check,
    inverse_generator_check,
    spectral_mapping_check,
)
from .errors import InvalidParameter, UnknownSpec
from .estimates import (
    EstimateReport,
    check_band_embedding,
    check_bernstein,
    check_cayley,
    check_decay_majorant,
    check_deriv_bound,
    check_expinv_exact,
    check_exp_window,
    check_product_bound,
    check_vitse_reg,
)
from .functions import (
    BernsteinFunction,
    DecayProfile,
    _parse_pair_list,
    band_function,
    mul,
    parse_function_spec,
    parse_number,
    resolvent,
    scale,
)
from .operators import parse_operator_spec
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, ShapeEnvelope

__all__ = ["run_suite", "parse_manifest", "default_manifest", "VALIDATORS"]


def _r_squared_and_majorant():
    """r_1^2 and its boundary majorant 1/(1 + t^2)."""
    h = DecayProfile(
        h=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
        envelope=ShapeEnvelope(c=1.0, p=2.0, s=1.0),
    )
    return mul(resolvent(1.0), resolvent(1.0)), h


def _resolvent_and_deriv(a: float):
    """r_a and its derivative -r_a^2."""
    return resolvent(a), scale(mul(resolvent(a), resolvent(a)), -1.0)


def _bernstein_from(name: str) -> BernsteinFunction:
    table = {
        "linear": BernsteinFunction(b=1.0),
        "atomic": BernsteinFunction(jumps=((1.0, 1.0),)),
        "mixed": BernsteinFunction(a=0.1, b=0.5, jumps=((2.0, 0.5),)),
    }
    if name not in table:
        raise InvalidParameter(f"unknown Bernstein generator {name!r}")
    return table[name]


# How the manifest reads each key's text: a spec parser, or the kind of number (a finite
# real for any key not listed).  Defaults and grid values are read from their str().
_READERS = {
    "A": parse_operator_spec,
    "f": parse_function_spec,
    "g": parse_function_spec,
    "fb": _bernstein_from,
    "coeffs": _parse_pair_list,
    "n": int,
    "lambda": complex,
}


def _read(family: str, key: str, value):
    """One manifest value, named "<family> <key>" in errors; None, a default that the
    family's adapter derives, stays None."""
    if value is None:
        return None
    reader = _READERS.get(key, float)
    if isinstance(reader, type):
        return parse_number(str(value), f"{family} {key}", reader)
    return reader(str(value))


def _runner(family: str, check, defaults: dict):
    """runner(params, cfg): check(*values) for the keys of defaults in order, each read from
    params or else from its default, with cfg last when check's signature names one."""
    takes_cfg = "cfg" in inspect.signature(check).parameters

    def run(params: dict, cfg: QuadratureConfig) -> EstimateReport:
        values = [_read(family, k, params.get(k, d)) for k, d in defaults.items()]
        return check(*values, cfg) if takes_cfg else check(*values)

    return run


# Adapters for the families whose checks take inputs derived from the manifest's values.


def _band_embedding(eps, sigma, coeffs, cfg):
    if coeffs is None:
        coeffs = [(eps, 1.0), (sigma, -1.0)]
    return check_band_embedding(coeffs, eps, sigma, cfg)


def _band_operator(A, f, eps, sigma):
    return check_band_operator(A, f if f is not None else band_function(eps, sigma), eps, sigma)


def _deriv_bound(a, omega, cfg):
    return check_deriv_bound(*_resolvent_and_deriv(a), omega, cfg)


def _deriv_operator(A, a, omega):
    return check_deriv_operator(A, *_resolvent_and_deriv(a), omega)


def _decay_majorant(omega, cfg):
    return check_decay_majorant(*_r_squared_and_majorant(), omega, cfg)


def _exp_stable_decay(A, cfg):
    return check_exp_stable_decay(A, *_r_squared_and_majorant(), cfg)


def _spectral_mapping(A, f):
    res = spectral_mapping_check(A, f)
    lhs = res["hausdorff"] if res["sectorial"] else res["inclusion_defect"]
    params = {"A": A.label, "f": f.label, "two_sided": res["sectorial"]}
    return EstimateReport("spectral_mapping", params, lhs, 1e-4, 0.0, info=res)


_SECTORIAL = "sectorial_random(4,seed=3,angle=0.5236)"

# id -> (runner, default grid).  A row names the family, its check, the check's defaults in
# the order it takes them, and the default grid.  A key that a manifest line leaves out takes
# its default, which for seven families is not the first grid point.  run_suite and
# perfbench/workloads.py call every runner as runner(params, cfg).
VALIDATORS = {
    family: (_runner(family, check, defaults), grid)
    for family, check, defaults, grid in [
        ("band_embedding", _band_embedding, {"eps": 1.0, "sigma": 4.0, "coeffs": None},
            [{"eps": 1.0, "sigma": 4.0},
             {"eps": 1.0, "sigma": 2.0, "coeffs": [(1.0, 1.0), (2.0, 1.0)]}]),
        ("deriv_bound", _deriv_bound, {"a": 2.0, "omega": 1.0},
            [{"a": 2.0, "omega": 1.0}, {"a": 4.0, "omega": 2.0}]),
        ("product_bound", check_product_bound,
            {"f": "resolvent(a=1)", "g": "resolvent(a=2)", "omega": 1.0},
            [{"f": "resolvent(a=1)", "g": "resolvent(a=2)", "omega": 1.0},
             {"f": "exp(a=1)", "g": "resolvent(a=2)", "omega": 1.0}]),
        ("exp_window", check_exp_window, {"g": "resolvent(a=2)", "tau": 1.0, "omega": 1.0},
            [{"g": "resolvent(a=2)", "tau": 1.0, "omega": 1.0},
             {"g": "resolvent(a=2)", "tau": 0.5, "omega": 1.0}]),
        ("decay_majorant", _decay_majorant, {"omega": 1.0}, [{"omega": 0.5}, {"omega": 1.0}]),
        ("expinv_exact", check_expinv_exact, {"t": 1.0},
            [{"t": t} for t in (0.25, 1.0, 4.0, 100.0)]),
        ("vitse_reg", check_vitse_reg, {"t": 1.0}, [{"t": t} for t in (0.1, 1.0, 10.0, 100.0)]),
        ("cayley_norm", check_cayley, {"n": 1}, [{"n": n} for n in (1, 2, 8, 64)]),
        ("bernstein_resolvent", check_bernstein,
            {"fb": "linear", "alpha": 0.5, "beta": 2.0, "theta": math.pi / 4, "lambda": "1"},
            [{"fb": "linear", "alpha": 0.5, "beta": 2.0, "theta": math.pi / 4, "lambda": "1"},
             {"fb": "atomic", "alpha": 0.5, "beta": 2.0, "theta": math.pi / 4, "lambda": "1"},
             {"fb": "mixed", "alpha": 0.4, "beta": 2.0, "theta": math.pi / 8,
              "lambda": "2+0.5i"}]),
        ("hilbert_calc_bound", check_hilbert_calc_bound, {"A": "diag(1,2)", "f": "exp(a=1)"},
            [{"A": "diag(1,2)", "f": "exp(a=1)"},
             {"A": "normal_random(3,seed=5)", "f": "cayley(n=4)"},
             {"A": "jordan(lambda=1,m=2)", "f": "exp(a=1)"},
             {"A": "jordan(lambda=0.1,m=2)", "f": "exp(a=1)"}]),
        ("sectorial_gamma", check_sectorial_gamma, {"A": "diag(1)"},
            [{"A": "diag(1)"}, {"A": "diag(1,2)"}, {"A": _SECTORIAL}]),
        ("band_operator", _band_operator, {"A": "diag(1,2)", "f": None, "eps": 1.0, "sigma": 4.0},
            [{"A": "diag(1,2)", "eps": 1.0, "sigma": 4.0, "f": "band(eps=1,sigma=4)"},
             {"A": _SECTORIAL, "eps": 1.0, "sigma": 4.0, "f": "band(eps=1,sigma=4)"},
             {"A": "normal_random(3,seed=11)", "eps": 1.0, "sigma": 2.0,
              "f": "band(eps=1,sigma=2)"}]),
        ("smoothed_window", check_smoothed_window,
            {"A": "diag(1,2)", "g": "resolvent(a=2)", "omega": 1.0, "tau": 1.0},
            [{"A": "diag(1,2)", "g": "resolvent(a=2)", "omega": o, "tau": t}
             for o in (0.1, 1.0) for t in (0.1, 1.0)]),
        ("fractional_smoothing", check_fractional_smoothing,
            {"A": "diag(1,2)", "g": "resolvent(a=2)", "lambda": "1", "alpha": 1.0, "omega": 1.0},
            [{"A": "diag(1,2)", "g": "resolvent(a=2)", "alpha": a, "omega": 1.0, "lambda": "1"}
             for a in (0.5, 1.0, 2.0)]),
        ("deriv_operator", _deriv_operator, {"A": "diag(1,2)", "a": 2.0, "omega": 1.0},
            [{"A": "diag(1,2)", "a": 2.0, "omega": 1.0},
             {"A": "diag(1,2)", "a": 3.0, "omega": 1.5},
             {"A": "diag(1,2)", "a": 2.0, "omega": 0.5}]),
        ("exp_stable_decay", _exp_stable_decay, {"A": "diag(1,2)"},
            [{"A": "diag(1,2)"}, {"A": "diag(2,3,5)"}, {"A": "normal_random(3,seed=9)"}]),
        ("inverse_generator", inverse_generator_check, {"A": "diag(1,4)", "t": 10.0},
            [{"A": "diag(1)", "t": 0.5}, {"A": "diag(2)", "t": 10.0},
             {"A": "diag(1,4)", "t": 10.0}, {"A": "diag(1,4)", "t": 0.01}]),
        ("cayley_power", cayley_power_check, {"A": "diag(1,2)", "n": 16},
            [{"A": "diag(1,2)", "n": 1}, {"A": "diag(1,2)", "n": 16},
             {"A": "diag(i,-i,1)", "n": 64}]),
        ("spectral_mapping", _spectral_mapping, {"A": "diag(1,2)", "f": "cayley(n=1)"},
            [{"A": "diag(1,2)", "f": "cayley(n=1)"},
             {"A": "jordan(lambda=1,m=2)", "f": "exp(a=1)"},
             {"A": _SECTORIAL, "f": "eta"}]),
    ]
}


# the validator id, an optional `:` after it, and the key=value tokens
_MANIFEST_LINE = re.compile(r"([^\s:]*)\s*:?(.*)")


def default_manifest() -> str:
    lines = ["# one validator per line: id [param=value ...]; '|' separates grid values"]
    for name in VALIDATORS:
        lines.append(name)
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> list[tuple[str, list[dict]]]:
    """Each line: `validator_id[:] key=v1|v2 key2=w`; grids are cartesian products.

    Only a `:` right after the id separates, so a value such as `A=file:m.txt`
    keeps its own.  A validator takes exactly the keys its default grid names."""
    jobs: list[tuple[str, list[dict]]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, rest = _MANIFEST_LINE.fullmatch(line).groups()
        if name not in VALIDATORS:
            raise UnknownSpec(f"unknown validator {name!r} in manifest")
        default, tokens = VALIDATORS[name][1], rest.split()
        if not tokens:
            jobs.append((name, default))
            continue
        keys = set().union(*default)
        grid: list[dict] = [{}]
        for tok in tokens:
            if "=" not in tok:
                raise InvalidParameter(f"bad manifest token {tok!r}")
            k, v = tok.split("=", 1)
            if k not in keys:
                raise InvalidParameter(
                    f"{name} takes no parameter {k!r} (it takes {', '.join(sorted(keys))})"
                )
            options = v.split("|")
            grid = [dict(g, **{k: opt}) for g in grid for opt in options]
        jobs.append((name, grid))
    return jobs


def run_suite(
    manifest_text: str | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[EstimateReport]:
    """Run every validator in the manifest (default: full registry), in order."""
    jobs = parse_manifest(manifest_text if manifest_text is not None else default_manifest())
    reports: list[EstimateReport] = []
    for name, grid in jobs:
        runner = VALIDATORS[name][0]
        for params in grid:
            reports.append(runner(params, cfg))
    return reports

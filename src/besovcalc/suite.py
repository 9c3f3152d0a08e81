"""Validator registry, default parameter grids, and the manifest-driven runner."""

from __future__ import annotations

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
    mul,
    parse_function_spec,
    parse_number,
    resolvent,
    scale,
)
from .operators import parse_operator_spec
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, ResolventEnvelope

__all__ = ["run_suite", "parse_manifest", "default_manifest", "VALIDATORS"]


def _r_squared():
    return mul(resolvent(1.0), resolvent(1.0))


def _inv_square_profile():
    return DecayProfile(
        h=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
        envelope=ResolventEnvelope(m=1.0, shift=1.0),
    )


def _neg_deriv_of_resolvent(a: float):
    return scale(mul(resolvent(a), resolvent(a)), -1.0)


def _real(p: dict, key: str, default: float) -> float:
    """A finite real manifest parameter."""
    return parse_number(str(p.get(key, default)), key, float)


def _bernstein_from(name: str) -> BernsteinFunction:
    table = {
        "linear": BernsteinFunction(b=1.0),
        "atomic": BernsteinFunction(jumps=((1.0, 1.0),)),
        "mixed": BernsteinFunction(a=0.1, b=0.5, jumps=((2.0, 0.5),)),
    }
    if name not in table:
        raise InvalidParameter(f"unknown Bernstein generator {name!r}")
    return table[name]


def _run_band_embedding(p, cfg):
    eps, sigma = _real(p, "eps", 1.0), _real(p, "sigma", 4.0)
    coeffs = p.get("coeffs", [(eps, 1.0), (sigma, -1.0)])
    if isinstance(coeffs, str):  # manifest text
        coeffs = _parse_pair_list(coeffs)
    return check_band_embedding(coeffs, eps, sigma, cfg)


def _run_deriv_bound(p, cfg):
    a = _real(p, "a", 2.0)
    omega = _real(p, "omega", 1.0)
    return check_deriv_bound(resolvent(a), _neg_deriv_of_resolvent(a), omega, cfg)


def _run_product_bound(p, cfg):
    f = parse_function_spec(p.get("f", "resolvent(a=1)"))
    g = parse_function_spec(p.get("g", "resolvent(a=2)"))
    return check_product_bound(f, g, _real(p, "omega", 1.0), cfg)


def _run_exp_window(p, cfg):
    g = parse_function_spec(p.get("g", "resolvent(a=2)"))
    return check_exp_window(g, _real(p, "tau", 1.0), _real(p, "omega", 1.0), cfg)


def _run_decay_majorant(p, cfg):
    return check_decay_majorant(
        _r_squared(), _inv_square_profile(), _real(p, "omega", 1.0), cfg
    )


def _run_expinv(p, cfg):
    return check_expinv_exact(_real(p, "t", 1.0), cfg)


def _run_vitse(p, cfg):
    return check_vitse_reg(_real(p, "t", 1.0), cfg)


def _run_cayley(p, cfg):
    return check_cayley(parse_number(str(p.get("n", 1)), "cayley_norm n", int), cfg)


def _run_bernstein(p, cfg):
    fb = _bernstein_from(p.get("fb", "linear"))
    lam = parse_number(str(p.get("lambda", "1")), "bernstein_resolvent lambda")
    return check_bernstein(
        fb,
        _real(p, "alpha", 0.5),
        _real(p, "beta", 2.0),
        _real(p, "theta", math.pi / 4),
        lam,
        cfg,
    )


def _run_hilbert_bound(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    f = parse_function_spec(p.get("f", "exp(a=1)"))
    return check_hilbert_calc_bound(A, f, cfg)


def _run_sectorial_gamma(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1)"))
    return check_sectorial_gamma(A, cfg)


def _run_band_operator(p, cfg):
    eps, sigma = _real(p, "eps", 1.0), _real(p, "sigma", 4.0)
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    f = parse_function_spec(p.get("f", f"band(eps={eps:g},sigma={sigma:g})"))
    return check_band_operator(A, f, eps, sigma)


def _run_smoothed_window(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    g = parse_function_spec(p.get("g", "resolvent(a=2)"))
    return check_smoothed_window(A, g, _real(p, "omega", 1.0), _real(p, "tau", 1.0))


def _run_fractional(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    g = parse_function_spec(p.get("g", "resolvent(a=2)"))
    return check_fractional_smoothing(
        A,
        g,
        parse_number(str(p.get("lambda", "1")), "fractional_smoothing lambda"),
        _real(p, "alpha", 1.0),
        _real(p, "omega", 1.0),
    )


def _run_deriv_operator(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    a = _real(p, "a", 2.0)
    return check_deriv_operator(
        A, resolvent(a), _neg_deriv_of_resolvent(a), _real(p, "omega", 1.0)
    )


def _run_exp_stable(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    return check_exp_stable_decay(A, _r_squared(), _inv_square_profile(), cfg)


def _run_inverse_generator(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,4)"))
    return inverse_generator_check(A, _real(p, "t", 10.0))


def _run_cayley_power(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    return cayley_power_check(A, parse_number(str(p.get("n", 16)), "cayley_power n", int))


def _run_spectral_mapping(p, cfg):
    A = parse_operator_spec(p.get("A", "diag(1,2)"))
    f = parse_function_spec(p.get("f", "cayley(n=1)"))
    res = spectral_mapping_check(A, f)
    lhs = res["hausdorff"] if res["sectorial"] else res["inclusion_defect"]
    return EstimateReport(
        "spectral_mapping",
        {"A": A.label, "f": f.label, "two_sided": res["sectorial"]},
        lhs,
        1e-4,
        0.0,
        info=res,
    )


# id -> (runner, default grid).  Every runner takes (params, cfg); those of the calculus-only
# families leave cfg unread, because the calculus runs under its own fixed config.
VALIDATORS = {
    "band_embedding": (
        _run_band_embedding,
        [{"eps": 1.0, "sigma": 4.0}, {"eps": 1.0, "sigma": 2.0, "coeffs": [(1.0, 1.0), (2.0, 1.0)]}],
    ),
    "deriv_bound": (_run_deriv_bound, [{"a": 2.0, "omega": 1.0}, {"a": 4.0, "omega": 2.0}]),
    "product_bound": (
        _run_product_bound,
        [
            {"f": "resolvent(a=1)", "g": "resolvent(a=2)", "omega": 1.0},
            {"f": "exp(a=1)", "g": "resolvent(a=2)", "omega": 1.0},
        ],
    ),
    "exp_window": (
        _run_exp_window,
        [
            {"g": "resolvent(a=2)", "tau": 1.0, "omega": 1.0},
            {"g": "resolvent(a=2)", "tau": 0.5, "omega": 1.0},
        ],
    ),
    "decay_majorant": (_run_decay_majorant, [{"omega": 0.5}, {"omega": 1.0}]),
    "expinv_exact": (_run_expinv, [{"t": t} for t in (0.25, 1.0, 4.0, 100.0)]),
    "vitse_reg": (_run_vitse, [{"t": t} for t in (0.1, 1.0, 10.0, 100.0)]),
    "cayley_norm": (_run_cayley, [{"n": n} for n in (1, 2, 8, 64)]),
    "bernstein_resolvent": (
        _run_bernstein,
        [
            {"fb": "linear", "alpha": 0.5, "beta": 2.0, "theta": math.pi / 4, "lambda": "1"},
            {"fb": "atomic", "alpha": 0.5, "beta": 2.0, "theta": math.pi / 4, "lambda": "1"},
            {"fb": "mixed", "alpha": 0.4, "beta": 2.0, "theta": math.pi / 8, "lambda": "2+0.5i"},
        ],
    ),
    "hilbert_calc_bound": (
        _run_hilbert_bound,
        [
            {"A": "diag(1,2)", "f": "exp(a=1)"},
            {"A": "normal_random(3,seed=5)", "f": "cayley(n=4)"},
            {"A": "jordan(lambda=1,m=2)", "f": "exp(a=1)"},
            {"A": "jordan(lambda=0.1,m=2)", "f": "exp(a=1)"},
        ],
    ),
    "sectorial_gamma": (
        _run_sectorial_gamma,
        [{"A": "diag(1)"}, {"A": "diag(1,2)"}, {"A": "sectorial_random(4,seed=3,angle=0.5236)"}],
    ),
    "band_operator": (
        _run_band_operator,
        [
            {"A": "diag(1,2)", "eps": 1.0, "sigma": 4.0, "f": "band(eps=1,sigma=4)"},
            {
                "A": "sectorial_random(4,seed=3,angle=0.5236)",
                "eps": 1.0,
                "sigma": 4.0,
                "f": "band(eps=1,sigma=4)",
            },
            {"A": "normal_random(3,seed=11)", "eps": 1.0, "sigma": 2.0, "f": "band(eps=1,sigma=2)"},
        ],
    ),
    "smoothed_window": (
        _run_smoothed_window,
        [
            {"A": "diag(1,2)", "g": "resolvent(a=2)", "omega": o, "tau": t}
            for o in (0.1, 1.0)
            for t in (0.1, 1.0)
        ],
    ),
    "fractional_smoothing": (
        _run_fractional,
        [
            {"A": "diag(1,2)", "g": "resolvent(a=2)", "alpha": a, "omega": 1.0, "lambda": "1"}
            for a in (0.5, 1.0, 2.0)
        ],
    ),
    "deriv_operator": (
        _run_deriv_operator,
        [
            {"A": "diag(1,2)", "a": 2.0, "omega": 1.0},
            {"A": "diag(1,2)", "a": 3.0, "omega": 1.5},
            {"A": "diag(1,2)", "a": 2.0, "omega": 0.5},
        ],
    ),
    "exp_stable_decay": (
        _run_exp_stable,
        [{"A": "diag(1,2)"}, {"A": "diag(2,3,5)"}, {"A": "normal_random(3,seed=9)"}],
    ),
    "inverse_generator": (
        _run_inverse_generator,
        [
            {"A": "diag(1)", "t": 0.5},
            {"A": "diag(2)", "t": 10.0},
            {"A": "diag(1,4)", "t": 10.0},
            {"A": "diag(1,4)", "t": 0.01},
        ],
    ),
    "cayley_power": (
        _run_cayley_power,
        [
            {"A": "diag(1,2)", "n": 1},
            {"A": "diag(1,2)", "n": 16},
            {"A": "diag(i,-i,1)", "n": 64},
        ],
    ),
    "spectral_mapping": (
        _run_spectral_mapping,
        [
            {"A": "diag(1,2)", "f": "cayley(n=1)"},
            {"A": "jordan(lambda=1,m=2)", "f": "exp(a=1)"},
            {"A": "sectorial_random(4,seed=3,angle=0.5236)", "f": "eta"},
        ],
    ),
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

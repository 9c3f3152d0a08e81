"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete.
"""

import math

import numpy as np

from besovcalc.applications import convergence_demo, spectral_mapping_check
from besovcalc.duality import reproduce_residual
from besovcalc.estimates import exact_expinv_norm
from besovcalc.functions import (
    HalfLineMeasure,
    band_function,
    bernstein_resolvent,
    BernsteinFunction,
    cayley_pow,
    const,
    eta,
    exp_decay,
    exp_inv_shift,
    laplace_transform,
    mul,
    parse_function_spec,
    resolvent,
    vitse_reg,
)
from besovcalc.norms import b_norm, e0_norm
from besovcalc.operators import (
    MatrixOperator,
    apply_calculus,
    hp_apply,
    jordan_operator,
    oracle_apply,
    parse_operator_spec,
    random_normal_operator,
    random_sectorial_operator,
    semigroup_reconstruct_check,
)
from besovcalc.quadrature import QuadratureConfig
from besovcalc.report import reports_to_csv, reports_to_json
from besovcalc.suite import run_suite

CFG = QuadratureConfig()
FAST = CFG.with_tolerances(abs_tol=3e-8, rel_tol=1e-7)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {label}  {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_exact_norms():
    worst = 0.0
    for spec, expect in [
        ("exp(a=1)", 2.0),
        ("resolvent(a=1+2i)", 2.0),
        ("cayley(n=1)", 3.0),
        ("eta", 2.0),
    ]:
        got = b_norm(parse_function_spec(spec), CFG).value
        worst = max(worst, abs(got - expect))
    for a in (1.0, 1j, 1 + 2j):
        got = e0_norm(resolvent(a), CFG).value
        worst = max(worst, abs(got - math.pi))
    _verdict(1, "exact norm values within 1e-3", worst < 1e-3, f"worst |delta| = {worst:.2e}")


def test_criterion_02_expinv_formula():
    worst = 0.0
    for t in (0.25, 0.5, 1.0, math.e, 10.0, 100.0):
        got = b_norm(exp_inv_shift(t), CFG).value
        worst = max(worst, abs(got - exact_expinv_norm(t)))
    _verdict(2, "inverse-exponential norm formula within 1e-3", worst < 1e-3,
             f"worst |delta| = {worst:.2e}")


def test_criterion_03_reproducing_formula():
    catalog = [
        const(2.0),
        exp_decay(1.0),
        resolvent(1.0),
        resolvent(1 + 2j),
        cayley_pow(1),
        cayley_pow(4),
        eta(),
        parse_function_spec("eta(delta=0.5)"),
        exp_inv_shift(1.0),
        vitse_reg(1.0),
        laplace_transform(
            HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0))
        ),
        band_function(1.0, 4.0),
        bernstein_resolvent(BernsteinFunction(b=1.0), 0.5, 2.0, math.pi / 4, 1.0),
    ]
    res = np.linspace(0.1, 10.0, 5)
    ims = np.linspace(-10.0, 10.0, 5)
    zs = np.array([complex(x, y) for x in res for y in ims])
    worst = 0.0
    worst_at = ""
    for f in catalog:
        # one batched double integral answers the whole z-grid
        r = reproduce_residual(f, zs, FAST)
        k = int(np.argmax(r))
        if r[k] > worst:
            worst, worst_at = r[k], f"{f.label} at {zs[k].real:+.2f}{zs[k].imag:+.2f}i"
    _verdict(3, "reproducing residual < 1e-5 on the z-grid", worst < 1e-5,
             f"worst {worst:.2e} ({worst_at})")


def _random_diagonalizable(k: int) -> MatrixOperator:
    n = 2 + (k % 7)
    if k % 4 != 3:
        return random_normal_operator(n, seed=1000 + k)
    rng = np.random.default_rng(2000 + k)
    lam = rng.uniform(0.5, 5.0, n) + 1j * rng.uniform(-5.0, 5.0, n)
    v = np.eye(n) + 0.25 * np.triu(rng.normal(size=(n, n)), 1)
    return MatrixOperator(v @ np.diag(lam) @ np.linalg.inv(v), label=f"diagz({k})")


def test_criterion_04_oracle_equivalence():
    fs = [
        exp_decay(1.0),
        resolvent(1.5),
        cayley_pow(2),
        eta(),
        exp_inv_shift(1.0),
        vitse_reg(2.0),
    ]
    worst = 0.0
    worst_at = ""
    for k in range(20):
        A = _random_diagonalizable(k)
        for f in fs:
            gap = float(np.max(np.abs(apply_calculus(A, f) - oracle_apply(A, f, CFG))))
            if gap > worst:
                worst, worst_at = gap, f"{A.label} / {f.label}"
    _verdict(4, "calculus vs eigen-oracle < 1e-4 on 20 x 6 grid", worst < 1e-4,
             f"worst {worst:.2e} ({worst_at})")


def test_criterion_05_hp_compatibility():
    A = parse_operator_spec("diag(1,2)")
    measures = [
        HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0)),
        HalfLineMeasure(density=("lebesgue", 1.0, 0.0, 1.0)),
        HalfLineMeasure(atoms=((1.0, 1.0),)),
    ]
    worst = 0.0
    for mu in measures:
        f = laplace_transform(mu)
        gap = float(np.max(np.abs(apply_calculus(A, f) - hp_apply(A, mu))))
        worst = max(worst, gap)
    _verdict(5, "Laplace-transform route matches semigroup route < 1e-4", worst < 1e-4,
             f"worst {worst:.2e}")


def test_criterion_06_homomorphism():
    pairs = [
        (exp_decay(1.0), resolvent(1.0)),
        (resolvent(1.0), resolvent(2.0)),
        (cayley_pow(1), resolvent(1.0)),
        (eta(), exp_decay(1.0)),
        (exp_inv_shift(1.0), resolvent(1.0)),
    ]
    worst = 0.0
    for k in range(10):
        A = random_normal_operator(2 + (k % 3), seed=300 + k)
        f, g = pairs[k % len(pairs)]
        fa = apply_calculus(A, f)
        ga = apply_calculus(A, g)
        fga = apply_calculus(A, mul(f, g))
        worst = max(worst, float(np.max(np.abs(fga - fa @ ga))))
    _verdict(6, "product defect < 1e-4 on 10 random triples", worst < 1e-4,
             f"worst {worst:.2e}")


def test_criterion_07_semigroup_reconstruction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(10):
        n = 2 + (k % 3)
        A = random_normal_operator(n, seed=500 + k)
        t = float(rng.uniform(0.2, 3.0))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        worst = max(worst, semigroup_reconstruct_check(A, t, x, y, CFG))
    _verdict(7, "weak semigroup reconstruction residual < 1e-5", worst < 1e-5,
             f"worst {worst:.2e}")


_SUITE_CACHE = {}


def _suite_artifacts():
    if "first" not in _SUITE_CACHE:
        reports = run_suite(None, CFG)
        _SUITE_CACHE["first"] = (
            reports,
            reports_to_csv(reports),
            str(reports_to_json(reports)),
        )
    return _SUITE_CACHE["first"]


def test_criterion_08_bound_suites():
    reports, _, _ = _suite_artifacts()
    failures = [r for r in reports if not r.passed]
    detail = f"{len(reports) - len(failures)}/{len(reports)} validators"
    if failures:
        detail += " failing: " + ", ".join(r.estimate_id for r in failures[:5])
    _verdict(8, "all bound validators pass", not failures, detail)


def test_criterion_09_spectral_mapping():
    sect_ok = True
    worst = 0.0
    for A, f in [
        (parse_operator_spec("diag(1,2)"), cayley_pow(1)),
        (random_sectorial_operator(4, 3, math.pi / 6), eta()),
    ]:
        res = spectral_mapping_check(A, f)
        sect_ok = sect_ok and res["sectorial"] and res["hausdorff"] < 1e-4
        worst = max(worst, res["hausdorff"])
    incl_ok = True
    for A, f in [
        (jordan_operator(1.0, 2), exp_decay(1.0)),
        (parse_operator_spec("diag(i,-i)"), exp_decay(1.0)),
    ]:
        res = spectral_mapping_check(A, f)
        incl_ok = incl_ok and res["inclusion_defect"] < 1e-4
        worst = max(worst, res["inclusion_defect"])
    _verdict(9, "spectral mapping/inclusion within 1e-4", sect_ok and incl_ok,
             f"worst distance {worst:.2e}")


def test_criterion_10_convergence_demo():
    ops = [
        parse_operator_spec("diag(1,2)"),
        random_normal_operator(3, seed=31),
        random_sectorial_operator(3, 5, math.pi / 8),
    ]
    ok = True
    detail = []
    for A in ops:
        rng = np.random.default_rng(77)
        x = rng.normal(size=A.n) + 1j * rng.normal(size=A.n)
        x /= np.linalg.norm(x)
        tab = convergence_demo(A, exp_decay(1.0), [1, 4, 16, 64], x)
        ok = ok and tab.decrease_factor >= 10.0
        detail.append(f"{A.label}: x{tab.decrease_factor:.0f}")
    _verdict(10, "shrinking family decays 10x from n=1 to n=64", ok, "; ".join(detail))


def test_criterion_11_determinism():
    _, csv_1, json_1 = _suite_artifacts()
    reports2 = run_suite(None, CFG)
    csv_2 = reports_to_csv(reports2)
    json_2 = str(reports_to_json(reports2))
    ok = csv_1 == csv_2 and json_1 == json_2
    _verdict(11, "two consecutive suite runs are byte-identical", ok,
             f"{len(csv_1)} bytes compared")

"""Seeded inputs for the benchmark workloads.

A workload is an ordered list of items.  An item is one call into besovcalc,
timed alone, and a check of its result against a reference that runs outside
the timer.  The list depends only on the workload, the seed and the item
count, never on the clock, so every run of one seed does the same work.

- suite: the default validator manifest (`suite.VALIDATORS`), interleaved so
  that round r runs grid point r of every family in registry order.  The
  manifest is fixed; the seed does not change this workload.
- reproduce: the criterion-03 catalog of 13 functions, one z per round.  Each
  item is `pairing(resolvent(z), f, FAST)`, checked against f(z) - f(inf).
  Round 0 uses z = 5, where vitse(t=1) reports a bound smaller than its actual
  error (a known defect that bound_cover_frac must keep showing); later rounds
  draw Re z in [0.1, 10] and Im z in [-10, 10] from the seed.
- calculus: blocks of operators whose eigenvectors the seed draws, each
  crossed with the criterion-04 function list and reused across its
  functions, so the first apply of a block computes the operator profile and
  the rest hit its cache.
  Each item is `apply_calculus_report(A, f)`, checked against `oracle_apply`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from besovcalc import duality, operators
from besovcalc.estimates import exact_expinv_norm
from besovcalc.functions import (
    BernsteinFunction,
    HalfLineMeasure,
    band_function,
    bernstein_resolvent,
    cayley_pow,
    const,
    eta,
    exp_decay,
    exp_inv_shift,
    laplace_transform,
    parse_function_spec,
    resolvent,
    vitse_reg,
)
from besovcalc.operators import MatrixOperator, oracle_apply
from besovcalc.quadrature import DEFAULT_CONFIG, QuadratureConfig
from besovcalc.suite import VALIDATORS

WORKLOADS = ("suite", "reproduce", "calculus")

# Item count per second of --seconds, chosen so that a run takes about
# --seconds on a 2-CPU x86-64 sandbox at the commit that defined the benchmark
# when that machine runs at its faster speed (its speed varies up to twofold):
# suite = round 0 and the first 11 items of round 1 (30 items), reproduce =
# four z rounds (52 items), calculus = one cycle of the five blocks (26 items).
# Scaling --seconds scales the item count, not a clock deadline.
ITEMS_PER_S = {"suite": 30 / 20, "reproduce": 52 / 20, "calculus": 26 / 20}

FAST = QuadratureConfig().with_tolerances(abs_tol=3e-8, rel_tol=1e-7)
REPRODUCE_GATE = 1e-5  # criterion 03
CALCULUS_GATE = 1e-4  # criterion 04


@dataclass
class Check:
    """Outcome of an item's reference check.

    gap is the distance to a closed-form or independent reference and bound the
    error bound the program reported for it; both are None when the item has
    no such reference.
    """

    passed: bool
    gap: float | None = None
    bound: float | None = None
    reason: str = ""


@dataclass
class Item:
    name: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]


def item_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ITEMS_PER_S[workload]))


def build(workload: str, seed: int, n_items: int) -> list[Item]:
    builders = {"suite": suite_items, "reproduce": reproduce_items, "calculus": calculus_items}
    return builders[workload](seed, n_items)


def _gate(gap: float, gate: float, bound: float) -> Check:
    ok = gap < gate
    return Check(ok, gap, bound, "" if ok else f"gap {gap:.3e} >= gate {gate:g}")


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _check_suite(family: str, params: dict, report) -> Check:
    reason = "" if report.passed else f"validator failed: lhs {report.lhs:.6g} > rhs {report.rhs:.6g}"
    if family != "expinv_exact" or "computed" not in report.info:
        return Check(bool(report.passed), reason=reason)
    gap = abs(report.info["computed"] - exact_expinv_norm(float(params["t"])))
    return Check(bool(report.passed), gap, report.lhs_error, reason)


def suite_items(seed: int, n_items: int) -> list[Item]:
    rounds = max(len(grid) for _, grid in VALIDATORS.values())
    order = [
        (family, grid[r])
        for r in range(rounds)
        for family, (_, grid) in VALIDATORS.items()
        if r < len(grid)
    ]
    items = []
    for k in range(n_items):
        family, params = order[k % len(order)]
        runner = VALIDATORS[family][0]
        label = " ".join(f"{key}={value}" for key, value in params.items())
        items.append(
            Item(
                f"{family} {label}",
                family,
                partial(runner, params, DEFAULT_CONFIG),
                partial(_check_suite, family, params),
            )
        )
    return items


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def reproduce_catalog():
    """The 13 functions of acceptance criterion 03."""
    return [
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
        laplace_transform(HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0))),
        band_function(1.0, 4.0),
        bernstein_resolvent(BernsteinFunction(b=1.0), 0.5, 2.0, math.pi / 4, 1.0),
    ]


def _pair(g, f):
    # looked up at call time, so a traced run sees the wrapped entry point
    return duality.pairing(g, f, FAST)


def _check_reproduce(f, z: complex, result) -> Check:
    reference = complex(f(z)) - f.infinity()
    gap = abs(reference - (2.0 / math.pi) * result.value)
    return _gate(gap, REPRODUCE_GATE, (2.0 / math.pi) * result.error)


def reproduce_items(seed: int, n_items: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    catalog = reproduce_catalog()
    items: list[Item] = []
    while len(items) < n_items:
        if not items:
            z = 5.0 + 0.0j
        else:
            z = complex(rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0))
        g = resolvent(z)
        for f in catalog[: n_items - len(items)]:
            items.append(
                Item(
                    f"{f.label} z={z:.4f}",
                    f.label,
                    partial(_pair, g, f),
                    partial(_check_reproduce, f, z),
                )
            )
    return items


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def calculus_functions():
    """The function list of acceptance criterion 04."""
    return [
        exp_decay(1.0),
        resolvent(1.5),
        cayley_pow(2),
        eta(),
        exp_inv_shift(1.0),
        vitse_reg(2.0),
    ]


# (operator kind, size, indices into the function list).  The large block is
# n=12 with the two cheapest functions: its first apply pays a profile of about
# 8 s, where n=16 would take 17 s and leave no room in a run for the others.
_BLOCKS = (
    ("normal", 3, range(6)),
    ("diagonalizable", 3, range(6)),
    ("sectorial", 3, range(6)),
    ("jordan", 2, range(6)),
    ("normal", 12, (1, 2)),
)


def _unitary(n: int, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _operator(kind: str, n: int, block: int, rng) -> MatrixOperator:
    """Operator of block number `block`, shaped like those of criterion 04.

    The spectrum depends only on the block number: it sets most of the work
    (the semigroup and resolvent norms of a normal operator do not depend on
    its eigenvectors).  The seed draws the eigenvectors, as the random
    unitary or the unit upper-triangular similarity of criterion 04.
    """
    fixed = np.random.default_rng(block)
    if kind == "sectorial":
        radius = np.exp(fixed.uniform(math.log(0.2), math.log(8.0), n))
        lam = radius * np.exp(1j * fixed.uniform(-0.5236, 0.5236, n))
    else:
        lam = fixed.uniform(0.5, 5.0, n) + 1j * fixed.uniform(-5.0, 5.0, n)
    if kind in ("normal", "jordan"):
        core = np.diag(lam) if kind == "normal" else lam[0] * np.eye(n) + np.eye(n, k=1)
        q = _unitary(n, rng)
        a = q @ core @ q.conj().T
    else:
        v = np.eye(n) + (0.25 if kind == "diagonalizable" else 0.3) * np.triu(
            rng.normal(size=(n, n)), 1
        )
        a = v @ np.diag(lam) @ np.linalg.inv(v)
    return MatrixOperator(a, label=f"{kind}({n}) #{block}")


def _apply(A, f):
    return operators.apply_calculus_report(A, f, DEFAULT_CONFIG)


def _check_calculus(A, f, report) -> Check:
    gap = float(np.max(np.abs(report.value - oracle_apply(A, f, DEFAULT_CONFIG))))
    return _gate(gap, CALCULUS_GATE, report.error)


def calculus_items(seed: int, n_items: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    fs = calculus_functions()
    items: list[Item] = []
    k = 0
    while len(items) < n_items:
        kind, n, picks = _BLOCKS[k % len(_BLOCKS)]
        A = _operator(kind, n, k, rng)
        k += 1
        for i in list(picks)[: n_items - len(items)]:
            f = fs[i]
            items.append(
                Item(
                    f"{A.label} / {f.label}",
                    f"{kind}({n})",
                    partial(_apply, A, f),
                    partial(_check_calculus, A, f),
                )
            )
    return items

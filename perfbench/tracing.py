"""Span recorder that wraps besovcalc's public entry points from outside the package.

`installed(recorder)` rebinds each wrapped entry point in every module that
imported it (``from .quadrature import integrate_line`` makes a second binding
in the consumer) and patches the wrapped methods on their classes; leaving the
context restores the originals.  Spans are aggregated as they close, per span
name: calls, self time, and work counts taken from the results.  A span's self
time is its duration minus the durations of the spans it directly encloses.

A call made while the enclosing span belongs to the same layer is not a span of
its own: a composite function evaluating its parts, the adaptive interval
engine run by a line or half-line integral, and the per-summand recursion of
`pairing` and `apply_calculus_report` are counted once, at the outer call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

_FUNCTION_SPANS = frozenset({"functions.value", "functions.deriv"})
_LINE_SPANS = frozenset({"quadrature.line", "quadrature.halfline"})

# The validator families of the default suite manifest, for suite.<id>_s.
SUITE_FAMILIES = (
    "band_embedding",
    "deriv_bound",
    "product_bound",
    "exp_window",
    "decay_majorant",
    "expinv_exact",
    "vitse_reg",
    "cayley_norm",
    "bernstein_resolvent",
    "hilbert_calc_bound",
    "sectorial_gamma",
    "band_operator",
    "smoothed_window",
    "fractional_smoothing",
    "deriv_operator",
    "exp_stable_decay",
    "inverse_generator",
    "cayley_power",
    "spectral_mapping",
)


class Recorder:
    """In-memory span aggregates; records only while `active` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # (span, key) -> total
        self._open: list[list] = []  # [span, start, time covered by direct children]

    def call(self, span, fn, args, kwargs, *, before=None, after=None, nested_under=()):
        if not self.active or (self._open and self._open[-1][0] in nested_under):
            return fn(*args, **kwargs)
        if before is not None:
            self._add(span, before(args))
        frame = [span, self.clock(), 0.0]
        self._open.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._open.pop()
            duration = self.clock() - frame[1]
            self.self_s[span] += duration - frame[2]
            self.calls[span] += 1
            if self._open:
                self._open[-1][2] += duration
        if after is not None:
            self._add(span, after(args, result))
        return result

    def _add(self, span, counts):
        for key, value in counts.items():
            self.counts[span, key] += value

    def wrap(self, span, fn, **options):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span, fn, args, kwargs, **options)

        return wrapper


def _quad_counts(args, result):
    return {"points": result.n_evals, "unconverged": int(not result.converged)}


def _points_of_z(args, result):
    return {"points": int(np.size(args[1]))}


@contextmanager
def installed(rec: Recorder):
    """Wrap the entry points named in the benchmark's per-layer metrics."""
    from besovcalc import (
        applications,
        duality,
        estimates,
        functions,
        norms,
        operators,
        quadrature,
        suite,
    )

    modules = (quadrature, functions, norms, duality, operators, estimates, applications, suite)
    undo = []

    def function(home, name, span, **options):
        original = getattr(home, name, None)
        if original is None:
            return
        wrapper = rec.wrap(span, original, **options)
        for module in modules:
            if getattr(module, name, None) is original:
                undo.append((module, name, original))
                setattr(module, name, wrapper)

    def method(cls, name, span, **options):
        original = cls.__dict__.get(name)
        if original is None:
            return
        undo.append((cls, name, original))
        setattr(cls, name, rec.wrap(span, original, **options))

    function(quadrature, "integrate_line", "quadrature.line", after=_quad_counts)
    function(quadrature, "integrate_halfline", "quadrature.halfline", after=_quad_counts)
    function(
        quadrature,
        "integrate_interval",
        "quadrature.interval",
        after=_quad_counts,
        nested_under=_LINE_SPANS,
    )
    function(
        quadrature,
        "sup_on_vertical_line",
        "quadrature.sup",
        after=lambda args, res: {"stabilized": int(bool(res.stabilized))},
    )
    envelopes = [quadrature.DecayEnvelope]
    for cls in envelopes:
        envelopes.extend(cls.__subclasses__())
        method(cls, "cutoff", "quadrature.cutoff")
    for name, span in (("__call__", "functions.value"), ("deriv", "functions.deriv")):
        method(
            functions.AnalyticFunction,
            name,
            span,
            after=_points_of_z,
            nested_under=_FUNCTION_SPANS,
        )
    for name in ("hinf_norm", "b0_norm", "e0_norm"):
        function(norms, name, "norms." + name[: -len("_norm")])
    function(duality, "pairing", "duality.pairing", nested_under={"duality.pairing"})
    method(operators.MatrixOperator, "__post_init__", "operators.admit")
    method(
        operators.MatrixOperator,
        "profile",
        "operators.profile",
        before=lambda args: {"hits": int(getattr(args[0], "_profile_cache", None) is not None)},
    )
    function(
        operators,
        "apply_calculus_report",
        "operators.apply",
        after=lambda args, res: {"points": res.n_evals},
        nested_under={"operators.apply"},
    )
    function(operators, "semigroup", "operators.semigroup")
    try:
        yield rec
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in the order printed; see perfbench/README.md for what each should move.
PER_LAYER_UNITS = {
    "quadrature.sup.calls": "count",
    "quadrature.sup.self_s": "s",
    "quadrature.sup.stabilized_frac": "ratio",
    **{
        f"quadrature.{kind}.{key}": unit
        for kind in ("line", "halfline", "interval")
        for key, unit in (("calls", "count"), ("points", "count"), ("self_s", "s"))
    },
    "quadrature.unconverged": "count",
    "quadrature.cutoff.calls": "count",
    "quadrature.cutoff.self_s": "s",
    **{
        f"functions.{kind}.{key}": unit
        for kind in ("value", "deriv")
        for key, unit in (("calls", "count"), ("points", "count"), ("self_s", "s"))
    },
    **{
        f"norms.{kind}.{key}": unit
        for kind in ("hinf", "b0", "e0")
        for key, unit in (("calls", "count"), ("self_s", "s"))
    },
    "duality.pairing.calls": "count",
    "duality.pairing.self_s": "s",
    "operators.admit.calls": "count",
    "operators.admit.self_s": "s",
    "operators.profile.calls": "count",
    "operators.profile.self_s": "s",
    "operators.profile.hit_frac": "ratio",
    "operators.apply.calls": "count",
    "operators.apply.points": "count",
    "operators.apply.self_s": "s",
    "operators.semigroup.calls": "count",
    "operators.semigroup.self_s": "s",
    **{f"suite.{family}_s": "s" for family in SUITE_FAMILIES},
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(rec: Recorder, family_s: dict, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric by name: {"value": ..., "unit": ...}."""
    values = {}
    for name in PER_LAYER_UNITS:
        span, _, key = name.rpartition(".")
        if key == "calls":
            values[name] = rec.calls[span]
        elif key == "self_s":
            values[name] = rec.self_s[span]
        elif key == "points":
            values[name] = rec.counts[span, "points"]
    values["quadrature.sup.stabilized_frac"] = _ratio(
        rec.counts["quadrature.sup", "stabilized"], rec.calls["quadrature.sup"]
    )
    values["quadrature.unconverged"] = sum(
        rec.counts[f"quadrature.{kind}", "unconverged"] for kind in ("line", "halfline", "interval")
    )
    values["operators.profile.hit_frac"] = _ratio(
        rec.counts["operators.profile", "hits"], rec.calls["operators.profile"]
    )
    for family in SUITE_FAMILIES:
        values[f"suite.{family}_s"] = family_s.get(family, 0.0)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = _ratio(traced_s - untraced_s, untraced_s)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def work_counts(metrics: dict) -> dict:
    """The part of the per-layer metrics that should repeat exactly for one seed."""
    keep = (".calls", ".points", ".unconverged", ".stabilized_frac", ".hit_frac")
    return {name: m["value"] for name, m in metrics.items() if name.endswith(keep)}

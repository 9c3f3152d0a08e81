"""Adaptive 1-D quadrature over finite, half-line and full-line domains.

Improper integrals require a declared decay envelope or a contour.  A half-line
or line integral runs on a map of [0, 1) onto [0, inf), matched to the
envelope's decay and taken on both sides for the line, with no cutoff and no
tail; a line integral of an integrand analytic off the line runs on a segment
plus two horizontal rays, also with no tail.  Integrands may be scalar-,
vector- or matrix-valued; the values at the nodes of a panel batch are computed
in vectorized calls of at most 2**12 points and 2**16 value entries each, and
each panel is summed on its own, so no result depends on that slicing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DepthExceeded, EnvelopeViolated, InvalidParameter

__all__ = [
    "QuadratureConfig",
    "DecayEnvelope",
    "ShapeEnvelope",
    "SumEnvelope",
    "envelope_product",
    "QuadResult",
    "SupResult",
    "integrate_interval",
    "halfline_map",
    "integrate_halfline",
    "integrate_line",
    "integrate_contour",
    "sup_on_vertical_line",
    "DYADIC_GRID",
    "EDGE_ALLOWANCE",
    "line_weight",
    "kernel_weight",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute and relative tolerances shared by all integrals and suprema."""

    abs_tol: float = 1e-8
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.abs_tol, self.rel_tol)):
            raise InvalidParameter("tolerances must be finite and positive")

    def with_tolerances(self, abs_tol=None, rel_tol=None) -> "QuadratureConfig":
        return replace(
            self,
            abs_tol=self.abs_tol if abs_tol is None else abs_tol,
            rel_tol=self.rel_tol if rel_tol is None else rel_tol,
        )


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# Decay envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayEnvelope:
    """Upper bound for |integrand(t)| valid for |t| >= t0: a `ShapeEnvelope` or a
    `SumEnvelope` of them, each of which states `bound(t)` and `_transform(k, b)`, the
    envelope of t -> k * bound(b*t) without t0 bookkeeping."""

    t0: float = 0.0

    def scaled(self, k: float) -> "DecayEnvelope":
        """Envelope for t -> k * f(t) given |f| <= bound."""
        return self._transform(k, 1.0)

    def dilated_arg(self, b: float) -> "DecayEnvelope":
        """Envelope for t -> f(b*t) given |f| <= bound."""
        return replace(self._transform(1.0, b), t0=self.t0 / b)

    def off_center(self, c: float) -> "DecayEnvelope":
        """Valid envelope when the integrand's symmetry center moved by <= c."""
        if c == 0:
            return self
        return replace(self._transform(1.0, 0.5), t0=max(2.0 * c, 2.0 * self.t0, 1e-9))

    @property
    def integrable(self) -> bool:
        p, a = _decay(self)
        return p > 1.0 or a > 0.0


@dataclass(frozen=True)
class ShapeEnvelope(DecayEnvelope):
    """bound(t) = c (s^2 + t^2)^(-p/2) exp(-rho t^alpha), with p, s, rho >= 0 and alpha in
    (0, 1].  A constant is p = rho = 0, a power c/t^p is s = 0, the squared-resolvent shape
    c/(s^2 + t^2) is p = 2, an exponential is alpha = 1, and a stretched exponential
    c t^(alpha-1) exp(-rho t^alpha) is s = 0 and p = 1 - alpha.  The family is closed under
    scaling, dilation, off-centring and `envelope_product`."""

    c: float = 1.0
    p: float = 0.0
    s: float = 0.0
    rho: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        if not (self.p >= 0 and self.s >= 0 and self.rho >= 0 and 0 < self.alpha <= 1):
            raise InvalidParameter("envelope needs p, s, rho >= 0 and alpha in (0, 1]")

    def bound(self, t):
        den = (self.s * self.s + t * t) ** (0.5 * self.p)
        return self.c / den * math.exp(-self.rho * t**self.alpha) if den else math.inf

    def _transform(self, k, b):
        return replace(self, c=self.c * k / b**self.p, s=self.s / b, rho=self.rho * b**self.alpha)


@dataclass(frozen=True)
class SumEnvelope(DecayEnvelope):
    """Pointwise sum of component envelopes."""

    parts: tuple[DecayEnvelope, ...] = ()

    @staticmethod
    def of(*parts: DecayEnvelope) -> "SumEnvelope":
        flat: list[DecayEnvelope] = []
        for p in parts:
            if isinstance(p, SumEnvelope):
                flat.extend(p.parts)
            else:
                flat.append(p)
        return SumEnvelope(t0=max((p.t0 for p in flat), default=0.0), parts=tuple(flat))

    def bound(self, t):
        return sum(p.bound(t) for p in self.parts)

    def _transform(self, k, b):
        return replace(
            self, parts=tuple(replace(p._transform(k, b), t0=p.t0 / b) for p in self.parts)
        )

    def off_center(self, c):
        if c == 0:
            return self
        # every part takes t0 >= 2c too, which the base rule's t0 bookkeeping would not give
        out = replace(self, parts=tuple(p.off_center(c) for p in self.parts))
        return replace(out, t0=max(2.0 * c, 2.0 * self.t0, 1e-9))


def _decay(env: DecayEnvelope) -> tuple[float, float]:
    """(p, a): the slowest power decay t^-p of env, capped at 2, and the slowest exponential
    rate a of its decay exp(-a t), each over a sum's parts.  An exponential (rho > 0,
    alpha = 1) gives (2, rho); a stretched one (rho > 0, alpha < 1) gives 1 + alpha, whose
    map x^alpha ~ 1/(1-u) makes it decay like an exponential in 1/(1-u); any other shape
    gives (min(p, 2), 0), so a constant gives (0, 0)."""
    if isinstance(env, SumEnvelope):
        decays = [_decay(part) for part in env.parts]
        return min((p for p, _ in decays), default=2.0), min((a for _, a in decays), default=0.0)
    if env.rho > 0:
        return (2.0, env.rho) if env.alpha == 1.0 else (1.0 + env.alpha, 0.0)
    return min(env.p, 2.0), 0.0


def envelope_product(e1: DecayEnvelope, e2: DecayEnvelope) -> DecayEnvelope:
    """Envelope for a product of integrands bounded by e1 and e2, from t0 = the larger t0.

    A product of sums is the sum of the parts' products.  Of two shapes, c and p multiply
    through and s is the least s of a factor with p > 0, since s^2 + t^2 grows with s.
    Equal alphas add the rates; otherwise the factor of larger alpha among those with
    rho > 0 keeps its exponential, and the other's exp(-rho t^alpha) is absorbed into c at t0.
    """
    if isinstance(e1, SumEnvelope):
        return SumEnvelope.of(*(envelope_product(p, e2) for p in e1.parts))
    if isinstance(e2, SumEnvelope):
        return SumEnvelope.of(*(envelope_product(e1, p) for p in e2.parts))
    t0 = max(e1.t0, e2.t0, 1e-12)
    low, high = sorted((e1, e2), key=lambda e: (e.rho > 0, e.alpha))
    same = low.alpha == high.alpha
    return ShapeEnvelope(
        t0=t0,
        c=e1.c * e2.c * (1.0 if same else math.exp(-low.rho * t0**low.alpha)),
        p=e1.p + e2.p,
        s=min((e.s for e in (e1, e2) if e.p > 0), default=0.0),
        rho=high.rho + low.rho if same else high.rho,
        alpha=high.alpha,
    )


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 panel rule
# ---------------------------------------------------------------------------

_XGK_POS = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
    ]
)
_WGK_POS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
    ]
)
_WGK_CENTER = 0.209482141084728
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119])
_WG_CENTER = 0.417959183673469

_NODES = np.concatenate([-_XGK_POS, [0.0], _XGK_POS[::-1]])
_WK = np.concatenate([_WGK_POS, [_WGK_CENTER], _WGK_POS[::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[[1, 3, 5]] = _WG
_WG_FULL[7] = _WG_CENTER
_WG_FULL[[9, 11, 13]] = _WG[::-1]
_WKG = np.stack([_WK, _WG_FULL])

_MAX_PANELS = 40000
# bisection levels a panel may descend below its starting interval
_MAX_DEPTH = 40


@dataclass
class QuadResult:
    value: complex | np.ndarray
    error: float
    n_evals: int = 0
    converged: bool = True


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


# Each integrand call gets at most this many points, and at most this many
# value entries (points x entries per value) once the value width is known;
# a slice always holds at least one whole panel.
_SLICE_POINTS = 2**12
_SLICE_ENTRIES = 2**16


def _slice_panels(width: int | None) -> int:
    """Panels per integrand call for values of `width` entries (None: unknown)."""
    points = _SLICE_POINTS if width is None else min(_SLICE_POINTS, _SLICE_ENTRIES // width)
    return max(points // 15, 1)


def _eval_panels(f, lefts, rights, width: int | None = None):
    """Return per-panel Kronrod values and |K15-G7| error estimates, calling f
    on consecutive slices of whole panels (see `_slice_panels`).  Each panel is
    summed on its own, so the result does not depend on the slicing."""
    n = len(lefts)
    step = _slice_panels(width)
    if n <= step:
        return _reduce_panels(f, lefts, rights)
    kron, errs = [], []
    start = 0
    while start < n:
        k, e = _reduce_panels(f, lefts[start : start + step], rights[start : start + step])
        kron.append(k)
        errs.append(e)
        start += step
        step = _slice_panels(k[0].size)
    return np.concatenate(kron), np.concatenate(errs)


def _reduce_panels(f, lefts, rights):
    """Kronrod values and |K15-G7| error estimates of panels in one call of f."""
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.reshape(-1)))
    vals = vals.reshape(pts.shape + vals.shape[1:])
    if not np.all(np.isfinite(vals)):
        raise DepthExceeded("non-finite integrand value inside a panel")
    # one stacked product against both rules for every value shape: each
    # panel's sums come from that panel alone, and wide values are never copied
    kg = _WKG @ vals.reshape(len(half), 15, -1)
    kron, gauss = (kg[:, i].reshape((len(half),) + vals.shape[2:]) for i in (0, 1))
    # the scaled arrays own their memory, so stored panels do not pin `kg`
    kron = kron * half.reshape((-1,) + (1,) * (kron.ndim - 1))
    gauss = gauss * half.reshape((-1,) + (1,) * (gauss.ndim - 1))
    diff = np.abs(kron - gauss)
    errs = diff.reshape(diff.shape[0], -1).max(axis=1)
    return kron, errs


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    breakpoints: Sequence[float] | None = None,
    strict: bool = True,
    max_panels: int | None = None,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of a vectorized integrand over [a, b].

    The reported error bounds max(abs_tol, rel_tol*|result|) on success.
    max_panels lowers the panel budget _MAX_PANELS for this run.
    Panel state is five arrays: kept panels first, then each split's children.
    """
    if not (a < b):
        raise InvalidParameter("integrate_interval requires a < b")
    edges = [a, b] if not breakpoints else sorted({a, b, *(x for x in breakpoints if a < x < b)})
    lefts = np.array(edges[:-1], dtype=float)
    rights = np.array(edges[1:], dtype=float)
    values, errs = _eval_panels(f, lefts, rights)
    width = values[0].size
    depth = np.zeros(len(lefts), dtype=int)
    n_evals = 15 * len(lefts)
    budget = _MAX_PANELS if max_panels is None else min(max_panels, _MAX_PANELS)

    # Sums run left to right (cumsum), not in numpy's pairwise order: an outer
    # rule's |K15-G7| turns last-bit changes of inner values into its error.
    for _ in range(16 * _MAX_DEPTH):
        total_val = np.cumsum(values, axis=0)[-1]
        total_err = float(np.cumsum(errs)[-1])
        tol = max(cfg.abs_tol, cfg.rel_tol * _maxabs(total_val))
        if total_err <= tol:
            break
        share = np.maximum(tol * (rights - lefts) / (b - a), tol / (4.0 * len(lefts)))
        split = (errs > share) & (depth < _MAX_DEPTH)
        l, r = lefts[split], rights[split]
        m = 0.5 * (l + r)
        if not split.any():
            failure = f"adaptive bisection stalled: error {total_err:.3e} > tol {tol:.3e}"
        elif len(lefts) + len(l) > budget:
            failure = "panel budget exhausted"
        elif np.any((m <= l) | (m >= r)):
            failure = "panel width underflow"
        else:
            failure = None
        if failure is not None:
            if strict:
                raise DepthExceeded(failure)
            return QuadResult(total_val, total_err, n_evals, converged=False)
        # children interleaved: left and right half of each split panel in turn
        new_lefts = np.column_stack([l, m]).ravel()
        new_rights = np.column_stack([m, r]).ravel()
        vals2, errs2 = _eval_panels(f, new_lefts, new_rights, width)
        n_evals += 15 * len(new_lefts)
        keep = ~split
        lefts = np.concatenate([lefts[keep], new_lefts])
        rights = np.concatenate([rights[keep], new_rights])
        values = np.concatenate([values[keep], vals2])
        errs = np.concatenate([errs[keep], errs2])
        depth = np.concatenate([depth[keep], np.repeat(depth[split] + 1, 2)])
    order = np.argsort(lefts, kind="stable")
    value = np.cumsum(values[order], axis=0)[-1]
    total_err = float(np.cumsum(errs[order])[-1])
    tol = max(cfg.abs_tol, cfg.rel_tol * _maxabs(value))
    if total_err > tol and strict:
        raise DepthExceeded(f"quadrature did not converge: err {total_err:.3e} > tol {tol:.3e}")
    return QuadResult(value, total_err, n_evals, converged=total_err <= tol)


def _map_scale(env: DecayEnvelope, reach: float) -> tuple[float, float]:
    """k and S of `halfline_map`."""
    (p, a), S = _decay(env), 1.0 + env.t0 + reach
    return 1.0 / (p - 1.0), min(S, 1.0 / a) if a > 0.0 else S


def halfline_map(env: DecayEnvelope, reach: float) -> Callable[[np.ndarray], tuple]:
    """The map of u in [0, 1) onto the half-line for integrands under env: a function of
    the nodes u that returns x and dx/du there.

    With (p, a) = `_decay` of env, k = 1/(p-1) and S = 1 + t0 + reach,
    x = S ((1-u)^-k - 1) maps a decay x^-p onto a bounded integrand at u = 1 (QUADPACK's
    QAGI step), so one `integrate_interval` run over [0, 1) takes the whole half-line with
    no cutoff.  Where env decays like exp(-a x) (a > 0), the integrand is a bump of width
    about 1/a, so S is at most 1/a, which keeps the bump off the end u = 0.  An env that is
    not integrable raises InvalidParameter, and so does a node whose dx/du leaves the
    floats: env then decays too slowly for the map."""
    if not env.integrable:
        raise InvalidParameter("integration to infinity requires an integrable envelope")
    k, S = _map_scale(env, reach)

    def nodes(us):
        logs = -k * np.log1p(-us)  # ln (1-u)^-k
        with np.errstate(over="ignore"):
            xs, dxs = S * np.expm1(logs), S * k * np.exp(logs) / (1.0 - us)
        if not np.all(np.isfinite(dxs)):
            raise InvalidParameter(
                f"half-line map overflows: a decay like x^-{1.0 + 1.0 / k:g} is too slow for it"
            )
        return xs, dxs

    return nodes


# `_on_map` checks f against its envelope at the map's nodes u = 1 - 10^-m, m = 3..6: an
# integrand above the envelope near u = 1 can make the mapped one non-integrable there
_CHECK_NODES = 1.0 - np.array([1e-3, 1e-4, 1e-5, 1e-6])


def _on_map(f, envelope: DecayEnvelope, signs: tuple[float, ...]):
    """f(y) dy/dv at y = sign(v) x(|v|), with x and dx/du from `halfline_map` of the
    envelope, for an `integrate_interval` run over v in [0, 1) or (-1, 1).

    |f| must stay under 1.1 times the envelope at x(u) for u in _CHECK_NODES, raised to t0
    where below it, on each side y = sign * x of signs; this is checked first, in one call
    of f.  The mapped integrand scales f's values in place, so f must return arrays it does
    not keep."""
    to_halfline = halfline_map(envelope, 0.0)
    ts = np.maximum(to_halfline(_CHECK_NODES)[0], envelope.t0)
    vals = np.abs(np.asarray(f(np.concatenate([sign * ts for sign in signs]))))
    vals = vals.reshape(len(signs), len(ts), -1).max(axis=(0, 2))
    bounds = np.array([envelope.bound(t) for t in ts])
    bad = vals > 1.1 * bounds + 1e-300
    if np.any(bad):
        raise EnvelopeViolated(
            f"integrand exceeds envelope at |t|={ts[bad][0]:.4g}: "
            f"{vals[bad][0]:.4g} > 1.1*{bounds[bad][0]:.4g}"
        )

    def mapped(vs):
        xs, dxs = to_halfline(np.abs(vs))
        vals = np.asarray(f(np.copysign(xs, vs)))
        # scaled in place where the dtype allows, so wide values take no second copy
        out = vals if vals.dtype in (np.float64, np.complex128) and vals.flags.writeable else None
        return np.multiply(vals, dxs.reshape((-1,) + (1,) * (vals.ndim - 1)), out=out)

    return mapped


# integrate_halfline's breakpoints u = 4^-j, j = 1..8: an integrable singularity at x = 0,
# such as x^(alpha-1), would use up _MAX_DEPTH levels from the single panel [0, 1)
_HALFLINE_BREAKPOINTS = tuple(4.0**-j for j in range(1, 9))
# integrate_line's breakpoints stop where 1 - u falls below this
_LINE_BREAK_GAP = 1e-6


def integrate_halfline(
    f,
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Integrate f over [0, inf) in one strict `integrate_interval` run on `halfline_map` of
    the envelope, with breakpoints graded toward u = 0: no cutoff and no tail.  f is checked
    against the envelope first, and its values are scaled in place (see `_on_map`)."""
    return integrate_interval(
        _on_map(f, envelope, (1.0,)), 0.0, 1.0, cfg, breakpoints=_HALFLINE_BREAKPOINTS
    )


def integrate_line(
    f,
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    strict: bool = True,
) -> QuadResult:
    """Integrate f over the whole line in one `integrate_interval` run over v in (-1, 1),
    y = sign(v) x(|v|) on `halfline_map` of the envelope: no cutoff and no tail.  The
    breakpoints are 0 and the map's images +-u_j of the dyadic points
    x_j = max(t0, 1)/4 * 4^j, while 1 - u_j >= _LINE_BREAK_GAP, so that the engine starts
    from panels that each span a factor 4 of |y|.  f is checked against the envelope on
    both sides first, and its values are scaled in place (see `_on_map`)."""
    mapped = _on_map(f, envelope, (1.0, -1.0))
    k, S = _map_scale(envelope, 0.0)
    bp, x = [0.0], max(envelope.t0, 1.0) / 4.0
    while (gap := (1.0 + x / S) ** (-1.0 / k)) >= _LINE_BREAK_GAP:  # 1 - u at x
        bp += [1.0 - gap, gap - 1.0]
        x *= 4.0
    return integrate_interval(mapped, -1.0, 1.0, cfg, breakpoints=bp, strict=strict)


def integrate_contour(
    f, x: float, radius: float, direction: float, cfg: QuadratureConfig
) -> QuadResult:
    """int_R h(x + iy) dy, x > 0, on a contour of no tails, in one `integrate_interval` run
    over v in [-2, 2] with breakpoints -1, 0 and 1, not strict.  |v| <= 1 takes the segment
    w = x + iT'v, dy/dv = T'; |v| in (1, 2) takes the horizontal rays
    w = x +- iT' + direction s, s = L u/(1-u), u = |v| - 1, with
    dy/dv = -direction (i sign v) L/(1-u)^2, where T' = 2R + 1 + x, R = radius, and
    L = 2x + 3R + 2.  f(w, dy) returns h(w) times the weights dy/dv at the nodes w.

    By Cauchy's theorem the contour gives the line's integral when every singularity of h
    on the rays' side of the line lies in |Im w| <= R < T', and h is small enough there
    that the arcs joining the line's tails to the rays at infinity vanish: direction 1
    sends the rays to the right, where factors such as exp(-tau w) decay, and -1 to the
    left, where factors such as exp(w t) do."""
    top = 2.0 * radius + 1.0 + x  # T'
    scale = 2.0 * x + 3.0 * radius + 2.0  # L
    ray = -1j * direction

    def on_contour(vs):
        u = np.maximum(np.abs(vs) - 1.0, 0.0)
        w = x + 1j * top * np.clip(vs, -1.0, 1.0) + direction * (scale * u / (1.0 - u))
        dy = np.where(u > 0.0, ray * np.sign(vs) * scale / (1.0 - u) ** 2, top)
        return f(w, dy)

    return integrate_interval(
        on_contour, -2.0, 2.0, cfg, breakpoints=(-1.0, 0.0, 1.0), strict=False
    )


# ---------------------------------------------------------------------------
# Suprema along vertical lines
# ---------------------------------------------------------------------------


@dataclass
class SupResult:
    """One value and location per vertical line; stabilized when every line's search is."""

    value: np.ndarray
    location: np.ndarray
    stabilized: bool = True


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# sup_on_vertical_line: grid points and the widest window as a multiple of the
# first; every supremum refines its grid maximum by the same golden-section rounds
_SUP_GRID_POINTS = 257
_LINE_TRUNC_FACTOR = 1e3
_SUP_REFINE_ROUNDS = 30


def _bracket_row(grid, vals: np.ndarray, brackets: int) -> np.ndarray:
    """A row of `_refine_max`: the top of the values `vals` on the increasing `grid`, then
    the ends of the brackets between the neighbours of the top point and of the next
    largest points, up to `brackets` of them, no two adjacent; NaN past the last."""
    k = int(vals.argmax())
    chosen = [k]
    for i in np.argsort(vals)[::-1]:
        if len(chosen) >= brackets:
            break
        if all(abs(i - j) > 1 for j in chosen):
            chosen.append(int(i))
    last = len(vals) - 1
    row = np.full((brackets + 1, 2), np.nan)
    row[0] = grid[k], vals[k]
    for n, i in enumerate(chosen, 1):
        row[n] = grid[max(i - 1, 0)], grid[min(i + 1, last)]
    return row.ravel()


def _refine_max(phi, rows: np.ndarray) -> np.ndarray:
    """Refine one `_bracket_row`, or a stack of them, of the functions phi(., i), row i
    of each; phi(points, owners) evaluates phi(., owners[k]) at points[k].  One
    `_golden_max_multi` runs `_SUP_REFINE_ROUNDS` rounds on every bracket of every row,
    and a row's best refined value replaces its top only if larger.  Returns a row
    (location, value, gain) per row, gain being what the refinement added to the top."""
    rows = np.atleast_2d(rows)
    los, his = rows[:, 2::2], rows[:, 3::2]
    ok = his > los
    out = np.column_stack([rows[:, :2], np.zeros(len(rows))])
    if ok.any():
        owners = np.nonzero(ok)[0]
        xs, vs = _golden_max_multi(lambda ps: phi(ps, owners), los[ok], his[ok], _SUP_REFINE_ROUNDS)
        at, best = np.full(ok.shape, np.nan), np.full(ok.shape, -np.inf)
        at[ok], best[ok] = xs, vs
        i, j = np.arange(len(rows)), best.argmax(axis=1)
        up = best[i, j] > out[:, 1]
        out[up] = np.column_stack([at[i, j], best[i, j], best[i, j] - out[:, 1]])[up]
    return out


# x = 2**u for u = -20, ..., 20: the grid of the suprema over x > 0
_DYADIC_EXPONENTS = range(-20, 21)
DYADIC_GRID = tuple(2.0**u for u in _DYADIC_EXPONENTS)
# relative step into a grid end that `kernel_weight` still calls settled; e0_norm charges it
EDGE_ALLOWANCE = 2.0**-18


def line_weight(h, env: DecayEnvelope, x: float, cfg: QuadratureConfig):
    """x * Re int h(x + iy) dy under env, and whether it converged.  The factor x amplifies
    absolute errors, so the absolute tolerance shrinks by 1/max(x, 1)."""
    shrink = max(x, 1.0)
    res = integrate_line(
        lambda ys: h(x + 1j * np.asarray(ys, dtype=float)), env,
        cfg.with_tolerances(abs_tol=cfg.abs_tol / shrink), strict=False,
    )
    return x * np.real(res.value), res.converged


def kernel_weight(h, kernel_line, cfg: QuadratureConfig) -> tuple[float, float, bool]:
    """sup over x > 0 of `line_weight` for the norm h of a kernel with envelope
    kernel_line(x) on the line Re = x: DYADIC_GRID refined by `_refine_max` with one
    bracket in u = log2 x.  Returns (x, value, settled); settled is False when a line
    weight did not converge, or the grid maximum sits at an end of the grid and the step
    to it from its neighbour exceeds EDGE_ALLOWANCE * value."""
    converged = []

    def g(x: float) -> float:
        value, ok = line_weight(h, kernel_line(x), x, cfg)
        converged.append(ok)
        return float(value)

    vals = np.array([g(x) for x in DYADIC_GRID])
    row = _bracket_row(_DYADIC_EXPONENTS, vals, 1)
    u, value, _ = _refine_max(lambda us, _: np.array([g(2.0 ** float(u)) for u in us]), row)[0]
    k = int(vals.argmax())
    step = vals[k] - vals[1 if k == 0 else -2]
    settled = all(converged) and (0 < k < len(vals) - 1 or step <= EDGE_ALLOWANCE * value)
    return 2.0 ** float(u), float(value), bool(settled)


def _golden_max_multi(phi_vec, los: np.ndarray, his: np.ndarray, rounds: int):
    """Golden-section maximum search run simultaneously over several brackets.

    phi_vec maps an array of points to an array of values; each round costs a
    single vectorized evaluation across all brackets.
    """
    a = los.astype(float).copy()
    b = his.astype(float).copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = np.asarray(phi_vec(c), dtype=float)
    fd = np.asarray(phi_vec(d), dtype=float)
    for _ in range(rounds):
        left = fc >= fd
        b[left] = d[left]
        d[left] = c[left]
        fd[left] = fc[left]
        c[left] = b[left] - _INVPHI * (b[left] - a[left])
        right = ~left
        a[right] = c[right]
        c[right] = d[right]
        fc[right] = fd[right]
        d[right] = a[right] + _INVPHI * (b[right] - a[right])
        fresh = np.where(left, c, d)
        vals = np.asarray(phi_vec(fresh), dtype=float)
        fc = np.where(left, vals, fc)
        fd = np.where(left, fd, vals)
    pick = fc >= fd
    xs = np.where(pick, c, d)
    vs = np.where(pick, fc, fd)
    return xs, vs


def sup_on_vertical_line(h, line_envelope, xs, *, window: float) -> SupResult:
    """Lower estimates of sup over real y of |h(x + iy)| on each line Re = x of xs, where
    line_envelope(x) bounds |h| on the line.  Each line's grid widens while the envelope or
    a maximum rising at its edge says the peak may lie outside, and the line keeps only its
    top and five brackets; one `_refine_max` refines the brackets of every line.  The
    result is stabilized when no refinement moved its line's estimate by more than 2%."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    rows = np.empty((len(xs), 12))  # one `_bracket_row` of five brackets per line
    edge = _SUP_GRID_POINTS // 20
    for i, x in enumerate(map(float, xs)):
        envelope = line_envelope(x)
        Y = float(window)
        Y_cap = _LINE_TRUNC_FACTOR * max(envelope.t0, 1.0, Y)
        for _ in range(64):
            grid = np.linspace(-Y, Y, _SUP_GRID_POINTS)
            vals = np.abs(h(x + 1j * grid))
            if not np.all(np.isfinite(vals)):
                raise DepthExceeded("non-finite value on the vertical-line grid")
            m, k = float(vals.max()), vals.argmax()
            wide = envelope.integrable and envelope.bound(Y) >= 0.5 * m
            at_edge = k <= edge or k >= _SUP_GRID_POINTS - 1 - edge
            rising = m > vals[_SUP_GRID_POINTS // 2] * (1.0 + 1e-12)
            if not (Y < Y_cap and m > 0 and (wide or (at_edge and rising))):
                break
            Y = min(2.0 * Y, Y_cap)
        rows[i] = _bracket_row(grid, vals, 5)
    loc, val, gain = _refine_max(lambda ys, owners: np.abs(h(xs[owners] + 1j * ys)), rows).T
    return SupResult(val, loc, bool(np.all(gain <= 0.02 * np.maximum(val, 1e-300))))

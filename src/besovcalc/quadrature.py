"""Adaptive 1-D quadrature over finite, half-line and full-line domains.

Improper integrals require a declared decay envelope; the tail beyond the
truncation point is bounded by the envelope's closed-form tail integral and
charged to the reported error.  Integrands may be scalar-, vector- or
matrix-valued; the values at the nodes of a panel batch are computed in
vectorized calls of at most 2**12 points and 2**16 value entries each, and
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
    "ConstEnvelope",
    "PowerEnvelope",
    "ExpEnvelope",
    "ResolventEnvelope",
    "StretchedExpEnvelope",
    "SumEnvelope",
    "envelope_product",
    "QuadResult",
    "SupResult",
    "integrate_interval",
    "integrate_halfline",
    "integrate_line",
    "truncation_point",
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

# Oscillatory integrands are declared as sums of components h(t)*exp(i*phi*t),
# phi in [freq_lo, freq_hi], with |h| <= bound, |h'| <= 6*bound/t and
# |h''| <= 36*bound/t**2 beyond t0 (the shape of rational-in-t amplitudes).
# Integration by parts then certifies the tail bounds below; for a single
# nonzero frequency the leading boundary term is computable from the
# integrand itself and integrate_line/halfline add it as a tail correction.
_H1_FACTOR = 6.0
_H2_FACTOR = 36.0


@dataclass(frozen=True)
class DecayEnvelope:
    """Upper bound for |integrand(t)| valid for |t| >= t0, with closed-form tail."""

    t0: float = 0.0
    freq_lo: float = 0.0
    freq_hi: float = 0.0

    def bound(self, t: float) -> float:
        raise NotImplementedError

    def tail(self, T: float) -> float:
        """Closed form of the tail integral of the bound over [T, inf)."""
        raise NotImplementedError

    @property
    def osc_freq(self) -> float:
        """Distance of the frequency band from zero; 0 disables IBP bounds."""
        if self.freq_lo <= 0.0 <= self.freq_hi:
            return 0.0
        return min(abs(self.freq_lo), abs(self.freq_hi))

    @property
    def single_freq(self) -> float:
        """The signed frequency when the band is one nonzero point, else 0."""
        if self.freq_lo == self.freq_hi and self.freq_lo != 0.0:
            return self.freq_lo
        return 0.0

    def tail_bounds(self, T: float) -> tuple[float, float, float]:
        """The plain, integration-by-parts and corrected tail bounds at T (inf
        where the frequency band disables one), from one tail(T) and at most
        one bound(T)."""
        plain = self.tail(T)
        w = self.osc_freq
        if w <= 0:
            return plain, math.inf, math.inf
        b = self.bound(T)
        ibp = (b + _H1_FACTOR * plain / T) / w
        w = abs(self.single_freq)
        if w <= 0:
            return plain, ibp, math.inf
        return plain, ibp, (_H1_FACTOR * b / T + _H2_FACTOR * plain / T**2) / w**2

    def effective_tail(self, T: float) -> float:
        return min(self.tail_bounds(T))

    def cutoff(self, eps: float) -> float:
        """Smallest T >= t0 with effective_tail(T) <= eps, by bisection on log T;
        inf when no T up to 1e308 qualifies."""
        lo = max(self.t0, 1e-12)
        if self.effective_tail(lo) <= eps:
            return lo
        hi = lo
        for _ in range(220):
            hi = min(hi * 2.0, 1e308)
            tail = self.effective_tail(hi)
            if tail <= eps or hi >= 1e308:
                break
        if tail > eps:
            return math.inf
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if mid == lo or mid == hi:
                break  # fixed point: neither end can move again
            if self.effective_tail(mid) <= eps:
                hi = mid
            else:
                lo = mid
        return hi

    def scaled(self, c: float) -> "DecayEnvelope":
        raise NotImplementedError

    def _arg_scaled(self, b: float) -> "DecayEnvelope":
        """Shape change for t -> bound(b*t), without frequency/t0 bookkeeping."""
        raise NotImplementedError

    def dilated_arg(self, b: float) -> "DecayEnvelope":
        """Envelope for t -> f(b*t) given |f| <= bound."""
        out = self._arg_scaled(b)
        return replace(out, t0=self.t0 / b, freq_lo=self.freq_lo * b, freq_hi=self.freq_hi * b)

    def off_center(self, c: float) -> "DecayEnvelope":
        """Valid envelope when the integrand's symmetry center moved by <= c."""
        if c == 0:
            return self
        out = self._arg_scaled(0.5)
        return replace(
            out,
            t0=max(2.0 * c, 2.0 * self.t0, 1e-9),
            freq_lo=self.freq_lo,
            freq_hi=self.freq_hi,
        )

    def conjugated(self) -> "DecayEnvelope":
        """Envelope of t -> conj(f(conj-reflected)) use: frequencies negate."""
        return replace(self, freq_lo=-self.freq_hi, freq_hi=-self.freq_lo)

    @property
    def integrable(self) -> bool:
        return True


@dataclass(frozen=True)
class ConstEnvelope(DecayEnvelope):
    """Constant bound; no integrable tail (supremum searches only)."""

    c: float = 1.0

    def bound(self, t):
        return self.c

    def tail(self, T):
        return math.inf

    def scaled(self, k):
        return replace(self, c=self.c * k)

    def _arg_scaled(self, b):
        return self

    @property
    def integrable(self):
        return False


@dataclass(frozen=True)
class PowerEnvelope(DecayEnvelope):
    """bound(t) = c / t**p; integrable tail only for p > 1."""

    p: float = 2.0
    c: float = 1.0

    def __post_init__(self):
        if self.p <= 0:
            raise InvalidParameter("power envelope needs p > 0")

    def bound(self, t):
        return self.c / max(t, 1e-300) ** self.p

    def tail(self, T):
        if self.p <= 1:
            return math.inf
        return self.c * T ** (1.0 - self.p) / (self.p - 1.0)

    def scaled(self, k):
        return replace(self, c=self.c * k)

    def _arg_scaled(self, b):
        return replace(self, c=self.c / b**self.p)

    @property
    def integrable(self):
        return self.p > 1


@dataclass(frozen=True)
class ExpEnvelope(DecayEnvelope):
    """bound(t) = c * exp(-a t) with a > 0."""

    a: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise InvalidParameter("exponential envelope needs a > 0")

    def bound(self, t):
        return self.c * math.exp(-self.a * t)

    def tail(self, T):
        return self.c * math.exp(-self.a * T) / self.a

    def scaled(self, k):
        return replace(self, c=self.c * k)

    def _arg_scaled(self, b):
        return replace(self, a=self.a * b)


@dataclass(frozen=True)
class ResolventEnvelope(DecayEnvelope):
    """bound(t) = m / (shift**2 + t**2); the shape of squared-resolvent decay."""

    m: float = 1.0
    shift: float = 1.0

    def __post_init__(self):
        if self.shift <= 0:
            raise InvalidParameter("resolvent envelope needs shift > 0")

    def bound(self, t):
        return self.m / (self.shift * self.shift + t * t)

    def tail(self, T):
        return (self.m / self.shift) * (math.pi / 2 - math.atan(T / self.shift))

    def scaled(self, k):
        return replace(self, m=self.m * k)

    def _arg_scaled(self, b):
        return replace(self, m=self.m / b**2, shift=self.shift / b)


@dataclass(frozen=True)
class StretchedExpEnvelope(DecayEnvelope):
    """bound(t) = c * t**(alpha-1) * exp(-rho * t**alpha), alpha in (0, 1]."""

    alpha: float = 0.5
    rho: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha <= 1 or self.rho <= 0:
            raise InvalidParameter("stretched-exponential envelope parameters invalid")

    def bound(self, t):
        t = max(t, 1e-300)
        return self.c * t ** (self.alpha - 1.0) * math.exp(-self.rho * t**self.alpha)

    def tail(self, T):
        return self.c * math.exp(-self.rho * T**self.alpha) / (self.alpha * self.rho)

    def scaled(self, k):
        return replace(self, c=self.c * k)

    def _arg_scaled(self, b):
        return replace(self, rho=self.rho * b**self.alpha, c=self.c * b ** (self.alpha - 1.0))


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
        t0 = max((p.t0 for p in flat), default=0.0)
        lo = min((p.freq_lo for p in flat), default=0.0)
        hi = max((p.freq_hi for p in flat), default=0.0)
        return SumEnvelope(t0=t0, freq_lo=lo, freq_hi=hi, parts=tuple(flat))

    def bound(self, t):
        return sum(p.bound(t) for p in self.parts)

    def tail(self, T):
        return sum(p.tail(T) for p in self.parts)

    def scaled(self, k):
        return replace(self, parts=tuple(p.scaled(k) for p in self.parts))

    def _arg_scaled(self, b):
        return replace(self, parts=tuple(p.dilated_arg(b) for p in self.parts))

    def off_center(self, c):
        out = replace(self, parts=tuple(p.off_center(c) for p in self.parts))
        return replace(out, t0=max(2.0 * c, 2.0 * self.t0, 1e-9))

    def conjugated(self):
        out = replace(self, parts=tuple(p.conjugated() for p in self.parts))
        return replace(out, freq_lo=-self.freq_hi, freq_hi=-self.freq_lo)

    @property
    def integrable(self):
        return all(p.integrable for p in self.parts)


def envelope_product(e1: DecayEnvelope, e2: DecayEnvelope) -> DecayEnvelope:
    """Envelope for a product of integrands bounded by e1 and e2.

    Resolvent shapes are conservatively widened to power-2 decay; exponential
    factors absorb the other factor's value at the joint t0.  Frequency bands
    add (product of phases).
    """
    t0 = max(e1.t0, e2.t0, 1e-12)
    lo = e1.freq_lo + e2.freq_lo
    hi = e1.freq_hi + e2.freq_hi

    def as_power(e: DecayEnvelope):
        if isinstance(e, PowerEnvelope):
            return e.p, e.c
        if isinstance(e, ResolventEnvelope):
            return 2.0, e.m
        return None

    if isinstance(e1, SumEnvelope):
        return SumEnvelope.of(*(envelope_product(p, e2) for p in e1.parts))
    if isinstance(e2, SumEnvelope):
        return SumEnvelope.of(*(envelope_product(e1, p) for p in e2.parts))
    if isinstance(e1, ConstEnvelope):
        out = e2.scaled(e1.c)
        return replace(out, t0=max(t0, out.t0), freq_lo=lo, freq_hi=hi)
    if isinstance(e2, ConstEnvelope):
        out = e1.scaled(e2.c)
        return replace(out, t0=max(t0, out.t0), freq_lo=lo, freq_hi=hi)
    if isinstance(e1, ExpEnvelope):
        return ExpEnvelope(t0=t0, freq_lo=lo, freq_hi=hi, a=e1.a, c=e1.c * e2.bound(t0))
    if isinstance(e2, ExpEnvelope):
        return ExpEnvelope(t0=t0, freq_lo=lo, freq_hi=hi, a=e2.a, c=e2.c * e1.bound(t0))
    p1, p2 = as_power(e1), as_power(e2)
    if p1 and p2:
        return PowerEnvelope(t0=t0, freq_lo=lo, freq_hi=hi, p=p1[0] + p2[0], c=p1[1] * p2[1])
    if isinstance(e1, StretchedExpEnvelope):
        return replace(e1, t0=t0, freq_lo=lo, freq_hi=hi, c=e1.c * e2.bound(t0))
    if isinstance(e2, StretchedExpEnvelope):
        return replace(e2, t0=t0, freq_lo=lo, freq_hi=hi, c=e2.c * e1.bound(t0))
    raise InvalidParameter(f"no product rule for {type(e1).__name__} x {type(e2).__name__}")


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
    tail_error: float = 0.0


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
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of a vectorized integrand over [a, b].

    The reported error bounds max(abs_tol, rel_tol*|result|) on success.
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
        elif len(lefts) + len(l) > _MAX_PANELS:
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


def _check_envelope(f, env: DecayEnvelope, T: float, sign: float = 1.0) -> None:
    """Sample |f| at a few points beyond T and compare with the envelope."""
    ts = T * np.array([1.0, 1.5, 2.3, 3.7])
    vals = np.abs(np.asarray(f(sign * ts)))
    if vals.ndim > 1:
        vals = vals.reshape(len(ts), -1).max(axis=1)
    bounds = np.array([env.bound(t) for t in ts])
    bad = vals > 1.1 * bounds + 1e-300
    if np.any(bad):
        t_bad = ts[bad][0]
        raise EnvelopeViolated(
            f"integrand exceeds envelope at t={t_bad:.4g}: "
            f"{vals[bad][0]:.4g} > 1.1*{env.bound(t_bad):.4g}"
        )


def _dyadic_breakpoints(a: float, b: float, scale: float) -> list[float]:
    """Geometric pre-subdivision so the adaptive engine descends fewer levels."""
    pts = []
    t = max(scale, 1e-6)
    while a + t < b:
        pts.append(a + t)
        t *= 4.0
    return pts


def truncation_point(envelope: DecayEnvelope, cfg: QuadratureConfig, tails: int) -> float:
    """The T at which `integrate_halfline` (tails=1) and `integrate_line` (tails=2) truncate:
    where each tail fits in cfg.abs_tol / tails, and at least 1.5 t0 and 1."""
    if not envelope.integrable:
        raise InvalidParameter("integration to infinity requires an integrable envelope")
    T = envelope.cutoff(cfg.abs_tol / tails)
    if not math.isfinite(T):
        raise InvalidParameter("envelope tail never reaches the requested tolerance")
    return max(T, envelope.t0 * 1.5 + 1e-9, 1.0)


def _integrate_truncated(f, envelope, cfg, tails, strict) -> QuadResult:
    """Integrate f over [0, inf) (tails=1) or the whole line (tails=2); the tail
    budget, cfg.abs_tol, is split equally between the tails."""
    T = truncation_point(envelope, cfg, tails)
    bp = _dyadic_breakpoints(0.0, T, max(envelope.t0, 1.0) / 4.0)
    if tails == 2:  # integrate_interval sorts and deduplicates breakpoints
        bp += [0.0, *(-x for x in bp)]
    res = integrate_interval(f, -T if tails == 2 else 0.0, T, cfg, breakpoints=bp, strict=strict)
    for sign in (1.0, -1.0)[:tails]:
        _check_envelope(f, envelope, T, sign)
    value = res.value
    plain, ibp, corr = envelope.tail_bounds(T)
    if corr <= min(plain, ibp):
        ends = np.asarray(f(np.array([-T, T] if tails == 2 else [T])))
        jump = ends[0] - ends[1] if tails == 2 else -ends[0]
        value = value + jump / (1j * envelope.single_freq)
    tail = tails * min(plain, ibp, corr)
    return QuadResult(value, res.error + tail, res.n_evals, res.converged, tail)


def integrate_halfline(
    f,
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    strict: bool = True,
) -> QuadResult:
    """Integrate f over [0, inf) with envelope-certified truncation."""
    return _integrate_truncated(f, envelope, cfg, 1, strict)


def integrate_line(
    f,
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    strict: bool = True,
) -> QuadResult:
    """Integrate f over the whole line; the envelope bounds both tails in |t|."""
    return _integrate_truncated(f, envelope, cfg, 2, strict)


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
    absolute errors, so the absolute tolerance, also the tail's, shrinks by 1/max(x, 1)."""
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

"""Adaptive 1-D quadrature over finite, half-line and full-line domains.

Improper integrals require a declared decay envelope; the tail beyond the
truncation point is bounded by the envelope's closed-form tail integral and
charged to the reported error.  Integrands may be scalar-, vector- or
matrix-valued; all values at the nodes of a panel batch are computed in one
vectorized call.
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
    "sup_on_vertical_line",
    "golden_max",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation controls shared by all integrals and suprema."""

    abs_tol: float = 1e-8
    rel_tol: float = 1e-7
    max_depth: int = 40
    line_trunc_factor: float = 1e3
    sup_grid_points: int = 257
    sup_refine_rounds: int = 30

    def __post_init__(self):
        if not all(
            math.isfinite(v) and v > 0
            for v in (self.abs_tol, self.rel_tol, self.line_trunc_factor)
        ):
            raise InvalidParameter("tolerances and truncation factors must be finite and positive")
        if self.max_depth < 10:
            raise InvalidParameter("max_depth must be at least 10")
        if self.sup_grid_points < 9 or self.sup_refine_rounds < 1:
            raise InvalidParameter("supremum search parameters too small")

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

    def tail_ibp(self, T: float) -> float:
        w = self.osc_freq
        if w <= 0:
            return math.inf
        return (self.bound(T) + _H1_FACTOR * self.tail(T) / T) / w

    def tail_corrected(self, T: float) -> float:
        w = abs(self.single_freq)
        if w <= 0:
            return math.inf
        return (_H1_FACTOR * self.bound(T) / T + _H2_FACTOR * self.tail(T) / T**2) / w**2

    def effective_tail(self, T: float) -> float:
        return min(self.tail(T), self.tail_ibp(T), self.tail_corrected(T))

    def tail_mode(self, T: float) -> str:
        plain, ibp, corr = self.tail(T), self.tail_ibp(T), self.tail_corrected(T)
        if corr <= min(plain, ibp):
            return "corrected"
        if ibp <= plain:
            return "ibp"
        return "plain"

    def cutoff(self, eps: float, t_max: float = 1e308) -> float:
        """Smallest T >= t0 with effective_tail(T) <= eps, by bisection on log T."""
        lo = max(self.t0, 1e-12)
        if self.effective_tail(lo) <= eps:
            return lo
        hi = lo
        for _ in range(220):
            hi = min(hi * 2.0, t_max)
            if self.effective_tail(hi) <= eps or hi >= t_max:
                break
        if self.effective_tail(hi) > eps:
            return math.inf
        for _ in range(80):
            mid = math.sqrt(lo * hi)
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

    def with_band(self, lo: float, hi: float) -> "DecayEnvelope":
        return replace(self, freq_lo=lo, freq_hi=hi)

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
        return self.m / (self.shift**2 + t * t)

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


@dataclass
class QuadResult:
    value: complex | np.ndarray
    error: float
    n_evals: int = 0
    converged: bool = True
    tail_error: float = 0.0

    def __iter__(self):  # allow  value, err = integrate_...(...)
        yield self.value
        yield self.error


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def _eval_panels(f, lefts, rights):
    """Return per-panel Kronrod values and |K15-G7| error estimates."""
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.reshape(-1)))
    vals = vals.reshape(pts.shape + vals.shape[1:])
    if not np.all(np.isfinite(vals)):
        raise DepthExceeded("non-finite integrand value inside a panel")
    if vals.ndim == 2:
        kron, gauss = vals @ _WK, vals @ _WG_FULL
    else:
        # one product against both rules; wide values are never copied
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
    """
    if not (a < b):
        raise InvalidParameter("integrate_interval requires a < b")
    edges = [a, b] if not breakpoints else sorted({a, b, *(x for x in breakpoints if a < x < b)})
    lefts = np.array(edges[:-1])
    rights = np.array(edges[1:])
    values, errs = _eval_panels(f, lefts, rights)
    panels = [
        [lefts[i], rights[i], values[i], errs[i], 0] for i in range(len(lefts))
    ]  # [left, right, value, err, depth]
    n_evals = 15 * len(panels)

    for _ in range(16 * cfg.max_depth):
        total_err = sum(p[3] for p in panels)
        total_val = panels[0][2] * 0
        for p in panels:
            total_val = total_val + p[2]
        tol = max(cfg.abs_tol, cfg.rel_tol * _maxabs(total_val))
        if total_err <= tol:
            break
        width_total = b - a
        share = [
            max(tol * (p[1] - p[0]) / width_total, tol / (4.0 * len(panels))) for p in panels
        ]
        split_idx = [i for i, p in enumerate(panels) if p[3] > share[i] and p[4] < cfg.max_depth]
        if not split_idx:
            if strict:
                raise DepthExceeded(
                    f"adaptive bisection stalled: error {total_err:.3e} > tol {tol:.3e}"
                )
            return QuadResult(total_val, total_err, n_evals, converged=False)
        if len(panels) + len(split_idx) > _MAX_PANELS:
            if strict:
                raise DepthExceeded("panel budget exhausted")
            return QuadResult(total_val, total_err, n_evals, converged=False)
        new_lefts, new_rights, meta = [], [], []
        for i in split_idx:
            l, r, _, _, d = panels[i]
            m = 0.5 * (l + r)
            if m <= l or m >= r:
                if strict:
                    raise DepthExceeded("panel width underflow")
                return QuadResult(total_val, total_err, n_evals, converged=False)
            new_lefts += [l, m]
            new_rights += [m, r]
            meta += [d + 1, d + 1]
        vals2, errs2 = _eval_panels(f, new_lefts, new_rights)
        n_evals += 15 * len(new_lefts)
        for i in sorted(split_idx, reverse=True):
            del panels[i]
        for j in range(len(new_lefts)):
            panels.append([new_lefts[j], new_rights[j], vals2[j], errs2[j], meta[j]])
    panels.sort(key=lambda p: p[0])
    value = panels[0][2] * 0
    for p in panels:
        value = value + p[2]
    total_err = sum(p[3] for p in panels)
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


def integrate_halfline(
    f,
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    start: float = 0.0,
    tail_tol: float | None = None,
    strict: bool = True,
) -> QuadResult:
    """Integrate f over [start, inf) with envelope-certified truncation."""
    if not envelope.integrable:
        raise InvalidParameter("half-line integration requires an integrable envelope")
    eps = 0.5 * cfg.abs_tol if tail_tol is None else tail_tol
    T = envelope.cutoff(eps)
    if not math.isfinite(T):
        raise InvalidParameter("envelope tail never reaches the requested tolerance")
    T = max(T, start + 1.0, envelope.t0 * 1.5 + 1e-9)
    res = integrate_interval(
        f,
        start,
        T,
        cfg,
        breakpoints=_dyadic_breakpoints(start, T, max(envelope.t0, 1.0) / 4.0),
        strict=strict,
    )
    _check_envelope(f, envelope, T)
    value = res.value
    if envelope.tail_mode(T) == "corrected":
        phi = envelope.single_freq
        value = value - np.asarray(f(np.array([T])))[0] / (1j * phi)
    tail = envelope.effective_tail(T)
    return QuadResult(value, res.error + tail, res.n_evals, res.converged, tail)


def integrate_line(
    f,
    envelope: DecayEnvelope,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    tail_tol: float | None = None,
    strict: bool = True,
) -> QuadResult:
    """Integrate f over the whole line; the envelope bounds both tails in |t|."""
    if not envelope.integrable:
        raise InvalidParameter("line integration requires an integrable envelope")
    eps = 0.25 * cfg.abs_tol if tail_tol is None else 0.5 * tail_tol
    T = envelope.cutoff(eps)
    if not math.isfinite(T):
        raise InvalidParameter("envelope tail never reaches the requested tolerance")
    T = max(T, envelope.t0 * 1.5 + 1e-9, 1.0)
    bp = _dyadic_breakpoints(0.0, T, max(envelope.t0, 1.0) / 4.0)
    res = integrate_interval(
        f, -T, T, cfg, breakpoints=sorted({-x for x in bp} | set(bp) | {0.0}), strict=strict
    )
    _check_envelope(f, envelope, T, sign=1.0)
    _check_envelope(f, envelope, T, sign=-1.0)
    value = res.value
    if envelope.tail_mode(T) == "corrected":
        phi = envelope.single_freq
        ends = np.asarray(f(np.array([-T, T])))
        value = value + (ends[0] - ends[1]) / (1j * phi)
    tail = 2.0 * envelope.effective_tail(T)
    return QuadResult(value, res.error + tail, res.n_evals, res.converged, tail)


# ---------------------------------------------------------------------------
# Suprema along vertical lines
# ---------------------------------------------------------------------------


@dataclass
class SupResult:
    value: float
    location: float
    stabilized: bool = True

    def __float__(self):
        return self.value


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(phi: Callable[[float], float], lo: float, hi: float, rounds: int):
    """Golden-section search for a maximum on [lo, hi]: one bracket of
    `_golden_max_multi`, calling the scalar phi 2 + rounds times."""
    xs, vs = _golden_max_multi(
        lambda u: np.array([phi(float(u[0]))]), np.array([lo]), np.array([hi]), rounds
    )
    return float(xs[0]), float(vs[0])


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


def sup_on_vertical_line(
    phi: Callable[[np.ndarray], np.ndarray],
    envelope: DecayEnvelope | None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    window: float | None = None,
) -> SupResult:
    """Estimate sup over the real line of a nonnegative function.

    Coarse symmetric grid, envelope-driven window extension, then
    golden-section refinement around the top grid cells.  The returned value
    is a certified lower estimate of the supremum.
    """
    scale = max(envelope.t0 if envelope is not None else 1.0, 1.0)
    Y = float(window) if window else 4.0 * scale
    Y_cap = cfg.line_trunc_factor * max(scale, Y)
    decaying = envelope is not None and envelope.integrable

    grid = None
    vals = None
    for _ in range(64):
        grid = np.linspace(-Y, Y, cfg.sup_grid_points)
        vals = np.asarray(phi(grid), dtype=float)
        m = float(vals.max())
        need_extend = False
        if decaying and m > 0 and envelope.bound(Y) >= 0.5 * m and Y < Y_cap:
            need_extend = True
        edge = cfg.sup_grid_points // 20
        at_edge = vals.argmax() <= edge or vals.argmax() >= cfg.sup_grid_points - 1 - edge
        rising = m > vals[cfg.sup_grid_points // 2] * (1.0 + 1e-12)
        if at_edge and rising and Y < Y_cap and m > 0:
            need_extend = True
        if not need_extend:
            break
        Y = min(2.0 * Y, Y_cap)
    assert grid is not None and vals is not None

    order = np.argsort(vals)[::-1]
    chosen: list[int] = []
    for i in order:
        if all(abs(i - j) > 1 for j in chosen):
            chosen.append(int(i))
        if len(chosen) >= 5:
            break
    best_val = float(vals.max())
    best_loc = float(grid[int(vals.argmax())])
    los = np.array([grid[max(i - 1, 0)] for i in chosen])
    his = np.array([grid[min(i + 1, len(grid) - 1)] for i in chosen])
    ok = his > los
    improved = 0.0
    if ok.any():
        xs, vs = _golden_max_multi(phi, los[ok], his[ok], cfg.sup_refine_rounds)
        k = int(np.argmax(vs))
        if vs[k] > best_val:
            improved = float(vs[k]) - best_val
            best_val, best_loc = float(vs[k]), float(xs[k])
    # refinement must not still be moving the estimate materially
    stabilized = improved <= 0.02 * max(best_val, 1e-300)
    return SupResult(best_val, best_loc, stabilized)

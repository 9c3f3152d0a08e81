"""Holomorphic functions on the right half-plane: catalog, algebra, derivatives.

Every function carries vectorized evaluators for f and f', its value at
infinity when known, and certified decay envelopes used by the norm and
integration machinery: envelopes in y along vertical lines Re = x, and
envelopes in x for the line suprema of |f| and |f'|.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidParameter, RangeViolation, UnknownSpec
from .quadrature import (
    ConstEnvelope,
    DecayEnvelope,
    ExpEnvelope,
    PowerEnvelope,
    ResolventEnvelope,
    StretchedExpEnvelope,
    SumEnvelope,
    envelope_product,
)

__all__ = [
    "AnalyticFunction",
    "HalfLineMeasure",
    "DecayProfile",
    "BernsteinFunction",
    "Profiles",
    "parse_function_spec",
    "parse_complex",
    "parse_number",
    "SpecArgs",
    "add",
    "mul",
    "scale",
    "shift",
    "dilate",
    "reciprocal",
    "power",
    "const",
    "exp_decay",
    "resolvent",
    "cayley_pow",
    "eta",
    "exp_inv_shift",
    "vitse_reg",
    "laplace_transform",
    "band_function",
    "bernstein_resolvent",
]


# ---------------------------------------------------------------------------
# Measures, decay profiles, Bernstein generators
# ---------------------------------------------------------------------------


def _require_finite(what: str, *values) -> None:
    """Raise InvalidParameter unless every numeric parameter of `what` is finite."""
    if not all(cmath.isfinite(complex(v)) for v in values):
        raise InvalidParameter(f"{what} needs finite parameters")


def _is_int_in(v, lo: int, hi: float = math.inf) -> bool:
    """Whether v is an int or numpy integer, not a bool, with lo <= v <= hi."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi


@dataclass(frozen=True)
class HalfLineMeasure:
    """Bounded measure on [0, inf): point atoms plus an optional named density.

    density is None or a tuple:
      ("exp", coeff, rate)        coeff * exp(-rate*t) dt on [0, inf), rate > 0
      ("lebesgue", coeff, a, b)   coeff * dt on [a, b], b finite
    """

    atoms: tuple[tuple[float, complex], ...] = ()
    density: tuple | None = None

    def __post_init__(self):
        for t, _ in self.atoms:
            if t < 0:
                raise InvalidParameter("atom locations must be >= 0")
        if self.density is not None:
            kind = self.density[0]
            if kind == "exp":
                _, _, rate = self.density
                if rate <= 0:
                    raise InvalidParameter("exponential density needs rate > 0")
            elif kind == "lebesgue":
                _, _, a, b = self.density
                if not 0 <= a < b < math.inf:
                    raise InvalidParameter("lebesgue density needs 0 <= a < b < inf")
            else:
                raise InvalidParameter(f"unknown density kind {kind!r}")
        _require_finite("measure", *(v for atom in self.atoms for v in atom))

    def total_variation(self) -> float:
        tv = sum(abs(c) for _, c in self.atoms)
        if self.density is not None:
            if self.density[0] == "exp":
                _, coeff, rate = self.density
                tv += abs(coeff) / rate
            else:
                _, coeff, a, b = self.density
                tv += abs(coeff) * (b - a)
        return tv


@dataclass(frozen=True)
class DecayProfile:
    """Nonincreasing majorant h(t) of boundary decay, with an integrable envelope."""

    h: Callable[[np.ndarray], np.ndarray]
    envelope: DecayEnvelope

    def validate(self) -> None:
        ts = np.geomspace(1e-3, 1e3, 61)
        vals = np.asarray(self.h(ts), dtype=float)
        if np.any(np.diff(vals) > 1e-12 * (1 + vals[:-1])):
            raise InvalidParameter("decay profile must be nonincreasing")
        if np.any(vals < 0):
            raise InvalidParameter("decay profile must be nonnegative")


@dataclass(frozen=True)
class BernsteinFunction:
    """f(z) = a + b z + sum c_k (1 - exp(-z s_k)) with a, b, c_k >= 0, s_k > 0."""

    a: float = 0.0
    b: float = 0.0
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        _require_finite("Bernstein function", self.a, self.b, *(v for j in self.jumps for v in j))
        if self.a < 0 or self.b < 0:
            raise InvalidParameter("Bernstein function needs a, b >= 0")
        for s, c in self.jumps:
            if s <= 0 or c < 0:
                raise InvalidParameter("jump measure needs locations > 0, weights >= 0")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.a + self.b * z
        for s, c in self.jumps:
            out = out + c * (1.0 - np.exp(-z * s))
        return out

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.b, dtype=complex)
        for s, c in self.jumps:
            out = out + c * s * np.exp(-z * s)
        return out

    def limit_at_infinity(self) -> float:
        if self.b > 0:
            return math.inf
        return self.a + sum(c for _, c in self.jumps)

    def validate_monotone(self) -> None:
        xs = np.geomspace(1e-3, 1e3, 200)
        f = self(xs).real
        fp = self.deriv(xs).real
        if np.any(f <= 0) and (self.a > 0 or self.b > 0 or self.jumps):
            if np.any(f < -1e-14):
                raise InvalidParameter("Bernstein function must be positive on (0, inf)")
        if np.any(np.diff(f) < -1e-12):
            raise InvalidParameter("Bernstein function must be increasing on (0, inf)")
        if np.any(np.diff(fp) > 1e-12 * (1 + fp[:-1])):
            raise InvalidParameter("Bernstein derivative must be decreasing on (0, inf)")


# ---------------------------------------------------------------------------
# Analytic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profiles:
    """Certified envelope bundle for one analytic function.

    deriv_line(x) bounds y -> |f'(x+iy)|; modulus_line(x) bounds y -> |f(x+iy)|;
    deriv_outer bounds x -> sup_y |f'(x+iy)|; modulus_outer bounds the modulus
    supremum.  window is an initial half-width for supremum grids; e0_upper,
    when set, certifies sup_x x * int |f'(x+iy)| dy <= e0_upper.  sampled marks
    envelopes whose constants come from samples of f, not from a proof, so a
    norm built on them is not certified.
    """

    deriv_line: Callable[[float], DecayEnvelope]
    modulus_line: Callable[[float], DecayEnvelope]
    deriv_outer: DecayEnvelope
    modulus_outer: DecayEnvelope
    window: float = 8.0
    e0_upper: float | None = None
    sampled: bool = False


@dataclass(frozen=True)
class AnalyticFunction:
    """A holomorphic function on Re z > -left_bound with metadata for quadrature.

    summands, when present, give an exact decomposition f = sum of parts whose
    envelopes have narrower frequency bands; linear operations (the pairing and
    the operator calculus) may integrate the parts separately.
    """

    eval_fn: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], np.ndarray]
    profiles: Profiles
    value_at_infinity: complex | None = None
    label: str = "f"
    left_bound: float = 0.0
    summands: tuple["AnalyticFunction", ...] | None = None

    def __post_init__(self):
        if not callable(self.deriv_fn):
            raise InvalidParameter(f"{self.label} needs a callable deriv_fn")

    def __call__(self, z):
        scalar = np.isscalar(z)
        out = self.eval_fn(np.asarray(z, dtype=complex))
        return complex(out) if scalar and np.ndim(out) == 0 else out

    def deriv(self, z):
        scalar = np.isscalar(z)
        out = self.deriv_fn(np.atleast_1d(np.asarray(z, dtype=complex)))
        out = out.reshape(np.shape(np.asarray(z)))
        return complex(out) if scalar else out

    def infinity(self) -> complex:
        """f(infinity), as declared by the constructor."""
        if self.value_at_infinity is None:
            raise InvalidParameter(f"{self.label} declares no value at infinity")
        return self.value_at_infinity

    def relabel(self, label: str) -> "AnalyticFunction":
        return replace(self, label=label)


# ---------------------------------------------------------------------------
# Catalog members
# ---------------------------------------------------------------------------

_ZERO_ENV = PowerEnvelope(p=2.0, c=0.0)


def const(c: complex) -> AnalyticFunction:
    _require_finite("const", c)
    c = complex(c)
    prof = Profiles(
        deriv_line=lambda x: _ZERO_ENV,
        modulus_line=lambda x: ConstEnvelope(c=abs(c)),
        deriv_outer=_ZERO_ENV,
        modulus_outer=ConstEnvelope(c=abs(c)),
        e0_upper=0.0,
    )
    return AnalyticFunction(
        eval_fn=lambda z: np.full_like(z, c),
        deriv_fn=lambda z: np.zeros_like(z),
        profiles=prof,
        value_at_infinity=c,
        label=f"const({c:g})" if c.imag == 0 else f"const({c})",
        left_bound=math.inf,
    )


def exp_decay(a: float) -> AnalyticFunction:
    """e_a(z) = exp(-a z) for real a >= 0."""
    a = complex(a)
    if a.imag != 0 or not 0 <= a.real < math.inf:
        raise InvalidParameter("exp catalog member needs finite real a >= 0")
    a = a.real
    if a == 0:
        return const(1.0)
    prof = Profiles(
        deriv_line=lambda x: ConstEnvelope(c=a * math.exp(-a * x), freq_lo=-a, freq_hi=-a),
        modulus_line=lambda x: ConstEnvelope(c=math.exp(-a * x), freq_lo=-a, freq_hi=-a),
        deriv_outer=ExpEnvelope(a=a, c=a),
        modulus_outer=ExpEnvelope(a=a, c=1.0),
        window=3.0 * 2.0 * math.pi / a,
    )
    return AnalyticFunction(
        eval_fn=lambda z: np.exp(-a * z),
        deriv_fn=lambda z: -a * np.exp(-a * z),
        profiles=prof,
        value_at_infinity=0.0,
        label=f"exp(a={a:g})",
        left_bound=math.inf,
    )


# |a| above this makes (z + a)**2 overflow, or its reciprocal leave the normal floats
_MAX_POLE = 1e150


def resolvent(a: complex) -> AnalyticFunction:
    """r_a(z) = (z + a)^(-1) for a in the closed right half-plane."""
    a = complex(a)
    if not cmath.isfinite(a):
        raise InvalidParameter("resolvent catalog member needs a finite a")
    if abs(a) > _MAX_POLE:
        raise InvalidParameter(f"resolvent catalog member needs |a| <= {_MAX_POLE:g}, got a = {a}")
    if a.real < 0:
        raise InvalidParameter("resolvent catalog member needs Re a >= 0")
    if a == 0:
        raise InvalidParameter("resolvent pole must not sit at the origin")
    s, c0 = a.real, abs(a.imag)

    def dl(x):
        return ResolventEnvelope(m=1.0, shift=x + s, t0=0.0).off_center(c0)

    prof = Profiles(
        deriv_line=dl,
        modulus_line=lambda x: PowerEnvelope(p=1.0, c=2.0, t0=max(2 * (c0 + x + s), 1.0)),
        deriv_outer=PowerEnvelope(p=2.0, c=1.0, t0=1e-6),
        modulus_outer=PowerEnvelope(p=1.0, c=1.0, t0=1e-6),
        window=max(8.0, 4.0 * c0),
        e0_upper=math.pi,
    )
    return AnalyticFunction(
        eval_fn=lambda z: 1.0 / (z + a),
        deriv_fn=lambda z: -1.0 / (z + a) ** 2,
        profiles=prof,
        value_at_infinity=0.0,
        label=f"resolvent(a={a})",
        left_bound=s,
    )


def cayley_pow(n: int) -> AnalyticFunction:
    """((z-1)/(z+1))^n, n >= 1."""
    if not _is_int_in(n, 1):
        raise InvalidParameter(f"cayley power needs integer n >= 1, got {n!r}")
    n = int(n)

    def ev(z):
        return ((z - 1.0) / (z + 1.0)) ** n

    def dv(z):
        w = (z - 1.0) / (z + 1.0)
        return 2.0 * n * w ** (n - 1) / (z + 1.0) ** 2

    prof = Profiles(
        deriv_line=lambda x: ResolventEnvelope(m=2.0 * n, shift=x + 1.0),
        modulus_line=lambda x: ConstEnvelope(c=1.0),
        deriv_outer=PowerEnvelope(p=2.0, c=2.0 * n, t0=2.0 * n),
        modulus_outer=ConstEnvelope(c=1.0),
        window=max(8.0, 2.0 * n),
        # |chi_n'(z)| <= 2n/|z+1|^2, so x int |chi_n'(x+iy)| dy <= 2n pi x/(x+1)
        e0_upper=2.0 * n * math.pi,
    )
    return AnalyticFunction(
        eval_fn=ev,
        deriv_fn=dv,
        profiles=prof,
        value_at_infinity=1.0,
        label=f"cayley(n={n})",
        left_bound=1.0,
    )


def _eta_eval(z):
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.25
    zs = z[small]
    # series of (1 - exp(-z))/z around 0
    acc = np.zeros_like(zs)
    term = np.ones_like(zs)
    for k in range(1, 18):
        term = term * (-zs) / (k + 1) if k > 1 else (-zs) / 2.0
        if k == 1:
            acc = 1.0 + term
        else:
            acc = acc + term
    out[small] = acc
    zb = z[~small]
    out[~small] = (1.0 - np.exp(-zb)) / zb
    return out


def _eta_deriv(z):
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.25
    zs = z[small]
    # series of d/dz (1-exp(-z))/z = sum_{k>=1} k (-1)^k z^(k-1) / (k+1)!
    acc = np.zeros_like(zs)
    pw = np.ones_like(zs)
    for k in range(1, 18):
        acc = acc + k * (-1) ** k * pw / math.factorial(k + 1)
        pw = pw * zs
    out[small] = acc
    zb = z[~small]
    out[~small] = (np.exp(-zb) * (1.0 + zb) - 1.0) / zb**2
    return out


def eta(delta: float = 1.0) -> AnalyticFunction:
    """(1 - exp(-z))/z, the Laplace transform of Lebesgue measure on [0, 1]."""

    def dl(x):
        return SumEnvelope.of(
            PowerEnvelope(p=2.0, c=2.0, t0=max(2.0 * (1.0 + x), 2.0)),
            PowerEnvelope(
                p=1.0, c=math.exp(-x), t0=max(2.0 * (1.0 + x), 2.0), freq_lo=-1.0, freq_hi=-1.0
            ),
        )

    prof = Profiles(
        deriv_line=dl,
        # frequency content spans [-1, 0]: never a single-frequency factor
        modulus_line=lambda x: PowerEnvelope(
            p=1.0, c=2.0, t0=max(x, 1.0), freq_lo=-1.0, freq_hi=0.0
        ),
        deriv_outer=PowerEnvelope(p=2.0, c=1.0, t0=1.0),
        modulus_outer=PowerEnvelope(p=1.0, c=1.0, t0=1e-6),
        window=24.0,
    )
    base = AnalyticFunction(
        eval_fn=_eta_eval,
        deriv_fn=_eta_deriv,
        profiles=prof,
        value_at_infinity=0.0,
        label="eta",
        left_bound=math.inf,
    )
    if delta == 1.0:
        return base
    if delta <= 0:
        raise InvalidParameter("eta dilation needs delta > 0")
    return dilate(base, delta).relabel(f"eta(delta={delta:g})")


def exp_inv_shift(t: float) -> AnalyticFunction:
    """exp(-t/(z+1)), t > 0."""
    _require_finite("exp_inv_shift", t)
    if t <= 0:
        raise InvalidParameter("exp_inv_shift needs t > 0")

    def ev(z):
        return np.exp(-t / (z + 1.0))

    def dv(z):
        return t * np.exp(-t / (z + 1.0)) / (z + 1.0) ** 2

    # t0 >= t/6 keeps the phase of exp(-t/(z+1)) inside the slow-variation
    # contract assumed by oscillatory tail corrections in products
    prof = Profiles(
        deriv_line=lambda x: ResolventEnvelope(m=t, shift=x + 1.0, t0=t / 6.0),
        modulus_line=lambda x: ConstEnvelope(c=1.0, t0=t / 6.0),
        deriv_outer=PowerEnvelope(p=2.0, c=t, t0=1.0),
        modulus_outer=ConstEnvelope(c=1.0),
    )
    return AnalyticFunction(
        eval_fn=ev,
        deriv_fn=dv,
        profiles=prof,
        value_at_infinity=1.0,
        label=f"expinv(t={t:g})",
        left_bound=1.0,
    )


def vitse_reg(t: float) -> AnalyticFunction:
    """(z/(z+1))^2 exp(-t/z), t > 0; the regularised inverse-exponential."""
    _require_finite("vitse_reg", t)
    if t <= 0:
        raise InvalidParameter("vitse_reg needs t > 0")

    def ev(z):
        return (z / (z + 1.0)) ** 2 * np.exp(-t / z)

    def dv(z):
        return (t + (t + 2.0) * z) / (1.0 + z) ** 3 * np.exp(-t / z)

    prof = Profiles(
        deriv_line=lambda x: ResolventEnvelope(m=t + 2.0, shift=x + 1.0, t0=t / 6.0),
        modulus_line=lambda x: ConstEnvelope(c=1.0, t0=t / 6.0),
        deriv_outer=PowerEnvelope(p=2.0, c=t + 2.0, t0=1.0),
        modulus_outer=ConstEnvelope(c=1.0),
        window=max(8.0, 4.0 * math.sqrt(t)),
    )
    return AnalyticFunction(
        eval_fn=ev,
        deriv_fn=dv,
        profiles=prof,
        value_at_infinity=1.0,
        label=f"vitse(t={t:g})",
        left_bound=0.0,
    )


def laplace_transform(measure: HalfLineMeasure) -> AnalyticFunction:
    """Laplace transform of a bounded measure: the sum of its parts.

    The parts are a constant for the atoms at 0, one exponential per atom at
    t > 0 and a resolvent or dilated eta part for the density; f is their sum
    and keeps them as summands.  Only two profile facts come from the whole
    measure: the supremum window, which must resolve the beat of the nearest
    two rates, and the global modulus bound, its total variation.
    """
    atoms = tuple((float(t), complex(c)) for t, c in measure.atoms)
    parts: list[AnalyticFunction] = []
    zero_mass = sum(c for t, c in atoms if t == 0.0)
    if zero_mass != 0:
        parts.append(const(zero_mass))
    for t, c in atoms:
        if t > 0 and c != 0:
            parts.append(scale(exp_decay(t), c))
    dens = measure.density
    if dens is not None:
        if dens[0] == "exp":
            _, coeff, rate = dens
            parts.append(scale(resolvent(rate), coeff))
        else:
            _, coeff, a, b = dens
            w = b - a
            core = dilate(eta(), w) if a == 0 else mul(exp_decay(a), dilate(eta(), w))
            parts.append(scale(core, coeff * w))
    f = functools.reduce(add, parts) if parts else const(0.0)
    taus = sorted(t for t, c in atoms if t > 0 and c != 0)
    beat = min([taus[0]] + [b - a for a, b in zip(taus, taus[1:]) if b > a]) if taus else 1.0
    prof = replace(
        f.profiles,
        window=max(8.0, 3.0 * 2.0 * math.pi / beat),
        modulus_outer=ConstEnvelope(c=measure.total_variation()),
    )
    return replace(f, profiles=prof, label="laplace(...)")


def band_function(eps: float, sigma: float, coeffs=None) -> AnalyticFunction:
    """Finite exponential sum with rates in [eps, sigma]: sum c_j exp(-tau_j z)."""
    _require_finite("band", eps, sigma)
    if not 0 < eps < sigma:
        raise InvalidParameter("band needs 0 < eps < sigma")
    if coeffs is None:
        coeffs = [(eps, 1.0), (sigma, -1.0)]
    taus = [float(t) for t, _ in coeffs]
    if any(t < eps - 1e-12 or t > sigma + 1e-12 for t in taus):
        raise InvalidParameter("band rates must lie in [eps, sigma]")
    f = laplace_transform(HalfLineMeasure(atoms=tuple((t, complex(c)) for t, c in coeffs)))
    return f.relabel(f"band(eps={eps:g},sigma={sigma:g})")


def bernstein_resolvent(
    fb: BernsteinFunction, alpha: float, beta: float, theta: float, lam: complex
) -> AnalyticFunction:
    """(lam + fb(z^alpha)^beta)^(-1) on the half-plane."""
    _require_finite("bernstein_resolvent", lam)
    if not 0 < alpha < 1:
        raise InvalidParameter("needs alpha in (0, 1)")
    if not 1 < beta <= 1.0 / alpha + 1e-12:
        raise InvalidParameter("needs beta in (1, 1/alpha]")
    if not 0 < theta < math.pi / 2:
        raise InvalidParameter("needs theta in (0, pi/2)")
    lam = complex(lam)
    if lam == 0 or abs(cmath.phase(lam)) >= theta:
        raise InvalidParameter("lambda must lie in the open sector of half-angle theta")
    fb.validate_monotone()
    c_a = math.cos(alpha * math.pi / 2.0)
    kappa = math.cos((alpha * beta * math.pi / 2.0 + theta) / 2.0)

    def g(z):
        return fb(np.power(z, alpha)) ** beta

    def ev(z):
        return 1.0 / (lam + g(z))

    def dv(z):
        w = np.power(z, alpha)
        return (
            -alpha
            * beta
            * fb(w) ** (beta - 1.0)
            * fb.deriv(w)
            * np.power(z, alpha - 1.0)
            / (lam + fb(w) ** beta) ** 2
        )

    L = fb.limit_at_infinity()
    f_inf = 0.0 if math.isinf(L) else 1.0 / (lam + L**beta)

    def s_bound(x: float) -> float:
        u = c_a * x**alpha
        return float(
            alpha
            * beta
            * fb.deriv(np.array([u + 0j]))[0].real
            / (kappa**2 * (abs(lam) + fb(np.array([u + 0j]))[0].real ** beta) ** (1 + 1 / beta))
        )

    if fb.b > 0:
        c_pow = (
            alpha
            * beta
            * (fb.b + sum(c * s for s, c in fb.jumps))
            / (kappa**2 * (fb.b * c_a) ** (beta + 1.0))
        )
        deriv_outer = PowerEnvelope(p=1.0 + alpha * beta, c=c_pow, t0=1.0)
    elif fb.jumps:
        s_min = min(s for s, _ in fb.jumps)
        d0 = sum(c * s for s, c in fb.jumps)
        c_st = alpha * beta * d0 / (kappa**2 * abs(lam) ** (1 + 1 / beta))
        deriv_outer = StretchedExpEnvelope(alpha=alpha, rho=s_min * c_a, c=c_st, t0=1e-6)
    else:
        return const(1.0 / (lam + fb.a**beta))

    # the degenerate band [-eps, 0] marks sub-linear phase content: products
    # never qualify for single-frequency tail corrections
    prof = Profiles(
        deriv_line=lambda x: PowerEnvelope(
            p=1.0 - alpha,
            c=s_bound(x) + 1e-300,
            t0=max(x, 1.0),
            freq_lo=-1e-9,
            freq_hi=0.0,
        ),
        modulus_line=lambda x: ConstEnvelope(
            c=1.0 / (kappa * abs(lam)), freq_lo=-1e-9, freq_hi=0.0
        ),
        deriv_outer=deriv_outer,
        modulus_outer=ConstEnvelope(c=1.0 / (kappa * abs(lam))),
    )
    return AnalyticFunction(
        eval_fn=ev,
        deriv_fn=dv,
        profiles=prof,
        value_at_infinity=f_inf,
        label=f"bernstein_res(alpha={alpha:g},beta={beta:g})",
        left_bound=0.0,
    )


# ---------------------------------------------------------------------------
# Algebra of functions
# ---------------------------------------------------------------------------


def _global_modulus_bound(f: AnalyticFunction) -> float | None:
    env = f.profiles.modulus_outer
    if isinstance(env, ConstEnvelope):
        return env.c
    return None


def _merge_left(f, g):
    return min(f.left_bound, g.left_bound)


def add(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    fi, gi = f.value_at_infinity, g.value_at_infinity
    prof = Profiles(
        deriv_line=lambda x: SumEnvelope.of(f.profiles.deriv_line(x), g.profiles.deriv_line(x)),
        modulus_line=lambda x: SumEnvelope.of(
            f.profiles.modulus_line(x), g.profiles.modulus_line(x)
        ),
        deriv_outer=SumEnvelope.of(f.profiles.deriv_outer, g.profiles.deriv_outer),
        modulus_outer=SumEnvelope.of(f.profiles.modulus_outer, g.profiles.modulus_outer),
        window=max(f.profiles.window, g.profiles.window),
        e0_upper=(
            f.profiles.e0_upper + g.profiles.e0_upper
            if f.profiles.e0_upper is not None and g.profiles.e0_upper is not None
            else None
        ),
        sampled=f.profiles.sampled or g.profiles.sampled,
    )
    return AnalyticFunction(
        eval_fn=lambda z: f.eval_fn(z) + g.eval_fn(z),
        deriv_fn=lambda z: f.deriv_fn(z) + g.deriv_fn(z),
        profiles=prof,
        value_at_infinity=fi + gi if fi is not None and gi is not None else None,
        label=f"({f.label}+{g.label})",
        left_bound=_merge_left(f, g),
        summands=(f.summands or (f,)) + (g.summands or (g,)),
    )


def mul(f: AnalyticFunction, g: AnalyticFunction) -> AnalyticFunction:
    fi, gi = f.value_at_infinity, g.value_at_infinity
    fp, gp = f.profiles, g.profiles
    prof = Profiles(
        deriv_line=lambda x: SumEnvelope.of(
            envelope_product(fp.deriv_line(x), gp.modulus_line(x)),
            envelope_product(fp.modulus_line(x), gp.deriv_line(x)),
        ),
        modulus_line=lambda x: envelope_product(fp.modulus_line(x), gp.modulus_line(x)),
        deriv_outer=SumEnvelope.of(
            envelope_product(fp.deriv_outer, gp.modulus_outer),
            envelope_product(fp.modulus_outer, gp.deriv_outer),
        ),
        modulus_outer=envelope_product(fp.modulus_outer, gp.modulus_outer),
        window=max(fp.window, gp.window),
        e0_upper=(
            fp.e0_upper * _global_modulus_bound(g) + gp.e0_upper * _global_modulus_bound(f)
            if None
            not in (fp.e0_upper, gp.e0_upper, _global_modulus_bound(f), _global_modulus_bound(g))
            else None
        ),
        sampled=fp.sampled or gp.sampled,
    )
    return AnalyticFunction(
        eval_fn=lambda z: f.eval_fn(z) * g.eval_fn(z),
        deriv_fn=lambda z: f.deriv_fn(z) * g.eval_fn(z) + f.eval_fn(z) * g.deriv_fn(z),
        profiles=prof,
        value_at_infinity=fi * gi if fi is not None and gi is not None else None,
        label=f"({f.label}*{g.label})",
        left_bound=_merge_left(f, g),
    )


def scale(f: AnalyticFunction, c: complex) -> AnalyticFunction:
    _require_finite("scale", c)
    c = complex(c)
    fp = f.profiles
    prof = replace(
        fp,
        deriv_line=lambda x: fp.deriv_line(x).scaled(abs(c)),
        modulus_line=lambda x: fp.modulus_line(x).scaled(abs(c)),
        deriv_outer=fp.deriv_outer.scaled(abs(c)),
        modulus_outer=fp.modulus_outer.scaled(abs(c)),
        e0_upper=fp.e0_upper * abs(c) if fp.e0_upper is not None else None,
    )
    return replace(
        f,
        eval_fn=lambda z: c * f.eval_fn(z),
        deriv_fn=lambda z: c * f.deriv_fn(z),
        profiles=prof,
        value_at_infinity=(
            c * f.value_at_infinity if f.value_at_infinity is not None else None
        ),
        label=f"({c}*{f.label})",
        summands=(
            tuple(scale(s, c) for s in f.summands) if f.summands is not None else None
        ),
    )


def shift(f: AnalyticFunction, a: complex) -> AnalyticFunction:
    """z -> f(z + a) for Re a >= 0."""
    _require_finite("shift", a)
    a = complex(a)
    if a.real < 0:
        raise InvalidParameter("shift needs Re a >= 0")
    fp = f.profiles
    off = abs(a.imag)
    prof = replace(
        fp,
        deriv_line=lambda x: fp.deriv_line(x + a.real).off_center(off),
        modulus_line=lambda x: fp.modulus_line(x + a.real).off_center(off),
        window=fp.window + 2 * off,
    )
    return replace(
        f,
        eval_fn=lambda z: f.eval_fn(np.asarray(z, dtype=complex) + a),
        deriv_fn=lambda z: f.deriv_fn(np.asarray(z, dtype=complex) + a),
        profiles=prof,
        label=f"shift({f.label},{a})",
        left_bound=f.left_bound + a.real,
        summands=(
            tuple(shift(s, a) for s in f.summands) if f.summands is not None else None
        ),
    )


def dilate(f: AnalyticFunction, b: float) -> AnalyticFunction:
    """z -> f(b z) for b > 0."""
    _require_finite("dilate", b)
    if b <= 0:
        raise InvalidParameter("dilate needs b > 0")
    fp = f.profiles
    prof = replace(
        fp,
        deriv_line=lambda x: fp.deriv_line(b * x).dilated_arg(b).scaled(b),
        modulus_line=lambda x: fp.modulus_line(b * x).dilated_arg(b),
        deriv_outer=fp.deriv_outer.dilated_arg(b).scaled(b),
        modulus_outer=fp.modulus_outer.dilated_arg(b),
        window=fp.window / b,
    )
    return replace(
        f,
        eval_fn=lambda z: f.eval_fn(b * np.asarray(z, dtype=complex)),
        deriv_fn=lambda z: b * f.deriv_fn(b * np.asarray(z, dtype=complex)),
        profiles=prof,
        label=f"dilate({f.label},{b:g})",
        left_bound=f.left_bound / b,
        summands=(
            tuple(dilate(s, b) for s in f.summands) if f.summands is not None else None
        ),
    )


def _sample_grid(f: AnalyticFunction) -> np.ndarray:
    xs = np.geomspace(1e-3, 1e3, 25)
    ys = np.linspace(-60.0, 60.0, 41)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    return np.asarray(f.eval_fn(zs))


def reciprocal(f: AnalyticFunction) -> AnalyticFunction:
    """1/f as power(f, -1): |f| must stay away from zero on its samples and at infinity."""
    return power(f, -1.0).relabel(f"(1/{f.label})")


def power(f: AnalyticFunction, beta: float) -> AnalyticFunction:
    """f**beta (principal branch), with envelope constants read off samples of f.

    A non-integer beta needs the sampled range inside the slit plane; beta < 1
    needs |f| >= m > 0, where m is the least of the sampled |f| and |f(inf)|.
    """
    _require_finite("power", beta)
    vals = _sample_grid(f)
    if not float(beta).is_integer():
        args = np.angle(vals[np.abs(vals) > 0])
        if args.size and np.max(np.abs(args)) > math.pi - 0.05:
            raise RangeViolation("power needs the sampled range inside the slit plane")
    m = float(np.min(np.abs(vals)))
    fi = f.value_at_infinity
    if fi is not None:
        m = min(m, abs(fi))
    if beta < 1 and m <= 1e-9:
        raise RangeViolation(f"power {beta:g} needs |f| >= m > 0; sampled minimum {m:.3e}")
    big = _global_modulus_bound(f)
    if big is None:
        big = float(np.max(np.abs(vals))) * 2.0
    amp = abs(beta) * (big ** (beta - 1.0) if beta >= 1 else m ** (beta - 1.0))
    bound = ConstEnvelope(c=big**beta if beta >= 0 else m**beta)
    fp = f.profiles
    prof = replace(
        fp,
        deriv_line=lambda x: fp.deriv_line(x).scaled(amp),
        modulus_line=lambda x: bound,
        deriv_outer=fp.deriv_outer.scaled(amp),
        modulus_outer=bound,
        e0_upper=None,
        sampled=True,
    )
    return AnalyticFunction(
        eval_fn=lambda z: np.power(f.eval_fn(z), beta),
        deriv_fn=lambda z: beta * np.power(f.eval_fn(z), beta - 1.0) * f.deriv_fn(z),
        profiles=prof,
        value_at_infinity=fi**beta if fi is not None else None,
        label=f"({f.label}**{beta:g})",
        left_bound=0.0,
    )


# ---------------------------------------------------------------------------
# Spec-string parsing
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "").lower()
    if not s:
        raise InvalidParameter("empty complex literal")
    try:
        # only an `i` that ends a term is the imaginary unit; `inf` keeps its `i`
        return complex(re.sub(r"i(?=$|[+-])", "j", s))
    except ValueError as exc:
        raise InvalidParameter(f"bad complex literal {text!r}") from exc


def _split_top(s: str, seps: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_pair_list(text: str) -> list[tuple[float, float | complex]]:
    """(location, weight) pairs; a weight with no imaginary part is a float."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise InvalidParameter(f"expected a [...] list, got {text!r}")
    pairs: list[tuple[float, float | complex]] = []
    for item in _split_top(body[1:-1], ","):
        if item.count("(") != item.count(")"):
            raise InvalidParameter(f"unbalanced tuple in {text!r}")
        if item.startswith("(") and item.endswith(")"):
            item = item[1:-1]
        nums = _split_top(item, ",")
        if len(nums) != 2:
            raise InvalidParameter(f"expected (location, weight) pairs in {text!r}")
        location = parse_number(nums[0], "location", float)
        weight = parse_number(nums[1], "weight")
        pairs.append((location, weight.real if weight.imag == 0 else weight))
    return pairs


def _parse_density(text: str):
    s = text.strip().lower()
    if s in ("", "none"):
        return None
    coeff = 1.0 + 0j
    if "*" in s:
        pre, s = s.split("*", 1)
        coeff = parse_number(pre, "density coefficient")
    args = SpecArgs(s, "density")
    if args.name == "exp":
        density = ("exp", coeff, args.number("rate", 0, 1.0, kind=float))
    elif args.name == "lebesgue":
        a, b = args.number("a", 0, 0.0, kind=float), args.number("b", 1, 1.0, kind=float)
        density = ("lebesgue", coeff, a, b)
    else:
        raise InvalidParameter(f"unknown density spec {text!r}")
    args.finish()
    return density


def _parse_args(body: str) -> tuple[list[str], dict[str, str]]:
    positional, named = [], {}
    for part in _split_top(body, ",;"):
        if "=" in part and part.split("=", 1)[0].strip().replace("_", "").isalpha():
            k, v = part.split("=", 1)
            key = k.strip().lower()
            if key in named:
                raise InvalidParameter(f"parameter {key!r} given twice")
            named[key] = v.strip()
        else:
            positional.append(part)
    return positional, named


def parse_number(text: str, what: str, kind: type = complex):
    """A finite literal of `kind` (complex, float or int); `what` names it in errors."""
    try:
        v = parse_complex(text)
        ok = cmath.isfinite(v) and (kind is complex or v.imag == 0) and (
            kind is not int or v.real.is_integer()
        )
    except InvalidParameter:
        ok = False
    if not ok:
        noun = {complex: "number", float: "real number", int: "integer"}[kind]
        raise InvalidParameter(f"{what} must be a finite {noun}, got {text!r}")
    return v if kind is complex else kind(v.real)


_SPEC_CALL = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\s*(\((.*)\))?$", re.DOTALL)
_REQUIRED = object()


class SpecArgs:
    """The arguments of one function, density or operator spec `name(...)`: a value
    is read by its case-insensitive key, else by its index among the positional
    arguments, and `finish` rejects every argument that no reader took."""

    def __init__(self, text: str, what: str, *, bare: bool = True):
        m = _SPEC_CALL.match(text.strip())
        if not m or (m.group(2) is None and not bare):
            raise UnknownSpec(f"cannot parse {what} spec {text!r}")
        self.name = m.group(1).lower()
        self.positional, self.named = _parse_args(m.group(3) or "")
        self._read_keys: set[str] = set()
        self._read_pos: set[int] = set()

    def text(self, key: str, idx: int | None = None, default=_REQUIRED):
        if key in self.named:
            self._read_keys.add(key)
            return self.named[key]
        if idx is not None and idx < len(self.positional):
            self._read_pos.add(idx)
            return self.positional[idx]
        if default is _REQUIRED:
            raise InvalidParameter(f"{self.name} spec needs parameter {key!r}")
        return default

    def number(self, key: str, idx: int | None = None, default=_REQUIRED, kind=complex):
        raw = self.text(key, idx, default)
        return raw if raw is default else parse_number(raw, f"{self.name} {key!r}", kind)

    def numbers(self) -> list[complex]:
        self._read_pos.update(range(len(self.positional)))
        return [parse_number(p, f"{self.name} entry") for p in self.positional]

    def finish(self) -> None:
        unknown = sorted(set(self.named) - self._read_keys)
        if unknown:
            raise InvalidParameter(f"{self.name} spec has unknown parameter(s) {unknown}")
        surplus = [p for i, p in enumerate(self.positional) if i not in self._read_pos]
        if surplus:
            raise InvalidParameter(f"{self.name} spec has surplus argument(s) {surplus}")


def parse_function_spec(text: str) -> AnalyticFunction:
    args = SpecArgs(text, "function")
    f = _build_function(args)
    args.finish()
    return f


def _build_function(args: SpecArgs) -> AnalyticFunction:
    name = args.name
    if name == "const":
        return const(args.number("c", 0, 1.0))
    if name == "exp":
        return exp_decay(args.number("a", 0))
    if name == "resolvent":
        return resolvent(args.number("a", 0))
    if name == "cayley":
        return cayley_pow(args.number("n", 0, kind=int))
    if name == "eta":
        return eta(args.number("delta", 0, 1.0, kind=float))
    if name == "expinv":
        return exp_inv_shift(args.number("t", 0, kind=float))
    if name == "vitse":
        return vitse_reg(args.number("t", 0, kind=float))
    if name == "laplace":
        atoms = _parse_pair_list(args.text("atoms", default="[]"))
        dens = _parse_density(args.text("density", default="none"))
        return laplace_transform(HalfLineMeasure(atoms=tuple(atoms), density=dens))
    if name == "band":
        eps = args.number("eps", 0, kind=float)
        sigma = args.number("sigma", 1, kind=float)
        coeffs = args.text("coeffs", default=None)
        return band_function(eps, sigma, _parse_pair_list(coeffs) if coeffs is not None else None)
    if name == "bernstein_res":
        atoms = _parse_pair_list(args.text("atoms", default="[]"))
        jumps = tuple((float(t), float(c.real)) for t, c in atoms)
        fb = BernsteinFunction(
            a=args.number("a", default=0.0, kind=float),
            b=args.number("b", default=0.0, kind=float),
            jumps=jumps,
        )
        return bernstein_resolvent(
            fb,
            alpha=args.number("alpha", kind=float),
            beta=args.number("beta", kind=float),
            theta=args.number("theta", kind=float),
            lam=args.number("lambda") if "lambda" in args.named else args.number("lam"),
        )
    raise UnknownSpec(f"unknown function family {name!r}")

"""The partial duality pairing between the derivative-sup algebra and its
vertical-line dual, and the reproducing identity built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceSuspicion, InvalidParameter
from .functions import AnalyticFunction, resolvent
from .norms import BOUNDARY_OFFSET, e0_norm, fitted_power_envelope
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    envelope_product,
    integrate_line,
    pairing_integral,
)

__all__ = ["PairingResult", "pairing", "reproduce_residual", "green_pairing"]

@dataclass
class PairingResult:
    value: complex
    error: float

    def __complex__(self):
        return self.value


def pairing(
    g: AnalyticFunction,
    f: AnalyticFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> PairingResult:
    """Iterated integral of x * g'(x-iy) f'(x+iy) over y in R, then x > 0.

    The outer envelope is weighted by a bound on sup_x x * int |g'(x+iy)| dy:
    g's closed form e0_upper, else 1.25 e0_norm(g), and then not certified."""
    e0 = g.profiles.e0_upper
    weight = e0 if e0 is not None else 1.25 * e0_norm(g, cfg).value
    res = _pairing(g.deriv, g.profiles.deriv_line, weight, e0 is not None, f, cfg)
    return PairingResult(complex(res.value), res.error)


def _pairing(kernel, kernel_line, weight: float, certified: bool, f, cfg) -> PairingResult:
    """The pairing with f of a g given by g' = kernel (scalar or vector values),
    its line envelopes kernel_line(x) and its weight (see `pairing`)."""
    if f.summands is not None and len(f.summands) >= 2:
        parts = [_pairing(kernel, kernel_line, weight, certified, s, cfg) for s in f.summands]
        return PairingResult(sum(p.value for p in parts), sum(p.error for p in parts))
    base = max(cfg.abs_tol, 1e-9)

    def inner_envelope(x: float):
        env = envelope_product(kernel_line(x).conjugated(), f.profiles.deriv_line(x))
        if not env.integrable:
            raise DivergenceSuspicion("pairing integrand has no integrable line envelope")
        return env

    outer_env = f.profiles.deriv_outer.scaled(weight)
    if not outer_env.integrable:
        raise DivergenceSuspicion("pairing outer integrand has no integrable envelope")
    res, inner_err, _ = pairing_integral(
        kernel, f.deriv,
        inner_envelope, lambda x: cfg.with_tolerances(abs_tol=base / (1.0 + x) ** 2),
        outer_env, cfg, base,
    )
    err = res.error + inner_err
    if not certified:
        err = max(err, 0.25 * abs(res.value))
    return PairingResult(res.value, err)


def reproduce_residual(f: AnalyticFunction, z, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """|f(z) - f(inf) - (2/pi) <r_z, f>| with the boundary-offset convention, for
    one z (a float) or an array of z (an array of its shape).  All z share one
    double integral over the vector of their kernels r_z'(w) = -(w + z)^(-2),
    each of closed-form weight e0_upper = pi."""
    zs = np.array(z, dtype=complex).reshape(-1)
    if zs.size == 0:
        raise InvalidParameter("reproduce_residual needs at least one z")
    zs.real = np.maximum(zs.real, BOUNDARY_OFFSET)
    # each r_z' lies under the line envelope of r_b, b = min Re z + i max |Im z|
    bound = resolvent(complex(zs.real.min(), np.abs(zs.imag).max())).profiles

    def kernel(w):
        return -1.0 / (w[:, None] + zs) ** 2

    p = _pairing(kernel, bound.deriv_line, bound.e0_upper, True, f, cfg)
    out = np.abs(f(zs) - f.infinity() - (2.0 / math.pi) * p.value).reshape(np.shape(z))
    return float(out) if out.ndim == 0 else out


def green_pairing(
    g: AnalyticFunction, f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """Boundary cross-check (1/4) * int g(-iy) (f(iy) - f(inf)) dy.

    Valid for pairs whose boundary product decays integrably; constants are
    removed first since the pairing annihilates them.
    """
    gi = complex(g.infinity())
    fi = complex(f.infinity())
    x0 = BOUNDARY_OFFSET

    def integrand(ys):
        ys = np.asarray(ys, dtype=float)
        return (g(x0 - 1j * ys) - gi) * (f(x0 + 1j * ys) - fi)

    env = envelope_product(
        g.profiles.modulus_line(x0).conjugated(), f.profiles.modulus_line(x0)
    )
    if not env.integrable:
        # diagnostic route only: fit the observed boundary decay with margin
        ts = np.geomspace(32.0, 4096.0, 8)
        vals = np.abs(integrand(ts)) + np.abs(integrand(-ts))
        env = fitted_power_envelope(ts, vals, "boundary product")
    res = integrate_line(integrand, env, cfg, strict=False)
    return 0.25 * complex(res.value)

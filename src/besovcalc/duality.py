"""The partial duality pairing between the derivative-sup algebra and its
vertical-line dual, and the reproducing identity built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceSuspicion
from .functions import AnalyticFunction, resolvent
from .norms import BOUNDARY_OFFSET, e0_norm, fitted_power_envelope
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    envelope_product,
    integrate_halfline,
    integrate_line,
)

__all__ = ["PairingResult", "pairing", "reproduce_residual", "green_pairing"]

@dataclass
class PairingResult:
    value: complex
    error: float

    def __complex__(self):
        return self.value


def _dual_weight(g: AnalyticFunction, cfg: QuadratureConfig) -> tuple[float, bool]:
    """Certified bound on sup_x x * int |g'(x+iy)| dy."""
    if g.profiles.e0_upper is not None:
        return g.profiles.e0_upper, True
    return 1.25 * e0_norm(g, cfg).value, False


def pairing(
    g: AnalyticFunction,
    f: AnalyticFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> PairingResult:
    """Iterated integral of x * g'(x-iy) f'(x+iy) over y in R, then x > 0."""
    if f.summands is not None and len(f.summands) >= 2:
        parts = [pairing(g, s, cfg) for s in f.summands]
        return PairingResult(
            sum(p.value for p in parts), sum(p.error for p in parts)
        )
    base = max(cfg.abs_tol, 1e-9)
    gp, fp = g.profiles, f.profiles
    weight, certified = _dual_weight(g, cfg)

    inner_err = [0.0]

    def inner(x: float) -> complex:
        env = envelope_product(gp.deriv_line(x).conjugated(), fp.deriv_line(x))
        if not env.integrable:
            raise DivergenceSuspicion("pairing integrand has no integrable line envelope")
        eps = base / (1.0 + x) ** 2
        local = cfg.with_tolerances(abs_tol=eps)

        def integrand(ys):
            ys = np.asarray(ys, dtype=float)
            return g.deriv(x - 1j * ys) * f.deriv(x + 1j * ys)

        res = integrate_line(integrand, env, local, tail_tol=eps, strict=False)
        inner_err[0] += x * res.error
        return complex(res.value)

    def outer_integrand(xs):
        return np.array([x * inner(float(x)) for x in np.asarray(xs, dtype=float)])

    outer_env = fp.deriv_outer.scaled(weight)
    if not outer_env.integrable:
        raise DivergenceSuspicion("pairing outer integrand has no integrable envelope")
    res = integrate_halfline(outer_integrand, outer_env, cfg, tail_tol=base, strict=False)
    err = res.error + inner_err[0]
    if not certified:
        err = max(err, 0.25 * abs(res.value))
    return PairingResult(complex(res.value), err)


def reproduce_residual(
    f: AnalyticFunction, z: complex, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """|f(z) - f(inf) - (2/pi) <r_z, f>| with the boundary-offset convention."""
    z = complex(z)
    z_eff = complex(max(z.real, BOUNDARY_OFFSET), z.imag)
    r_z = resolvent(z_eff)
    p = pairing(r_z, f, cfg)
    return abs(complex(f(z_eff)) - f.infinity() - (2.0 / math.pi) * p.value)


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

"""The partial duality pairing between the derivative-sup algebra and its
vertical-line dual, and the reproducing identity built on it."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import IntegralNotNormConvergent, InvalidParameter
from .functions import AnalyticFunction, resolvent
from .norms import BOUNDARY_OFFSET, e0_norm
from .quadrature import (
    DEFAULT_CONFIG,
    DecayEnvelope,
    QuadResult,
    QuadratureConfig,
    envelope_product,
    integrate_halfline,
    integrate_line,
)

__all__ = ["kernel_pairing", "pairing", "reproduce_residual"]


def pairing(
    g: AnalyticFunction,
    f: AnalyticFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Iterated integral of x * g'(x-iy) f'(x+iy) over y in R, then x > 0.

    The outer envelope is weighted by a bound on sup_x x * int |g'(x+iy)| dy:
    g's closed form e0_upper, else 1.25 e0_norm(g).  Without that closed form, or when
    f's envelopes are sampled, the error is at least a quarter of the value."""
    e0 = g.profiles.e0_upper
    weight = e0 if e0 is not None else 1.25 * e0_norm(g, cfg).value
    certified = e0 is not None and not f.profiles.sampled
    p = kernel_pairing(g.deriv, g.profiles.deriv_line, weight, certified, f, cfg)
    return replace(p, value=complex(p.value))


def kernel_pairing(
    kernel: Callable[[np.ndarray], np.ndarray],
    kernel_line: Callable[[float], DecayEnvelope],
    weight: float,
    certified: bool,
    f: AnalyticFunction,
    cfg: QuadratureConfig,
) -> QuadResult:
    """int_0^inf x int_R K(x-iy) f'(x+iy) dy dx: the pairing of f with the g whose g' = K =
    kernel, one scalar, vector or matrix per point.  kernel_line(x) bounds |K(x+iy)| in y;
    weight bounds sup_x x int |K(x+iy)| dy per entry and scales f's outer envelope; without a
    certified weight the error is at least a quarter of the value.  The outer integral runs
    under cfg, the inner one at x under abs_tol/(1+x)^2 and cfg's rel_tol; each truncated
    integral spends its abs_tol on its tails, and neither is strict, so converged records
    whether all of them converged.  Summands of f pair one by one.  The error adds
    x * (inner error) over every inner run; n_evals counts the inner points and tail_error
    is the outer integral's tail charge."""
    if f.summands is not None and len(f.summands) >= 2:
        # exact linear split; narrow frequency bands integrate much faster
        g = (kernel, kernel_line, weight, certified)
        parts = [kernel_pairing(*g, s, cfg) for s in f.summands]
        return QuadResult(
            sum(p.value for p in parts), sum(p.error for p in parts), sum(p.n_evals for p in parts),
            all(p.converged for p in parts), sum(p.tail_error for p in parts),
        )
    outer_env = f.profiles.deriv_outer.scaled(weight)
    if not outer_env.integrable:
        raise IntegralNotNormConvergent("pairing outer integrand has no integrable envelope")
    inner_err, n_evals, converged = 0.0, 0, True

    def inner(x: float):
        nonlocal inner_err, n_evals, converged
        env = envelope_product(kernel_line(x).conjugated(), f.profiles.deriv_line(x))
        if not env.integrable:
            raise IntegralNotNormConvergent("pairing integrand has no integrable line envelope")

        def integrand(ys):
            k = kernel(x - 1j * ys)
            return k * f.deriv(x + 1j * ys).reshape((-1,) + (1,) * (k.ndim - 1))

        tol = cfg.abs_tol / (1.0 + x) ** 2
        res = integrate_line(integrand, env, cfg.with_tolerances(abs_tol=tol), strict=False)
        inner_err += x * res.error
        n_evals += res.n_evals
        converged = converged and res.converged
        return x * res.value

    def outer(xs):
        return np.array([inner(float(x)) for x in xs])

    res = integrate_halfline(outer, outer_env, cfg, strict=False)
    err = res.error + inner_err
    if not certified:
        err = max(err, 0.25 * abs(res.value))
    return QuadResult(res.value, err, n_evals, converged and res.converged, res.tail_error)


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

    p = kernel_pairing(kernel, bound.deriv_line, bound.e0_upper, True, f, cfg)
    out = np.abs(f(zs) - f.infinity() - (2.0 / math.pi) * p.value).reshape(np.shape(z))
    return float(out) if out.ndim == 0 else out


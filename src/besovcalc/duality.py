"""The partial duality pairing between the derivative-sup algebra and its
vertical-line dual, and the reproducing identity built on it."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import IntegralNotNormConvergent, InvalidParameter
from .functions import AnalyticFunction
from .norms import BOUNDARY_OFFSET, e0_norm
from .quadrature import (
    DEFAULT_CONFIG,
    DecayEnvelope,
    QuadResult,
    QuadratureConfig,
    envelope_product,
    integrate_halfline,
    integrate_interval,
    integrate_line,
    truncation_point,
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
    f's envelopes are sampled, the error is at least a quarter of the value.  A g that
    declares a pole_radius takes its inner integrals on the contour of `_inner_integral`."""
    gp = g.profiles
    weight = gp.e0_upper if gp.e0_upper is not None else 1.25 * e0_norm(g, cfg).value
    certified = gp.e0_upper is not None and not f.profiles.sampled
    p = kernel_pairing(g.deriv, gp.pole_radius, gp.deriv_line, weight, certified, f, cfg)
    return replace(p, value=complex(p.value))


# QuadratureConfig rejects rel_tol = 0; at this one an inner integral's abs_tol alone decides
_NO_REL_TOL = math.ulp(0.0)


def kernel_pairing(
    kernel: Callable[[np.ndarray], np.ndarray],
    pole_radius: float | None,
    kernel_line: Callable[[float], DecayEnvelope] | None,
    weight: float,
    certified: bool,
    f: AnalyticFunction,
    cfg: QuadratureConfig,
) -> QuadResult:
    """int_0^inf x int_R K(x-iy) f'(x+iy) dy dx: the pairing of f with the g whose g' = K =
    kernel, one scalar, vector or matrix per point.  weight bounds sup_x x int |K(x+iy)| dy
    per entry and scales f's outer envelope; without a certified weight the error is at
    least a quarter of the value.  With a pole_radius R, every singularity of K lies in
    |u| <= R and ||K(u)|| = O(|u|^-2), and the inner integrals run on a contour; without one,
    kernel_line(x) bounds |K(x+iy)| in y and they run on the line (see `_inner_integral`).
    The outer integral runs under cfg and spends its abs_tol on its tail; the inner integral
    at x runs under abs_tol tol(x) = cfg.abs_tol/(1+x)^2 alone.  Neither is strict, so
    converged records whether all of them converged.  Summands of f pair one by one.

    A converged inner integral errs by at most tol(x) on the contour, and by 2 tol(x) on the
    line, whose truncated tails take a second tol(x).  The outer rule's weights are positive,
    so the inner stage adds at most the integral of x times that over [0, T], T the outer
    cutoff (`truncation_point`): abs_tol (ln(1+T) + 1/(1+T) - 1) on the contour, twice that
    on the line.  n_evals counts the inner points and tail_error is the outer tail charge."""
    if f.summands is not None and len(f.summands) >= 2:
        # exact linear split; narrow frequency bands integrate much faster
        g = (kernel, pole_radius, kernel_line, weight, certified)
        parts = [kernel_pairing(*g, s, cfg) for s in f.summands]
        return QuadResult(
            sum(p.value for p in parts), sum(p.error for p in parts), sum(p.n_evals for p in parts),
            all(p.converged for p in parts), sum(p.tail_error for p in parts),
        )
    outer_env = f.profiles.deriv_outer.scaled(weight)
    if not outer_env.integrable:
        raise IntegralNotNormConvergent("pairing outer integrand has no integrable envelope")
    n_evals, converged = 0, True

    def inner(x: float):
        nonlocal n_evals, converged
        tol = cfg.abs_tol / (1.0 + x) ** 2
        res = _inner_integral(kernel, pole_radius, kernel_line, f, x, tol)
        n_evals += res.n_evals
        converged = converged and res.converged
        return x * res.value

    def outer(xs):
        return np.array([inner(float(x)) for x in xs])

    res = integrate_halfline(outer, outer_env, cfg, strict=False)
    T = truncation_point(outer_env, cfg, 1)
    inner_err = (1.0 if pole_radius is not None else 2.0) * cfg.abs_tol * (
        math.log1p(T) + 1.0 / (1.0 + T) - 1.0
    )
    err = res.error + inner_err
    if not certified:
        err = max(err, 0.25 * abs(res.value))
    return QuadResult(res.value, err, n_evals, converged and res.converged, res.tail_error)


def _inner_integral(
    kernel: Callable[[np.ndarray], np.ndarray],
    pole_radius: float | None,
    kernel_line: Callable[[float], DecayEnvelope] | None,
    f: AnalyticFunction,
    x: float,
    tol: float,
) -> QuadResult:
    """int_R K(x-iy) f'(x+iy) dy under abs_tol tol alone, not strict.

    Without a pole_radius it runs on the line Re w = x under the product of kernel_line(x)
    and f's line envelope.  With one, R (see `kernel_pairing`), Cauchy's theorem moves the
    line's tails |y| >= T' onto the horizontal rays w = x +- iT' + s, s >= 0, which pass no
    pole for T' = 2R + 1 + x, and on which oscillating factors such as exp(-tau w) decay.
    One `integrate_interval` run over v in [-2, 2], with breakpoints -1, 0 and 1, takes the
    segment y = T' v for |v| <= 1, weight T', and the rays for |v| in (1, 2), with
    s = L u/(1-u), u = |v| - 1, L = 2x + 3R + 2 and weight +-(1/i) L/(1-u)^2.  The contour
    has no tails to truncate."""
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=_NO_REL_TOL)
    if pole_radius is None:
        env = envelope_product(kernel_line(x).conjugated(), f.profiles.deriv_line(x))
        if not env.integrable:
            raise IntegralNotNormConvergent("pairing integrand has no integrable line envelope")

        def on_line(ys):
            k = kernel(x - 1j * ys)
            return k * f.deriv(x + 1j * ys).reshape((-1,) + (1,) * (k.ndim - 1))

        return integrate_line(on_line, env, cfg, strict=False)
    top = 2.0 * pole_radius + 1.0 + x  # T'
    scale = 2.0 * x + 3.0 * pole_radius + 2.0  # L

    def on_contour(vs):
        u = np.maximum(np.abs(vs) - 1.0, 0.0)
        w = x + 1j * top * np.clip(vs, -1.0, 1.0) + scale * u / (1.0 - u)
        dw = np.where(u > 0.0, -1j * np.sign(vs) * scale / (1.0 - u) ** 2, top)
        k = kernel(2.0 * x - w)
        return k * (dw * f.deriv(w)).reshape((-1,) + (1,) * (k.ndim - 1))

    return integrate_interval(
        on_contour, -2.0, 2.0, cfg, breakpoints=(-1.0, 0.0, 1.0), strict=False
    )


def reproduce_residual(f: AnalyticFunction, z, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """|f(z) - f(inf) - (2/pi) <r_z, f>| with the boundary-offset convention, for
    one z (a float) or an array of z (an array of its shape).  All z share one
    double integral over the vector of their kernels r_z'(w) = -(w + z)^(-2),
    each of closed-form weight e0_upper = pi, whose poles all lie in |w| <= max |z|,
    so every inner integral runs on the contour of `_inner_integral`."""
    zs = np.array(z, dtype=complex).reshape(-1)
    if zs.size == 0:
        raise InvalidParameter("reproduce_residual needs at least one z")
    if not np.all(np.isfinite(zs)):
        raise InvalidParameter("reproduce_residual needs finite z")
    zs.real = np.maximum(zs.real, BOUNDARY_OFFSET)

    def kernel(w):
        return -1.0 / (w[:, None] + zs) ** 2

    p = kernel_pairing(kernel, float(np.abs(zs).max()), None, math.pi, True, f, cfg)
    out = np.abs(f(zs) - f.infinity() - (2.0 / math.pi) * p.value).reshape(np.shape(z))
    return float(out) if out.ndim == 0 else out

"""The partial duality pairing between the derivative-sup algebra and its
vertical-line dual, and the reproducing identity built on it."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import IntegralNotNormConvergent, InvalidParameter
from .functions import AnalyticFunction
from .norms import BOUNDARY_OFFSET
from .quadrature import (
    DEFAULT_CONFIG,
    QuadResult,
    QuadratureConfig,
    _decay,
    halfline_map,
    integrate_contour,
    integrate_interval,
)

__all__ = ["kernel_pairing", "pairing", "reproduce_residual"]


def pairing(
    g: AnalyticFunction,
    f: AnalyticFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Iterated integral of x * g'(x-iy) f'(x+iy) over y in R, then x > 0.

    y -> -y turns it into <f, g>, so the kernel is g' or f', whichever declares a
    pole_radius, and every inner integral runs on the contour of `_inner_integral`; when
    both declare one, the kernel is the one that declares e0_upper, g on a tie, and a pair
    of which neither declares one raises IntegralNotNormConvergent.  It is certified when
    the kernel's function declares the closed-form bound e0_upper on
    sup_x x * int |g'(x+iy)| dy, which makes the outer integrand decay like the other's
    outer envelope, and the other's envelopes are not sampled; otherwise the error is at
    least a quarter of the value."""
    if _kernel_rank(f) > _kernel_rank(g):
        g, f = f, g
    if g.profiles.pole_radius is None:
        raise IntegralNotNormConvergent(
            f"pairing <{g.label}, {f.label}>: neither argument declares a pole radius, "
            "so neither is a kernel of the dual class"
        )
    gp = g.profiles
    p = kernel_pairing(g.deriv, gp.pole_radius, f, cfg)
    err = p.error
    if gp.e0_upper is None or f.profiles.sampled:
        err = max(err, 0.25 * abs(p.value))
    return replace(p, value=complex(p.value), error=err)


def _kernel_rank(h: AnalyticFunction) -> tuple[bool, bool]:
    """How well h' serves as `pairing`'s kernel: it needs a pole radius, and e0_upper
    certifies the pairing (every function that declares e0_upper declares a radius)."""
    return h.profiles.pole_radius is not None, h.profiles.e0_upper is not None


# QuadratureConfig rejects rel_tol = 0; at this one an inner integral's abs_tol alone decides
_NO_REL_TOL = math.ulp(0.0)
# The outer integral runs this far below the config's tolerances, within this many panels
# (see `kernel_pairing`)
_OUTER_MARGIN = 1e-3
_OUTER_PANELS = 256
# An exponentially decaying f's inner tolerances fall with it down to this share
_INNER_FLOOR = 1e-4


def kernel_pairing(
    kernel: Callable[[np.ndarray], np.ndarray],
    pole_radius: float,
    f: AnalyticFunction,
    cfg: QuadratureConfig,
) -> QuadResult:
    """int_0^inf x int_R K(x-iy) f'(x+iy) dy dx: the pairing of f with the g whose g' = K =
    kernel, one scalar, vector or matrix per point.  Every singularity of K lies in
    |u| <= R = pole_radius and ||K(u)|| = O(|u|^-2), so the inner integrals run on a
    contour (see `_inner_integral`).

    The outer integral has no cutoff: one `integrate_interval` run over [0, 1) takes it on
    `quadrature.halfline_map` of f's outer envelope with reach R.  The inner integral at x
    runs under abs_tol alone, tol(x) = cfg.abs_tol/(1+x)^(1+p), with (p, a) the envelope's
    `_decay`, and ends far below it, since the contour has no tails.  The outer run
    takes cfg's tolerances times _OUTER_MARGIN within _OUTER_PANELS panels: at cfg's own
    tolerances the rule stops wherever its panels first meet them, from just under them to
    eight orders below, so the error moved by orders of magnitude with z or A; a thousand
    times below them, the pairings of criteria 03 and 04 end at their rounding floor.  No
    run is strict; converged records whether every inner integral converged and the outer
    one met cfg.  A node whose tol(x) leaves the normal floats raises InvalidParameter:
    f' then decays too slowly for the map.

    Where f' decays like exp(-a x) (a > 0), an inner integral's integrand falls below a
    power-law tol(x) at moderate x, where the rule accepts whatever its first panels give;
    so tol(x) also carries the factor max(exp(-a x), _INNER_FLOOR).

    A converged inner integral errs by at most tol(x).  The outer rule's weights are
    positive, so the inner stage adds at most int_0^inf x tol(x) dx <= abs_tol/(p(p-1)).
    n_evals counts the inner points."""
    env = f.profiles.deriv_outer
    if not env.integrable:
        raise IntegralNotNormConvergent("pairing outer integrand has no integrable envelope")
    p, a = _decay(env)
    to_halfline = halfline_map(env, pole_radius)
    n_evals, converged = 0, True

    def inner(x: float, dx: float):
        nonlocal n_evals, converged
        tol = cfg.abs_tol * math.exp(-(1.0 + p) * math.log1p(x))
        tol *= max(math.exp(-a * x), _INNER_FLOOR)
        if not tol >= np.finfo(float).tiny:
            raise InvalidParameter(
                f"pairing inner tolerance underflows: f' decays like x^-{p:g}, too slowly"
            )
        res = _inner_integral(kernel, pole_radius, f, x, tol)
        n_evals += res.n_evals
        converged = converged and res.converged
        return (x * dx) * res.value

    def outer(us):
        xs, dxs = to_halfline(us)
        return np.array([inner(float(x), float(dx)) for x, dx in zip(xs, dxs)])

    margin = cfg.with_tolerances(
        abs_tol=cfg.abs_tol * _OUTER_MARGIN, rel_tol=cfg.rel_tol * _OUTER_MARGIN
    )
    res = integrate_interval(outer, 0.0, 1.0, margin, strict=False, max_panels=_OUTER_PANELS)
    met = res.error <= max(cfg.abs_tol, cfg.rel_tol * float(np.max(np.abs(res.value))))
    err = res.error + cfg.abs_tol / (p * (p - 1.0))
    return QuadResult(res.value, err, n_evals, converged and met)


def _inner_integral(
    kernel: Callable[[np.ndarray], np.ndarray],
    pole_radius: float,
    f: AnalyticFunction,
    x: float,
    tol: float,
) -> QuadResult:
    """int_R K(x-iy) f'(x+iy) dy under abs_tol tol alone, on `quadrature.integrate_contour`
    with its rays to the right, where oscillating factors such as exp(-tau w) decay.  Every
    singularity of K(2x - w) lies in |Im w| <= R = pole_radius (see `kernel_pairing`), and
    f' is analytic for Re w > 0 and taken whole."""
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=_NO_REL_TOL)

    def on_contour(w, dw):
        k = kernel(2.0 * x - w)
        return k * (dw * f.deriv(w)).reshape((-1,) + (1,) * (k.ndim - 1))

    return integrate_contour(on_contour, x, pole_radius, 1.0, cfg)


def reproduce_residual(f: AnalyticFunction, z, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """|f(z) - f(inf) - (2/pi) <r_z, f>| with the boundary-offset convention, for
    one z (a float) or an array of z (an array of its shape).  All z share one
    double integral over the vector of their kernels r_z'(w) = -(w + z)^(-2),
    each of closed-form weight e0_upper = pi, so certified, whose poles all lie in
    |w| <= max |z|, so every inner integral runs on the contour of `_inner_integral`.
    The outer integral runs on `kernel_pairing`'s map of [0, 1) onto the half-line, with
    no cutoff, so no tail of it is left out of the residual."""
    zs = np.array(z, dtype=complex).reshape(-1)
    if zs.size == 0:
        raise InvalidParameter("reproduce_residual needs at least one z")
    if not np.all(np.isfinite(zs)):
        raise InvalidParameter("reproduce_residual needs finite z")
    zs.real = np.maximum(zs.real, BOUNDARY_OFFSET)

    def kernel(w):
        return -1.0 / (w[:, None] + zs) ** 2

    p = kernel_pairing(kernel, float(np.abs(zs).max()), f, cfg)
    out = np.abs(f(zs) - f.infinity() - (2.0 / math.pi) * p.value).reshape(np.shape(z))
    return float(out) if out.ndim == 0 else out

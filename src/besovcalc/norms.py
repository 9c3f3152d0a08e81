"""Function norms by quadrature: sup norm, derivative-sup integral, and the
vertical-line seminorm paired with it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceSuspicion, InvalidParameter, UnboundedSuspicion
from .functions import AnalyticFunction
from .quadrature import (
    DEFAULT_CONFIG,
    EDGE_ALLOWANCE,
    QuadratureConfig,
    SupResult,
    integrate_halfline,
    kernel_weight,
    sup_on_vertical_line,
)

__all__ = [
    "BOUNDARY_OFFSET",
    "NormReport",
    "hinf_norm",
    "b0_norm",
    "b_norm",
    "e0_norm",
    "line_sup",
    "left_line_sup",
    "fitted_slope",
]

# Boundary lines Re z = -omega (omega = 0 for the imaginary axis) are sampled
# this far inside the half-plane; every module reads the offset from here.
BOUNDARY_OFFSET = 1e-6


@dataclass
class NormReport:
    value: float
    error_bound: float
    pieces: dict = field(default_factory=dict)
    certified: bool = True


def line_sup(f: AnalyticFunction, xs, deriv: bool = False) -> SupResult:
    """sup over y of |f(x+iy)|, or of |f'(x+iy)| when deriv, on each line Re = x of xs, in
    one search under f's declared line envelopes.  The modulus needs x > -left_bound on
    every line, and is at least |f(inf)|."""
    if deriv:
        return sup_on_vertical_line(f.deriv, f.profiles.deriv_line, xs, window=f.profiles.window)
    if np.min(xs) <= -f.left_bound:
        raise DivergenceSuspicion(
            f"line Re = {np.min(xs)} lies outside the declared analyticity strip"
        )
    sup = sup_on_vertical_line(
        f, lambda x: f.profiles.modulus_line(max(x, BOUNDARY_OFFSET)), xs, window=f.profiles.window
    )
    if f.value_at_infinity is not None:
        sup.value = np.maximum(sup.value, abs(f.value_at_infinity))
    return sup


def left_line_sup(f: AnalyticFunction, omega: float) -> float:
    """sup of |f| on the line BOUNDARY_OFFSET inside the boundary Re z = -omega, for
    omega <= left_bound: every bound that reads it needs f holomorphic on Re z > -omega."""
    if f.left_bound < omega:
        raise InvalidParameter(f"{f.label} is holomorphic only on Re z > {-f.left_bound:g}")
    return float(line_sup(f, -omega + BOUNDARY_OFFSET).value[0])


def hinf_norm(f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormReport:
    """Supremum norm, evaluated on the line Re z = BOUNDARY_OFFSET by the maximum
    principle; the offset is charged to the error as 2 * BOUNDARY_OFFSET * value.
    Not certified when the search does not stabilise or f's envelopes are sampled."""
    sup = line_sup(f, BOUNDARY_OFFSET)
    value = float(sup.value[0])
    xs = np.geomspace(1e-2, 1e3, 11)
    ys = np.linspace(-40.0, 40.0, 17)
    interior = float(np.max(np.abs(f((xs[:, None] + 1j * ys[None, :]).ravel()))))
    if interior > 1.01 * value:
        raise UnboundedSuspicion(
            f"interior sample {interior:.6g} exceeds boundary estimate {value:.6g}"
        )
    value = max(value, interior)
    err = max(cfg.abs_tol, 2.0 * BOUNDARY_OFFSET * value)
    certified = sup.stabilized and not f.profiles.sampled
    return NormReport(value, err, {"hinf": value}, certified=certified)


def fitted_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope sum (x - mean x)(y - mean y) / sum (x - mean x)^2 of the
    line through the points (x, y), in closed form."""
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


def b0_norm(f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormReport:
    """Integral over x > 0 of the vertical-line supremum of |f'|, one `line_sup` over the
    nodes of each outer evaluation, on `integrate_halfline`'s map of f's declared outer
    envelope.  Not certified when a search does not stabilise or f's envelopes are
    sampled."""
    if not f.profiles.deriv_outer.integrable:
        raise DivergenceSuspicion(f"{f.label} declares no integrable outer envelope for |f'|")
    stabilized = []

    def integrand(xs):
        sup = line_sup(f, xs, deriv=True)
        stabilized.append(sup.stabilized)
        return sup.value

    res = integrate_halfline(integrand, f.profiles.deriv_outer, cfg)
    value = float(np.real(res.value))
    certified = all(stabilized) and not f.profiles.sampled
    return NormReport(value, res.error, {"b0": value}, certified)


def b_norm(f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormReport:
    hi = hinf_norm(f, cfg)
    b0 = b0_norm(f, cfg)
    return NormReport(
        hi.value + b0.value,
        hi.error_bound + b0.error_bound,
        {"hinf": hi.value, "b0": b0.value},
        certified=hi.certified and b0.certified,
    )


def e0_norm(f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormReport:
    """sup over x > 0 of x * integral over y of |f'(x+iy)|, the `kernel_weight` of
    f'; 0 without integrating when the profiles certify e0_upper = 0.  Not
    certified when the maximum sits at an unsettled end of the grid, or when f's
    envelopes are sampled."""
    if f.profiles.e0_upper == 0:
        return NormReport(0.0, cfg.abs_tol, {"e0": 0.0}, True)

    def deriv_line(x):
        env = f.profiles.deriv_line(x)
        if not env.integrable:
            raise DivergenceSuspicion(
                "vertical-line integral of |f'| has no integrable envelope; "
                "the function is not in the dual class"
            )
        return env

    x_best, value, settled = kernel_weight(lambda w: np.abs(f.deriv(w)), deriv_line, cfg)
    err = max(cfg.abs_tol, cfg.rel_tol * value) + EDGE_ALLOWANCE * value
    certified = settled and not f.profiles.sampled
    return NormReport(value, err, {"e0": value, "argmax_x": x_best}, certified)

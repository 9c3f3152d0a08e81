"""Function norms by quadrature: sup norm, derivative-sup integral, and the
vertical-line seminorm paired with it."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceSuspicion, UnboundedSuspicion
from .functions import AnalyticFunction
from .quadrature import (
    DEFAULT_CONFIG,
    PowerEnvelope,
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
    "deriv_sup_at",
    "line_sup_modulus",
    "left_line_sup",
    "fitted_power_envelope",
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "error_bound": self.error_bound,
                "pieces": self.pieces,
                "certified": self.certified,
            },
            sort_keys=True,
        )

    def __float__(self):
        return self.value


def _line_sup(h, x: float, env, f: AnalyticFunction) -> SupResult:
    """sup over y of |h(x+iy)|, with h = f or f.deriv and env its envelope on the line."""

    def phi(ys):
        return np.abs(h(x + 1j * np.asarray(ys, dtype=float)))

    return sup_on_vertical_line(phi, env, window=f.profiles.window)


def deriv_sup_at(f: AnalyticFunction, x: float):
    """sup over y of |f'(x+iy)| with the function's declared line envelope."""
    return _line_sup(f.deriv, x, f.profiles.deriv_line(x), f)


def _modulus_sup(f: AnalyticFunction, x: float) -> SupResult:
    if x <= -f.left_bound:
        raise DivergenceSuspicion(
            f"line Re = {x} lies outside the declared analyticity strip"
        )
    sup = _line_sup(f, x, f.profiles.modulus_line(max(x, BOUNDARY_OFFSET)), f)
    if f.value_at_infinity is not None:
        sup.value = max(sup.value, abs(f.value_at_infinity))
    return sup


def line_sup_modulus(f: AnalyticFunction, x: float) -> float:
    """sup over y of |f(x+iy)| on a vertical line with Re = x > -left_bound."""
    return _modulus_sup(f, x).value


def left_line_sup(f: AnalyticFunction, omega: float):
    """sup of |f| on the line BOUNDARY_OFFSET inside the boundary Re z = -omega."""
    return line_sup_modulus(f, -omega + BOUNDARY_OFFSET)


def hinf_norm(f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormReport:
    """Supremum norm, evaluated on the line Re z = BOUNDARY_OFFSET by the maximum
    principle; the offset is charged to the error as 2 * BOUNDARY_OFFSET * value.
    Not certified when the search does not stabilise or f's envelopes are sampled."""
    sup = _modulus_sup(f, BOUNDARY_OFFSET)
    value = sup.value
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


def fitted_power_envelope(ts: np.ndarray, vals: np.ndarray, what: str) -> PowerEnvelope:
    """Power-law fit c * t^-p of sampled decay beyond ts[0], with a safety factor.

    For integrands with no integrable certified envelope; a result built on it
    is not certified.
    """
    good = vals > 1e-250
    if good.sum() < 4:
        return PowerEnvelope(p=2.0, c=1e-250, t0=float(ts[0]))
    p = -np.polyfit(np.log(ts[good]), np.log(vals[good]), 1)[0]
    if p <= 1.05:
        raise DivergenceSuspicion(
            f"{what} decays like t^-{p:.3f}; its integral looks divergent"
        )
    p_safe = max(1.05, 0.9 * p)
    return PowerEnvelope(p=p_safe, c=10.0 * float(np.max(vals * ts**p_safe)), t0=float(ts[0]))


def b0_norm(f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> NormReport:
    """Integral over x > 0 of the vertical-line supremum of |f'|; not certified
    when its outer envelope is fitted or f's envelopes are sampled."""

    def integrand(xs):
        return np.array([deriv_sup_at(f, float(x)).value for x in np.asarray(xs, dtype=float)])

    env = f.profiles.deriv_outer
    certified = not f.profiles.sampled
    if not env.integrable:
        xs = np.geomspace(8.0, 4096.0, 10)
        env = fitted_power_envelope(xs, integrand(xs), "outer integrand")
        certified = False
    res = integrate_halfline(integrand, env, cfg)
    value = float(np.real(res.value))
    return NormReport(value, res.error, {"b0": value, "tail": res.tail_error}, certified)


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
    err = max(cfg.abs_tol, cfg.rel_tol * value) + 4.0 * value / 2.0**20
    certified = settled and not f.profiles.sampled
    return NormReport(value, err, {"e0": value, "argmax_x": x_best}, certified)

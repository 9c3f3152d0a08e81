"""Bound validators: each computes a norm numerically and compares it with the
matching closed-form estimate, reporting the slack."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .functions import (
    AnalyticFunction,
    BernsteinFunction,
    DecayProfile,
    band_function,
    bernstein_resolvent,
    cayley_pow,
    exp_decay,
    exp_inv_shift,
    mul,
    shift,
    vitse_reg,
)
from .norms import BOUNDARY_OFFSET, b0_norm, b_norm, hinf_norm, left_line_sup, line_sup
from .quadrature import (
    DEFAULT_CONFIG,
    ConstEnvelope,
    PowerEnvelope,
    QuadratureConfig,
    envelope_product,
    integrate_halfline,
)

__all__ = [
    "EstimateReport",
    "check_band_embedding",
    "check_deriv_bound",
    "check_product_bound",
    "check_exp_window",
    "check_decay_majorant",
    "majorant_integral",
    "exact_expinv_norm",
    "check_expinv_exact",
    "check_vitse_reg",
    "check_cayley",
    "check_bernstein",
]


def require_positive(**params: float) -> None:
    """Reject the first parameter that is not a finite number > 0, by name."""
    for name, value in params.items():
        if not 0 < value < math.inf:
            raise InvalidParameter(f"{name} must be positive, got {value!r}")


@dataclass
class EstimateReport:
    estimate_id: str
    params: dict
    lhs: float
    rhs: float
    lhs_error: float = 0.0
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.lhs_error = float(self.lhs_error)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs + self.lhs_error + 1e-7 * (1.0 + abs(self.rhs)))


def check_band_embedding(
    coeffs, eps: float, sigma: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> EstimateReport:
    """Membership bound for exponential sums with rates inside [eps, sigma]:
    full norm <= sup norm * (1 + 2 log(1 + 2 sigma/eps))."""
    f = band_function(eps, sigma, coeffs)
    lhs = b_norm(f, cfg)
    rhs = lhs.pieces["hinf"] * (1.0 + 2.0 * math.log(1.0 + 2.0 * sigma / eps))
    return EstimateReport(
        "band_embedding",
        {"eps": eps, "sigma": sigma, "coeffs": list(map(list, coeffs))},
        lhs.value,
        rhs,
        lhs.error_bound,
    )


def check_deriv_bound(
    f: AnalyticFunction,
    fprime: AnalyticFunction,
    omega: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EstimateReport:
    """Derivative norm bound for functions holomorphic on Re z > -omega:
    ||f'||_B <= 3/(2 omega) * sup over that half-plane of |f|."""
    require_positive(omega=omega)
    sup_left = left_line_sup(f, omega)
    lhs = b_norm(fprime, cfg)
    rhs = 1.5 / omega * sup_left
    return EstimateReport(
        "deriv_bound", {"omega": omega, "f": f.label}, lhs.value, rhs, lhs.error_bound
    )


def _phi_over_weight(f: AnalyticFunction, omega: float, cfg: QuadratureConfig) -> float:
    """int over x > 0 of sup_y |f(x+iy)| / (omega + x)."""

    def integrand(xs):
        return line_sup(f, xs).value / (omega + xs)

    env = envelope_product(f.profiles.modulus_outer, PowerEnvelope(p=1.0, c=1.0, t0=1.0))
    res = integrate_halfline(integrand, env, cfg)
    return float(np.real(res.value))


def check_product_bound(
    f: AnalyticFunction,
    g: AnalyticFunction,
    omega: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EstimateReport:
    """Product bound: ||fg||_B <= ||f||_B ||g||_inf + (H-norm of g)/2 * weighted
    integral of the modulus profile of f."""
    require_positive(omega=omega)
    g_left = left_line_sup(g, omega)
    lhs = b_norm(mul(f, g), cfg)
    g_inf = hinf_norm(g, cfg).value
    phi_int = _phi_over_weight(f, omega, cfg)
    rhs = b_norm(f, cfg).value * g_inf + 0.5 * g_left * phi_int
    return EstimateReport(
        "product_bound",
        {"omega": omega, "f": f.label, "g": g.label},
        lhs.value,
        rhs,
        lhs.error_bound,
        info={"phi_integral": phi_int},
    )


def check_exp_window(
    g: AnalyticFunction,
    tau: float,
    omega: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EstimateReport:
    """Exponentially windowed bound: for f = e_tau * g with g holomorphic on
    Re z > -omega, ||f||_B <= e^(-omega tau) (2 + log(1 + 1/(tau omega))/2) * H-norm."""
    require_positive(tau=tau, omega=omega)
    f = mul(exp_decay(tau), g)
    f_left = left_line_sup(f, omega)
    lhs = b_norm(f, cfg)
    rhs = math.exp(-omega * tau) * (2.0 + 0.5 * math.log1p(1.0 / (tau * omega))) * f_left
    return EstimateReport(
        "exp_window",
        {"tau": tau, "omega": omega, "g": g.label},
        lhs.value,
        rhs,
        lhs.error_bound,
    )


def majorant_integral(h: DecayProfile, omega: float, cfg: QuadratureConfig) -> float:
    """int over t > 0 of h(t) / (omega + t), the right side of the decay bounds."""

    def integrand(ts):
        ts = np.asarray(ts, dtype=float)
        return np.asarray(h.h(ts), dtype=float) / (omega + ts)

    env = envelope_product(h.envelope, ConstEnvelope(c=1.0 / omega))
    res = integrate_halfline(integrand, env, cfg)
    return float(np.real(res.value))


def check_decay_majorant(
    f: AnalyticFunction,
    h: DecayProfile,
    omega: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EstimateReport:
    """Boundary-decay bound: ||f(.+omega)||_B0 <= 3 int h(t)/(omega+t) dt where
    h majorizes |f| far out on the boundary."""
    require_positive(omega=omega)
    h.validate()
    ss = np.geomspace(0.1, 200.0, 40)
    fb = np.abs(f(BOUNDARY_OFFSET + 1j * ss))
    hb = np.asarray(h.h(ss), dtype=float)
    if np.any(fb > 1.02 * hb + 1e-12):
        raise InvalidParameter("profile fails to majorize sampled boundary values")
    lhs = b0_norm(shift(f, omega), cfg)
    rhs = 3.0 * majorant_integral(h, omega, cfg)
    return EstimateReport(
        "decay_majorant",
        {"omega": omega, "f": f.label},
        lhs.value,
        rhs,
        lhs.error_bound,
        info={"majorant_integral": rhs / 3.0},
    )


def exact_expinv_norm(t: float) -> float:
    """Closed-form norm of exp(-t/(z+1)): 2 - e^(-t) for t <= 1, else
    2 - e^(-1) + e^(-1) log t."""
    require_positive(t=t)
    if t <= 1.0:
        return 2.0 - math.exp(-t)
    return 2.0 - math.exp(-1.0) + math.exp(-1.0) * math.log(t)


def check_expinv_exact(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> EstimateReport:
    """Quadrature against the exact norm formula; lhs is the deviation."""
    computed = b_norm(exp_inv_shift(t), cfg)
    exact = exact_expinv_norm(t)
    dev = abs(computed.value - exact)
    return EstimateReport(
        "expinv_exact",
        {"t": t},
        dev,
        1e-4,
        computed.error_bound,
        info={"computed": computed.value, "exact": exact},
    )


def check_vitse_reg(t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> EstimateReport:
    """Regularised inverse-exponential bound: norm <= min(t+3, logarithmic branch)."""
    lhs = b_norm(vitse_reg(t), cfg)
    a_t = (t + 2.0) / math.sqrt(t * t + 4.0 * t)
    rhs_lin = t + 3.0
    rhs_log = 1.0 + 2.0 * a_t * math.log1p(2.0 / (a_t - 1.0))
    rhs = min(rhs_lin, rhs_log)
    return EstimateReport(
        "vitse_reg",
        {"t": t},
        lhs.value,
        rhs,
        lhs.error_bound,
        info={
            "rhs_linear": rhs_lin,
            "rhs_log": rhs_log,
            "sharpness_ratio": lhs.value / math.log1p(t) if t > 0 else float("nan"),
        },
    )


def check_cayley(n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> EstimateReport:
    """Cayley-transform power norms grow at most logarithmically: <= 3 + 2 log(2n)."""
    lhs = b_norm(cayley_pow(n), cfg)
    rhs = 3.0 + 2.0 * math.log(2.0 * n)
    return EstimateReport("cayley_norm", {"n": n}, lhs.value, rhs, lhs.error_bound)


def check_bernstein(
    fb: BernsteinFunction,
    alpha: float,
    beta: float,
    theta: float,
    lam: complex,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EstimateReport:
    """Resolvent-of-Bernstein bound: norm of (lam + fb(z^alpha)^beta)^(-1) is at
    most C/|lam| with C independent of fb."""
    h = bernstein_resolvent(fb, alpha, beta, theta, lam)
    lhs = b_norm(h, cfg)
    C = (
        2.0
        * beta
        / math.cos(alpha * math.pi / 2.0)
        / math.cos((alpha * beta * math.pi / 2.0 + theta) / 2.0) ** 2
    )
    rhs = C / abs(complex(lam))
    return EstimateReport(
        "bernstein_resolvent",
        {"alpha": alpha, "beta": beta, "theta": theta, "lambda": str(lam), "fb": f"a={fb.a:g},b={fb.b:g},jumps={list(fb.jumps)}"},
        lhs.value,
        rhs,
        lhs.error_bound,
        info={"constant": C},
    )

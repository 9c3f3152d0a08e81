"""Operator-level bound validators: norm estimates for functions of matrix
semigroup generators, inverse-generator growth, Cayley power growth, spectral
mapping, and the strong-convergence demonstration.

The calculus runs under its own fixed config, so a validator's cfg reaches only
the norms on its right-hand side."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .estimates import EstimateReport, majorant_integral, require_positive
from .functions import (
    AnalyticFunction,
    DecayProfile,
    _is_int_in,
    cayley_pow,
    dilate,
    exp_decay,
    exp_inv_shift,
    mul,
    shift,
    vitse_reg,
)
from .norms import BOUNDARY_OFFSET, b_norm, fitted_slope, hinf_norm, left_line_sup
from .operators import (
    MatrixOperator,
    _as_vector,
    _semigroup_norms,
    _semigroup_sup,
    apply_calculus,
    apply_calculus_report,
    gamma_hat,
    gamma_weak_sample,
    semigroup,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = [
    "stability_constants",
    "check_hilbert_calc_bound",
    "check_sectorial_gamma",
    "check_band_operator",
    "check_smoothed_window",
    "check_fractional_smoothing",
    "check_deriv_operator",
    "check_exp_stable_decay",
    "inverse_generator_check",
    "inverse_generator_constant",
    "inverse_generator_consistency",
    "cayley_power_check",
    "spectral_mapping_check",
    "convergence_demo",
    "ConvergenceTable",
]

def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _calculus_norm(A: MatrixOperator, f: AnalyticFunction) -> tuple[float, float]:
    """||f(A)||_2 and its error bound: n times the calculus's bound on the largest entry of
    the error E, since ||E||_2 <= n max |E_ij|."""
    rep = apply_calculus_report(A, f)
    return _opnorm(rep.value), A.n * rep.error


def stability_constants(A: MatrixOperator) -> tuple[float, float]:
    """Exponential-stability fit ||exp(-tA)|| <= M exp(-omega t).

    Log-linear regression over a decade grid, rounded conservatively: M up,
    omega down, and omega clamped under the spectral abscissa.
    """
    w_spec = A.spectral_abscissa_min()
    if w_spec <= 0:
        raise InvalidParameter("exponential-stability fit needs min Re spectrum > 0")
    ts = np.geomspace(0.05, max(4.0 / w_spec, 1.0), 40)
    norms = _semigroup_norms(A, ts)
    omega = min(-fitted_slope(ts, np.log(norms)), w_spec) * 0.999
    if omega <= 0:
        omega = 0.5 * w_spec
    M = max(1.0, float(np.max(norms * np.exp(omega * ts)))) * 1.001
    return M, omega


def check_hilbert_calc_bound(
    A: MatrixOperator, f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> EstimateReport:
    """||f(A)|| <= 2 K^2 ||f||_B for any bounded semigroup; K is a lower estimate if not exact."""
    lhs, err = _calculus_norm(A, f)
    rhs = 2.0 * A.profile().K ** 2 * b_norm(f, cfg).value
    return EstimateReport("hilbert_calc_bound", {"A": A.label, "f": f.label}, lhs, rhs, err)


def check_sectorial_gamma(A: MatrixOperator) -> EstimateReport:
    """gamma bracket against the sectoriality constant:
    gamma_hat <= 8 (2 + log 2) M (log M + 1)."""
    M = A.profile().M
    if not math.isfinite(M):
        raise InvalidParameter("operator is not sectorial; no finite constant")
    rhs = 8.0 * (2.0 + math.log(2.0)) * M * (math.log(M) + 1.0)
    gamma = gamma_hat(A)[0]
    return EstimateReport(
        "sectorial_gamma",
        {"A": A.label, "M": M},
        gamma,
        rhs,
        1e-6 * gamma,
        info={"gamma_weak_sample": gamma_weak_sample(A)},
    )


def check_band_operator(
    A: MatrixOperator,
    f: AnalyticFunction,
    eps: float,
    sigma: float,
) -> EstimateReport:
    """Spectral-band operator bound, Hilbert or sectorial flavour by profile."""
    require_positive(eps=eps, sigma=sigma)
    lhs, err = _calculus_norm(A, f)
    prof = A.profile()
    f_inf = hinf_norm(f).value
    if A.spectral is not None:
        rhs = 2.0 * prof.K**2 * (1.0 + 2.0 * math.log(1.0 + 2.0 * sigma / eps)) * f_inf
        variant = "normal"
    else:
        if not math.isfinite(prof.M):
            raise InvalidParameter("non-normal case needs a sectorial operator")
        rhs = (
            4.0
            * (2.0 * math.pi + 3.0 * math.log(2.0))
            * prof.M
            * (math.log(prof.M) + 1.0)
            * (1.0 + 4.0 * math.log(1.0 + sigma / eps))
            * f_inf
        )
        variant = "sectorial"
    return EstimateReport(
        "band_operator",
        {"A": A.label, "f": f.label, "eps": eps, "sigma": sigma, "variant": variant},
        lhs,
        rhs,
        err,
    )


def check_smoothed_window(
    A: MatrixOperator,
    g: AnalyticFunction,
    omega: float,
    tau: float,
) -> EstimateReport:
    """||g(A) exp(-tau A)|| <= 2 K^2 (2 + log(1 + 1/(omega tau))/2) * left-line sup, for any
    bounded semigroup; K is a lower estimate if not exact."""
    require_positive(omega=omega, tau=tau)
    g_left = left_line_sup(g, omega)
    lhs, err = _calculus_norm(A, mul(g, exp_decay(tau)))
    rhs = 2.0 * A.profile().K ** 2 * (2.0 + 0.5 * math.log1p(1.0 / (omega * tau))) * g_left
    return EstimateReport(
        "smoothed_window",
        {"A": A.label, "g": g.label, "omega": omega, "tau": tau},
        lhs,
        rhs,
        err,
    )


def check_fractional_smoothing(
    A: MatrixOperator,
    g: AnalyticFunction,
    lam: complex,
    alpha: float,
    omega: float,
) -> EstimateReport:
    """||g(A) (lam+A)^(-alpha)|| <= (4 + 1/alpha) K^2 / m^alpha * left-line sup.  An error E
    in g(A) moves the left side by at most ||E||_2 ||(lam+A)^(-alpha)||_2, and
    ||E||_2 <= n max |E_ij|."""
    require_positive(alpha=alpha, omega=omega)
    if A.spectral is None:
        raise InvalidParameter("fractional-smoothing bound is for the Hilbert model")
    lam = complex(lam)
    if lam.real <= 0:
        raise InvalidParameter("needs Re lambda > 0")
    g_left = left_line_sup(g, omega)
    rep = apply_calculus_report(A, g)
    v = A.eigenvectors
    frac = v @ np.diag((lam + A.eigenvalues) ** (-alpha)) @ np.linalg.inv(v)
    lhs = _opnorm(rep.value @ frac)
    m = min(omega, lam.real)
    rhs = (4.0 + 1.0 / alpha) * A.profile().K ** 2 / m**alpha * g_left
    return EstimateReport(
        "fractional_smoothing",
        {"A": A.label, "g": g.label, "lambda": str(lam), "alpha": alpha, "omega": omega},
        lhs,
        rhs,
        A.n * rep.error * _opnorm(frac),
    )


def check_deriv_operator(
    A: MatrixOperator,
    f: AnalyticFunction,
    fprime: AnalyticFunction,
    omega: float,
) -> EstimateReport:
    """||f'(A)|| <= 3 K^2 / omega * left-line sup of f; K is a lower estimate if not exact."""
    require_positive(omega=omega)
    f_left = left_line_sup(f, omega)
    lhs, err = _calculus_norm(A, fprime)
    rhs = 3.0 * A.profile().K ** 2 / omega * f_left
    return EstimateReport(
        "deriv_operator", {"A": A.label, "f": f.label, "omega": omega}, lhs, rhs, err
    )


def check_exp_stable_decay(
    A: MatrixOperator,
    f: AnalyticFunction,
    h: DecayProfile,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> EstimateReport:
    """Exponentially stable Hilbert model: ||f(A)|| <= 6 M^2 int h(t)/(omega+t) dt."""
    if A.spectral is None:
        raise InvalidParameter("exp-stable-decay bound is for the Hilbert model")
    M, omega = stability_constants(A)
    shifted = MatrixOperator(A.matrix - omega * np.eye(A.n), label=f"{A.label}-{omega:.3g}")
    lhs, err = _calculus_norm(shifted, shift(f, omega))
    rhs = 6.0 * M**2 * majorant_integral(h, omega, cfg)
    return EstimateReport(
        "exp_stable_decay",
        {"A": A.label, "f": f.label, "M": M, "omega": omega},
        lhs,
        rhs,
        err,
    )


def _inverse_generator(A: MatrixOperator) -> MatrixOperator:
    """A^(-1) as an operator; InvalidParameter unless A is invertible."""
    if np.min(np.abs(A.eigenvalues)) <= 1e-12:
        raise InvalidParameter("operator must be invertible")
    return MatrixOperator(np.linalg.inv(A.matrix), label=f"{A.label}^-1")


def inverse_generator_check(A: MatrixOperator, t: float) -> EstimateReport:
    """Growth of exp(-t A^(-1)) for exponentially stable A:
    <= 2 M^2 (2 - e^(-t/omega)) for t <= omega, logarithmic beyond."""
    require_positive(t=t)
    inv_op = _inverse_generator(A)
    M, omega = stability_constants(A)
    lhs = _opnorm(semigroup(inv_op, t))
    if t <= omega:
        rhs = 2.0 * M**2 * (2.0 - math.exp(-t / omega))
    else:
        rhs = 2.0 * M**2 * (2.0 - math.exp(-1.0) + math.exp(-1.0) * math.log(t / omega))
    return EstimateReport(
        "inverse_generator",
        {"A": A.label, "t": t, "M": M, "omega": omega},
        lhs,
        rhs,
        1e-10,
    )


def inverse_generator_constant(
    A: MatrixOperator,
    ts=(1.0, 4.0, 16.0, 64.0),
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> dict:
    """Measured constant in ||exp(-t A^(-1))|| <= C_A (1 + log(1+t)); reported only."""
    inv_op = _inverse_generator(A)
    norms = _semigroup_norms(inv_op, ts)
    vals = {float(t): float(v) for t, v in zip(ts, norms)}
    c_meas = max(v / (1.0 + math.log1p(t)) for t, v in vals.items())
    envelope_const = max(
        b_norm(vitse_reg(t), cfg).value / (1.0 + math.log1p(t)) for t in (1.0, 16.0)
    )
    c_a = 2.0 * envelope_const * _semigroup_sup(A) ** 2 * _opnorm(
        (np.eye(A.n) + inv_op.matrix) @ (np.eye(A.n) + inv_op.matrix)
    )
    return {"measured": c_meas, "predicted": c_a, "values": vals}


def inverse_generator_consistency(A: MatrixOperator, t: float) -> float:
    """Direct exp(-t A^(-1)) against the calculus route through exp(-t/(z+1))
    applied to A - I, valid when min Re spectrum >= 1."""
    if A.spectral_abscissa_min() < 1.0 - 1e-9:
        raise InvalidParameter("normalisation requires min Re spectrum >= 1")
    shifted = MatrixOperator(A.matrix - np.eye(A.n), label=f"{A.label}-1")
    via_calc = apply_calculus(shifted, exp_inv_shift(t))
    direct = semigroup(_inverse_generator(A), t)
    return float(np.max(np.abs(via_calc - direct)))


def cayley_power_check(A: MatrixOperator, n: int) -> EstimateReport:
    """Cayley powers: ||V(A)^n|| <= 2 K^2 (3 + 2 log 2n); K is a lower estimate if not exact."""
    require_positive(n=n)
    chi = cayley_pow(n)
    eye = np.eye(A.n)
    v = (A.matrix - eye) @ np.linalg.inv(A.matrix + eye)
    pw = eye.astype(complex)
    for _ in range(n):
        pw = pw @ v
    lhs = _opnorm(pw)
    rhs = 2.0 * A.profile().K ** 2 * (3.0 + 2.0 * math.log(2.0 * n))
    via_calc = apply_calculus(A, chi)
    info = {"calculus_gap": float(np.max(np.abs(via_calc - pw)))}
    return EstimateReport(
        "cayley_power", {"A": A.label, "n": n}, lhs, rhs, 1e-10, info=info
    )


def spectral_mapping_check(A: MatrixOperator, f: AnalyticFunction) -> dict:
    """Eigenvalues of f(A) against f of the spectrum.

    Returns the inclusion defect (one direction, always expected small) and
    the Hausdorff distance (two-sided, asserted only for sectorial operators).
    """
    fa = apply_calculus(A, f)
    spec_fa = np.linalg.eigvals(fa)
    f_spec = np.asarray(f(A.eigenvalues))
    f_inf = complex(f.infinity())
    left = np.concatenate([f_spec, [f_inf]])
    right = np.concatenate([spec_fa, [f_inf]])

    def one_sided(p, q):
        return float(max(np.min(np.abs(q[None, :] - x)) for x in p))

    incl = one_sided(left, right)
    haus = max(incl, one_sided(right, left))
    return {
        "inclusion_defect": incl,
        "hausdorff": haus,
        "sectorial": A.sectorial,
    }


@dataclass
class ConvergenceTable:
    n_values: list[int]
    shrink: list[float]
    stretch: list[float] = field(default_factory=list)

    @property
    def decrease_factor(self) -> float:
        return self.shrink[0] / max(self.shrink[-1], 1e-300)


def convergence_demo(
    A: MatrixOperator,
    f: AnalyticFunction,
    n_list,
    x: np.ndarray,
) -> ConvergenceTable:
    """|| f(A/n) x - f(0) x || along n, plus the non-convergent stretched family
    f(n z) reported without any assertion."""
    n_list = list(n_list)
    if not n_list or not all(_is_int_in(n, 1) for n in n_list):
        raise InvalidParameter(f"the convergence demo needs integers n >= 1, got {n_list}")
    x = _as_vector(x, A.n, "x")
    f0 = complex(f(BOUNDARY_OFFSET))
    fin = complex(f.infinity())
    shrink, stretchv = [], []
    for n in n_list:
        val = apply_calculus(A, dilate(f, 1.0 / n)) @ x
        shrink.append(float(np.linalg.norm(val - f0 * x)))
        sval = apply_calculus(A, dilate(f, float(n))) @ x
        stretchv.append(float(np.linalg.norm(sval - fin * x)))
    return ConvergenceTable(list(n_list), shrink, stretchv)

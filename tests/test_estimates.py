"""Estimate validators: every bound must hold on its documented grid."""

import math

import numpy as np
import pytest

from besovcalc.errors import InvalidParameter
from besovcalc.estimates import (
    check_band_embedding,
    check_bernstein,
    check_cayley,
    check_decay_majorant,
    check_deriv_bound,
    check_expinv_exact,
    check_exp_window,
    check_product_bound,
    check_vitse_reg,
    exact_expinv_norm,
)
from besovcalc.functions import (
    BernsteinFunction,
    DecayProfile,
    exp_decay,
    mul,
    resolvent,
    scale,
)
from besovcalc.quadrature import QuadratureConfig, ShapeEnvelope
from besovcalc.report import reports_to_json

CFG = QuadratureConfig()


def neg_sq_resolvent(a):
    return scale(mul(resolvent(a), resolvent(a)), -1.0)


class TestBandEmbedding:
    def test_two_atom(self):
        r = check_band_embedding([(1.0, 1.0), (4.0, -1.0)], 1.0, 4.0, CFG)
        assert r.passed
        # boundary sup of e_1 - e_4 is 2, so the bound is 2 (1 + 2 log 9)
        assert r.rhs == pytest.approx(2.0 * (1.0 + 2.0 * math.log(9.0)), abs=1e-2)

    def test_sum_atoms(self):
        assert check_band_embedding([(1.0, 1.0), (2.0, 1.0)], 1.0, 2.0, CFG).passed

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameter):
            check_band_embedding([(2.0, 1.0)], 2.0, 2.0, CFG)


class TestDerivAndProducts:
    def test_deriv_bound_resolvent(self):
        r = check_deriv_bound(resolvent(2.0), neg_sq_resolvent(2.0), 1.0, CFG)
        assert r.passed
        assert r.rhs == pytest.approx(1.5, abs=1e-3)
        assert r.lhs == pytest.approx(0.5, abs=1e-3)

    def test_deriv_bound_const(self):
        from besovcalc.functions import const

        r = check_deriv_bound(const(3.0), const(0.0), 1.0, CFG)
        assert r.lhs == 0.0 and r.passed

    @pytest.mark.parametrize(
        "f", [resolvent(1.0), exp_decay(1.0)], ids=["resolvent", "exp"]
    )
    def test_product_bound(self, f):
        assert check_product_bound(f, resolvent(2.0), 1.0, CFG).passed

    @pytest.mark.parametrize("tau,omega", [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5)])
    def test_exp_window(self, tau, omega):
        assert check_exp_window(resolvent(2.0), tau, omega, CFG).passed

    @pytest.mark.parametrize("omega", [0.5, 1.0])
    def test_decay_majorant(self, omega):
        f = mul(resolvent(1.0), resolvent(1.0))
        h = DecayProfile(
            h=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
            envelope=ShapeEnvelope(c=1.0, p=2.0, s=1.0),
        )
        assert check_decay_majorant(f, h, omega, CFG).passed

    def test_majorant_must_majorize(self):
        f = resolvent(1.0)  # |f(iy)| = 1/sqrt(1+y^2) >> 1/(1+y^2)
        h = DecayProfile(
            h=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2) * 0.01,
            envelope=ShapeEnvelope(c=0.01, p=2.0, s=1.0),
        )
        with pytest.raises(InvalidParameter):
            check_decay_majorant(f, h, 1.0, CFG)


class TestExpinvExact:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0, 100.0])
    def test_exact(self, t):
        r = check_expinv_exact(t, CFG)
        assert r.lhs < 1e-4 and r.passed

    def test_branch_continuity(self):
        assert exact_expinv_norm(1.0) == pytest.approx(2.0 - math.exp(-1.0), abs=1e-15)
        assert exact_expinv_norm(1.0 + 1e-12) == pytest.approx(
            exact_expinv_norm(1.0), abs=1e-10
        )
        assert exact_expinv_norm(math.e) == pytest.approx(2.0, abs=1e-12)

    def test_small_t_limit(self):
        assert exact_expinv_norm(1e-9) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_t_rejected(self, t):
        with pytest.raises(InvalidParameter, match="t must be positive"):
            exact_expinv_norm(t)


class TestVitse:
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
    def test_passes(self, t):
        r = check_vitse_reg(t, CFG)
        assert r.passed

    def test_branch_selection(self):
        r1 = check_vitse_reg(1.0, CFG)
        assert r1.rhs == pytest.approx(min(r1.info["rhs_linear"], r1.info["rhs_log"]))
        assert r1.info["rhs_linear"] == 4.0
        r100 = check_vitse_reg(100.0, CFG)
        assert r100.rhs == r100.info["rhs_log"]
        # logarithmic scale for large t
        a_t = 102.0 / math.sqrt(100.0**2 + 400.0)
        assert r100.info["rhs_log"] == pytest.approx(
            1.0 + 2.0 * a_t * math.log1p(2.0 / (a_t - 1.0))
        )


class TestCayley:
    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_passes(self, n):
        r = check_cayley(n, CFG)
        assert r.passed
        assert r.rhs == pytest.approx(3.0 + 2.0 * math.log(2.0 * n))

    def test_n1_exact(self):
        assert check_cayley(1, CFG).lhs == pytest.approx(3.0, abs=1e-3)


class TestBernstein:
    TRIPLES = [
        (0.5, 2.0, math.pi / 4, 1.0 + 0j),
        (0.4, 2.0, math.pi / 8, 2.0 + 0.5j),
        (0.3, 3.0, math.pi / 4, 10.0 + 0j),
    ]

    @pytest.mark.parametrize("alpha,beta,theta,lam", TRIPLES)
    def test_passes(self, alpha, beta, theta, lam):
        fb = BernsteinFunction(b=1.0)
        assert check_bernstein(fb, alpha, beta, theta, lam, CFG).passed

    def test_constant_independent_of_generator(self):
        gens = [
            BernsteinFunction(b=1.0),
            BernsteinFunction(jumps=((1.0, 1.0),)),
            BernsteinFunction(a=0.1, b=0.5, jumps=((2.0, 0.5),)),
        ]
        rhs = {check_bernstein(fb, 0.5, 2.0, math.pi / 4, 1.0, CFG).rhs for fb in gens}
        assert len(rhs) == 1

    def test_linear_case_is_resolvent(self):
        # fb(z)=z, alpha=1/2, beta=2 gives (1+z)^(-1): norm exactly 2
        r = check_bernstein(BernsteinFunction(b=1.0), 0.5, 2.0, math.pi / 4, 1.0, CFG)
        assert r.lhs == pytest.approx(2.0, abs=1e-3)

    def test_lambda_scaling(self):
        fb = BernsteinFunction(b=1.0)
        vals = []
        for m in (1.0, 10.0, 100.0):
            lam = m * np.exp(1j * math.pi / 8)
            r = check_bernstein(fb, 0.5, 2.0, math.pi / 4, complex(lam), CFG)
            assert r.passed
            vals.append(r.lhs * m)
        assert max(vals) - min(vals) < 1e-3

    def test_report_row(self):
        r = check_cayley(1, CFG)
        row = reports_to_json([r])[0]
        assert row["pass"] is True and row["estimate_id"] == "cayley_norm"
        assert row["slack"] == pytest.approx(r.rhs - r.lhs)

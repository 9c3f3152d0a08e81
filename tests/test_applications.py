"""Operator-level bound validators, spectral mapping, and the convergence demo."""

import math

import numpy as np
import pytest

from besovcalc import operators
from besovcalc.errors import InvalidParameter
from besovcalc.applications import (
    cayley_power_check,
    check_band_operator,
    check_deriv_operator,
    check_exp_stable_decay,
    check_fractional_smoothing,
    check_hilbert_calc_bound,
    check_sectorial_gamma,
    check_smoothed_window,
    convergence_demo,
    inverse_generator_check,
    inverse_generator_consistency,
    inverse_generator_constant,
    is_normal,
    spectral_mapping_check,
    stability_constants,
)
from besovcalc.functions import (
    DecayProfile,
    band_function,
    cayley_pow,
    exp_decay,
    mul,
    resolvent,
    scale,
)
from besovcalc.operators import (
    MatrixOperator,
    jordan_operator,
    parse_operator_spec,
    random_sectorial_operator,
    semigroup,
)
from besovcalc.quadrature import QuadratureConfig, ResolventEnvelope

CFG = QuadratureConfig()
DIAG12 = parse_operator_spec("diag(1,2)")


def inv_square_profile():
    return DecayProfile(
        h=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2),
        envelope=ResolventEnvelope(m=1.0, shift=1.0),
    )


class TestHilbertAndSectorial:
    def test_is_normal(self):
        assert is_normal(DIAG12)
        assert not is_normal(jordan_operator(1.0, 2))

    def test_hilbert_bound(self):
        assert check_hilbert_calc_bound(DIAG12, exp_decay(1.0), CFG).passed

    def test_hilbert_validators_take_non_normal(self):
        """The Hilbert-space bounds hold for every bounded semigroup: accretive
        operators (K = 1 exact) and ones whose K comes from the search."""
        fp = scale(mul(resolvent(2.0), resolvent(2.0)), -1.0)
        for spec in (
            "jordan(lambda=1,m=2)",
            "sectorial_random(4,seed=3,angle=0.5236)",
            "jordan(lambda=0.1,m=2)",
            "sectorial_random(6,seed=1,angle=1.3)",
        ):
            A = parse_operator_spec(spec)
            assert not is_normal(A)
            reports = [
                check_hilbert_calc_bound(A, exp_decay(1.0), CFG),
                check_smoothed_window(A, resolvent(2.0), 1.0, 1.0),
                check_deriv_operator(A, resolvent(2.0), fp, 1.0),
                cayley_power_check(A, 16),
            ]
            assert all(r.passed for r in reports), spec

    def test_sectorial_gamma(self):
        A = random_sectorial_operator(4, 3, math.pi / 6)
        assert check_sectorial_gamma(A).passed

    def test_stability_constants_conservative(self):
        M, omega = stability_constants(DIAG12)
        ts = np.geomspace(0.01, 20.0, 30)
        for t in ts:
            assert np.linalg.norm(semigroup(DIAG12, t), 2) <= M * math.exp(-omega * t) * (
                1.0 + 1e-9
            )

    @pytest.mark.parametrize(
        "spec,M,omega",
        [
            ("diag(1,2)", "0x1.004189374bc6ap+0", "0x1.ff7ced916872bp-1"),
            ("diag(2,3,5)", "0x1.004189374bc6ap+0", "0x1.ff7ced916872bp+0"),
        ],
    )
    def test_stability_constants_pinned(self, spec, M, omega):
        assert stability_constants(parse_operator_spec(spec)) == (
            float.fromhex(M),
            float.fromhex(omega),
        )


class TestCorollaryGrids:
    def test_band_normal(self):
        f = band_function(1.0, 4.0)
        assert check_band_operator(DIAG12, f, 1.0, 4.0).passed

    def test_band_sectorial(self):
        A = random_sectorial_operator(4, 3, math.pi / 6)
        f = band_function(1.0, 4.0)
        r = check_band_operator(A, f, 1.0, 4.0)
        assert r.passed and r.params["variant"] == "sectorial"

    def test_band_const_sanity(self):
        # constant functions: lhs = |c|, covered with f_inf = |c|
        from besovcalc.functions import const

        r = check_band_operator(DIAG12, const(2.0), 1.0, 4.0)
        assert r.passed and r.lhs == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("omega,tau", [(0.1, 0.1), (0.1, 1.0), (1.0, 0.1), (1.0, 1.0)])
    def test_smoothed_window_grid(self, omega, tau):
        assert check_smoothed_window(DIAG12, resolvent(2.0), omega, tau).passed

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_fractional_grid(self, alpha):
        assert check_fractional_smoothing(DIAG12, resolvent(2.0), 1.0, alpha, 1.0).passed

    def test_deriv_operator(self):
        fp = scale(mul(resolvent(2.0), resolvent(2.0)), -1.0)
        assert check_deriv_operator(DIAG12, resolvent(2.0), fp, 1.0).passed

    def test_exp_stable_decay(self):
        f = mul(resolvent(1.0), resolvent(1.0))
        assert check_exp_stable_decay(DIAG12, f, inv_square_profile(), CFG).passed


class TestInverseGenerator:
    def test_scalar_closed_form(self):
        # lhs = exp(-t/omega) for A = [[omega]]
        A = MatrixOperator(np.array([[2.0]]))
        r = inverse_generator_check(A, 1.0)
        assert r.lhs == pytest.approx(math.exp(-0.5), abs=1e-10)
        assert r.passed

    def test_diag_large_t(self):
        assert inverse_generator_check(parse_operator_spec("diag(1,4)"), 10.0).passed

    def test_small_t_limit(self):
        r = inverse_generator_check(DIAG12, 1e-3)
        assert r.lhs == pytest.approx(1.0, abs=1e-2)
        assert r.passed

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_non_positive_t_rejected(self, t):
        with pytest.raises(InvalidParameter, match="t must be positive"):
            inverse_generator_check(DIAG12, t)

    def test_consistency_with_calculus(self):
        gap = inverse_generator_consistency(parse_operator_spec("diag(1,4)"), 2.0)
        assert gap < 1e-4

    def test_constant_reported(self):
        out = inverse_generator_constant(DIAG12, (1.0, 4.0, 16.0), CFG)
        assert out["measured"] > 0 and out["predicted"] > 0

    @pytest.mark.parametrize(
        "spec,predicted,measured",
        [
            ("diag(1,2)", 11.74701499081648, 0.3582267783194406),
            ("sectorial_random(4,seed=3,angle=0.5)", 29.298690601406683, 0.35980246764054347),
            ("jordan(0.2,2)", 3280.5095058776096, 0.09964742872922096),  # K = 1.916...
        ],
    )
    def test_constant_needs_only_k(self, monkeypatch, spec, predicted, measured):
        """K alone enters the predicted constant, so the operator is never profiled;
        the numbers are those the whole profile gave."""

        def no_profile(*args, **kwargs):
            raise AssertionError("inverse_generator_constant profiled the operator")

        monkeypatch.setattr(operators, "profile", no_profile)
        A = parse_operator_spec(spec)
        out = inverse_generator_constant(A)
        assert out["predicted"] == predicted and out["measured"] == measured
        assert list(out["values"]) == [1.0, 4.0, 16.0, 64.0]
        assert A._profile_cache is None


class TestCayleyPowers:
    @pytest.mark.parametrize("spec,n", [("diag(1,2)", 1), ("diag(1,2)", 16)])
    def test_normal_contraction(self, spec, n):
        r = cayley_power_check(parse_operator_spec(spec), n)
        assert r.passed
        assert r.lhs <= 1.0 + 1e-9
        assert r.info["calculus_gap"] < 1e-4

    def test_unitary_spectrum(self):
        A = parse_operator_spec("diag(i,-i,1)")
        r = cayley_power_check(A, 8)
        assert r.passed and r.lhs == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_power_rejected(self, n):
        with pytest.raises(InvalidParameter, match="integer n >= 1"):
            cayley_power_check(DIAG12, n)


class TestSpectralMapping:
    def test_diag_cayley(self):
        res = spectral_mapping_check(DIAG12, cayley_pow(1))
        assert res["sectorial"] and res["hausdorff"] < 1e-4

    def test_jordan_exp(self):
        res = spectral_mapping_check(jordan_operator(1.0, 2), exp_decay(1.0))
        assert res["hausdorff"] < 1e-4

    def test_sectorial_eta(self):
        from besovcalc.functions import eta

        A = random_sectorial_operator(4, 3, math.pi / 6)
        res = spectral_mapping_check(A, eta())
        assert res["sectorial"] and res["hausdorff"] < 1e-4

    def test_inclusion_nonsectorial(self):
        A = parse_operator_spec("diag(i,-i)")
        res = spectral_mapping_check(A, exp_decay(1.0))
        assert not res["sectorial"]
        assert res["inclusion_defect"] < 1e-4


class TestConvergence:
    def test_exp_family_decreases(self):
        x = np.ones(2) / math.sqrt(2.0)
        tab = convergence_demo(DIAG12, exp_decay(1.0), [1, 4, 16, 64], x)
        assert all(b < a for a, b in zip(tab.shrink, tab.shrink[1:]))
        assert tab.decrease_factor >= 10.0

    def test_const_all_zero(self):
        from besovcalc.functions import const

        x = np.array([1.0, 0.0])
        tab = convergence_demo(DIAG12, const(2.0), [1, 4], x)
        assert max(tab.shrink) < 1e-8

    @pytest.mark.parametrize("n_list", [[2.5], [1, True], [0]])
    def test_non_integer_n_rejected(self, n_list):
        with pytest.raises(InvalidParameter, match="integers n >= 1"):
            convergence_demo(DIAG12, exp_decay(1.0), n_list, np.ones(2))

    def test_vector_length_checked(self):
        with pytest.raises(InvalidParameter, match="x must be a vector of length 2"):
            convergence_demo(DIAG12, exp_decay(1.0), [1], np.ones(3))

    def test_stretched_family_no_convergence(self):
        # spectrum on the imaginary axis: |exp(-n i y)| = 1, no strong limit
        A = parse_operator_spec("diag(i,-i)")
        x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        tab = convergence_demo(A, exp_decay(1.0), [1, 4], x)
        assert min(tab.stretch) > 0.5  # stays far from f(infinity) = 0


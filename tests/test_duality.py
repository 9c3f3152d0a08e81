"""Duality pairing and the reproducing identity."""

import dataclasses
import math

import numpy as np
import pytest

from besovcalc import duality, quadrature
from besovcalc.duality import pairing, reproduce_residual
from besovcalc.errors import IntegralNotNormConvergent, InvalidParameter
from besovcalc.functions import (
    BernsteinFunction,
    HalfLineMeasure,
    add,
    band_function,
    bernstein_resolvent,
    cayley_pow,
    const,
    dilate,
    eta,
    exp_decay,
    exp_inv_shift,
    laplace_transform,
    mul,
    parse_function_spec,
    power,
    resolvent,
    scale,
    shift,
    vitse_reg,
)
from besovcalc.norms import BOUNDARY_OFFSET, b0_norm, e0_norm
from besovcalc.operators import (
    MatrixOperator,
    apply_calculus_report,
    gamma_hat,
    random_sectorial_operator,
)
from besovcalc.quadrature import ConstEnvelope, PowerEnvelope, QuadratureConfig, integrate_line

CFG = QuadratureConfig()
FAST = CFG.with_tolerances(abs_tol=3e-8, rel_tol=1e-7)


def criterion_03_catalog():
    """The 13 functions of acceptance criterion 03."""
    return [
        const(2.0),
        exp_decay(1.0),
        resolvent(1.0),
        resolvent(1 + 2j),
        cayley_pow(1),
        cayley_pow(4),
        eta(),
        parse_function_spec("eta(delta=0.5)"),
        exp_inv_shift(1.0),
        vitse_reg(1.0),
        laplace_transform(HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0))),
        band_function(1.0, 4.0),
        bernstein_resolvent(BernsteinFunction(b=1.0), 0.5, 2.0, math.pi / 4, 1.0),
    ]


def green_pairing(g, f, env) -> complex:
    """Reference value of <g, f> from its boundary form
    (1/4) int (g(x0 - iy) - g(inf)) (f(x0 + iy) - f(inf)) dy on the line x0 = BOUNDARY_OFFSET;
    env must bound the product's modulus on that line."""
    gi, fi = g.infinity(), f.infinity()
    x0 = BOUNDARY_OFFSET

    def integrand(ys):
        return (g(x0 - 1j * ys) - gi) * (f(x0 + 1j * ys) - fi)

    return 0.25 * complex(integrate_line(integrand, env, CFG).value)


class TestPairingValues:
    def test_constant_annihilated(self):
        assert abs(pairing(resolvent(1.0), const(7.0), CFG).value) == 0.0

    def test_exp_value(self):
        # forced by the reproducing identity: f(1) = (2/pi) <r_1, f> for e_1
        expect = 0.5 * math.pi * math.exp(-1.0)
        got = pairing(resolvent(1.0), exp_decay(1.0), CFG)
        assert abs(got.value - expect) < 1e-6
        assert abs(got.value - expect) <= got.error + 1e-12

    def test_tolerance_below_1e9_is_honoured(self):
        # every stage's tolerance, tails included, follows the config's abs_tol
        cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)
        got = pairing(resolvent(1.0), exp_decay(1.0), cfg)
        assert got.error < 1e-9
        assert abs(got.value - 0.5 * math.pi * math.exp(-1.0)) <= got.error

    def test_resolvent_pair(self):
        # <r_a, r_b> = (pi/2) r_b(a), here a=2, b=1
        got = pairing(resolvent(2.0), resolvent(1.0), CFG)
        assert abs(got.value - math.pi / 6.0) < 1e-6

    def test_laplace_kernel_is_certified(self):
        # g = 1 - 2 r_1 has the closed-form weight e0_upper = 2 pi, so the error
        # is certified; <g, e_1> = -2 (pi/2) e^(-1) by the reproducing identity
        g = laplace_transform(HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0)))
        assert g.profiles.e0_upper == pytest.approx(2.0 * math.pi)
        got = pairing(g, exp_decay(1.0), CFG)
        assert got.error < 1e-5
        assert got.error >= abs(got.value + math.pi / math.e)

    def test_bilinearity(self):
        g = resolvent(1.0)
        f1, f2 = exp_decay(1.0), resolvent(2.0)
        alpha = 2.5 - 1.0j
        left = pairing(g, add(scale(f1, alpha), f2), CFG).value
        right = alpha * pairing(g, f1, CFG).value + pairing(g, f2, CFG).value
        assert abs(left - right) < 1e-6

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_shift_adjoint(self, a):
        g, f = resolvent(1.0), exp_decay(1.0)
        left = pairing(shift(g, a), f, CFG).value
        right = pairing(g, shift(f, a), CFG).value
        assert abs(left - right) < 1e-6

    def test_pairing_bound(self):
        g, f = resolvent(1.0), cayley_pow(2)
        val = abs(pairing(g, f, CFG).value)
        assert val <= e0_norm(g, CFG).value * b0_norm(f, CFG).value + 1e-6

    def test_uncertified_weight_floors_the_error(self):
        # exp(-1/(z+1)) has no closed-form e0_upper, so its weight 1.25 e0_norm is not
        # certified and the error is at least a quarter of the value;
        # <g, r_1> = (pi/2) (g(1) - g(inf)) = (pi/2) (e^(-1/2) - 1)
        got = pairing(exp_inv_shift(1.0), resolvent(1.0), CFG)
        assert got.error == 0.25 * abs(got.value)
        assert abs(got.value - 0.5 * math.pi * (math.exp(-0.5) - 1.0)) < 1e-6

    def test_sampled_f_floors_the_error(self):
        # r_1^2 reads its envelopes off samples, so even the closed-form weight of r_1 does
        # not certify the pairing; <r_1, r_1^2> = (pi/2) (r_1(1)^2 - 0) = pi/8
        f = power(resolvent(1.0), 2)
        assert f.profiles.sampled
        got = pairing(resolvent(1.0), f, CFG)
        assert got.error == 0.25 * abs(got.value)
        assert abs(got.value - math.pi / 8.0) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_cayley_weight_is_closed_form(self, n):
        # |chi_n'(z)| <= 2n/|z+1|^2 gives x int |chi_n'(x+iy)| dy <= 2n pi x/(x+1) < 2n pi
        g = cayley_pow(n)
        assert g.profiles.e0_upper == 2.0 * n * math.pi
        rep = e0_norm(g, CFG)
        assert rep.value <= g.profiles.e0_upper + rep.error_bound

    def test_cayley_pairing_is_certified(self):
        # <chi_1, r_1> = (pi/2) (chi_1(1) - chi_1(inf)) = -pi/2, weighted by e0_upper = 2 pi
        got = pairing(cayley_pow(1), resolvent(1.0), CFG)
        assert got.error < 1e-5
        assert abs(got.value + math.pi / 2.0) <= got.error


class TestReproducing:
    def test_exp_at_one(self):
        assert reproduce_residual(exp_decay(1.0), 1.0, CFG) < 1e-5

    def test_const_zero(self):
        assert reproduce_residual(const(3.0), 2.0 + 1.0j, CFG) < 1e-12

    def test_cayley_offaxis(self):
        assert reproduce_residual(cayley_pow(4), 2.0 + 3.0j, CFG) < 1e-5

    def test_boundary_offset_convention(self):
        # z on the imaginary axis is shifted inside by the offset
        assert reproduce_residual(resolvent(1.0), 2.0j, CFG) < 1e-5

    def test_band_function(self):
        assert reproduce_residual(band_function(1.0, 4.0), 0.7 - 1.3j, CFG) < 1e-5

    def test_eta(self):
        assert reproduce_residual(eta(), 0.5 + 1.0j, CFG) < 1e-5


class TestGreenCrossCheck:
    def test_resolvent_pair(self):
        # |r_2(x0 - iy) r_1(x0 + iy)| <= 1/y^2
        got = green_pairing(resolvent(2.0), resolvent(1.0), PowerEnvelope(p=2.0, c=1.0))
        assert abs(got - math.pi / 6.0) < 1e-4

    def test_cayley_pair_after_centering(self):
        # chi^2 - 1 = -4z/(z+1)^2, so |r_1(x0 - iy)| |chi^2 - 1|(x0 + iy) <= 4/y^2
        direct = pairing(resolvent(1.0), cayley_pow(2), CFG).value
        green = green_pairing(resolvent(1.0), cayley_pow(2), PowerEnvelope(p=2.0, c=4.0))
        assert abs(direct - green) < 1e-3


class TestOneDoubleIntegral:
    ZS = np.array([0.5 + 1.0j, 2.0, 1.0 - 3.0j, 5.0 + 2.0j])

    @pytest.mark.parametrize(
        "f", [exp_decay(1.0), cayley_pow(4), band_function(1.0, 4.0)], ids=["exp", "cayley4", "band"]
    )
    def test_calculus_diagonal_is_the_pairing(self, f):
        # f(z) - f(inf) = (2/pi) <r_z, f>, once through the calculus on diag(z)
        # and once through the pairing, each within its own reported bound
        rep = apply_calculus_report(MatrixOperator(np.diag(self.ZS)), f)
        for i, z in enumerate(self.ZS):
            p = pairing(resolvent(z), f, CFG)
            gap = abs(rep.value[i, i] - f.infinity() - (2.0 / math.pi) * p.value)
            assert gap <= rep.error + (2.0 / math.pi) * p.error

    @pytest.mark.parametrize(
        "f", [exp_decay(1.0), cayley_pow(4), vitse_reg(1.0)], ids=["exp", "cayley4", "vitse1"]
    )
    def test_batched_residual_matches_single(self, f):
        zs = np.array([0.1 - 10.0j, 0.5 + 1.0j, 2.0, 10.0 + 5.0j, 3.0 - 0.5j, 7.0 + 10.0j])
        batch = reproduce_residual(f, zs, CFG)
        single = [reproduce_residual(f, z, CFG) for z in zs]
        assert all(type(r) is float for r in single)
        assert batch.shape == zs.shape
        assert np.max(np.abs(batch - single)) < 1e-6
        assert np.max(batch) < 1e-5

    def test_empty_z_rejected(self):
        with pytest.raises(InvalidParameter):
            reproduce_residual(exp_decay(1.0), np.array([]), CFG)

    @pytest.mark.parametrize("z", [math.nan, complex(1.0, math.inf)])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(InvalidParameter):
            reproduce_residual(exp_decay(1.0), np.array([2.0, z]), CFG)

    def test_summand_evals_add_up(self):
        f = band_function(1.0, 4.0)
        assert f.summands is not None and len(f.summands) >= 2
        g = resolvent(1.0 + 1.0j)
        whole = pairing(g, f, CFG)
        parts = [pairing(g, s, CFG) for s in f.summands]
        assert whole.n_evals == sum(p.n_evals for p in parts) > 0
        assert whole.value == sum(p.value for p in parts)
        assert whole.tail_error == sum(p.tail_error for p in parts) > 0

    def test_one_integrability_error(self):
        # pairing, the batched residual and the calculus reject a non-integrable
        # outer envelope alike
        base = exp_decay(1.0)
        bad = dataclasses.replace(
            base,
            profiles=dataclasses.replace(base.profiles, deriv_outer=ConstEnvelope(c=1.0)),
        )
        with pytest.raises(IntegralNotNormConvergent):
            pairing(resolvent(1.0), bad, CFG)
        with pytest.raises(IntegralNotNormConvergent):
            reproduce_residual(bad, self.ZS, CFG)
        with pytest.raises(IntegralNotNormConvergent):
            apply_calculus_report(MatrixOperator(np.diag([1.0, 2.0])), bad)


class TestNestedConvergence:
    """The non-strict integrals under pairing, the calculus and the kernel weight report
    when they stop short of their tolerance; a panel budget of 5 stops them."""

    CHECKS = {
        "pairing": lambda: pairing(resolvent(2.0), resolvent(1.0), CFG).converged,
        "apply": lambda: apply_calculus_report(
            MatrixOperator(np.diag([1.0, 2.0])), resolvent(1.0)
        ).certified,
        "e0": lambda: e0_norm(resolvent(1.0), CFG).certified,
        "gamma_hat": lambda: gamma_hat(random_sectorial_operator(3, 1, 0.5))[1],
    }

    @pytest.mark.parametrize("name", CHECKS)
    def test_converged_by_default(self, name):
        assert self.CHECKS[name]() is True

    @pytest.mark.parametrize("name", CHECKS)
    def test_exhausted_panel_budget_is_reported(self, name, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 5)
        assert self.CHECKS[name]() is False


def _cayley_second_derivative(n):
    def f2(w):
        c, c1, c2 = (w - 1) / (w + 1), 2 / (w + 1) ** 2, -4 / (w + 1) ** 3
        return n * (n - 1) * c ** (n - 2) * c1**2 + n * c ** (n - 1) * c2

    return f2


class TestContour:
    """Inner integrals of a kernel with declared poles run on a segment plus two
    horizontal rays; every other kernel stays on the vertical line."""

    # (f, f'') in closed form
    FAMILIES = {
        "exp1": (exp_decay(1.0), lambda w: np.exp(-w)),
        "exp4": (exp_decay(4.0), lambda w: 16.0 * np.exp(-4.0 * w)),
        "resolvent1": (resolvent(1.0), lambda w: 2.0 / (w + 1.0) ** 3),
        "resolvent1+2i": (resolvent(1 + 2j), lambda w: 2.0 / (w + 1 + 2j) ** 3),
        "cayley1": (cayley_pow(1), _cayley_second_derivative(1)),
        "cayley4": (cayley_pow(4), _cayley_second_derivative(4)),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("z", [5.0, 2 - 7j, 0.3 + 2j])
    def test_each_node_within_its_charge(self, family, z):
        # residue at w = 2x + z: int r_z'(x - iy) f'(x + iy) dy = 2 pi f''(2x + z)
        f, f2 = self.FAMILIES[family]
        g = resolvent(z)
        for x in (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0):
            charge = CFG.abs_tol / (1.0 + x) ** 2
            res = duality._inner_integral(g.deriv, g.profiles.pole_radius, None, f, x, charge)
            assert res.converged and res.error <= charge
            assert abs(res.value - 2.0 * math.pi * f2(2.0 * x + z)) <= charge

    def test_contour_agrees_with_line(self):
        # the same kernel r_(1+20i)', once with declared poles and once through shift,
        # which declares none and so keeps the line
        line_g, contour_g = shift(resolvent(1.0), 20j), resolvent(1 + 20j)
        assert line_g.profiles.pole_radius is None
        for f in criterion_03_catalog():
            a, b = pairing(line_g, f, FAST), pairing(contour_g, f, FAST)
            assert abs(a.value - b.value) <= a.error + b.error, f.label

    @pytest.mark.parametrize("tol", [3e-7, 3e-8])
    def test_reported_error_covers_the_reproducing_gap(self, tol):
        # <r_z, f> = (pi/2) (f(z) - f(inf)); at z = 5 the node sum of the line path
        # reported less than the actual error
        cfg = QuadratureConfig(abs_tol=tol, rel_tol=1e-7)
        for z in (5.0, 0.3 + 2j, 2 - 7j, 9 + 0.5j):
            g = resolvent(z)
            for f in criterion_03_catalog():
                p = pairing(g, f, cfg)
                gap = abs(p.value - 0.5 * math.pi * (f(z) - f.infinity()))
                assert gap <= p.error, f"{f.label} at z = {z}"

    def test_pole_radius_rule(self):
        # only resolvent declares it and only scale keeps it: every other combinator
        # moves or hides the poles, or leaves f' without O(|u|^-2) decay
        r = resolvent(3 + 4j)
        assert r.profiles.pole_radius == 5.0
        assert scale(r, 2 - 1j).profiles.pole_radius == 5.0
        others = [
            shift(r, 1.0),
            dilate(r, 2.0),
            power(r, 2),
            add(r, r),
            mul(r, r),
            laplace_transform(HalfLineMeasure(density=("exp", 1.0, 2.0))),
            exp_decay(1.0),
            cayley_pow(2),
            const(1.0),
        ]
        assert [g.label for g in others if g.profiles.pole_radius is not None] == []

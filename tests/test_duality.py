"""Duality pairing and the reproducing identity."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovcalc import duality, quadrature
from besovcalc.cli import run
from besovcalc.duality import pairing, reproduce_residual
from besovcalc.errors import BesovCalcError, IntegralNotNormConvergent, InvalidParameter
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
from besovcalc.quadrature import QuadratureConfig, ShapeEnvelope, integrate_line

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
        # r_1^2 has a pole radius but no closed-form e0_upper, and e_1 no radius, so r_1^2 is
        # the kernel and nothing bounds its outer integrand by f's envelope: the error is at
        # least a quarter of the value; r_1^2 = -d/dz r_z at z = 1, so
        # <r_1^2, e_1> = -(pi/2) e_1'(1) = (pi/2) e^(-1)
        got = pairing(power(resolvent(1.0), 2), exp_decay(1.0), CFG)
        assert got.error == 0.25 * abs(got.value)
        assert abs(got.value - 0.5 * math.pi * math.exp(-1.0)) < 1e-6

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

    def test_kernel_swaps_to_the_argument_with_a_pole_radius(self):
        # exp(-z) declares no pole radius, so <e_1, r_1> = <r_1, e_1> takes r_1' as its kernel
        # and the closed-form weight pi certifies it
        assert exp_decay(1.0).profiles.pole_radius is None
        got = pairing(exp_decay(1.0), resolvent(1.0), CFG)
        assert got.converged and got.error < 1e-6
        assert abs(got.value - 0.5 * math.pi * math.exp(-1.0)) <= got.error

    def test_kernel_is_the_argument_that_certifies(self):
        # exp_inv_shift(1) declares a pole radius but no e0_upper, and r_2 declares both, so
        # either order takes r_2' as its kernel, certified by its closed-form weight pi
        g, f = exp_inv_shift(1.0), resolvent(2.0)
        assert g.profiles.pole_radius is not None and g.profiles.e0_upper is None
        one, other = pairing(g, f, CFG), pairing(f, g, CFG)
        assert abs(one.value - other.value) < 1e-12
        assert one.error < 1e-7 and other.error < 1e-7
        assert abs(one.value - 0.5 * math.pi * (g(2.0) - g.infinity())) <= one.error

    def test_integer_power_pairs_like_the_product(self):
        # (r_1^2)' = 2 r_1 r_1' keeps r_1's pole radius, so r_1^2 is a kernel like r_1 * r_1
        r = resolvent(1.0)
        got = pairing(power(r, 2), eta(), CFG)
        ref = pairing(mul(r, r), eta(), CFG)
        assert abs(got.value - ref.value) < 1e-12
        assert abs(ref.value - 0.4150689770) < 1e-9

    def test_squared_resolvent_pairing_is_certified(self):
        # e0_upper(r_1 * r_1) = 2 pi certifies the pairing; r_1^2 = -d/dz r_z at z = 1, so
        # <r_1^2, eta> = -(pi/2) eta'(1), here from mpmath's derivative of (1 - e^-z)/z
        ref = -0.5 * math.pi * float(mpmath.diff(lambda z: (1 - mpmath.exp(-z)) / z, 1))
        r = resolvent(1.0)
        got = pairing(mul(r, r), eta(), CFG)
        assert got.error < 1e-6
        assert abs(got.value - ref) <= got.error

    def test_cubed_resolvent_pairing_is_certified(self):
        # a product's envelopes hold from its factors' t0 = 0, so r_1 * r_1 keeps
        # sup |r_1^2| = 1 and e0_upper(r_1 r_1 r_1) = 3 pi certifies the pairing;
        # r_1^3 = (1/2) d^2/da^2 r_a at a = 1, so <r_1^3, eta> = (pi/4) eta''(1)
        ref = 0.25 * math.pi * float(mpmath.diff(lambda z: (1 - mpmath.exp(-z)) / z, 1, 2))
        r = resolvent(1.0)
        g = mul(mul(r, r), r)
        assert g.profiles.e0_upper == pytest.approx(3.0 * math.pi, rel=1e-15)
        got = pairing(g, eta(), CFG)
        assert got.error < 1e-6
        assert abs(got.value - ref) <= got.error

    def test_no_pole_radius_on_either_side_is_rejected(self, capsys):
        with pytest.raises(IntegralNotNormConvergent):
            pairing(eta(), eta(), CFG)
        assert run(["pair", "--g", "eta", "--f", "eta"]) == 1
        assert "pole radius" in capsys.readouterr().err


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
        got = green_pairing(resolvent(2.0), resolvent(1.0), ShapeEnvelope(c=1.0, p=2.0))
        assert abs(got - math.pi / 6.0) < 1e-4

    def test_cayley_pair_after_centering(self):
        # chi^2 - 1 = -4z/(z+1)^2, so |r_1(x0 - iy)| |chi^2 - 1|(x0 + iy) <= 4/y^2
        direct = pairing(resolvent(1.0), cayley_pow(2), CFG).value
        green = green_pairing(resolvent(1.0), cayley_pow(2), ShapeEnvelope(c=4.0, p=2.0))
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

    def test_summand_evals_add_up(self, monkeypatch):
        """A sum pairs in one outer run, with f' taken whole on the contour: n_evals is the
        sum of the inner runs' points, and the charge is one abs_tol/(p(p-1)), not one per
        summand."""
        f = band_function(1.0, 4.0)
        outer_runs, inner_evals = [], []
        interval = duality.integrate_interval

        def counted_interval(g, a, b, *args, **kwargs):
            res = interval(g, a, b, *args, **kwargs)
            if (a, b) == (0.0, 1.0):
                outer_runs.append(res.n_evals)
            else:
                inner_evals.append(res.n_evals)
            return res

        # the outer run is duality's, and the inner runs are `integrate_contour`'s
        monkeypatch.setattr(duality, "integrate_interval", counted_interval)
        monkeypatch.setattr(quadrature, "integrate_interval", counted_interval)
        z = 1.0 + 1.0j
        whole = pairing(resolvent(z), f, CFG)
        assert len(outer_runs) == 1 and len(inner_evals) == outer_runs[0]
        assert whole.n_evals == sum(inner_evals)
        assert abs(whole.value - 0.5 * math.pi * (f(z) - f.infinity())) <= whole.error
        assert whole.error < 1e-8

    def test_one_integrability_error(self):
        # pairing, the batched residual and the calculus reject a non-integrable
        # outer envelope alike
        base = exp_decay(1.0)
        bad = dataclasses.replace(
            base,
            profiles=dataclasses.replace(base.profiles, deriv_outer=ShapeEnvelope(c=1.0)),
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
    """Every inner integral runs on a segment plus two horizontal rays, placed by the
    kernel's pole radius."""

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
            res = duality._inner_integral(g.deriv, g.profiles.pole_radius, f, x, charge)
            assert res.converged and res.error <= charge
            assert abs(res.value - 2.0 * math.pi * f2(2.0 * x + z)) <= charge

    def test_contour_does_not_depend_on_the_radius(self):
        # the same kernel r_(1+20i)', declared through shift with R = 1 + 20 and directly
        # with R = |1 + 20i|, which places the contour's segment and rays differently
        shifted, direct = shift(resolvent(1.0), 20j), resolvent(1 + 20j)
        assert shifted.profiles.pole_radius == 21.0
        assert direct.profiles.pole_radius == pytest.approx(20.025, abs=1e-3)
        for f in criterion_03_catalog():
            a, b = pairing(shifted, f, FAST), pairing(direct, f, FAST)
            assert abs(a.value - b.value) <= a.error + b.error, f.label
            assert abs(a.value - b.value) < 1e-12, f.label

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
        # every singularity of f' in |u| <= R and f' = O(|u|^-2): the catalog's rational and
        # inverse-exponential members declare R, the combinators carry it, integer powers
        # >= 1 included, and functions built on exp(-tau z) or z^alpha, and every other
        # power, declare none
        r = resolvent(3 + 4j)
        assert r.profiles.pole_radius == 5.0
        declared = {
            "const": (const(1.0), 0.0),
            "cayley": (cayley_pow(2), 1.0),
            "expinv": (exp_inv_shift(2.0), 1.0),
            "vitse": (vitse_reg(2.0), 1.0),
            "scale": (scale(r, 2 - 1j), 5.0),
            "shift": (shift(r, 3 + 4j), 10.0),
            "dilate": (dilate(r, 2.0), 2.5),
            "add": (add(r, resolvent(1.0)), 5.0),
            "mul": (mul(cayley_pow(1), r), 5.0),
            "square": (power(r, 2), 5.0),
            "first power": (power(r, 1), 5.0),
            "laplace": (laplace_transform(HalfLineMeasure(density=("exp", 1.0, 2.0))), 2.0),
        }
        for name, (g, radius) in declared.items():
            assert g.profiles.pole_radius == radius, name
        away_from_zero = add(r, const(1.0))
        others = [
            power(away_from_zero, -1),
            power(away_from_zero, 0.5),
            power(r, 2.5),
            add(r, exp_decay(1.0)),
            mul(eta(), r),
            laplace_transform(HalfLineMeasure(atoms=((1.0, 1.0),), density=("exp", 1.0, 2.0))),
            exp_decay(1.0),
            eta(),
            band_function(1.0, 4.0),
            bernstein_resolvent(BernsteinFunction(b=1.0), 0.5, 2.0, math.pi / 4, 1.0),
        ]
        assert [g.label for g in others if g.profiles.pole_radius is not None] == []


def _radius_carrying(a: complex, b: float):
    """The constructions that declare a pole radius, with shift a and dilation b."""
    r1 = resolvent(1.0)
    return [
        cayley_pow(2),
        exp_inv_shift(1.0),
        vitse_reg(1.0),
        shift(r1, a),
        dilate(r1, b),
        shift(dilate(cayley_pow(1), b), a),
        dilate(shift(exp_inv_shift(1.0), a), b),
        add(shift(r1, a), resolvent(2.0 + 1.0j)),
        mul(dilate(r1, b), resolvent(2.0)),
        scale(vitse_reg(2.0), 1.5 - 0.5j),
        const(2.0),
        laplace_transform(HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0))),
    ]


SHIFTS = st.complex_numbers(max_magnitude=3.0).map(lambda a: complex(abs(a.real), a.imag))
DILATIONS = st.floats(0.25, 4.0)


class TestDualClass:
    """Every function that declares e0_upper also declares a pole radius, and every pairing
    with one of them as its kernel runs on the contour."""

    @settings(max_examples=8, deadline=None)
    @given(a=SHIFTS, b=DILATIONS)
    def test_symmetric_reproducing_identity(self, a, b):
        # <g, r_z> = <r_z, g> = (pi/2) (g(z) - g(inf)), to rounding on the contour
        for g in _radius_carrying(a, b):
            for z in (5.0, 0.3 + 2j):
                p = pairing(g, resolvent(z), CFG)
                gap = abs(p.value - 0.5 * math.pi * (g(z) - g.infinity()))
                assert gap <= p.error and gap < 1e-12, f"{g.label} at z = {z}"

    @settings(max_examples=20, deadline=None)
    @given(a=SHIFTS, b=DILATIONS)
    def test_e0_upper_implies_a_pole_radius(self, a, b):
        for g in _radius_carrying(a, b) + criterion_03_catalog():
            assert g.profiles.e0_upper is None or g.profiles.pole_radius is not None, g.label

    def test_no_line_integral(self, monkeypatch):
        calls = []
        line = quadrature.integrate_line

        def counted(*args, **kwargs):
            calls.append(1)
            return line(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_line", counted)
        assert not hasattr(duality, "integrate_line")
        for g in _radius_carrying(1.0 + 2.0j, 0.5):
            pairing(g, resolvent(0.3 + 2j), FAST)
            pairing(exp_decay(1.0), g, FAST)
        assert calls == []


class TestMappedOuter:
    """The outer integral runs on x = S ((1-u)^-k - 1) over u in [0, 1), with k matched to
    f's outer envelope: no cutoff, and so no tail left out of the value."""

    def test_reproducing_residual_has_no_tail_bias(self):
        # a cutoff at the envelope's tail left out (2/pi) abs_tol/2 = 9.54e-9 here
        for f in criterion_03_catalog():
            assert reproduce_residual(f, 5.0, FAST) < 1e-9, f.label

    @pytest.mark.parametrize("alpha_beta", [0.1, 0.3, 0.6])
    def test_slow_power_decay(self, alpha_beta):
        # f' decays like x^-(1 + alpha beta); <r_z, f> = (pi/2) (f(z) - f(inf))
        f = bernstein_resolvent(BernsteinFunction(b=1.0), alpha_beta / 2.0, 2.0, math.pi / 4, 1.0)
        assert f.profiles.deriv_outer.p == pytest.approx(1.0 + alpha_beta)
        z = 2.0 + 1.0j
        got = pairing(resolvent(z), f, CFG)
        assert got.converged and got.error < 1e-6
        assert abs(got.value - 0.5 * math.pi * (f(z) - f.infinity())) <= got.error

    @pytest.mark.parametrize("alpha", [0.5, 0.1, 0.05])
    def test_stretched_exponential_decay(self, alpha):
        # f' has the envelope t^(alpha-1) exp(-rho t^alpha), which maps as the power 1 + alpha;
        # mapped as power 2, its tail lay beyond the floats near u = 1, and alpha = 0.1 took
        # 1.55M inner points
        fb = BernsteinFunction(jumps=((1.0, 1.0),))
        f = bernstein_resolvent(fb, alpha, 1.0 / alpha, math.pi / 4, 1.0)
        z = 2.0 + 1.0j
        got = pairing(resolvent(z), f, CFG)
        assert got.converged and got.n_evals < 100_000
        assert abs(got.value - 0.5 * math.pi * (f(z) - f.infinity())) <= got.error

    def test_too_slow_decay_raises(self):
        # at x^-1.01 the map's (1-u)^-100 leaves the floats at the first panel's last node
        f = bernstein_resolvent(BernsteinFunction(b=1.0), 0.005, 2.0, math.pi / 4, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BesovCalcError):
                pairing(resolvent(2.0 + 1.0j), f, CFG)

    @pytest.mark.parametrize("z", [9.5259 + 5.8434j, 3.3696 - 3.9752j, 5.0])
    def test_exponential_summand_at_the_rounding_floor(self, z):
        # with the outer run at the config's own tolerances, the inner integrals of
        # exp(-4w) taken on size, and S = 1 + |z|, these read 8.2e-10, 3.1e-10 and 4.9e-11
        assert reproduce_residual(band_function(1.0, 4.0), z, FAST) < 1e-14

    def test_outer_margin_within_its_panels(self, monkeypatch):
        # inner values whose noise lies above the outer run's margin stop it at
        # _OUTER_PANELS panels, not at the engine's budget of 40,000; each split evaluates
        # both halves, so 256 panels cost at most 511 panel evaluations
        inner, xs = duality._inner_integral, []

        def noisy(kernel, pole_radius, f, x, tol):
            xs.append(x)
            res = inner(kernel, pole_radius, f, x, tol)
            return dataclasses.replace(res, value=res.value + 1e-6 * math.sin(1e4 * x) / (1 + x) ** 3)

        monkeypatch.setattr(duality, "_inner_integral", noisy)
        got = pairing(resolvent(2.0), resolvent(1.0), FAST)
        assert 15 * duality._OUTER_PANELS < len(xs) <= 15 * (2 * duality._OUTER_PANELS - 1)
        assert abs(got.value - math.pi / 6.0) <= got.error

    def test_no_cutoff_search(self):
        # no pairing or calculus run can truncate an integral: no envelope has a cutoff or a tail
        classes = [quadrature.DecayEnvelope]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        assert [c.__name__ for c in classes] == ["DecayEnvelope", "ShapeEnvelope", "SumEnvelope"]
        assert not [c.__name__ for c in classes if hasattr(c, "cutoff") or hasattr(c, "tail")]

"""Function catalog tests: evaluation, differentiation, algebra, parsing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from besovcalc.errors import (
    InvalidParameter,
    NonConvergence,
    RangeViolation,
    UnknownSpec,
)
from besovcalc.functions import (
    AnalyticFunction,
    BernsteinFunction,
    HalfLineMeasure,
    _global_modulus_bound,
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
    parse_complex,
    parse_function_spec,
    power,
    reciprocal,
    resolvent,
    scale,
    shift,
    vitse_reg,
)
from besovcalc.operators import jordan_operator, oracle_apply
from besovcalc.quadrature import QuadratureConfig

CFG = QuadratureConfig()


class TestCatalogValues:
    def test_exp(self):
        f = parse_function_spec("exp(a=1)")
        assert complex(f(1.0)) == pytest.approx(math.exp(-1.0))
        assert f.value_at_infinity == 0.0

    def test_cayley(self):
        f = parse_function_spec("cayley(n=1)")
        assert complex(f(1.0)) == 0.0
        assert f.value_at_infinity == 1.0

    def test_eta_limits(self):
        f = parse_function_spec("eta")
        assert abs(complex(f(1e-9)) - 1.0) < 1e-8
        assert abs(complex(f(4096.0))) < 1e-3
        assert f.value_at_infinity == 0.0
        # series and closed form agree near the switch radius
        z = 0.2499 + 0.001j
        series = complex(f(z))
        direct = (1.0 - np.exp(-z)) / z
        assert series == pytest.approx(direct, abs=1e-14)

    def test_resolvent_complex(self):
        f = parse_function_spec("resolvent(a=1+2i)")
        assert complex(f(1.0)) == pytest.approx(1.0 / (2.0 + 2.0j))

    def test_chi_as_laplace(self):
        f = parse_function_spec("laplace(atoms=[(0,1)];density=-2*exp)")
        zs = np.array([1.0, 2.0 + 1.0j, 0.3])
        assert np.allclose(f(zs), (zs - 1.0) / (zs + 1.0))
        assert complex(f.value_at_infinity) == 1.0

    def test_lebesgue_density_matches_eta(self):
        f = parse_function_spec("laplace(atoms=[];density=lebesgue(0,1))")
        g = eta()
        zs = np.array([0.5, 2.0 + 3.0j, 1e-6])
        assert np.allclose(f(zs), g(zs))
        assert np.allclose(f.deriv(zs), g.deriv(zs))

    def test_band(self):
        f = parse_function_spec("band(eps=1,sigma=4)")
        assert complex(f(1.0)) == pytest.approx(math.exp(-1.0) - math.exp(-4.0))

    def test_expinv_vitse(self):
        assert complex(parse_function_spec("expinv(t=2)")(1.0)) == pytest.approx(
            math.exp(-1.0)
        )
        ft = parse_function_spec("vitse(t=10)")
        z = 2.0
        assert complex(ft(z)) == pytest.approx((2.0 / 3.0) ** 2 * math.exp(-5.0))

    def test_bernstein_linear_is_resolvent(self):
        f = parse_function_spec("bernstein_res(b=1,alpha=0.5,beta=2,theta=0.785,lambda=1)")
        zs = np.array([1.0, 2.0 + 1.0j])
        assert np.allclose(f(zs), 1.0 / (1.0 + zs))

    def test_invalid_parameters(self):
        with pytest.raises(UnknownSpec):
            parse_function_spec("mystery(1)")
        with pytest.raises(InvalidParameter):
            parse_function_spec("band(eps=4,sigma=1)")
        with pytest.raises(InvalidParameter):
            parse_function_spec("cayley(n=0)")
        with pytest.raises(InvalidParameter):
            parse_function_spec("resolvent(a=-1)")
        with pytest.raises(InvalidParameter):
            parse_function_spec("expinv(t=-1)")

    def test_parse_complex(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("-3i") == -3j
        assert parse_complex("2.5e-3") == 2.5e-3
        assert parse_complex("i") == 1j


def _circle_deriv(f, z):
    """f'(z) as the (0, 1) entry of the oracle's f(J) on the 2x2 Jordan block at z,
    which the oracle takes by a trapezoid-rule circle integral."""
    return oracle_apply(jordan_operator(z, 2), f, CFG)[0, 1]


class TestDerivatives:
    def test_fallback_exp(self):
        f = exp_decay(1.0)
        assert _circle_deriv(f, 1.0) == pytest.approx(-math.exp(-1.0), abs=1e-10)

    def test_fallback_resolvent(self):
        f = resolvent(1.0)
        assert _circle_deriv(f, 1.0) == pytest.approx(-0.25, abs=1e-10)

    def test_fallback_cayley_closed_form(self):
        # closed form for the derivative: 2n (z-1)^(n-1) / (z+1)^(n+1)
        n, z = 3, 2.0 + 1.0j
        exact = 2 * n * (z - 1.0) ** (n - 1) / (z + 1.0) ** (n + 1)
        f = cayley_pow(n)
        assert abs(_circle_deriv(f, z) - exact) < 1e-8

    def test_fallback_nonconvergence(self):
        nan = replace(exp_decay(1.0), eval_fn=lambda z: np.full(np.shape(z), np.nan))
        with pytest.raises(NonConvergence, match="non-finite"):
            _circle_deriv(nan, 1.0)
        # left_bound 0 gives the circle radius 1/2, through the essential singularity at 1/2
        bad = replace(
            exp_decay(1.0),
            eval_fn=lambda z: np.exp(1.0 / (np.asarray(z) - 0.5)),
            left_bound=0.0,
        )
        with pytest.raises(NonConvergence, match="did not settle"):
            _circle_deriv(bad, 1.0)

    def test_analytic_matches_fallback_on_catalog(self):
        rng = np.random.default_rng(11)
        for f in [exp_decay(0.7), resolvent(1 + 1j), cayley_pow(4), eta(), vitse_reg(2.0)]:
            for _ in range(3):
                z = complex(rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0))
                direct = complex(f.deriv(z))
                circle = _circle_deriv(f, z)
                assert abs(direct - circle) <= 10 * CFG.rel_tol * (1 + abs(direct))

    @pytest.mark.parametrize("z", [1.0, 0.5 + 2.0j, 3.0 - 1.0j])
    @pytest.mark.parametrize("f", [exp_decay(1.0), resolvent(1 + 2j), cayley_pow(2)])
    def test_direct_sums_match_fft(self, f, z):
        """The oracle's direct trapezoid sums on the 4x4 Jordan block at z hold
        f^(j)(z)/j! on the j-th superdiagonal.  At orders 1..3 they match the closed
        forms, and the FFT of f's samples on the circle of radius Re z / 2."""
        z, js = complex(z), np.arange(1, 4)
        fact = np.array([math.factorial(j) for j in js])

        def fft_derivatives():
            r, prev, n = 0.5 * z.real, None, 64
            while True:
                theta = 2.0 * np.pi * np.arange(n) / n
                coeffs = np.fft.fft(f.eval_fn(z + r * np.exp(1j * theta))) / n
                ders = coeffs[js] * fact / r**js
                if prev is not None:
                    ref = np.maximum(np.abs(ders), 1e-300)
                    if np.all(np.abs(ders - prev) <= CFG.rel_tol * ref + CFG.abs_tol):
                        return ders
                prev, n = ders, 2 * n

        # e^(-z), 1/(a+z), and ((z-1)/(z+1))^2 = 1 - 4/(z+1) + 4/(z+1)^2
        w = z + 1.0
        exact = {
            "exp(a=1)": (-1.0) ** js * np.exp(-z),
            "resolvent(a=(1+2j))": (-1.0) ** js * fact / (1 + 2j + z) ** (js + 1),
            "cayley(n=2)": (-1.0) ** js * fact * (4.0 * (js + 1) / w - 4.0) / w ** (js + 1),
        }[f.label]
        got = oracle_apply(jordan_operator(z, 4), f, CFG)[0, js] * fact
        # |f| <= 1 on the half-plane, so j!/r^j bounds f^(j): the floor for a
        # derivative that vanishes (cayley_pow(2)' at z = 1)
        floor = 1e-15 * fact / (0.5 * z.real) ** js
        assert np.all(np.abs(got - exact) <= 1e-13 * np.abs(exact) + floor), (got, exact)
        ref = fft_derivatives()
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + floor), (got, ref)

    def test_deriv_fn_is_required(self):
        with pytest.raises(InvalidParameter, match="deriv_fn"):
            replace(exp_decay(1.0), deriv_fn=None)
        with pytest.raises(InvalidParameter, match="deriv_fn"):
            AnalyticFunction(
                eval_fn=np.exp, deriv_fn=None, profiles=exp_decay(1.0).profiles
            )


class TestAlgebra:
    def test_shift_exact(self):
        f = shift(exp_decay(1.0), 1.0)
        assert complex(f(1.0)) == math.exp(-2.0)

    def test_dilate_exact(self):
        f = dilate(eta(), 0.5)
        assert complex(f(2.0)) == complex(eta()(1.0))

    def test_shift_dilate_composition(self):
        f = resolvent(1.0)
        g = shift(dilate(f, 2.0), 0.5)
        z = 1.3 + 0.7j
        assert complex(g(z)) == complex(f(2.0 * (z + 0.5)))

    def test_mul_value(self):
        g = mul(resolvent(1.0), resolvent(1.0))
        assert complex(g(1.0)) == pytest.approx(0.25)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("f", [eta(), band_function(1.0, 4.0)], ids=["eta", "band"])
    def test_real_shift_keeps_the_line_envelope(self, f, x):
        # a real shift moves no symmetry center, so f(. + a) on Re = x is f on Re = x + a
        g, a = shift(f, 0.5), 0.5
        assert g.profiles.deriv_line(x) == f.profiles.deriv_line(x + a)
        assert g.profiles.modulus_line(x) == f.profiles.modulus_line(x + a)

    @pytest.mark.parametrize(
        "f,g", [(resolvent(1.0), resolvent(1.0)), (const(2.0), resolvent(1.0))],
        ids=["r1*r1", "2*r1"],
    )
    def test_mul_keeps_e0_upper_of_resolvent_factors(self, f, g):
        # sup |r_1| = 1 on the half-plane: e0(fg) <= e0(f) sup|g| + e0(g) sup|f| = 2 pi
        assert mul(f, g).profiles.e0_upper == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_resolvent_modulus_bound(self):
        assert _global_modulus_bound(resolvent(2.0 + 3.0j)) == 0.5
        # a pole on iR leaves |r_a| unbounded
        assert _global_modulus_bound(resolvent(3.0j)) is None

    def test_product_rule_random_points(self):
        rng = np.random.default_rng(5)
        f, g = cayley_pow(2), resolvent(1 + 1j)
        h = mul(f, g)
        zs = rng.uniform(0.1, 10.0, 100) + 1j * rng.uniform(-10.0, 10.0, 100)
        lhs = h.deriv(zs)
        rhs = f.deriv(zs) * g(zs) + f(zs) * g.deriv(zs)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-9

    def test_infinity_propagation(self):
        s = add(cayley_pow(1), const(2.0))
        assert s.value_at_infinity == 3.0
        p = mul(cayley_pow(1), cayley_pow(2))
        assert p.value_at_infinity == 1.0
        assert scale(cayley_pow(1), 2.0).value_at_infinity == 2.0

    def test_reciprocal(self):
        f = add(const(2.0), resolvent(1.0))
        r = reciprocal(f)
        assert complex(r(1.0)) == pytest.approx(1.0 / 2.5)
        with pytest.raises(RangeViolation):
            reciprocal(cayley_pow(1))

    def test_power(self):
        f = add(const(2.0), resolvent(1.0))
        p = power(f, 0.5)
        assert complex(p(1.0)) == pytest.approx(math.sqrt(2.5))
        # chain rule
        z = 1.0 + 0.3j
        expect = 0.5 * complex(f(z)) ** (-0.5) * complex(f.deriv(z))
        assert complex(p.deriv(z)) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, 0.5])
    def test_power_counts_the_value_at_infinity(self, beta):
        # |r_1| -> 0 at infinity: r_1**-1 = z + 1 is unbounded, and r_1**0.5 has no
        # derivative bound m**(beta-1) with m > 0
        with pytest.raises(RangeViolation, match="needs \\|f\\| >= m > 0"):
            power(resolvent(1.0), beta)

    def test_integer_power_needs_no_slit_plane(self):
        # the range of cayley(n=1) is the unit disc, across the negative axis
        zs = np.array([0.01 + 0.0j, 0.3 - 2.0j, 1.0 + 0.5j, 5.0 + 40.0j])
        with pytest.raises(RangeViolation, match="slit plane"):
            power(cayley_pow(1), 0.5)
        p, c = power(cayley_pow(1), 2), cayley_pow(2)
        assert np.allclose(p(zs), c(zs), rtol=1e-15, atol=1e-15)
        assert np.allclose(p.deriv(zs), c.deriv(zs), rtol=1e-14, atol=1e-15)
        assert p.value_at_infinity == c.value_at_infinity == 1.0

    def test_reciprocal_is_the_power_minus_one(self):
        f = add(const(2.0), resolvent(1.0 + 1.0j))
        r = reciprocal(f)
        rng = np.random.default_rng(7)
        zs = rng.uniform(1e-3, 1e3, 200) + 1j * rng.uniform(-60.0, 60.0, 200)
        assert np.array_equal(r(zs), 1.0 / f(zs))
        assert np.allclose(r.deriv(zs), -f.deriv(zs) / f(zs) ** 2, rtol=1e-15, atol=0.0)
        assert r.label == f"(1/{f.label})"
        assert r.value_at_infinity == 0.5 and r.profiles.sampled

    def test_summands_sum_exactly(self):
        coeffs = [(1.0, 1.0), (2.0, 0.5), (4.0, -1.0)]
        f = band_function(1.0, 4.0, coeffs)
        zs = np.array([0.5, 1.0 + 2.0j])
        expect = sum(c * np.exp(-t * zs) for t, c in coeffs)
        assert np.allclose(f(zs), expect, atol=1e-15)


class TestLaplaceTransform:
    # 0.1 lies inside the series radius |w z| < 0.25 of both lebesgue widths
    ZS = np.array([0.1, 0.7 + 2.0j, 3.0 - 1.5j])

    @pytest.mark.parametrize(
        "density, value, deriv",
        [
            (("exp", -2.0, 1.5), lambda z: -2.0 / (z + 1.5), lambda z: 2.0 / (z + 1.5) ** 2),
            (
                ("lebesgue", 3.0, 0.0, 1.0),
                lambda z: 3.0 * (1.0 - np.exp(-z)) / z,
                lambda z: 3.0 * (np.exp(-z) / z - (1.0 - np.exp(-z)) / z**2),
            ),
            (
                ("lebesgue", 3.0, 0.5, 2.0),
                lambda z: 3.0 * (np.exp(-0.5 * z) - np.exp(-2.0 * z)) / z,
                lambda z: 3.0 * (
                    (-0.5 * np.exp(-0.5 * z) + 2.0 * np.exp(-2.0 * z)) / z
                    - (np.exp(-0.5 * z) - np.exp(-2.0 * z)) / z**2
                ),
            ),
        ],
    )
    def test_density_closed_forms(self, density, value, deriv):
        f = laplace_transform(HalfLineMeasure(density=density))
        assert np.allclose(f(self.ZS), value(self.ZS), rtol=1e-12, atol=0)
        assert np.allclose(f.deriv(self.ZS), deriv(self.ZS), rtol=1e-10, atol=0)

    def test_empty_measure_is_zero(self):
        f = laplace_transform(HalfLineMeasure())
        assert np.all(f(self.ZS) == 0) and np.all(f.deriv(self.ZS) == 0)
        assert f.value_at_infinity == 0 and f.profiles.e0_upper == 0.0

    def test_window_resolves_the_beat_of_nearby_rates(self):
        f = laplace_transform(HalfLineMeasure(atoms=((1.0, 1.0), (1.1, -1.0))))
        assert f.profiles.window == pytest.approx(6.0 * math.pi / 0.1, rel=1e-12)

    def test_global_modulus_bound_is_total_variation(self):
        mu = HalfLineMeasure(atoms=((0.0, 1.0), (2.0, -0.5j)), density=("lebesgue", -3.0, 1.0, 2.0))
        assert _global_modulus_bound(laplace_transform(mu)) == mu.total_variation() == 4.5


NAN, INF = math.nan, math.inf


class TestNonFiniteParameters:
    """A NaN or infinite parameter is rejected where the function is built, so no
    norm, pairing or calculus reports a NaN or a wrong certified number."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: const(NAN),
            lambda: const(INF),
            lambda: eta(NAN),
            lambda: exp_inv_shift(NAN),
            lambda: exp_inv_shift(INF),
            lambda: vitse_reg(NAN),
            lambda: scale(exp_decay(1.0), NAN),
            lambda: shift(exp_decay(1.0), NAN),
            lambda: shift(exp_decay(1.0), INF),
            lambda: dilate(exp_decay(1.0), NAN),
            lambda: power(add(resolvent(1.0), const(1.0)), NAN),
            lambda: band_function(1.0, INF, [(1.0, 1.0)]),
            lambda: laplace_transform(HalfLineMeasure(atoms=((1.0, NAN),))),
            lambda: laplace_transform(HalfLineMeasure(density=("exp", 1.0, INF))),
            lambda: bernstein_resolvent(BernsteinFunction(b=1.0), 0.5, 2.0, math.pi / 4, NAN),
            lambda: BernsteinFunction(a=NAN, b=1.0),
        ],
        ids=[
            "const-nan", "const-inf", "eta", "exp_inv_shift-nan", "exp_inv_shift-inf",
            "vitse_reg", "scale", "shift-nan", "shift-inf", "dilate", "power", "band",
            "laplace-weight", "laplace-rate", "bernstein_resolvent-lam", "bernstein-a",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(InvalidParameter, match="finite"):
            build()


class TestInvariantsAndFlags:
    def test_band_modulus_decay(self):
        # |f(x+iy)| <= exp(-eps x) * boundary sup for band functions
        f = band_function(1.0, 4.0)
        boundary = float(np.max(np.abs(f(1e-6 + 1j * np.linspace(-40, 40, 4001)))))
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        ys = np.linspace(-20, 20, 41)
        vals = np.abs(f(xs[:, None] + 1j * ys[None, :]))
        bound = np.exp(-1.0 * xs)[:, None] * boundary
        assert np.all(vals <= bound * (1.0 + 1e-6))

    def test_infinity_monotone_approach(self):
        for f in [exp_decay(1.0), resolvent(2.0), cayley_pow(3), eta(), exp_inv_shift(1.0)]:
            fi = complex(f.value_at_infinity)
            gaps = [abs(complex(f(2.0**k)) - fi) for k in range(4, 13)]
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_measure_total_variation(self):
        mu = HalfLineMeasure(
            atoms=((0.0, 1.0), (1.0, -2.0)), density=("exp", 0.5, 2.0)
        )
        assert mu.total_variation() == pytest.approx(1.0 + 2.0 + 0.25)
        with pytest.raises(InvalidParameter):
            HalfLineMeasure(atoms=((-1.0, 1.0),))
        # a bounded measure: coeff * dt needs a finite end
        with pytest.raises(InvalidParameter, match="b < inf"):
            HalfLineMeasure(density=("lebesgue", 1.0, 0.0, math.inf))

    def test_bernstein_monotonicity(self):
        fb = BernsteinFunction(a=0.1, b=0.5, jumps=((1.0, 2.0),))
        fb.validate_monotone()
        xs = np.geomspace(0.01, 100, 50)
        vals = fb(xs).real
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) >= -1e-12)
        with pytest.raises(InvalidParameter):
            BernsteinFunction(a=-1.0)

    def test_eta_dilated_spec(self):
        f = parse_function_spec("eta(delta=0.5)")
        assert complex(f(2.0)) == pytest.approx(complex(eta()(1.0)))

    def test_infinity_needs_a_declared_value(self):
        # no estimate from far samples: it would carry an error nothing charges
        f = replace(resolvent(1.0), value_at_infinity=None)
        with pytest.raises(InvalidParameter, match="declares no value at infinity"):
            f.infinity()

    def test_left_bound_tracking(self):
        assert resolvent(2.0).left_bound == 2.0
        assert shift(resolvent(2.0), 1.0).left_bound == 3.0
        assert dilate(resolvent(2.0), 2.0).left_bound == 1.0

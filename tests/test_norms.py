"""Norm computations against exact values and the structural inequalities."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from besovcalc import norms
from besovcalc.applications import (
    check_deriv_operator,
    check_fractional_smoothing,
    check_smoothed_window,
)
from besovcalc.errors import (
    DepthExceeded,
    DivergenceSuspicion,
    InvalidParameter,
    RangeViolation,
    UnboundedSuspicion,
)
from besovcalc.estimates import (
    check_deriv_bound,
    check_exp_window,
    check_product_bound,
    exact_expinv_norm,
)
from besovcalc.functions import (
    AnalyticFunction,
    BernsteinFunction,
    Profiles,
    add,
    band_function,
    bernstein_resolvent,
    cayley_pow,
    const,
    dilate,
    eta,
    exp_decay,
    exp_inv_shift,
    mul,
    parse_function_spec,
    power,
    reciprocal,
    resolvent,
    scale,
    shift,
    vitse_reg,
)
from besovcalc.norms import (
    BOUNDARY_OFFSET,
    b0_norm,
    b_norm,
    e0_norm,
    fitted_slope,
    hinf_norm,
    left_line_sup,
    line_sup,
)
from besovcalc.operators import apply_calculus_report, parse_operator_spec, semigroup
from besovcalc.quadrature import (
    QuadratureConfig,
    ShapeEnvelope,
    line_weight,
)

CFG = QuadratureConfig()


def _weight_at(f, x):
    """x * integral over y of |f'(x+iy)|, the line weight that e0_norm maximises."""
    return float(line_weight(lambda w: np.abs(f.deriv(w)), f.profiles.deriv_line(x), x, CFG)[0])


class TestHinf:
    @pytest.mark.parametrize(
        "f,expect",
        [(exp_decay(1.0), 1.0), (cayley_pow(4), 1.0), (resolvent(1.0), 1.0)],
        ids=["exp", "cayley", "resolvent"],
    )
    def test_values(self, f, expect):
        rep = hinf_norm(f, CFG)
        assert rep.value == pytest.approx(expect, abs=1e-4)
        assert rep.value <= expect + 1e-12

    @pytest.mark.parametrize(
        "f",
        [exp_decay(1.0), cayley_pow(3), resolvent(1.0 + 2.0j), eta()],
        ids=["exp", "cayley", "resolvent", "eta"],
    )
    def test_dominates_boundary_line_sup(self, f):
        # the sup norm is the boundary-line supremum plus the interior cross-check
        rep = hinf_norm(f, CFG)
        assert rep.value >= line_sup(f, BOUNDARY_OFFSET).value[0]
        assert rep.certified

    def test_interior_consistency(self):
        rep = hinf_norm(eta(), CFG)
        zs = 0.3 + 1j * np.linspace(-5, 5, 31)
        assert rep.value >= float(np.max(np.abs(eta()(zs)))) - 1e-12

    def test_unbounded_suspicion(self):
        # an interior pole must be caught by the cross-check
        bad = replace(
            resolvent(1.0),
            eval_fn=lambda z: 1.0 / (1.5 - np.asarray(z, dtype=complex)),
            value_at_infinity=None,
        )
        with pytest.raises(UnboundedSuspicion):
            hinf_norm(bad, CFG)

    def test_non_finite_values_raise(self):
        """A hand-built function that evaluates to NaN has no norm to report."""
        env = ShapeEnvelope(c=1.0)
        bad = AnalyticFunction(
            eval_fn=lambda z: np.full(np.shape(z), np.nan, dtype=complex),
            deriv_fn=lambda z: np.zeros(np.shape(z), dtype=complex),
            profiles=Profiles(
                deriv_line=lambda x: env,
                modulus_line=lambda x: env,
                deriv_outer=env,
                modulus_outer=env,
            ),
            value_at_infinity=None,
            label="nan",
        )
        with pytest.raises(DepthExceeded):
            hinf_norm(bad, CFG)


class TestB0AndB:
    def test_b0_exponential_closed_form(self):
        # oracle: sup_y |f'| = a exp(-a x), integral = 1 for every a > 0
        rep = b0_norm(exp_decay(2.0), CFG)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_b0_const_zero(self):
        assert b0_norm(const(5.0), CFG).value == 0.0

    @pytest.mark.parametrize(
        "f,expect",
        [
            (exp_decay(1.0), 2.0),
            (resolvent(1 + 2j), 2.0),
            (cayley_pow(1), 3.0),
            (eta(), 2.0),
            # shifting e_1 right by 1 multiplies it by e^(-1): the shift is a
            # strict contraction here, while dilation preserves the norm
            (shift(exp_decay(1.0), 1.0), 2.0 * math.exp(-1.0)),
            (dilate(exp_decay(1.0), 3.0), 2.0),
        ],
        ids=["e1", "r_1+2i", "chi", "eta", "shifted_e1", "dilated_e1"],
    )
    def test_exact_values(self, f, expect):
        assert b_norm(f, CFG).value == pytest.approx(expect, abs=1e-3)

    def test_expinv_exact_formula(self):
        assert b_norm(exp_inv_shift(1.0), CFG).value == pytest.approx(
            2.0 - math.exp(-1.0), abs=1e-4
        )

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0, 100.0])
    def test_expinv_without_tail_bias(self, t):
        # the outer integral runs on a map of [0, 1) with no cutoff, so no tail of the
        # envelope (1e-8 here) is left out; for t > 1, sup_y |f'| jumps in its second
        # derivative at x = t - 1, and the rule stops at the config's tolerance there
        rep = b_norm(exp_inv_shift(t), CFG)
        gap = abs(rep.value - exact_expinv_norm(t))
        assert gap <= rep.error_bound
        assert gap < (1e-12 if t <= 1.0 else 1e-8)

    def test_b0_scale_of_a_fast_exponential(self):
        # sup_y |e_a'(x+iy)| = a exp(-a x) integrates to 1 at every a; a cutoff at
        # max(T, 1) left it all out at a = 1e5
        rep = b0_norm(exp_decay(1e5), CFG)
        assert rep.certified and abs(rep.value - 1.0) <= rep.error_bound
        assert abs(rep.value - 1.0) < 1e-12

    def test_b_norm_of_a_far_resolvent(self):
        # ||r_a||_B = 2/a for real a
        rep = b_norm(resolvent(1e4), CFG)
        assert abs(rep.value - 2e-4) < 1e-12 and abs(rep.value - 2e-4) <= rep.error_bound

    def test_unstabilised_search_is_not_certified(self, monkeypatch):
        # b0_norm certifies only when every supremum search it integrates stabilised
        f = resolvent(1.0)
        plain = b0_norm(f, CFG)
        assert plain.certified
        search = norms.sup_on_vertical_line
        monkeypatch.setattr(
            norms,
            "sup_on_vertical_line",
            lambda *args, **kw: replace(search(*args, **kw), stabilized=False),
        )
        rep = b0_norm(f, CFG)
        assert not rep.certified
        assert rep.value == plain.value

    def test_divergence_suspicion(self):
        # a function whose derivative-sup decays only like 1/x
        prof = Profiles(
            deriv_line=lambda x: ShapeEnvelope(c=1.0 / (1.0 + x)),
            modulus_line=lambda x: ShapeEnvelope(c=10.0),
            deriv_outer=ShapeEnvelope(t0=1.0, c=1.0, p=0.99),
            modulus_outer=ShapeEnvelope(c=10.0),
        )
        from besovcalc.functions import AnalyticFunction

        slow = AnalyticFunction(
            eval_fn=lambda z: np.log1p(np.asarray(z, dtype=complex)),
            deriv_fn=lambda z: 1.0 / (1.0 + np.asarray(z, dtype=complex)),
            profiles=prof,
            value_at_infinity=None,
            label="log1p",
        )
        with pytest.raises(DivergenceSuspicion):
            b0_norm(slow, CFG)

    def test_non_integrable_outer_envelope_is_rejected(self):
        # sup_y |r_1'(x+iy)| = (x+1)^-2 integrates to 1, but b0_norm truncates only by
        # the declared outer envelope, and a 1/x one bounds no tail
        f = resolvent(1.0)
        f = replace(f, profiles=replace(f.profiles, deriv_outer=ShapeEnvelope(c=1.0, p=1.0)))
        with pytest.raises(DivergenceSuspicion, match=r"^resolvent\(a=\(1\+0j\)\) declares no"):
            b0_norm(f, CFG)


# one spec per family of the function grammar, Bernstein resolvents with each part of the
# Bernstein function and Laplace transforms with each density
_SPEC_FAMILIES = [
    "const(c=2)",
    "exp(a=1)",
    "resolvent(a=1)",
    "resolvent(a=1+2i)",
    "cayley(n=3)",
    "eta(delta=0.5)",
    "expinv(t=2)",
    "vitse(t=10)",
    "laplace(atoms=[(0,1),(1,-2)];density=-2*exp)",
    "laplace(atoms=[(0.5,1)];density=3*lebesgue(a=0.5,b=2))",
    "band(eps=1,sigma=4;coeffs=[(1,1),(4,-1)])",
    "bernstein_res(a=1;alpha=0.5,beta=2,theta=0.785,lambda=1)",
    "bernstein_res(b=1;alpha=0.5,beta=2,theta=0.785,lambda=1)",
    "bernstein_res(atoms=[(1,1)];alpha=0.5,beta=2,theta=0.785,lambda=1)",
]


class TestDeclaredOuterEnvelopes:
    """b0_norm truncates only by the declared outer envelope of |f'|, so every function
    the spec grammar and the algebra build must declare an integrable one."""

    @pytest.fixture(scope="class")
    def family(self):
        return [parse_function_spec(s) for s in _SPEC_FAMILIES]

    @pytest.mark.parametrize("i", range(len(_SPEC_FAMILIES)), ids=_SPEC_FAMILIES)
    def test_family_and_its_combinations(self, family, i):
        f = family[i]
        built = [f, scale(f, 2.0 - 1.0j), shift(f, 0.5 + 1.0j), dilate(f, 3.0)]
        built += [add(f, g) for g in family] + [mul(f, g) for g in family]
        for beta in (-1.0, 0.5, 2.0):
            try:
                built.append(power(f, beta))
            except RangeViolation:
                pass
        for h in built:
            assert h.profiles.deriv_outer.integrable, h.label


def _stretched(env) -> bool:
    """Whether env decays like a stretched exponential exp(-rho t^alpha), alpha < 1."""
    return env.rho > 0 and env.alpha < 1


class TestStretchedExpShapes:
    """The Bernstein resolvent with one jump has a stretched-exponential outer envelope,
    which scale, dilate and mul must carry with certified constants."""

    H = bernstein_resolvent(BernsteinFunction(jumps=((1.0, 1.0),)), 0.5, 2.0, math.pi / 4, 1.0)

    @pytest.fixture(scope="class")
    def base(self):
        return b_norm(self.H, CFG)

    def test_scale(self, base):
        g = scale(self.H, 2.0)
        assert _stretched(g.profiles.deriv_outer)
        rep = b_norm(g, CFG)
        assert rep.certified
        assert rep.value == pytest.approx(2.0 * base.value, rel=1e-12)

    def test_dilate(self, base):
        g = dilate(self.H, 2.0)
        assert _stretched(g.profiles.deriv_outer)
        rep = b_norm(g, CFG)
        assert rep.certified
        assert abs(rep.value - base.value) <= rep.error_bound + base.error_bound

    def test_mul_stays_certified(self, base):
        g = mul(self.H, resolvent(1.0))
        assert any(_stretched(p) for p in g.profiles.deriv_outer.parts)
        rep = b_norm(g, CFG)
        assert rep.certified
        # ||r_1||_B = 2, and the norm is submultiplicative
        assert rep.value <= 2.0 * base.value + rep.error_bound


class TestFittedSlope:
    @pytest.mark.parametrize("n", [2, 5, 40, 400])
    def test_agrees_with_polyfit_on_seeded_data(self, n):
        rng = np.random.default_rng(24 + n)
        x = rng.uniform(-3.0, 7.0, n)
        y = -2.5 * x + 1.0 + rng.normal(0.0, 0.3, n)
        assert fitted_slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        ["diag(1,2)", "normal_random(3,seed=9)", "sectorial_random(4,seed=3,angle=0.5236)",
         "jordan(1,2)"],
    )
    def test_agrees_with_polyfit_on_the_stability_grid(self, spec):
        """The time grid and log semigroup norms that `stability_constants` fits."""
        A = parse_operator_spec(spec)
        ts = np.geomspace(0.05, max(4.0 / A.spectral_abscissa_min(), 1.0), 40)
        y = np.log(np.linalg.norm(semigroup(A, ts), 2, axis=(1, 2)))
        assert fitted_slope(ts, y) == pytest.approx(np.polyfit(ts, y, 1)[0], rel=1e-12)


class TestE0:
    @pytest.mark.parametrize("a", [1.0, 1j, 1 + 2j], ids=["1", "i", "1+2i"])
    def test_resolvent_pi(self, a):
        assert e0_norm(resolvent(a), CFG).value == pytest.approx(math.pi, abs=1e-3)

    def test_const_zero(self):
        assert e0_norm(const(2.0), CFG).value == 0.0

    def test_derivative_zero_at_two_points_is_not_zero(self):
        # f'(z) = (z-1)(z-b)/(z+1)**4 vanishes at 1 and at b = 2+0.7i only;
        # with w = z+1, f = -1/w + (3+b)/(2w^2) - 2(1+b)/(3w^3)
        b = 2.0 + 0.7j
        env = ShapeEnvelope(t0=4.0, c=2.0, p=2.0)  # |f'| <= (1 + 3.1/|y|)/y^2
        f = AnalyticFunction(
            eval_fn=lambda z: -1 / (z + 1) + (3 + b) / (2 * (z + 1) ** 2)
            - 2 * (1 + b) / (3 * (z + 1) ** 3),
            deriv_fn=lambda z: (z - 1) * (z - b) / (z + 1) ** 4,
            profiles=Profiles(
                deriv_line=lambda x: env,
                modulus_line=lambda x: ShapeEnvelope(c=2.0),
                deriv_outer=env,
                modulus_outer=ShapeEnvelope(c=2.0),
            ),
            value_at_infinity=0.0,
            label="two_zero_deriv",
        )
        assert f.deriv(1.0) == 0 and f.deriv(b) == 0
        at4 = _weight_at(f, 4.0)
        assert at4 > 1.5
        assert e0_norm(f, CFG).value >= at4

    def test_square_resolvent_h1_bound(self):
        # oracle bound: the H1 norm of g' = -2/(z+1)^3 is sup_x 2 * 2/(1+x)^2 = 4
        g = mul(resolvent(1.0), resolvent(1.0))
        rep = e0_norm(g, CFG)
        assert 0.0 < rep.value <= 4.0 + 1e-6

    def test_dilation_law(self):
        # the seminorm scales by 1/b under z -> bz
        v1 = e0_norm(resolvent(1.0), CFG).value
        v2 = e0_norm(dilate(resolvent(1.0), 2.0), CFG).value
        assert v2 == pytest.approx(v1 / 2.0, abs=2e-3)
        # rescaled resolvents keep the constant value
        assert e0_norm(resolvent(2.0), CFG).value == pytest.approx(math.pi, abs=1e-3)

    @pytest.mark.parametrize(
        "f",
        # x * int |f'(x+iy)| dy: pi x / (x+1), largest at the grid's end 2**20,
        # and 4 x / (x+1)**2, largest at the grid point x = 1
        [resolvent(1.0), mul(resolvent(1.0), resolvent(1.0))],
        ids=["resolvent", "resolvent_squared"],
    )
    def test_argmax_names_the_reported_value(self, f):
        rep = e0_norm(f, CFG)
        assert _weight_at(f, rep.pieces["argmax_x"]) == rep.value

    @pytest.mark.parametrize(
        "f,exact",
        [
            (resolvent(1e3), math.pi),
            (resolvent(1e7), math.pi),
            (dilate(resolvent(1.0), 1e-8), math.pi * 1e8),
        ],
        ids=["resolvent_1e3", "resolvent_1e7", "dilated_resolvent"],
    )
    def test_unsettled_grid_edge_is_not_certified(self, f, exact):
        """pi x / (x + a) still climbs at the grid's end 2**20 when a >= 1e3: the
        value misses its bound, so the report must not claim certification."""
        rep = e0_norm(f, CFG)
        assert rep.pieces["argmax_x"] == 2.0**20
        assert abs(rep.value - exact) > rep.error_bound
        assert not rep.certified

    @pytest.mark.parametrize("a", [1.0, 1j, 1 + 2j, 1e-9], ids=["1", "i", "1+2i", "1e-9"])
    def test_settled_resolvents_stay_certified(self, a):
        rep = e0_norm(resolvent(a), CFG)
        assert abs(rep.value - math.pi) <= rep.error_bound
        assert rep.certified

    def test_exp_not_in_dual_class(self):
        with pytest.raises(DivergenceSuspicion):
            e0_norm(exp_decay(1.0), CFG)

    def test_modulus_takes_no_oscillatory_tail(self):
        # |f'| does not oscillate: its line integral takes the plain tail of its envelope,
        # and e0_norm lies within its error of scipy's value at its argmax
        f = mul(exp_decay(1.0), mul(resolvent(1.0), resolvent(1.0)))
        rep = e0_norm(f, CFG)
        x = rep.pieces["argmax_x"]
        # f has real coefficients, so |f'(x - iy)| = |f'(x + iy)|
        half, err = scipy.integrate.quad(
            lambda y: abs(f.deriv(complex(x, y))), 0.0, math.inf, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-9
        assert abs(rep.value - 2.0 * x * half) <= rep.error_bound

    @pytest.mark.parametrize("b", [0.1, 0.5, 4.0])
    @pytest.mark.parametrize("g", [resolvent(1.0), cayley_pow(2)], ids=["resolvent", "cayley2"])
    def test_dilated_e0_upper_bounds_the_norm(self, g, b):
        # e0 scales by 1/b under z -> bz, and so does the declared bound
        f = dilate(g, b)
        assert f.profiles.e0_upper == pytest.approx(g.profiles.e0_upper / b)
        rep = e0_norm(f, CFG)
        assert f.profiles.e0_upper >= rep.value - rep.error_bound


def _calculus(f, cfg):
    # the calculus's error bound reads f's envelopes; it runs under its own config
    return apply_calculus_report(parse_operator_spec("diag(1,2)"), f)


class TestSampledEnvelopes:
    """power and reciprocal read their envelope constants off samples of f, so no norm
    or calculus bound built on them is certified; a combinator keeps the mark."""

    F = add(resolvent(1.0), const(1.0))

    @pytest.mark.parametrize(
        "norm",
        [hinf_norm, b0_norm, b_norm, e0_norm, _calculus],
        ids=["hinf", "b0", "b", "e0", "calculus"],
    )
    @pytest.mark.parametrize(
        "g",
        [
            power(F, 0.5),
            reciprocal(F),
            scale(reciprocal(F), 2.0),
            shift(power(F, 0.5), 1.0 + 1.0j),
            dilate(reciprocal(F), 2.0),
        ],
        ids=["power", "reciprocal", "scaled_reciprocal", "shifted_power", "dilated_reciprocal"],
    )
    def test_sampled_is_not_certified(self, g, norm):
        assert not norm(g, CFG).certified

    @pytest.mark.parametrize("norm", [b_norm, e0_norm, _calculus], ids=["b", "e0", "calculus"])
    def test_proven_envelopes_stay_certified(self, norm):
        assert norm(mul(resolvent(1.0), resolvent(2.0)), CFG).certified


class TestInequalities:
    @pytest.mark.parametrize(
        "f", [exp_decay(1.0), cayley_pow(2), eta()], ids=["exp", "cayley2", "eta"]
    )
    def test_sup_below_infinity_plus_b0(self, f):
        hi = hinf_norm(f, CFG).value
        b0 = b0_norm(f, CFG).value
        assert hi <= abs(complex(f.value_at_infinity)) + b0 + 1e-6

    @pytest.mark.parametrize(
        "f,g",
        [
            (exp_decay(1.0), resolvent(1.0)),
            (resolvent(1.0), cayley_pow(1)),
            (eta(), exp_decay(1.0)),
        ],
        ids=["e*r", "r*chi", "eta*e"],
    )
    def test_submultiplicative(self, f, g):
        assert (
            b_norm(mul(f, g), CFG).value
            <= b_norm(f, CFG).value * b_norm(g, CFG).value + 1e-6
        )

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_shift_contraction(self, a):
        f = cayley_pow(2)
        assert b_norm(shift(f, a), CFG).value <= b_norm(f, CFG).value + 1e-6

    @pytest.mark.parametrize("b", [0.5, 2.0, 8.0])
    def test_dilation_invariance(self, b):
        f = resolvent(1.0)
        assert b_norm(dilate(f, b), CFG).value == pytest.approx(
            b_norm(f, CFG).value, abs=1e-4
        )

    def test_line_sup_left_of_axis(self):
        # |r_2| on the line Re = -1 peaks at 1/(2-1) = 1
        assert line_sup(resolvent(2.0), -1.0 + 1e-6).value[0] == pytest.approx(1.0, abs=1e-4)
        assert (
            left_line_sup(resolvent(2.0), 1.0)
            == line_sup(resolvent(2.0), -1.0 + BOUNDARY_OFFSET).value[0]
        )

    def test_line_sup_outside_the_strip(self):
        with pytest.raises(DivergenceSuspicion, match="analyticity strip"):
            line_sup(resolvent(1.0), -2.0)


class TestBatchedLineSup:
    """One search over many lines returns, for each line, exactly what a search over that
    line alone returns: each line's grid, brackets and golden-section rounds are its own."""

    XS = [2.0**u for u in (-20, -5, 0, 3, 20)]

    @pytest.mark.parametrize(
        "f",
        [
            resolvent(1.0 + 2.0j),
            cayley_pow(4),
            # at x = 1e-3 its peak is narrower than a grid cell
            vitse_reg(100.0),
            band_function(1.0, 4.0),
            bernstein_resolvent(
                BernsteinFunction(a=0.1, b=0.5, jumps=((2.0, 0.5),)), 0.4, 2.0, math.pi / 8,
                2.0 + 0.5j,
            ),
        ],
        ids=["resolvent", "cayley4", "vitse100", "band", "bernstein_mixed"],
    )
    @pytest.mark.parametrize("deriv", [False, True], ids=["modulus", "deriv"])
    def test_rows_are_independent(self, f, deriv):
        batch = line_sup(f, self.XS, deriv)
        singles = [line_sup(f, x, deriv) for x in self.XS]
        assert [v.hex() for v in batch.value] == [s.value[0].hex() for s in singles]
        assert [v.hex() for v in batch.location] == [s.location[0].hex() for s in singles]
        assert batch.stabilized == all(s.stabilized for s in singles)


# r_2 is holomorphic on Re z > -2; omega a hair beyond 2 leaves the line Re z = -omega +
# BOUNDARY_OFFSET inside that strip, yet every bound below needs all of Re z > -omega
_OMEGA = 2.0000005
_DIAG12 = parse_operator_spec("diag(1,2)")
_R2_PRIME = scale(mul(resolvent(2.0), resolvent(2.0)), -1.0)


class TestStripPrecondition:
    """left_line_sup holds the one check omega <= left_bound for every bound that reads it."""

    @pytest.mark.parametrize(
        "check",
        [
            lambda: check_deriv_bound(resolvent(2.0), _R2_PRIME, _OMEGA, CFG),
            lambda: check_product_bound(exp_decay(1.0), resolvent(2.0), _OMEGA, CFG),
            lambda: check_exp_window(resolvent(2.0), 1.0, _OMEGA, CFG),
            lambda: check_smoothed_window(_DIAG12, resolvent(2.0), _OMEGA, 1.0),
            lambda: check_fractional_smoothing(_DIAG12, resolvent(2.0), 1.0, 0.5, _OMEGA),
            lambda: check_deriv_operator(_DIAG12, resolvent(2.0), _R2_PRIME, _OMEGA),
        ],
        ids=[
            "deriv_bound",
            "product_bound",
            "exp_window",
            "smoothed_window",
            "fractional_smoothing",
            "deriv_operator",
        ],
    )
    def test_omega_beyond_left_bound_rejected(self, check):
        with pytest.raises(InvalidParameter, match="holomorphic only on Re z > -2"):
            check()

    def test_left_line_sup_names_the_strip(self):
        with pytest.raises(InvalidParameter, match=r"holomorphic only on Re z > -2$"):
            left_line_sup(resolvent(2.0), 3.0)

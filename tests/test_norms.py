"""Norm computations against exact values and the structural inequalities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from besovcalc.errors import DivergenceSuspicion, UnboundedSuspicion
from besovcalc.functions import (
    AnalyticFunction,
    Profiles,
    add,
    cayley_pow,
    const,
    dilate,
    eta,
    exp_decay,
    exp_inv_shift,
    mul,
    power,
    reciprocal,
    resolvent,
    scale,
    shift,
)
from besovcalc.norms import (
    BOUNDARY_OFFSET,
    b0_norm,
    b_norm,
    e0_norm,
    hinf_norm,
    left_line_sup,
    line_sup_modulus,
)
from besovcalc.operators import apply_calculus_report, parse_operator_spec
from besovcalc.quadrature import ConstEnvelope, PowerEnvelope, QuadratureConfig, line_weight

CFG = QuadratureConfig()


def _weight_at(f, x):
    """x * integral over y of |f'(x+iy)|, the line weight that e0_norm maximises."""
    return float(line_weight(lambda w: np.abs(f.deriv(w)), f.profiles.deriv_line(x), x, CFG))


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
        assert rep.value >= line_sup_modulus(f, BOUNDARY_OFFSET)
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

    def test_divergence_suspicion(self):
        # a function whose derivative-sup decays only like 1/x
        prof = Profiles(
            deriv_line=lambda x: ConstEnvelope(c=1.0 / (1.0 + x)),
            modulus_line=lambda x: ConstEnvelope(c=10.0),
            deriv_outer=PowerEnvelope(p=0.99, c=1.0, t0=1.0),
            modulus_outer=ConstEnvelope(c=10.0),
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
        env = PowerEnvelope(p=2.0, c=2.0, t0=4.0)  # |f'| <= (1 + 3.1/|y|)/y^2
        f = AnalyticFunction(
            eval_fn=lambda z: -1 / (z + 1) + (3 + b) / (2 * (z + 1) ** 2)
            - 2 * (1 + b) / (3 * (z + 1) ** 3),
            deriv_fn=lambda z: (z - 1) * (z - b) / (z + 1) ** 4,
            profiles=Profiles(
                deriv_line=lambda x: env,
                modulus_line=lambda x: ConstEnvelope(c=2.0),
                deriv_outer=env,
                modulus_outer=ConstEnvelope(c=2.0),
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
        [power(F, 0.5), reciprocal(F), scale(reciprocal(F), 2.0)],
        ids=["power", "reciprocal", "scaled_reciprocal"],
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
        assert line_sup_modulus(resolvent(2.0), -1.0 + 1e-6) == pytest.approx(
            1.0, abs=1e-4
        )
        assert left_line_sup(resolvent(2.0), 1.0) == line_sup_modulus(
            resolvent(2.0), -1.0 + BOUNDARY_OFFSET
        )

    def test_norm_report_json(self):
        rep = hinf_norm(exp_decay(1.0), CFG)
        text = rep.to_json()
        assert '"value"' in text and '"certified"' in text

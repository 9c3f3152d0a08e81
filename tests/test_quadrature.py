"""Quadrature engine tests: a closed-form battery with error-bound domination,
mapped half-lines and lines, contours, and supremum search."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovcalc.errors import DepthExceeded, EnvelopeViolated, InvalidParameter
from besovcalc.quadrature import (
    QuadratureConfig,
    ShapeEnvelope,
    SumEnvelope,
    _decay,
    envelope_product,
    halfline_map,
    integrate_halfline,
    integrate_contour,
    integrate_interval,
    integrate_line,
    kernel_weight,
    line_weight,
    sup_on_vertical_line,
)
from besovcalc import quadrature
from besovcalc.quadrature import (
    _NODES,
    _WG_FULL,
    _WK,
    QuadResult,
    _INVPHI,
    _SUP_REFINE_ROUNDS,
    _bracket_row,
    _eval_panels,
    _golden_max_multi,
    _maxabs,
    _refine_max,
)

CFG = QuadratureConfig()


# (integrand, a, b, exact) with exact values from the antiderivative
FINITE_BATTERY = [
    ("const", lambda t: np.ones_like(t), 0.0, 1.0, 1.0),
    ("exp", lambda t: np.exp(-t), 0.0, 50.0, 1.0 - math.exp(-50.0)),
    (
        "rational",
        lambda t: 1.0 / (1.0 + t**2),
        -1e3,
        1e3,
        math.pi - 2.0 * math.atan(1e-3),
    ),
    ("cubic", lambda t: t**3 - 2.0 * t, -1.0, 3.0, (81.0 / 4 - 9.0) - (0.25 - 1.0)),
    ("cosine", lambda t: np.cos(5.0 * t), 0.0, 2.0, math.sin(10.0) / 5.0),
    ("gauss_t", lambda t: t * np.exp(-(t**2)), 0.0, 10.0, 0.5 * (1.0 - math.exp(-100.0))),
    ("log", lambda t: np.log1p(t), 0.0, 3.0, 4.0 * math.log(4.0) - 3.0),
    ("exp_grow", lambda t: np.exp(2.0 * t), 0.0, 1.0, (math.e**2 - 1.0) / 2.0),
    (
        "trig_rational",
        lambda t: 1.0 / (2.0 + np.cos(t)),
        0.0,
        2.0 * math.pi,
        2.0 * math.pi / math.sqrt(3.0),
    ),
    ("sech2", lambda t: 1.0 / np.cosh(t) ** 2, -5.0, 5.0, 2.0 * math.tanh(5.0)),
]

HALFLINE_BATTERY = [
    ("exp3", lambda t: np.exp(-3.0 * t), ShapeEnvelope(c=1.0, rho=3.0), 1.0 / 3.0),
    (
        "cubic_decay",
        lambda t: 1.0 / (1.0 + t) ** 3,
        ShapeEnvelope(t0=1.0, c=1.0, p=3.0),
        0.5,
    ),
    (
        "t_exp",
        lambda t: t * np.exp(-t),
        ShapeEnvelope(c=10.0 * math.exp(-1.0), rho=0.9),
        1.0,
    ),
    ("lorentz", lambda t: 1.0 / (4.0 + t**2), ShapeEnvelope(c=1.0, p=2.0, s=2.0), math.pi / 4),
    ("damped_cos", lambda t: np.exp(-t) * np.cos(t), ShapeEnvelope(c=1.0, rho=1.0), 0.5),
    ("inv_square", lambda t: (1.0 + t) ** -2, ShapeEnvelope(t0=1.0, c=1.0, p=2.0), 1.0),
]

LINE_BATTERY = [
    ("poisson", lambda t: 1.0 / (1.0 + t**2), ShapeEnvelope(c=1.0, p=2.0, s=1.0), math.pi),
    (
        "gaussian",
        lambda t: np.exp(-(t**2)),
        ShapeEnvelope(t0=1.0, c=1.0, rho=1.0),
        math.sqrt(math.pi),
    ),
    (
        "double_lorentz",
        lambda t: 1.0 / ((1.0 + t**2) * (4.0 + t**2)),
        ShapeEnvelope(t0=2.0, c=1.0, p=4.0),
        math.pi / 6.0,
    ),
]


@pytest.mark.parametrize("name,f,a,b,exact", FINITE_BATTERY, ids=[c[0] for c in FINITE_BATTERY])
def test_finite_battery_error_domination(name, f, a, b, exact):
    res = integrate_interval(f, a, b, CFG)
    err = abs(res.value - exact)
    assert err <= res.error + 1e-13 * (1.0 + abs(exact))
    assert err < 1e-6 * (1.0 + abs(exact))


@pytest.mark.parametrize("name,f,env,exact", HALFLINE_BATTERY, ids=[c[0] for c in HALFLINE_BATTERY])
def test_halfline_battery(name, f, env, exact):
    res = integrate_halfline(f, env, CFG)
    assert abs(res.value - exact) <= res.error + 1e-13
    assert abs(res.value - exact) < 1e-6


@pytest.mark.parametrize("name,f,env,exact", LINE_BATTERY, ids=[c[0] for c in LINE_BATTERY])
def test_line_battery(name, f, env, exact):
    res = integrate_line(f, env, CFG)
    assert abs(res.value - exact) <= res.error + 1e-13
    assert abs(res.value - exact) < 1e-6


# int_0^inf x^s/(1+x)^p dx = B(s+1, p-s-1) under a power envelope of p - s: s < 0 puts an
# integrable singularity at x = 0, which the map's graded breakpoints take
@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("s", [-0.6, -0.3, 0.0, 0.5, 1.0])
def test_halfline_beta_battery(s, q):
    exact = float(mpmath.beta(s + 1.0, q - 1.0))
    res = integrate_halfline(lambda x: x**s / (1.0 + x) ** (s + q), ShapeEnvelope(c=1.0, p=q), CFG)
    assert abs(res.value - exact) <= res.error + 1e-13 * (1.0 + abs(exact))
    assert abs(res.value - exact) < 1e-6
    if s >= 0.0:
        # the single-panel rule at its rounding floor, where a cutoff left the tail out
        assert res.n_evals == 135 and abs(res.value - exact) < 1e-10


# (envelope, half-line integrand and value, line integrand and value)
TAIL_BUDGET_CASES = [
    (ShapeEnvelope(c=1.0, p=3.0), lambda t: (1.0 + t) ** -3, 0.5,
     lambda t: (1.0 + t * t) ** -2, 0.5 * math.pi),
    (ShapeEnvelope(c=1.0, p=2.0, s=1.0), lambda t: 1.0 / (1.0 + t * t), 0.5 * math.pi,
     lambda t: 1.0 / (1.0 + t * t), math.pi),
    (ShapeEnvelope(c=2.0, rho=1.0), lambda t: np.exp(-t), 1.0,
     lambda t: 2.0 * np.exp(-np.abs(t)) / (1.0 + np.exp(-2.0 * np.abs(t))), math.pi),
]


@pytest.mark.parametrize("abs_tol", [1e-6, 1e-10])
@pytest.mark.parametrize(
    "env,half,half_exact,line,line_exact", TAIL_BUDGET_CASES, ids=["power", "resolvent", "exp"]
)
def test_tails_spend_abs_tol(env, half, half_exact, line, line_exact, abs_tol):
    """The line and the half-line both run on the envelope's map of [0, 1), which leaves no
    tail: each value lies within its reported error, which meets the config, and is not
    biased by a tail left out."""
    cfg = QuadratureConfig(abs_tol=abs_tol, rel_tol=1e-7)
    res = integrate_line(line, env, cfg)
    assert abs(res.value - line_exact) <= res.error + 1e-15
    assert res.error <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert abs(res.value - line_exact) < 1e-3 * cfg.abs_tol
    res = integrate_halfline(half, env, cfg)
    assert abs(res.value - half_exact) <= res.error + 1e-15
    assert abs(res.value - half_exact) < 1e-3 * cfg.abs_tol


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    a=st.floats(-2.0, 1.0),
    width=st.floats(0.5, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_polynomial_property(coeffs, a, width):
    b = a + width
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(b) - poly.integ()(a)
    res = integrate_interval(lambda t: poly(t), a, b, CFG)
    assert abs(res.value - exact) <= res.error + 1e-10 * (1.0 + abs(exact))


def test_envelope_violation_detected():
    with pytest.raises(EnvelopeViolated):
        integrate_halfline(lambda t: 1.0 / (1.0 + t), ShapeEnvelope(c=1.0, rho=1.0), CFG)


@pytest.mark.parametrize(
    "integrate,share", [(integrate_halfline, 0.5), (integrate_line, 1.0)], ids=["halfline", "line"]
)
def test_envelope_checked_from_t0(integrate, share):
    """With t0 = 5 > 1/a the map's scale is S = 1/a and its first check node x = 0.999 lies
    below t0, where the envelope need not hold, so the check samples t0 there instead.
    exp(-200 t^2) lies above exp(-1000 t) only below t0; exp(-|t|) lies above it beyond."""
    env = ShapeEnvelope(t0=5.0, c=1.0, rho=1e3)
    res = integrate(lambda t: np.exp(-200.0 * t * t), env, CFG)
    assert abs(res.value - share * math.sqrt(math.pi / 200.0)) <= res.error + 1e-15
    with pytest.raises(EnvelopeViolated):
        integrate(lambda t: np.exp(-np.abs(t)), env, CFG)


def test_line_checks_both_sides():
    with pytest.raises(EnvelopeViolated):
        integrate_line(
            lambda t: np.where(t < 0.0, 1.0 / (1.0 - t), 0.0), ShapeEnvelope(c=1.0, rho=1.0), CFG
        )


@pytest.mark.parametrize("p", [1.01, 1.001])
@pytest.mark.parametrize(
    "integrate", [integrate_halfline, integrate_line], ids=["halfline", "line"]
)
def test_too_slow_envelope_rejected(integrate, p):
    # x = S ((1-u)^-k - 1) with k = 1/(p-1) >= 100 leaves the floats at the check's nodes
    with pytest.raises(InvalidParameter, match="half-line map overflows"):
        integrate(lambda t: (1.0 + np.abs(t)) ** -p, ShapeEnvelope(c=1.0, p=p), CFG)


def test_depth_exceeded_on_hard_singularity(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 12)
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    with pytest.raises(DepthExceeded):
        integrate_interval(lambda t: np.abs(t) ** -0.9, 1e-300, 1.0, cfg)


def test_nonintegrable_envelope_rejected():
    with pytest.raises(InvalidParameter):
        integrate_halfline(lambda t: np.ones_like(t), ShapeEnvelope(c=1.0), CFG)


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["right", "left"])
def test_contour_takes_the_residue(direction):
    """int exp(-d tau w)/(w - p)^2 dy over the line Re w = x is 2 pi tau exp(-d tau p) when
    the pole p lies on the rays' side d of the line, and 0 on the other side; every pole
    has |Im p| <= radius, and exp(-d tau w) decays along the rays."""
    x, tau, radius = 0.5, 2.0, 0.4

    def integral(p):
        def h(w, dy):
            return np.exp(-direction * tau * w) / (w - p) ** 2 * dy

        return integrate_contour(h, x, radius, direction, CFG)

    p = x + direction * 0.7 + 0.4j
    res = integral(p)
    exact = 2.0 * math.pi * tau * np.exp(-direction * tau * p)
    assert abs(res.value - exact) < 1e-12 and res.converged
    assert abs(integral(x - direction * 0.7 + 0.4j).value) < 1e-12


def test_determinism_bitwise():
    def f(t):
        return np.exp(1j * t) / (1.0 + t**2) ** 2

    env = ShapeEnvelope(t0=1.0, c=1.0, p=4.0)
    r1 = integrate_line(f, env, CFG)
    r2 = integrate_line(f, env, CFG)
    assert complex(r1.value) == complex(r2.value)
    assert r1.error == r2.error


class TestSupremum:
    def test_constant_modulus(self):
        # |exp(-(1+iy))| is constant in y
        sup = sup_on_vertical_line(
            lambda z: np.full_like(z.imag, math.exp(-1.0)),
            lambda x: ShapeEnvelope(c=math.exp(-1.0)),
            [1.0],
            window=10.0,
        )
        assert sup.value[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_resolvent_peak(self):
        sup = sup_on_vertical_line(
            lambda z: 1.0 / (4.0 + z.imag**2),
            lambda x: ShapeEnvelope(c=1.0, p=2.0, s=2.0),
            [0.0],
            window=4.0,
        )
        assert sup.value[0] == pytest.approx(0.25, abs=1e-10)
        assert abs(sup.location[0]) < 1e-6

    def test_cayley_case_split(self):
        # oracle: on the middle range the supremum of |f_n'| along the line
        # Re = x is n (n-1)^((n-1)/2) / (n+1)^((n+1)/2) / x
        n, x = 2, 0.5
        a_n = n - math.sqrt(n * n - 1.0)
        b_n = n + math.sqrt(n * n - 1.0)
        assert a_n < x < b_n
        oracle = n * (n - 1.0) ** ((n - 1) / 2.0) / (n + 1.0) ** ((n + 1) / 2.0) / x

        def deriv(z):
            w = (z - 1.0) / (z + 1.0)
            return 2.0 * n * w ** (n - 1) / (z + 1.0) ** 2

        sup = sup_on_vertical_line(
            deriv, lambda x: ShapeEnvelope(c=2.0 * n, p=2.0, s=x + 1.0), [x], window=4.0
        )
        assert sup.value[0] == pytest.approx(oracle, abs=1e-6)

    def test_monotone_under_domination(self):
        s1 = sup_on_vertical_line(
            lambda z: 1.0 / (4.0 + z.imag**2),
            lambda x: ShapeEnvelope(c=1.0, p=2.0, s=2.0),
            [0.0],
            window=4.0,
        )
        s2 = sup_on_vertical_line(
            lambda z: 1.0 / (1.0 + z.imag**2),
            lambda x: ShapeEnvelope(c=1.0, p=2.0, s=1.0),
            [0.0],
            window=4.0,
        )
        assert s1.value[0] <= s2.value[0] + CFG.abs_tol

    @pytest.mark.parametrize(
        "phi,lo,hi",
        [
            (lambda u: -((u - 0.3) ** 2), -1.0, 2.0),
            (lambda u: math.cos(3.0 * u), 0.5, 4.0),
            (lambda u: 1.0, 0.0, 1.0),  # every comparison is a tie
            (lambda u: abs(u), -2.0, 1.0),  # maximum at the bracket edge
        ],
    )
    @pytest.mark.parametrize("rounds", [1, 7, 30])
    def test_golden_max_is_one_bracket(self, phi, lo, hi, rounds):
        """One bracket of `_golden_max_multi` is the scalar golden-section search:
        the same points and values, and 2 + rounds evaluations."""
        r = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - r * (b - a), a + r * (b - a)
        fc, fd = phi(c), phi(d)
        for _ in range(rounds):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - r * (b - a)
                fc = phi(c)
            else:
                a, c, fc = c, d, fd
                d = a + r * (b - a)
                fd = phi(d)
        calls = []

        def counted(us):
            calls.append(len(us))
            return np.array([phi(float(u)) for u in us])

        xs, vs = _golden_max_multi(counted, np.array([lo]), np.array([hi]), rounds)
        assert calls == [1] * (2 + rounds)
        assert (xs[0], vs[0]) == ((c, fc) if fc >= fd else (d, fd))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.integers(3, 60),
        st.sampled_from([1, 5]),
    )
    def test_refine_max_bounds_the_grid(self, coef, n, brackets):
        a, b, c = coef

        def phi(u):
            return np.cos(a * u) + b * np.sin(c * u + 1.0)

        calls = []

        def counted(u):
            calls.append(len(u))
            return phi(u)

        grid = np.linspace(-2.0, 3.0, n)
        vals = phi(grid)
        k = int(vals.argmax())
        loc, value, gain = _refine_max(
            lambda u, _: counted(u), _bracket_row(grid, vals, brackets)
        )[0]
        assert value >= vals.max()
        assert gain == value - vals.max()
        assert value == pytest.approx(phi(np.array([loc]))[0], rel=1e-12, abs=1e-15)
        assert len(calls) == 2 + _SUP_REFINE_ROUNDS
        if brackets == 1:
            assert grid[max(k - 1, 0)] <= loc <= grid[min(k + 1, n - 1)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.5, 0.9), min_size=5, max_size=5),
        st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
        st.integers(0, 4),
    )
    # the tallest bump midway between grid points, where the grid reads 0.37
    @example(heights=[0.9] * 5, offsets=[0.5, 0.0, 0.0, 0.0, 0.0], top=0)
    def test_refine_max_five_brackets_find_the_tallest_bump(self, heights, offsets, top):
        """Five narrow bumps, one per ten grid cells, the one at `top` of height 1:
        each bump's top grid point is among the five brackets, so the tallest
        peak is found even when it lies between two grid points and a lower
        bump sits on one."""
        heights[top] = 1.0
        centres = [5.0 + 10.0 * i + o for i, o in enumerate(offsets)]

        def phi(u):
            u = np.asarray(u, dtype=float)
            return sum(h * np.exp(-(((u - c) / 0.5) ** 2)) for h, c in zip(heights, centres))

        grid = np.arange(50.0)
        loc, value, _ = _refine_max(lambda u, _: phi(u), _bracket_row(grid, phi(grid), 5))[0]
        assert value == pytest.approx(1.0, rel=1e-9)
        assert abs(loc - centres[top]) < 1e-3

    def test_refine_max_keeps_the_grid_point_on_a_tie(self):
        grid = np.linspace(0.0, 1.0, 9)
        row = _bracket_row(grid, np.ones(9), 5)
        loc, value, gain = _refine_max(lambda u, _: np.ones_like(u), row)[0]
        assert (loc, value, gain) == (0.0, 1.0, 0.0)


class TestKernelWeight:
    """kernel_weight of h(w) = |w + s|^-p, whose line weights are closed forms."""

    def test_interior_maximum(self):
        # x * int |x + 1 + iy|^-3 dy = 2x / (x + 1)^2, largest (1/2) at the grid point x = 1
        x, value, settled = kernel_weight(
            lambda w: np.abs(w + 1.0) ** -3.0, lambda x: ShapeEnvelope(c=1.0, p=3.0), CFG
        )
        # the golden-section refinement may keep a point of its last bracket, about
        # 2 * 0.618**30 wide in log2 x, whose rounding lifts it past the grid value
        assert abs(math.log2(x)) <= 2.0 * _INVPHI**_SUP_REFINE_ROUNDS
        assert abs(value - 0.5) <= max(CFG.abs_tol, CFG.rel_tol * 0.5)
        assert settled

    @pytest.mark.parametrize("s,settled", [(1.0, True), (1e3, False)])
    def test_edge_maximum(self, s, settled):
        # x * int |x + s + iy|^-2 dy = pi x / (x + s), largest at the grid end 2**20; its
        # last grid step, pi s / 2**20 to first order, is below the allowance 4 value / 2**20
        # at s = 1, where the value is then within the allowance of the supremum pi
        x, value, flag = kernel_weight(
            lambda w: np.abs(w + s) ** -2.0, lambda x: ShapeEnvelope(c=1.0, p=2.0, s=x + s), CFG
        )
        assert x == 2.0**20 and flag == settled
        assert abs(value - math.pi * x / (x + s)) <= max(CFG.abs_tol, CFG.rel_tol * value)
        assert (math.pi - value <= 4.0 * value / 2.0**20) == settled


@pytest.mark.parametrize("x", [2.0**-10, 1.0, 2.0**10])
def test_line_weight_takes_the_whole_line(x):
    # x int |x + iy|^-2 dy = pi at every x > 0, with no tail left out of the value
    value, converged = line_weight(
        lambda w: np.abs(w) ** -2.0, ShapeEnvelope(c=1.0, p=2.0, s=x), x, CFG
    )
    assert converged and abs(value - math.pi) <= 1e-12 * math.pi


# one envelope of each shape, each with its own t0, and a sum whose parts' t0 differ
LAW_ENVELOPES = [
    ShapeEnvelope(t0=1.0, c=2.0),
    ShapeEnvelope(t0=0.5, c=3.0, p=1.5),
    ShapeEnvelope(t0=1.0, c=2.0, rho=0.7),
    ShapeEnvelope(t0=0.3, c=2.0, p=2.0, s=1.5),
    ShapeEnvelope(t0=2.0, c=0.8, p=0.5, rho=1.2, alpha=0.5),
    SumEnvelope.of(ShapeEnvelope(t0=1.0, c=1.0, rho=2.0), ShapeEnvelope(t0=4.0, c=0.5, p=3.0)),
]
LAW_IDS = ["const", "power", "exp", "resolvent", "stretched", "sum"]
LAW_TS = [0.3, 1.0, 2.5, 6.0]


class TestEnvelopes:
    def test_product_rules(self):
        e1 = ShapeEnvelope(c=2.0, p=2.0, s=1.0)
        e2 = ShapeEnvelope(c=3.0)
        out = envelope_product(e1, e2)
        assert out.bound(5.0) == pytest.approx(3.0 * e1.bound(5.0))
        p = envelope_product(
            ShapeEnvelope(t0=1.0, c=1.0, p=2.0), ShapeEnvelope(t0=1.0, c=2.0, p=1.0)
        )
        assert p.p == 3.0 and p.c == 2.0

    def test_product_holds_from_the_factors_t0(self):
        # no floor on t0: factors that hold from 0 on give a product that does too
        out = envelope_product(ShapeEnvelope(c=1.0, p=2.0, s=1.0), ShapeEnvelope(c=2.0))
        assert out.t0 == 0.0 and out.bound(0.0) == 2.0

    @pytest.mark.parametrize("e2", LAW_ENVELOPES, ids=LAW_IDS)
    @pytest.mark.parametrize("e1", LAW_ENVELOPES, ids=LAW_IDS)
    def test_product_covers_the_product_of_bounds(self, e1, e2):
        out = envelope_product(e1, e2)
        assert out.t0 >= max(e1.t0, e2.t0)
        for t in out.t0 * np.array([1.0, 1.5, 3.0, 10.0, 40.0]):
            assert out.bound(t) >= e1.bound(t) * e2.bound(t) * (1.0 - 1e-14)

    @pytest.mark.parametrize(
        "env,decay",
        [
            (ShapeEnvelope(c=2.0), (0.0, 0.0)),
            (ShapeEnvelope(c=3.0, p=1.5), (1.5, 0.0)),
            (ShapeEnvelope(c=3.0, p=3.0), (2.0, 0.0)),
            (ShapeEnvelope(c=2.0, rho=0.7), (2.0, 0.7)),
            (ShapeEnvelope(c=2.0, p=2.0, s=1.5), (2.0, 0.0)),
            (ShapeEnvelope(c=0.8, p=0.5, rho=1.2, alpha=0.5), (1.5, 0.0)),
        ],
        ids=["const", "power", "power-capped", "exp", "resolvent", "stretched"],
    )
    def test_decay_of_each_shape(self, env, decay):
        assert _decay(env) == decay

    def test_exponential_rates_add(self):
        out = envelope_product(ShapeEnvelope(c=2.0, rho=0.7), ShapeEnvelope(c=3.0, rho=0.5))
        assert _decay(out) == (2.0, 1.2) and out.c == 6.0

    def test_sum_off_center_zero_is_the_sum(self):
        env = LAW_ENVELOPES[-1]
        assert env.off_center(0.0) is env

    @pytest.mark.parametrize("env", LAW_ENVELOPES, ids=LAW_IDS)
    @pytest.mark.parametrize("k", [0.3, 2.5])
    def test_scaled_multiplies_the_bound(self, env, k):
        out = env.scaled(k)
        assert out.t0 == env.t0
        for t in LAW_TS:
            assert out.bound(t) == pytest.approx(k * env.bound(t), rel=1e-14)

    @pytest.mark.parametrize("env", LAW_ENVELOPES, ids=LAW_IDS)
    @pytest.mark.parametrize("b", [0.25, 3.0])
    def test_dilated_arg_composes_the_bound(self, env, b):
        out = env.dilated_arg(b)
        assert out.t0 == env.t0 / b
        for t in LAW_TS:
            assert out.bound(t) == pytest.approx(env.bound(b * t), rel=1e-14)

    @pytest.mark.parametrize("env", LAW_ENVELOPES, ids=LAW_IDS)
    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_off_center_covers_the_moved_bound(self, env, c):
        """From its new t0 on, t - c >= t/2, so the bound at t/2 covers the bound at t - c."""
        out = env.off_center(c)
        assert out.t0 >= max(2.0 * c, 2.0 * env.t0)
        for t in out.t0 * np.array([1.0, 1.5, 3.0, 10.0]):
            assert out.bound(t) >= env.bound(t - c) * (1.0 - 1e-14)

    @pytest.mark.parametrize(
        "env,integrable",
        [
            (ShapeEnvelope(c=1.0), False),
            (ShapeEnvelope(c=1.0, p=0.5), False),
            (ShapeEnvelope(c=1.0, p=1.0), False),
            (ShapeEnvelope(c=1.0, p=1.5), True),
            (ShapeEnvelope(c=1.0, rho=1.0), True),
            (ShapeEnvelope(c=1.0, p=2.0, s=1.0), True),
            (ShapeEnvelope(c=1.0, p=0.9, rho=1.0, alpha=0.1), True),
            (SumEnvelope(), True),
            (SumEnvelope.of(ShapeEnvelope(c=1.0, rho=1.0), ShapeEnvelope(c=1.0, p=0.5)), False),
            (SumEnvelope.of(ShapeEnvelope(c=1.0, rho=1.0), ShapeEnvelope(c=1.0)), False),
            (
                SumEnvelope.of(
                    ShapeEnvelope(c=1.0, rho=1.0), ShapeEnvelope(c=1.0, p=0.5, rho=1.0, alpha=0.5)
                ),
                True,
            ),
        ],
    )
    def test_integrable(self, env, integrable):
        assert env.integrable is integrable

    @pytest.mark.parametrize(
        "env", [ShapeEnvelope(c=1.0, p=1.0), ShapeEnvelope(c=1.0, p=0.5), ShapeEnvelope(c=1.0)],
        ids=["p=1", "p=0.5", "const"],
    )
    def test_map_rejects_a_non_integrable_envelope(self, env):
        with pytest.raises(InvalidParameter, match="integrable envelope"):
            halfline_map(env, 0.0)

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            QuadratureConfig(abs_tol=-1.0)
        for bad in (math.nan, math.inf, -math.inf, 0.0):
            for name in ("abs_tol", "rel_tol"):
                with pytest.raises(InvalidParameter):
                    QuadratureConfig(**{name: bad})
            with pytest.raises(InvalidParameter):
                CFG.with_tolerances(abs_tol=bad)


def _panel_values(f, lefts, rights):
    half = 0.5 * (rights - lefts)
    pts = 0.5 * (lefts + rights)[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(f(pts.reshape(-1)))
    return half, vals.reshape(pts.shape + vals.shape[1:])


def _panels_reference(f, lefts, rights):
    """The reduction that one stacked product replaced: a tensordot per rule
    for values wider than a scalar, each of which copies the values."""
    half, vals = _panel_values(f, lefts, rights)
    if vals.ndim > 2:
        kron = np.tensordot(vals, _WK, axes=([1], [0]))
        gauss = np.tensordot(vals, _WG_FULL, axes=([1], [0]))
    else:
        kron, gauss = vals @ _WK, vals @ _WG_FULL
    shape = (-1,) + (1,) * (kron.ndim - 1)
    kron, gauss = kron * half.reshape(shape), gauss * half.reshape(shape)
    return kron, np.abs(kron - gauss).reshape(len(half), -1).max(axis=1)


def _wide_float(t):
    """201 columns, the shape of the operator profile's weak samples."""
    return np.abs(np.cos(np.outer(t, np.linspace(0.1, 3.0, 201)))) / (1.0 + t[:, None] ** 2)


def _matrix_valued(t):
    lam = np.array([1.0, 2.0 + 1.0j, 0.5 - 3.0j])
    return np.exp(-1j * t[:, None, None] * lam[None, :, None]) * lam[None, None, :] / (
        1.0 + t[:, None, None] ** 2
    )


class TestPanelReduction:
    lefts = np.linspace(-40.0, 36.0, 38)
    rights = lefts + 2.0

    def test_scalar_values_bit_identical(self):
        def f(t):
            return np.exp(1j * t) / (1.0 + t**2)

        kron, errs = _eval_panels(f, self.lefts, self.rights)
        ref_kron, ref_errs = _panels_reference(f, self.lefts, self.rights)
        assert np.array_equal(kron, ref_kron)
        assert np.array_equal(errs, ref_errs)

    @pytest.mark.parametrize("f", [_wide_float, _matrix_valued], ids=["width201", "3x3"])
    def test_wide_values_match_tensordot(self, f):
        kron, errs = _eval_panels(f, self.lefts, self.rights)
        ref_kron, ref_errs = _panels_reference(f, self.lefts, self.rights)
        assert kron.shape == ref_kron.shape and kron.dtype == ref_kron.dtype
        scale = float(np.max(np.abs(ref_kron)))
        assert float(np.max(np.abs(kron - ref_kron))) <= 1e-14 * scale
        assert float(np.max(np.abs(errs - ref_errs))) <= 1e-14 * scale
        # stored panels must not pin the product of both rules
        assert kron.base is None

    def test_wide_values_not_copied(self):
        """The reduction of 38 panels of width-201 values allocates well under
        the size of the values (the two tensordot calls copied them whole)."""
        _, vals = _panel_values(_wide_float, self.lefts, self.rights)
        flat = vals.reshape(-1, vals.shape[-1])
        _eval_panels(lambda t: flat, self.lefts, self.rights)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _eval_panels(lambda t: flat, self.lefts, self.rights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * flat.nbytes, peak / flat.nbytes


def _integrate_interval_reference(f, a, b, cfg, *, breakpoints=None, strict=True):
    """List-based engine, one Python list [left, right, value, err, depth] per
    panel: the reference the array-state `integrate_interval` must match."""
    edges = [a, b] if not breakpoints else sorted({a, b, *(x for x in breakpoints if a < x < b)})
    lefts = np.array(edges[:-1], dtype=float)
    rights = np.array(edges[1:], dtype=float)
    values, errs = _eval_panels(f, lefts, rights)
    panels = [[lefts[i], rights[i], values[i], errs[i], 0] for i in range(len(lefts))]
    n_evals = 15 * len(panels)
    for _ in range(16 * quadrature._MAX_DEPTH):
        total_err = sum(p[3] for p in panels)
        total_val = panels[0][2] * 0
        for p in panels:
            total_val = total_val + p[2]
        tol = max(cfg.abs_tol, cfg.rel_tol * _maxabs(total_val))
        if total_err <= tol:
            break
        share = [max(tol * (p[1] - p[0]) / (b - a), tol / (4.0 * len(panels))) for p in panels]
        split_idx = [
            i for i, p in enumerate(panels) if p[3] > share[i] and p[4] < quadrature._MAX_DEPTH
        ]
        if not split_idx:
            if strict:
                raise DepthExceeded(
                    f"adaptive bisection stalled: error {total_err:.3e} > tol {tol:.3e}"
                )
            return QuadResult(total_val, total_err, n_evals, converged=False)
        if len(panels) + len(split_idx) > quadrature._MAX_PANELS:
            if strict:
                raise DepthExceeded("panel budget exhausted")
            return QuadResult(total_val, total_err, n_evals, converged=False)
        new_lefts, new_rights, meta = [], [], []
        for i in split_idx:
            l, r, _, _, d = panels[i]
            m = 0.5 * (l + r)
            if m <= l or m >= r:
                if strict:
                    raise DepthExceeded("panel width underflow")
                return QuadResult(total_val, total_err, n_evals, converged=False)
            new_lefts += [l, m]
            new_rights += [m, r]
            meta += [d + 1, d + 1]
        vals2, errs2 = _eval_panels(f, np.array(new_lefts), np.array(new_rights))
        n_evals += 15 * len(new_lefts)
        for i in sorted(split_idx, reverse=True):
            del panels[i]
        for j in range(len(new_lefts)):
            panels.append([new_lefts[j], new_rights[j], vals2[j], errs2[j], meta[j]])
    panels.sort(key=lambda p: p[0])
    value = panels[0][2] * 0
    for p in panels:
        value = value + p[2]
    total_err = sum(p[3] for p in panels)
    tol = max(cfg.abs_tol, cfg.rel_tol * _maxabs(value))
    if total_err > tol and strict:
        raise DepthExceeded(f"quadrature did not converge: err {total_err:.3e} > tol {tol:.3e}")
    return QuadResult(value, total_err, n_evals, converged=total_err <= tol)


# the default bisection depth; the "stall" case runs with 12
_DEPTH = quadrature._MAX_DEPTH
_SINGULAR_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)

# (name, integrand, a, b, breakpoints, cfg, max_depth)
ENGINE_CASES = [
    ("rational", lambda t: 1.0 / (1.0 + t**2), -1e3, 1e3, None, CFG, _DEPTH),
    (
        "fourier",
        lambda t: np.exp(2.0j * t) / (1.0 + t**2),
        -60.0,
        60.0,
        [-9.0, 0.0, 0.5, 9.0],
        CFG,
        _DEPTH,
    ),
    ("log_breakpoints", lambda t: np.log(np.abs(t)), -1.0, 2.0, [0.0], CFG, _DEPTH),
    (
        "width201",
        lambda t: np.cos(np.outer(t, np.linspace(0.1, 3.0, 201))) / (1.0 + t[:, None] ** 2),
        -40.0,
        40.0,
        [-4.0, 0.0, 4.0],
        CFG,
        _DEPTH,
    ),
    ("3x3", _matrix_valued, -30.0, 30.0, None, CFG, _DEPTH),
    ("stall", lambda t: np.abs(t) ** -0.9, 1e-300, 1.0, None, _SINGULAR_CFG, 12),
    # noise at every scale: every panel splits every round until a limit is hit
    ("budget", lambda t: np.sin(1e12 * t), 0.0, 1.0, None, CFG, _DEPTH),
    ("width_underflow", lambda t: 1e30 * np.sin(1e18 * t), 1.0, 1.0 + 2.0**-50, None, CFG, _DEPTH),
]


class TestArrayEngine:
    """The array-state engine against the list-based reference: the same
    splits (n_evals, converged, messages) and the same results."""

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "name,f,a,b,bp,cfg,max_depth", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES]
    )
    def test_matches_list_reference(self, name, f, a, b, bp, cfg, max_depth, strict, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)

        def run(engine):
            try:
                return engine(f, a, b, cfg, breakpoints=bp, strict=strict)
            except DepthExceeded as exc:
                return str(exc)

        got = run(integrate_interval)
        ref = run(_integrate_interval_reference)
        if isinstance(ref, str):
            assert got == ref
            return
        assert (got.n_evals, got.converged) == (ref.n_evals, ref.converged)
        # both sum panels left to right in the same order, so the arithmetic is equal
        assert np.array_equal(got.value, ref.value)
        assert got.error == ref.error

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("stall", "adaptive bisection stalled"),
            ("budget", "panel budget exhausted"),
            ("width_underflow", "panel width underflow"),
        ],
    )
    def test_each_limit_is_reached(self, name, expected, monkeypatch):
        _, f, a, b, bp, cfg, max_depth = next(c for c in ENGINE_CASES if c[0] == name)
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
        with pytest.raises(DepthExceeded, match=expected):
            integrate_interval(f, a, b, cfg, breakpoints=bp)
        res = integrate_interval(f, a, b, cfg, breakpoints=bp, strict=False)
        assert not res.converged

    def test_max_panels_lowers_the_budget(self):
        _, f, a, b, bp, cfg, _ = next(c for c in ENGINE_CASES if c[0] == "budget")
        with pytest.raises(DepthExceeded, match="panel budget exhausted"):
            integrate_interval(f, a, b, cfg, max_panels=8)
        res = integrate_interval(f, a, b, cfg, strict=False, max_panels=8)
        # 1 panel, then 2, 4 and 8 after three rounds of splits; the fourth would make 16
        assert not res.converged and res.n_evals == 15 * (1 + 2 + 4 + 8)


def _eval_panels_one_call(f, lefts, rights):
    """Every panel of a batch in one call of f: the reference the sliced
    `_eval_panels` must match bit for bit."""
    return quadrature._reduce_panels(f, lefts, rights)


def _scalar_complex(t):
    u = 1.0 + t * t
    e = np.exp(1j * t)
    return e / u + np.sin(t) * e / (u * u)


_M64 = np.exp(2j * np.pi * np.outer(np.arange(64), np.arange(64)) / 64.0) / (
    1.0 + np.arange(64)[None, :]
)


def _matrix64(t):
    return np.exp(-1j * t)[:, None, None] * _M64[None] / (1.0 + t[:, None, None] ** 2)


# (name, integrand, entries per value)
SLICE_INTEGRANDS = [
    ("scalar", _scalar_complex, 1),
    ("real", lambda t: np.cos(3.0 * t) / (1.0 + t * t), 1),  # dgemv, not zgemv
    ("width201", _wide_float, 201),
    ("64x64", _matrix64, 4096),
]


def _slice_cases():
    for name, f, width in SLICE_INTEGRANDS:
        # a 64x64 value is 64 KB a point: an unknown width's first slice of
        # 273 panels would hold 268 MB, so that case runs with its width only
        for known in (None, width) if width < 4096 else (width,):
            step = quadrature._slice_panels(known)
            sizes = {max(step - 1, 1), step, step + 1, 2 * step + 1}
            # and sizes beside multiples of 16 panels, where a reduction that
            # depends on a panel's row position in a BLAS matrix-vector
            # kernel rounds differently when a batch is cut
            if width < 4096:
                sizes |= {271, 545} if known in (None, 1) else {15, 16, 17, 33}
            for n in sorted(sizes):
                yield pytest.param(f, known, n, id=f"{name}-{'known' if known else 'first'}-{n}")


class TestPanelSlices:
    """`_eval_panels` calls the integrand on slices of whole panels; the
    result must equal the one-call evaluation exactly."""

    @pytest.mark.parametrize("f,width,n", list(_slice_cases()))
    def test_bit_identical_to_one_call(self, f, width, n):
        lefts = np.linspace(-30.0, 30.0, n + 1)[:-1]
        rights = lefts + 60.0 / n
        kron, errs = _eval_panels(f, lefts, rights, width)
        ref_kron, ref_errs = _eval_panels_one_call(f, lefts, rights)
        assert kron.shape == ref_kron.shape and kron.dtype == ref_kron.dtype
        assert np.array_equal(kron, ref_kron)
        assert np.array_equal(errs, ref_errs)

    def test_slice_sizes(self):
        assert quadrature._slice_panels(None) == quadrature._slice_panels(1) == 273
        assert quadrature._slice_panels(201) == 21  # 315 points, 63,315 entries
        assert quadrature._slice_panels(2**16 // 30) == 2  # 30 points
        assert quadrature._slice_panels(4096) == 1
        assert quadrature._slice_panels(10**6) == 1  # never less than a panel

    def test_non_finite_value_in_a_later_slice(self):
        lefts = np.arange(600.0)

        def f(t):
            return np.where(t > 590.0, np.nan, 1.0 / (1.0 + t * t))

        with pytest.raises(DepthExceeded, match="non-finite integrand value inside a panel"):
            _eval_panels(f, lefts, lefts + 1.0, 1)

    @pytest.mark.parametrize(
        "f,a,b,max_depth",
        [
            # every panel splits every round until depth 14: rounds of up to 8,192 panels
            (lambda t: np.sin(1e12 * t), 0.0, 1.0, 14),
            (lambda t: np.sin(1e12 * t)[:, None] * np.linspace(0.1, 3.0, 201), 0.0, 1.0, 10),
            (_matrix64, -30.0, 30.0, _DEPTH),
        ],
        ids=["scalar", "width201", "64x64"],
    )
    def test_every_call_after_the_first_is_bounded(self, f, a, b, max_depth, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
        calls = []

        def recorded(t):
            out = np.asarray(f(t))
            calls.append((len(t), out.size))
            return out

        res = integrate_interval(recorded, a, b, CFG, strict=False)
        assert sum(points for points, _ in calls) == res.n_evals
        assert len(calls) > 2
        for points, entries in calls[1:]:
            assert points <= 2**12 and entries <= 2**16, (points, entries)

    def test_round_memory_is_bounded(self):
        """One round of 1,420 panels (21,300 points) of a scalar complex
        integrand with several temporaries: the one-call evaluation peaks at
        about 5x the batch's complex values, the sliced one well under 2x."""
        lefts = np.linspace(0.0, 1419.0, 1420)
        rights = lefts + 1.0
        values_nbytes = 15 * len(lefts) * 16
        _eval_panels(_scalar_complex, lefts, rights, 1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _eval_panels(_scalar_complex, lefts, rights, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * values_nbytes, peak / values_nbytes

    @pytest.mark.parametrize(
        "f",
        [lambda t: np.cos(3.0 * t) / (1.0 + t * t), _scalar_complex, _wide_float, _matrix_valued],
        ids=["real", "complex", "width201", "3x3"],
    )
    def test_random_cuts_equal_one_call(self, f):
        """A batch cut at random points and reduced piece by piece equals the
        whole batch reduced in one call, bit for bit: each panel's sums come
        from that panel alone, whatever else shares its integrand call."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 600))
            lefts = np.sort(rng.uniform(-40.0, 40.0, n))
            rights = lefts + rng.uniform(0.01, 2.0, n)
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
            ref_kron, ref_errs = quadrature._reduce_panels(f, lefts, rights)
            pieces = [
                quadrature._reduce_panels(f, l, r)
                for l, r in zip(np.split(lefts, cuts), np.split(rights, cuts))
            ]
            assert np.array_equal(np.concatenate([k for k, _ in pieces]), ref_kron), n
            assert np.array_equal(np.concatenate([e for _, e in pieces]), ref_errs), n

    @pytest.mark.parametrize(
        "f,env",
        [
            (lambda t: np.cos(3.0 * t) / (1.0 + t * t) ** 2, ShapeEnvelope(t0=1.0, c=1.0, p=4.0)),
            (
                lambda t: np.exp(2j * t) / (1.0 + t * t) ** 2,
                ShapeEnvelope(t0=1.0, c=1.0, p=4.0),
            ),
        ],
        ids=["real", "complex"],
    )
    def test_line_integral_does_not_depend_on_slice_size(self, f, env, monkeypatch):
        ref = integrate_line(f, env, CFG)
        monkeypatch.setattr(quadrature, "_SLICE_POINTS", 105)  # 7 panels a call
        calls = []

        def recorded(t):
            calls.append(len(t))
            return f(t)

        res = integrate_line(recorded, env, CFG)
        assert max(calls) <= 105 and len(calls) > 10
        assert np.asarray(res.value).tobytes() == np.asarray(ref.value).tobytes()
        assert (res.error, res.n_evals, res.converged) == (ref.error, ref.n_evals, ref.converged)

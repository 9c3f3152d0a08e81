"""Quadrature engine tests: a closed-form battery with error-bound domination,
certified truncation, oscillatory tails, and supremum search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovcalc.errors import DepthExceeded, EnvelopeViolated, InvalidParameter
from besovcalc.quadrature import (
    ConstEnvelope,
    ExpEnvelope,
    PowerEnvelope,
    QuadratureConfig,
    ResolventEnvelope,
    StretchedExpEnvelope,
    SumEnvelope,
    envelope_product,
    integrate_halfline,
    integrate_interval,
    golden_max,
    integrate_line,
    sup_on_vertical_line,
)
from besovcalc.quadrature import _NODES, _WG_FULL, _WK, _eval_panels, _golden_max_multi

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
    ("exp3", lambda t: np.exp(-3.0 * t), ExpEnvelope(a=3.0, c=1.0), 1.0 / 3.0),
    (
        "cubic_decay",
        lambda t: 1.0 / (1.0 + t) ** 3,
        PowerEnvelope(p=3.0, c=1.0, t0=1.0),
        0.5,
    ),
    (
        "t_exp",
        lambda t: t * np.exp(-t),
        ExpEnvelope(a=0.9, c=10.0 * math.exp(-1.0)),
        1.0,
    ),
    ("lorentz", lambda t: 1.0 / (4.0 + t**2), ResolventEnvelope(m=1.0, shift=2.0), math.pi / 4),
    ("damped_cos", lambda t: np.exp(-t) * np.cos(t), ExpEnvelope(a=1.0, c=1.0), 0.5),
    ("inv_square", lambda t: (1.0 + t) ** -2, PowerEnvelope(p=2.0, c=1.0, t0=1.0), 1.0),
]

LINE_BATTERY = [
    ("poisson", lambda t: 1.0 / (1.0 + t**2), ResolventEnvelope(m=1.0, shift=1.0), math.pi),
    (
        "gaussian",
        lambda t: np.exp(-(t**2)),
        ExpEnvelope(a=1.0, c=1.0, t0=1.0),
        math.sqrt(math.pi),
    ),
    (
        "fourier_lorentz",
        lambda t: np.exp(2.0j * t) / (1.0 + t**2),
        ResolventEnvelope(m=1.0, shift=1.0, freq_lo=2.0, freq_hi=2.0),
        math.pi * math.exp(-2.0),
    ),
    (
        "double_lorentz",
        lambda t: 1.0 / ((1.0 + t**2) * (4.0 + t**2)),
        PowerEnvelope(p=4.0, c=1.0, t0=2.0),
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


def test_oscillatory_correction_multiple_frequencies():
    # int exp(i w t) / (1+t^2) dt = pi exp(-w); mixed band disables the
    # single-frequency shortcut but the IBP bound must still hold
    def f(t):
        return (np.exp(1j * t) + np.exp(3j * t)) / (1.0 + t**2)

    env = SumEnvelope.of(
        ResolventEnvelope(m=1.0, shift=1.0, freq_lo=1.0, freq_hi=1.0),
        ResolventEnvelope(m=1.0, shift=1.0, freq_lo=3.0, freq_hi=3.0),
    )
    exact = math.pi * (math.exp(-1.0) + math.exp(-3.0))
    res = integrate_line(f, env, CFG, tail_tol=1e-7)
    assert abs(res.value - exact) <= res.error + 1e-12


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
        integrate_halfline(lambda t: 1.0 / (1.0 + t), ExpEnvelope(a=1.0, c=1.0), CFG)


def test_depth_exceeded_on_hard_singularity():
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_depth=12)
    with pytest.raises(DepthExceeded):
        integrate_interval(lambda t: np.abs(t) ** -0.9, 1e-300, 1.0, cfg)


def test_nonintegrable_envelope_rejected():
    with pytest.raises(InvalidParameter):
        integrate_halfline(lambda t: np.ones_like(t), ConstEnvelope(c=1.0), CFG)


def test_determinism_bitwise():
    def f(t):
        return np.exp(1j * t) / (1.0 + t**2)

    env = ResolventEnvelope(m=1.0, shift=1.0, freq_lo=1.0, freq_hi=1.0)
    r1 = integrate_line(f, env, CFG)
    r2 = integrate_line(f, env, CFG)
    assert complex(r1.value) == complex(r2.value)
    assert r1.error == r2.error


class TestSupremum:
    def test_constant_modulus(self):
        # |exp(-(1+iy))| is constant in y
        sup = sup_on_vertical_line(
            lambda y: np.full_like(np.asarray(y, dtype=float), math.exp(-1.0)),
            ConstEnvelope(c=math.exp(-1.0)),
            CFG,
            window=10.0,
        )
        assert sup.value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_resolvent_peak(self):
        sup = sup_on_vertical_line(
            lambda y: 1.0 / (4.0 + np.asarray(y, dtype=float) ** 2),
            ResolventEnvelope(m=1.0, shift=2.0),
            CFG,
        )
        assert sup.value == pytest.approx(0.25, abs=1e-10)
        assert abs(sup.location) < 1e-6

    def test_cayley_case_split(self):
        # oracle: on the middle range the supremum of |f_n'| along the line
        # Re = x is n (n-1)^((n-1)/2) / (n+1)^((n+1)/2) / x
        n, x = 2, 0.5
        a_n = n - math.sqrt(n * n - 1.0)
        b_n = n + math.sqrt(n * n - 1.0)
        assert a_n < x < b_n
        oracle = n * (n - 1.0) ** ((n - 1) / 2.0) / (n + 1.0) ** ((n + 1) / 2.0) / x

        def phi(ys):
            z = x + 1j * np.asarray(ys, dtype=float)
            w = (z - 1.0) / (z + 1.0)
            return np.abs(2.0 * n * w ** (n - 1) / (z + 1.0) ** 2)

        sup = sup_on_vertical_line(phi, ResolventEnvelope(m=2.0 * n, shift=x + 1.0), CFG)
        assert sup.value == pytest.approx(oracle, abs=1e-6)

    def test_monotone_under_domination(self):
        s1 = sup_on_vertical_line(
            lambda y: 1.0 / (4.0 + np.asarray(y, dtype=float) ** 2),
            ResolventEnvelope(m=1.0, shift=2.0),
            CFG,
        )
        s2 = sup_on_vertical_line(
            lambda y: 1.0 / (1.0 + np.asarray(y, dtype=float) ** 2),
            ResolventEnvelope(m=1.0, shift=1.0),
            CFG,
        )
        assert s1.value <= s2.value + CFG.abs_tol

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
        calls = []

        def counted(u):
            calls.append(u)
            return phi(u)

        got = golden_max(counted, lo, hi, rounds)
        assert len(calls) == 2 + rounds
        assert all(type(u) is float for u in calls)
        xs, vs = _golden_max_multi(
            lambda us: np.array([phi(u) for u in us]), np.array([lo]), np.array([hi]), rounds
        )
        assert got == (xs[0], vs[0])


class TestEnvelopes:
    def test_tails_dominate(self):
        envs = [
            ExpEnvelope(a=2.0, c=3.0),
            PowerEnvelope(p=2.5, c=1.0, t0=1.0),
            ResolventEnvelope(m=2.0, shift=1.5),
            StretchedExpEnvelope(alpha=0.5, rho=1.0, c=1.0),
        ]
        for env in envs:
            T = max(env.t0, 2.0)
            # numeric tail of the bound must not exceed the closed form
            ts = np.linspace(T, T * 200, 400001)
            numeric = np.trapezoid([env.bound(t) for t in ts], ts)
            assert numeric <= env.tail(T) * (1.0 + 1e-3)

    def test_cutoff_meets_tolerance(self):
        env = PowerEnvelope(p=2.0, c=5.0, t0=1.0)
        T = env.cutoff(1e-6)
        assert env.effective_tail(T) <= 1e-6

    def test_product_rules(self):
        e1 = ResolventEnvelope(m=2.0, shift=1.0, freq_lo=-1.0, freq_hi=-1.0)
        e2 = ConstEnvelope(c=3.0)
        out = envelope_product(e1, e2)
        assert out.bound(5.0) == pytest.approx(3.0 * e1.bound(5.0))
        assert out.freq_lo == -1.0 and out.freq_hi == -1.0
        p = envelope_product(
            PowerEnvelope(p=2.0, c=1.0, t0=1.0), PowerEnvelope(p=1.0, c=2.0, t0=1.0)
        )
        assert p.p == 3.0 and p.c == 2.0

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            QuadratureConfig(max_depth=5)
        with pytest.raises(InvalidParameter):
            QuadratureConfig(abs_tol=-1.0)
        for bad in (math.nan, math.inf, -math.inf, 0.0):
            for name in ("abs_tol", "rel_tol", "line_trunc_factor"):
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

"""Operator calculus: resolvents, semigroups, profiles, the double-integral
calculus against oracles, and admission rules."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import besovcalc

from besovcalc.errors import (
    InvalidParameter,
    NotDiagonalizable,
    SingularShift,
    SpectrumError,
)
from besovcalc.functions import (
    HalfLineMeasure,
    cayley_pow,
    dilate,
    eta,
    exp_decay,
    laplace_transform,
    mul,
    resolvent,
    shift,
    vitse_reg,
)
from besovcalc import operators
from besovcalc.norms import b_norm
from besovcalc.operators import (
    MatrixOperator,
    _WEAK_BLOCK_ENTRIES,
    _expm,
    _gamma_inner,
    _resolvents_squared,
    _sectoriality_sup,
    _spectral_lipschitz,
    apply_calculus,
    apply_calculus_report,
    format_matrix_text,
    hp_apply,
    jordan_operator,
    oracle_apply,
    parse_operator_spec,
    profile,
    random_normal_operator,
    random_sectorial_operator,
    is_normal,
    read_matrix_text,
    resolvent_matrix,
    semigroup,
    semigroup_reconstruct_check,
)
from besovcalc.quadrature import (
    PowerEnvelope,
    QuadratureConfig,
    golden_max,
    integrate_line,
)

CFG = QuadratureConfig()


class TestBasics:
    def test_resolvent_scalar(self):
        A = MatrixOperator(np.array([[1.0]]))
        assert resolvent_matrix(A, 1.0)[0, 0] == pytest.approx(0.5)

    def test_resolvent_diag(self):
        A = parse_operator_spec("diag(1,2)")
        r = resolvent_matrix(A, 1j)
        assert r[0, 0] == pytest.approx(1.0 / (1.0 + 1j))
        assert r[1, 1] == pytest.approx(1.0 / (2.0 + 1j))

    def test_resolvent_jordan_inverse(self):
        A = jordan_operator(1.0, 2)
        r = resolvent_matrix(A, 0.0)
        assert np.allclose(r, [[1.0, -1.0], [0.0, 1.0]])

    def test_singular_shift(self):
        A = parse_operator_spec("diag(1,2)")
        with pytest.raises(SingularShift):
            resolvent_matrix(A, -1.0)

    def test_semigroup_jordan(self):
        A = jordan_operator(1.0, 2)
        expect = math.exp(-1.0) * np.array([[1.0, -1.0], [0.0, 1.0]])
        assert np.allclose(semigroup(A, 1.0), expect, atol=1e-12)

    def test_semigroup_zero(self):
        A = MatrixOperator(np.zeros((2, 2)))
        assert np.allclose(semigroup(A, 3.0), np.eye(2))

    def test_semigroup_matches_eigendecomposition(self):
        A = random_normal_operator(4, seed=2)
        t = 0.7
        lam, v = np.linalg.eig(A.matrix)
        oracle = v @ np.diag(np.exp(-t * lam)) @ np.linalg.inv(v)
        assert np.max(np.abs(semigroup(A, t) - oracle)) < 1e-10


def _kernel_cases():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    jordan = jordan_operator(0.5 + 2.0j, 3).matrix
    return {
        "normal": random_normal_operator(6, seed=3).matrix,
        "nonnormal_dense": v @ np.diag([0.3, 1.0 + 2.0j, 2.0, 4.0 - 1.0j]) @ np.linalg.inv(v),
        "sectorial": random_sectorial_operator(5, seed=4, angle=1.2).matrix,
        "jordan": jordan,
        "jordan_lower": jordan.T.copy(),
        "jordan_slow": jordan_operator(1e-6 + 1.0j, 3).matrix,
        "diagonal": np.diag([1.0, 2.0 + 1.0j, 0.5j]),
        "scalar": np.array([[0.7 - 3.0j]]),
        "empty": np.zeros((0, 0)),
    }


_KERNEL_TS = 2.0 ** np.arange(-12.0, 45.0, 1.0)


class TestExpmKernel:
    """The numpy scaling-and-squaring kernel against scipy.linalg.expm."""

    @pytest.mark.parametrize("name", sorted(_kernel_cases()))
    def test_matches_scipy(self, name):
        A = MatrixOperator(_kernel_cases()[name])
        got = semigroup(A, _KERNEL_TS)
        assert got.shape == (len(_KERNEL_TS), A.n, A.n)
        for t, g in zip(_KERNEL_TS, got):
            ref = scipy.linalg.expm(-t * A.matrix)
            scale = np.abs(ref).max() if ref.size else 0.0
            # rounding -t A alone moves exp(-t A) by about eps * t * ||A|| relative
            rtol = 1e-13 * (1.0 + t * A.norm2)
            assert np.abs(g - ref).max(initial=0.0) <= rtol * scale + 1e-300, (name, t)

    @pytest.mark.parametrize("name", sorted(_kernel_cases()))
    def test_batched_equals_one_at_a_time(self, name):
        A = MatrixOperator(_kernel_cases()[name])
        one_by_one = np.array([semigroup(A, t) for t in _KERNEL_TS])
        assert np.array_equal(semigroup(A, _KERNEL_TS), one_by_one)

    def test_diagonal_exact(self):
        lam = np.array([1.0, 2.0 + 1.0j, 0.5j])
        got = semigroup(MatrixOperator(np.diag(lam)), _KERNEL_TS)
        for t, g in zip(_KERNEL_TS, got):
            assert np.array_equal(g, np.diag(np.exp(-t * lam)))

    def test_jordan_closed_form(self):
        # exp(-t J) = exp(-t lam) (I - t N + t^2 N^2 / 2) for a 3x3 Jordan block
        lam = 1e-6 + 1.0j
        A = jordan_operator(lam, 3)
        n1 = np.diag(np.ones(2), 1)
        for t, g in zip(_KERNEL_TS, semigroup(A, _KERNEL_TS)):
            exact = np.exp(-t * lam) * (np.eye(3) - t * n1 + 0.5 * t * t * n1 @ n1)
            assert np.abs(g - exact).max() <= 1e-13 * np.abs(exact).max() + 1e-300

    @pytest.mark.parametrize(
        "lam", [[1.0j, -1.0j, 1.0], [0.5, 1.0 + 3.0j, 2.0 - 1.0j, 0.25j]], ids=["rot_iim1", "rot4"]
    )
    def test_normal_error_at_most_twice_scipy(self, lam):
        # Unitarily rotated diagonals, where the eigen formula is exact up to
        # rounding.  Both kernels lose about eps * t * ||A|| to the phase of
        # the unitary part, and for one rotation that loss is a random draw
        # (at t = 2^44 either kernel's error ranges over a factor of 50), so
        # the errors are averaged over eight rotations at each t.
        rng = np.random.default_rng(11)
        n = len(lam)
        lam = np.array(lam)
        ours = np.zeros(len(_KERNEL_TS))
        theirs = np.zeros(len(_KERNEL_TS))
        for _ in range(8):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            A = MatrixOperator(q @ np.diag(lam) @ q.conj().T)
            for k, (t, g) in enumerate(zip(_KERNEL_TS, semigroup(A, _KERNEL_TS))):
                exact = q @ np.diag(np.exp(-t * lam)) @ q.conj().T
                ours[k] += np.abs(g - exact).max() / 8.0
                theirs[k] += np.abs(scipy.linalg.expm(-t * A.matrix) - exact).max() / 8.0
        assert np.all(ours <= 2.0 * theirs + 1e-14), ours / (2.0 * theirs + 1e-14)
        assert theirs[-1] > 1e-4  # the phase loss at t = 2^44 is really there

    def test_non_finite_input_gives_non_finite_output(self):
        stack = np.array(
            [
                [[np.nan, 1.0], [0.0, 1.0]],
                [[np.inf, 0.0], [0.0, 1.0]],
                [[1.0, 2.0], [3.0, 4.0]],
                [[1.0, -np.inf], [0.5, 1.0]],
            ],
            dtype=complex,
        )
        got = _expm(stack)
        assert np.all(np.isnan(got[[0, 1, 3]]))
        assert np.allclose(got[2], scipy.linalg.expm(stack[2]), rtol=1e-13)

    def test_growth_overflow_is_non_finite(self):
        # a doctored generator with spectrum in the left half-plane overflows
        got = _expm(1e4 * np.array([[[0.5, 1.0], [0.25, 0.5]]]))
        assert not np.all(np.isfinite(got))


class TestBadInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            MatrixOperator(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidParameter):
            MatrixOperator(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_non_finite_spec_rejected(self):
        with pytest.raises(InvalidParameter):
            parse_operator_spec("diag(nan,1)")
        with pytest.raises(InvalidParameter):
            read_matrix_text("2\n1+0i nan+0i\n0+0i 1+0i\n")

    @pytest.mark.parametrize(
        "t", [math.nan, -1.0, -1e-300, math.inf, [0.5, math.nan], [1.0, -2.0]]
    )
    def test_bad_time_rejected(self, t):
        A = parse_operator_spec("diag(1,2)")
        with pytest.raises(InvalidParameter):
            semigroup(A, t)

    def test_time_array_shape(self):
        A = parse_operator_spec("diag(1,2)")
        assert semigroup(A, 0.5).shape == (2, 2)
        assert semigroup(A, [0.5]).shape == (1, 2, 2)
        assert semigroup(A, np.zeros(0)).shape == (0, 2, 2)
        with pytest.raises(InvalidParameter):
            semigroup(A, np.ones((2, 2)))


def test_runtime_does_not_import_scipy():
    """numpy is the only runtime dependency: profile, the calculus and the
    Hille-Phillips route never load scipy."""
    script = textwrap.dedent(
        """
        import sys
        import besovcalc
        import besovcalc.cli
        from besovcalc.functions import HalfLineMeasure, exp_decay
        from besovcalc.operators import (
            apply_calculus_report, hp_apply, jordan_operator, parse_operator_spec, profile,
        )
        A = parse_operator_spec("diag(1,2)")
        profile(A)
        apply_calculus_report(A, exp_decay(1.0))
        hp_apply(jordan_operator(1.0, 2), HalfLineMeasure(density=("exp", -2.0, 1.0)))
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """
    )
    src = os.path.dirname(os.path.dirname(besovcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_norms_and_pairings_do_not_import_numpy_random():
    """numpy.random costs about 6 MB of resident memory; only the profile's
    sample pairs and the *_random operator specs need it."""
    script = textwrap.dedent(
        """
        import sys
        import besovcalc
        import besovcalc.cli
        from besovcalc.duality import pairing
        from besovcalc.functions import exp_decay, resolvent
        from besovcalc.norms import b_norm
        b_norm(exp_decay(1.0))
        pairing(resolvent(2.0), exp_decay(1.0))
        assert "numpy.random" not in sys.modules
        """
    )
    src = os.path.dirname(os.path.dirname(besovcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


class TestAdmission:
    def test_left_halfplane_rejected(self):
        with pytest.raises(SpectrumError):
            MatrixOperator(np.array([[-0.5]]))

    def test_imaginary_jordan_rejected(self):
        with pytest.raises(SpectrumError):
            MatrixOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SpectrumError):
            jordan_operator(2j, 2)

    def test_imaginary_semisimple_accepted(self):
        A = parse_operator_spec("diag(i,-i)")
        assert A.diagonalizable
        assert profile(A, CFG).K == pytest.approx(1.0, abs=1e-9)

    def test_defective_positive_accepted(self):
        A = MatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not A.diagonalizable
        assert A.jordan_blocks == [(pytest.approx(1.0), 2)]

    def test_size_cap(self):
        with pytest.raises(InvalidParameter):
            MatrixOperator(np.eye(65))


class TestProfile:
    def test_scalar_one(self):
        p = profile(MatrixOperator(np.array([[1.0]])), CFG)
        assert p.K == pytest.approx(1.0, abs=1e-9)
        assert p.M == pytest.approx(1.0, abs=1e-6)
        # oracle: alpha * int d beta / ((alpha+1)^2 + beta^2) = pi alpha/(alpha+1) -> pi
        assert p.gamma_hat == pytest.approx(2.0, abs=1e-3)
        assert p.gamma_weak_sample <= p.gamma_hat + 1e-9

    def test_gamma_floor(self):
        for spec in ["diag(1)", "diag(1,2)", "diag(i,-i)"]:
            p = profile(parse_operator_spec(spec), CFG)
            assert p.gamma_hat >= 4.0 / math.e - 1e-6

    def test_nonsectorial_imaginary(self):
        p = profile(parse_operator_spec("diag(i,-i)"), CFG)
        assert math.isinf(p.M)

    def test_sectoriality_complex_eigenvalue(self):
        # oracle for diagonal operators: sup |z/(z+lam)| = |lam| / Re lam
        lam = 1.0 + 2.0j
        p = profile(MatrixOperator(np.array([[lam]])), CFG)
        assert p.M == pytest.approx(abs(lam) / lam.real, abs=1e-5)

    def test_empty_operator_rejected(self):
        # a 0x0 matrix is admitted (the _expm kernel takes it) but has no profile
        A = parse_operator_spec("diag()")
        assert A.n == 0
        with pytest.raises(InvalidParameter):
            profile(A, CFG)
        with pytest.raises(InvalidParameter):
            apply_calculus_report(A, exp_decay(1.0), CFG)


# normal operators that take the spectral path, as (id, matrix)
NORMAL_CASES = [
    ("diag(1,2)", np.diag([1.0, 2.0])),
    ("diag(1,1,2)", np.diag([1.0, 1.0, 2.0])),
    *((f"normal_random({n})", random_normal_operator(n, 3).matrix) for n in (1, 3, 12)),
]


def _dense_twin(matrix, monkeypatch):
    """The same matrix as an operator that the normality test turns away."""
    with monkeypatch.context() as m:
        m.setattr(operators, "is_normal", lambda A: False)
        A = MatrixOperator(matrix)
        assert A.spectral() is None
    return A


class TestSpectralPath:
    @pytest.mark.parametrize("name,matrix", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_profile_matches_dense(self, name, matrix, monkeypatch):
        A = MatrixOperator(matrix)
        spec = A.spectral()
        assert spec is not None
        assert spec.residual <= 1e-12 * max(1.0, A.norm2)
        fast, dense = profile(A, CFG), profile(_dense_twin(matrix, monkeypatch), CFG)
        for key in ("K", "M", "gamma_hat", "gamma_weak_sample"):
            assert getattr(fast, key) == pytest.approx(getattr(dense, key), rel=1e-10), key

    @pytest.mark.parametrize("name,matrix", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_apply_matches_dense(self, name, matrix, monkeypatch):
        A, B = MatrixOperator(matrix), _dense_twin(matrix, monkeypatch)
        fs = [resolvent(1.5)] if A.n > 3 else [resolvent(1.5), exp_decay(1.0), cayley_pow(2)]
        for f in fs:
            fast = apply_calculus_report(A, f, CFG)
            dense = apply_calculus_report(B, f, CFG)
            gap = float(np.max(np.abs(fast.value - dense.value)))
            assert gap <= fast.error + dense.error, f.label
            assert float(np.max(np.abs(fast.value - oracle_apply(A, f)))) <= fast.error

    def test_perturbed_normal_takes_dense_path(self):
        A = MatrixOperator(np.diag([1.0, 2.0]) + 1e-6 * np.eye(2, k=1))
        assert not is_normal(A)
        assert A.spectral() is None

    def test_rotated_repeated_eigenvalue(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        lam = np.array([1.0, 1.0, 1.0 + 2.0j, 2.0])
        spec = MatrixOperator(q @ np.diag(lam) @ q.conj().T).spectral()
        assert spec is not None
        assert np.allclose(np.sort_complex(spec.lam.round(12)), lam, atol=1e-13)
        assert np.allclose(spec.q.conj().T @ spec.q, np.eye(4), atol=1e-13)

    def test_residual_charged_to_error(self):
        A = MatrixOperator(np.diag([1.0, 2.0]))
        f = resolvent(1.0)
        base = apply_calculus_report(A, f, CFG).error
        A.spectral().residual = 1e-3
        # max |f[lam_i, lam_j]| = |f'(1)| = 1/4 for r_1 on {1, 2}
        assert apply_calculus_report(A, f, CFG).error == pytest.approx(base + 0.25e-3, rel=1e-9)

    def test_lipschitz_closed_form(self):
        # r_1 on {1, 2}: f'(1) = -1/4, f'(2) = -1/9, f[1, 2] = -1/6
        lam = np.array([1.0, 2.0], dtype=complex)
        assert _spectral_lipschitz(resolvent(1.0), lam) == pytest.approx(0.25, rel=1e-12)
        # a pair closer than the cancellation guard takes the larger endpoint slope
        near = np.array([1.0, 1.0 + 1e-6], dtype=complex)
        assert _spectral_lipschitz(resolvent(1.0), near) == pytest.approx(0.25, rel=1e-12)


def _unit_pairs(n, npairs=200, seed=42):
    """Unit-norm sample pairs as `profile` draws them."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, npairs)) + 1j * rng.normal(size=(n, npairs))
    ys = rng.normal(size=(n, npairs)) + 1j * rng.normal(size=(n, npairs))
    return xs / np.linalg.norm(xs, axis=0), ys / np.linalg.norm(ys, axis=0)


class _Captured(Exception):
    pass


def _weak_integrand(A, pairs, alpha=0.5):
    """The integrand that _gamma_inner hands to integrate_line for weak samples."""
    got = []

    def capture(f, *args, **kwargs):
        got.append(f)
        raise _Captured

    with pytest.MonkeyPatch.context() as m:
        m.setattr(operators, "integrate_line", capture)
        with pytest.raises(_Captured):
            _gamma_inner(A, alpha, CFG, pairs=pairs)
    return got[0]


def _weak_operator(path, n, monkeypatch):
    if path == "spectral":
        A = random_normal_operator(n, 3)
        assert A.spectral() is not None
        return A
    return _dense_twin(random_sectorial_operator(n, 4, 0.5).matrix, monkeypatch)


def _weak_reference(A, alpha, betas, pairs):
    """One-shot weak samples: the three-operand einsum on the dense path,
    d @ weights on the spectral one."""
    xs, ys = pairs
    zs = alpha + 1j * betas
    spec = A.spectral()
    if spec is None:
        inv = np.linalg.inv(zs[:, None, None] * np.eye(A.n) + A.matrix)
        r2 = inv @ inv
        return np.linalg.svd(r2, compute_uv=False)[:, 0], np.einsum(
            "kij,jp,ip->kp", r2, xs, ys.conj()
        )
    qh = spec.q.conj().T
    d = (zs[:, None] + spec.lam) ** -2
    return np.abs(d).max(axis=1), d @ ((qh @ xs) * (qh @ ys).conj())


class TestWeakSamples:
    @pytest.mark.parametrize("n", [1, 3, 12])
    @pytest.mark.parametrize("path", ["spectral", "dense"])
    def test_blocks_match_one_shot(self, path, n, monkeypatch):
        A = _weak_operator(path, n, monkeypatch)
        pairs = _unit_pairs(n)
        f = _weak_integrand(A, pairs)
        width = pairs[0].shape[1] * (n if path == "dense" else 1)
        step = _WEAK_BLOCK_ENTRIES // width
        betas_all = np.linspace(-30.0, 30.0, 570)
        for k in (1, step - 1, step, step + 1, 570):
            betas = betas_all[:k]
            out = f(betas)
            opn, weak = _weak_reference(A, 0.5, betas, pairs)
            assert out.shape == (k, 1 + pairs[0].shape[1])
            assert np.array_equal(out[:, 0], opn)
            weak = np.abs(weak)
            assert float(np.max(np.abs(out[:, 1:] - weak))) <= 1e-13 * float(weak.max()), k

    @pytest.mark.parametrize("path,n", [("dense", 3), ("spectral", 3), ("spectral", 12)])
    def test_working_memory(self, path, n, monkeypatch):
        """One call at 570 points (38 panels) allocates at most twice its output;
        a concatenated or one-shot weak block took three times or more."""
        A = _weak_operator(path, n, monkeypatch)
        f = _weak_integrand(A, _unit_pairs(n))
        betas = np.linspace(-30.0, 30.0, 570)
        out = f(betas)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            f(betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * out.nbytes, peak / out.nbytes


@pytest.mark.parametrize("n", [1, 3, 12, 64])
def test_resolvents_squared_bit_identical(n):
    rng = np.random.default_rng(n)
    a = np.diag(rng.uniform(0.5, 3.0, n)) + 0.1 * np.triu(rng.normal(size=(n, n)), 1)
    A = MatrixOperator(a)
    zs = 0.7 + 1j * np.linspace(-5.0, 5.0, 9)
    inv = np.linalg.inv(zs[:, None, None] * np.eye(n) + A.matrix)
    assert np.array_equal(_resolvents_squared(A, zs), inv @ inv)


def _sectoriality_loop(A):
    """The per-y solve loop that the batched grid replaced, as a reference."""
    scale = max(1.0, A.norm2)

    def phi(y):
        if abs(y) <= 1e-30:
            return 0.0 if np.min(np.abs(A.eigenvalues)) > 1e-9 else 1.0
        m = 1j * y * np.eye(A.n) + A.matrix
        return abs(y) * np.linalg.norm(np.linalg.solve(m, np.eye(A.n)), 2)

    grid = np.geomspace(1e-6, 1e3 * scale, 60)
    ys = np.concatenate([-grid[::-1], [0.0], grid])
    vals = np.array([phi(y) for y in ys])
    best = max(float(vals.max()), 1.0)
    k = int(vals.argmax())
    if 0 < k < len(ys) - 1:
        best = max(best, golden_max(phi, float(ys[k - 1]), float(ys[k + 1]), 48)[1])
    return best


@pytest.mark.parametrize("seed", [1, 3, 8])
def test_dense_sectoriality_grid_matches_loop(seed):
    A = random_sectorial_operator(4, seed, 0.5236)
    assert A.spectral() is None
    assert _sectoriality_sup(A) == pytest.approx(_sectoriality_loop(A), rel=1e-12)


class TestApplyCalculus:
    def test_scalar_resolvent(self):
        A = MatrixOperator(np.array([[2.0]]))
        val = apply_calculus(A, resolvent(1.0), CFG)
        assert abs(val[0, 0] - 1.0 / 3.0) < 1e-5

    def test_diag_exponential(self):
        A = parse_operator_spec("diag(1,2)")
        val = apply_calculus(A, exp_decay(1.0), CFG)
        assert np.max(np.abs(val - np.diag([math.exp(-1.0), math.exp(-2.0)]))) < 1e-5

    def test_jordan_cayley_square(self):
        A = jordan_operator(1.0, 2)
        val = apply_calculus(A, cayley_pow(2), CFG)
        v = (A.matrix - np.eye(2)) @ np.linalg.inv(A.matrix + np.eye(2))
        assert np.max(np.abs(val - v @ v)) < 1e-4

    def test_oracle_equivalence_random(self):
        A = random_normal_operator(5, seed=13)
        for f in [exp_decay(1.0), resolvent(1.5), vitse_reg(1.0)]:
            gap = np.max(np.abs(apply_calculus(A, f, CFG) - oracle_apply(A, f, CFG)))
            assert gap < 1e-4

    def test_homomorphism(self):
        A = parse_operator_spec("diag(1,2)")
        f, g = exp_decay(1.0), resolvent(1.0)
        left = apply_calculus(A, mul(f, g), CFG)
        right = apply_calculus(A, f, CFG) @ apply_calculus(A, g, CFG)
        assert np.max(np.abs(left - right)) < 1e-4

    def test_calculus_bound(self):
        A = random_normal_operator(3, seed=4)
        f = cayley_pow(2)
        norm_fa = np.linalg.norm(apply_calculus(A, f, CFG), 2)
        assert norm_fa <= profile(A, CFG).gamma_hat * b_norm(f, CFG).value + 1e-4

    def test_eigenvector_rule(self):
        A = random_normal_operator(4, seed=8)
        lam, v = np.linalg.eig(A.matrix)
        f = exp_decay(1.0)
        fa = apply_calculus(A, f, CFG)
        x = v[:, 1]
        assert np.linalg.norm(fa @ x - complex(f(lam[1])) * x) < 1e-5

    def test_shift_law(self):
        A = parse_operator_spec("diag(1,2)")
        a = 0.5
        left = apply_calculus(
            MatrixOperator(A.matrix + a * np.eye(2)), resolvent(1.0), CFG
        )
        right = apply_calculus(A, shift(resolvent(1.0), a), CFG)
        assert np.max(np.abs(left - right)) < 1e-5

    def test_dilation_law(self):
        A = parse_operator_spec("diag(1,2)")
        b = 2.0
        left = apply_calculus(MatrixOperator(b * A.matrix), resolvent(1.0), CFG)
        right = apply_calculus(A, dilate(resolvent(1.0), b), CFG)
        assert np.max(np.abs(left - right)) < 1e-5

    def test_extrapolated_path(self):
        A = parse_operator_spec("diag(i,-i)")
        rep = apply_calculus_report(A, exp_decay(1.0), CFG)
        assert rep.extrapolated
        oracle = oracle_apply(A, exp_decay(1.0), CFG)
        assert np.max(np.abs(rep.value - oracle)) < 1e-4

    def test_weak_plancherel_bound(self):
        # for normal matrices: int |<(a+ib+A)^(-2) x, y>| db <= pi K^2 / a
        A = random_normal_operator(3, seed=21)
        K = profile(A, CFG).K
        rng = np.random.default_rng(0)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        eye = np.eye(3)
        for alpha in (0.5, 2.0):

            def integrand(betas):
                zs = alpha + 1j * np.asarray(betas, dtype=float)
                mats = zs[:, None, None] * eye[None] + A.matrix[None]
                inv = np.linalg.inv(mats)
                r2 = inv @ inv
                return np.abs(np.einsum("kij,j,i->k", r2, x, y.conj()))

            env = PowerEnvelope(p=2.0, c=4.0, t0=2.0 * (alpha + A.norm2) + 1.0)
            val = integrate_line(integrand, env, CFG, tail_tol=1e-7, strict=False)
            assert float(np.real(val.value)) <= math.pi * K**2 / alpha + 1e-4


class TestHPApply:
    def test_delta_zero(self):
        A = parse_operator_spec("diag(1,2)")
        assert np.allclose(hp_apply(A, HalfLineMeasure(atoms=((0.0, 1.0),)), CFG), np.eye(2))

    def test_cayley_measure(self):
        A = parse_operator_spec("diag(1,2)")
        mu = HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0))
        got = hp_apply(A, mu, CFG)
        assert np.max(np.abs(got - np.diag([0.0, 1.0 / 3.0]))) < 1e-8

    def test_lebesgue(self):
        A = MatrixOperator(np.array([[1.0]]))
        mu = HalfLineMeasure(density=("lebesgue", 1.0, 0.0, 1.0))
        assert hp_apply(A, mu, CFG)[0, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_compatibility_with_calculus(self):
        A = parse_operator_spec("diag(1,2)")
        mu = HalfLineMeasure(atoms=((0.0, 1.0), (1.0, 0.5)), density=("exp", -2.0, 1.0))
        f = laplace_transform(mu)
        gap = np.max(np.abs(apply_calculus(A, f, CFG) - hp_apply(A, mu, CFG)))
        assert gap < 1e-4


class TestOracle:
    def test_diag_cayley(self):
        A = parse_operator_spec("diag(1,2)")
        got = oracle_apply(A, cayley_pow(1), CFG)
        assert np.max(np.abs(got - np.diag([0.0, 1.0 / 3.0]))) < 1e-12

    def test_jordan_exp(self):
        A = jordan_operator(1.0, 2)
        got = oracle_apply(A, exp_decay(1.0), CFG)
        expect = math.exp(-1.0) * np.array([[1.0, -1.0], [0.0, 1.0]])
        assert np.max(np.abs(got - expect)) < 1e-9

    def test_jordan_taylor_third_order(self):
        A = jordan_operator(2.0, 3)
        got = oracle_apply(A, resolvent(1.0), CFG)
        # Taylor coefficients of 1/(z+1) at z=2: 1/3, -1/9, 1/27
        expect = np.array(
            [[1 / 3, -1 / 9, 1 / 27], [0, 1 / 3, -1 / 9], [0, 0, 1 / 3]]
        )
        assert np.max(np.abs(got - expect)) < 1e-8

    def test_random_normal_eta(self):
        A = random_normal_operator(4, seed=17)
        lam, v = np.linalg.eig(A.matrix)
        expect = v @ np.diag(np.asarray(eta()(lam))) @ np.linalg.inv(v)
        assert np.max(np.abs(oracle_apply(A, eta(), CFG) - expect)) < 1e-8

    def test_two_blocks_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = 1.0
        m[0, 1] = m[2, 3] = 1.0
        A = MatrixOperator(m)
        with pytest.raises(NotDiagonalizable):
            oracle_apply(A, exp_decay(1.0), CFG)


class TestReconstruction:
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_scalar(self, t):
        A = MatrixOperator(np.array([[1.0]]))
        resid = semigroup_reconstruct_check(A, t, np.array([1.0]), np.array([1.0]), CFG)
        assert resid < 1e-6

    def test_diag_random_vectors(self):
        A = parse_operator_spec("diag(1,3)")
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            y = rng.normal(size=2) + 1j * rng.normal(size=2)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            assert semigroup_reconstruct_check(A, 0.7, x, y, CFG) < 1e-5


class TestIO:
    def test_round_trip(self):
        A = random_normal_operator(3, seed=1)
        text = format_matrix_text(A.matrix)
        B = read_matrix_text(text)
        assert np.max(np.abs(A.matrix - B.matrix)) < 1e-15

    def test_read_format(self):
        B = read_matrix_text("2\n1+0i 0+1i\n0+0i 2-1i\n")
        assert B.matrix[0, 1] == 1j
        assert B.matrix[1, 1] == 2 - 1j

    def test_bad_row_count(self):
        with pytest.raises(InvalidParameter):
            read_matrix_text("2\n1+0i 0+0i\n")

    def test_family_specs(self):
        assert parse_operator_spec("diag(1,2)").n == 2
        assert parse_operator_spec("jordan(lambda=1,m=3)").n == 3
        A = parse_operator_spec("normal_random(4,seed=7)")
        assert A.n == 4 and A.diagonalizable
        B = parse_operator_spec("sectorial_random(4,seed=3,angle=0.5)")
        assert B.n == 4
        assert math.isfinite(profile(B, CFG).M)

    def test_seeded_reproducibility(self):
        a = random_normal_operator(4, seed=9).matrix
        b = random_normal_operator(4, seed=9).matrix
        assert np.array_equal(a, b)

    def test_spectrum_box(self):
        A = parse_operator_spec("normal_random(6,seed=2,box=[1,2,-0.5,0.5])")
        lam = A.eigenvalues
        assert np.all(lam.real >= 1.0 - 1e-9) and np.all(lam.real <= 2.0 + 1e-9)
        assert np.all(np.abs(lam.imag) <= 0.5 + 1e-9)


class TestErrorPaths:
    def test_profile_divergence(self):
        import warnings

        from besovcalc.errors import ProfileDivergence

        A = MatrixOperator(np.array([[1.0]]))
        A.matrix = np.array([[-0.1 + 0j]])  # doctored: growing semigroup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ProfileDivergence):
                profile(A, CFG)

    def test_integral_not_norm_convergent(self):
        from dataclasses import replace as dreplace

        from besovcalc.errors import IntegralNotNormConvergent
        from besovcalc.functions import Profiles, exp_decay as _e
        from besovcalc.quadrature import ConstEnvelope

        base = _e(1.0)
        prof = Profiles(
            deriv_line=base.profiles.deriv_line,
            modulus_line=base.profiles.modulus_line,
            deriv_outer=ConstEnvelope(c=1.0),
            modulus_outer=ConstEnvelope(c=1.0),
        )
        bad = dreplace(base, profiles=prof)
        with pytest.raises(IntegralNotNormConvergent):
            apply_calculus(MatrixOperator(np.array([[1.0]])), bad, CFG)

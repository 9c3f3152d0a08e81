"""Operator calculus: resolvents, semigroups, profiles, the double-integral
calculus against oracles, and admission rules."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import besovcalc

from besovcalc.errors import (
    InvalidParameter,
    NonConvergence,
    SingularShift,
    SpectrumError,
)
from besovcalc.functions import (
    HalfLineMeasure,
    cayley_pow,
    dilate,
    eta,
    exp_decay,
    exp_inv_shift,
    laplace_transform,
    mul,
    resolvent,
    shift,
    vitse_reg,
)
from besovcalc import operators, quadrature
from besovcalc.norms import b_norm
from besovcalc.operators import (
    MatrixOperator,
    _WEAK_BLOCK_ENTRIES,
    _SeededDraws,
    _expm,
    _resolvents_squared,
    _sectoriality_sup,
    _semigroup_sup,
    _spectral_lipschitz,
    apply_calculus,
    apply_calculus_report,
    format_matrix_text,
    gamma_hat,
    gamma_weak_sample,
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
    DYADIC_GRID,
    QuadratureConfig,
    ShapeEnvelope,
    _bracket_row,
    _refine_max,
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

    @pytest.mark.parametrize(
        "z", [math.nan, complex(1.0, math.nan), math.inf], ids=["nan", "nan-imag", "inf"]
    )
    def test_non_finite_shift_rejected(self, z):
        A = parse_operator_spec("diag(1,2)")
        with pytest.raises(InvalidParameter, match="finite"):
            resolvent_matrix(A, z)

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

    @pytest.mark.parametrize("m", [True, 0, 1.0, 2.5])
    def test_jordan_size_must_be_a_positive_integer(self, m):
        with pytest.raises(InvalidParameter, match="integer m >= 1"):
            jordan_operator(1.0, m)

    def test_time_array_shape(self):
        A = parse_operator_spec("diag(1,2)")
        assert semigroup(A, 0.5).shape == (2, 2)
        assert semigroup(A, [0.5]).shape == (1, 2, 2)
        assert semigroup(A, np.zeros(0)).shape == (0, 2, 2)
        with pytest.raises(InvalidParameter):
            semigroup(A, np.ones((2, 2)))


def test_runtime_does_not_import_scipy():
    """numpy is the only runtime dependency: profile, the calculus, the
    Hille-Phillips route and the oracle never load scipy."""
    script = textwrap.dedent(
        """
        import sys
        import besovcalc
        import besovcalc.cli
        import numpy as np
        from besovcalc.functions import HalfLineMeasure, exp_decay
        from besovcalc.operators import (
            MatrixOperator, apply_calculus_report, hp_apply, jordan_operator, oracle_apply,
            parse_operator_spec, profile,
        )
        A = parse_operator_spec("diag(1,2)")
        profile(A)
        apply_calculus_report(A, exp_decay(1.0))
        hp_apply(jordan_operator(1.0, 2), HalfLineMeasure(density=("exp", -2.0, 1.0)))
        oracle_apply(MatrixOperator(np.eye(4) + np.diag([1.0, 0.0, 1.0], 1)), exp_decay(1.0))
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
    """numpy.random costs about 6 MB of resident memory, and nothing in besovcalc
    needs it: every seeded draw comes from random.Random (next test)."""
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


def test_jordan_oracle_does_not_import_numpy_fft():
    """The oracle takes a defective operator by direct trapezoid sums on circles,
    so numpy.fft and its extension module never load."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import besovcalc
        import besovcalc.cli
        from besovcalc.functions import exp_decay, resolvent
        from besovcalc.operators import MatrixOperator, jordan_operator, oracle_apply
        oracle_apply(jordan_operator(1.0, 2), exp_decay(1.0))
        oracle_apply(jordan_operator(2.0, 3), resolvent(1.0))
        oracle_apply(MatrixOperator(np.eye(4) + np.diag([1.0, 0.0, 1.0], 1)), exp_decay(1.0))
        assert "numpy.fft" not in sys.modules
        """
    )
    src = os.path.dirname(os.path.dirname(besovcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_seeded_draws_do_not_import_numpy_random(tmp_path):
    """Every seeded draw comes from random.Random: the weak gamma sample's pairs, the
    *_random operator specs, a manifest row built on one, and demo's start vector."""
    manifest = tmp_path / "one.suite"
    manifest.write_text("exp_stable_decay A=normal_random(2,seed=9)\n")
    script = textwrap.dedent(
        f"""
        import sys
        from besovcalc.cli import run
        from besovcalc.functions import exp_decay
        from besovcalc.operators import (
            apply_calculus_report, gamma_weak_sample, parse_operator_spec, profile,
        )
        for spec in ("normal_random(3,seed=5)", "sectorial_random(3,seed=3,angle=0.5)"):
            A = parse_operator_spec(spec)
            profile(A)
            gamma_weak_sample(A)
            apply_calculus_report(A, exp_decay(1.0))
        assert run(["suite", "--manifest", {str(manifest)!r}]) == 0
        assert run(["demo", "--A", "diag(1,2)", "--n-list", "1,4"]) == 0
        assert "numpy.random" not in sys.modules
        """
    )
    src = os.path.dirname(os.path.dirname(besovcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


class TestSeededDraws:
    def test_same_seed_same_draws(self):
        for make in (
            lambda seed: random_normal_operator(4, seed).matrix,
            lambda seed: random_sectorial_operator(4, seed, 0.5).matrix,
            lambda seed: np.concatenate(_unit_pairs(3, seed=seed)),
        ):
            assert np.array_equal(make(7), make(7))
            assert not np.allclose(make(7), make(8))

    def test_pairs_are_unit_norm(self):
        for n in (1, 3, 12):
            for cols in _unit_pairs(n):
                assert cols.shape == (n, 200)
                assert np.allclose(np.linalg.norm(cols, axis=0), 1.0, rtol=0, atol=1e-14)

    def test_stream_layout(self):
        """Row-major fill from one random.Random(seed) stream."""
        import random

        rng = random.Random(5)
        want = [rng.gauss(0.0, 1.0) for _ in range(6)]
        assert np.array_equal(_SeededDraws(5).normal(2, 3), np.reshape(want, (2, 3)))
        rng = random.Random(5)
        want = [rng.uniform(1.0, 2.0) for _ in range(3)]
        assert np.array_equal(_SeededDraws(5).uniform(1.0, 2.0, 3), want)

    @pytest.mark.parametrize("seed", [-1, -42, 1.5, "3", True, None])
    def test_bad_seed_rejected(self, seed):
        """random.Random(-s) repeats the stream of Random(s): a negative seed
        would silently alias another one."""
        with pytest.raises(InvalidParameter, match="seed"):
            _SeededDraws(seed)
        with pytest.raises(InvalidParameter, match="seed"):
            random_normal_operator(3, seed)
        with pytest.raises(InvalidParameter, match="seed"):
            random_sectorial_operator(3, seed, 0.3)
        with pytest.raises(InvalidParameter, match="seed"):
            gamma_weak_sample(MatrixOperator(np.array([[1.0]])), seed=seed)

    @pytest.mark.parametrize("n", [-1, -2, 65, 10**9, 2.0])
    def test_bad_size_rejected(self, n):
        with pytest.raises(InvalidParameter, match="size n"):
            random_normal_operator(n, 1)
        with pytest.raises(InvalidParameter, match="size n"):
            random_sectorial_operator(n, 1, 0.3)

    @pytest.mark.parametrize("box", [(5.0, 1.0, -1.0, 1.0), (0.5, 5.0, 1.0, -1.0)])
    def test_inverted_box_rejected(self, box):
        with pytest.raises(InvalidParameter, match="box"):
            random_normal_operator(3, 1, box)

    def test_empty_random_operators(self):
        assert random_normal_operator(0, 1).n == 0
        assert random_sectorial_operator(0, 1, 0.3).n == 0


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
        assert profile(A).K == pytest.approx(1.0, abs=1e-9)

    def test_defective_positive_accepted(self):
        A = MatrixOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not A.diagonalizable
        assert A.clusters == [(pytest.approx(1.0), False)]

    def test_close_semisimple_eigenvalues_diagonalizable(self):
        """Eigenvalues 2e-7 apart form one cluster, and its rank test takes the
        clustering tolerance, so a diagonal matrix keeps its eigenvectors."""
        A = MatrixOperator(np.diag([1.0, 1.0 + 2e-7, 3.0]))
        assert A.diagonalizable and A.clusters[0] == (pytest.approx(1.0 + 1e-7), True)
        assert A.spectral() is not None
        expect = np.diag(np.exp(-np.array([1.0, 1.0 + 2e-7, 3.0])))
        assert np.max(np.abs(oracle_apply(A, exp_decay(1.0), CFG) - expect)) < 1e-15

    def test_size_cap(self):
        with pytest.raises(InvalidParameter):
            MatrixOperator(np.eye(65))


class TestProfile:
    def test_scalar_one(self):
        A = MatrixOperator(np.array([[1.0]]))
        p = profile(A)
        assert p.K == pytest.approx(1.0, abs=1e-9)
        assert p.M == pytest.approx(1.0, abs=1e-6)
        # oracle: alpha * int d beta / ((alpha+1)^2 + beta^2) = pi alpha/(alpha+1) -> pi
        gamma = gamma_hat(A)[0]
        assert gamma == pytest.approx(2.0, abs=1e-3)
        assert gamma_weak_sample(A) <= gamma + 1e-9

    def test_gamma_floor(self):
        for spec in ["diag(1)", "diag(1,2)", "diag(i,-i)"]:
            assert gamma_hat(parse_operator_spec(spec))[0] >= 4.0 / math.e - 1e-6

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.3])
    def test_jordan_semigroup_bound_closed_form(self, lam):
        # ||exp(-tJ)|| = exp(-lam t) (t/2 + sqrt(1 + t^2/4)) = exp(s - 2 lam sinh s)
        # with t = 2 sinh s, largest where cosh s = 1/(2 lam)
        s = math.acosh(1.0 / (2.0 * lam))
        exact = math.exp(s - 2.0 * lam * math.sinh(s))
        assert exact > 1.0
        assert _semigroup_sup(jordan_operator(lam, 2)) == (pytest.approx(exact, rel=1e-12), False)

    def test_semigroup_settling_evaluates_only_new_points(self, monkeypatch):
        # the first round covers log2 t in [-12, 8), the second appends [8, 14);
        # then the golden-section refinement takes one point a round
        sizes = []
        norms = operators._semigroup_norms

        def recording(A, ts):
            sizes.append(len(ts))
            return norms(A, ts)

        monkeypatch.setattr(operators, "_semigroup_norms", recording)
        # (A + A^H)/2 has least eigenvalue -0.4, so K comes from the search
        K, exact = _semigroup_sup(parse_operator_spec("jordan(lambda=0.1,m=2)"))
        assert K > 1.0 and not exact
        assert sizes == [80, 24] + [1] * 32

    def test_gamma_settled_flag(self):
        """At scale 1e6 gamma_hat's alpha grid ends before the maximum: 1.0237
        against the exact 2 of a positive diagonal, and gamma_hat says so."""
        gamma, settled = gamma_hat(parse_operator_spec("diag(1e6)"))
        assert not settled
        assert gamma == pytest.approx(1.0237, abs=1e-4)
        assert gamma_hat(parse_operator_spec("diag(1,2)"))[1]

    def test_nonsectorial_imaginary(self):
        p = profile(parse_operator_spec("diag(i,-i)"))
        assert math.isinf(p.M)

    def test_sectoriality_complex_eigenvalue(self):
        # oracle for diagonal operators: sup |z/(z+lam)| = |lam| / Re lam
        lam = 1.0 + 2.0j
        p = profile(MatrixOperator(np.array([[lam]])))
        assert p.M == pytest.approx(abs(lam) / lam.real, abs=1e-5)

    def test_cache_is_computed_once(self, monkeypatch):
        """K and M read no quadrature config, so the cache has no key."""
        calls = []

        def counted(A):
            calls.append(A.label)
            return profile(A)

        monkeypatch.setattr(operators, "profile", counted)
        A = MatrixOperator(np.array([[1.0]]))
        assert A._profile_cache is None
        first = A.profile()
        assert A.profile() is first and first == profile(A)
        assert calls == ["A"]

    def test_empty_operator_rejected(self):
        # a 0x0 matrix is admitted (the _expm kernel takes it) but has no profile
        A = parse_operator_spec("diag()")
        assert A.n == 0
        with pytest.raises(InvalidParameter):
            profile(A)
        with pytest.raises(InvalidParameter):
            gamma_hat(A)
        with pytest.raises(InvalidParameter):
            gamma_weak_sample(A)
        with pytest.raises(InvalidParameter):
            apply_calculus_report(A, exp_decay(1.0))

    def test_profile_and_calculus_draw_nothing(self, monkeypatch):
        """Only gamma_weak_sample draws sample pairs."""
        ops = [MatrixOperator(np.diag([1.0, 2.0])), jordan_operator(1.0, 2)]

        def no_draws(seed):
            raise AssertionError("profile or calculus drew sample pairs")

        monkeypatch.setattr(operators, "_SeededDraws", no_draws)
        for A in ops:
            profile(A)
            gamma_hat(A)
            apply_calculus_report(A, exp_decay(1.0))

    @pytest.mark.parametrize(
        "spec",
        ["normal_random(12,seed=3)", "sectorial_random(3,seed=4,angle=0.5)", "jordan(1,2)"],
    )
    def test_profile_working_memory(self, spec):
        """One profile and gamma_hat on the spectral (n = 12) or the dense path hold
        under 0.5 MB of traced allocations; with the weak-sample columns in the gamma
        integrand they held 1.2-1.3 MB."""
        A = parse_operator_spec(spec)
        tracemalloc.start()
        try:
            profile(A)
            gamma_hat(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6, peak


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
        B = _dense_twin(matrix, monkeypatch)
        fast, dense = profile(A), profile(B)
        for key in ("K", "M"):
            assert getattr(fast, key) == pytest.approx(getattr(dense, key), rel=1e-10), key
        gamma = gamma_hat(A)[0]
        assert gamma == pytest.approx(gamma_hat(B)[0], rel=1e-10)
        weak = gamma_weak_sample(A)
        assert weak == pytest.approx(gamma_weak_sample(B), rel=1e-10)
        assert weak <= gamma + 1e-9

    @pytest.mark.parametrize("name,matrix", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_apply_matches_dense(self, name, matrix, monkeypatch):
        A, B = MatrixOperator(matrix), _dense_twin(matrix, monkeypatch)
        fs = [resolvent(1.5)] if A.n > 3 else [resolvent(1.5), exp_decay(1.0), cayley_pow(2)]
        for f in fs:
            fast = apply_calculus_report(A, f)
            dense = apply_calculus_report(B, f)
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
        base = apply_calculus_report(A, f).error
        A.spectral().residual = 1e-3
        # max |f[lam_i, lam_j]| = |f'(1)| = 1/4 for r_1 on {1, 2}
        assert apply_calculus_report(A, f).error == pytest.approx(base + 0.25e-3, rel=1e-9)

    def test_lipschitz_closed_form(self):
        # r_1 on {1, 2}: f'(1) = -1/4, f'(2) = -1/9, f[1, 2] = -1/6
        lam = np.array([1.0, 2.0], dtype=complex)
        assert _spectral_lipschitz(resolvent(1.0), lam) == pytest.approx(0.25, rel=1e-12)
        # a pair closer than the cancellation guard takes the larger endpoint slope
        near = np.array([1.0, 1.0 + 1e-6], dtype=complex)
        assert _spectral_lipschitz(resolvent(1.0), near) == pytest.approx(0.25, rel=1e-12)


def _unit_pairs(n, npairs=200, seed=42):
    """Unit-norm sample pairs as `gamma_weak_sample` draws them."""
    draws = _SeededDraws(seed)
    return draws.unit_columns(n, npairs), draws.unit_columns(n, npairs)


class _Captured(Exception):
    pass


def _line_integrand(call):
    """The first integrand that call() hands to integrate_line, in beta; the
    kernel weights integrate in `quadrature.line_weight`."""
    got = []

    def capture(f, *args, **kwargs):
        got.append(f)
        raise _Captured

    with pytest.MonkeyPatch.context() as m:
        m.setattr(quadrature, "integrate_line", capture)
        with pytest.raises(_Captured):
            call()
    return got[0]


def _weak_integrand(A):
    """The integrand of gamma_weak_sample at its first alpha, DYADIC_GRID[0]."""
    return _line_integrand(lambda: gamma_weak_sample(A))


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
        """The row-blocked integrands of gamma_weak_sample and gamma_hat agree
        with one-shot ones, at the weak blocks' edges and across several gamma
        blocks (dense, n = 12)."""
        A = _weak_operator(path, n, monkeypatch)
        pairs = _unit_pairs(n)
        alpha = DYADIC_GRID[0]
        f = _weak_integrand(A)
        g = _line_integrand(lambda: gamma_hat(A))
        width = pairs[0].shape[1] * (n if path == "dense" else 1)
        step = _WEAK_BLOCK_ENTRIES // width
        betas_all = np.linspace(-30.0, 30.0, 570)
        for k in (1, step - 1, step, step + 1, 570):
            betas = betas_all[:k]
            out = f(betas)
            opn, weak = _weak_reference(A, alpha, betas, pairs)
            assert out.shape == (k, pairs[0].shape[1])
            assert np.array_equal(g(betas), opn)
            weak = np.abs(weak)
            assert float(np.max(np.abs(out - weak))) <= 1e-13 * float(weak.max()), k

    @pytest.mark.parametrize(
        "path,n", [("dense", 3), ("dense", 12), ("spectral", 3), ("spectral", 12)]
    )
    def test_working_memory(self, path, n, monkeypatch):
        """One call at 570 points (38 panels) allocates at most twice its output;
        a concatenated or one-shot weak block, or squared resolvents built for
        the whole call, took three times or more."""
        A = _weak_operator(path, n, monkeypatch)
        f = _weak_integrand(A)
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
    refined = _refine_max(
        lambda us, _: np.array([phi(float(u)) for u in us]), _bracket_row(ys, vals, 1)
    )[0, 1]
    return max(refined, 1.0)


@pytest.mark.parametrize("seed", [1, 3, 8])
def test_dense_sectoriality_grid_matches_loop(seed):
    A = random_sectorial_operator(4, seed, 0.5236)
    assert A.spectral() is None
    assert _sectoriality_sup(A) == pytest.approx(_sectoriality_loop(A), rel=1e-12)


def test_dense_sectoriality_working_memory():
    """The M grid inverts its points in row blocks of 2^13 entries, two 64x64
    matrices here; inverting all 120 grid points at once peaked at 15.9 MB."""
    A = random_sectorial_operator(64, 3, 0.5)
    tracemalloc.start()
    try:
        value = _sectoriality_sup(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 18.204837302013463
    assert peak < 1e6, peak


@pytest.mark.parametrize(
    "spec",
    ["diag(1,2)", "diag(i,-i,1)", "diag(0,1)", "normal_random(3,seed=9)",
     "normal_random(12,seed=3)"],
)
def test_spectral_profile_closed_forms(spec, monkeypatch):
    """On the spectral path K = 1 and M = max(1, max |lam| / Re lam) exactly, with
    no semigroup norm computed."""
    A = parse_operator_spec(spec)
    assert A.spectral() is not None
    dense_m = math.inf if spec == "diag(i,-i,1)" else _sectoriality_loop(A)

    def disabled(*args):
        raise AssertionError("a semigroup norm search ran on the spectral path")

    monkeypatch.setattr(operators, "_semigroup_norms", disabled)
    p = profile(A)
    assert p.K == 1.0
    assert p.M == pytest.approx(dense_m, rel=1e-12)


class TestApplyCalculus:
    @pytest.mark.parametrize("spec,settled", [("diag(1e6)", False), ("diag(1,2)", True)])
    def test_certified_follows_gamma_settled(self, spec, settled):
        """Certification no longer follows gamma_hat's settled flag but K_exact: on a
        positive diagonal K = 1 exactly, so diag(1e6), whose gamma_hat grid ends
        below the exact 2, is certified as diag(1,2) is, and covers its oracle gap."""
        A = parse_operator_spec(spec)
        f = cayley_pow(1)
        rep = apply_calculus_report(A, f)
        assert gamma_hat(A)[1] is settled
        assert rep.certified and A.profile().K_exact
        assert float(np.max(np.abs(rep.value - oracle_apply(A, f, CFG)))) <= rep.error

    def test_certified_follows_k_exact(self, monkeypatch):
        """The bound's weight pi K^2 is an upper weight when K is exact.  The
        accretive jordan(1,2) needs neither a semigroup norm nor gamma_hat; and
        jordan(0.1,2) takes K from the search, so it is not certified."""
        f = cayley_pow(1)

        def disabled(*args):
            raise AssertionError("the calculus computed a semigroup norm or gamma_hat")

        with monkeypatch.context() as m:
            for name in ("_semigroup_norms", "gamma_hat", "kernel_weight"):
                m.setattr(operators, name, disabled)
            assert apply_calculus_report(jordan_operator(1.0, 2), f).certified
        A = jordan_operator(0.1, 2)
        rep = apply_calculus_report(A, f)
        assert not rep.certified and not A.profile().K_exact
        assert float(np.max(np.abs(rep.value - oracle_apply(A, f, CFG)))) <= rep.error

    @pytest.mark.parametrize("spec", ["diag(1,2)", "jordan(lambda=1,m=2)"])
    def test_config_is_not_read(self, spec):
        """The calculus runs under one fixed config, whatever config it is given."""
        A, f = parse_operator_spec(spec), exp_decay(1.0)
        loose = apply_calculus_report(A, f, QuadratureConfig(abs_tol=1e-3, rel_tol=1e-3))
        default = apply_calculus_report(A, f)
        assert np.array_equal(loose.value, default.value)
        assert (loose.error, loose.certified, loose.n_evals) == (
            default.error, default.certified, default.n_evals
        )

    def test_scalar_resolvent(self):
        A = MatrixOperator(np.array([[2.0]]))
        val = apply_calculus(A, resolvent(1.0))
        assert abs(val[0, 0] - 1.0 / 3.0) < 1e-5

    def test_diag_exponential(self):
        A = parse_operator_spec("diag(1,2)")
        val = apply_calculus(A, exp_decay(1.0))
        assert np.max(np.abs(val - np.diag([math.exp(-1.0), math.exp(-2.0)]))) < 1e-5

    def test_jordan_cayley_square(self):
        A = jordan_operator(1.0, 2)
        val = apply_calculus(A, cayley_pow(2))
        v = (A.matrix - np.eye(2)) @ np.linalg.inv(A.matrix + np.eye(2))
        assert np.max(np.abs(val - v @ v)) < 1e-4

    def test_oracle_equivalence_random(self):
        A = random_normal_operator(5, seed=13)
        for f in [exp_decay(1.0), resolvent(1.5), vitse_reg(1.0)]:
            gap = np.max(np.abs(apply_calculus(A, f) - oracle_apply(A, f, CFG)))
            assert gap < 1e-4

    def test_homomorphism(self):
        A = parse_operator_spec("diag(1,2)")
        f, g = exp_decay(1.0), resolvent(1.0)
        left = apply_calculus(A, mul(f, g))
        right = apply_calculus(A, f) @ apply_calculus(A, g)
        assert np.max(np.abs(left - right)) < 1e-4

    def test_calculus_bound(self):
        A = random_normal_operator(3, seed=4)
        f = cayley_pow(2)
        norm_fa = np.linalg.norm(apply_calculus(A, f), 2)
        assert norm_fa <= gamma_hat(A)[0] * b_norm(f, CFG).value + 1e-4

    def test_eigenvector_rule(self):
        A = random_normal_operator(4, seed=8)
        lam, v = np.linalg.eig(A.matrix)
        f = exp_decay(1.0)
        fa = apply_calculus(A, f)
        x = v[:, 1]
        assert np.linalg.norm(fa @ x - complex(f(lam[1])) * x) < 1e-5

    def test_shift_law(self):
        A = parse_operator_spec("diag(1,2)")
        a = 0.5
        left = apply_calculus(MatrixOperator(A.matrix + a * np.eye(2)), resolvent(1.0))
        right = apply_calculus(A, shift(resolvent(1.0), a))
        assert np.max(np.abs(left - right)) < 1e-5

    def test_dilation_law(self):
        A = parse_operator_spec("diag(1,2)")
        b = 2.0
        left = apply_calculus(MatrixOperator(b * A.matrix), resolvent(1.0))
        right = apply_calculus(A, dilate(resolvent(1.0), b))
        assert np.max(np.abs(left - right)) < 1e-5

    @pytest.mark.parametrize(
        "A,f",
        [
            (parse_operator_spec("diag(i,-i)"), exp_decay(1.0)),
            (parse_operator_spec("diag(i,-i)"), eta()),
            (parse_operator_spec("diag(2i,0.5)"), cayley_pow(1)),
            # V diag(i,-i) V^-1 with V = [[1, 0.8], [0, 1]]: non-normal, spectrum on iR
            (MatrixOperator(np.array([[1j, -1.6j], [0.0, -1j]])), exp_decay(1.0)),
        ],
        ids=["diag(i,-i)-exp", "diag(i,-i)-eta", "diag(2i,0.5)-cayley1", "nonnormal(i,-i)-exp"],
    )
    def test_imaginary_axis_spectrum(self, A, f):
        # spectrum on iR takes the double integral directly, and its bound covers the gap
        rep = apply_calculus_report(A, f)
        gap = float(np.max(np.abs(rep.value - oracle_apply(A, f, CFG))))
        assert gap < 1e-4
        assert gap <= rep.error

    def test_weak_plancherel_bound(self):
        # for normal matrices: int |<(a+ib+A)^(-2) x, y>| db <= pi K^2 / a
        A = random_normal_operator(3, seed=21)
        K = profile(A).K
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

            env = ShapeEnvelope(t0=2.0 * (alpha + A.norm2) + 1.0, c=4.0, p=2.0)
            val = integrate_line(integrand, env, CFG, strict=False)
            assert float(np.real(val.value)) <= math.pi * K**2 / alpha + 1e-4
        # every bounded semigroup, entrywise: the calculus's weight pi K^2, with K exact
        # for jordan(1,2) and a search's estimate for jordan(0.1,2)
        for lam in (1.0, 0.1):
            B = jordan_operator(lam, 2)
            K = profile(B).K
            for alpha in (2.0**-6, 0.5, 2.0, 2.0**6):

                def entries(betas):
                    return np.abs(_resolvents_squared(B, alpha + 1j * betas).reshape(-1, 4))

                env = ShapeEnvelope(t0=2.0 * (alpha + B.norm2) + 1.0, c=4.0, p=2.0)
                val = integrate_line(entries, env, CFG, strict=False)
                top = alpha * float(np.real(val.value).max())
                assert top <= math.pi * K**2 + 1e-4, (lam, alpha)

    @pytest.mark.parametrize("spec", ["jordan(lambda=0.1,m=2)", "diag(i,-i,1)"])
    def test_weak_sample_below_two_k_squared(self, spec):
        """(2/pi) alpha int |<(alpha+i beta+A)^(-2) x, y>| d beta <= 2 K^2 for unit x, y."""
        A = parse_operator_spec(spec)
        assert gamma_weak_sample(A) <= 2.0 * profile(A).K ** 2

    @pytest.mark.parametrize(
        "f",
        [resolvent(1.5), cayley_pow(2), eta(), exp_inv_shift(1.0), vitse_reg(2.0)],
        ids=lambda f: f.label,
    )
    def test_no_outer_tail_bias(self, f):
        """For large alpha the kernel tends to (alpha + i beta)^(-2) I, so an outer cutoff
        left out the same multiple of I for every A and f: +-2.65e-7 under the calculus's
        config, even on the 1x1 operator [[2]].  The mapped outer integral has no cutoff."""
        rep = apply_calculus_report(MatrixOperator([[2.0]]), f)
        assert abs(rep.value[0, 0] - complex(f(2.0))) < 1e-10

    def test_outer_margin_reaches_the_oracle_floor(self):
        """Criterion 04's worst item: with the outer integral run at the calculus config's
        own tolerances this gap was 1.50e-12, set by where the rule's panels fell."""
        rng = np.random.default_rng(2011)
        lam = rng.uniform(0.5, 5.0, 6) + 1j * rng.uniform(-5.0, 5.0, 6)
        v = np.eye(6) + 0.25 * np.triu(rng.normal(size=(6, 6)), 1)
        A = MatrixOperator(v @ np.diag(lam) @ np.linalg.inv(v))
        f = exp_inv_shift(1.0)
        assert np.max(np.abs(apply_calculus_report(A, f).value - oracle_apply(A, f))) < 1e-13


HP_OPERATORS = [
    "diag(1,2)",
    "diag(0,1)",
    "jordan(lambda=1,m=2)",
    "sectorial_random(4,seed=3,angle=0.5)",
    "diag(i,-i,1)",
]
HP_MEASURES = [
    HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0)),
    HalfLineMeasure(density=("lebesgue", 1.0, 0.0, 1.0)),
    HalfLineMeasure(density=("lebesgue", 2.0, 0.5, 3.0)),
    HalfLineMeasure(atoms=((1.0, 0.5),), density=("exp", 1.5, 0.3)),
]


class TestHPApply:
    @pytest.mark.parametrize("mu", HP_MEASURES, ids=["cayley", "unit-box", "box", "exp-atom"])
    @pytest.mark.parametrize("spec", HP_OPERATORS)
    def test_matches_oracle(self, spec, mu):
        """Closed-form densities: the resolvent for exp, Van Loan's block for
        lebesgue, which diag(0,1) (singular A) and the Jordan block also take."""
        A = parse_operator_spec(spec)
        gap = np.max(np.abs(hp_apply(A, mu) - oracle_apply(A, laplace_transform(mu), CFG)))
        assert gap < 1e-13

    def test_needs_no_profile(self, monkeypatch):
        def no_profile(*args, **kwargs):
            raise AssertionError("hp_apply profiled the operator")

        monkeypatch.setattr(operators, "profile", no_profile)
        A = parse_operator_spec("sectorial_random(4,seed=3,angle=0.5)")
        for mu in HP_MEASURES:
            hp_apply(A, mu)
        assert A._profile_cache is None

    def test_empty_operator(self):
        """A 0x0 operator has a 0x0 integral, and no resolvent to take."""
        A = MatrixOperator(np.zeros((0, 0)))
        assert hp_apply(A, HP_MEASURES[1]).shape == (0, 0)
        with pytest.raises(InvalidParameter, match="1x1"):
            hp_apply(A, HP_MEASURES[0])

    @pytest.mark.parametrize(
        "density",
        [("exp", math.inf, 1.0), ("lebesgue", math.nan, 0.0, 1.0), ("exp", 1.0, math.nan)],
        ids=["exp-coeff", "lebesgue-coeff", "exp-rate"],
    )
    def test_non_finite_density_rejected(self, density):
        A = parse_operator_spec("diag(1,2)")
        with pytest.raises(InvalidParameter, match="finite"):
            hp_apply(A, HalfLineMeasure(density=density))

    def test_delta_zero(self):
        A = parse_operator_spec("diag(1,2)")
        assert np.allclose(hp_apply(A, HalfLineMeasure(atoms=((0.0, 1.0),))), np.eye(2))

    def test_cayley_measure(self):
        A = parse_operator_spec("diag(1,2)")
        mu = HalfLineMeasure(atoms=((0.0, 1.0),), density=("exp", -2.0, 1.0))
        got = hp_apply(A, mu)
        assert np.max(np.abs(got - np.diag([0.0, 1.0 / 3.0]))) < 1e-8

    def test_lebesgue(self):
        A = MatrixOperator(np.array([[1.0]]))
        mu = HalfLineMeasure(density=("lebesgue", 1.0, 0.0, 1.0))
        assert hp_apply(A, mu)[0, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_compatibility_with_calculus(self):
        A = parse_operator_spec("diag(1,2)")
        mu = HalfLineMeasure(atoms=((0.0, 1.0), (1.0, 0.5)), density=("exp", -2.0, 1.0))
        f = laplace_transform(mu)
        gap = np.max(np.abs(apply_calculus(A, f) - hp_apply(A, mu)))
        assert gap < 1e-4


# the function list of criterion 04
_CRITERION_04_FUNCTIONS = [
    exp_decay(1.0), resolvent(1.5), cayley_pow(2), eta(), exp_inv_shift(1.0), vitse_reg(2.0)
]


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

    @pytest.mark.parametrize("lam", [1.0, 0.5 + 2.0j, 3.0 - 1.0j, 1e-3])
    def test_jordan_first_order_closed_form(self, lam):
        """On a 2x2 block, f(J) = f(lam) I + f'(lam) N with f' from f.deriv.  At
        Re lam = 1e-3 the circle's radius is at most 5e-4 and the gate is 1e-12."""
        A = jordan_operator(lam, 2)
        nil = A.matrix - lam * np.eye(2)
        for f in _CRITERION_04_FUNCTIONS:
            expect = f(lam) * np.eye(2) + f.deriv(lam) * nil
            gap = np.max(np.abs(oracle_apply(A, f, CFG) - expect))
            assert gap < (1e-12 if lam == 1e-3 else 1e-13), f.label

    def test_noisy_circle_gives_up_early(self):
        """A 3-block at Re lam = 1e-6: the circle's radius is 1e-6, so the terms of each
        sum reach 1e12 and their rounding noise, about 2e-4, exceeds the tolerance of
        1.1e-7.  The oracle stops after its first sum, where doubling to the cap took 12."""
        f = exp_decay(1.0)
        sizes = []

        def counted(z):
            sizes.append(z.size)
            return f.eval_fn(z)

        with pytest.raises(NonConvergence, match="did not settle: its rounding noise"):
            oracle_apply(jordan_operator(1e-6, 3), replace(f, eval_fn=counted), CFG)
        assert sizes == [64]

    def test_alternating_noise_gives_up_after_one_sum(self, monkeypatch):
        """A 4-block at 1e-6 + 1i: the differences of its circle sums never fail to halve
        twice in a row, and all 12 sums, up to 131,072 nodes, ran before the oracle gave
        up.  Its noise estimate, about 2e2, stops it after the first sum of 64 nodes, one
        batch of resolvents."""
        calls = []

        def counted(A, zs):
            calls.append(zs.size)
            return resolvents(A, zs)

        resolvents = operators._resolvents
        monkeypatch.setattr(operators, "_resolvents", counted)
        with pytest.raises(NonConvergence, match="did not settle: its rounding noise"):
            oracle_apply(jordan_operator(1e-6 + 1.0j, 4), exp_decay(1.0), CFG)
        assert calls == [64]

    def test_random_normal_eta(self):
        A = random_normal_operator(4, seed=17)
        lam, v = np.linalg.eig(A.matrix)
        expect = v @ np.diag(np.asarray(eta()(lam))) @ np.linalg.inv(v)
        assert np.max(np.abs(oracle_apply(A, eta(), CFG) - expect)) < 1e-8

    def test_two_blocks_closed_form(self):
        """Two 2x2 blocks at 1: f(A) = f(1) I + f'(1) N."""
        nil = np.diag([1.0, 0.0, 1.0], 1)
        A = MatrixOperator(np.eye(4) + nil)
        for f in _CRITERION_04_FUNCTIONS:
            expect = f(1.0) * np.eye(4) + f.deriv(1.0) * nil
            assert np.max(np.abs(oracle_apply(A, f, CFG) - expect)) < 1e-13, f.label

    def test_block_beside_double_semisimple_eigenvalue(self):
        """diag(J_2(2), 1, 1): one defective and one semisimple double eigenvalue."""
        A = MatrixOperator(np.diag([2.0, 2.0, 1.0, 1.0]) + np.diag([1.0, 0.0, 0.0], 1))
        assert A.clusters == [(1.0, True), (2.0, False)]
        for f in _CRITERION_04_FUNCTIONS:
            expect = np.diag([f(2.0), f(2.0), f(1.0), f(1.0)])
            expect[0, 1] = f.deriv(2.0)
            assert np.max(np.abs(oracle_apply(A, f, CFG) - expect)) < 1e-13, f.label

    def test_random_jordan_structures(self):
        """Up to three blocks of size <= 3 at two eigenvalues, under unit
        upper-triangular similarities S with cond(S) <= 1e3, against S f(J) S^(-1)
        with f(J) from closed-form derivatives."""
        derivs = [
            (exp_decay(1.0), lambda lam, j: (-1) ** j * np.exp(-lam)),
            (resolvent(1.5), lambda lam, j: (-1) ** j * math.factorial(j) / (1.5 + lam) ** (j + 1)),
        ]
        rng = np.random.default_rng(29)
        for _ in range(300):
            sizes = rng.integers(1, 4, size=rng.integers(1, 4))
            pool = rng.uniform(0.5, 3.0, 2) + 1j * rng.uniform(-2.0, 2.0, 2)
            lams = pool[rng.integers(0, 2, size=len(sizes))]
            n = int(sizes.sum())
            s = np.eye(n) + 0.5 * np.triu(rng.normal(size=(n, n)), 1)
            while np.linalg.cond(s) > 1e3:
                s = np.eye(n) + 0.5 * np.triu(rng.normal(size=(n, n)), 1)
            starts = np.cumsum(sizes) - sizes
            jm = np.zeros((n, n), dtype=complex)
            for lam, m, p in zip(lams, sizes, starts):
                jm[p : p + m, p : p + m] = lam * np.eye(m) + np.eye(m, k=1)
            A = MatrixOperator(s @ jm @ np.linalg.inv(s))
            for f, der in derivs:
                fj = np.zeros((n, n), dtype=complex)
                for lam, m, p in zip(lams, sizes, starts):
                    for j in range(m):
                        fj[p : p + m, p : p + m] += der(lam, j) / math.factorial(j) * np.eye(m, k=j)
                expect = s @ fj @ np.linalg.inv(s)
                gap = np.max(np.abs(oracle_apply(A, f, CFG) - expect))
                assert gap <= 1e-12 * np.max(np.abs(expect)), (sizes, lams, f.label)


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

    def test_vector_lengths_checked(self):
        A = parse_operator_spec("diag(1,3)")
        with pytest.raises(InvalidParameter, match="x must be a vector of length 2"):
            semigroup_reconstruct_check(A, 1.0, np.ones(3), np.ones(2), CFG)
        with pytest.raises(InvalidParameter, match="xstar must be a vector of length 2"):
            semigroup_reconstruct_check(A, 1.0, np.ones(2), np.ones(3), CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_vectors_rejected(self, bad):
        A = MatrixOperator(np.array([[1.0]]))
        with pytest.raises(InvalidParameter, match="x must be finite"):
            semigroup_reconstruct_check(A, 1.0, np.array([bad]), np.array([1.0]), CFG)
        with pytest.raises(InvalidParameter, match="xstar must be finite"):
            semigroup_reconstruct_check(A, 1.0, np.array([1.0]), np.array([bad]), CFG)

    @pytest.mark.parametrize("t", [0.05, 20.0])
    @pytest.mark.parametrize(
        "spec", ["jordan(lambda=1e-6+1j,m=3)", "sectorial_random(6,seed=1,angle=1.2)"]
    )
    def test_non_normal_operators(self, spec, t):
        # a pole of order six at distance 1/t = 0.05 from the line, for the Jordan block at
        # t = 20, and a spread non-normal spectrum, both on the segment-plus-rays contour
        A = parse_operator_spec(spec)
        rng = np.random.default_rng(11)
        x = rng.normal(size=A.n) + 1j * rng.normal(size=A.n)
        y = rng.normal(size=A.n) + 1j * rng.normal(size=A.n)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        assert semigroup_reconstruct_check(A, t, x, y, CFG) < 1e-10

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf])
    def test_non_positive_t_rejected(self, t):
        A = MatrixOperator(np.array([[1.0]]))
        with pytest.raises(InvalidParameter, match="t must be positive"):
            semigroup_reconstruct_check(A, t, np.array([1.0]), np.array([1.0]), CFG)


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
        assert math.isfinite(profile(B).M)

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
                profile(A)

    def test_integral_not_norm_convergent(self):
        from dataclasses import replace as dreplace

        from besovcalc.errors import IntegralNotNormConvergent
        from besovcalc.functions import Profiles, exp_decay as _e
        from besovcalc.quadrature import ShapeEnvelope

        base = _e(1.0)
        prof = Profiles(
            deriv_line=base.profiles.deriv_line,
            modulus_line=base.profiles.modulus_line,
            deriv_outer=ShapeEnvelope(c=1.0),
            modulus_outer=ShapeEnvelope(c=1.0),
        )
        bad = dreplace(base, profiles=prof)
        with pytest.raises(IntegralNotNormConvergent):
            apply_calculus(MatrixOperator(np.array([[1.0]])), bad)

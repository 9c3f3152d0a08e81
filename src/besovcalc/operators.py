"""Finite-dimensional operator calculus: resolvents, semigroups, the resolvent
double-integral calculus, the Hille-Phillips route, and eigen oracles."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameter,
    NonConvergence,
    ProfileDivergence,
    SingularShift,
    SpectrumError,
    UnknownSpec,
)
from .duality import kernel_pairing
from .functions import (
    AnalyticFunction,
    HalfLineMeasure,
    SpecArgs,
    _is_int_in,
    parse_complex,
    parse_number,
)
from .quadrature import (
    DEFAULT_CONFIG,
    DYADIC_GRID,
    QuadratureConfig,
    ShapeEnvelope,
    _bracket_row,
    _refine_max,
    integrate_contour,
    kernel_weight,
    line_weight,
)

__all__ = [
    "MatrixOperator",
    "is_normal",
    "OperatorProfile",
    "ApplyReport",
    "resolvent_matrix",
    "semigroup",
    "profile",
    "gamma_hat",
    "gamma_weak_sample",
    "apply_calculus",
    "apply_calculus_report",
    "hp_apply",
    "oracle_apply",
    "semigroup_reconstruct_check",
    "parse_operator_spec",
    "read_matrix_text",
    "format_matrix_text",
    "random_normal_operator",
    "random_sectorial_operator",
    "jordan_operator",
]

_MAX_DIM = 64
# ||A||_2 above this makes A A^H overflow, or (z + A)^(-2) leave the normal floats
_MAX_NORM = 1e150
_EIG_TOL = 1e-7
# the oracle's circle rule doubles its 64 nodes at most this often
_CIRCLE_DOUBLINGS = 12
# ||A A^H - A^H A||_F <= _NORMAL_TOL * max(1, ||A||_2^2) makes A normal
_NORMAL_TOL = 1e-10
# the unitary diagonalisation of a normal A is used when both of its residuals
# are <= _SPECTRAL_TOL * max(1, ||A||_2)
_SPECTRAL_TOL = 1e-12
# entries of the per-row intermediates of the M, gamma and weak-sample integrands held at once
_WEAK_BLOCK_ENTRIES = 2**13
# the calculus's one quadrature config: kernel_pairing derives the inner tolerances from it
_APPLY_CFG = QuadratureConfig(abs_tol=1e-5 / 12.0, rel_tol=1e-7)


class _SeededDraws:
    """Seeded standard-normal and uniform draws from the standard library's
    Mersenne Twister, random.Random(seed), filled into arrays in row-major order."""

    def __init__(self, seed: int):
        # random.Random(-s) repeats the stream of Random(s)
        if not _is_int_in(seed, 0):
            raise InvalidParameter(f"seed must be an integer >= 0, got {seed!r}")
        self._rng = random.Random(int(seed))

    def normal(self, *shape: int) -> np.ndarray:
        gauss = self._rng.gauss
        return np.array([gauss(0.0, 1.0) for _ in range(math.prod(shape))]).reshape(shape)

    def complex_normal(self, *shape: int) -> np.ndarray:
        return self.normal(*shape) + 1j * self.normal(*shape)

    def uniform(self, lo: float, hi: float, n: int) -> np.ndarray:
        return np.array([self._rng.uniform(lo, hi) for _ in range(n)])

    def unit_columns(self, n: int, npairs: int) -> np.ndarray:
        """npairs complex normal columns of length n, each scaled to unit norm."""
        x = self.complex_normal(n, npairs)
        return x / np.linalg.norm(x, axis=0, keepdims=True)


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    order = np.argsort(values.real * 1e6 + values.imag)
    groups: list[list[int]] = []
    for i in order:
        for gr in groups:
            if abs(values[i] - values[gr[0]]) <= tol:
                gr.append(int(i))
                break
        else:
            groups.append([int(i)])
    return groups


@dataclass
class MatrixOperator:
    """Dense square matrix with spectrum in the closed right half-plane.

    Purely imaginary eigenvalues must be semisimple; any Jordan structure is
    admitted off the imaginary axis.  `clusters` lists each eigenvalue cluster's
    center and whether it is semisimple.
    """

    matrix: np.ndarray
    label: str = "A"
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray | None = field(init=False, default=None)
    diagonalizable: bool = field(init=False, default=True)
    clusters: list[tuple[complex, bool]] = field(init=False)
    norm2: float = field(init=False, default=0.0)
    _profile_cache: "OperatorProfile | None" = field(init=False, default=None, repr=False)
    _normal: bool | None = field(init=False, default=None, repr=False)
    _spectral_cache: "Spectral | bool | None" = field(init=False, default=None, repr=False)

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidParameter("operator matrix must be square")
        if not np.all(np.isfinite(a)):
            raise InvalidParameter("operator matrix has a non-finite entry")
        if a.shape[0] > _MAX_DIM:
            raise InvalidParameter(f"matrix size capped at {_MAX_DIM}x{_MAX_DIM}")
        self.matrix = a
        self.norm2 = float(np.linalg.norm(a, 2)) if a.size else 0.0
        if self.norm2 > _MAX_NORM:
            raise InvalidParameter(
                f"operator {self.label} has norm {self.norm2:.3g}, above {_MAX_NORM:g}"
            )
        scale = max(1.0, self.norm2)
        lam, vecs = np.linalg.eig(a)
        if np.any(lam.real < -1e-9 * scale):
            bad = lam[lam.real < -1e-9 * scale][0]
            raise SpectrumError(f"eigenvalue {bad} lies in the open left half-plane")
        self.eigenvalues = lam
        tol = _EIG_TOL * scale
        self.clusters = []
        for gr in _cluster(lam, tol):
            lam0 = complex(np.mean(lam[gr]))
            # the rank takes the clustering tolerance, so a cluster's own spread does
            # not read as a missing eigenvector
            semisimple = len(gr) == 1 or bool(
                np.linalg.matrix_rank(a - lam0 * np.eye(len(a)), tol=tol) == len(a) - len(gr)
            )
            if not semisimple and abs(lam0.real) <= 1e-9 * scale:
                raise SpectrumError(
                    f"non-semisimple eigenvalue {lam0} on the imaginary axis: "
                    "the semigroup would be unbounded"
                )
            self.clusters.append((lam0, semisimple))
        self.diagonalizable = all(ss for _, ss in self.clusters)
        if self.diagonalizable:
            self.eigenvectors = vecs

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def spectral_abscissa_min(self) -> float:
        return float(np.min(self.eigenvalues.real)) if self.n else 0.0

    def profile(self) -> "OperatorProfile":
        """profile(self), computed on first use."""
        if self._profile_cache is None:
            self._profile_cache = profile(self)
        return self._profile_cache

    def spectral(self) -> "Spectral | None":
        """The unitary diagonalisation when the matrix is normal and it is accurate
        enough, else None; computed from `matrix` on first use."""
        if self._spectral_cache is None:
            self._spectral_cache = _diagonalise(self) or False
        return self._spectral_cache or None


def is_normal(A: MatrixOperator) -> bool:
    """The one normality test: ||A A^H - A^H A||_F <= 1e-10 max(1, ||A||_2^2),
    evaluated once per operator."""
    if A._normal is None:
        a = A.matrix
        comm = a @ a.conj().T - a.conj().T @ a
        A._normal = float(np.linalg.norm(comm)) <= _NORMAL_TOL * max(1.0, A.norm2**2)
    return A._normal


@dataclass
class Spectral:
    """A = Q diag(lam) Q^H up to `residual`, a first-order bound on
    ||A - Q diag(lam) Q^H||_2 that the calculus adds to its error."""

    q: np.ndarray
    lam: np.ndarray
    residual: float


def _diagonalise(A: MatrixOperator) -> Spectral | None:
    """Q from the QR factor of the eigenvectors that admission stored, lam the
    diagonal of Q^H A Q; None unless A is normal, its eigenvectors are stored,
    and both ||offdiag(Q^H A Q)||_F and ||Q^H Q - I||_F are <= 1e-12 max(1, ||A||_2)."""
    if not is_normal(A) or A.eigenvectors is None:
        return None
    a = A.matrix
    q, _ = np.linalg.qr(A.eigenvectors)
    t = q.conj().T @ a @ q
    lam = np.diagonal(t).copy()
    off = float(np.linalg.norm(t - np.diag(lam)))
    drift = float(np.linalg.norm(q.conj().T @ q - np.eye(A.n)))
    tol = _SPECTRAL_TOL * max(1.0, A.norm2)
    if off > tol or drift > tol:
        return None
    # A = Q G^-1 (diag(lam) + offdiag) G^-1 Q^H with G = Q^H Q, to first order in G - I
    return Spectral(q, lam, off + 2.0 * drift * float(np.abs(lam).max(initial=0.0)))


@dataclass
class OperatorProfile:
    K: float
    M: float
    K_exact: bool


def resolvent_matrix(A: MatrixOperator, z: complex) -> np.ndarray:
    """(zI + A)^(-1) by LU solve with a residual check."""
    if A.n == 0:
        raise InvalidParameter("the resolvent needs a matrix of size at least 1x1")
    z = complex(z)
    if not np.isfinite(z):
        raise InvalidParameter(f"the resolvent needs a finite shift z, not {z}")
    if np.min(np.abs(z + A.eigenvalues)) <= 1e-12 * max(1.0, abs(z), A.norm2):
        raise SingularShift(f"-z = {-z} meets the spectrum")
    m = z * np.eye(A.n) + A.matrix
    x = np.linalg.solve(m, np.eye(A.n))
    resid = float(np.linalg.norm(m @ x - np.eye(A.n)))
    if resid > 1e-10 * max(np.linalg.cond(m), 1.0) + 1e-12:
        raise SingularShift(f"resolvent solve residual {resid:.2e} too large")
    return x


def _resolvents(A: MatrixOperator, zs: np.ndarray) -> np.ndarray:
    """Batched (z_k I + A)^(-1)."""
    eye = np.eye(A.n, dtype=complex)
    return np.linalg.inv(zs[:, None, None] * eye[None, :, :] + A.matrix[None, :, :])


def _resolvents_squared(A: MatrixOperator, zs: np.ndarray) -> np.ndarray:
    """Batched (z_k I + A)^(-2)."""
    return np.linalg.matrix_power(_resolvents(A, zs), 2)


def _top_singular_values(A: MatrixOperator, zs: np.ndarray, batch) -> np.ndarray:
    """||batch(A, zs)[k]||_2 for each z_k, in row blocks of at most 2^13 matrix entries."""
    out = np.empty(len(zs))
    step = max(1, _WEAK_BLOCK_ENTRIES // A.n**2)
    for i in range(0, len(zs), step):
        out[i : i + step] = np.linalg.svd(batch(A, zs[i : i + step]), compute_uv=False)[:, 0]
    return out


# Degree-13 Pade coefficients and the scaled-norm threshold of
# Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009), Algorithm 5.1.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 4.25
# matrix entries per kernel call: bounds its working memory at about 12 MB
_EXPM_BATCH_ENTRIES = 2**16
# log2 of 1/|c_27|, the leading coefficient of the degree-13 backward-error
# series: comb(26, 13) * 27!
_LOG2_C27_RECIP = math.log2(math.comb(26, 13)) + math.log2(math.factorial(27))


def _norm1(m: np.ndarray) -> np.ndarray:
    """Matrix 1-norm of each matrix in a stack."""
    return np.abs(m).sum(axis=1).max(axis=1)


def _extra_squarings(a: np.ndarray) -> np.ndarray:
    """Al-Mohy-Higham ell(a, 13): squarings to add for a non-normal stack.

    Needs the 1-norm of |a|^27, taken as 27 row-vector products renormalised at
    each step so that it cannot overflow.
    """
    absa = np.abs(a)
    v = np.ones(a.shape[:2])
    log2_norm = np.zeros(a.shape[0])
    for _ in range(27):
        v = np.einsum("ki,kij->kj", v, absa)
        top = v.max(axis=1)
        top[top == 0.0] = 1.0
        v /= top[:, None]
        log2_norm += np.log2(top)
    log2_norm[v.max(axis=1) == 0.0] = -np.inf
    with np.errstate(divide="ignore"):
        log2_alpha = log2_norm - np.log2(_norm1(a)) - _LOG2_C27_RECIP + 53.0
    ell = np.ceil(log2_alpha / 26.0)
    return np.where(np.isfinite(ell) & (ell > 0), ell, 0.0).astype(int)


def _exp_divided_difference(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """(exp(l2) - exp(l1)) / (l2 - l1), the superdiagonal factor of exp on a
    triangular matrix (Higham, Functions of Matrices, eq. 10.42): the sinh form
    near l1 == l2, where the plain quotient cancels."""
    half = 0.5 * (l2 - l1)
    with np.errstate(all="ignore"):
        near = np.exp(l1 + half) * np.where(half == 0, 1.0, np.sinh(half) / half)
        far = (np.exp(l2) - np.exp(l1)) / (l2 - l1)
    return np.where(np.abs(half) < 1.0, near, far)


def _exact_bidiagonal(x: np.ndarray, t: np.ndarray, j: np.ndarray) -> np.ndarray:
    """x ~ exp(2^-j t) for upper-triangular t, with its diagonal and first
    superdiagonal replaced by their closed forms (Al-Mohy & Higham 2009,
    Code Fragment 2.1)."""
    x = x.copy()
    n = t.shape[1]
    i = np.arange(n)
    h = 0.5**j[:, None]
    d = t[:, i, i] * h
    x[:, i, i] = np.exp(d)
    dd = _exp_divided_difference(d[:, :-1], d[:, 1:])
    x[:, i[:-1], i[1:]] = t[:, i[:-1], i[1:]] * h * dd
    return x


def _expm(stack: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (k, n, n) stack, by degree-13 Pade scaling and
    squaring (Higham 2005; Al-Mohy & Higham 2009).

    Each matrix gets its own scaling exponent and is squared only that often.
    Diagonal matrices take exp of their diagonal exactly, triangular ones keep
    their diagonal and superdiagonal exact through the squarings, and a matrix
    with a non-finite entry gives an all-NaN result.
    """
    stack = np.array(stack, dtype=complex)
    n = stack.shape[1]
    out = np.full(stack.shape, np.nan, dtype=complex)
    if n == 0:
        return out
    finite = np.isfinite(stack).all(axis=(1, 2))
    strict_lower = np.tril(np.ones((n, n), dtype=bool), -1)
    below = (stack[:, strict_lower] != 0).any(axis=1)
    above = (stack[:, strict_lower.T] != 0).any(axis=1)
    diag = finite & ~below & ~above
    with np.errstate(over="ignore"):
        d = np.exp(np.diagonal(stack[diag], axis1=1, axis2=2))
    out[diag] = d[:, :, None] * np.eye(n)
    full = finite & ~diag
    if not full.any():
        return out
    # exp(T^T) = exp(T)^T: lower-triangular input is handled as upper
    lower = full & ~above
    stack[lower] = stack[lower].transpose(0, 2, 1)
    tri = (~(below & above))[full]
    t = stack[full]
    # a power-of-two prescale to 1-norm <= 1 keeps the powers below from overflowing
    e = np.maximum(np.ceil(np.log2(_norm1(t))), 0.0)
    a = t * (0.5**e)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    d6, d8, d10 = (_norm1(m) ** (1.0 / p) for m, p in ((a6, 6), (a4 @ a4, 8), (a4 @ a6, 10)))
    eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(eta / _THETA13) + e), 0.0).astype(int)
    h = 2.0 ** (e - s)[:, None, None]
    s += _extra_squarings(a * h)
    h = 2.0 ** (e - s)[:, None, None]
    a, a2, a4, a6 = a * h, a2 * h**2, a4 * h**4, a6 * h**6
    b = _PADE13
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * np.eye(n)
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * np.eye(n)
    )
    # r = I + 2 (V - U)^(-1) U keeps the deviation from I to full relative accuracy
    x = np.linalg.solve(v - u, 2.0 * u) + np.eye(n)
    x[tri] = _exact_bidiagonal(np.triu(x[tri]), t[tri], s[tri])
    # a growing semigroup overflows here; callers test the result for non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(int(s.max())):
            todo = s > i
            x[todo] = x[todo] @ x[todo]
            todo &= tri
            x[todo] = _exact_bidiagonal(x[todo], t[todo], s[todo] - i - 1)
    out[full] = x
    out[lower] = out[lower].transpose(0, 2, 1)
    return out


def semigroup(A: MatrixOperator, t) -> np.ndarray:
    """exp(-t A) for a time t, or the (k, n, n) stack for a 1-D array of times."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise InvalidParameter("semigroup times must be a scalar or a 1-D array")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise InvalidParameter("semigroup time must be finite and >= 0")
    flat = ts.reshape(-1)
    out = np.empty((len(flat), A.n, A.n), dtype=complex)
    # the kernel holds about a dozen temporaries the size of its input
    step = max(1, _EXPM_BATCH_ENTRIES // max(A.n**2, 1))
    for i in range(0, len(flat), step):
        out[i : i + step] = _expm(-flat[i : i + step, None, None] * A.matrix)
    return out[0] if ts.ndim == 0 else out


# ---------------------------------------------------------------------------
# Operator profile: K and M; gamma_hat and the weak gamma sample
# ---------------------------------------------------------------------------


def _semigroup_norms(A: MatrixOperator, ts: np.ndarray) -> np.ndarray:
    """||exp(-t A)|| for each t of a 1-D array."""
    vals = semigroup(A, ts)
    if not np.all(np.isfinite(vals)):
        raise ProfileDivergence("semigroup norm overflows on the settling grid; operator rejected")
    return np.linalg.norm(vals, 2, axis=(1, 2))


def _semigroup_sup(A: MatrixOperator) -> tuple[float, bool]:
    """(K, exact), K = sup over t >= 0 of ||exp(-t A)||: exactly 1 on the spectral path and
    when the least computed eigenvalue of (A + A^H)/2 is >= 4 n eps ||A||_2 (Lumer-Phillips;
    Bauer-Fike with condition number 1), else a lower estimate from a search over t."""
    spec = A.spectral()
    if spec is not None:
        if np.any(spec.lam.real < -1e-9 * max(1.0, A.norm2)):
            raise ProfileDivergence("eigenvalue in the open left half-plane; operator rejected")
        return 1.0, True
    herm = 0.5 * (A.matrix + A.matrix.conj().T)
    if np.linalg.eigvals(herm).real.min() >= 4.0 * A.n * np.finfo(float).eps * A.norm2:
        return 1.0, True
    k_lo, k_hi = -12, 8
    best = 1.0
    top = None  # (log2 t, norms) of the grid that gave best
    prev_best = -1.0
    us, norms = np.empty(0), np.empty(0)  # each round appends [k_lo, k_hi)
    for _ in range(12):
        new = np.arange(k_lo, k_hi, 0.25)
        us = np.concatenate([us, new])
        norms = np.concatenate([norms, _semigroup_norms(A, 2.0**new)])
        ts = 2.0**us
        cand = float(norms.max())
        if cand > best:
            best = cand
            top = (us, norms)
        # settled when the top of the grid no longer contributes new growth
        tail_max = float(norms[ts >= ts[-1] / 16.0].max())
        if tail_max <= best * (1.0 + 1e-9) and cand <= prev_best * (1.0 + 1e-9):
            break
        prev_best = cand
        k_lo, k_hi = k_hi, k_hi + 6
        if k_hi > 44:
            if tail_max >= best * 0.999 and norms[-1] >= 0.999 * tail_max and best > 1e6:
                raise ProfileDivergence("semigroup norm grid never settles")
            break
    if top is not None:
        refined = _refine_max(lambda us, _: _semigroup_norms(A, 2.0**us), _bracket_row(*top, 1))
        best = float(refined[0, 1])
    return best, False


def _sectoriality_sup(A: MatrixOperator) -> float:
    """max(1, sup over real y of |y| ||(iy + A)^(-1)||): a closed form on the spectral path."""
    lam = A.eigenvalues
    scale = max(1.0, A.norm2)
    if np.any((np.abs(lam.real) <= 1e-9 * scale) & (np.abs(lam) > 1e-9 * scale)):
        return math.inf
    spec = A.spectral()
    if spec is not None:
        # sup over y of |y| / |iy + lam| is |lam| / Re lam
        big = np.abs(spec.lam) > 1e-9 * scale
        return max(1.0, float((np.abs(spec.lam[big]) / spec.lam.real[big]).max(initial=1.0)))

    def phis(ys: np.ndarray) -> np.ndarray:
        return np.abs(ys) * _top_singular_values(A, 1j * ys, _resolvents)

    half = np.geomspace(1e-6, 1e3 * scale, 60)
    ys = np.concatenate([-half[::-1], half])
    return max(float(_refine_max(lambda us, _: phis(us), _bracket_row(ys, phis(ys), 1))[0, 1]), 1.0)


def _kernel_line(A: MatrixOperator, alpha: float) -> ShapeEnvelope:
    """Envelope of ||(alpha + i beta + A)^(-2)|| in beta: 4/beta^2 past 2(alpha + ||A||) + 1."""
    return ShapeEnvelope(t0=2.0 * (alpha + A.norm2) + 1.0, c=4.0, p=2.0)


# the tolerances of gamma_hat's and gamma_weak_sample's kernel weights
_WEIGHT_CFG = QuadratureConfig(abs_tol=5e-8, rel_tol=1e-6)


def profile(A: MatrixOperator) -> OperatorProfile:
    """K, M, and K_exact: False when K is the search's lower estimate (see `_semigroup_sup`)."""
    if A.n == 0:
        raise InvalidParameter("the operator profile needs a matrix of size at least 1x1")
    K, exact = _semigroup_sup(A)
    return OperatorProfile(K=K, M=_sectoriality_sup(A), K_exact=exact)


def gamma_hat(A: MatrixOperator) -> tuple[float, bool]:
    """(2/pi) times the `kernel_weight` of (w + A)^(-2), and whether that settled."""
    if A.n == 0:
        raise InvalidParameter("gamma_hat needs a matrix of size at least 1x1")
    spec = A.spectral()

    def kernel_norm(zs):
        if spec is not None:
            return np.abs((zs[:, None] + spec.lam) ** -2).max(axis=1)
        return _top_singular_values(A, zs, _resolvents_squared)

    _, weight, settled = kernel_weight(kernel_norm, lambda a: _kernel_line(A, a), _WEIGHT_CFG)
    return (2.0 / math.pi) * weight, settled


def gamma_weak_sample(A: MatrixOperator, seed: int = 42) -> float:
    """(2/pi) max of alpha * int over beta of |<(alpha+i beta+A)^(-2) x, y>| over
    200 seeded unit pairs (x, y) and alpha in DYADIC_GRID[::2]: a lower sample
    of gamma_hat."""
    if A.n == 0:
        raise InvalidParameter("the weak gamma sample needs a matrix of size at least 1x1")
    draws = _SeededDraws(seed)
    npairs = 200
    xs, ys = draws.unit_columns(A.n, npairs), draws.unit_columns(A.n, npairs)
    ys_conj = ys.conj()
    spec = A.spectral()
    if spec is not None:
        # <Q D Q^H x, y> = D-weighted sum of (Q^H x) conj(Q^H y)
        qh = spec.q.conj().T
        weights = (qh @ xs) * (qh @ ys).conj()
    # rows per block: a dense row holds its n*p weak product, a spectral row its p samples
    step = max(1, _WEAK_BLOCK_ENTRIES // (npairs * (A.n if spec is None else 1)))

    def integrand(zs):
        out = np.empty((len(zs), npairs))
        for i in range(0, len(zs), step):
            rows = slice(i, i + step)
            if spec is None:
                prod = (_resolvents_squared(A, zs[rows]) @ xs) * ys_conj
                np.abs(prod.sum(axis=1), out=out[rows])
            else:
                np.abs(((zs[rows, None] + spec.lam) ** -2) @ weights, out=out[rows])
        return out

    best = max(
        float(line_weight(integrand, _kernel_line(A, a), a, _WEIGHT_CFG)[0].max())
        for a in DYADIC_GRID[::2]
    )
    return (2.0 / math.pi) * best


# ---------------------------------------------------------------------------
# The resolvent double-integral calculus
# ---------------------------------------------------------------------------


@dataclass
class ApplyReport:
    value: np.ndarray
    error: float
    # False when K is not exact, so that the outer integrand may not decay like f's envelope
    # as the outer map presumes (no K term enters the error), when f's envelopes are
    # sampled, or when the pairing did not converge
    certified: bool
    n_evals: int = 0


def _spectral_lipschitz(f: AnalyticFunction, lam: np.ndarray) -> float:
    """max |f[lam_i, lam_j]| over pairs of eigenvalues (f' at lam_i when i == j).

    At a normal matrix this is the norm of the Frechet derivative of f in the
    Frobenius norm, so ||f(A) - f(Q diag(lam) Q^H)|| <= it * residual to first
    order.  Pairs closer than 1e-3 (1 + |lam|) take the larger |f'| at their two
    ends, where the divided difference would cancel.
    """
    values = np.asarray(f(lam))
    slopes = np.abs(np.asarray(f.deriv(lam)))
    gap = lam[:, None] - lam[None, :]
    near = np.abs(gap) <= 1e-3 * (1.0 + np.abs(lam))[:, None]
    quotients = np.abs(values[:, None] - values[None, :]) / np.where(near, 1.0, np.abs(gap))
    return float(np.where(near, np.maximum(slopes[:, None], slopes[None, :]), quotients).max())


def apply_calculus_report(
    A: MatrixOperator,
    f: AnalyticFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> ApplyReport:
    """f(A) = f(inf) I - (2/pi) * double integral of alpha (alpha-i beta+A)^(-2) f'.

    The double integral is the kernel pairing of f with (w + A)^(-2), whose weight pi K^2
    is Plancherel's bound on alpha * int |<(alpha+i beta+A)^(-2) x, y>| d beta, x and y unit
    vectors; it is certified when K is exact.  Every admitted operator takes it directly,
    spectrum on iR included: admission leaves only generators of bounded semigroups, which
    the calculus covers.  The kernel's poles -lam all lie in |u| <= ||A||_2, on the dense
    and the spectral path alike, so every inner integral runs on the contour of
    `duality._inner_integral` with R = ||A||_2, and the outer integral on
    `duality.kernel_pairing`'s map of [0, 1) onto the half-line: no tail is cut off.  The
    pairing always runs under _APPLY_CFG; cfg is accepted and not read, because the
    benchmark's calculus workload (perfbench/workloads.py) passes a config positionally."""
    spec = A.spectral()

    def kernel(w):
        if spec is None:
            return _resolvents_squared(A, w)
        return (w[:, None] + spec.lam) ** -2

    prof = A.profile()
    p = kernel_pairing(kernel, A.norm2, f, _APPLY_CFG)
    integral = p.value if spec is None else (spec.q * p.value) @ spec.q.conj().T
    value = f.infinity() * np.eye(A.n) - (2.0 / math.pi) * integral
    # a unitary Q does not enlarge the max-entry error of diag(p.value)
    err = (2.0 / math.pi) * p.error
    if spec is not None and spec.residual > 0.0:
        err += spec.residual * _spectral_lipschitz(f, spec.lam)
    certified = prof.K_exact and not f.profiles.sampled and p.converged
    return ApplyReport(value=value, error=err, certified=certified, n_evals=p.n_evals)


def apply_calculus(A: MatrixOperator, f: AnalyticFunction) -> np.ndarray:
    return apply_calculus_report(A, f).value


def hp_apply(A: MatrixOperator, mu: HalfLineMeasure) -> np.ndarray:
    """sum c_k exp(-t_k A) + int exp(-t A) density(t) dt, in closed form.

    c exp(-rate t) dt gives c (rate + A)^(-1); c dt on [a, b] gives c (Phi(b) - Phi(a)),
    where Phi(t) = int_0^t exp(-s A) ds is the upper-right block of
    exp(t [[-A, I], [0, 0]]) (Van Loan 1978), which needs no inverse of A."""
    out = np.zeros((A.n, A.n), dtype=complex)
    for t, c in mu.atoms:
        out += c * semigroup(A, t)
    if mu.density is None:
        return out
    if mu.density[0] == "exp":
        _, coeff, rate = mu.density
        return out + coeff * resolvent_matrix(A, rate)
    _, coeff, a, b = mu.density
    n = A.n
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = -A.matrix
    block[:n, n:] = np.eye(n)
    phi = _expm(np.array([a, b])[:, None, None] * block)[:, :n, n:]
    return out + coeff * (phi[1] - phi[0])


def oracle_apply(
    A: MatrixOperator, f: AnalyticFunction, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Ground truth: V diag(f(lam)) V^(-1) for diagonalizable A.  Otherwise the sum over
    eigenvalue clusters c of (1/(2 pi i)) * integral of w(z) (z - A)^(-1) dz on a circle
    around c (Higham, Functions of Matrices, SIAM 2008, ch. 1), with w = f on a defective
    cluster and w = f(c), which gives f(c) times the spectral projector, on a semisimple one.

    The radius is half of the distance to the nearest other cluster, or of max(1, ||A||_2)
    for a lone one; a defective cluster's circle also keeps to Re z >= 0 and to half the distance
    to f's boundary.  Each trapezoid sum starts at 64 nodes and doubles them until two sums
    agree within cfg entrywise (Trefethen & Weideman, SIAM Review 56, 2014).  It gives up
    after the first sum whose rounding noise, estimated as eps max|w| r max|(z - A)^(-1)|
    entrywise over its nodes, exceeds that tolerance: no number of nodes would then bring
    two sums together."""
    if A.diagonalizable:
        fl = np.asarray(f(A.eigenvalues))
        v = A.eigenvectors
        return v @ np.diag(fl) @ np.linalg.inv(v)
    centers = np.array([c for c, _ in A.clusters])
    step = max(1, _EXPM_BATCH_ENTRIES // A.n**2)
    out = np.zeros((A.n, A.n), dtype=complex)
    for c, semisimple in A.clusters:
        gaps = np.abs(centers - c)
        r = 0.5 * (gaps[gaps > 0].min() if len(centers) > 1 else max(1.0, A.norm2))
        if not semisimple:
            r = min(r, c.real, 0.5 * (c.real + f.left_bound))
        nodes, prev = 64, None
        while nodes < 64 << _CIRCLE_DOUBLINGS:
            u = np.exp(2j * np.pi * np.arange(nodes) / nodes)
            z = c + r * u
            # dz / (2 pi i) = r u d theta / (2 pi)
            wts = np.asarray(f(c) if semisimple else f(z)) * r * u / nodes
            if not np.all(np.isfinite(wts)):
                raise NonConvergence(f"non-finite samples on the oracle's circle around {c}")
            terms, big = [], 0.0
            for i in range(0, nodes, step):
                res = _resolvents(A, -z[i : i + step])
                terms.append(np.einsum("k,kij->ij", wts[i : i + step], res))
                big = max(big, float(np.max(np.abs(res))))
            total = -sum(terms)
            tol = cfg.rel_tol * np.max(np.abs(total)) + cfg.abs_tol
            # eps max|w| r max|(z - A)^(-1)|, since |wts| = |w| r / nodes
            noise = np.finfo(float).eps * np.max(np.abs(wts)) * nodes * big
            if noise > tol:
                raise NonConvergence(
                    f"the oracle's circle integral around {c} did not settle: its rounding "
                    f"noise {noise:.1e} exceeds the tolerance {tol:.1e}"
                )
            if prev is not None and np.max(np.abs(total - prev)) <= tol:
                break
            prev, nodes = total, 2 * nodes
        else:
            raise NonConvergence(f"the oracle's circle integral around {c} did not settle")
        out += total
    return out


def _as_vector(v, n: int, name: str) -> np.ndarray:
    """v as a complex vector, which must have length n and finite entries."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (n,):
        raise InvalidParameter(f"{name} must be a vector of length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameter(f"{name} must be finite")
    return v


def semigroup_reconstruct_check(
    A: MatrixOperator,
    t: float,
    x: np.ndarray,
    xstar: np.ndarray,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Residual of the weak semigroup reconstruction from the squared resolvent.

    Evaluates (1/(2 pi t)) int <(alpha+i beta+A)^(-2) x, x*> e^((alpha+i beta)t) d beta
    at alpha = 1/t and compares with <exp(-tA) x, x*>.  The integral runs, in
    lambda = alpha + i beta, on `quadrature.integrate_contour` with its rays to the left,
    where e^(lambda t) decays; every pole of (lambda + A)^(-2) lies in |lambda| <= ||A||_2,
    the contour's radius.
    """
    if not 0 < t < math.inf:
        raise InvalidParameter(f"t must be positive, got {t!r}")
    x = _as_vector(x, A.n, "x")
    xstar = _as_vector(xstar, A.n, "xstar")

    def integrand(lams, dbetas):
        r2 = _resolvents_squared(A, lams)
        return np.einsum("kij,j,i->k", r2, x, xstar.conj()) * np.exp(lams * t) * dbetas

    res = integrate_contour(integrand, 1.0 / t, A.norm2, -1.0, cfg)
    lhs = complex(res.value) / (2.0 * math.pi * t)
    rhs = complex(xstar.conj() @ (semigroup(A, t) @ x))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Parsing and IO
# ---------------------------------------------------------------------------


def read_matrix_text(text: str, label: str = "A") -> MatrixOperator:
    """Plain-text format: first line n, then n rows of complex entries re+imi."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameter("empty matrix text")
    n = parse_number(lines[0], "matrix size", int)
    if len(lines) != n + 1:
        raise InvalidParameter(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = [parse_complex(tok) for tok in ln.split()]
        if len(entries) != n:
            raise InvalidParameter(f"row with {len(entries)} entries, expected {n}")
        rows.append(entries)
    return MatrixOperator(np.array(rows, dtype=complex), label=label)


def format_matrix_text(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"{v.real:.17g}{v.imag:+.17g}i" for v in row))
    return "\n".join(lines) + "\n"


def _check_random_size(n: int) -> None:
    if not _is_int_in(n, 0, _MAX_DIM):
        raise InvalidParameter(f"random operator size n must be an integer in [0, {_MAX_DIM}]")


def random_normal_operator(
    n: int, seed: int, box: tuple[float, float, float, float] = (0.5, 5.0, -5.0, 5.0)
) -> MatrixOperator:
    """Q diag(lam) Q^H with lam uniform in the box [re_min, re_max] x [im_min, im_max]
    and Q the QR factor of a complex normal matrix."""
    _check_random_size(n)
    if not (box[0] <= box[1] and box[2] <= box[3]):
        raise InvalidParameter(f"spectrum box needs min <= max on both axes, got {list(box)}")
    draws = _SeededDraws(seed)
    re = draws.uniform(box[0], box[1], n)
    im = draws.uniform(box[2], box[3], n)
    q, _ = np.linalg.qr(draws.complex_normal(n, n))
    a = q @ np.diag(re + 1j * im) @ q.conj().T
    return MatrixOperator(a, label=f"normal_random({n},seed={seed})")


def random_sectorial_operator(n: int, seed: int, angle: float) -> MatrixOperator:
    """V diag(lam) V^(-1) with |lam| log-uniform in [0.2, 8], arg lam uniform in
    [-angle, angle], and V the identity plus 0.3 times a normal strict upper triangle."""
    _check_random_size(n)
    if not 0 <= angle < math.pi / 2:
        raise InvalidParameter("sector half-angle must be in [0, pi/2)")
    draws = _SeededDraws(seed)
    r = np.exp(draws.uniform(math.log(0.2), math.log(8.0), n))
    phi = draws.uniform(-angle, angle, n)
    lam = r * np.exp(1j * phi)
    v = np.eye(n) + 0.3 * np.triu(draws.normal(n, n), 1)
    a = v @ np.diag(lam) @ np.linalg.inv(v)
    return MatrixOperator(a, label=f"sectorial_random({n},seed={seed})")


def jordan_operator(lam: complex, m: int) -> MatrixOperator:
    if not _is_int_in(m, 1):
        raise InvalidParameter("Jordan block size needs integer m >= 1")
    a = np.diag(np.full(m, complex(lam))) + np.diag(np.ones(m - 1), 1) if m > 1 else np.array(
        [[complex(lam)]]
    )
    return MatrixOperator(a, label=f"jordan({lam},{m})")


def parse_operator_spec(text: str) -> MatrixOperator:
    s = text.strip()
    if s.startswith("file:"):
        with open(s[5:], "r", encoding="utf-8") as fh:
            return read_matrix_text(fh.read(), label=s)
    args = SpecArgs(text, "operator", bare=False)
    A = _build_operator(args, s)
    args.finish()
    return A


def _build_operator(args: SpecArgs, label: str) -> MatrixOperator:
    name = args.name
    if name == "diag":
        return MatrixOperator(np.diag(np.array(args.numbers(), dtype=complex)), label=label)
    if name == "jordan":
        return jordan_operator(args.number("lambda", 0), args.number("m", 1, kind=int))
    if name == "normal_random":
        n = args.number("n", 0, kind=int)
        seed = args.number("seed", 1, 42, kind=int)
        box = (0.5, 5.0, -5.0, 5.0)
        box_text = args.text("box", default=None)
        if box_text is not None:
            nums = [parse_number(x, "box", float) for x in box_text.strip("[]").split(",")]
            if len(nums) != 4:
                raise InvalidParameter("spectrum box needs [re_min,re_max,im_min,im_max]")
            box = tuple(nums)  # type: ignore[assignment]
        return random_normal_operator(n, seed, box)
    if name == "sectorial_random":
        n = args.number("n", 0, kind=int)
        seed = args.number("seed", 1, 42, kind=int)
        angle = args.number("angle", 2, math.pi / 6, kind=float)
        return random_sectorial_operator(n, seed, angle)
    raise UnknownSpec(f"unknown operator family {name!r}")

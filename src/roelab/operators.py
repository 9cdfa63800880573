"""Operators on l2(X): norms, propagation, band truncation, band-distance bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, TooLargeForExact
from .spaces import FiniteMetricSpace

ZERO_TOL = 1e-9
EXACT_EPSPROP_MAX = 20

# operator_norm: LAPACK when the smaller side is at most DENSE_NORM_MAX,
# Golub-Kahan-Lanczos above it. Both cost about 2.5 ms (main-thread CPU, 2-vCPU
# x86 VM, OpenBLAS) on complex 128 x 128 band and dense matrices.
DENSE_NORM_MAX = 128
_GKL_TOL = 1e-12
_GKL_MAXITER = 500


def operator_norm(mat, *, with_err: bool = False):
    """Largest singular value of a dense array or a scipy sparse matrix.

    If the smaller side is at most DENSE_NORM_MAX, LAPACK's SVD gives the
    value, and err is its backward-error bound max(p, q) * eps_mach * value.
    Otherwise Golub-Kahan-Lanczos bidiagonalisation with full
    reorthogonalisation runs from a fixed seeded start vector, using only
    products with mat and its adjoint (the Gram matrix is never formed). It
    stops once the top Ritz residual beta_k |e_k^T x| (x the top left
    singular vector of the k x k bidiagonal B_k) is at most 1e-12 times the
    Ritz value theta = sigma_max(B_k). Then theta is a lower estimate of the
    norm and err is that residual: some singular value lies within err of
    theta, so theta + err is the upper estimate. An iteration that has not
    converged after _GKL_MAXITER steps is not reported: the dense LAPACK
    value is returned instead.

    Returns the value, or (value, err) with with_err=True.
    """
    value, err = _norm_with_err(mat)
    return (value, err) if with_err else value


def _norm_with_err(mat) -> tuple:
    sparse = hasattr(mat, "tocsr")
    m = mat if sparse else np.atleast_2d(np.asarray(mat))
    if 0 in m.shape:
        return 0.0, 0.0
    if min(m.shape) > DENSE_NORM_MAX:
        found = _gkl_top(m)
        if found is not None:
            return found
    return _dense_norm(m.toarray() if sparse else m)


def _dense_norm(m: np.ndarray) -> tuple:
    value = float(np.linalg.svd(m, compute_uv=False)[0])
    return value, max(m.shape) * np.finfo(float).eps * value


def _orthogonalise(w: np.ndarray, Q: np.ndarray) -> None:
    """Remove from w, in place, its components along the orthonormal rows of Q
    (classical Gram-Schmidt, twice)."""
    for _ in range(2):
        w -= (Q @ w.conj()).conj() @ Q


def _gkl_top(m):
    """(theta, residual) of Golub-Kahan-Lanczos once converged; None at the cap."""
    mh = m.conj().T
    if m.shape[0] < m.shape[1]:  # start on the smaller side, which fills first
        m, mh = mh, m
    p, q = m.shape
    dtype = np.result_type(m.dtype, np.float64)
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(q)
    if dtype.kind == "c":
        v = v + 1j * rng.standard_normal(q)
    # Krylov bases as rows, grown by doubling; B is upper bidiagonal with
    # alpha on its diagonal and beta above it
    cap = 16
    U = np.empty((cap, p), dtype)
    V = np.empty((cap, q), dtype)
    V[0] = v / np.linalg.norm(v)
    alpha = np.empty(cap)
    beta = np.empty(cap)
    next_check = 1
    for k in range(min(_GKL_MAXITER, p, q)):
        if k + 1 == cap:
            cap *= 2
            U = np.concatenate([U, np.empty_like(U)])
            V = np.concatenate([V, np.empty_like(V)])
            alpha = np.concatenate([alpha, np.empty_like(alpha)])
            beta = np.concatenate([beta, np.empty_like(beta)])
        w = m @ V[k]
        if k:
            w -= beta[k - 1] * U[k - 1]
            _orthogonalise(w, U[:k])
        alpha[k] = np.linalg.norm(w)
        # alpha = 0: V[:k+1] maps into span(U[:k]), an invariant pair; the zero
        # row makes r and so beta vanish, which ends the iteration below
        U[k] = w / alpha[k] if alpha[k] > 0 else 0.0
        r = mh @ U[k] - alpha[k] * V[k]
        _orthogonalise(r, V[: k + 1])
        beta[k] = np.linalg.norm(r)
        if beta[k] > 0:
            V[k + 1] = r / beta[k]
        # checks at geometrically spaced steps, and whenever the basis stalls
        if k + 1 >= next_check or beta[k] <= _GKL_TOL * alpha[: k + 1].max():
            next_check = k + 1 + max(1, (k + 1) // 8)
            B = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1)
            X, s, _ = np.linalg.svd(B)
            residual = float(beta[k] * abs(X[-1, 0]))
            if residual <= _GKL_TOL * s[0]:
                return float(s[0]), residual
    return None


def _sigma_max(mat: np.ndarray) -> float:
    """LAPACK largest singular value; used inside hot subset scans."""
    m = np.atleast_2d(mat)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class SpaceOperator:
    """Dense operator on l2(X); entry mat[y, x] is the (delta_x -> delta_y) coefficient."""

    space: FiniteMetricSpace
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.complex128)
        if m.shape != (self.space.n, self.space.n):
            raise ValueError("operator shape does not match the space")
        object.__setattr__(self, "mat", m)

    def to_json(self) -> dict:
        flat = self.mat.reshape(-1)
        return {
            "space_label": self.space.label,
            "n": self.space.n,
            "rows": [[float(z.real), float(z.imag)] for z in flat],
        }

    @staticmethod
    def from_json(obj: dict, space: FiniteMetricSpace) -> "SpaceOperator":
        n = obj["n"]
        if n != space.n:
            raise ValueError("operator json size does not match the space")
        flat = np.array([complex(re, im) for re, im in obj["rows"]])
        return SpaceOperator(space=space, mat=flat.reshape(n, n))


@dataclass(frozen=True)
class RectangleWitness:
    """A compression 1_A u 1_B together with its separation and norm."""

    A: tuple
    B: tuple
    separation: float
    value: float


def opnorm(u: SpaceOperator) -> float:
    return operator_norm(u.mat)


def propagation(u: SpaceOperator, tol: float = ZERO_TOL):
    """Largest distance carrying an entry of modulus > tol; -inf for the zero operator."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    mask = np.abs(u.mat) > tol
    if not mask.any():
        return -math.inf
    return u.space.dist.T[mask].max()


def rect_norm(u: SpaceOperator, A, B) -> RectangleWitness:
    """Witness for the compression 1_A u 1_B (A on the output side)."""
    A = np.asarray(A, dtype=int)
    B = np.asarray(B, dtype=int)
    if A.size == 0 or B.size == 0:
        raise EmptySubset("rectangle compression needs nonempty subsets")
    value = operator_norm(u.mat[np.ix_(A, B)])
    sep = u.space.set_distance(A, B)
    return RectangleWitness(A=tuple(A.tolist()), B=tuple(B.tolist()), separation=sep, value=value)


def band_mask(space: FiniteMetricSpace, R) -> np.ndarray:
    """Boolean mask of entry positions (y, x) with dist(x, y) <= R."""
    return space.dist <= R


def band_truncate(u: SpaceOperator, R) -> SpaceOperator:
    if R < 0:
        raise ValueError("radius must be nonnegative")
    kept = np.where(band_mask(u.space, R), u.mat, 0.0)
    return SpaceOperator(space=u.space, mat=kept)


def _subset_bits(mask: int, n: int) -> np.ndarray:
    return np.array([i for i in range(n) if mask >> i & 1], dtype=int)


def _candidate_radii(space: FiniteMetricSpace) -> np.ndarray:
    vals = np.unique(space.dist)
    if vals[0] != 0:
        vals = np.concatenate([[0], vals])
    return vals


@dataclass(frozen=True)
class EpsPropagationResult:
    lower: float
    upper: float
    witness: RectangleWitness | None
    mode: str


def _worst_B(space: FiniteMetricSpace, A: np.ndarray, R) -> np.ndarray:
    """Complement of the R-neighborhood of A: the largest admissible B."""
    inside = space.dist[A].min(axis=0) <= R
    return np.flatnonzero(~inside)


def eps_propagation_radius(
    u: SpaceOperator, eps: float, mode: str = "exact", seed: int = 0, budget: int = 1000
) -> EpsPropagationResult:
    """Radius R such that every compression with separation > R has norm <= eps.

    exact: full subset scan over output sets A, with B fixed to the complement
    of the R-neighborhood of A (rectangle norms are monotone in B, so this B
    is the worst case). heuristic: a bracketing pair -- violating rectangles
    give the lower end, band-truncation tails (value + err of their norm)
    the upper end.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    space = u.space
    n = space.n
    radii = _candidate_radii(space)
    if mode == "exact":
        if n > EXACT_EPSPROP_MAX:
            raise TooLargeForExact(f"exact eps-propagation limited to |X| <= {EXACT_EPSPROP_MAX}")
        best_R = 0.0
        witness = None
        for a_mask in range(1, 1 << n):
            A = _subset_bits(a_mask, n)
            lo, hi = 0, len(radii) - 1
            # smallest candidate radius at which this A stops violating
            while lo < hi:
                mid = (lo + hi) // 2
                B = _worst_B(space, A, radii[mid])
                if B.size == 0 or _sigma_max(u.mat[np.ix_(A, B)]) <= eps:
                    hi = mid
                else:
                    lo = mid + 1
            r_a = radii[lo]
            if r_a > best_R:
                best_R = r_a
                if lo > 0:
                    B_prev = _worst_B(space, A, radii[lo - 1])
                    witness = rect_norm(u, A, B_prev)
        return EpsPropagationResult(lower=float(best_R), upper=float(best_R), witness=witness, mode="exact")
    if mode == "heuristic":
        # upper end: smallest radius whose truncation tail is below eps
        lo, hi = 0, len(radii) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            tail, err = operator_norm(u.mat - band_truncate(u, radii[mid]).mat, with_err=True)
            if tail + err <= eps:
                hi = mid
            else:
                lo = mid + 1
        upper = float(radii[lo])
        lower = 0.0
        witness = None
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            r = radii[rng.integers(0, len(radii))]
            pair = _closed_pair(u, r, rng)
            if pair is None:
                continue
            A, B = pair
            value = _sigma_max(u.mat[np.ix_(A, B)])
            if value > eps:
                sep = space.set_distance(A, B)
                if sep > lower:
                    lower = float(sep)
                    witness = RectangleWitness(
                        A=tuple(A.tolist()), B=tuple(B.tolist()), separation=sep, value=value
                    )
        return EpsPropagationResult(lower=lower, upper=upper, witness=witness, mode="heuristic")
    raise ValueError(f"unknown mode {mode!r}")


def _closed_pair(u: SpaceOperator, R, rng, pool=None):
    """Grow a random seed set to a maximal separated rectangle at radius R."""
    space = u.space
    n = space.n
    if pool is None:
        pool = np.arange(n)
    size = int(rng.integers(1, max(2, len(pool) // 2 + 1)))
    A = rng.choice(pool, size=min(size, len(pool)), replace=False)
    for _ in range(4):
        B = _worst_B(space, A, R)
        if B.size == 0:
            return None
        A_new = _worst_B(space, B, R)
        if A_new.size == 0:
            return None
        if A_new.size == A.size and np.array_equal(np.sort(A_new), np.sort(A)):
            A = A_new
            break
        A = A_new
    B = _worst_B(space, A, R)
    if B.size == 0:
        return None
    return np.sort(A), np.sort(B)


@dataclass(frozen=True)
class BandDistanceBounds:
    lower: float
    upper: float
    witness: RectangleWitness | None


def dist_to_band_bounds(
    u: SpaceOperator, R, budget: int = 1000, seed: int = 0, pool=None
) -> BandDistanceBounds:
    """Two-sided bounds on the distance from u to the R-band operators.

    Any rectangle with separation > R survives subtraction of an R-band
    operator, so its norm is a lower bound; the norm of the truncation tail,
    value + err, is the upper bound. For |X| <= 12 the lower bound is the
    exact separated-rectangle supremum (full subset scan); otherwise a
    budgeted random search.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    space = u.space
    n = space.n
    tail, err = operator_norm(u.mat - band_truncate(u, R).mat, with_err=True)
    upper = tail + err
    best = 0.0
    witness = None

    def consider(A, B):
        nonlocal best, witness
        value = _sigma_max(u.mat[np.ix_(A, B)])
        if value > best:
            best = value
            witness = RectangleWitness(
                A=tuple(np.asarray(A).tolist()),
                B=tuple(np.asarray(B).tolist()),
                separation=space.set_distance(A, B),
                value=value,
            )

    if n <= 12 and pool is None:
        for a_mask in range(1, 1 << n):
            A = _subset_bits(a_mask, n)
            B = _worst_B(space, A, R)
            if B.size:
                consider(A, B)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(budget):
            pair = _closed_pair(u, R, rng, pool=pool)
            if pair is not None:
                consider(*pair)
    return BandDistanceBounds(lower=best, upper=upper, witness=witness)

"""Operators on l2(X): norms, propagation, band truncation, band-distance bounds."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, TooLargeForExact
from .spaces import FiniteMetricSpace, neighbourhood_table

ZERO_TOL = 1e-9
EXACT_EPSPROP_MAX = 20
EXACT_BAND_DIST_MAX = 12
# the exact subset scans enumerate output masks in chunks of at most
# MASK_CELLS (mask, point) cells, so |X| = EXACT_EPSPROP_MAX stays bounded
# (the 2^|X| uint32 neighbourhood table itself takes 4 MiB there)
MASK_CELLS = 1 << 18
# _rect_norms gathers at most STACK_ENTRIES matrix entries per LAPACK pass, and
# the random rectangle searches close their seeds CLOSE_BLOCK draws at a time
STACK_ENTRIES = 1 << 16
CLOSE_BLOCK = 64

# operator_norm: LAPACK when the smaller side is at most DENSE_NORM_MAX,
# Golub-Kahan-Lanczos above it. Both cost about 2.5 ms (main-thread CPU, 2-vCPU
# x86 VM, OpenBLAS) on complex 128 x 128 band and dense matrices. The Lanczos
# products gather over the nonzero entries, at O(nnz) each, when at most
# GATHER_MAX_FILL of the entries are nonzero, and use BLAS otherwise; each step
# runs one Gram-Schmidt pass, and a second only when the first cancels more
# than 1/sqrt(2) of the norm; Ritz checks come every max(1, k // 4) steps.
DENSE_NORM_MAX = 128
GATHER_MAX_FILL = 0.25
_GKL_TOL = 1e-12
_GKL_MAXITER = 500


def operator_norm(mat, *, with_err: bool = False):
    """Largest singular value of a dense array or a scipy sparse matrix.

    If the smaller side is at most DENSE_NORM_MAX, LAPACK's SVD gives the
    value, and err is its backward-error bound max(p, q) * eps_mach * value.
    Otherwise Golub-Kahan-Lanczos bidiagonalisation runs from a fixed seeded
    start vector, using only products with mat and its adjoint (the Gram
    matrix is never formed). One scan finds the nonzero entries: none gives
    (0.0, 0.0) at once; at most GATHER_MAX_FILL of them makes each product a
    gather, a multiply and a segmented sum over those entries (a scipy sparse
    matrix always enters through its COO entries); a denser matrix is
    multiplied by BLAS. Each new basis vector is reorthogonalised by one
    classical Gram-Schmidt pass, and by a second only when the first removed
    more than 1/sqrt(2) of its norm ("twice is enough"). At steps spaced by a
    quarter of the step count, and whenever the basis stalls, the iteration
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
    sparse = hasattr(mat, "tocoo")
    m = mat if sparse else np.atleast_2d(np.asarray(mat))
    if 0 in m.shape:
        return 0.0, 0.0
    if min(m.shape) > DENSE_NORM_MAX:
        found = _gkl_top(m)
        if found is not None:
            return found
    value = _sigma_max(m.toarray() if sparse else m)
    return value, max(m.shape) * np.finfo(float).eps * value


def _products(m):
    """(x -> m x, y -> m* y), or None when m has no nonzero entry."""
    if hasattr(m, "tocoo"):
        coo = m.tocoo()
        live = coo.data != 0
        rows, cols, vals = coo.row[live], coo.col[live], coo.data[live]
        # row-major like the dense scan, so that a sparse matrix and its dense
        # twin sum each product in the same order
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
    else:
        nonzero = m != 0
        if np.count_nonzero(nonzero) > GATHER_MAX_FILL * m.size:
            return (lambda x: m @ x), (lambda y: (y.conj() @ m).conj())
        rows, cols = np.divmod(np.flatnonzero(nonzero), m.shape[1])
        vals = m[rows, cols]
    if vals.size == 0:
        return None
    by_col = np.argsort(cols, kind="stable")
    forward = _gathered(rows, cols, vals, m.shape[0])
    adjoint = _gathered(cols[by_col], rows[by_col], vals[by_col].conj(), m.shape[1])
    return forward, adjoint


def _gathered(out, inp, vals, size):
    """x -> y with y[out[j]] = sum of vals[j] x[inp[j]], for entries sorted by out."""
    starts = np.flatnonzero(np.diff(out, prepend=-1))
    targets = out[starts]

    def product(x):
        y = np.zeros(size, np.result_type(vals, x))
        y[targets] = np.add.reduceat(vals * x[inp], starts)
        return y

    return product


def _orthogonalise(w: np.ndarray, Q: np.ndarray) -> float:
    """Remove from w, in place, its components along the orthonormal rows of Q
    by classical Gram-Schmidt, repeated once if the pass cancelled more than
    1/sqrt(2) of w's norm; returns the norm of the result."""
    before = np.linalg.norm(w)
    w -= (Q @ w.conj()).conj() @ Q
    after = np.linalg.norm(w)
    if 2.0 * after * after < before * before:
        w -= (Q @ w.conj()).conj() @ Q
        after = np.linalg.norm(w)
    return after


def _gkl_top(m):
    """(theta, residual) of Golub-Kahan-Lanczos once converged; None at the cap."""
    products = _products(m)
    if products is None:
        return 0.0, 0.0
    apply, adjoint = products
    p, q = m.shape
    if p < q:  # start on the smaller side, which fills first
        apply, adjoint, p, q = adjoint, apply, q, p
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
        w = apply(V[k])
        if k:
            w -= beta[k - 1] * U[k - 1]
        alpha[k] = _orthogonalise(w, U[:k])
        # alpha = 0: V[:k+1] maps into span(U[:k]), an invariant pair; the zero
        # row makes r and so beta vanish, which ends the iteration below
        U[k] = w / alpha[k] if alpha[k] > 0 else 0.0
        r = adjoint(U[k]) - alpha[k] * V[k]
        beta[k] = _orthogonalise(r, V[: k + 1])
        if beta[k] > 0:
            V[k + 1] = r / beta[k]
        # checks at geometrically spaced steps, and whenever the basis stalls
        if k + 1 >= next_check or beta[k] <= _GKL_TOL * alpha[: k + 1].max():
            next_check = k + 1 + max(1, (k + 1) // 4)
            B = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1)
            X, s, _ = np.linalg.svd(B)
            residual = float(beta[k] * abs(X[-1, 0]))
            if residual <= _GKL_TOL * s[0]:
                return float(s[0]), residual
    return None


def _sigma_max(mat: np.ndarray) -> float:
    """LAPACK largest singular value of one matrix: the scalar entry of
    sigma_max_stack, and bit-identical to it.

    Dense operator_norm values come from here; the rectangle searches batch
    their norms through sigma_max_stack instead.
    """
    m = np.atleast_2d(mat)
    return float(sigma_max_stack(m[None])[0])


def sigma_max_stack(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack of shape (k, p, q).

    One LAPACK pass: numpy's SVD gufunc runs the same routine on every matrix
    of the stack, so each value is bit-identical to np.linalg.norm(m, 2) of
    that matrix alone. An all-zero matrix gets an exact 0.0 without a LAPACK
    call, which is what LAPACK returns for it; so does a stack with p or q = 0.
    """
    out = np.zeros(stack.shape[0])
    if stack.size == 0:
        return out
    live = stack.reshape(stack.shape[0], -1).any(axis=1)
    if live.all():
        return np.linalg.svd(stack, compute_uv=False)[:, 0]
    if live.any():
        out[live] = np.linalg.svd(stack[live], compute_uv=False)[:, 0]
    return out


def complex_from_pairs(obj) -> np.ndarray:
    """Nested lists of finite [re, im] pairs as complex128, one axis fewer; each
    entry is bit-identical to complex(re, im). Anything else is a ValueError."""
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected numeric [re, im] pairs: {exc}") from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs, got an array of shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("[re, im] pairs must be finite")
    return np.ascontiguousarray(arr).view(np.complex128)[..., 0]


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
        if not isinstance(obj, dict):
            raise ValueError("operator json is not an object")
        for key in ("n", "rows"):
            if key not in obj:
                raise ValueError(f"operator json has no {key!r} field")
        n = obj["n"]
        if type(n) is not int:  # excludes bool and 2.0, which reshape rejects
            raise ValueError(f"operator json 'n' must be an integer, got {n!r}")
        if n != space.n:
            raise ValueError("operator json size does not match the space")
        flat = complex_from_pairs(obj["rows"])
        if flat.shape != (n * n,):
            raise ValueError(f"operator json needs n * n = {n * n} [re, im] rows")
        return SpaceOperator(space=space, mat=flat.reshape(n, n))

    # The two norm hooks of the searches, which read nothing of an operator
    # but `space`, `rect_norms` and `tail_bound`. Here they work on the dense
    # matrix; quasilocal.AssemblyOperator, which holds no dense matrix,
    # supplies the same three from its member factors.

    def rect_norms(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """sigma_max of each compression 1_A u 1_B, given boolean membership
        rows of shape (k, n) for A and B; 0.0 where a side is empty
        (_rect_norms on the dense matrix)."""
        return _rect_norms(self.mat, rows, cols)

    def tail_bound(self, R) -> float:
        """Upper estimate value + err of ||u - band_truncate(u, R)||, the truncation
        tail, normed on one copy of u with its R-band zeroed."""
        tail, err = operator_norm(np.where(self.space.near(R), 0.0, self.mat), with_err=True)
        return tail + err


@dataclass(frozen=True)
class RectangleWitness:
    """A compression 1_A u 1_B together with its separation and norm."""

    A: tuple
    B: tuple
    separation: float
    value: float


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


def band_truncate(u: SpaceOperator, R) -> SpaceOperator:
    kept = np.where(u.space.near(R), u.mat, 0.0)
    return SpaceOperator(space=u.space, mat=kept)


def _rect_norms(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sigma_max of each compression mat[rows[i]][:, cols[i]], given boolean
    membership rows of shape (k, n); 0.0 where a side is empty.

    One sigma_max_stack call per (|A|, |B|) shape group, split so that no
    gathered stack holds more than STACK_ENTRIES entries; the indices of each
    side are in increasing order, as np.flatnonzero gives them.
    """
    na = rows.sum(axis=1)
    nb = cols.sum(axis=1)
    values = np.zeros(len(rows))
    shape = np.where((na > 0) & (nb > 0), na * (cols.shape[1] + 1) + nb, -1)
    order = np.argsort(shape, kind="stable")
    keys, starts = np.unique(shape[order], return_index=True)
    for key, group in zip(keys, np.split(order, starts[1:])):
        if key < 0:
            continue
        a_idx = np.nonzero(rows[group])[1].reshape(len(group), -1)[:, :, None]
        b_idx = np.nonzero(cols[group])[1].reshape(len(group), -1)[:, None, :]
        step = max(1, STACK_ENTRIES // (a_idx.shape[1] * b_idx.shape[2]))
        for s in range(0, len(group), step):
            part = slice(s, s + step)
            values[group[part]] = sigma_max_stack(mat[a_idx[part], b_idx[part]])
    return values


@dataclass(frozen=True)
class EpsPropagationResult:
    lower: float
    upper: float
    witness: RectangleWitness | None
    mode: str


def _smallest_radius(n: int, clear) -> int:
    """Index of the smallest of n candidate radii at which clear(i) holds, by
    bisection; clear is taken to be monotone and to hold at n - 1."""
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if clear(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _exact_rectangles(u: SpaceOperator, R):
    """(A, B, norms) per chunk of at most MASK_CELLS (mask, point) cells:
    every nonempty output mask A, in increasing mask order, with B the
    complement of its R-neighbourhood (spaces.neighbourhood_table), the
    largest B separated from A by more than R (rectangle norms are monotone
    in B, so this B is the worst case). norms come from u.rect_norms; on a
    dense operator that is one LAPACK pass per (|A|, |B|) shape group,
    bit-identical to one LAPACK SVD per rectangle; 0.0 where B is empty."""
    n = u.space.n
    table = neighbourhood_table(u.space.near(R))
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    step = max(1, MASK_CELLS // max(n, 1))
    for start in range(1, 1 << n, step):
        masks = np.arange(start, min(start + step, 1 << n), dtype=np.uint32)
        A = (masks[:, None] & bits) != 0
        B = (table[masks][:, None] & bits) == 0
        yield A, B, u.rect_norms(A, B)


def eps_propagation_violation(u: SpaceOperator, eps: float, R) -> RectangleWitness | None:
    """Witness of the first output mask, in increasing mask order, whose
    worst-case rectangle at radius R (_exact_rectangles) has norm not <= eps
    (NaN counts as a violation); None if u has eps-propagation <= R. The scan
    stops at the first chunk holding a violation."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if u.space.n > EXACT_EPSPROP_MAX:
        raise TooLargeForExact(f"exact eps-propagation limited to |X| <= {EXACT_EPSPROP_MAX}")
    for A, B, norms in _exact_rectangles(u, R):
        bad = np.flatnonzero(~(norms <= eps))
        if bad.size:
            i = bad[0]
            return _witness(u.space, A[i], B[i], norms[i])
    return None


def eps_propagation_radius(
    u: SpaceOperator, eps: float, mode: str = "exact", seed: int = 0, budget: int = 1000
) -> EpsPropagationResult:
    """Radius R such that every compression with separation > R has norm <= eps.

    exact: the smallest candidate radius at which eps_propagation_violation
    finds no violation, by bisection over u.space.radii() (each probed
    radius scanned once). The witness is the violation at the next smaller
    candidate radius, which the bisection always probed: the first mask, in
    increasing mask order, whose worst-case rectangle there has norm > eps.
    heuristic: the bracket of eps_propagation_brackets(u, [eps], seed, budget).
    """
    if mode == "heuristic":
        return eps_propagation_brackets(u, [eps], seed=seed, budget=budget)[0]
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    radii = u.space.radii()
    probe = functools.cache(lambda i: eps_propagation_violation(u, eps, radii[i]))
    lo = _smallest_radius(len(radii), lambda i: probe(i) is None)
    witness = probe(lo - 1) if lo else None
    return EpsPropagationResult(lower=float(radii[lo]), upper=float(radii[lo]), witness=witness, mode="exact")


def eps_propagation_brackets(u: SpaceOperator, eps_list, seed: int = 0, budget: int = 1000) -> list:
    """Heuristic bracket [lower, upper] of the eps-propagation radius, per eps.

    One random search serves every eps: `budget` rectangles (a random
    candidate radius and seed set each) are drawn, closed and normed once by
    _random_rectangles. The lower end is the largest separation among the
    rectangles with norm > eps (NaN never violates), witnessed by the
    earliest draw at that separation; 0.0 without one. The upper end is the
    smallest candidate radius whose truncation tail bound (u.tail_bound)
    is <= eps, found by bisection; each probed radius is normed once across
    all eps.
    """
    eps_list = list(eps_list)
    if not all(eps > 0 for eps in eps_list):
        raise ValueError("eps must be positive")
    space = u.space
    radii = space.radii()
    picks, seeds = _draw_seeds(np.random.default_rng(seed), np.arange(space.n), space.n, budget, len(radii))
    A, B, norms = _random_rectangles(u, radii[picks], seeds)
    # hits below reads only rows whose norm exceeds some eps, so only those
    # get a separation; the zeros left in the others are never read
    seps = np.zeros(len(norms))
    for i in np.flatnonzero(norms > min(eps_list, default=math.inf)):
        seps[i] = space.set_distance(np.flatnonzero(A[i]), np.flatnonzero(B[i]))
    tail = functools.cache(lambda i: u.tail_bound(radii[i]))
    brackets = []
    for eps in eps_list:
        lo = _smallest_radius(len(radii), lambda i: tail(i) <= eps)
        lower, witness = 0.0, None
        hits = np.flatnonzero(norms > eps)
        if hits.size:
            i = hits[np.argmax(seps[hits])]  # the earliest draw at the largest separation
            lower, witness = float(seps[i]), _witness(space, A[i], B[i], norms[i])
        brackets.append(EpsPropagationResult(lower, float(radii[lo]), witness, "heuristic"))
    return brackets


def _draw_seeds(rng, pool, n: int, budget: int, n_radii: int = 0) -> tuple:
    """(radius indices, boolean seed rows) of a budgeted random search.

    Each draw takes, in this order, a radius index in [0, n_radii) when
    n_radii > 0, a size in [1, max(1, len(pool) // 2)], and that many
    distinct points of pool. No draw depends on a norm, so all of them come first.
    A budget below 1 would draw nothing and bound nothing, so it is rejected.
    """
    if not budget >= 1:
        raise ValueError("budget must be at least 1")
    picks = np.zeros(budget, dtype=int)
    seeds = np.zeros((budget, n), dtype=bool)
    high = max(2, len(pool) // 2 + 1)
    for i in range(budget):
        if n_radii:
            picks[i] = rng.integers(0, n_radii)
        size = int(rng.integers(1, high))
        seeds[i, rng.choice(pool, size=min(size, len(pool)), replace=False)] = True
    return picks, seeds


def _close_rectangles(space: FiniteMetricSpace, radii: np.ndarray, seeds: np.ndarray) -> tuple:
    """Grow each seed row S to a maximal separated rectangle at its radius radii[i]:
    B = far(S), then A = far(B), where far(S) is the set of points farther
    than the row's radius from all of S. A row is kept iff B is nonempty.

    One round is the whole closure. far is antitone (S within T gives far(T)
    within far(S)), and since the R-relation of a space is symmetric, every
    S lies within far(far(S)). Applying far to the latter gives
    far(far(far(S))) within far(S), and the former with far(S) in place of S
    gives the reverse: far o far o far = far, a Galois connection. So A
    contains the seed, far(A) = B, and further rounds would return the same
    A and B.

    Rows are closed per distinct radius R, CLOSE_BLOCK rows at a time, and
    far of a block is one float32 GEMM with the 0/1 matrix
    near = space.near(R), built once per radius: (S @ near)[x] counts the
    points of S within R of x, exactly (a count is at most |X| < 2^24).
    Returns boolean rows A and B, and which rows were kept.
    """

    def far(S, near):
        return (S.astype(np.float32) @ near) == 0

    A = np.zeros_like(seeds)
    B = np.zeros_like(seeds)
    for R in np.unique(radii):
        rows = np.flatnonzero(radii == R)
        near = space.near(R).astype(np.float32)
        for start in range(0, len(rows), CLOSE_BLOCK):
            block = rows[start : start + CLOSE_BLOCK]
            B[block] = far(seeds[block], near)
            A[block] = far(B[block], near)
    return A, B, B.any(axis=1)


def _random_rectangles(u: SpaceOperator, radii: np.ndarray, seeds: np.ndarray) -> tuple:
    """(A, B, norms) of a random rectangle search: seed row i closed at radius
    radii[i] by _close_rectangles, the rows that closed to an empty B
    dropped, the rest kept in draw order. Each distinct (A, B), keyed by its
    packed bits, is normed once through u.rect_norms; norms[i] is row i's."""
    A, B, kept = _close_rectangles(u.space, radii, seeds)
    A, B = A[kept], B[kept]
    keys = np.packbits(np.concatenate([A, B], axis=1), axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return A, B, u.rect_norms(A[first], B[first])[inverse.reshape(-1)]


def _witness(space: FiniteMetricSpace, a_row, b_row, value) -> RectangleWitness:
    """The witness of the rectangle with boolean membership rows a_row, b_row."""
    A, B = np.flatnonzero(a_row), np.flatnonzero(b_row)
    return RectangleWitness(
        A=tuple(A.tolist()), B=tuple(B.tolist()), separation=space.set_distance(A, B), value=float(value)
    )


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
    operator, so its norm is a lower bound; u.tail_bound(R) is the upper
    bound. The lower bound is the largest norm over a set of separated
    rectangles, witnessed by the first rectangle that reaches it (a strict >
    scan; NaN never wins). For |X| <= EXACT_BAND_DIST_MAX and no `pool` the
    set is _exact_rectangles(u, R), the scan eps_propagation_violation reads,
    so the lower bound is the exact separated-rectangle supremum. Otherwise it is the `budget` rectangles of
    _random_rectangles at radius R, seeded from `pool` if given, in draw
    order, each distinct one normed once.
    """
    space = u.space
    upper = u.tail_bound(R)  # also rejects a negative or NaN R
    if space.n <= EXACT_BAND_DIST_MAX and pool is None:
        batches = _exact_rectangles(u, R)
    else:
        pool = np.arange(space.n) if pool is None else pool
        _, seeds = _draw_seeds(np.random.default_rng(seed), pool, space.n, budget)
        batches = [_random_rectangles(u, np.full(len(seeds), R), seeds)]
    best, witness = 0.0, None
    for A, B, values in batches:
        if len(values):
            i = np.argmax(np.where(np.isnan(values), -np.inf, values))  # first largest, NaN never wins
            if values[i] > best:
                best = float(values[i])
                witness = _witness(space, A[i], B[i], best)
    return BandDistanceBounds(lower=best, upper=upper, witness=witness)

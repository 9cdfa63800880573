"""Operators on l2(X): norms, propagation, band truncation, band-distance bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubset, TooLargeForExact
from .spaces import FiniteMetricSpace

ZERO_TOL = 1e-9
EXACT_EPSPROP_MAX = 20
EXACT_BAND_DIST_MAX = 12
# the exact subset scans enumerate output masks in chunks of at most
# MASK_CELLS (mask, point) cells, so |X| = EXACT_EPSPROP_MAX stays bounded
MASK_CELLS = 1 << 18
# _rect_norms gathers at most STACK_ENTRIES matrix entries per LAPACK pass, and
# the random rectangle searches close their seeds CLOSE_BLOCK draws at a time
STACK_ENTRIES = 1 << 16
CLOSE_BLOCK = 64

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
    """LAPACK largest singular value of one matrix: the scalar entry of
    sigma_max_stack, and bit-identical to it.

    The rectangle searches batch their norms through sigma_max_stack instead;
    this stays for single matrices. It keeps its name because perfbench's
    tracer wraps it and the test oracles import it.
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
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    kept = np.where(band_mask(u.space, R), u.mat, 0.0)
    return SpaceOperator(space=u.space, mat=kept)


def _mask_chunks(dist: np.ndarray):
    """(A, near) for every nonempty output mask over the n points, in
    increasing mask order, in chunks of at most MASK_CELLS cells.

    A[i] is the boolean membership row of mask i and near[i, x] the distance
    from that set to x, min over a in A of dist[a, x]. The low k bits come
    from one table built by near[m] = min(near[m without its top bit],
    dist[top bit]); each chunk fixes the high bits and takes one more minimum.
    """
    n = dist.shape[0]
    k = min(n, max(0, (MASK_CELLS // max(n, 1)).bit_length() - 1))
    empty = np.inf if dist.dtype.kind == "f" else np.iinfo(dist.dtype).max
    low = np.full((1 << k, n), empty, dtype=dist.dtype)
    for j in range(k):
        np.minimum(low[: 1 << j], dist[j], out=low[1 << j : 2 << j])
    low_bits = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
    for high in range(1 << (n - k)):
        high_bits = (high >> np.arange(n - k) & 1).astype(bool)
        near = np.minimum(low, dist[k:][high_bits].min(axis=0, initial=empty))
        A = np.concatenate([low_bits, np.broadcast_to(high_bits, (1 << k, n - k))], axis=1)
        first = 1 if high == 0 else 0  # mask 0 is the empty set
        if len(A) > first:
            yield A[first:], near[first:]


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


def _first_max(values: np.ndarray) -> int:
    """Index of the first largest value, NaN ignored (as a strict > scan does)."""
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


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


def _clearing_radius(mat, A, near, radii, eps) -> np.ndarray:
    """Per output mask, the index of the smallest candidate radius at which
    its worst-case rectangle has norm <= eps; all masks bisect in step."""
    lo = np.zeros(len(A), dtype=int)
    hi = np.full(len(A), len(radii) - 1)
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        mid = (lo[open_] + hi[open_]) // 2
        B = ~(near[open_] <= radii[mid][:, None])
        # an empty B gives 0.0 <= eps; NaN counts as a violation, as before
        clear = _rect_norms(mat, A[open_], B) <= eps
        hi[open_] = np.where(clear, mid, hi[open_])
        lo[open_] = np.where(clear, lo[open_], mid + 1)
        open_ = open_[lo[open_] < hi[open_]]
    return lo


def eps_propagation_radius(
    u: SpaceOperator, eps: float, mode: str = "exact", seed: int = 0, budget: int = 1000
) -> EpsPropagationResult:
    """Radius R such that every compression with separation > R has norm <= eps.

    exact: full subset scan over output sets A, with B fixed to the complement
    of the R-neighborhood of A (rectangle norms are monotone in B, so this B
    is the worst case). The scan is batched: all masks bisect the candidate
    radii in step, and each step runs one LAPACK pass per (|A|, |B|) shape
    group, bit-identical to one LAPACK SVD per rectangle; the witness is the
    first mask, in increasing mask order, with the largest radius.
    heuristic: a bracketing pair -- violating rectangles give the lower end,
    band-truncation tails (value + err of their norm) the upper end. The
    `budget` random rectangles (a random candidate radius and seed set each,
    closed as in dist_to_band_bounds) are drawn and closed first; then the
    distinct separations are visited in descending order, computing norms only
    for the rectangles at the current one. The first separation with a norm
    > eps is the lower end, witnessed by its earliest draw.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    space = u.space
    n = space.n
    radii = _candidate_radii(space)
    if mode == "exact":
        if n > EXACT_EPSPROP_MAX:
            raise TooLargeForExact(f"exact eps-propagation limited to |X| <= {EXACT_EPSPROP_MAX}")
        best_R, best_A, best_lo = 0.0, None, 0
        for A, near in _mask_chunks(space.dist):
            lo = _clearing_radius(u.mat, A, near, radii, eps)
            i = int(np.argmax(lo))  # radii increase, so this is the first largest radius
            if radii[lo[i]] > best_R:
                best_R, best_A, best_lo = radii[lo[i]], np.flatnonzero(A[i]), lo[i]
        witness = None
        if best_A is not None:
            witness = rect_norm(u, best_A, _worst_B(space, best_A, radii[best_lo - 1]))
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
        picks, seeds = _draw_seeds(np.random.default_rng(seed), np.arange(n), n, budget, len(radii))
        A, B, kept = _close_rectangles(space.dist, radii[picks], seeds)
        draws = np.flatnonzero(kept)
        if draws.size == 0:
            return EpsPropagationResult(lower=lower, upper=upper, witness=witness, mode="heuristic")
        first, inverse = _distinct_rectangles(A[draws], B[draws])
        rects = draws[first]
        seps = np.array([space.set_distance(np.flatnonzero(A[i]), np.flatnonzero(B[i])) for i in rects])
        # the largest separation carried by a norm > eps, at its earliest draw
        for sep in np.unique(seps[seps > 0])[::-1]:
            level = np.flatnonzero(seps == sep)
            values = np.full(len(rects), np.nan)
            values[level] = _rect_norms(u.mat, A[rects[level]], B[rects[level]])
            hits = np.flatnonzero(values[inverse] > eps)  # NaN never violates
            if hits.size:
                i = draws[hits[0]]
                lower = float(sep)
                witness = RectangleWitness(
                    A=tuple(np.flatnonzero(A[i]).tolist()), B=tuple(np.flatnonzero(B[i]).tolist()),
                    separation=sep, value=float(values[inverse[hits[0]]]),
                )
                break
        return EpsPropagationResult(lower=lower, upper=upper, witness=witness, mode="heuristic")
    raise ValueError(f"unknown mode {mode!r}")


def _draw_seeds(rng, pool, n: int, budget: int, n_radii: int = 0) -> tuple:
    """(radius indices, boolean seed rows) of a budgeted random search.

    Each draw takes, in this order, a radius index in [0, n_radii) when
    n_radii > 0, a size in [1, max(1, len(pool) // 2)], and that many
    distinct points of pool. No draw depends on a norm, so all of them come first.
    """
    count = max(budget, 0)
    picks = np.zeros(count, dtype=int)
    seeds = np.zeros((count, n), dtype=bool)
    high = max(2, len(pool) // 2 + 1)
    for i in range(count):
        if n_radii:
            picks[i] = rng.integers(0, n_radii)
        size = int(rng.integers(1, high))
        seeds[i, rng.choice(pool, size=min(size, len(pool)), replace=False)] = True
    return picks, seeds


def _close_rectangles(dist: np.ndarray, radii: np.ndarray, seeds: np.ndarray) -> tuple:
    """Grow each seed row i to a maximal separated rectangle at radius radii[i].

    Per row: up to 4 rounds of B = far(A), A = far(B), stopping early at a
    fixed point of A, then B = far(A), where far(S) is the set of points
    farther than the row's radius from all of S. A row whose B or A becomes
    empty is dropped. Rows are closed per distinct radius R, CLOSE_BLOCK rows
    at a time, and far of a block is one float64 GEMM with the 0/1 rows
    dist[p] <= R of the points p its sets use: (S @ near)[x] counts the
    points of S within R of x, exactly. Returns boolean rows A and B, and
    which rows were kept.
    """

    def far(S, R):
        used = np.flatnonzero(S.any(axis=0))
        return (S[:, used].astype(np.float64) @ (dist[used] <= R).astype(np.float64)) == 0

    A = seeds.copy()
    B = np.zeros_like(A)
    kept = np.ones(len(A), dtype=bool)
    for R in np.unique(radii):
        rows = np.flatnonzero(radii == R)
        for start in range(0, len(rows), CLOSE_BLOCK):
            block = rows[start : start + CLOSE_BLOCK]
            a, ok = A[block], np.ones(len(block), dtype=bool)
            live = np.arange(len(a))
            for _ in range(4):
                b = far(a[live], R)
                grown = far(b, R)
                nonempty = b.any(axis=1) & grown.any(axis=1)
                fixed = (grown == a[live]).all(axis=1)
                ok[live[~nonempty]] = False
                a[live[nonempty]] = grown[nonempty]
                live = live[nonempty & ~fixed]
                if live.size == 0:
                    break
            b = far(a, R)
            A[block], B[block], kept[block] = a, b, ok & b.any(axis=1)
    return A, B, kept


def _distinct_rectangles(A: np.ndarray, B: np.ndarray) -> tuple:
    """(first, inverse): a row index of each distinct (A, B) pair of boolean
    rows, keyed by their packed bits, and each row's distinct number."""
    keys = np.packbits(np.concatenate([A, B], axis=1), axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


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
    value + err, is the upper bound. For |X| <= EXACT_BAND_DIST_MAX the lower
    bound is the exact separated-rectangle supremum: a full subset scan, run
    as one LAPACK pass per (|A|, |B|) shape group and bit-identical to one
    LAPACK SVD per rectangle, whose witness is the first mask with the
    largest norm. Otherwise a budgeted random search: `budget` seed sets
    (drawn from `pool` if given) are all drawn first, closed to maximal
    separated rectangles in batches, and each distinct rectangle's norm is
    computed once, one LAPACK pass per shape group; the witness is the first
    draw with the largest norm, as in a per-draw loop with a strict > test.
    """
    if not R >= 0:
        raise ValueError("radius must be nonnegative")
    space = u.space
    n = space.n
    tail, err = operator_norm(u.mat - band_truncate(u, R).mat, with_err=True)
    upper = tail + err

    def candidates():
        """(A, B, norm) rectangles; the exact scan yields each chunk's first largest."""
        if n <= EXACT_BAND_DIST_MAX and pool is None:
            for A, near in _mask_chunks(space.dist):
                B = ~(near <= R)
                values = _rect_norms(u.mat, A, B)
                i = _first_max(values)
                yield np.flatnonzero(A[i]), np.flatnonzero(B[i]), values[i]
            return
        _, seeds = _draw_seeds(np.random.default_rng(seed), np.arange(n) if pool is None else pool, n, budget)
        A, B, kept = _close_rectangles(space.dist, np.full(len(seeds), R), seeds)
        A, B = A[kept], B[kept]
        if len(A):
            first, inverse = _distinct_rectangles(A, B)
            values = _rect_norms(u.mat, A[first], B[first])[inverse]
            i = _first_max(values)
            yield np.flatnonzero(A[i]), np.flatnonzero(B[i]), values[i]

    best = 0.0
    witness = None
    for A, B, value in candidates():
        if value > best:
            best = float(value)
            witness = RectangleWitness(
                A=tuple(A.tolist()), B=tuple(B.tolist()), separation=space.set_distance(A, B), value=best
            )
    return BandDistanceBounds(lower=best, upper=upper, witness=witness)

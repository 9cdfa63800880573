"""Operators on l2(X): norms, eps-propagation radii, band truncation, band-distance bounds."""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeForExact
from .spaces import FiniteMetricSpace, neighbourhood_table

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
# relative slack of the exact scans' bound decisions (_rect_bounds, and the
# subset bounds of randsub): far above the relative rounding of a computed
# bound or LAPACK value, O(p q eps_mach) on a p x q matrix and below 1e-11 at
# every size the exact scans reach
BOUND_SLACK = 1e-9

# operator_norm: LAPACK when the smaller side is at most DENSE_NORM_MAX,
# Lanczos on the Gram above it. On complex 128 x 128 matrices (main-thread CPU,
# 2-vCPU x86 VM, OpenBLAS, median of 150) LAPACK takes 4.2 ms dense and 1.8 ms
# on a radius-1 band, the Lanczos 6.0 and 1.5 ms (6.8 and 2.1 ms as
# Golub-Kahan). An exactly Hermitian input takes eigvalsh, not the SVD: 0.7
# against 2.5 ms on a real symmetric 128 x 128 matrix.
DENSE_NORM_MAX = 128
# Above it, more than FILL_CUT nonzero takes LAPACK. On complex matrices with
# random positions (wall clock, median of 7, 2 cores) the Lanczos took 11.5 and
# 18.6 ms at 25 and 100 % fill of 200 x 200, LAPACK 11-12 ms; the two meet near
# 30 % fill at 200 x 200, 50 % at 300 x 300 and 37 % at 600 x 600, so one cut
# below all three sends a 25-37 % fill to the slower LAPACK, by up to 1.4x.
FILL_CUT = 0.25
_LANCZOS_TOL = 1e-12
_LANCZOS_MAXITER = 500


def operator_norm(mat, *, with_err: bool = False):
    """Largest singular value of a dense array or an Entries list, computed in
    float64 or complex128 whatever the input dtype.

    If the smaller side is at most DENSE_NORM_MAX, or more than FILL_CUT of
    the entries are nonzero, LAPACK gives the value, and err is its
    backward-error bound max(p, q) * eps_mach * value. A square matrix that
    equals its adjoint exactly is normed by the symmetric eigensolver, as
    max(|lambda_min|, |lambda_max|): eigvalsh is backward stable, and by Weyl
    each computed eigenvalue lies within the backward error of an exact one,
    so the same err holds. Any other matrix, a non-finite one included (NaN
    fails the equality), takes the SVD.
    Otherwise _lanczos_top gives the value, a lower estimate, and err, value
    + err the upper one, from products over the nonzero entries alone (none
    gives (0.0, 0.0)); unconverged after _LANCZOS_MAXITER steps, LAPACK's.

    Returns the value, or (value, err) with with_err=True.
    """
    value, err = _norm_with_err(mat)
    return (value, err) if with_err else value


def _norm_with_err(mat) -> tuple:
    if not isinstance(mat, Entries):
        # LAPACK norms a float32 matrix in single precision, far above err
        mat = np.atleast_2d(np.asarray(mat))
        mat = mat.astype(np.result_type(mat.dtype, np.float64), copy=False)
    if 0 in mat.shape:
        return 0.0, 0.0
    if min(mat.shape) > DENSE_NORM_MAX:
        # counted before any entry list is gathered, which a filled input never needs
        nnz = len(mat.vals) if isinstance(mat, Entries) else np.count_nonzero(mat)
        if nnz <= FILL_CUT * math.prod(mat.shape):
            found = _lanczos_top(mat if isinstance(mat, Entries) else Entries.of(mat))
            if found is not None:
                return found
    dense = mat.toarray() if isinstance(mat, Entries) else mat
    hermitian = dense.shape[0] == dense.shape[1] and np.array_equal(dense, dense.conj().T)
    value = _hermitian_norm(dense) if hermitian else _sigma_max(dense)
    return value, max(mat.shape) * np.finfo(float).eps * value


@dataclass(frozen=True)
class Entries:
    """A p x q matrix as its entries in row-major order, vals[j] (float64 or
    complex128) at (rows[j], cols[j]) and 0 elsewhere (a listed value may be
    0, too); operator_norm takes one."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, m: np.ndarray) -> "Entries":
        """The nonzero entries of a dense array."""
        # scanned as booleans: np.flatnonzero of a complex array is 2.6x slower
        rows, cols = np.divmod(np.flatnonzero(m != 0), m.shape[1])
        return cls(m.shape, rows, cols, m[rows, cols])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out


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


def _lanczos_top(e: Entries):
    """Hermitian Lanczos on the Gram G of e's smaller side (A* A or A A*, never
    formed) from a fixed seeded start: one basis, one _orthogonalise per step.
    At steps spaced by a quarter of the step count, and whenever the basis
    stalls, it stops once the top Ritz residual r = beta_k |s_k| (theta the top
    eigenvalue of the tridiagonal T_k, s its unit eigenvector) is at most
    1e-12 theta, and returns (sqrt(theta), r / sqrt(theta)): the Ritz vector y
    has ||G y - theta y|| = r, so some eigenvalue lambda = sigma^2 of the
    Hermitian G lies within r of theta, and |sigma - sqrt(theta)| =
    |lambda - theta| / (sigma + sqrt(theta)) <= r / sqrt(theta); theta <= ||A||^2,
    a Rayleigh quotient. None at the cap or for a non-finite entry."""
    top = np.abs(e.vals).max(initial=0.0)
    if top == 0 or not np.isfinite(top):
        return (0.0, 0.0) if top == 0 else None
    # G of e / scale, exactly, with its largest entry in [1, 2): no overflow or underflow
    scale = math.ldexp(1.0, int(np.frexp(top)[1]) - 1)
    vals = e.vals / scale
    by_col = np.argsort(e.cols, kind="stable")
    forward = _gathered(e.rows, e.cols, vals, e.shape[0])
    adjoint = _gathered(e.cols[by_col], e.rows[by_col], vals[by_col].conj(), e.shape[1])
    if e.shape[0] < e.shape[1]:  # the Gram of the smaller side, which fills first
        forward, adjoint = adjoint, forward
    q = min(e.shape)
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(q)
    if vals.dtype.kind == "c":
        v = v + 1j * rng.standard_normal(q)
    # the Krylov basis as rows, grown by doubling; T_k = tridiag(beta, alpha, beta)
    steps = min(_LANCZOS_MAXITER, q)
    V = np.empty((16, q), v.dtype)
    V[0] = v / np.linalg.norm(v)
    alpha, beta = np.empty(steps), np.empty(steps)
    next_check = 1
    for k in range(steps):
        if k + 1 == len(V):
            V = np.concatenate([V, np.empty_like(V)])
        w = adjoint(forward(V[k]))
        if k:
            w -= beta[k - 1] * V[k - 1]
        alpha[k] = np.vdot(V[k], w).real
        w -= alpha[k] * V[k]
        beta[k] = _orthogonalise(w, V[: k + 1])
        # beta = 0: span(V[:k+1]) is invariant under G, and every residual is 0
        if beta[k] > 0:
            V[k + 1] = w / beta[k]
        if k + 1 >= next_check or beta[k] <= _LANCZOS_TOL * alpha[: k + 1].max():
            next_check = k + 1 + max(1, (k + 1) // 4)
            theta, s = np.linalg.eigh(np.diag(alpha[: k + 1]) + np.diag(beta[:k], -1))  # reads the lower half
            residual = float(beta[k] * abs(s[-1, -1]))
            if residual <= _LANCZOS_TOL * theta[-1]:
                value = math.sqrt(theta[-1])
                return value * scale, (residual / value if residual else 0.0) * scale
    return None


def _hermitian_norm(mat: np.ndarray) -> float:
    """Spectral norm of a matrix equal to its adjoint: the largest eigenvalue
    modulus from LAPACK's symmetric eigensolver (ascending, so at an end)."""
    lam = np.linalg.eigvalsh(mat)
    return float(max(abs(lam[0]), abs(lam[-1])))


def _sigma_max(mat: np.ndarray) -> float:
    """LAPACK largest singular value of one matrix, bit-identical to
    sigma_max_stack of it: the dense operator_norm of a matrix that is not
    exactly Hermitian."""
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


class SpaceOperator:
    """Operator on l2(X) held as its `entries`; entry [y, x] is the (delta_x ->
    delta_y) coefficient. SpaceOperator(space, mat) scans a dense mat once,
    or keeps an n x n complex128 Entries as it is; from entries, the dense
    `mat` is built on first read, by the readers that need blocks (exact
    scans, rect_norms, band_truncate, schur_restrict, commutator_bound_check,
    rademacher_diagnostics). `norm()` is operator_norm's (value, err), or the
    pair that `normalised` carries."""

    def __init__(self, space: FiniteMetricSpace, mat):
        m = mat if isinstance(mat, Entries) else np.asarray(mat, dtype=np.complex128)
        if m.shape != (space.n, space.n):
            raise ValueError("operator shape does not match the space")
        if isinstance(m, Entries):
            self.entries = m
        else:
            self.mat, self.entries = m, Entries.of(m)
        self.space, self._norm = space, None

    @functools.cached_property
    def mat(self) -> np.ndarray:
        """The dense matrix, built from the entries on first read."""
        return self.entries.toarray()

    @classmethod
    def normalised(cls, space: FiniteMetricSpace, entries: Entries) -> "SpaceOperator":
        """The operator of entries / ||entries||, carrying the (value, err) of
        its norm that the division proves; the complex128 values are divided
        in place and become the operator's.

        With (value, err) = operator_norm of the entries, the norm lies in
        [value - err, value + err] (the Lanczos value is the lower end of
        [value, value + err]), so the norm of entries / value lies within
        rel = err / value of 1. Each stored value is an entry times a rounded
        1 / value, rounded again, a relative change of at most eps_mach
        (1 + eps_mach); as ||A|| <= ||A||_F <= sqrt(n) ||A||, the stored
        operator is within 2 n eps_mach (1 + rel) of entries / value in norm:
        the carried pair is (1.0, rel + 2 n eps_mach (1 + rel)). Zero (or
        non-finite) entries are left undivided and carry operator_norm's own
        pair. An entry that underflows stays, as 0.
        """
        op = cls(space, entries)
        value, err = operator_norm(entries, with_err=True)
        if value > 0:
            np.divide(entries.vals, value, out=entries.vals)
            rel = err / value
            value, err = 1.0, rel + 2 * space.n * np.finfo(float).eps * (1 + rel)
        op._norm = (value, err)
        return op

    def norm(self) -> tuple:
        """(value, err) of ||u||: the pair normalised carried, else operator_norm's."""
        return self._norm or operator_norm(self.entries, with_err=True)

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

    # The norm hooks of the searches, which read nothing of an operator but
    # `space`, `rect_norms` and `tail_bound`. Here rect_norms reads the dense
    # matrix; quasilocal.QuasiLocalAssembly, which holds no dense matrix,
    # supplies both from its member factors.

    def rect_norms(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """sigma_max of each compression 1_A u 1_B, given boolean membership
        rows of shape (k, n) for A and B; 0.0 where a side is empty
        (_rect_norms on the dense matrix)."""
        return _rect_norms(self.mat, rows, cols)

    def tail_bound(self, R) -> float:
        """Upper estimate value + err of the truncation tail ||u - band_truncate(u, R)||,
        normed on u's entries outside near(R); exactly 0.0, with no norm, if none."""
        e = self.entries
        outside = ~self.space.within(e.rows, e.cols, R)
        if not outside.any():
            return 0.0
        return sum(operator_norm(Entries(e.shape, e.rows[outside], e.cols[outside], e.vals[outside]), with_err=True))


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


def _rect_bounds(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """(lower, upper) of sigma_max of each compression M = mat[rows[i]][:, cols[i]],
    given boolean membership rows of shape (k, n): the largest column or row
    norm of M, and its Frobenius norm, which enclose sigma_max(M).

    With s the largest entry modulus of mat and w = |mat / s|^2 (no square
    overflows), the squared column norms of M / s are the entries of
    rows @ w at the columns in B, its squared row norms those of cols @ w^T
    at the rows in A, and ||M / s||_F^2 the sum of the former: two GEMMs per
    chunk. Each is a sum of nonnegative terms, so it is computed to a
    relative O(n eps_mach), except that a square below the normal range is
    off by up to 2^-1074, and a sum of them by up to n^2 2^-1074 < tiny =
    2^-1022: lower takes tiny off its sum and upper adds it before the root,
    so that each is off its exact bound by no more than the relative
    rounding. Unless the square of some nonzero entry underflows to 0 in w,
    a sum of the w entries of M is 0 iff M is zero, and then upper is set to
    exactly 0 (largest_candidates skips such compressions); otherwise a zero
    M, an empty side among them, gets (0, s sqrt(tiny)). Either holds
    rect_norms' exact 0.0. A zero mat gives (0, 0), and a non-finite mat NaN
    bounds, which decide nothing.
    """
    scale = float(np.abs(mat).max(initial=0.0))
    if not np.isfinite(scale):
        return np.full(len(rows), np.nan), np.full(len(rows), np.nan)
    if scale == 0.0:
        return np.zeros(len(rows)), np.zeros(len(rows))
    w = np.square(np.abs(mat) / scale)
    # [i, x]: squared norm of column x of M / s, for x in B; 0 elsewhere
    down = np.multiply(rows @ w, cols)
    # [i, y]: squared norm of row y of M / s, for y in A; 0 elsewhere
    across = np.multiply(cols @ np.ascontiguousarray(w.T), rows)  # a strided w.T misses BLAS
    line = np.maximum(down.max(axis=1, initial=0.0), across.max(axis=1, initial=0.0))
    frobenius = down.sum(axis=1)
    tiny = np.finfo(float).tiny
    upper = scale * np.sqrt(frobenius + tiny)
    if not np.any(w[mat != 0] == 0):
        upper[frobenius == 0] = 0.0
    return scale * np.sqrt(np.maximum(line - tiny, 0.0)), upper


def largest_candidates(lower: np.ndarray, upper: np.ndarray, best: float) -> np.ndarray:
    """Which candidates of one chunk of a first-largest scan LAPACK must norm,
    given their computed bounds and the scan's best value so far, `best`.

    Premise: a candidate's LAPACK value v and finite computed bounds l, h
    satisfy l / (1 + BOUND_SLACK) <= v <= h (1 + BOUND_SLACK). The exact
    bounds enclose the exact value; the computed ones are within a relative
    O(p q eps_mach) of them on a p x q matrix (see _rect_bounds and
    randsub._subset_bounds), and LAPACK's backward-stable sigma_max within
    a relative O(max(p, q) eps_mach) of the exact value, all far below
    BOUND_SLACK.

    The floor f is the larger of `best` and the largest finite lower bound
    of the chunk, at a candidate m. A candidate is skipped iff
    h < f (1 - BOUND_SLACK) / (1 + BOUND_SLACK); then
    v <= h (1 + BOUND_SLACK) < f (1 - BOUND_SLACK). If f = best, v < best,
    so v neither replaces best nor decides the chunk's largest value unless
    that value is below best too, and then nothing in the chunk replaces
    best. Otherwise m is normed (its h >= l = f), and
    v(m) >= f / (1 + BOUND_SLACK) > f (1 - BOUND_SLACK) > v: a skipped
    candidate is strictly below a normed one. Either way every candidate
    that attains the chunk's largest value, when that value can replace
    best, is normed, and so is the first of them: first_largest of the
    normed values only (skipped ones read as -inf) picks the same value and
    the same candidate as first_largest of all of them. Bounds are
    nonnegative, so this rule skips nothing unless f > 0, and a NaN upper
    bound is never skipped.

    A candidate with h = 0 exactly is skipped too when best >= 0: then
    0 <= v <= h (1 + BOUND_SLACK) = 0, and v = 0 <= best cannot replace best
    under the strict rule, nor can it be the chunk's largest value when that
    value replaces best, so first_largest picks as before. A scan that starts
    below 0 (randsub._exact_max starts at -1) norms its all-zero candidates
    until its best reaches 0.
    """
    floor = max(best, float(np.max(lower, where=np.isfinite(lower), initial=-np.inf)))
    skip = upper < floor * (1 - BOUND_SLACK) / (1 + BOUND_SLACK)
    if best >= 0:
        skip |= upper == 0
    return ~skip


def first_largest(values: np.ndarray, best: float) -> int | None:
    """The update rule of a first-largest scan, per chunk: the index of the
    chunk's first largest value if that value is strictly above the scan's
    best so far, else None; NaN never wins."""
    if len(values):
        i = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))
        if values[i] > best:
            return i
    return None


@dataclass(frozen=True)
class Bracket:
    """A two-sided bound [lower, upper] from a search (an eps-propagation
    radius, a distance to the band operators), with the rectangle that
    witnesses the lower end (the dict `_witness` builds); None where no
    rectangle does."""

    lower: float
    upper: float
    witness: dict | None


def _exact_rectangles(u: SpaceOperator, R):
    """(A, B, bounds) per chunk of at most MASK_CELLS (mask, point) cells:
    every nonempty output mask A, in increasing mask order, with B the
    complement of its R-neighbourhood (spaces.neighbourhood_table), the
    largest B separated from A by more than R (rectangle norms are monotone
    in B, so this B is the worst case), and bounds = _rect_bounds(u.mat, A, B),
    the (lower, upper) bounds on the norms that the scans decide by. Only a
    SpaceOperator, which has a dense matrix, is scanned."""
    if not isinstance(u, SpaceOperator):
        raise TypeError(f"an exact scan needs a SpaceOperator, not a {type(u).__name__}")
    n = u.space.n
    table = neighbourhood_table(u.space.near(R))
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    step = max(1, MASK_CELLS // max(n, 1))
    for start in range(1, 1 << n, step):
        masks = np.arange(start, min(start + step, 1 << n), dtype=np.uint32)
        A = (masks[:, None] & bits) != 0
        B = (table[masks][:, None] & bits) == 0
        yield A, B, _rect_bounds(u.mat, A, B)


def _norms_where(u: SpaceOperator, A, B, run, fill: float) -> np.ndarray:
    """u.rect_norms of the rectangles (A[i], B[i]) where run[i], fill elsewhere;
    each value is bit-identical to a LAPACK SVD of that rectangle alone."""
    values = np.full(len(A), fill)
    if run.any():
        values[run] = u.rect_norms(A[run], B[run])
    return values


def _violation_candidates(lower: np.ndarray, upper: np.ndarray, eps: float) -> np.ndarray:
    """Which rectangles of one chunk of eps_propagation_violation LAPACK must
    norm, given their computed bounds (premise of largest_candidates).

    A rectangle is clear if upper <= eps (1 - BOUND_SLACK): its value is at
    most eps (1 - BOUND_SLACK)(1 + BOUND_SLACK) < eps. It is a sure
    violation if lower > eps (1 + BOUND_SLACK): its value is above eps. So
    the first violating rectangle of the chunk, if any, is the first sure
    one or an undecided one before it. Normed are: the rectangles that are
    neither clear nor sure up to the first sure one, that one, and every
    rectangle with a non-finite bound, so that a NaN entry still raises
    LinAlgError wherever the chunk holds it, as a scan of every rectangle
    would.
    """
    sure = lower > eps * (1 + BOUND_SLACK)
    stop = int(np.argmax(sure)) if sure.any() else len(lower)
    run = ~(upper <= eps * (1 - BOUND_SLACK))  # a sure one is never clear, as lower <= upper
    run[stop + 1 :] = False
    return run | ~(np.isfinite(lower) & np.isfinite(upper))


def eps_propagation_violation(u: SpaceOperator, eps: float, R) -> dict | None:
    """Witness of the first output mask, in increasing mask order, whose
    worst-case rectangle at radius R (_exact_rectangles) has norm not <= eps
    (NaN counts as a violation); None if u has eps-propagation <= R. The scan
    stops at the first chunk holding a violation.

    LAPACK norms only the rectangles of each chunk that
    _violation_candidates keeps by their bounds; every one it skips is proved not
    to be the first violation, so the witness and its value are those of a
    scan that norms every rectangle."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if u.space.n > EXACT_EPSPROP_MAX:
        raise TooLargeForExact(f"exact eps-propagation limited to |X| <= {EXACT_EPSPROP_MAX}")
    for A, B, bounds in _exact_rectangles(u, R):
        norms = _norms_where(u, A, B, _violation_candidates(*bounds, eps), 0.0)
        bad = np.flatnonzero(~(norms <= eps))
        if bad.size:
            i = bad[0]
            return _witness(u.space, A[i], B[i], norms[i])
    return None


def eps_propagation_radius(u: SpaceOperator, eps: float) -> Bracket:
    """Radius R such that every compression with separation > R has norm <= eps.

    The smallest candidate radius at which eps_propagation_violation finds no
    violation, by bisection over u.space.radii() (each probed radius scanned
    once); lower = upper. The witness is the violation at the next smaller
    candidate radius, which the bisection always probed: the first mask, in
    increasing mask order, whose worst-case rectangle there has norm > eps.
    eps_propagation_brackets is the heuristic for spaces too large to scan.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    radii = u.space.radii()
    probe = functools.cache(lambda i: eps_propagation_violation(u, eps, radii[i]))
    lo = bisect.bisect_left(range(len(radii) - 1), True, key=lambda i: probe(i) is None)
    witness = probe(lo - 1) if lo else None
    return Bracket(lower=float(radii[lo]), upper=float(radii[lo]), witness=witness)


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
        lo = bisect.bisect_left(range(len(radii) - 1), True, key=lambda i: tail(i) <= eps)
        lower, witness = 0.0, None
        hits = np.flatnonzero(norms > eps)
        if hits.size:
            i = hits[np.argmax(seps[hits])]  # the earliest draw at the largest separation
            lower, witness = float(seps[i]), _witness(space, A[i], B[i], norms[i])
        brackets.append(Bracket(lower, float(radii[lo]), witness))
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
    dropped, the rest kept in draw order. Each distinct (A, B) is normed
    once through u.rect_norms; norms[i] is row i's."""
    A, B, kept = _close_rectangles(u.space, radii, seeds)
    A, B = A[kept], B[kept]
    first, inverse = _distinct_rows(A, B)
    return A, B, u.rect_norms(A[first], B[first])[inverse]


def _distinct_rows(A, B) -> tuple:
    """(first, inverse) over the distinct rows (A[i], B[i]): first[j] is the
    first row of the j-th distinct one, and row i is the inverse[i]-th. Each
    row is keyed by its packed bits as one fixed-width bytes value. Bytes sort
    lexicographically, as np.unique(axis=0) sorts the packed uint8 rows, so
    both give the same first and inverse. The bytes key sorts one value per
    row, not a structured row of byte fields: 0.11 ms against 1.9 ms on the
    500 draws of a `ql witness` search (2-vCPU x86 VM)."""
    keys = np.packbits(np.concatenate([A, B], axis=1), axis=1)
    rows = keys.view(f"V{keys.shape[1]}").ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def _witness(space: FiniteMetricSpace, a_row, b_row, value) -> dict:
    """The witness of the rectangle with boolean membership rows a_row, b_row:
    the compression 1_A u 1_B, with its separation and norm."""
    A, B = np.flatnonzero(a_row), np.flatnonzero(b_row)
    separation = space.set_distance(A, B)
    return {"A": tuple(A.tolist()), "B": tuple(B.tolist()), "separation": separation, "value": float(value)}


def dist_to_band_bounds(
    u: SpaceOperator, R, budget: int = 1000, seed: int = 0, pool=None
) -> Bracket:
    """Two-sided bounds on the distance from u to the R-band operators.

    Any rectangle with separation > R survives subtraction of an R-band
    operator, so its norm is a lower bound; u.tail_bound(R) is the upper
    bound. The lower bound is the largest norm over a set of separated
    rectangles, witnessed by the first rectangle that reaches it (a strict >
    scan; NaN never wins). For |X| <= EXACT_BAND_DIST_MAX and no `pool` the
    set is _exact_rectangles(u, R), the scan eps_propagation_violation reads,
    so the lower bound is the exact separated-rectangle supremum; LAPACK
    norms only the rectangles of each chunk that largest_candidates keeps,
    which proves that the value and witness are those of a scan that norms
    every rectangle. Otherwise it is the `budget` rectangles of
    _random_rectangles at radius R, seeded from `pool` if given, in draw
    order, each distinct one normed once.
    """
    space = u.space
    upper = u.tail_bound(R)  # also rejects a negative or NaN R
    best, witness = 0.0, None
    if space.n <= EXACT_BAND_DIST_MAX and pool is None:
        for A, B, bounds in _exact_rectangles(u, R):
            values = _norms_where(u, A, B, largest_candidates(*bounds, best), -np.inf)
            best, witness = _first_largest(space, A, B, values, best, witness)
    else:
        pool = np.arange(space.n) if pool is None else pool
        _, seeds = _draw_seeds(np.random.default_rng(seed), pool, space.n, budget)
        A, B, values = _random_rectangles(u, np.full(len(seeds), R), seeds)
        best, witness = _first_largest(space, A, B, values, best, witness)
    return Bracket(lower=best, upper=upper, witness=witness)


def _first_largest(space: FiniteMetricSpace, A, B, values, best: float, witness) -> tuple:
    """(best, witness) after one chunk of rectangles, updated by first_largest."""
    i = first_largest(values, best)
    if i is None:
        return best, witness
    return float(values[i]), _witness(space, A[i], B[i], values[i])

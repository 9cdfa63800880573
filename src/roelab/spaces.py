"""Finite metric spaces: growth data, coarse unions, expander constants.

All spaces are finite with points 0..n-1 and a dense distance matrix.
Graph metrics are integer valued (shortest-path distances); explicit
metrics are float64, validated to METRIC_TOL = 1e-9 and stored as the
nearest exactly symmetric matrix with a zero diagonal, (d + d^T) / 2 with
its diagonal set to 0. So every stored metric is exactly symmetric, every
R-relation near(R) with R >= 0 is symmetric and reflexive, and no consumer
needs to know the tolerance.

Consumers outside this module read a space's distances only through
``near(R)`` (the R-relation dist <= R) and ``within(x, y, R)`` (it at given
pairs, and the one place that rejects negative and NaN radii), ``radii()``,
``set_distance`` and ``diameter``; no other module reads ``dist``.

Distance matrices from outside the library, through
``FiniteMetricSpace(dist=...)``, ``from_json`` and ``load_space``, are
checked by ``_validate_metric`` (O(n^3)). The in-library constructors
``from_graph`` (and so ``random_regular``), ``far_points``,
``interval_space``, ``torus_space`` and ``coarse_union`` build
metrics by construction and skip that check through
``FiniteMetricSpace._trusted``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraph,
    EmptySubset,
    GenerationFailed,
    InvalidMetric,
    NonSymmetricInput,
    TooLargeForExact,
)

METRIC_TOL = 1e-9
EXACT_KAPPA_MAX = 22
BFS_CELLS = 1 << 24
REGULAR_TRIES = 500

KAPPA_EXACT = "exact-brute-force"
KAPPA_SPECTRAL = "spectral-lower-bound"


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by its full distance matrix."""

    dist: np.ndarray
    label: str = ""

    def __post_init__(self):
        d = np.asarray(self.dist)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidMetric("distance matrix must be square")
        _validate_metric(d)
        if not np.issubdtype(d.dtype, np.integer):
            # (d + d^T) / 2 in a new array, so the caller's is untouched, halved
            # first so that it cannot overflow; an exactly symmetric input with
            # a zero diagonal is kept bit for bit
            d = d / 2 + d.T / 2
            np.fill_diagonal(d, 0)
        object.__setattr__(self, "dist", d)

    @classmethod
    def _trusted(cls, dist: np.ndarray, label: str = "") -> "FiniteMetricSpace":
        """A space over `dist` without the metric check: only for in-library
        constructors whose output is a metric by construction."""
        space = object.__new__(cls)
        object.__setattr__(space, "dist", dist)
        object.__setattr__(space, "label", label)
        return space

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.dist.dtype, np.integer)

    @property
    def diameter(self):
        return self.dist.max() if self.n > 0 else 0

    def near(self, R) -> np.ndarray:
        """The R-relation: boolean n x n, entry [x, y] true iff dist(x, y) <= R."""
        return self.within(slice(None), slice(None), R)

    def within(self, x, y, R) -> np.ndarray:
        """near(R)[x, y] for index arrays x and y, without the n x n relation."""
        # written negated so that NaN fails too
        if not R >= 0:
            raise ValueError("radius must be nonnegative")
        return self.dist[x, y] <= R

    def radii(self) -> np.ndarray:
        """The distinct distances in increasing order; 0 (the diagonal) first."""
        return np.unique(self.dist)

    def set_distance(self, A, B):
        """min over a in A, b in B of dist(a, b)."""
        A = np.asarray(A, dtype=int)
        B = np.asarray(B, dtype=int)
        if A.size == 0 or B.size == 0:
            raise EmptySubset("set distance needs nonempty subsets")
        return self.dist[np.ix_(A, B)].min()

    def json_arrays(self) -> dict:
        """The space's JSON schema with the distance matrix left as the array;
        `report.jsonable` turns it into lists in one ``tolist()``."""
        kind = "graph" if self.is_integer else "explicit"
        return {"label": self.label, "n": self.n, "metric": {"kind": kind, "data": self.dist}}

    @staticmethod
    def from_json(obj: dict) -> "FiniteMetricSpace":
        metric = obj.get("metric") if isinstance(obj, dict) else None
        if not isinstance(metric, dict):
            raise InvalidMetric("space JSON needs a 'metric' object")
        for key in ("kind", "data"):
            if key not in metric:
                raise InvalidMetric(f"space JSON 'metric' needs a '{key}' field")
        kind = metric["kind"]
        if kind not in ("graph", "explicit"):
            raise InvalidMetric(f"unknown metric kind {kind!r}; expected 'graph' or 'explicit'")
        try:
            data = np.array(metric["data"], dtype=np.float64)  # null becomes NaN
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidMetric(f"metric data must be a numeric matrix: {exc}") from None
        if kind == "graph":
            if not (np.isfinite(data) & (data == np.round(data))).all():
                raise InvalidMetric("graph metric entries must be finite integers")
            data = data.astype(np.int64)
        return FiniteMetricSpace(dist=data, label=obj.get("label", ""))


def _validate_metric(d: np.ndarray) -> None:
    n = d.shape[0]
    # first, since every comparison with NaN is False and the checks below
    # would misreport it
    if d.dtype.kind not in "iuf" or not np.isfinite(d).all():
        raise InvalidMetric("distance matrix entries must be finite numbers")
    if n == 0:
        return
    integer = np.issubdtype(d.dtype, np.integer)
    tol = 0 if integer else METRIC_TOL
    if not np.array_equal(d, d.T) if integer else not np.allclose(d, d.T, rtol=0, atol=tol):
        raise InvalidMetric("distance matrix is not symmetric")
    diag = np.diag(d)
    if np.any(diag != 0) if integer else np.any(np.abs(diag) > tol):
        raise InvalidMetric("nonzero diagonal")
    off = d + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    if np.any(off <= (0 if integer else tol)):
        raise InvalidMetric("zero or negative distance between distinct points")
    # triangle inequality, one pivot at a time to keep memory at n^2
    for k in range(n):
        via_k = d[:, k][:, None] + d[k, :][None, :]
        if np.any(d > via_k + tol):
            raise InvalidMetric(f"triangle inequality fails through point {k}")


@dataclass
class ExpanderFamily:
    """Ordered list of finite spaces with an expansion constant certificate at radius 1."""

    members: list
    kappa: float
    kappa_kind: str

    def __post_init__(self):
        sizes = [m.n for m in self.members]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidMetric("member sizes must strictly increase")
        if not self.kappa > 1:
            raise InvalidMetric("certified expansion constant must exceed 1")


def from_graph(adjacency: np.ndarray, label: str = "") -> FiniteMetricSpace:
    """Shortest-path metric of a connected simple graph.

    One level-synchronous BFS from a block of sources at once, bit-packed over
    the sources in 64-bit words: row v of `frontier` is the bitset of sources
    whose BFS reached v at the current level, and row v of `missing` the
    bitset of sources that have not reached v yet. The next level is one
    `np.bitwise_or.reduceat` of the frontier rows over each point's neighbour
    list, masked by `missing`. dist(s, v) is the number of levels after which
    v is still missing for s, so each level adds the unpacked `missing` bits
    into an n x width counter of the narrowest unsigned dtype that holds
    n - 1, and the block's rows of `dist` are written once from its
    transpose. Sources go in byte-aligned blocks so that the gathered
    frontier (|E| rows of one bit per source) stays near BFS_CELLS bits. A
    frontier that empties while bits are missing means the graph is not
    connected. A shortest-path metric is a metric by construction, so the
    result is not re-validated.
    """
    a = np.asarray(adjacency)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n or not np.array_equal(a, a.T):
        raise NonSymmetricInput("adjacency must be a square symmetric 0/1 matrix")
    if np.any(np.diag(a) != 0):
        raise NonSymmetricInput("adjacency must have a zero diagonal")
    rows, cols = np.nonzero(a)  # CSR order: the neighbours of each point in turn
    degree = np.bincount(rows, minlength=n)
    if n > 1 and np.any(degree == 0):
        raise DisconnectedGraph("graph is not connected")
    dist = np.zeros((n, n), dtype=np.int64)
    if cols.size:
        starts = np.concatenate(([0], np.cumsum(degree[:-1])))
        block = 8 * max(1, BFS_CELLS // (8 * cols.size))
        for lo in range(0, n, block):
            width = min(block, n - lo)
            s = np.arange(width)
            frontier = np.zeros((n, (width + 63) // 64), dtype=np.uint64)
            frontier.view(np.uint8)[lo + s, s >> 3] = 1 << (s & 7)
            # the bits of real sources: a padding bit is never missing
            real = np.packbits(np.arange(64 * frontier.shape[1]) < width, bitorder="little")
            missing = real.view(np.uint64) & ~frontier
            count = np.zeros((n, width), dtype=np.min_scalar_type(n - 1))
            while missing.any():
                count += np.unpackbits(missing.view(np.uint8), axis=1, count=width, bitorder="little")
                # every neighbour list is nonempty, as reduceat needs
                frontier = np.bitwise_or.reduceat(frontier[cols], starts, axis=0) & missing
                if not frontier.any():
                    raise DisconnectedGraph("graph is not connected")
                missing ^= frontier
            dist[lo:lo + width] = count.T
    return FiniteMetricSpace._trusted(dist, label)


def growth(space: FiniteMetricSpace, R) -> int:
    """Largest ball cardinality N_X(R) = max_x |{y : dist(x,y) <= R}|."""
    return int(space.near(R).sum(axis=1).max())


def coarse_union(members) -> FiniteMetricSpace:
    """Disjoint union with inter-piece distances forced above a gap schedule.

    Cross distances depend only on the larger piece index j and equal
    g(j) = max(g(j - 1), 2^j, all diameters up to j), the requested gap
    max(diam_j, 2^j) made nondecreasing, which keeps the triangle inequality.
    Every gap is at least 2, so the union of metric spaces is a metric by
    construction, and it is not re-validated.
    """
    if not members:
        raise ValueError("coarse_union needs at least one member")
    diams = [m.diameter for m in members]
    m = len(members)
    g = np.zeros(m)
    for j in range(1, m):
        g[j] = max(g[j - 1], 2 ** j, max(diams[: j + 1]))
    integer = all(mm.is_integer for mm in members)
    if integer:
        g = np.ceil(g).astype(np.int64)
    slices = piece_slices(members)
    n = slices[-1].stop
    dist = np.zeros((n, n), dtype=np.int64 if integer else np.float64)
    for j, (mj, sl_j) in enumerate(zip(members, slices)):
        dist[sl_j, sl_j] = mj.dist
        for sl_i in slices[:j]:
            dist[sl_i, sl_j] = g[j]
            dist[sl_j, sl_i] = g[j]
    return FiniteMetricSpace._trusted(dist, "+".join(mm.label for mm in members))


def piece_slices(members) -> list:
    """Index ranges of each piece inside the coarse union, in order."""
    offsets = np.cumsum([0] + [m.n for m in members])
    return [slice(int(a), int(b)) for a, b in zip(offsets, offsets[1:])]


def neighbourhood_table(near: np.ndarray) -> np.ndarray:
    """uint32 table over the 2^n subsets of the n <= 32 points, given the
    R-relation `near` (FiniteMetricSpace.near): bit c of entry m is set iff c
    lies within R of subset m (entry 0, the empty set, is 0).

    Removing the lowest set bit b of m leaves a subset whose own lowest bit is
    strictly higher, so the table fills in descending bit order:
    table[m] = table[m without b] | (the bits within R of b). The masks
    whose lowest set bit is b are the indices 2^b + j 2^(b+1), and removing
    b gives j 2^(b+1): two strided slices of the table, one in-place OR.
    """
    n = near.shape[0]
    rowmask = near @ (np.uint32(1) << np.arange(n, dtype=np.uint32))
    table = np.zeros(1 << n, dtype=np.uint32)
    for b in reversed(range(n)):
        np.bitwise_or(table[:: 2 << b], rowmask[b], out=table[1 << b :: 2 << b])
    return table


def expansion_kappa(space: FiniteMetricSpace, R, mode: str = "exact"):
    """Expansion constant at radius R.

    exact: min over nonempty A with |A| <= |X|/2 of |N_R(A)| / |A|,
    by a full subset scan (|X| <= 22).
    spectral: certified lower bound 1 + lambda_2(L)/(2 d_max) from the
    Laplacian L of the unit-distance graph (Cheeger: at least
    lambda_2(L)|A|/2 edges leave A, each boundary point takes at most d_max
    of them), with the computed lambda_2 lowered by its backward-error bound
    n eps_mach 2 d_max so that the bound holds in floating point; valid for
    any R >= 1, and R < 1 is rejected.
    """
    n = space.n
    if mode == "exact":
        if n > EXACT_KAPPA_MAX:
            raise TooLargeForExact(f"exact expansion scan limited to |X| <= {EXACT_KAPPA_MAX}")
        if n < 2:
            raise ValueError(f"exact expansion needs at least 2 points, got {n}")
        neigh = neighbourhood_table(space.near(R))
        # one count per (|A|, |N(A)|), both at most EXACT_KAPPA_MAX < 32; for
        # a fixed |A| = a the least ratio is the least |N(A)| over a, since
        # division by a fixed a keeps the order
        sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint16)
        sizes <<= 5
        sizes |= np.bitwise_count(neigh)
        seen = np.bincount(sizes, minlength=(n + 1) << 5).reshape(n + 1, 32) > 0
        return min(float(seen[a].argmax()) / a for a in range(1, n // 2 + 1)), KAPPA_EXACT
    if mode == "spectral":
        if not R >= 1:
            raise ValueError("the spectral expansion bound needs R >= 1")
        adjacency = (space.dist == 1).astype(np.float64)
        deg = adjacency.sum(axis=1)
        d = deg.max()
        if d == 0:
            raise InvalidMetric("space has no unit-distance pairs; no adjacency structure")
        lam2 = np.linalg.eigvalsh(np.diag(deg) - adjacency)[1]
        # eigvalsh is backward stable: each computed eigenvalue is within
        # n eps_mach ||L|| of the exact one (Weyl), and ||L|| <= 2 d_max
        # (Gershgorin), so lam2 less that margin is a lower bound on it
        lam2 -= n * np.finfo(float).eps * 2.0 * d
        return float(1.0 + lam2 / (2.0 * d)), KAPPA_SPECTRAL
    raise ValueError(f"unknown mode {mode!r}")


def random_regular(n: int, d: int, seed: int) -> FiniteMetricSpace:
    """Connected random d-regular graph via the pairing model with rejection.

    Each draw pairs the n d shuffled stubs into d n / 2 edges and is rejected
    on that edge list, before any n x n array exists: for a self-loop, or for
    a repeated edge, a repeated code min * n + max among the sorted pairs.
    Only a simple draw is laid out as a bool adjacency for `from_graph`, which
    rejects it if it is not connected.
    """
    if n * d % 2 != 0 or d >= n or d < 1:
        raise ValueError("need n*d even and 1 <= d < n")
    rng = np.random.default_rng(seed)
    sorted_stubs = np.repeat(np.arange(n), d)
    for _ in range(REGULAR_TRIES):
        stubs = sorted_stubs.copy()
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        if (u == v).any():
            continue
        codes = np.minimum(u, v) * n
        codes += np.maximum(u, v)
        codes.sort()
        if (codes[1:] == codes[:-1]).any():
            continue
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[u, v] = adjacency[v, u] = True
        try:
            space = from_graph(adjacency, label=f"rr{n}d{d}s{seed}")
        except DisconnectedGraph:
            continue
        return space
    raise GenerationFailed(f"no connected simple {d}-regular graph on {n} vertices after {REGULAR_TRIES} tries")


def far_points(n: int) -> FiniteMetricSpace:
    """n points at mutual distance 10 (uniform metric)."""
    dist = np.full((n, n), 10, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    return FiniteMetricSpace._trusted(dist, f"far{n}")


def interval_space(N: int) -> FiniteMetricSpace:
    """The path metric on {0, ..., N-1}; a metric by construction, not re-validated."""
    idx = np.arange(N)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.int64, copy=False)
    return FiniteMetricSpace._trusted(dist, f"interval{N}")


def torus_space(N: int) -> FiniteMetricSpace:
    """The cyclic metric on Z/N; a metric by construction, not re-validated."""
    idx = np.arange(N)
    diff = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(diff, N - diff).astype(np.int64, copy=False)
    return FiniteMetricSpace._trusted(dist, f"torus{N}")


def load_space(path) -> FiniteMetricSpace:
    with open(path) as fh:
        return FiniteMetricSpace.from_json(json.load(fh))

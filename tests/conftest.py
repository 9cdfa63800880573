import itertools

import numpy as np
import pytest

from roelab.operators import (
    RectangleWitness,
    SpaceOperator,
    _candidate_radii,
    _sigma_max,
    band_truncate,
    operator_norm,
)
from roelab.spaces import FiniteMetricSpace, from_graph


def random_connected_graph_space(rng, n, extra_edges=None):
    """Connected graph metric: random spanning tree plus extra random edges."""
    adj = np.zeros((n, n), dtype=np.int64)
    order = rng.permutation(n)
    for i in range(1, n):
        a = order[i]
        b = order[rng.integers(0, i)]
        adj[a, b] = adj[b, a] = 1
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            adj[a, b] = adj[b, a] = 1
    return from_graph(adj)


def random_operator(rng, space, R=None):
    n = space.n
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if R is not None:
        m = np.where(space.dist <= R, m, 0.0)
    return SpaceOperator(space=space, mat=m)


def floyd_warshall(adjacency):
    """Independent all-pairs shortest paths oracle."""
    n = adjacency.shape[0]
    d = np.where(adjacency > 0, 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


def eps_propagation_oracle_pairs(u, eps):
    """Brute force over every pair of nonempty subsets: the largest separation
    carried by a rectangle of norm above eps (0.0 if none violates)."""
    space = u.space
    n = space.n
    best = 0.0
    idx = list(range(n))
    for ka in range(1, n + 1):
        for A in itertools.combinations(idx, ka):
            for kb in range(1, n + 1):
                for B in itertools.combinations(idx, kb):
                    value = _sigma_max(u.mat[np.ix_(A, B)])
                    if value > eps:
                        sep = space.dist[np.ix_(A, B)].min()
                        best = max(best, float(sep))
    return best


def eps_propagation_oracle_scan(u, eps):
    """2^|X| oracle: per output set A, linear scan of candidate radii with B the
    complement of the R-neighborhood of A (rectangle norms grow with B)."""
    space = u.space
    n = space.n
    radii = np.unique(space.dist)
    best = 0.0
    for a_mask in range(1, 1 << n):
        A = np.array([i for i in range(n) if a_mask >> i & 1])
        for r in radii:
            B = np.flatnonzero(space.dist[A].min(axis=0) > r)
            if B.size == 0:
                break
            if _sigma_max(u.mat[np.ix_(A, B)]) > eps:
                sep = float(space.dist[np.ix_(A, B)].min())
                best = max(best, sep)
            else:
                break
    return best


# ---------------------------------------------------------------- per-draw random searches


def closed_pair(space, R, rng, pool=None):
    """The per-draw closure the batched random searches replaced: grow a random
    seed set to a maximal separated rectangle at radius R, or None."""

    def worst_B(A):
        return np.flatnonzero(~(space.dist[A].min(axis=0) <= R))

    if pool is None:
        pool = np.arange(space.n)
    size = int(rng.integers(1, max(2, len(pool) // 2 + 1)))
    A = rng.choice(pool, size=min(size, len(pool)), replace=False)
    for _ in range(4):
        B = worst_B(A)
        if B.size == 0:
            return None
        A_new = worst_B(B)
        if A_new.size == 0:
            return None
        if A_new.size == A.size and np.array_equal(np.sort(A_new), np.sort(A)):
            A = A_new
            break
        A = A_new
    B = worst_B(A)
    if B.size == 0:
        return None
    return np.sort(A), np.sort(B)


def reference_band_dist_random(u, R, budget, seed, pool=None):
    """(lower, witness) of the per-draw random band-distance search: one
    LAPACK SVD per drawn rectangle, strict > first occurrence."""
    rng = np.random.default_rng(seed)
    best, witness = 0.0, None
    for _ in range(budget):
        pair = closed_pair(u.space, R, rng, pool)
        if pair is None:
            continue
        A, B = pair
        value = _sigma_max(u.mat[np.ix_(A, B)])
        if value > best:
            best = float(value)
            witness = RectangleWitness(
                A=tuple(A.tolist()), B=tuple(B.tolist()), separation=u.space.set_distance(A, B), value=best
            )
    return best, witness


def reference_eps_prop_heuristic(u, eps, seed, budget):
    """(lower, upper, witness) of the per-draw heuristic eps-propagation search."""
    space = u.space
    radii = _candidate_radii(space)
    lo, hi = 0, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        tail, err = operator_norm(u.mat - band_truncate(u, radii[mid]).mat, with_err=True)
        if tail + err <= eps:
            hi = mid
        else:
            lo = mid + 1
    rng = np.random.default_rng(seed)
    lower, witness = 0.0, None
    for _ in range(budget):
        r = radii[rng.integers(0, len(radii))]
        pair = closed_pair(space, r, rng)
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
    return lower, float(radii[lo]), witness

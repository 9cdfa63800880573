"""Greedy partition of a distance band into graphs of partial translations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SpaceOperator
from .spaces import FiniteMetricSpace


@dataclass
class PartialTranslation:
    """Injective partial map on point ids, stored as its graph {x: y}."""

    pairs: dict

    def graph_array(self) -> np.ndarray:
        """The graph as an (m, 2) int array of [x, y] rows, sorted by x."""
        m = len(self.pairs)
        rows = np.empty((m, 2), dtype=np.int64)
        rows[:, 0] = np.fromiter(self.pairs, np.int64, m)
        rows[:, 1] = np.fromiter(self.pairs.values(), np.int64, m)
        # decompose_band fills each part row by row, so this is already in order
        if m > 1 and not (rows[1:, 0] > rows[:-1, 0]).all():
            rows = rows[np.argsort(rows[:, 0])]
        return rows


@dataclass
class TranslationDecomposition:
    R: float
    parts: list

    def json_arrays(self) -> dict:
        """The decomposition's JSON schema with each part's pairs as its
        graph_array(), which `report.jsonable` turns into plain lists."""
        return {"R": float(self.R), "parts": [{"pairs": p.graph_array()} for p in self.parts]}


def decompose_band(space: FiniteMetricSpace, R) -> TranslationDecomposition:
    """Partition {(x,y): dist(x,y) <= R} into partial-translation graphs.

    Greedy first-fit in lexicographic pair order; a pair (x, y) joins the first
    part whose domain misses x and whose range misses y. Parts are Python-int
    bitmasks: bit i of `ran_bits[y]` says part i's range holds y, bit i of
    `used` that part i already holds a pair of the current row x (pairs come
    row by row, so that is the same as its domain holding x), and the part
    chosen is the lowest zero bit of their union. A row and a column of the
    band hold at most N_X(R) pairs each, so a pair meets at most
    2 (N_X(R) - 1) busy parts and at most 2 N_X(R) - 1 parts are used. The
    cap 2 N_X(R) is a verdict: the command that prints the decomposition
    checks and reports it (`within_cap`).
    """
    xs, ys = np.nonzero(space.near(R))  # row-major, i.e. lexicographic by (x, y)
    ran_bits = [0] * space.n
    parts: list[dict] = []
    row, used = -1, 0
    for x, y in zip(xs.tolist(), ys.tolist()):
        if x != row:
            row, used = x, 0
        busy = ran_bits[y] | used
        bit = ~busy & (busy + 1)
        i = bit.bit_length() - 1
        if i == len(parts):
            parts.append({})
        parts[i][x] = y
        used |= bit
        ran_bits[y] |= bit
    return TranslationDecomposition(R=R, parts=[PartialTranslation(pairs=p) for p in parts])


def schur_restrict(u: SpaceOperator, T: PartialTranslation) -> SpaceOperator:
    """Keep exactly the entries of u on graph(T), zero everywhere else.

    The result is a generalized permutation matrix, so its operator norm is
    the largest kept entry modulus.
    """
    out = np.zeros_like(u.mat)
    for x, y in T.pairs.items():
        out[y, x] = u.mat[y, x]
    return SpaceOperator(space=u.space, mat=out)

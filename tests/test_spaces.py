import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floyd_warshall, random_connected_graph_space, typed
from roelab.report import jsonable
from roelab.errors import (
    DisconnectedGraph,
    EmptySubset,
    GenerationFailed,
    InvalidMetric,
    NonSymmetricInput,
    TooLargeForExact,
)
from roelab.spaces import interval_space, torus_space
from roelab.spaces import (
    KAPPA_EXACT,
    KAPPA_SPECTRAL,
    REGULAR_TRIES,
    ExpanderFamily,
    FiniteMetricSpace,
    _validate_metric,
    coarse_union,
    expansion_kappa,
    far_points,
    from_graph,
    growth,
    load_space,
    neighbourhood_table,
    piece_slices,
    random_regular,
)


def reference_bfs(adj):
    """Plain per-source BFS; -1 marks unreachable points."""
    n = adj.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in np.flatnonzero(adj[v]):
                if dist[s, w] < 0:
                    dist[s, w] = dist[s, v] + 1
                    queue.append(w)
    return dist


def random_adjacency(seed, n, p):
    rng = np.random.default_rng(seed)
    adj = np.triu((rng.random((n, n)) < p).astype(np.int64), 1)
    return adj + adj.T


def path_space(n):
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return from_graph(adj)


class TestValidation:
    def test_rejects_asymmetric(self):
        d = np.array([[0, 1], [2, 0]])
        with pytest.raises(InvalidMetric):
            FiniteMetricSpace(dist=d)

    def test_rejects_float_asymmetry_above_tolerance(self):
        # 9e-6 apart: within numpy's default relative tolerance of allclose,
        # far above METRIC_TOL
        d = np.array([[0.0, 1.0, 1.0], [1.000009, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(InvalidMetric, match="not symmetric"):
            FiniteMetricSpace(dist=d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1, 1], [1, 0]])
        with pytest.raises(InvalidMetric):
            FiniteMetricSpace(dist=d)

    def test_rejects_zero_offdiagonal(self):
        d = np.array([[0, 0], [0, 0]])
        with pytest.raises(InvalidMetric):
            FiniteMetricSpace(dist=d)

    def test_rejects_triangle_violation(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(InvalidMetric):
            FiniteMetricSpace(dist=d)

    def test_float_tolerance(self):
        d = np.array([[0.0, 1.0], [1.0 + 5e-10, 0.0]])
        FiniteMetricSpace(dist=d)  # within 1e-9

    def test_accepts_valid_float_metric(self):
        d = np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        sp = FiniteMetricSpace(dist=d)
        assert sp.n == 3
        assert not sp.is_integer

    @pytest.mark.parametrize("diagonal", [1e-10, -1e-10])
    def test_float_metric_stored_exact(self, diagonal):
        """A float metric within tolerance is stored exactly symmetric with a
        zero diagonal, in a new array, and so its smallest radius is 0."""
        x = np.arange(6.0)
        d = np.abs(x[:, None] - x[None, :]) + np.triu(np.full((6, 6), 1e-12), 1)
        np.fill_diagonal(d, diagonal)
        given_copy = d.copy()
        sp = FiniteMetricSpace(dist=d)
        assert np.array_equal(sp.dist, sp.dist.T)
        assert np.all(np.diag(sp.dist) == 0)
        assert np.array_equal(d, given_copy)
        assert sp.radii()[0] == 0
        assert np.all(sp.near(0) == np.eye(6, dtype=bool))

    def test_exact_metrics_kept_bit_for_bit(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (9, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        d = np.minimum(d, d.T)
        assert FiniteMetricSpace(dist=d).dist.tobytes() == d.tobytes()
        graph = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert FiniteMetricSpace(dist=graph).dist is graph


class TestFromGraph:
    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            sp = random_connected_graph_space(rng, n)
            adj = (sp.dist == 1).astype(float)
            oracle = floyd_warshall(adj)
            assert np.array_equal(sp.dist, oracle.astype(np.int64))

    def test_disconnected_raises(self):
        adj = np.zeros((4, 4), dtype=np.int64)
        adj[0, 1] = adj[1, 0] = 1
        adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(DisconnectedGraph):
            from_graph(adj)

    def test_rejects_asymmetric_adjacency(self):
        adj = np.zeros((3, 3), dtype=np.int64)
        adj[0, 1] = 1
        with pytest.raises(NonSymmetricInput):
            from_graph(adj)

    def test_path_metric(self):
        sp = path_space(5)
        assert sp.dist[0, 4] == 4
        assert sp.diameter == 4

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        adj = 1 - np.eye(n, dtype=np.int64)
        assert np.array_equal(from_graph(adj).dist, reference_bfs(adj))

    def test_isolated_points_raise(self):
        with pytest.raises(DisconnectedGraph):
            from_graph(np.zeros((2, 2), dtype=np.int64))

    def test_dense_graph_in_source_blocks(self, monkeypatch):
        import roelab.spaces

        adj = random_adjacency(4, 40, 0.5)
        monkeypatch.setattr(roelab.spaces, "BFS_CELLS", 100)
        assert np.array_equal(from_graph(adj).dist, reference_bfs(adj))


# sizes on either side of the byte boundaries of the packed source bitsets
PACKED_SIZES = [7, 8, 9, 15, 16, 17, 63, 64, 65]


def connected_adjacency(seed, n, p):
    """Random graph plus the path 0-1-...-(n-1), so it is connected."""
    adj = random_adjacency(seed, n, p)
    i = np.arange(n - 1)
    adj[i, i + 1] = adj[i + 1, i] = 1
    return adj


def two_components(seed, n, p):
    """Disconnected graph of two connected halves, no isolated point."""
    half = n // 2
    adj = np.zeros((n, n), dtype=np.int64)
    adj[:half, :half] = connected_adjacency(seed, half, p)
    adj[half:, half:] = connected_adjacency(seed + 1, n - half, p)
    return adj


class TestPackedBfs:
    @pytest.mark.parametrize("block_bytes", [None, 1, 2])
    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_matches_reference_in_source_blocks(self, n, block_bytes, monkeypatch):
        import roelab.spaces

        adj = connected_adjacency(n, n, 3 / n)
        if block_bytes is not None:
            # blocks of 8 or 16 sources; the last block is short unless it divides n
            monkeypatch.setattr(roelab.spaces, "BFS_CELLS", 8 * block_bytes * int(adj.sum()))
        assert np.array_equal(from_graph(adj).dist, reference_bfs(adj))

    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("n", PACKED_SIZES)
    def test_disconnected_raises(self, n, block_bytes, monkeypatch):
        import roelab.spaces

        adj = two_components(n, n, 3 / n)
        assert np.any(reference_bfs(adj) < 0)
        if block_bytes is not None:
            monkeypatch.setattr(roelab.spaces, "BFS_CELLS", 8 * block_bytes * int(adj.sum()))
        with pytest.raises(DisconnectedGraph):
            from_graph(adj)

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_diameter_above_255(self, block_bytes, monkeypatch):
        """The path on 300 points has distances up to 299, more than a uint8
        level counter holds, whole and in blocks of 8 sources."""
        import roelab.spaces

        n = 300
        if block_bytes is not None:
            monkeypatch.setattr(roelab.spaces, "BFS_CELLS", 8 * block_bytes * 2 * (n - 1))
        i = np.arange(n)
        assert np.array_equal(path_space(n).dist, np.abs(i[:, None] - i[None, :]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=0, max_value=2 ** 31),
)
def test_bfs_matches_reference(n, p, seed):
    adj = random_adjacency(seed, n, p)
    expected = reference_bfs(adj)
    if np.any(expected < 0):
        with pytest.raises(DisconnectedGraph):
            from_graph(adj)
    else:
        assert np.array_equal(from_graph(adj).dist, expected)


class TestTrustedConstructors:
    """Constructors that skip _validate_metric must still produce metrics."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_interval_torus_far_points(self, n):
        for space in (interval_space(n), torus_space(n), far_points(n)):
            _validate_metric(space.dist)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_interval_torus_int64_distances(self, n):
        # written out, against the constructors' in-place int64 cast
        i, j = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64), indexing="ij")
        gap = np.abs(i - j)
        for space, expected in ((interval_space(n), gap), (torus_space(n), np.minimum(gap, n - gap))):
            assert space.dist.dtype == np.int64
            assert space.dist.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_graphs_and_unions(self, seed):
        rng = np.random.default_rng(seed)
        members = [random_connected_graph_space(rng, n) for n in (3, 6, 11)]
        regular = [random_regular(n, 3, seed=seed) for n in (8, 16, 30)]
        for space in [*members, *regular, coarse_union(members), coarse_union(regular),
                      coarse_union(regular[:1]), coarse_union([far_points(1), far_points(2)])]:
            _validate_metric(space.dist)


class TestBallsAndGrowth:
    def test_ball_and_growth_on_path(self):
        sp = path_space(7)
        assert set(np.flatnonzero(sp.near(1)[3])) == {2, 3, 4}
        assert growth(sp, 1) == 3
        assert growth(sp, 2) == 5
        assert growth(sp, 0) == 1

    def test_set_distance(self):
        sp = path_space(6)
        assert sp.set_distance([0, 1], [4, 5]) == 3
        with pytest.raises(EmptySubset):
            sp.set_distance([], [1])

    def test_growth_negative_radius(self):
        with pytest.raises(ValueError):
            growth(path_space(3), -1)

    def test_growth_nan_radius(self):
        with pytest.raises(ValueError):
            growth(path_space(3), float("nan"))

    def test_near_and_radii(self):
        rng = np.random.default_rng(8)
        explicit = np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 0.75], [2.0, 0.75, 0.0]])
        for sp in (random_connected_graph_space(rng, 9), path_space(6), FiniteMetricSpace(dist=explicit)):
            for R in (0, 0.75, 1, 1.5, 2, 3.5):
                near = sp.near(R)
                assert near.dtype == bool and np.array_equal(near, sp.dist <= R)
            radii = sp.radii()
            assert radii[0] == 0 and np.all(np.diff(radii) > 0)
            assert set(radii.tolist()) == set(sp.dist.ravel().tolist())
        for R in (math.nan, -1, -0.5):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                path_space(4).near(R)


class TestSerialization:
    def test_roundtrip_graph(self, tmp_path):
        sp = path_space(5)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(jsonable(sp.json_arrays())))
        back = load_space(path)
        assert np.array_equal(back.dist, sp.dist)
        assert back.is_integer

    def test_roundtrip_explicit(self, tmp_path):
        d = np.array([[0.0, 1.5], [1.5, 0.0]])
        sp = FiniteMetricSpace(dist=d, label="pair")
        path = tmp_path / "space.json"
        path.write_text(json.dumps(jsonable(sp.json_arrays())))
        back = load_space(path)
        assert back.label == "pair"
        assert not back.is_integer
        assert np.allclose(back.dist, d)

    @pytest.mark.parametrize(
        "obj, field",
        [({}, "metric"), ({"metric": [1]}, "metric"), ([], "metric"),
         ({"metric": {"data": [[0]]}}, "kind"), ({"metric": {"kind": "graph"}}, "data")],
    )
    def test_missing_fields_name_the_field(self, obj, field):
        with pytest.raises(InvalidMetric, match=field):
            FiniteMetricSpace.from_json(obj)

    @pytest.mark.parametrize(
        "kind, data, match",
        [("graph", [[0, 1.5], [1.5, 0]], "integers"),  # used to be cast to 1 silently
         ("graph", [[0, None], [None, 0]], "integers"),
         ("explicit", [[0, math.inf], [math.inf, 0]], "finite"),
         ("explicit", [[0, None], [None, 0]], "finite"),  # a NaN, not "not symmetric"
         ("explicit", [[0, math.nan], [math.nan, 0]], "finite"),
         ("explicit", [[0, "a"], ["a", 0]], "numeric"),
         ("explicit", [[0, 1], [1]], "numeric"),
         ("weighted", [[0, 1], [1, 0]], "unknown metric kind")],
    )
    def test_bad_metric_data_rejected(self, kind, data, match):
        with pytest.raises(InvalidMetric, match=match):
            FiniteMetricSpace.from_json({"metric": {"kind": kind, "data": data}})

    def test_json_schema(self):
        obj = jsonable(path_space(3).json_arrays())
        assert set(obj) == {"label", "n", "metric"}
        assert obj["metric"]["kind"] == "graph"
        json.dumps(obj)  # serializable

    def test_json_arrays_convert_to_the_list_schema(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(7)
        graph = random_connected_graph_space(rng, 9)
        explicit = FiniteMetricSpace(dist=np.abs(x[:, None] - x[None, :]), label="line")
        for space, kind in [(graph, "graph"), (explicit, "explicit")]:
            lists = {"label": space.label, "n": space.n, "metric": {"kind": kind, "data": space.dist.tolist()}}
            assert typed(jsonable(space.json_arrays())) == typed(lists)


class TestCoarseUnion:
    def test_pieces_keep_their_metric(self):
        a, b = path_space(3), path_space(4)
        u = coarse_union([a, b])
        sa, sb = piece_slices([a, b])
        assert np.array_equal(u.dist[sa, sa], a.dist)
        assert np.array_equal(u.dist[sb, sb], b.dist)

    def test_gaps_dominate_diameters_and_powers(self):
        members = [path_space(n) for n in (3, 5, 9, 17)]
        u = coarse_union(members)
        slices = piece_slices(members)
        for j in range(1, 4):
            cross = u.dist[slices[0], slices[j]].min()
            assert cross >= members[j].diameter
            assert cross >= 2 ** j

    def test_gaps_nondecreasing(self):
        members = [path_space(n) for n in (3, 4, 5)]
        u = coarse_union(members)
        slices = piece_slices(members)
        g1 = u.dist[slices[0], slices[1]].min()
        g2 = u.dist[slices[1], slices[2]].min()
        assert g1 <= g2

    def test_union_is_valid_metric(self):
        members = [path_space(n) for n in (2, 6, 3 + 10)]
        _validate_metric(coarse_union(members).dist)

    def test_single_member(self):
        sp = path_space(4)
        u = coarse_union([sp])
        assert np.array_equal(u.dist, sp.dist)

    def test_fixed_gap_schedule(self):
        # g(j) = max(g(j - 1), 2^j, all diameters up to j); at least 2 even
        # between single points
        cases = [
            ([path_space(n) for n in (2, 2, 3, 2)], [2, 4, 8]),
            ([path_space(n) for n in (2, 7, 2)], [6, 6]),
            ([far_points(1), far_points(1)], [2]),
        ]
        for members, gaps in cases:
            u = coarse_union(members)
            slices = piece_slices(members)
            for j, g in enumerate(gaps, start=1):
                for i in range(j):
                    assert np.all(u.dist[slices[i], slices[j]] == g)
                    assert np.all(u.dist[slices[j], slices[i]] == g)


class TestExpansion:
    def test_exact_on_complete_graph(self):
        # K4: any A with |A| <= 2 has N_1(A) = all 4 points
        adj = 1 - np.eye(4, dtype=np.int64)
        sp = from_graph(adj)
        kappa, kind = expansion_kappa(sp, 1, mode="exact")
        assert kind == KAPPA_EXACT
        assert kappa == 4.0 / 2.0

    def test_exact_on_path(self):
        # P8, R=1: worst case is a half-path at one end -> 5/4
        sp = path_space(8)
        kappa, _ = expansion_kappa(sp, 1, mode="exact")
        assert kappa == pytest.approx(5.0 / 4.0)

    def test_exact_matches_direct_enumeration(self):
        rng = np.random.default_rng(3)
        sp = random_connected_graph_space(rng, 9)
        kappa, _ = expansion_kappa(sp, 1, mode="exact")
        best = np.inf
        n = sp.n
        import itertools

        for k in range(1, n // 2 + 1):
            for A in itertools.combinations(range(n), k):
                nbrs = np.flatnonzero(sp.dist[list(A)].min(axis=0) <= 1)
                best = min(best, nbrs.size / k)
        assert kappa == pytest.approx(best)

    def test_neighbourhood_table_matches_direct_enumeration(self):
        rng = np.random.default_rng(4)
        sp = random_connected_graph_space(rng, 8)
        for R in range(int(sp.diameter) + 1):
            table = neighbourhood_table(sp.near(R))
            assert table.dtype == np.uint32 and table.shape == (1 << 8,) and table[0] == 0
            for m in range(1, 1 << 8):
                near = np.flatnonzero(sp.dist[[i for i in range(8) if m >> i & 1]].min(axis=0) <= R)
                assert table[m] == sum(1 << int(c) for c in near)

    def test_neighbourhood_table_equals_the_scattered_fill(self):
        # the strided-slice fill against the index-array scatter it replaced
        sp = random_regular(14, 3, seed=5)
        for R in (0, 1, 2):
            near = sp.near(R)
            rowmask = near @ (np.uint32(1) << np.arange(14, dtype=np.uint32))
            table = np.zeros(1 << 14, dtype=np.uint32)
            for b in reversed(range(14)):
                base = np.arange(1 << (13 - b), dtype=np.uint32) << (b + 1)
                table[base | np.uint32(1 << b)] = table[base] | rowmask[b]
            assert np.array_equal(neighbourhood_table(near), table)

    def test_exact_needs_two_points(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least 2 points"):
                expansion_kappa(far_points(n), 1, mode="exact")
        assert expansion_kappa(far_points(2), 1, mode="exact") == (1.0, KAPPA_EXACT)

    def test_exact_rejects_nan_or_negative_radius(self):
        sp = far_points(5)
        for R in (math.nan, -1):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                expansion_kappa(sp, R, mode="exact")
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                neighbourhood_table(sp.near(R))

    def test_exact_size_cap(self):
        sp = far_points(23)
        with pytest.raises(TooLargeForExact):
            expansion_kappa(sp, 1, mode="exact")

    def test_exact_scan_memory(self):
        # the subset counts are uint8: as int64 they peaked at 39 MiB here
        sp = random_regular(20, 4, 0)
        tracemalloc.start()
        try:
            expansion_kappa(sp, 1, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_spectral_is_a_lower_bound(self):
        sp = random_regular(16, 4, seed=1)
        exact, _ = expansion_kappa(sp, 1, mode="exact")
        spectral, kind = expansion_kappa(sp, 1, mode="spectral")
        assert kind == KAPPA_SPECTRAL
        assert spectral <= exact + 1e-9
        assert spectral > 1

    @pytest.mark.parametrize("n", [2, 5, 16, 64, 200])
    def test_spectral_on_complete_graph_is_below_the_exact_lambda2(self, n):
        # the Laplacian of K_n has lambda_2 = n exactly; the computed one, less
        # its backward-error margin, gives below the exact 1 + n / (2 (n - 1)),
        # strictly, since the margin n eps_mach 2 (n - 1) is above its rounding
        sp = from_graph(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))
        spectral, _ = expansion_kappa(sp, 1, mode="spectral")
        exact = 1 + n / (2 * (n - 1))
        assert spectral < exact
        assert spectral == pytest.approx(exact, abs=1e-12)

    def test_spectral_rejects_radius_below_one(self):
        sp = random_regular(16, 4, seed=2)
        for R in (0, 0.5):
            with pytest.raises(ValueError):
                expansion_kappa(sp, R, mode="spectral")

    def test_spectral_on_irregular_graph(self):
        # 10-vertex star plus one edge between leaves: the adjacency-spectrum
        # bound gave 1.458 here against an exact 1.20
        adj = np.zeros((10, 10), dtype=np.int64)
        adj[0, 1:] = adj[1:, 0] = 1
        adj[1, 2] = adj[2, 1] = 1
        sp = from_graph(adj)
        exact, _ = expansion_kappa(sp, 1, mode="exact")
        spectral, _ = expansion_kappa(sp, 1, mode="spectral")
        assert exact == pytest.approx(1.2)
        assert spectral <= exact + 1e-9

    def test_expansion_at_least_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sp = random_connected_graph_space(rng, int(rng.integers(4, 13)))
            kappa, _ = expansion_kappa(sp, 1, mode="exact")
            assert kappa >= 1.0


class TestGenerators:
    def test_random_regular_degrees(self):
        for seed in range(5):
            sp = random_regular(14, 3, seed=seed)
            degrees = (sp.dist == 1).sum(axis=1)
            assert np.all(degrees == 3)

    def test_random_regular_deterministic(self):
        a = random_regular(12, 3, seed=7)
        b = random_regular(12, 3, seed=7)
        assert np.array_equal(a.dist, b.dist)

    # (16, 4, 3), (20, 4, 1) and (512, 4, 3) reject many draws before a
    # connected simple one
    @pytest.mark.parametrize("n,d,seed", [
        (12, 3, 7), (10, 4, 0), (16, 3, 2), (30, 3, 1), (60, 4, 2), (16, 4, 3), (20, 4, 1), (512, 4, 3),
    ])
    def test_random_regular_matches_edge_set_construction(self, n, d, seed):
        """The same rng calls as the pairing model over a set of edge tuples,
        which rejects a repeated edge by the set's size, give the same graph."""
        rng = np.random.default_rng(seed)
        for _ in range(REGULAR_TRIES):
            stubs = np.repeat(np.arange(n), d)
            rng.shuffle(stubs)
            u, v = stubs[0::2], stubs[1::2]
            if np.any(u == v):
                continue
            edges = set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
            if len(edges) < u.size:
                continue
            adjacency = np.zeros((n, n), dtype=np.int64)
            for a, b in edges:
                adjacency[a, b] = adjacency[b, a] = 1
            try:
                expected = from_graph(adjacency)
            except DisconnectedGraph:
                continue
            break
        assert np.array_equal(random_regular(n, d, seed).dist, expected.dist)

    def test_random_regular_rejects_odd_product(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, seed=0)

    def test_far_points(self):
        sp = far_points(6)
        assert sp.n == 6
        assert sp.dist[0, 5] == 10
        assert growth(sp, 9) == 1
        assert growth(sp, 10) == 6


class TestExpanderFamily:
    def test_sizes_must_increase(self):
        with pytest.raises(InvalidMetric):
            ExpanderFamily(
                members=[path_space(4), path_space(4)],
                kappa=1.5,
                kappa_kind=KAPPA_EXACT,
            )

    def test_certified_kappa_must_exceed_one(self):
        with pytest.raises(InvalidMetric):
            ExpanderFamily(
                members=[path_space(3), path_space(4)],
                kappa=1.0,
                kappa_kind=KAPPA_EXACT,
            )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=0, max_value=2 ** 31),
    st.sampled_from([1, 2]),
)
def test_spectral_kappa_below_exact(n, seed, R):
    sp = random_connected_graph_space(np.random.default_rng(seed), n)
    exact, _ = expansion_kappa(sp, R, mode="exact")
    spectral, _ = expansion_kappa(sp, R, mode="spectral")
    assert spectral <= exact + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=2 ** 31))
def test_graph_metric_properties(n, seed):
    rng = np.random.default_rng(seed)
    sp = random_connected_graph_space(rng, n)
    assert np.array_equal(sp.dist, sp.dist.T)
    assert np.all(np.diag(sp.dist) == 0)
    # growth is monotone in R
    values = [growth(sp, R) for R in range(int(sp.diameter) + 1)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == n

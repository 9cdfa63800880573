import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eps_propagation_oracle_pairs,
    eps_propagation_oracle_scan,
    random_connected_graph_space,
    random_operator,
)
from roelab import operators as ops
from roelab.errors import EmptySubset, TooLargeForExact
from roelab.operators import (
    BandDistanceBounds,
    SpaceOperator,
    band_mask,
    band_truncate,
    dist_to_band_bounds,
    eps_propagation_radius,
    operator_norm,
    opnorm,
    propagation,
    rect_norm,
)
from roelab.propa import interval_space
from roelab.spaces import far_points


class TestOperatorNorm:
    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            oracle = np.linalg.svd(m, compute_uv=False)[0]
            assert operator_norm(m) == pytest.approx(oracle, abs=1e-9)

    def test_rectangular(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 17))
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(oracle, abs=1e-9)

    def test_zero_and_empty(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_rank_one(self):
        v = np.array([3.0, 4.0])
        assert operator_norm(np.outer(v, v)) == pytest.approx(25.0)

    def test_unitary_has_norm_one(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        assert operator_norm(q) == pytest.approx(1.0, abs=1e-10)


def _svd_top(m):
    dense = m.toarray() if hasattr(m, "toarray") else m
    return np.linalg.svd(dense, compute_uv=False)[0]


def _assert_norm(m):
    """operator_norm against LAPACK to 1e-10 relative; err brackets the oracle."""
    value, err = operator_norm(m, with_err=True)
    oracle = _svd_top(m)
    assert value == pytest.approx(oracle, rel=1e-10, abs=1e-300)
    assert err >= 0.0
    assert value + err >= oracle * (1 - 1e-14)
    assert operator_norm(m) == value
    return value, err


def _band(rng, N, R, complex_=True):
    idx = np.arange(N)
    m = rng.standard_normal((N, N))
    if complex_:
        m = m + 1j * rng.standard_normal((N, N))
    return np.where(np.abs(idx[:, None] - idx[None, :]) <= R, m, 0.0)


class TestOperatorNormLanczos:
    """Sizes above DENSE_NORM_MAX, where Golub-Kahan-Lanczos runs."""

    @pytest.mark.parametrize("N", [60, 200, 600])
    @pytest.mark.parametrize("R", [1, 3, None])
    def test_band_and_dense(self, N, R):
        rng = np.random.default_rng(N + (R or 0))
        m = _band(rng, N, N if R is None else R)
        _assert_norm(m)

    def test_lanczos_path_is_taken(self, monkeypatch):
        calls = []
        original = ops._dense_norm
        monkeypatch.setattr(ops, "_dense_norm", lambda m: calls.append(m.shape) or original(m))
        _assert_norm(_band(np.random.default_rng(3), 200, 2))
        assert calls == []

    @pytest.mark.parametrize("shape", [(400, 150), (150, 400), (1000, 130)])
    def test_tall_and_wide(self, shape):
        rng = np.random.default_rng(shape[0])
        _assert_norm(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        _assert_norm(rng.standard_normal(shape))

    def test_sparse_csr(self):
        import scipy.sparse as sparse

        m = sparse.random(500, 300, density=0.02, random_state=4, format="csr")
        _assert_norm(m)
        _assert_norm(sparse.csr_matrix(_band(np.random.default_rng(5), 400, 2)))
        small = sparse.random(20, 30, density=0.3, random_state=6, format="csr")
        _assert_norm(small)

    def test_zero_and_rank_one_above_threshold(self):
        N = ops.DENSE_NORM_MAX + 50
        assert operator_norm(np.zeros((N, N)), with_err=True) == (0.0, 0.0)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        v = rng.standard_normal(N + 30)
        _assert_norm(np.outer(u, v))

    def test_unitary_all_tied(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        value, _ = _assert_norm(q)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_near_tied_pair(self):
        rng = np.random.default_rng(9)
        q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        s = np.linspace(0.1, 0.9, 200)
        s[0], s[1] = 1.0, 1.0 - 1e-13
        _assert_norm(q1 @ np.diag(s) @ q2.T)

    def test_cap_falls_back_to_lapack(self, monkeypatch):
        calls = []
        original = ops._dense_norm
        monkeypatch.setattr(ops, "_dense_norm", lambda m: calls.append(m.shape) or original(m))
        monkeypatch.setattr(ops, "_GKL_MAXITER", 2)
        m = _band(np.random.default_rng(10), 300, 3)
        value, err = _assert_norm(m)
        assert calls == [(300, 300)] * 2  # with_err and plain call
        assert value == _svd_top(m)
        assert err == pytest.approx(300 * np.finfo(float).eps * value)


class TestSpaceOperator:
    def test_shape_mismatch(self):
        sp = far_points(3)
        with pytest.raises(ValueError):
            SpaceOperator(space=sp, mat=np.zeros((2, 2)))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(3)
        sp = interval_space(5)
        u = random_operator(rng, sp)
        back = SpaceOperator.from_json(u.to_json(), sp)
        assert np.array_equal(back.mat, u.mat)

    def test_json_size_check(self):
        sp = interval_space(5)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(ValueError):
            SpaceOperator.from_json(u.to_json(), interval_space(6))


class TestPropagation:
    def test_diagonal_is_zero(self):
        sp = interval_space(6)
        u = SpaceOperator(space=sp, mat=np.eye(6, dtype=complex))
        assert propagation(u) == 0

    def test_zero_operator(self):
        sp = interval_space(4)
        u = SpaceOperator(space=sp, mat=np.zeros((4, 4)))
        assert propagation(u) == -math.inf

    def test_band_truncation_controls_propagation(self):
        rng = np.random.default_rng(4)
        sp = interval_space(12)
        u = random_operator(rng, sp)
        for R in (0, 1, 3, 5):
            assert propagation(band_truncate(u, R)) <= R

    def test_tolerance(self):
        sp = interval_space(3)
        m = np.zeros((3, 3), dtype=complex)
        m[0, 2] = 1e-12
        m[0, 0] = 1.0
        u = SpaceOperator(space=sp, mat=m)
        assert propagation(u) == 0
        assert propagation(u, tol=0.0) == 2


class TestRectangles:
    def test_rank_one_closed_form(self):
        # ||1_A vv* 1_B|| = ||1_A v|| * ||1_B v||
        rng = np.random.default_rng(5)
        sp = interval_space(10)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        u = SpaceOperator(space=sp, mat=np.outer(v, v.conj()))
        A = np.array([0, 2, 4])
        B = np.array([5, 6, 9])
        w = rect_norm(u, A, B)
        expected = np.linalg.norm(v[A]) * np.linalg.norm(v[B])
        assert w.value == pytest.approx(expected, abs=1e-9)
        assert w.separation == 1

    def test_empty_rectangle(self):
        sp = interval_space(4)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(EmptySubset):
            rect_norm(u, [], [1])

    def test_band_mask_symmetry(self):
        sp = interval_space(7)
        m = band_mask(sp, 2)
        assert np.array_equal(m, m.T)
        assert m[0, 2] and not m[0, 3]


class TestEpsPropagation:
    def test_exact_matches_pair_oracle_small(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            n = int(rng.integers(4, 8))
            sp = random_connected_graph_space(rng, n)
            u = random_operator(rng, sp, R=int(rng.integers(1, 3)))
            eps = float(rng.uniform(0.1, 1.5))
            res = eps_propagation_radius(u, eps, mode="exact")
            oracle = eps_propagation_oracle_pairs(u, eps)
            assert res.lower == res.upper == oracle

    def test_scan_oracle_agrees_with_pair_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            n = int(rng.integers(4, 8))
            sp = random_connected_graph_space(rng, n)
            u = random_operator(rng, sp)
            eps = float(rng.uniform(0.5, 3.0))
            assert eps_propagation_oracle_scan(u, eps) == eps_propagation_oracle_pairs(u, eps)

    def test_band_operator_radius_bounded_by_band(self):
        rng = np.random.default_rng(8)
        sp = interval_space(10)
        u = random_operator(rng, sp, R=2)
        res = eps_propagation_radius(u, 1e-9, mode="exact")
        assert res.upper <= 2

    def test_heuristic_brackets_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            sp = random_connected_graph_space(rng, n)
            u = random_operator(rng, sp)
            eps = float(rng.uniform(0.5, 2.0))
            exact = eps_propagation_radius(u, eps, mode="exact")
            heur = eps_propagation_radius(u, eps, mode="heuristic", seed=0, budget=200)
            assert heur.lower <= exact.lower + 1e-12
            assert heur.upper >= exact.upper - 1e-12

    def test_exact_size_cap(self):
        sp = interval_space(21)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(TooLargeForExact):
            eps_propagation_radius(u, 0.5, mode="exact")

    def test_eps_must_be_positive(self):
        sp = interval_space(4)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(ValueError):
            eps_propagation_radius(u, 0.0)

    def test_witness_is_a_real_violation(self):
        rng = np.random.default_rng(10)
        sp = random_connected_graph_space(rng, 9)
        u = random_operator(rng, sp)
        res = eps_propagation_radius(u, 0.5, mode="exact")
        if res.witness is not None:
            w = rect_norm(u, np.array(res.witness.A), np.array(res.witness.B))
            assert w.value > 0.5
            assert w.separation == res.lower


class TestBandDistance:
    def test_bounds_are_ordered(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 12))
            sp = random_connected_graph_space(rng, n)
            u = random_operator(rng, sp)
            b = dist_to_band_bounds(u, 1)
            assert b.lower <= b.upper + 1e-9

    def test_band_operator_has_zero_distance(self):
        rng = np.random.default_rng(12)
        sp = interval_space(10)
        u = random_operator(rng, sp, R=2)
        b = dist_to_band_bounds(u, 2)
        assert b.lower == 0.0
        assert b.upper == pytest.approx(0.0, abs=1e-12)

    def test_witness_separation_exceeds_radius(self):
        rng = np.random.default_rng(13)
        sp = interval_space(10)
        u = random_operator(rng, sp)
        b = dist_to_band_bounds(u, 2)
        assert b.witness is not None
        assert b.witness.separation > 2

    def test_large_instance_uses_random_search(self):
        rng = np.random.default_rng(14)
        sp = interval_space(40)
        u = random_operator(rng, sp)
        b = dist_to_band_bounds(u, 3, budget=100, seed=0)
        assert 0.0 < b.lower <= b.upper + 1e-9

    def test_negative_radius(self):
        sp = interval_space(4)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(ValueError):
            dist_to_band_bounds(u, -1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=2 ** 31))
def test_truncation_partition_of_norm(n, seed):
    """Truncation plus tail reassembles the operator; norms obey the triangle bound."""
    rng = np.random.default_rng(seed)
    sp = random_connected_graph_space(rng, n)
    u = random_operator(rng, sp)
    for R in range(int(sp.diameter) + 1):
        t = band_truncate(u, R)
        assert np.array_equal(np.where(band_mask(sp, R), u.mat, 0.0), t.mat)
        assert opnorm(t) <= opnorm(u) + opnorm(SpaceOperator(space=sp, mat=u.mat - t.mat)) + 1e-9

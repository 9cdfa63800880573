import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_pair,
    eps_propagation_oracle_pairs,
    eps_propagation_oracle_scan,
    propagation_oracle,
    random_connected_graph_space,
    random_operator,
    reference_band_dist_random,
    reference_eps_prop_heuristic,
)
from roelab import operators as ops
from roelab.errors import TooLargeForExact
from roelab.operators import (
    Bracket,
    RectangleWitness,
    SpaceOperator,
    band_truncate,
    complex_from_pairs,
    dist_to_band_bounds,
    eps_propagation_brackets,
    eps_propagation_radius,
    eps_propagation_violation,
    operator_norm,
    sigma_max_stack,
)
from roelab.spaces import interval_space
from roelab.spaces import FiniteMetricSpace, far_points


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

    def test_dense_value_bit_identical_to_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            p, q = rng.integers(1, ops.DENSE_NORM_MAX + 1, size=2)
            m = rng.standard_normal((p, q)) * (rng.random((p, q)) < 0.3)
            if rng.random() < 0.5:
                m = m + 1j * rng.standard_normal((p, q))
            assert operator_norm(m) == np.linalg.svd(m, compute_uv=False)[0]

    @staticmethod
    def _hermitian(rng, n, complex_):
        x = rng.standard_normal((n, n))
        if complex_:
            x = x + 1j * rng.standard_normal((n, n))
        return (x + x.conj().T) / 2

    @pytest.mark.parametrize("complex_", [False, True])
    def test_hermitian_value_within_backward_error_of_svd(self, monkeypatch, complex_):
        calls = []
        hermitian = ops._hermitian_norm
        monkeypatch.setattr(ops, "_hermitian_norm", lambda m: calls.append(len(m)) or hermitian(m))
        rng = np.random.default_rng(6)
        sizes = range(1, ops.DENSE_NORM_MAX + 1)
        for n in sizes:
            m = self._hermitian(rng, n, complex_)
            value, err = operator_norm(m, with_err=True)
            oracle = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(value - oracle) <= n * np.finfo(float).eps * value
            assert value + err >= oracle
        assert calls == list(sizes)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_one_off_symmetric_entry_takes_the_svd(self, monkeypatch, complex_):
        monkeypatch.setattr(ops, "_hermitian_norm", None)  # not called
        rng = np.random.default_rng(7)
        for n in (2, 3, 17, ops.DENSE_NORM_MAX):
            m = self._hermitian(rng, n, complex_)
            i, j = rng.choice(n, size=2, replace=False)
            m[i, j] *= 1 + 2.0**-40
            assert not np.array_equal(m, m.conj().T)
            assert operator_norm(m) == np.linalg.svd(m, compute_uv=False)[0]

    def test_single_precision_is_normed_in_double(self):
        # LAPACK normed float32 in single precision: 5.605551242828369, err
        # 2.5e-15, with the exact 2 + sqrt(13) 3.3e-8 above
        value, err = operator_norm(np.array([[1, 2], [2, -5]], np.float32), with_err=True)
        assert abs(value - (2 + math.sqrt(13))) <= err
        rng = np.random.default_rng(12)
        for n in (5, ops.DENSE_NORM_MAX + 40):  # LAPACK and the Lanczos
            m = rng.standard_normal((n, n + 3)) + 1j * rng.standard_normal((n, n + 3))
            single = m.astype(np.complex64)
            assert operator_norm(single, with_err=True) == operator_norm(single.astype(np.complex128), with_err=True)
            assert operator_norm(single.real, with_err=True) == operator_norm(single.real.astype(float), with_err=True)

    def test_single_precision_sparse_is_normed_in_double(self):
        import scipy.sparse as sparse

        for n in (20, ops.DENSE_NORM_MAX + 40):
            m = sparse.random(n, n, density=0.1, random_state=n, format="csr", dtype=np.float32)
            assert operator_norm(m, with_err=True) == operator_norm(m.astype(np.float64), with_err=True)

    def test_zero_hermitian(self):
        for dtype in (np.float64, np.complex128):
            value, err = operator_norm(np.zeros((5, 5), dtype), with_err=True)
            assert (value, err) == (0.0, 0.0)
            assert math.copysign(1.0, value) == 1.0

    def test_nan_hermitian_raises_as_the_svd_does(self):
        # NaN != NaN, so a NaN input is never taken for Hermitian
        for m in (np.full((3, 3), np.nan), np.diag([1.0, np.nan, 1.0])):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                operator_norm(m)


def _svd_top(m):
    dense = m.toarray() if hasattr(m, "toarray") else m
    return np.linalg.svd(dense, compute_uv=False)[0]


def _assert_lanczos(m):
    """The Lanczos pair of m's entries, whatever their fill, against LAPACK."""
    value, err = ops._lanczos_top(ops.Entries.of(m))
    oracle = _svd_top(m)
    assert value == pytest.approx(oracle, rel=1e-10, abs=1e-300)
    assert err >= 0.0 and value + err >= oracle * (1 - 1e-14)


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
    """Sizes above DENSE_NORM_MAX, where Lanczos on the Gram runs."""

    @pytest.mark.parametrize("N", [60, 200, 600])
    @pytest.mark.parametrize("R", [1, 3, None])
    def test_band_and_dense(self, N, R):
        rng = np.random.default_rng(N + (R or 0))
        m = _band(rng, N, N if R is None else R)
        _assert_norm(m)
        if N > ops.DENSE_NORM_MAX:
            _assert_lanczos(m)  # a dense one takes LAPACK above FILL_CUT

    def test_lanczos_path_is_taken(self, monkeypatch):
        calls = []
        original = ops._sigma_max
        monkeypatch.setattr(ops, "_sigma_max", lambda m: calls.append(m.shape) or original(m))
        _assert_norm(_band(np.random.default_rng(3), 200, 2))
        assert calls == []

    @pytest.mark.parametrize("shape", [(400, 150), (150, 400), (1000, 130)])
    def test_tall_and_wide(self, shape):
        rng = np.random.default_rng(shape[0])
        for m in (rng.standard_normal(shape) + 1j * rng.standard_normal(shape), rng.standard_normal(shape)):
            _assert_norm(m)
            _assert_lanczos(m)

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
        _assert_lanczos(np.outer(u, v))

    def test_unitary_all_tied(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        value, _ = _assert_norm(q)
        assert value == pytest.approx(1.0, rel=1e-12)
        _assert_lanczos(q)

    def test_near_tied_pair(self):
        rng = np.random.default_rng(9)
        q1, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        q2, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        s = np.linspace(0.1, 0.9, 200)
        s[0], s[1] = 1.0, 1.0 - 1e-13
        _assert_norm(q1 @ np.diag(s) @ q2.T)
        _assert_lanczos(q1 @ np.diag(s) @ q2.T)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_gram_neither_overflows_nor_underflows(self, scale):
        # the squares in the Gram of these would leave the float64 range
        _assert_norm(_band(np.random.default_rng(14), 300, 2) * scale)

    def test_non_finite_entry_goes_to_lapack(self):
        m = _band(np.random.default_rng(15), 300, 2)
        m[7, 8] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm(m)

    def test_orthogonalise_repeats_only_on_cancellation(self):
        rng = np.random.default_rng(11)
        Q = np.linalg.qr(rng.standard_normal((300, 20)) + 1j * rng.standard_normal((300, 20)))[0].T
        fresh = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        one_pass = fresh - (Q @ fresh.conj()).conj() @ Q
        w = fresh.copy()
        assert ops._orthogonalise(w, Q) == np.linalg.norm(w)
        assert np.array_equal(w, one_pass)  # a pass that keeps most of the norm is not repeated
        # a vector almost inside span(Q): one pass leaves components of about
        # 1e8 * eps_mach along Q, relative to what remains; the second removes them
        w = 1e8 * (rng.standard_normal(20) @ Q) + one_pass / np.linalg.norm(one_pass)
        norm = ops._orthogonalise(w, Q)
        assert norm == pytest.approx(1.0, rel=1e-6)
        assert np.abs(Q.conj() @ w).max() <= 1e-14 * norm

    @pytest.mark.parametrize("shape", [(300, 300), (400, 150), (150, 400)])
    def test_one_basis_one_orthogonalise_per_step(self, monkeypatch, shape):
        # Lanczos on the Gram keeps one basis, on the smaller side, and
        # orthogonalises against all of it once per step
        bases = []
        original = ops._orthogonalise
        monkeypatch.setattr(ops, "_orthogonalise", lambda w, Q: bases.append(Q.shape) or original(w, Q))
        rng = np.random.default_rng(shape[0])
        # a tenth of the entries, below FILL_CUT, so that the Lanczos runs
        _assert_norm((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (rng.random(shape) < 0.1))
        steps = len(bases) // 2  # with_err and plain call
        assert steps > 1 and bases == [(k + 1, min(shape)) for k in range(steps)] * 2

    def test_cap_falls_back_to_lapack(self, monkeypatch):
        calls = []
        original = ops._sigma_max
        monkeypatch.setattr(ops, "_sigma_max", lambda m: calls.append(m.shape) or original(m))
        monkeypatch.setattr(ops, "_LANCZOS_MAXITER", 2)
        m = _band(np.random.default_rng(10), 300, 3)
        value, err = _assert_norm(m)
        assert calls == [(300, 300)] * 2  # with_err and plain call
        assert value == _svd_top(m)
        assert err == pytest.approx(300 * np.finfo(float).eps * value)


class TestGatheredProducts:
    """Above DENSE_NORM_MAX, a matrix with at most FILL_CUT of its entries
    nonzero is multiplied by gathering over them."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Output sizes of the gathered products built, forward then adjoint."""
        sizes = []
        original = ops._gathered
        monkeypatch.setattr(ops, "_gathered", lambda *a: sizes.append(a[-1]) or original(*a))
        return sizes

    @staticmethod
    def _sparse(rng, shape, fill=0.05, complex_=True):
        m = rng.standard_normal(shape) * (rng.random(shape) < fill)
        if complex_:
            m = m + 1j * np.where(m != 0, rng.standard_normal(shape), 0.0)
        return m

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("R", [1, 2, 5])
    def test_banded(self, built, complex_, R):
        _assert_norm(_band(np.random.default_rng(20 + R), 300, R, complex_))
        assert built == [300, 300] * 2  # with_err and plain call

    @pytest.mark.parametrize("shape", [(400, 150), (150, 400)])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_tall_and_wide(self, built, shape, complex_):
        _assert_norm(self._sparse(np.random.default_rng(shape[0]), shape, complex_=complex_))
        assert built[:2] == list(shape)

    def test_empty_rows_and_columns(self, built):
        m = _band(np.random.default_rng(21), 300, 3)
        m[::3] = 0.0
        m[:, 40:90] = 0.0
        m[-1] = 0.0
        _assert_norm(m)
        assert built

    @pytest.mark.parametrize("shape", [(200, 300), (300, 200)])
    def test_single_entry(self, built, shape):
        m = np.zeros(shape, complex)
        m[150, 170] = -2.5 + 1.0j
        value, _ = _assert_norm(m)
        assert value == pytest.approx(abs(m[150, 170]), rel=1e-14)
        assert built

    def test_all_zero_takes_no_step(self, built):
        import scipy.sparse as sparse

        N = ops.DENSE_NORM_MAX + 1
        assert operator_norm(np.zeros((N, 2 * N)), with_err=True) == (0.0, 0.0)
        assert operator_norm(sparse.csr_matrix((2 * N, N)), with_err=True) == (0.0, 0.0)
        # explicit zeros in a sparse matrix are not entries
        explicit = sparse.csr_matrix((np.zeros(3), ([0, 5, 9], [1, 1, 4])), shape=(N, N))
        assert explicit.nnz == 3
        assert operator_norm(explicit, with_err=True) == (0.0, 0.0)
        assert built == []

    @pytest.mark.parametrize("fill", [0.5, 1.0])
    def test_filled_matrix_takes_lapack(self, built, fill):
        m = self._sparse(np.random.default_rng(22), (300, 300), fill=fill)
        _assert_norm(m)
        assert built == []
        _assert_lanczos(m)  # which would still norm it

    def test_fill_cut_decides_the_path(self, built, monkeypatch):
        """A dense 200 x 200 matrix takes LAPACK, a 600-point band the Lanczos."""
        lapack = []
        original = ops._sigma_max
        monkeypatch.setattr(ops, "_sigma_max", lambda m: lapack.append(m.shape) or original(m))
        rng = np.random.default_rng(24)
        _assert_norm(rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)))
        assert lapack == [(200, 200)] * 2 and built == []  # with_err and plain call
        band = _band(rng, 600, 1)
        assert np.count_nonzero(band) / band.size <= ops.FILL_CUT
        _assert_norm(band)
        assert lapack == [(200, 200)] * 2 and built == [600, 600] * 2

    def test_sparse_and_dense_twin_identical(self, built):
        import scipy.sparse as sparse

        rng = np.random.default_rng(23)
        twins = [
            _band(rng, 300, 2),
            _band(rng, 250, 4, complex_=False),
            self._sparse(rng, (400, 150)),
            self._sparse(rng, (150, 400), complex_=False),
        ]
        for dense in twins:
            for fmt in (sparse.csr_matrix, sparse.csc_matrix):
                assert operator_norm(fmt(dense), with_err=True) == operator_norm(dense, with_err=True)
        assert built


class TestSpaceOperator:
    def test_entries_are_the_nonzero_scan_of_the_final_mat(self):
        rng = np.random.default_rng(13)
        space = interval_space(200)
        m = np.where(space.near(2), rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200)), 0.0)
        given = ops.Entries.of(m)
        vals = given.vals
        u = SpaceOperator.normalised(space, given)
        assert u.entries is given and u.entries.vals is vals  # divided in place
        assert vals.tobytes() == (m[given.rows, given.cols] / operator_norm(m)).tobytes()
        assert "mat" not in vars(u)
        e = u.entries
        rows, cols = np.nonzero(u.mat)  # built from the entries on first read
        assert np.array_equal(e.rows, rows) and np.array_equal(e.cols, cols)
        assert e.vals.tobytes() == u.mat[rows, cols].tobytes()
        assert np.array_equal(e.toarray(), u.mat)

    @pytest.mark.parametrize("n", [12, 200])
    def test_tail_bound_is_the_norm_of_the_zeroed_copy(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        space = interval_space(n)
        u = SpaceOperator(space, (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 0.5 ** space.dist)
        for R in (0, 1, 3, n - 2):
            value, err = operator_norm(np.where(space.near(R), 0.0, u.mat), with_err=True)
            assert u.tail_bound(R) == value + err
        # no entry outside near(R): exactly 0.0, and no norm is taken
        monkeypatch.setattr(ops, "_norm_with_err", None)
        assert u.tail_bound(n - 1) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            u.tail_bound(-1.0)

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

    def test_pairs_bit_identical_to_complex(self):
        pairs = [[0.1, -0.0], [-0.0, 3], [2 ** 60 + 1, 5e-324], [-1e308, 1 / 3]]
        got = complex_from_pairs(pairs)
        want = np.array([complex(re, im) for re, im in pairs])
        assert got.dtype == np.complex128 and got.shape == (4,)
        assert got.tobytes() == want.tobytes()
        assert complex_from_pairs([pairs]).shape == (1, 4)

    @pytest.mark.parametrize(
        "bad",
        [[0.0, 1.0, 2.0], [["a", 0]], [[1.0, float("nan")]], [[float("inf"), 0]], [[{}, 0]], 3.0, [[1, 0], [1]]],
    )
    def test_pairs_rejected(self, bad):
        with pytest.raises(ValueError):
            complex_from_pairs(bad)

    def test_json_size_check(self):
        sp = interval_space(5)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(ValueError):
            SpaceOperator.from_json(u.to_json(), interval_space(6))


class TestPropagation:
    def test_band_truncation_controls_propagation(self):
        rng = np.random.default_rng(4)
        sp = interval_space(12)
        u = random_operator(rng, sp)
        for R in (0, 1, 3, 5):
            assert propagation_oracle(band_truncate(u, R), 0.0) <= R

    @staticmethod
    def _space(kind, rng):
        if kind == "integer":
            return random_connected_graph_space(rng, 11, extra_edges=2)
        if kind == "float":
            return _plane_space(rng, 9)
        if kind == "uniform-integer":
            return far_points(7)
        dist = np.full((6, 6), 0.75)
        np.fill_diagonal(dist, 0.0)
        return FiniteMetricSpace(dist=dist)

    @pytest.mark.parametrize("kind", ["integer", "float", "uniform-integer", "uniform-float"])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_dist_oracle(self, kind, tol, seed):
        # moduli in [0, 1) on a random support, a few of them at 1e-12, which
        # only tol 0 counts; density 0 is the zero operator (-inf). Truncating
        # to the R-band keeps the propagation the dense dist gives exactly
        # when R reaches it
        rng = np.random.default_rng(seed)
        space = self._space(kind, rng)
        n = space.n
        for density in (0.0, 0.05, 0.3, 1.0):
            m = rng.random((n, n)) * np.exp(2j * np.pi * rng.random((n, n)))
            m[rng.random((n, n)) < 0.1] = 1e-12
            m[rng.random((n, n)) >= density] = 0.0
            u = SpaceOperator(space=space, mat=m)
            want = propagation_oracle(u, tol)
            for R in space.radii():
                kept = propagation_oracle(band_truncate(u, R), tol)
                assert (kept == want) == (R >= want), (kind, tol, seed, density, R)


class TestRectangles:
    def test_rank_one_closed_form(self):
        # ||1_A vv* 1_B|| = ||1_A v|| * ||1_B v||
        rng = np.random.default_rng(5)
        sp = interval_space(10)
        v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        u = SpaceOperator(space=sp, mat=np.outer(v, v.conj()))
        A = np.array([0, 2, 4])
        B = np.array([5, 6, 9])
        expected = np.linalg.norm(v[A]) * np.linalg.norm(v[B])
        assert operator_norm(u.mat[np.ix_(A, B)]) == pytest.approx(expected, abs=1e-9)
        assert sp.set_distance(A, B) == 1

    def test_band_mask_symmetry(self):
        sp = interval_space(7)
        m = sp.near(2)
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
            res = eps_propagation_radius(u, eps)
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
        res = eps_propagation_radius(u, 1e-9)
        assert res.upper <= 2

    def test_heuristic_brackets_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(6, 13))
            sp = random_connected_graph_space(rng, n)
            u = random_operator(rng, sp)
            eps = float(rng.uniform(0.5, 2.0))
            exact = eps_propagation_radius(u, eps)
            heur = eps_propagation_brackets(u, [eps], seed=0, budget=200)[0]
            assert heur.lower <= exact.lower + 1e-12
            assert heur.upper >= exact.upper - 1e-12

    def test_exact_size_cap(self):
        sp = interval_space(21)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(TooLargeForExact):
            eps_propagation_radius(u, 0.5)

    def test_eps_must_be_positive(self):
        sp = interval_space(4)
        u = random_operator(np.random.default_rng(0), sp)
        with pytest.raises(ValueError):
            eps_propagation_radius(u, 0.0)

    def test_witness_is_a_real_violation(self):
        rng = np.random.default_rng(10)
        sp = random_connected_graph_space(rng, 9)
        u = random_operator(rng, sp)
        res = eps_propagation_radius(u, 0.5)
        if res.witness is not None:
            A, B = np.array(res.witness.A), np.array(res.witness.B)
            assert operator_norm(u.mat[np.ix_(A, B)]) > 0.5
            assert sp.set_distance(A, B) == res.lower


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

    def test_nan_radius_and_threshold(self):
        u = random_operator(np.random.default_rng(0), interval_space(4))
        for call in (lambda: dist_to_band_bounds(u, math.nan), lambda: band_truncate(u, math.nan),
                     lambda: eps_propagation_radius(u, math.nan)):
            with pytest.raises(ValueError):
                call()
        # the exact scan took a NaN or negative R as "nothing within R" and
        # returned a witness of separation 0
        for R in (math.nan, -1):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                eps_propagation_violation(u, 0.5, R)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=2 ** 31))
def test_truncation_partition_of_norm(n, seed):
    """Truncation plus tail reassembles the operator; norms obey the triangle bound."""
    rng = np.random.default_rng(seed)
    sp = random_connected_graph_space(rng, n)
    u = random_operator(rng, sp)
    for R in range(int(sp.diameter) + 1):
        t = band_truncate(u, R)
        assert np.array_equal(np.where(sp.near(R), u.mat, 0.0), t.mat)
        assert operator_norm(t.mat) <= operator_norm(u.mat) + operator_norm(u.mat - t.mat) + 1e-9


# ---------------------------------------------------------------- batched exact scans


def _lapack_norm(m) -> float:
    return float(np.linalg.norm(m, 2))


def _worst_B(space, A, R):
    return np.flatnonzero(~(space.dist[A].min(axis=0) <= R))


def reference_eps_propagation_exact(u, eps):
    """The per-rectangle scan the batched one replaced: one LAPACK SVD per
    rectangle, masks in increasing order, strict > first occurrence."""
    space = u.space
    n = space.n
    radii = space.radii()
    best_R = 0.0
    witness = None
    for a_mask in range(1, 1 << n):
        A = np.array([i for i in range(n) if a_mask >> i & 1], dtype=int)
        lo, hi = 0, len(radii) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            B = _worst_B(space, A, radii[mid])
            if B.size == 0 or _lapack_norm(u.mat[np.ix_(A, B)]) <= eps:
                hi = mid
            else:
                lo = mid + 1
        r_a = radii[lo]
        if r_a > best_R:
            best_R = r_a
            if lo > 0:
                B = _worst_B(space, A, radii[lo - 1])
                witness = RectangleWitness(
                    A=tuple(A.tolist()), B=tuple(B.tolist()),
                    separation=space.set_distance(A, B), value=operator_norm(u.mat[np.ix_(A, B)]),
                )
    return float(best_R), witness


def reference_dist_to_band_exact(u, R):
    """Lower bound and witness of the per-rectangle exact band-distance scan."""
    space = u.space
    n = space.n
    best = 0.0
    witness = None
    for a_mask in range(1, 1 << n):
        A = np.array([i for i in range(n) if a_mask >> i & 1], dtype=int)
        B = _worst_B(space, A, R)
        if B.size:
            value = _lapack_norm(u.mat[np.ix_(A, B)])
            if value > best:
                best = value
                witness = RectangleWitness(
                    A=tuple(A.tolist()), B=tuple(B.tolist()),
                    separation=space.set_distance(A, B), value=value,
                )
    return best, witness


def _same_witness(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (a.A, a.B, a.separation, a.value) == (b.A, b.B, b.separation, b.value)


def _scan_operator(rng, space, kind):
    n = space.n
    if kind == "zero":
        return SpaceOperator(space=space, mat=np.zeros((n, n)))
    if kind == "constant":  # equal-shape rectangles tie exactly
        return SpaceOperator(space=space, mat=np.full((n, n), complex(*rng.uniform(0.2, 1.0, 2))))
    m = rng.standard_normal((n, n))
    if kind.endswith("complex"):
        m = m + 1j * rng.standard_normal((n, n))
    if kind.startswith("banded"):
        m = np.where(space.dist <= int(rng.integers(0, 3)), m, 0.0)
    return SpaceOperator(space=space, mat=m)


def _assert_scans_match_reference(u, eps_values):
    """eps-propagation at each eps and, as a tie, at the norm of its witness
    (that rectangle was probed, so eps then equals a probed norm exactly);
    band distance at every candidate radius."""
    eps_values = list(eps_values)
    for j, eps in enumerate(eps_values):
        res = eps_propagation_radius(u, eps)
        best_R, witness = reference_eps_propagation_exact(u, eps)
        assert res.lower == res.upper == best_R
        assert _same_witness(res.witness, witness)
        if j == 0 and witness is not None:
            eps_values.append(witness.value)
    tail_upper = None
    for R in u.space.radii():
        b = dist_to_band_bounds(u, R)
        lower, witness = reference_dist_to_band_exact(u, R)
        tail, err = operator_norm(u.mat - band_truncate(u, R).mat, with_err=True)
        assert b.lower == lower
        assert b.upper == tail + err
        assert _same_witness(b.witness, witness)
        tail_upper = b.upper
    return tail_upper


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2 ** 31),
    st.sampled_from(["dense-real", "dense-complex", "banded-real", "banded-complex", "constant", "zero"]),
)
def test_exact_scans_bit_identical_to_per_rectangle_lapack(n, seed, kind):
    """Radii, lower and upper bounds and witnesses (A, B, separation, value)
    equal the per-rectangle scan's with ==, also when eps equals a probed
    rectangle's norm exactly, when many rectangles tie (constant operators)
    and for the zero operator (witness None)."""
    rng = np.random.default_rng(seed)
    space = random_connected_graph_space(rng, n)
    u = _scan_operator(rng, space, kind)
    eps_values = [float(rng.uniform(0.1, 2.0))]
    # a tie: eps is the norm of the worst-case rectangle of some A at some radius
    A = np.flatnonzero(rng.random(n) < 0.5)
    if A.size:
        radii = space.radii()
        B = _worst_B(space, A, radii[int(rng.integers(0, len(radii)))])
        if B.size and _lapack_norm(u.mat[np.ix_(A, B)]) > 0:
            eps_values.append(_lapack_norm(u.mat[np.ix_(A, B)]))
    _assert_scans_match_reference(u, eps_values)
    if kind == "zero":
        assert eps_propagation_radius(u, eps_values[0]).witness is None
        assert dist_to_band_bounds(u, 0).witness is None


def test_exact_scans_across_mask_chunks(monkeypatch):
    """A small MASK_CELLS splits the masks into many chunks; the first largest
    witness still wins across chunk edges, as with one chunk."""
    rng = np.random.default_rng(21)
    space = random_connected_graph_space(rng, 9)
    operators = [_scan_operator(rng, space, kind) for kind in ("dense-complex", "constant")]
    single = [(eps_propagation_radius(u, 0.8), dist_to_band_bounds(u, 1)) for u in operators]
    monkeypatch.setattr(ops, "MASK_CELLS", 64)  # 7 masks per chunk at n = 9
    chunks = list(ops._exact_rectangles(operators[0], 1))
    assert len(chunks) == 73  # ceil(511 / 7)
    assert sum(len(A) for A, _, _ in chunks) == (1 << 9) - 1
    for u, one_chunk in zip(operators, single):
        assert (eps_propagation_radius(u, 0.8), dist_to_band_bounds(u, 1)) == one_chunk
        _assert_scans_match_reference(u, [0.8])


def test_exact_rectangles_enumerate_masks_in_order(monkeypatch):
    """Every nonempty mask once, in increasing order across chunk edges, with
    B the points farther than R from all of A."""
    rng = np.random.default_rng(22)
    space = random_connected_graph_space(rng, 7)
    u = _scan_operator(rng, space, "dense-real")
    monkeypatch.setattr(ops, "MASK_CELLS", 7 * 10)  # 10 masks per chunk
    for R in space.radii():
        chunks = list(ops._exact_rectangles(u, R))
        assert [len(A) for A, _, _ in chunks] == [10] * 12 + [7]
        A = np.concatenate([A for A, _, _ in chunks])
        B = np.concatenate([B for _, B, _ in chunks])
        for m in range(1, 1 << 7):
            members = [i for i in range(7) if m >> i & 1]
            assert np.flatnonzero(A[m - 1]).tolist() == members
            assert np.array_equal(B[m - 1], space.dist[members].min(axis=0) > R)
    empty = SpaceOperator(space=FiniteMetricSpace(np.zeros((0, 0), dtype=np.int64)), mat=np.zeros((0, 0)))
    assert list(ops._exact_rectangles(empty, 1)) == []


@pytest.mark.parametrize("n", [10, 12])
def test_exact_scans_tie_break_on_constant_operator(n):
    """Every rectangle of a given shape has the same norm, bit for bit, so
    only the first-mask rule decides the witness."""
    rng = np.random.default_rng(24 + n)
    space = random_connected_graph_space(rng, n, extra_edges=1)
    _assert_scans_match_reference(_scan_operator(rng, space, "constant"), [0.5])


def test_exact_scans_on_float_metric():
    space = FiniteMetricSpace(dist=np.where(np.eye(6, dtype=bool), 0.0, 1.5))
    assert not space.is_integer
    u = _scan_operator(np.random.default_rng(23), space, "dense-complex")
    _assert_scans_match_reference(u, [0.3, 1.1])


def reference_eps_propagation_violation(u, eps, R):
    """The per-mask loop: one LAPACK SVD per worst-case rectangle at radius R,
    masks in increasing order; the first norm not <= eps is the witness."""
    space = u.space
    for a_mask in range(1, 1 << space.n):
        A = np.array([i for i in range(space.n) if a_mask >> i & 1], dtype=int)
        B = _worst_B(space, A, R)
        value = _lapack_norm(u.mat[np.ix_(A, B)]) if B.size else 0.0
        if not value <= eps:
            return RectangleWitness(
                A=tuple(A.tolist()), B=tuple(B.tolist()), separation=space.set_distance(A, B), value=value
            )
    return None


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2 ** 31),
    st.sampled_from(["dense-real", "dense-complex", "banded-real", "banded-complex", "constant", "zero"]),
)
def test_violation_is_none_exactly_at_and_above_the_exact_radius(n, seed, kind):
    """At every candidate radius R, and halfway between two, the scan finds no
    violation iff the exact radius of the per-mask oracle is <= R; its witness
    is the per-mask loop's first violating mask. Also at eps equal to a
    witness's norm, where that rectangle ties with eps."""
    rng = np.random.default_rng(seed)
    space = random_connected_graph_space(rng, n)
    u = _scan_operator(rng, space, kind)
    radii = space.radii()
    probes = np.concatenate([radii, (radii[:-1] + radii[1:]) / 2])
    eps_values = [float(rng.uniform(0.1, 2.0))]
    for eps in eps_values:
        best_R, _ = reference_eps_propagation_exact(u, eps)
        for R in probes:
            witness = eps_propagation_violation(u, eps, R)
            assert (witness is None) == (best_R <= R)
            assert _same_witness(witness, reference_eps_propagation_violation(u, eps, R))
            if witness is not None:
                assert witness.separation > R and not witness.value <= eps
                if len(eps_values) == 1:
                    eps_values.append(witness.value)


def test_violation_scan_stops_at_the_first_violating_chunk(monkeypatch):
    rng = np.random.default_rng(25)
    space = random_connected_graph_space(rng, 10)
    u = _scan_operator(rng, space, "dense-complex")
    chunks = []
    exact_rectangles = ops._exact_rectangles

    def counting(*args):
        for chunk in exact_rectangles(*args):
            chunks.append(1)
            yield chunk

    monkeypatch.setattr(ops, "_exact_rectangles", counting)
    monkeypatch.setattr(ops, "MASK_CELLS", 64)  # 6 masks per chunk at n = 10
    assert eps_propagation_violation(u, 1e-3, 0).A == (0,)
    assert len(chunks) == 1
    chunks.clear()
    assert eps_propagation_violation(u, 1e-3, space.diameter) is None
    assert len(chunks) == 171  # ceil(1023 / 6)


def test_violation_guards():
    u = _scan_operator(np.random.default_rng(26), interval_space(4), "dense-real")
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            eps_propagation_violation(u, eps, 1)
    big = SpaceOperator(space=interval_space(ops.EXACT_EPSPROP_MAX + 1), mat=np.eye(ops.EXACT_EPSPROP_MAX + 1))
    with pytest.raises(TooLargeForExact):
        eps_propagation_violation(big, 0.5, 1)


@pytest.mark.parametrize("eps", [0.05, 0.6])
def test_exact_radius_at_n14_across_mask_chunks(monkeypatch, eps):
    """At n = 14, 2^14 - 1 masks in 225 chunks of at most 73; on an operator whose
    entries decay with distance the radius lies strictly inside (0, diameter),
    and it and its witness equal the per-rectangle scan's."""
    rng = np.random.default_rng(27)
    space = random_connected_graph_space(rng, 14)
    m = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
    u = SpaceOperator(space=space, mat=m * 0.4 ** space.dist)
    monkeypatch.setattr(ops, "MASK_CELLS", 1 << 10)
    res = eps_propagation_radius(u, eps)
    best_R, witness = reference_eps_propagation_exact(u, eps)
    assert 0 < res.lower == res.upper == best_R < space.diameter
    assert _same_witness(res.witness, witness)


def reference_bisection(n: int, clear) -> tuple:
    """(index, probed indices) of the smallest of n candidates at which clear
    holds, by bisection over [0, n - 1] (candidate n - 1 is never probed): the
    rule the radius searches follow, written out as the reference."""
    probed = []
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        probed.append(mid)
        if clear(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, probed


def _plane_space(rng, n):
    """n Gaussian points of the plane: a float metric with up to C(n, 2) radii."""
    points = rng.standard_normal((n, 2))
    return FiniteMetricSpace(dist=np.linalg.norm(points[:, None] - points[None], axis=2))


def _bisection_space(kind, rng):
    """A seeded space with many candidate radii: a tree on 12 points, or 8
    points of the plane."""
    return random_connected_graph_space(rng, 12, extra_edges=1) if kind == "graph" else _plane_space(rng, 8)


@pytest.mark.parametrize("kind", ["graph", "float"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.05, 0.3, 0.7])
def test_exact_radius_probes_the_bisection_radii(monkeypatch, kind, seed, eps):
    rng = np.random.default_rng(seed)
    space = _bisection_space(kind, rng)
    m = rng.standard_normal((space.n, space.n)) + 1j * rng.standard_normal((space.n, space.n))
    u = SpaceOperator(space=space, mat=m / operator_norm(m))
    violation = ops.eps_propagation_violation
    probed = []

    def recording(u_, eps_, R):
        probed.append(R)
        return violation(u_, eps_, R)

    monkeypatch.setattr(ops, "eps_propagation_violation", recording)
    res = eps_propagation_radius(u, eps)
    radii = space.radii()
    lo, order = reference_bisection(len(radii), lambda i: violation(u, eps, radii[i]) is None)
    assert probed == [radii[i] for i in order]
    assert res.lower == res.upper == float(radii[lo])
    assert res.witness == (violation(u, eps, radii[lo - 1]) if lo else None)


@pytest.mark.parametrize("kind", ["graph", "float"])
@pytest.mark.parametrize("seed", range(3))
def test_heuristic_upper_probes_the_bisection_radii(monkeypatch, kind, seed):
    rng = np.random.default_rng(seed)
    space = _bisection_space(kind, rng)
    m = rng.standard_normal((space.n, space.n)) + 1j * rng.standard_normal((space.n, space.n))
    u = SpaceOperator(space=space, mat=m * 0.5 ** space.dist / operator_norm(m))
    tail_bound = SpaceOperator.tail_bound
    probed = []

    def recording(self, R):
        probed.append(R)
        return tail_bound(self, R)

    monkeypatch.setattr(SpaceOperator, "tail_bound", recording)
    eps_list = [0.8, 0.4, 0.1, 0.02]
    brackets = eps_propagation_brackets(u, eps_list, seed=seed, budget=40)
    radii = space.radii()
    tails, order = {}, []  # each radius normed once across every eps, in first-probe order

    def clear_at(eps):
        def clear(i):
            if i not in tails:
                tails[i] = tail_bound(u, radii[i])
                order.append(i)
            return tails[i] <= eps
        return clear

    for eps, bracket in zip(eps_list, brackets):
        assert bracket.upper == float(radii[reference_bisection(len(radii), clear_at(eps))[0]])
    assert probed == [radii[i] for i in order]
    assert len(order) > 2


# ---------------------------------------------------------------- bounds of the exact scans


def _assert_bound_premise(lower, upper, values):
    """largest_candidates' premise: lower / (1 + BOUND_SLACK) <= value <= upper (1 + BOUND_SLACK)."""
    slack = 1 + ops.BOUND_SLACK
    assert np.all(lower <= values * slack)
    assert np.all(values <= upper * slack)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(["real", "complex", "zero", "constant", "spread"]),
    exponent=st.integers(-200, 200),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_rect_bounds_enclose_the_lapack_norm(n, kind, exponent, seed):
    """Real, complex, zero and constant (tied) matrices at scales 1e-200..1e200;
    "spread" puts entries 170 decades apart, whose squares underflow."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        mat = np.zeros((n, n))
    elif kind == "constant":
        mat = np.full((n, n), complex(*rng.uniform(0.2, 1.0, 2)))
    else:
        mat = rng.standard_normal((n, n))
        if kind == "complex":
            mat = mat + 1j * rng.standard_normal((n, n))
        if kind == "spread":
            mat = mat * 10.0 ** -rng.integers(0, 170, size=(n, n))
    mat = mat * 10.0 ** exponent
    rows = rng.random((40, n)) < 0.5
    cols = rng.random((40, n)) < 0.5
    u = SpaceOperator(space=far_points(n), mat=mat)
    _assert_bound_premise(*u.rect_bounds(rows, cols), u.rect_norms(rows, cols))


def test_non_finite_bounds_are_normed():
    nan, inf = math.nan, math.inf
    mat = np.ones((3, 3))
    for bad in (nan, inf):
        mat[1, 2] = bad
        lower, upper = ops._rect_bounds(mat, np.ones((2, 3), bool), np.eye(2, 3, dtype=bool))
        assert np.isnan(lower).all() and np.isnan(upper).all()
    # at eps = 1: clear, NaN, inf upper, the first sure violation, then undecided,
    # clear and NaN after it: only the non-finite one is normed past the stop
    lower = np.array([0.0, nan, 0.0, 5.0, 0.0, 0.0, nan])
    upper = np.array([0.5, nan, inf, 5.0, 2.0, 0.5, nan])
    assert ops._violation_candidates(lower, upper, 1.0).tolist() == [False, True, True, True, False, False, True]
    assert ops.largest_candidates(np.array([1.0, nan, 0.0, inf]), np.array([1.0, nan, 0.5, inf]), 0.0).tolist() == [
        True, True, False, True,
    ]


def test_exact_scans_norm_few_rectangles(monkeypatch):
    """Seeded n = 12 eps-propagation and band distance: the bounds settle all but a
    few rectangles, and the answers equal the per-rectangle scans'."""
    rng = np.random.default_rng(41)
    space = random_connected_graph_space(rng, 12)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    u = SpaceOperator(space=space, mat=m * 0.4 ** space.dist)
    scanned, normed = [], []  # rectangles scanned, rectangles gathered for LAPACK
    exact_rectangles, stack = ops._exact_rectangles, ops.sigma_max_stack

    def counting(*args):
        for chunk in exact_rectangles(*args):
            scanned.append(len(chunk[0]))
            yield chunk

    monkeypatch.setattr(ops, "_exact_rectangles", counting)
    monkeypatch.setattr(ops, "sigma_max_stack", lambda s: normed.append(len(s)) or stack(s))
    res = eps_propagation_radius(u, 0.05)
    assert sum(scanned) >= 2 * 4095 and sum(normed) <= 4
    best_R, witness = reference_eps_propagation_exact(u, 0.05)
    assert res.lower == best_R and _same_witness(res.witness, witness)
    scanned.clear()
    normed.clear()
    b = dist_to_band_bounds(u, 1)
    assert sum(scanned) == 4095 and sum(normed) <= 200
    lower, witness = reference_dist_to_band_exact(u, 1)
    assert b.lower == lower and _same_witness(b.witness, witness)


def test_zero_upper_bounds_are_skipped_once_best_is_nonnegative():
    nan = math.nan
    zero = np.zeros(3)
    assert ops.largest_candidates(zero, zero, -1.0).all()
    assert not ops.largest_candidates(zero, zero, 0.0).any()
    assert ops.largest_candidates(zero, np.array([0.0, 1e-300, nan]), 0.0).tolist() == [False, True, True]


def test_band_distance_gathers_no_zero_rectangle(monkeypatch):
    """Band-1 operators on seeded 12-point graphs: every rectangle separated by
    more than 1 is zero and none is gathered for LAPACK; at R = 0 and 1 the
    value and witness equal those of a scan that norms every rectangle."""
    norms_where = ops._norms_where
    gathered = []

    def counting(u, A, B, run, fill):
        gathered.append(int(run.sum()))
        return norms_where(u, A, B, run, fill)

    monkeypatch.setattr(ops, "_norms_where", counting)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u = random_operator(rng, random_connected_graph_space(rng, 12), R=1)
        for R in (0, 1):
            gathered.clear()
            b = dist_to_band_bounds(u, R)
            skipped = sum(gathered)
            with monkeypatch.context() as every:
                every.setattr(ops, "largest_candidates", lambda lower, upper, best: np.ones(len(upper), bool))
                gathered.clear()
                full = dist_to_band_bounds(u, R)
            assert sum(gathered) == 4095
            assert b.lower == full.lower and _same_witness(b.witness, full.witness)
            if R == 1:
                assert b.lower == 0.0 and b.witness is None and skipped == 0
            else:
                assert b.lower > 0 and 0 < skipped < 4095


class TestSigmaMaxStack:
    def test_mixed_shapes_match_lapack_bit_for_bit(self):
        rng = np.random.default_rng(30)
        for p, q in [(1, 1), (1, 7), (7, 1), (3, 5), (6, 6), (12, 2)]:
            stack = rng.standard_normal((9, p, q)) + 1j * rng.standard_normal((9, p, q))
            values = sigma_max_stack(stack)
            assert values.tolist() == [_lapack_norm(m) for m in stack]
            assert [ops._sigma_max(m) for m in stack] == values.tolist()
        real = rng.standard_normal((5, 4, 3))
        assert sigma_max_stack(real).tolist() == [_lapack_norm(m) for m in real]

    def test_rect_norms_group_shapes(self):
        rng = np.random.default_rng(31)
        mat = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        rows = rng.random((200, 10)) < 0.4
        cols = rng.random((200, 10)) < 0.5
        values = ops._rect_norms(mat, rows, cols)
        for r, c, v in zip(rows, cols, values):
            A, B = np.flatnonzero(r), np.flatnonzero(c)
            assert v == (_lapack_norm(mat[np.ix_(A, B)]) if A.size and B.size else 0.0)

    def test_zero_blocks_skip_lapack(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        zeros = np.zeros((4, 3, 5), dtype=np.complex128)
        assert sigma_max_stack(zeros).tolist() == [0.0] * 4
        assert ops._sigma_max(zeros[0]) == 0.0
        assert sigma_max_stack(np.zeros((3, 0, 2))).tolist() == [0.0] * 3
        assert calls == []
        mixed = zeros.copy()
        mixed[2, 1, 1] = 2.0
        assert sigma_max_stack(mixed).tolist() == [0.0, 0.0, 2.0, 0.0]
        assert calls == [(1, 3, 5)]

    def test_non_finite_input_behaves_as_lapack(self):
        nan = np.array([[np.nan, 1.0], [2.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.norm(nan, 2)
        with pytest.raises(np.linalg.LinAlgError):
            ops._sigma_max(nan)
        with pytest.raises(np.linalg.LinAlgError):
            sigma_max_stack(np.stack([nan, np.eye(2)]))
        inf = np.array([[np.inf, 1.0], [2.0, 3.0]])
        assert math.isnan(np.linalg.norm(inf, 2))
        assert math.isnan(ops._sigma_max(inf))
        assert math.isnan(sigma_max_stack(inf[None])[0])

    def test_nan_operator_raises_in_both_scans(self):
        space = interval_space(5)
        m = np.ones((5, 5))
        m[4, 0] = np.nan
        u = SpaceOperator(space=space, mat=m)
        with pytest.raises(np.linalg.LinAlgError):
            reference_eps_propagation_exact(u, 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            eps_propagation_radius(u, 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            reference_dist_to_band_exact(u, 1)
        with pytest.raises(np.linalg.LinAlgError):
            ops._rect_norms(u.mat, np.ones((1, 5), bool), np.ones((1, 5), bool))

    def test_inf_rectangles_are_skipped_like_the_strict_scan(self):
        space = interval_space(5)
        m = np.ones((5, 5))
        m[4, 0] = np.inf
        u = SpaceOperator(space=space, mat=m)
        b = dist_to_band_bounds(u, 1)
        lower, witness = reference_dist_to_band_exact(u, 1)
        assert b.lower == lower
        assert _same_witness(b.witness, witness)


# ---------------------------------------------------------------- batched random searches


def _assert_random_searches_match_reference(u, R, eps, budget, seed, pool=None):
    b = dist_to_band_bounds(u, R, budget=budget, seed=seed, pool=pool)
    lower, witness = reference_band_dist_random(u, R, budget, seed, pool)
    tail, err = operator_norm(u.mat - band_truncate(u, R).mat, with_err=True)
    assert (b.lower, b.upper) == (lower, tail + err)
    assert _same_witness(b.witness, witness)
    res = eps_propagation_brackets(u, [eps], seed=seed, budget=budget)[0]
    lower, upper, witness = reference_eps_prop_heuristic(u, eps, seed, budget)
    assert (res.lower, res.upper) == (lower, upper)
    assert _same_witness(res.witness, witness)
    return b, res


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=13, max_value=40),
    st.integers(min_value=0, max_value=2 ** 31),
    st.sampled_from(["dense-complex", "dense-real", "banded-complex", "constant", "zero"]),
    st.integers(min_value=1, max_value=300),
    st.booleans(),
)
def test_random_searches_equal_per_draw_loops(n, seed, kind, budget, with_pool):
    """The batched band-distance and heuristic eps-propagation searches equal
    the per-draw loops (one closure and one LAPACK SVD per draw) with ==, on
    lower, upper and witness (A, B, separation, value), also when eps equals a
    drawn rectangle's norm, when equal-shape rectangles tie (constant
    operators) and for the zero operator (witness None)."""
    rng = np.random.default_rng(seed)
    space = random_connected_graph_space(rng, n)
    u = _scan_operator(rng, space, kind)
    radii = space.radii()
    R = radii[int(rng.integers(0, len(radii) - 1))]
    pool = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)) if with_pool else None
    b, res = _assert_random_searches_match_reference(u, R, float(rng.uniform(0.05, 1.5)), budget, seed, pool)
    for witness in (b.witness, res.witness):  # ties: eps is a drawn rectangle's norm exactly
        if witness is not None:
            _assert_random_searches_match_reference(u, R, witness.value, budget, seed, pool)
    if kind == "zero":
        assert b.witness is None and res.witness is None and res.lower == 0.0


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=13, max_value=36),
    st.integers(min_value=0, max_value=2 ** 31),
    st.sampled_from(["dense-complex", "banded-complex", "constant", "zero"]),
    st.integers(min_value=1, max_value=200),
    st.lists(st.floats(min_value=0.02, max_value=1.5), min_size=1, max_size=4, unique=True),
)
def test_brackets_equal_per_eps_per_draw_loops(n, seed, kind, budget, eps_values):
    """One search for a descending eps list gives, at every eps, the bracket
    and witness of the per-draw heuristic at that eps alone; so does a list
    that holds a witness's norm exactly (a tie: norm > eps is false there)."""
    rng = np.random.default_rng(seed)
    u = _scan_operator(rng, random_connected_graph_space(rng, n), kind)
    eps_list = sorted(eps_values, reverse=True)
    witnesses = [r.witness for r in eps_propagation_brackets(u, eps_list, seed=seed, budget=budget)]
    ties = sorted({w.value for w in witnesses if w is not None}, reverse=True)
    for eps_list in (eps_list, ties):
        results = eps_propagation_brackets(u, eps_list, seed=seed, budget=budget)
        assert len(results) == len(eps_list)
        for eps, res in zip(eps_list, results):
            lower, upper, witness = reference_eps_prop_heuristic(u, eps, seed, budget)
            assert isinstance(res, Bracket) and (res.lower, res.upper) == (lower, upper)
            assert _same_witness(res.witness, witness)
            assert res == eps_propagation_brackets(u, [eps], seed=seed, budget=budget)[0]


def test_brackets_reject_each_non_positive_eps():
    u = random_operator(np.random.default_rng(45), interval_space(15))
    for eps_list in ([math.nan], [0.5, -0.1], [0.5, 0.0], [0.5, math.nan, 0.2]):
        with pytest.raises(ValueError):
            eps_propagation_brackets(u, eps_list)
    assert eps_propagation_brackets(u, []) == []


def test_random_searches_with_tiny_blocks_and_stacks(monkeypatch):
    """A closure block of 3 draws and stacks of at most 8 entries split every
    batch; the results stay those of one block and one stack per shape."""
    rng = np.random.default_rng(40)
    space = random_connected_graph_space(rng, 24)
    operators = [_scan_operator(rng, space, kind) for kind in ("dense-complex", "constant")]
    pool = np.arange(5, 17)

    def searches():
        return [
            (dist_to_band_bounds(u, 1, budget=120, seed=3, pool=pool),
             eps_propagation_brackets(u, [0.4], seed=3, budget=120)[0])
            for u in operators
        ]

    whole = searches()
    monkeypatch.setattr(ops, "CLOSE_BLOCK", 3)
    monkeypatch.setattr(ops, "STACK_ENTRIES", 8)
    assert searches() == whole
    for u in operators:
        _assert_random_searches_match_reference(u, 1, 0.4, 120, 3, pool)


def test_random_search_budget_zero_or_negative():
    # a search that draws nothing would report lower bound 0.0 and no witness
    rng = np.random.default_rng(41)
    graph_op = _scan_operator(rng, random_connected_graph_space(rng, 14), "dense-complex")
    interval_op = random_operator(rng, interval_space(20))
    for u in (graph_op, interval_op):
        for budget in (0, -3):
            for call in (lambda: dist_to_band_bounds(u, 1, budget=budget),
                         lambda: eps_propagation_brackets(u, [0.1], budget=budget)[0]):
                with pytest.raises(ValueError, match="budget"):
                    call()


def _nearly_symmetric_space():
    """A float metric symmetric only up to METRIC_TOL, with dist(x, y) and
    dist(y, x) on either side of a radius: the space stores it exactly
    symmetric, so its within-R relation is symmetric too."""
    x = np.random.default_rng(44).integers(0, 12, 24).astype(float)
    dist = np.abs(x[:, None] - x[None, :]) + np.triu(np.full((24, 24), 1e-12), 1)
    return FiniteMetricSpace(dist=np.where(x[:, None] == x[None, :], 0.5, dist) * (1 - np.eye(24)))


def _far(space, R, S):
    """The points farther than R from every point of the boolean row S."""
    return ~space.near(R)[S].any(axis=0)


@pytest.mark.parametrize("space", [
    random_connected_graph_space(np.random.default_rng(42), 30, extra_edges=3),
    _nearly_symmetric_space(),
], ids=["graph", "nearly-symmetric"])
def test_close_rectangles_matches_per_seed_closure(space):
    """Dropped rows and closed rectangles equal the per-draw closure's, with
    the rows' radii mixed and more rows per radius than one block; each kept
    A contains its seed and is closed: far(A) = B and far(B) = A."""
    n = space.n
    radii = space.radii()
    picks, seeds = ops._draw_seeds(np.random.default_rng(7), np.arange(n), n, 600, len(radii))
    A, B, kept = ops._close_rectangles(space, radii[picks], seeds)
    assert 0 < kept.sum() < len(kept)
    draws = np.random.default_rng(7)
    for r, s, a, b, k in zip(radii[picks], seeds, A, B, kept):
        pair = closed_pair(space, radii[draws.integers(0, len(radii))], draws)
        assert k == (pair is not None) == _far(space, r, s).any()
        if k:
            assert (np.flatnonzero(a).tolist(), np.flatnonzero(b).tolist()) == (
                pair[0].tolist(), pair[1].tolist())
            assert np.all(a[s])
            assert np.array_equal(_far(space, r, a), b) and np.array_equal(_far(space, r, b), a)


@st.composite
def _space_radius_subset(draw):
    """A graph metric, or a float metric of points in the plane stored from
    an input within METRIC_TOL of symmetric with a nonzero diagonal; one of
    its radii; a nonempty subset."""
    n = draw(st.integers(min_value=2, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    if draw(st.booleans()):
        space = random_connected_graph_space(rng, n)
    else:
        pts = rng.uniform(0, 4, (n, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        d = d + np.triu(rng.uniform(0, 1e-12, (n, n)), 1)
        np.fill_diagonal(d, rng.uniform(-1e-10, 1e-10, n))
        space = FiniteMetricSpace(dist=d)
    radii = space.radii()
    R = radii[draw(st.integers(min_value=0, max_value=len(radii) - 1))]
    S = np.zeros(n, dtype=bool)
    S[draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1))] = True
    return space, R, S


@settings(max_examples=60, deadline=None)
@given(_space_radius_subset())
def test_far_is_a_galois_connection(case):
    """S lies within far(far(S)) and far(far(far(S))) = far(S), so one round
    of _close_rectangles closes a seed, and closing its A again changes
    nothing."""
    space, R, S = case
    once = _far(space, R, S)
    twice = _far(space, R, once)
    assert np.all(twice[S])
    assert np.array_equal(_far(space, R, twice), once)
    A, B, kept = ops._close_rectangles(space, np.array([R, R]), np.array([S, twice]))
    assert np.array_equal(B[0], once) and np.array_equal(A[0], twice)
    assert kept[0] == once.any()
    assert np.array_equal(A[1], A[0]) and np.array_equal(B[1], B[0])


def test_random_searches_on_float_metric():
    """Points on a line: float distances, float separations, many radii."""
    rng = np.random.default_rng(43)
    x = np.sort(rng.uniform(0, 10, 20))
    space = FiniteMetricSpace(dist=np.abs(x[:, None] - x[None, :]))
    u = _scan_operator(rng, space, "dense-complex")
    b, res = _assert_random_searches_match_reference(u, 1.7, 0.3, 200, 5)
    assert b.witness is not None and res.witness is not None
    assert isinstance(res.witness.separation, np.floating)


def reference_random_rectangles(u, radii, seeds):
    """_random_rectangles with the dedupe by np.unique over the packed rows."""
    A, B, kept = ops._close_rectangles(u.space, radii, seeds)
    A, B = A[kept], B[kept]
    keys = np.packbits(np.concatenate([A, B], axis=1), axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return A, B, u.rect_norms(A[first], B[first])[inverse.reshape(-1)]


@pytest.mark.parametrize(
    "argv",
    [
        ["ql", "witness", "--members", "16,32,64,128", "--seed", "2", "-R", "2"],
        ["ql", "profile", "--members", "16,32,64,128", "--seed", "0"],
        ["oper", "band-dist", "--space", "regular:30:3:1", "-R", "1", "--seed", "3"],
    ],
)
def test_rectangle_dedupe_equals_unique_rows(monkeypatch, capsys, argv):
    """Every dedupe of a seeded search gives np.unique(axis=0)'s first and
    inverse, and every search its (A, B, norms), bit for bit."""
    from roelab.cli import main

    distinct, search, seen = ops._distinct_rows, ops._random_rectangles, []

    def checked_distinct(A, B):
        first, inverse = distinct(A, B)
        keys = np.packbits(np.concatenate([A, B], axis=1), axis=1)
        _, ref_first, ref_inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse.reshape(-1))
        seen.append(len(first) < len(A))
        return first, inverse

    def checked_search(u, radii, seeds):
        out = search(u, radii, seeds)
        for got, ref in zip(out, reference_random_rectangles(u, radii, seeds)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        return out

    monkeypatch.setattr(ops, "_distinct_rows", checked_distinct)
    monkeypatch.setattr(ops, "_random_rectangles", checked_search)
    assert main(argv) == 0
    capsys.readouterr()
    assert any(seen)  # some search drew a rectangle twice

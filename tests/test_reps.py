import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roelab.errors import AlphaOutOfBall, DimensionMismatch, HypothesisViolated, NotPrime, TooLarge
from roelab.reps import (
    DenseRep,
    HeisenbergGroup,
    TableGroup,
    averaged_norm,
    gap_certificate,
    gap_lower_bound,
    heisenberg_rep,
    symmetric_standard_rep,
)
from roelab.spaces import far_points, interval_space, random_regular
from roelab.translations import decompose_band


def cyclic_table(n):
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def character_rep():
    """The 1-dim rep k -> omega^k of Z/3."""
    w = np.exp(2j * np.pi / 3)
    return DenseRep(TableGroup(cyclic_table(3)), np.array([[[w ** k]] for k in range(3)]))


# ---- per-element oracles: the loops the stack computations replaced


def heisenberg_matrix_loop(rep, i):
    p = rep.p
    a, b, c = (int(v) for v in rep.group.decode(int(i)))
    m = np.zeros((p, p), dtype=np.complex128)
    s = np.arange(p)
    m[(s + a) % p, s] = np.exp(2j * np.pi / p) ** ((c + b * s) % p)
    return m


def projection_kron_loop(rep):
    n, order = rep.dim, rep.group.order
    P = np.zeros((n * n, n * n), dtype=np.complex128)
    for g in range(order):
        m = rep.matrices([g])[0]
        P += np.kron(m, m.conj())
    return P / order


def band_residual_shift_loop(p, offmask):
    s = np.arange(p)
    for a in range(p):
        if np.any(offmask[(s + a) % p, s]):
            return 1.0
    return 0.0


def certificate_devs_loop(rep, seed):
    rng = np.random.default_rng(seed)
    order = rep.group.order
    k = min(order, 50)
    sample = rng.choice(order, size=k, replace=False)
    eye = np.eye(rep.dim)
    unit_dev = 0.0
    for g in sample:
        m = rep.matrices([g])[0]
        unit_dev = max(unit_dev, float(np.abs(m.conj().T @ m - eye).max()))
    hom_dev = 0.0
    for g, h in zip(rng.choice(order, k), rng.choice(order, k)):
        lhs = rep.matrices([g])[0] @ rep.matrices([h])[0]
        rhs = rep.matrices([int(rep.group.mult(int(g), int(h)))])[0]
        hom_dev = max(hom_dev, float(np.abs(lhs - rhs).max()))
    return unit_dev, hom_dev


class OracleHeisenberg(HeisenbergGroup):
    """The mod-p Heisenberg group with the inverse that its group-law checks
    read: (a, b, c)^-1 = (-a, -b, ab - c)."""

    def inv(self, i):
        a, b, c = self.decode(i)
        return self.encode(-a, -b, -c + a * b)


class TestGroups:
    def test_table_group_cyclic(self):
        g = TableGroup(cyclic_table(5))
        assert g.order == 5
        assert g.identity == 0
        assert g.inv(2) == 3

    def test_table_group_rejects_broken_table(self):
        t = cyclic_table(4)
        t[1, 1] = 1  # not a latin square anymore
        with pytest.raises(ValueError):
            TableGroup(t)

    def test_heisenberg_group_laws_all_pairs(self):
        g = OracleHeisenberg(3)
        for i in range(g.order):
            assert g.mult(i, g.inv(i)) == 0
            assert g.mult(g.inv(i), i) == 0
            for j in range(g.order):
                for k in range(g.order):
                    assert g.mult(g.mult(i, j), k) == g.mult(i, g.mult(j, k))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_heisenberg_group_validates(self, p):
        # the constructor trusts the group law; the check lives here
        OracleHeisenberg(p).validate()

    def test_table_group_without_unique_inverse(self):
        for row in ([1, 0, 0], [1, 2, 1]):  # identity twice, identity never
            t = cyclic_table(3)
            t[1] = row
            with pytest.raises(ValueError, match="element 1 has no unique inverse"):
                TableGroup(t)

    @pytest.mark.parametrize(
        "table,message",
        [([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "identity law fails"),  # e g = g, but g e != g
         ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], "inverse law fails"),  # 2 2 = 0, but 2 1 != 0
         ([[0, 1, 1], [1, 0, 0]], "multiplication table must be square"),
         ([[1, 1], [1, 1]], "multiplication table has no unique identity")],
    )
    def test_table_group_rejects_each_law(self, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TableGroup(np.array(table))

    def test_table_group_rejects_non_integer_table(self):
        with pytest.raises(ValueError, match="integers"):
            TableGroup(np.array([[0.0]]))

    def test_heisenberg_encode_decode(self):
        g = HeisenbergGroup(5)
        for i in (0, 1, 37, 124):
            assert g.encode(*g.decode(i)) == i

    def test_heisenberg_noncommutative(self):
        g = HeisenbergGroup(3)
        a = g.encode(1, 0, 0)
        b = g.encode(0, 1, 0)
        assert g.mult(a, b) != g.mult(b, a)


class TestHeisenbergRep:
    def test_certificate_ok(self):
        for p in (3, 5, 7):
            cert = heisenberg_rep(p).certificate(seed=0)
            assert cert["ok"], (p, cert)
            assert cert["char_sum"] == pytest.approx(1.0, abs=1e-8)

    def test_projection_trace_and_idempotency(self):
        cert = heisenberg_rep(3).certificate(seed=0)
        assert cert["projection_trace"] == pytest.approx(1.0, abs=1e-8)
        assert cert["projection_idempotency_dev"] <= 1e-8

    def test_homomorphism_all_pairs_p3(self):
        rep = heisenberg_rep(3)
        g = rep.group
        mats = rep.matrices(np.arange(g.order))
        for i in range(g.order):
            for j in range(g.order):
                prod = mats[i] @ mats[j]
                assert np.abs(prod - mats[g.mult(i, j)]).max() < 1e-12

    def test_shift_generator(self):
        rep = heisenberg_rep(5)
        g = rep.group.encode(1, 0, 0)
        assert np.abs(rep.matrices([g])[0] - np.roll(np.eye(5), 1, axis=0)).max() < 1e-12

    def test_average_image_matches_dense_sum(self):
        rep = heisenberg_rep(3)
        order = rep.group.order
        rng = np.random.default_rng(0)
        alpha = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        dense = sum(alpha[g] * rep.matrices([g])[0] for g in range(order)) / order
        assert np.abs(rep.average_image(alpha) - dense).max() < 1e-10

    def test_band_residual_is_zero_or_one(self):
        rep = heisenberg_rep(3)
        none = np.zeros((3, 3), dtype=bool)
        assert rep.band_residual_max(none) == 0.0
        corner = np.zeros((3, 3), dtype=bool)
        corner[0, 1] = True
        assert rep.band_residual_max(corner) == 1.0

    def test_rejects_composite_and_even(self):
        for p in (1, 2, 4, 9):
            with pytest.raises(NotPrime):
                heisenberg_rep(p)


class TestMatrixStack:
    """The stack computations against the per-element loops they replaced."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_heisenberg_stack_equals_per_element(self, p):
        rep = heisenberg_rep(p)
        stack = rep.matrices(np.arange(rep.group.order))
        loop = np.array([heisenberg_matrix_loop(rep, g) for g in range(rep.group.order)])
        assert np.array_equal(stack, loop)
        assert np.array_equal(rep.matrices([7])[0], loop[7])

    @pytest.mark.parametrize(
        "make",
        [lambda: heisenberg_rep(3), lambda: heisenberg_rep(5), lambda: heisenberg_rep(7),
         lambda: symmetric_standard_rep(2), lambda: symmetric_standard_rep(3),
         lambda: symmetric_standard_rep(4), lambda: symmetric_standard_rep(5), character_rep],
    )
    def test_invariant_projection_matches_kron_loop(self, make):
        rep = make()
        assert np.abs(rep.invariant_projection() - projection_kron_loop(rep)).max() <= 1e-12

    @pytest.mark.parametrize(
        "make", [lambda: heisenberg_rep(5), lambda: heisenberg_rep(67), lambda: symmetric_standard_rep(4)]
    )
    def test_certificate_devs_equal_loops(self, make):
        rep = make()
        for seed in (0, 3):
            cert = rep.certificate(seed=seed)
            unit_dev, hom_dev = certificate_devs_loop(rep, seed)
            assert cert["unitarity_dev"] == unit_dev
            assert cert["homomorphism_dev"] == hom_dev

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), data=st.data())
    def test_heisenberg_band_residual_equals_shift_loop(self, p, data):
        bits = data.draw(st.lists(st.booleans(), min_size=p * p, max_size=p * p))
        offmask = np.array(bits).reshape(p, p)
        assert heisenberg_rep(p).band_residual_max(offmask) == band_residual_shift_loop(p, offmask)

    @pytest.mark.parametrize(
        "make",
        [lambda: heisenberg_rep(3), lambda: heisenberg_rep(5), lambda: heisenberg_rep(7),
         lambda: symmetric_standard_rep(3), lambda: symmetric_standard_rep(4), lambda: symmetric_standard_rep(5)],
    )
    def test_schur_orthogonality(self, make):
        # the closed form behind gap_certificate: for a unitary irreducible,
        # block (row, col) of the invariant projection is E_row,col / n
        rep = make()
        n = rep.dim
        P = rep.invariant_projection()
        for row, col in itertools.product(range(n), repeat=2):
            unit = np.zeros((n, n))
            unit[row, col] = 1.0 / n
            block = P[row * n : (row + 1) * n, col * n : (col + 1) * n]
            assert np.abs(block - unit).max() <= 1e-12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_heisenberg_overrides_match_stack_defaults(self, p):
        # HeisenbergRep's structured methods against the UnitaryRep defaults
        # over its own materialized stack
        rep = heisenberg_rep(p)
        dense = DenseRep(rep.group, rep.matrices(np.arange(rep.group.order)))
        rng = np.random.default_rng(p)
        alpha = rng.standard_normal(rep.group.order) + 1j * rng.standard_normal(rep.group.order)
        assert np.abs(rep.average_image(alpha) - dense.average_image(alpha)).max() < 1e-12
        assert rep.char_sum() == pytest.approx(dense.char_sum(), abs=1e-12)
        offmask = rng.random((p, p)) < 0.2
        assert rep.band_residual_max(offmask) == pytest.approx(dense.band_residual_max(offmask), abs=1e-12)


class TestSymmetricRep:
    def test_certificates(self):
        for m in (2, 3, 4, 5):
            cert = symmetric_standard_rep(m).certificate(seed=0)
            assert cert["ok"], (m, cert)

    def test_dimension(self):
        rep = symmetric_standard_rep(4)
        assert rep.dim == 3
        assert rep.group.order == 24

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_table_equals_composition_loop(self, m):
        """The searchsorted table equals the double loop over permutation pairs."""
        perms = list(itertools.permutations(range(m)))
        index = {s: i for i, s in enumerate(perms)}
        table = np.empty((len(perms), len(perms)), dtype=np.int64)
        for i, s in enumerate(perms):
            for j, t in enumerate(perms):
                table[i, j] = index[tuple(s[t[k]] for k in range(m))]
        got = symmetric_standard_rep(m).group.table
        assert got.dtype == np.int16
        assert np.array_equal(got, table)

    def test_size_limits(self):
        with pytest.raises(TooLarge):
            symmetric_standard_rep(8)
        with pytest.raises(TooLarge):
            symmetric_standard_rep(1)


class TestAveragedNorm:
    def test_delta_at_identity(self):
        rep = heisenberg_rep(3)
        alpha = np.zeros(rep.group.order)
        alpha[0] = 1.0
        assert averaged_norm(rep, alpha) == pytest.approx(1.0 / rep.group.order)

    def test_uniform_coefficients_vanish(self):
        # average over the group of a nontrivial irreducible is 0
        rep = heisenberg_rep(3)
        assert averaged_norm(rep, np.ones(rep.group.order)) < 1e-10

    def test_bound_one_over_sqrt_n(self):
        rng = np.random.default_rng(1)
        for rep in (heisenberg_rep(3), symmetric_standard_rep(4)):
            bound = 1.0 / math.sqrt(rep.dim) + 1e-9
            for _ in range(50):
                alpha = np.exp(2j * np.pi * rng.random(rep.group.order))
                assert averaged_norm(rep, alpha) <= bound

    def test_rejects_out_of_ball(self):
        rep = heisenberg_rep(3)
        alpha = np.zeros(rep.group.order)
        alpha[0] = 2.0
        with pytest.raises(AlphaOutOfBall):
            averaged_norm(rep, alpha)

    def test_rejects_wrong_length(self):
        rep = heisenberg_rep(3)
        with pytest.raises(DimensionMismatch):
            averaged_norm(rep, np.ones(5))


class TestGapBound:
    def test_values(self):
        assert gap_lower_bound(25, 1) == pytest.approx(3.0 / 7.0)
        assert gap_lower_bound(4, 2) == 0.0

    def test_boundary_identity(self):
        # N = sqrt(n)/8 forces eps > 3/5
        n = 64.0
        assert gap_lower_bound(n, math.sqrt(n) / 8.0) == pytest.approx(3.0 / 5.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gap_lower_bound(0, 1)


class TestGapCertificate:
    def test_heisenberg5_far5(self):
        rep = heisenberg_rep(5)
        cert = gap_certificate(rep, far_points(5), R=2)
        assert cert["verdict"] == "PASS"
        assert cert["eps_achieved"] == 1.0
        assert cert["gap_bound"] == pytest.approx((math.sqrt(5) - 2) / (math.sqrt(5) + 2))
        assert cert["growth_N"] == 1
        assert cert["pair_count"] == 5

    @pytest.mark.parametrize(
        "make,space,R",
        [(lambda: heisenberg_rep(3), far_points(3), 2), (lambda: heisenberg_rep(5), interval_space(7), 1),
         (lambda: symmetric_standard_rep(4), interval_space(5), 1),
         (lambda: symmetric_standard_rep(5), random_regular(12, 3, 1), 1),
         (lambda: heisenberg_rep(7), interval_space(9), 2)],
    )
    def test_matches_truncation_kron_oracle(self, make, space, R):
        # eps, the tensor norm and the per-part sups from the truncations c_g
        # materialized and summed as kron products, one group element at a time
        rep = make()
        n, order = rep.dim, rep.group.order
        band = space.dist[:n, :n] <= R
        eps = 0.0
        tensor = np.zeros((n * n, n * n), dtype=np.complex128)
        for g in range(order):
            m = rep.matrices([g])[0]
            c = np.where(band, m, 0.0)
            eps = max(eps, float(np.linalg.norm(m - c, 2)))
            tensor += np.kron(c, m.conj()) / order
        cert = gap_certificate(rep, space, R)
        assert cert["eps_achieved"] == pytest.approx(eps, abs=1e-12)
        assert cert["tensor_value"] == pytest.approx(float(np.linalg.norm(tensor, 2)), abs=1e-9)
        assert cert["pair_count"] == int(band.sum())
        sups = []
        for part in decompose_band(space, R).parts:
            inside = [(y, x) for x, y in part.tolist() if x < n and y < n]  # (row, col)
            blocks = [tensor[j * n : (j + 1) * n, i * n : (i + 1) * n] for j, i in inside]
            sups.append(max((float(np.linalg.norm(b, 2)) for b in blocks), default=0.0))
        assert np.allclose(cert["per_translation_sup"], sups, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("space", [far_points(5), interval_space(9), random_regular(12, 3, 1)])
    def test_dense_stack_agrees_with_heisenberg(self, space):
        # the stack defaults and HeisenbergRep's structured overrides give one certificate
        rep = heisenberg_rep(5)
        dense = DenseRep(rep.group, rep.matrices(np.arange(rep.group.order)))
        a, b = gap_certificate(rep, space, 1), gap_certificate(dense, space, 1)
        assert a["eps_achieved"] == pytest.approx(b["eps_achieved"], abs=1e-12)
        assert a["tensor_value"] == pytest.approx(b["tensor_value"], abs=1e-12)
        assert np.allclose(a["per_translation_sup"], b["per_translation_sup"], rtol=0, atol=1e-12)
        assert (a["pair_count"], a["checks"], a["verdict"]) == (b["pair_count"], b["checks"], b["verdict"])

    def test_tensor_value_on_interval_placement(self):
        # a placement where the band keeps everything: eps = 0, tensor value = 1
        rep = heisenberg_rep(3)
        sp = interval_space(3)
        cert = gap_certificate(rep, sp, R=2)
        assert cert["eps_achieved"] == 0.0
        assert cert["tensor_value"] == pytest.approx(1.0, abs=1e-6)
        assert cert["verdict"] == "PASS"

    def test_per_translation_sup_bound(self):
        rep = heisenberg_rep(5)
        cert = gap_certificate(rep, far_points(5), R=2)
        bound = (1.0 + cert["eps_achieved"]) / math.sqrt(5) + 1e-7
        assert all(s <= bound for s in cert["per_translation_sup"])

    def test_half_form_lower(self):
        cert = gap_certificate(heisenberg_rep(5), far_points(5), R=2)
        assert cert["half_form_lower"] == pytest.approx(max(0.0, cert["gap_bound"] - 0.1))

    @pytest.mark.parametrize(
        "make,space,R,vacuous",
        [(lambda: heisenberg_rep(5), far_points(5), 2, (True, True, True)),
         (lambda: symmetric_standard_rep(4), interval_space(5), 1, (False, True, True)),
         (lambda: heisenberg_rep(3), interval_space(3), 2, (False, True, True))],
    )
    def test_vacuity_flags(self, make, space, R, vacuous):
        cert = gap_certificate(make(), space, R)
        assert cert["verdict"] == "PASS"
        assert tuple(cert["vacuous"][k] for k in ("tensor_lower", "translation_sups", "gap")) == vacuous

    def test_refuses_reducible_rep(self):
        # Z/2 acting as diag(1, +-1) on C^2: unitary but reducible
        rep = DenseRep(TableGroup(cyclic_table(2)), np.array([np.eye(2), np.diag([1.0, -1.0])]))
        assert not rep.certificate()["irreducible"]
        with pytest.raises(HypothesisViolated, match="char_sum 2, irreducible False"):
            gap_certificate(rep, far_points(2), R=1)

    def test_refuses_non_homomorphism(self):
        # Z/2 sent to i and 1: unitary with char_sum 1, but every product is
        # off by |i - 1| = sqrt(2), whichever pairs certificate() samples
        rep = DenseRep(TableGroup(cyclic_table(2)), np.array([[[1j]], [[1.0]]]))
        cert = rep.certificate()
        assert cert["irreducible"] and not cert["ok"]
        with pytest.raises(HypothesisViolated, match="homomorphism_dev 1.41"):
            gap_certificate(rep, far_points(1), R=1)

    def test_placement_validation(self):
        # the block sits on points 0..n-1, so the space needs n points
        rep = heisenberg_rep(3)
        with pytest.raises(DimensionMismatch):
            gap_certificate(rep, far_points(2), R=1)


class TestDenseRep:
    def test_from_table_rep(self):
        # regular representation of Z/3 restricted to a nontrivial character
        assert character_rep().certificate(seed=0)["ok"]

    def test_one_matrix_per_element(self):
        g = TableGroup(cyclic_table(3))
        with pytest.raises(DimensionMismatch):
            DenseRep(g, np.zeros((2, 1, 1)))

    def test_rejects_non_square_stack(self):
        g = TableGroup(cyclic_table(3))
        for shape in ((3, 1, 2), (3, 2), (3, 2, 2, 1)):
            with pytest.raises(DimensionMismatch):
                DenseRep(g, np.zeros(shape))

import math

import numpy as np
import pytest

from conftest import dense_operator, reference_band_dist_random, reference_eps_prop_heuristic
from roelab import operators, quasilocal, randsub
from roelab.errors import DimensionMismatch, RejectionBudgetExhausted
from roelab.operators import _sigma_max, band_truncate, operator_norm
from roelab.quasilocal import (
    QuasiLocalAssembly,
    assemble,
    mechanism_check,
    member_dims,
    non_band_witness,
    projection_invariants,
    quasilocality_profile,
    regular_family,
    select_subspaces,
)
from roelab.randsub import formal_bound, restricted_norm_max, sample_subspace, trial_seed
from roelab.spaces import KAPPA_EXACT, KAPPA_SPECTRAL, ExpanderFamily, far_points, piece_slices


@pytest.fixture(scope="module")
def small_assembly():
    family = regular_family([8, 12, 16], degree=3, seed=2)
    subs, _ = select_subspaces(family, c0=3.0, seed=2)
    return assemble(family, subs, c0=3.0)


class TestFamily:
    def test_small_members_get_exact_kappa(self):
        family = regular_family([10, 14, 18], degree=3, seed=0)
        assert family.kappa_kind == KAPPA_EXACT
        assert family.kappa > 1

    def test_large_members_demote_to_spectral(self):
        family = regular_family([16, 32], degree=4, seed=1)
        assert family.kappa_kind == KAPPA_SPECTRAL
        assert family.kappa > 1

    def test_deterministic(self):
        a = regular_family([8, 12], degree=3, seed=5)
        b = regular_family([8, 12], degree=3, seed=5)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.dist, mb.dist)

    def test_member_dims(self):
        family = regular_family([8, 12, 16], degree=3, seed=0)
        assert member_dims(family) == [1, 2, 3]


class TestSelection:
    def test_selected_subspaces_meet_schedule(self, small_assembly):
        for sub, n in zip(small_assembly.subspaces, member_dims(small_assembly.family)):
            for row in small_assembly.schedule:
                if row["k"] <= n:
                    found = restricted_norm_max(sub, row["delta"]).value
                    assert found < row["eps"]

    def test_budget_exhaustion_with_tiny_c0(self, monkeypatch):
        family = regular_family([8, 12, 16], degree=3, seed=2)
        monkeypatch.setattr(quasilocal, "MAX_REJECTS", 3)
        with pytest.raises(RejectionBudgetExhausted):
            select_subspaces(family, c0=0.01, seed=0)


def reference_select_subspaces(family, c0, max_rejects=200, seed=0):
    """select_subspaces checking every threshold, vacuous ones included: the oracle."""
    samples, reject_counts = [], []
    for idx, (member, n) in enumerate(zip(family.members, member_dims(family))):
        d = member.n
        rejects = 0
        while True:
            rng = trial_seed(seed, idx * 100_000 + rejects)
            sample = sample_subspace(d, n, int(rng.integers(0, 2 ** 63)))
            ok = True
            for k in range(2, n + 1):
                delta_k = 1.0 / k
                if int(delta_k * d) < 1:
                    continue
                eps_k = formal_bound(delta_k, c0)
                k_sub = int(delta_k * d)
                search = randsub._exact_max if math.comb(d, k_sub) <= 20_000 else randsub._greedy_max
                if search(sample.basis, k_sub)[0] >= eps_k:
                    ok = False
                    break
            if ok:
                samples.append(sample)
                reject_counts.append(rejects)
                break
            rejects += 1
            if rejects > max_rejects:
                raise RejectionBudgetExhausted(
                    f"member {idx}: no admissible subspace in {max_rejects} draws; "
                    "c0 is too small at this scale"
                )
    return samples, reject_counts


class TestVacuousSchedule:
    # c0 = 3: every threshold is vacuous; c0 = 1.69: k = 3 is vacuous, k = 2
    # and k = 4 are not, and two members need a second draw; c0 = 1.67: the
    # second member's only row, k = n = 2, rejects its first draw
    @pytest.mark.parametrize(
        "sizes,c0", [([8, 12, 16], 3.0), ([8, 12, 16, 20], 1.69), ([10, 14, 18], 1.67)]
    )
    def test_same_draws_and_rejections(self, sizes, c0):
        family = regular_family(sizes, degree=3, seed=2)
        subs, rejects = select_subspaces(family, c0=c0, seed=0)
        ref_subs, ref_rejects = reference_select_subspaces(family, c0=c0, seed=0)
        assert rejects == ref_rejects
        assert [s.seed for s in subs] == [s.seed for s in ref_subs]
        if c0 < 3:
            assert sum(rejects) > 0

    def test_same_exhaustion(self, monkeypatch):
        family = regular_family([8, 12, 16], degree=3, seed=2)
        monkeypatch.setattr(quasilocal, "MAX_REJECTS", 3)
        with pytest.raises(RejectionBudgetExhausted) as new:
            select_subspaces(family, c0=0.01, seed=0)
        with pytest.raises(RejectionBudgetExhausted) as ref:
            reference_select_subspaces(family, c0=0.01, max_rejects=3, seed=0)
        assert str(new.value) == str(ref.value)

    def test_vacuous_thresholds_are_not_scanned(self, monkeypatch):
        family = regular_family([8, 12, 16], degree=3, seed=2)

        def refuse(*args, **kwargs):
            raise AssertionError("a vacuous threshold was checked")

        monkeypatch.setattr(quasilocal, "restricted_norm_max", refuse)
        select_subspaces(family, c0=3.0, seed=0)

    def test_flags_per_schedule_row(self):
        family = regular_family([8, 12, 16, 20], degree=3, seed=2)
        for c0, flags in [(3.0, [True, True, True]), (1.69, [False, True, False])]:
            subs, _ = select_subspaces(family, c0=c0, seed=0)
            asm = assemble(family, subs, c0=c0)
            assert [r["certificate"] == "vacuous" for r in asm.schedule] == flags
            assert [r["eps"] > 1 for r in asm.schedule] == flags


def _certificates(sizes, degree, c0):
    family = regular_family(sizes, degree=degree, seed=2)
    subs, rejects = select_subspaces(family, c0=c0, seed=2)
    asm = assemble(family, subs, c0=c0)
    return {row["k"]: row["certificate"] for row in asm.schedule}, asm, rejects


class TestScheduleCertificate:
    def test_first_live_row_is_exact(self):
        # members 32..61 carry the dimensions 1..30 on vacuous rows; the
        # 64-point member's k = 31 row has |E| = 2, C(64, 2) = 2016 subsets
        certs, asm, rejects = _certificates([*range(32, 62), 64], 4, 3.0)
        assert certs[31] == "exact"
        assert {c for k, c in certs.items() if k < 31} == {"vacuous"}
        assert sum(rejects) == 0
        row = asm.schedule[-1]
        r = restricted_norm_max(asm.subspaces[-1], row["delta"])
        assert (r.k, r.mode) == (2, "exact")
        assert r.value == pytest.approx(0.873575511910041, abs=1e-12)
        assert row["eps"] == pytest.approx(0.99848, abs=1e-5)
        assert r.value < row["eps"]

    def test_readme_config_is_vacuous(self):
        certs, _, _ = _certificates([16, 32, 64, 128], 4, 3.0)
        assert set(certs.values()) == {"vacuous"}

    def test_greedy_where_a_member_is_too_large(self):
        # k = 2 reaches the 20-point member with C(20, 10) = 184756 subsets,
        # k = 4 only that member with C(20, 5) = 15504
        certs, asm, _ = _certificates([8, 12, 16, 20], 3, 1.69)
        assert certs == {2: "greedy", 3: "vacuous", 4: "exact"}
        assert [r["certificate"] == "vacuous" for r in asm.schedule] == [False, True, False]


class TestAssembly:
    def test_projection_invariants(self, small_assembly):
        inv = projection_invariants(small_assembly)
        assert inv["idempotency_dev"] < 1e-9
        assert inv["self_adjoint_dev"] < 1e-9
        assert inv["trace"] == pytest.approx(1 + 2 + 3, abs=1e-8)

    def test_block_diagonal_structure(self, small_assembly):
        slices = piece_slices(small_assembly.family.members)
        assert list(small_assembly.slices) == slices
        assert small_assembly.space.n == slices[-1].stop
        for sub, L, Rf in zip(small_assembly.subspaces, small_assembly.left, small_assembly.right):
            assert L is sub.basis and Rf is sub.basis
        mat = dense_operator(small_assembly).mat
        for sub, sl in zip(small_assembly.subspaces, slices):
            assert np.abs(mat[sl, sl] - sub.basis @ sub.basis.T).max() < 1e-12

    def test_holds_no_dense_matrix(self, small_assembly):
        assert not isinstance(small_assembly, operators.SpaceOperator)
        assert not hasattr(small_assembly, "mat") and not hasattr(small_assembly.subspaces[0], "P")

    def test_compressed_blocks(self):
        family = regular_family([8, 12], degree=3, seed=3)
        subs, _ = select_subspaces(family, c0=3.0, seed=3)
        blocks = [np.eye(1) * 0.5, np.diag([0.25, -0.5])]
        asm = assemble(family, subs, blocks=blocks, c0=3.0)
        assert operator_norm(dense_operator(asm).mat) == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(DimensionMismatch):
            assemble(family, subs, blocks=[np.eye(1), np.eye(3)], c0=3.0)

    def test_member_count_mismatch(self):
        family = regular_family([8, 12], degree=3, seed=0)
        subs, _ = select_subspaces(family, c0=3.0, seed=0)
        with pytest.raises(DimensionMismatch):
            assemble(family, subs[:1], c0=3.0)

    def test_subspace_of_another_size(self):
        family = regular_family([8, 12], degree=3, seed=0)
        subs, _ = select_subspaces(family, c0=3.0, seed=0)
        with pytest.raises(DimensionMismatch, match="^subspace ambient dimension must match the member size$"):
            assemble(family, subs[::-1], c0=3.0)

    def test_member_too_small_for_its_dimension(self):
        # member 0 carries dimension 1, which needs at least 2 points
        family = ExpanderFamily(members=[far_points(1)], kappa=2.0, kappa_kind=KAPPA_EXACT)
        with pytest.raises(DimensionMismatch, match="^member 0 too small for dimension 1$"):
            select_subspaces(family, c0=3.0)

    def test_schedule_rows(self, small_assembly):
        rows = small_assembly.schedule
        assert [r["k"] for r in rows] == [2, 3]
        assert rows[0]["delta"] == 0.5


class TestProfile:
    def test_brackets_ordered_and_monotone(self, small_assembly):
        rows = quasilocality_profile(small_assembly, [0.5, 0.2, 0.05], seed=0, budget=150)
        lowers = [r["R_lower"] for r in rows]
        uppers = [r["R_upper"] for r in rows]
        assert all(l <= u for l, u in zip(lowers, uppers))
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))

    def test_requires_descending_eps(self, small_assembly):
        with pytest.raises(ValueError):
            quasilocality_profile(small_assembly, [0.1, 0.5])

    def test_one_search_and_one_tail_norm_per_radius(self, small_assembly, monkeypatch):
        closes, tails = [], []
        close, tail_bound = operators._close_rectangles, QuasiLocalAssembly.tail_bound

        def counted_close(*args):
            closes.append(1)
            return close(*args)

        def counted_tail(u, R):
            tails.append(R)
            return tail_bound(u, R)

        monkeypatch.setattr(operators, "_close_rectangles", counted_close)
        monkeypatch.setattr(QuasiLocalAssembly, "tail_bound", counted_tail)
        rows = quasilocality_profile(small_assembly, [0.5, 0.2, 0.05], seed=1, budget=100)
        assert len(rows) == 3 and len(closes) == 1
        assert tails and len(tails) == len(set(tails))

    def test_tail_vanishes_at_large_radius(self, small_assembly):
        # the whole operator is a band operator at the ambient diameter
        rows = quasilocality_profile(small_assembly, [1e-9], budget=50)
        assert rows[0]["R_upper"] <= small_assembly.space.diameter

    def test_rejects_empty_budget(self, small_assembly):
        with pytest.raises(ValueError, match="budget"):
            quasilocality_profile(small_assembly, [0.5], budget=0)


class TestMechanism:
    def test_sampled_inequalities(self, small_assembly):
        out = mechanism_check(small_assembly, samples=300, seed=0)
        assert out["samples"] == 300
        assert out["submultiplicative_ok"], out["submult_failures"]
        assert out["schedule_ok"], out["schedule_failures"]

    def test_min_slack_nonnegative(self, small_assembly):
        out = mechanism_check(small_assembly, samples=100, seed=1)
        assert out["min_slack"] >= -1e-9


class TestWitness:
    def test_positive_lower_bound(self, small_assembly):
        b = non_band_witness(small_assembly, R=1, budget=300, seed=0)
        assert b.lower > 0
        assert b.lower <= b.upper + 1e-9

    def test_witness_rectangle_verifies(self, small_assembly):
        b = non_band_witness(small_assembly, R=1, budget=300, seed=0)
        A, B = np.array(b.witness["A"]), np.array(b.witness["B"])
        value = operator_norm(dense_operator(small_assembly).mat[np.ix_(A, B)])
        assert value == pytest.approx(b.lower, abs=1e-9)
        assert small_assembly.space.set_distance(A, B) > 1

    def test_deterministic(self, small_assembly):
        a = non_band_witness(small_assembly, R=1, budget=200, seed=3)
        b = non_band_witness(small_assembly, R=1, budget=200, seed=3)
        assert a.lower == b.lower
        assert a.witness == b.witness

    def test_radius_validation(self, small_assembly):
        big = small_assembly.family.members[-1].diameter
        with pytest.raises(ValueError):
            non_band_witness(small_assembly, R=big)


def reference_mechanism_check(assembly, samples, seed=0):
    """The per-draw mechanism check the batched one replaced: three LAPACK
    SVDs per drawn rectangle, failures recorded as they come."""
    rng = np.random.default_rng(seed)
    dims = member_dims(assembly.family)
    checked = 0
    submult_failures = []
    schedule_failures = []
    min_gap = math.inf
    u = dense_operator(assembly).mat
    while checked < samples:
        i = int(rng.integers(0, len(assembly.family.members)))
        member = assembly.family.members[i]
        sub = assembly.subspaces[i]
        k = dims[i]
        if k < 2:
            k = 2
        delta_k = 1.0 / k
        d = member.n
        small = max(1, int(rng.integers(1, max(2, int(delta_k * d) + 1))))
        perm = rng.permutation(d)
        A_loc = np.sort(perm[:small])
        rest = perm[small:]
        far = rest[member.dist[A_loc][:, rest].min(axis=0) > 0]
        if far.size == 0:
            continue
        b_size = int(rng.integers(1, far.size + 1))
        B_loc = np.sort(rng.choice(far, size=b_size, replace=False))
        sl = assembly.slices[i]
        A = A_loc + sl.start
        B = B_loc + sl.start
        P = sub.basis @ sub.basis.T
        val = _sigma_max(u[np.ix_(A, B)])
        left = _sigma_max(P[A_loc, :])
        right = _sigma_max(P[:, B_loc])
        cap = min(left, right)
        if val > cap + 1e-9:
            submult_failures.append((i, tuple(A_loc.tolist()), tuple(B_loc.tolist()), val, cap))
        eps_k = formal_bound(delta_k, assembly.c0)
        if not cap < eps_k:
            schedule_failures.append((i, tuple(A_loc.tolist()), tuple(B_loc.tolist()), cap, eps_k))
        min_gap = min(min_gap, cap - val)
        checked += 1
    return {
        "samples": checked,
        "submultiplicative_ok": not submult_failures,
        "schedule_ok": not schedule_failures,
        "submult_failures": submult_failures[:10],
        "schedule_failures": schedule_failures[:10],
        "min_slack": float(min_gap),
    }


@pytest.fixture(scope="module")
def failing_assembly(small_assembly):
    """3x the projections and a tiny c0: both inequalities fail on many draws."""
    blocks = [3.0 * np.eye(n) for n in member_dims(small_assembly.family)]
    return assemble(small_assembly.family, small_assembly.subspaces, blocks=blocks, c0=0.3)


def assert_same_witness(witness, ref):
    """Same rectangle and separation; the norm within 1e-12 (the factored
    norms and the dense LAPACK oracle round differently)."""
    assert (witness is None) == (ref is None)
    if witness is not None:
        for key in ("A", "B", "separation"):
            assert witness[key] == ref[key]
        assert witness["value"] == pytest.approx(ref["value"], abs=1e-12)
        assert witness.keys() == ref.keys()


def assert_same_mechanism(out, ref):
    """Same draws, flags and failure rectangles; every norm within 1e-12."""
    for key in ("samples", "submultiplicative_ok", "schedule_ok"):
        assert out[key] == ref[key]
    for key in ("submult_failures", "schedule_failures"):
        assert [f[:3] for f in out[key]] == [f[:3] for f in ref[key]]
        assert np.allclose([f[3:] for f in out[key]], [f[3:] for f in ref[key]], rtol=0, atol=1e-12)
    assert out["min_slack"] == pytest.approx(ref["min_slack"], abs=1e-12)


class TestBatchedSearchesEqualPerDrawLoops:
    """The searches on the assembly's factored norms against per-draw dense
    LAPACK oracles: the same rectangles and verdicts, norms within 1e-12."""

    @pytest.mark.parametrize("samples,seed", [(1, 0), (37, 5), (300, 0), (300, 11)])
    def test_mechanism_check(self, small_assembly, failing_assembly, samples, seed):
        for assembly in (small_assembly, failing_assembly):
            out = mechanism_check(assembly, samples, seed)
            assert_same_mechanism(out, reference_mechanism_check(assembly, samples, seed))
        out = mechanism_check(failing_assembly, samples, seed)
        assert not out["submultiplicative_ok"] and not out["schedule_ok"]

    def test_mechanism_check_takes_no_svd(self, failing_assembly, monkeypatch):
        ref = reference_mechanism_check(failing_assembly, 120, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("mechanism_check took an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert_same_mechanism(mechanism_check(failing_assembly, 120, 4), ref)

    @pytest.mark.parametrize("budget,seed", [(1, 0), (77, 2), (300, 0)])
    def test_non_band_witness(self, small_assembly, budget, seed):
        largest = small_assembly.slices[-1]
        pool = np.arange(largest.start, largest.stop)
        b = non_band_witness(small_assembly, R=1, budget=budget, seed=seed)
        lower, witness = reference_band_dist_random(dense_operator(small_assembly), 1, budget, seed, pool)
        assert b.lower == pytest.approx(lower, abs=1e-12)
        assert_same_witness(b.witness, witness)

    def test_profile(self, small_assembly):
        rows = quasilocality_profile(small_assembly, [0.5, 0.2, 0.05], seed=1, budget=200)
        for row in rows:
            lower, upper, witness = reference_eps_prop_heuristic(dense_operator(small_assembly), row["eps"], 1, 200)
            assert (row["R_lower"], row["R_upper"]) == (lower, upper)
            assert_same_witness(row["witness"], witness)

    def test_searches_take_no_norm_of_the_ambient(self, small_assembly, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a norm of the dense ambient was taken")

        monkeypatch.setattr(operators, "_rect_norms", refuse)
        monkeypatch.setattr(operators, "band_truncate", refuse)
        non_band_witness(small_assembly, R=1, budget=100, seed=0)
        quasilocality_profile(small_assembly, [0.5, 0.2], seed=0, budget=100)


@pytest.fixture(params=["small", "failing"])
def any_assembly(request, small_assembly, failing_assembly):
    return small_assembly if request.param == "small" else failing_assembly


class TestFactoredHooksEqualDenseDefaults:
    """QuasiLocalAssembly's factored rect_norms and tail_bound against the dense
    SpaceOperator computations on the matrix its factors make."""

    def test_rect_norms(self, any_assembly):
        u, slices = any_assembly, any_assembly.slices
        rng = np.random.default_rng(40)
        rows = rng.random((399, u.space.n)) < 0.3
        cols = rng.random((399, u.space.n)) < 0.3
        # a third of the pairs inside one member, a third across two members
        for k in range(0, 399, 3):
            i, j = rng.choice(len(slices), 2, replace=False)
            inside, other = np.zeros((2, u.space.n), dtype=bool)
            inside[slices[i]] = other[slices[j]] = True
            rows[k] &= inside
            cols[k] &= inside
            rows[k + 1] &= inside
            cols[k + 1] &= other
        values = u.rect_norms(rows, cols)
        dense = operators._rect_norms(dense_operator(u).mat, rows, cols)
        across = ~np.any([rows[:, sl].any(axis=1) & cols[:, sl].any(axis=1) for sl in slices], axis=0)
        assert across.sum() > 100 and (~across).sum() > 100
        assert np.all(values[across] == 0.0) and np.all(dense[across] == 0.0)
        assert np.abs(values - dense).max() <= 1e-12

    def test_tail_bound(self, any_assembly):
        u, full = any_assembly, dense_operator(any_assembly)
        for R in u.space.radii():
            dense = operator_norm(full.mat - band_truncate(full, R).mat)
            tail = u.tail_bound(R)
            assert dense <= tail <= dense + 1e-12

    def test_tail_bound_rejects_negative_radius(self, small_assembly):
        for R in (-1, math.nan):
            with pytest.raises(ValueError):
                small_assembly.tail_bound(R)

    def test_exact_scans_refuse_an_assembly(self, small_assembly):
        # they read the dense matrix, which an assembly does not hold
        with pytest.raises(TypeError, match="SpaceOperator"):
            next(operators._exact_rectangles(small_assembly, 1))


@pytest.mark.parametrize("seed", [0, 2])
def test_projection_tails_take_the_hermitian_route(monkeypatch, seed):
    """Every member block a projection assembly's tail_bound norms, (V V^T) o
    (dist > R), is exactly symmetric, so none of them falls back to the SVD."""
    family = regular_family([16, 32, 64, 128], degree=4, seed=seed)
    subs, _ = select_subspaces(family, c0=3.0, seed=seed)
    u = assemble(family, subs, c0=3.0)
    sizes, hermitian = [], operators._hermitian_norm
    monkeypatch.setattr(operators, "_hermitian_norm", lambda m: sizes.append(len(m)) or hermitian(m))
    monkeypatch.setattr(operators, "_sigma_max", None)  # not called
    for R in range(int(max(m.diameter for m in family.members)) + 1):
        sizes.clear()
        u.tail_bound(R)
        assert sizes == [16, 32, 64, 128]


def test_projection_invariants_equal_dense_formulas(any_assembly):
    """The per-member invariants against the dense formulas on the ambient
    matrix the factors make, within 1e-12."""
    m = dense_operator(any_assembly).mat
    dense = {
        "idempotency_dev": np.abs(m @ m - m).max(),
        "self_adjoint_dev": np.abs(m - m.conj().T).max(),
        "trace": np.real(np.trace(m)),
    }
    inv = projection_invariants(any_assembly)
    assert inv.keys() == dense.keys()
    for key, value in dense.items():
        assert inv[key] == pytest.approx(value, abs=1e-12), key

import math

import numpy as np
import pytest

from conftest import reference_band_dist_random, reference_eps_prop_heuristic
from roelab import operators, quasilocal
from roelab.errors import DimensionMismatch, RejectionBudgetExhausted
from roelab.operators import _sigma_max, opnorm, propagation, rect_norm
from roelab.quasilocal import (
    assemble,
    mechanism_check,
    member_dims,
    non_band_witness,
    projection_invariants,
    quasilocality_profile,
    regular_family,
    schedule_radius,
    select_subspaces,
)
from roelab.randsub import formal_bound, restricted_norm_max, sample_subspace, trial_seed
from roelab.spaces import KAPPA_EXACT, KAPPA_SPECTRAL, piece_slices


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


class TestScheduleRadius:
    def test_closed_form(self):
        import math

        assert schedule_radius(2.0, 1.0, 0.5) == math.ceil(2 * math.log(2) / math.log(2))
        assert schedule_radius(1.5, 1.0, 0.25) == math.ceil(2 * math.log(4) / math.log(1.5))

    def test_requires_expansion(self):
        with pytest.raises(ValueError):
            schedule_radius(1.0, 1.0, 0.5)


class TestSelection:
    def test_selected_subspaces_meet_schedule(self, small_assembly):
        from roelab.randsub import formal_bound, restricted_norm_max

        for sub, n in zip(small_assembly.subspaces, member_dims(small_assembly.family)):
            for k in range(2, n + 1):
                delta = 1.0 / k
                if int(delta * sub.d) < 1:
                    continue
                found = restricted_norm_max(sub, delta, mode="greedy", c0=3.0).value
                assert found < formal_bound(delta, 3.0)

    def test_budget_exhaustion_with_tiny_c0(self):
        family = regular_family([8, 12, 16], degree=3, seed=2)
        with pytest.raises(RejectionBudgetExhausted):
            select_subspaces(family, c0=0.01, max_rejects=3, seed=0)


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
                mode = "exact" if idx == 0 and math.comb(d, int(delta_k * d)) <= 20_000 else "greedy"
                if restricted_norm_max(sample, delta_k, mode=mode, c0=c0).value >= eps_k:
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
    # and k = 4 are not, and two members need a second draw
    @pytest.mark.parametrize("sizes,c0", [([8, 12, 16], 3.0), ([8, 12, 16, 20], 1.69)])
    def test_same_draws_and_rejections(self, sizes, c0):
        family = regular_family(sizes, degree=3, seed=2)
        subs, rejects = select_subspaces(family, c0=c0, seed=0)
        ref_subs, ref_rejects = reference_select_subspaces(family, c0=c0, seed=0)
        assert rejects == ref_rejects
        assert [s.seed for s in subs] == [s.seed for s in ref_subs]
        if c0 < 3:
            assert sum(rejects) > 0

    def test_same_exhaustion(self):
        family = regular_family([8, 12, 16], degree=3, seed=2)
        with pytest.raises(RejectionBudgetExhausted) as new:
            select_subspaces(family, c0=0.01, max_rejects=3, seed=0)
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
            assert asm.schedule_vacuous == flags
            assert [r["eps"] > 1 for r in asm.schedule] == flags


class TestAssembly:
    def test_projection_invariants(self, small_assembly):
        inv = projection_invariants(small_assembly)
        assert inv["idempotency_dev"] < 1e-9
        assert inv["self_adjoint_dev"] < 1e-9
        assert inv["trace"] == pytest.approx(1 + 2 + 3, abs=1e-8)

    def test_block_diagonal_structure(self, small_assembly):
        slices = piece_slices(small_assembly.family.members)
        mat = small_assembly.u.mat
        for i, si in enumerate(slices):
            for j, sj in enumerate(slices):
                if i != j:
                    assert np.abs(mat[si, sj]).max() == 0.0
        for sub, sl in zip(small_assembly.subspaces, slices):
            assert np.abs(mat[sl, sl] - sub.P).max() < 1e-12

    def test_compressed_blocks(self):
        family = regular_family([8, 12], degree=3, seed=3)
        subs, _ = select_subspaces(family, c0=3.0, seed=3)
        blocks = [np.eye(1) * 0.5, np.diag([0.25, -0.5])]
        asm = assemble(family, subs, blocks=blocks, c0=3.0)
        assert opnorm(asm.u) == pytest.approx(0.5, abs=1e-9)

    def test_member_count_mismatch(self):
        family = regular_family([8, 12], degree=3, seed=0)
        subs, _ = select_subspaces(family, c0=3.0, seed=0)
        with pytest.raises(DimensionMismatch):
            assemble(family, subs[:1], c0=3.0)

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

    def test_tail_vanishes_at_large_radius(self, small_assembly):
        # the whole operator is a band operator at the ambient diameter
        rows = quasilocality_profile(small_assembly, [1e-9], budget=50)
        assert rows[0]["R_upper"] <= small_assembly.ambient.diameter


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
        w = rect_norm(small_assembly.u, np.array(b.witness.A), np.array(b.witness.B))
        assert w.value == pytest.approx(b.lower, abs=1e-9)
        assert w.separation > 1

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
        u = assembly.u.mat
        val = _sigma_max(u[np.ix_(A, B)])
        left = _sigma_max(sub.P[A_loc, :])
        right = _sigma_max(sub.P[:, B_loc])
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


class TestBatchedSearchesEqualPerDrawLoops:
    @pytest.mark.parametrize("samples,seed", [(1, 0), (37, 5), (300, 0), (300, 11)])
    def test_mechanism_check(self, small_assembly, failing_assembly, samples, seed):
        for assembly in (small_assembly, failing_assembly):
            out = mechanism_check(assembly, samples, seed)
            assert out == reference_mechanism_check(assembly, samples, seed)
        out = mechanism_check(failing_assembly, samples, seed)
        assert not out["submultiplicative_ok"] and not out["schedule_ok"]

    def test_mechanism_check_with_tiny_stacks(self, failing_assembly, monkeypatch):
        monkeypatch.setattr(operators, "STACK_ENTRIES", 8)
        out = mechanism_check(failing_assembly, 120, 4)
        assert out == reference_mechanism_check(failing_assembly, 120, 4)

    @pytest.mark.parametrize("budget,seed", [(1, 0), (77, 2), (300, 0)])
    def test_non_band_witness(self, small_assembly, budget, seed):
        largest = small_assembly.slices[-1]
        pool = np.arange(largest.start, largest.stop)
        b = non_band_witness(small_assembly, R=1, budget=budget, seed=seed)
        assert (b.lower, b.witness) == reference_band_dist_random(small_assembly.u, 1, budget, seed, pool)

    def test_profile(self, small_assembly):
        rows = quasilocality_profile(small_assembly, [0.5, 0.2, 0.05], seed=1, budget=200)
        for row in rows:
            lower, upper, witness = reference_eps_prop_heuristic(small_assembly.u, row["eps"], 1, 200)
            assert (row["R_lower"], row["R_upper"], row["witness"]) == (lower, upper, witness)

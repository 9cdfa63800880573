import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roelab import randsub
from roelab.errors import TooLargeForExact
from roelab.randsub import (
    SubspaceSample,
    entropy_count_bound,
    formal_bound,
    levy_median_check,
    mc_lemma_random,
    restricted_norm_max,
    sample_subspace,
    trial_seed,
)


def _svd_top(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def reference_restricted_norm_max(sample, delta, mode):
    """(value, E) of the per-subset loops the gathered stacks replaced: exact
    in chunks of 4096 subsets stacked one by one, greedy from list-built stacks."""
    d, basis = sample.d, sample.basis
    k = int(math.floor(delta * d))
    if mode == "exact":
        best_val, best_E = -1.0, None
        chunk, combos = [], []
        for E in itertools.combinations(range(d), k):
            combos.append(E)
            chunk.append(basis[list(E), :])
            if len(chunk) == 4096:
                vals = _svd_top(np.stack(chunk))
                i = int(np.argmax(vals))
                if vals[i] > best_val:
                    best_val, best_E = float(vals[i]), combos[i]
                chunk, combos = [], []
        if chunk:
            vals = _svd_top(np.stack(chunk))
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, best_E = float(vals[i]), combos[i]
        return best_val, tuple(int(i) for i in best_E)

    def forward_select():
        E, remaining = [], list(range(d))
        for _ in range(k):
            vals = _svd_top(np.stack([basis[E + [o], :] for o in remaining]))
            E.append(remaining.pop(int(np.argmax(vals))))
        return E

    def hill_climb(E0):
        E = list(E0)
        out = [i for i in range(d) if i not in set(E)]
        best_val = float(_svd_top(basis[np.asarray(E, dtype=int), :]))
        swaps, improved = 0, True
        while improved and swaps < randsub._SWAP_CAP:
            improved = False
            for a in range(k):
                vals = _svd_top(np.stack([basis[[*E[:a], o, *E[a + 1:]], :] for o in out]))
                j = int(np.argmax(vals))
                if vals[j] > best_val + 1e-12:
                    out[j], E[a] = E[a], out[j]
                    best_val = float(vals[j])
                    swaps += 1
                    improved = True
                    if swaps >= randsub._SWAP_CAP:
                        break
        return best_val, E

    leverage = np.einsum("ij,ij->i", basis, basis)
    best_val, best_E = -1.0, None
    for E0 in (list(np.argsort(leverage)[::-1][:k]), forward_select()):
        val, E = hill_climb(E0)
        if val > best_val:
            best_val, best_E = val, tuple(sorted(E))
    return best_val, tuple(int(i) for i in best_E)


def _assert_matches_reference(sample, delta, modes=("exact", "greedy")):
    for mode in modes:
        r = restricted_norm_max(sample, delta, mode=mode, c0=3.0)
        assert (r.value, r.E_witness) == reference_restricted_norm_max(sample, delta, mode)


def _tied_sample(half, n, seed):
    """Rows i and i + half of the basis are equal, so subsets tie in pairs."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((half, n)))
    basis = np.vstack([q, q]) / math.sqrt(2.0)
    return SubspaceSample(d=2 * half, n=n, vectors=basis.T, basis=basis, P=basis @ basis.T, seed=seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=14), st.data())
def test_restricted_norm_bit_identical_to_per_subset_loop(d, data):
    n = data.draw(st.integers(min_value=1, max_value=d - 1))
    k = data.draw(st.integers(min_value=1, max_value=d - 1))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
    _assert_matches_reference(sample_subspace(d, n, seed), (k + 0.5) / d)


class TestRestrictedNormGather:
    def test_tied_rows_first_subset_wins(self):
        s = _tied_sample(5, 2, seed=3)
        delta = 0.3  # k = 3
        r = restricted_norm_max(s, delta, mode="exact", c0=3.0)
        combos = list(itertools.combinations(range(10), 3))
        values = _svd_top(np.stack([s.basis[list(E)] for E in combos]))
        assert (values == values.max()).sum() >= 2
        assert r.E_witness == combos[int(np.argmax(values))]
        _assert_matches_reference(s, delta)

    def test_just_above_the_old_chunk_edge(self):
        s = sample_subspace(16, 3, seed=7)
        assert math.comb(16, 5) == 4368
        _assert_matches_reference(s, 5.5 / 16, modes=("exact",))

    @pytest.mark.parametrize("k", [1, 3])
    def test_many_subset_chunks(self, monkeypatch, k):
        # at k = 1 the tied subsets (i,) and (i + 6,) fall in different chunks
        s = _tied_sample(6, 2, seed=8)
        delta = (k + 0.5) / 12
        one_chunk = restricted_norm_max(s, delta, mode="exact", c0=3.0)
        monkeypatch.setattr(randsub, "SUBSET_CELLS", 4 * k + 1)  # two subsets a chunk
        assert restricted_norm_max(s, delta, mode="exact", c0=3.0) == one_chunk
        _assert_matches_reference(s, delta, modes=("exact",))


class TestSampling:
    def test_projection_invariants(self):
        for seed in range(5):
            s = sample_subspace(d=25, n=6, seed=seed)
            assert np.abs(s.P @ s.P - s.P).max() < 1e-9
            assert np.abs(s.P - s.P.T).max() < 1e-9
            assert np.trace(s.P) == pytest.approx(6, abs=1e-8)
            assert np.abs(s.basis.T @ s.basis - np.eye(6)).max() < 1e-9

    def test_vectors_on_sphere_and_in_span(self):
        s = sample_subspace(d=15, n=4, seed=2)
        assert np.abs(np.linalg.norm(s.vectors, axis=1) - 1.0).max() < 1e-12
        assert np.abs(s.P @ s.vectors.T - s.vectors.T).max() < 1e-9

    def test_deterministic(self):
        a = sample_subspace(d=10, n=3, seed=9)
        b = sample_subspace(d=10, n=3, seed=9)
        assert np.array_equal(a.P, b.P)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            sample_subspace(d=5, n=5, seed=0)


class TestRestrictedNorm:
    def test_exact_matches_direct_enumeration(self):
        s = sample_subspace(d=10, n=3, seed=1)
        r = restricted_norm_max(s, delta=0.3, mode="exact", c0=3.0)
        best = max(
            np.linalg.svd(s.basis[list(E), :], compute_uv=False)[0]
            for E in itertools.combinations(range(10), 3)
        )
        assert r.value == pytest.approx(best, abs=1e-10)
        assert r.k == 3

    def test_witness_reproduces_value(self):
        s = sample_subspace(d=12, n=3, seed=4)
        for mode in ("exact", "greedy"):
            r = restricted_norm_max(s, delta=0.25, mode=mode, c0=3.0)
            direct = np.linalg.svd(s.basis[list(r.E_witness), :], compute_uv=False)[0]
            assert r.value == pytest.approx(direct, abs=1e-10)

    def test_greedy_is_a_lower_bound(self):
        for seed in range(10):
            s = sample_subspace(d=12, n=2, seed=seed)
            ex = restricted_norm_max(s, delta=0.25, mode="exact", c0=3.0)
            gr = restricted_norm_max(s, delta=0.25, mode="greedy", c0=3.0)
            assert gr.value <= ex.value + 1e-12

    def test_exact_cap(self):
        s = sample_subspace(d=40, n=5, seed=0)
        with pytest.raises(TooLargeForExact):
            restricted_norm_max(s, delta=0.3, mode="exact")

    def test_value_at_most_one(self):
        s = sample_subspace(d=14, n=4, seed=3)
        r = restricted_norm_max(s, delta=0.5, mode="greedy", c0=3.0)
        assert r.value <= 1.0 + 1e-9

    def test_default_c0_is_vacuous(self):
        s = sample_subspace(d=14, n=3, seed=0)
        r = restricted_norm_max(s, delta=0.25, mode="greedy")
        assert r.vacuous
        assert r.bound > 1.0
        assert r.formal_bound_holds


class TestFormalBound:
    def test_closed_form(self):
        assert formal_bound(0.25, 100.0) == pytest.approx(100.0 * math.sqrt(0.25 * math.log(4.0)))

    def test_domain(self):
        with pytest.raises(ValueError):
            formal_bound(0.0)
        with pytest.raises(ValueError):
            formal_bound(1.0)


class TestMonteCarlo:
    def test_report_fields_and_vacuity_flag(self):
        rep = mc_lemma_random(d=20, n=3, delta=0.2, c0=100.0, trials=5, seed=0)
        assert rep.vacuous
        assert rep.empirical_probability == 1.0
        assert len(rep.values) == 5
        assert all(0.0 < v <= 1.0 + 1e-9 for v in rep.values)

    def test_deterministic_and_order_independent_seeding(self):
        a = mc_lemma_random(d=15, n=3, delta=0.2, c0=3.0, trials=4, seed=7)
        b = mc_lemma_random(d=15, n=3, delta=0.2, c0=3.0, trials=6, seed=7)
        assert a.values == b.values[:4]

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            mc_lemma_random(d=10, n=2, delta=0.2, c0=3.0, trials=0, seed=0)


class TestLevy:
    def test_median_and_mean_square(self):
        rep = levy_median_check(d=400, delta=0.04, trials=1000, seed=0)
        assert rep.median_ok
        assert rep.mean_square_ok
        # median concentrates near sqrt(delta)
        assert abs(rep.median - math.sqrt(0.04)) < 0.1

    def test_tail_bounds(self):
        rep = levy_median_check(d=500, delta=0.1, trials=800, seed=1)
        for t, row in rep.tails.items():
            assert row["fraction"] <= row["bound"] + 1e-12

    def test_small_delta_validation(self):
        with pytest.raises(ValueError):
            levy_median_check(d=10, delta=0.05, trials=100, seed=0)


class TestEntropy:
    def test_holds_on_grid(self):
        for d in (20, 50, 100, 200, 400):
            for k_frac in (0.1, 0.2, 0.25, 0.4, 0.5):
                k = int(round(k_frac * d))
                log_binomial, H_bound = entropy_count_bound(d, k / d)
                assert log_binomial <= H_bound + 1e-9

    def test_matches_lgamma_identity(self):
        log_binomial, _ = entropy_count_bound(10, 0.3)
        assert log_binomial == pytest.approx(math.log(math.comb(10, 3)), abs=1e-9)

    def test_rejects_non_integer_count(self):
        with pytest.raises(ValueError):
            entropy_count_bound(10, 0.15)


def test_trial_seed_streams_are_distinct():
    a = trial_seed(3, 0).integers(0, 2 ** 63)
    b = trial_seed(3, 1).integers(0, 2 ** 63)
    c = trial_seed(4, 0).integers(0, 2 ** 63)
    assert len({int(a), int(b), int(c)}) == 3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph_space, random_operator, typed
from roelab.operators import band_truncate, operator_norm
from roelab.spaces import interval_space
from roelab.spaces import growth
from roelab.report import jsonable
from roelab.translations import PartialTranslation, decompose_band, schur_restrict


def reference_decompose_band(space, R):
    """The greedy first-fit as a scan over per-part domain and range sets:
    each pair (x, y), in lexicographic order, joins the first part whose
    domain misses x and whose range misses y. Returns the parts' dicts."""
    xs, ys = np.nonzero(space.dist <= R)
    doms, rans, parts = [], [], []
    for x, y in zip(xs.tolist(), ys.tolist()):
        for i in range(len(parts)):
            if x not in doms[i] and y not in rans[i]:
                parts[i][x] = y
                doms[i].add(x)
                rans[i].add(y)
                break
        else:
            parts.append({x: y})
            doms.append({x})
            rans.append({y})
    return parts


def assert_same_as_reference(space, R):
    parts = decompose_band(space, R).parts
    # same partition, and the same order of entries within each part
    assert [list(p.pairs.items()) for p in parts] == [
        list(p.items()) for p in reference_decompose_band(space, R)]
    return parts


def cover_matrix(space, decomposition):
    """How many parts cover each matrix position (row y, col x)."""
    n = space.n
    count = np.zeros((n, n), dtype=int)
    for part in decomposition.parts:
        for x, y in part.pairs.items():
            count[y, x] += 1
    return count


class TestDecomposeBand:
    def test_hand_enumeration_on_path4(self):
        # P4, R=1 band has 10 pairs; N_X(1)=3 so at most 6 parts
        sp = interval_space(4)
        dec = decompose_band(sp, 1)
        count = cover_matrix(sp, dec)
        assert np.array_equal(count == 1, sp.near(1))
        assert len(dec.parts) <= 6

    def test_exact_partition_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(3, 20))
            sp = random_connected_graph_space(rng, n)
            R = int(rng.integers(0, 4))
            dec = decompose_band(sp, R)
            count = cover_matrix(sp, dec)
            assert np.array_equal(count == 1, sp.near(R))
            assert np.all(count <= 1)
            assert len(dec.parts) <= 2 * growth(sp, R)

    def test_parts_are_partial_translations(self):
        rng = np.random.default_rng(1)
        sp = random_connected_graph_space(rng, 12)
        dec = decompose_band(sp, 2)
        for part in dec.parts:
            xs = list(part.pairs)
            ys = list(part.pairs.values())
            assert len(xs) == len(set(xs))  # injective on domain
            assert len(ys) == len(set(ys))  # injective on range

    def test_radius_zero_is_identity_graph(self):
        sp = interval_space(5)
        dec = decompose_band(sp, 0)
        assert len(dec.parts) == 1
        assert sorted(dec.parts[0].pairs.items()) == [(i, i) for i in range(5)]

    def test_deterministic(self):
        sp = interval_space(8)
        a = jsonable(decompose_band(sp, 2).json_arrays())
        b = jsonable(decompose_band(sp, 2).json_arrays())
        assert a == b

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            decompose_band(interval_space(3), -1)

    def test_json_schema(self):
        obj = jsonable(decompose_band(interval_space(4), 1).json_arrays())
        assert set(obj) == {"R", "parts"}
        assert all(set(p) == {"pairs"} for p in obj["parts"])

    def test_json_arrays_convert_to_the_list_schema(self):
        dec = decompose_band(random_connected_graph_space(np.random.default_rng(2), 20), 2)
        # a part whose pairs were not added in order, and an empty one
        dec.parts += [PartialTranslation(pairs={5: 1, 2: 7, 9: 0}), PartialTranslation(pairs={})]
        lists = {"R": 2.0, "parts": [{"pairs": [list(pair) for pair in sorted(p.pairs.items())]} for p in dec.parts]}
        assert typed(jsonable(dec.json_arrays())) == typed(lists)
        assert dec.parts[-2].graph_array().tolist() == [[2, 7], [5, 1], [9, 0]]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2 ** 31),
    st.sampled_from([0, 0.5, 1, 2, 3]),
)
def test_first_fit_matches_set_scan(n, seed, R):
    assert_same_as_reference(random_connected_graph_space(np.random.default_rng(seed), n), R)


def test_first_fit_beyond_a_machine_word():
    # a dense graph: the masks of ran_bits and of the current row pass 64 bits
    rng = np.random.default_rng(5)
    sp = random_connected_graph_space(rng, 90, extra_edges=2000)
    parts = assert_same_as_reference(sp, 2)
    assert len(parts) > 64


class TestSchurRestrict:
    def test_sum_reassembles_band_truncation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(3, 14))
            sp = random_connected_graph_space(rng, n)
            R = int(rng.integers(0, 4))
            u = random_operator(rng, sp)
            dec = decompose_band(sp, R)
            total = np.zeros_like(u.mat)
            for part in dec.parts:
                total += schur_restrict(u, part).mat
            assert np.array_equal(total, band_truncate(u, R).mat)

    def test_norm_is_max_entry(self):
        rng = np.random.default_rng(3)
        sp = interval_space(9)
        u = random_operator(rng, sp)
        dec = decompose_band(sp, 1)
        for part in dec.parts:
            restricted = schur_restrict(u, part)
            entries = [abs(u.mat[y, x]) for x, y in part.pairs.items()]
            assert operator_norm(restricted.mat) == pytest.approx(max(entries), abs=1e-9)

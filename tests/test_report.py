import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import typed
from roelab.cli import run
from roelab.errors import SchemaMismatch
from roelab.report import dumps, jsonable, make_report, report_diff, results_bytes


@dataclasses.dataclass
class Payload:
    x: float
    tags: tuple


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": np.bool_(True)})
        assert out == {"a": 1.5, "b": [0, 1, 2], "c": True}
        # numpy scalars become exact Python types, even float64, a float subclass
        assert [type(out[k]) for k in "abc"] == [float, list, bool]
        assert [type(v) for v in jsonable([np.float64(2.0), np.int64(1), 3, "s", None])] == [
            float, int, int, str, type(None)]

    def test_dataclass(self):
        out = jsonable(Payload(x=2.0, tags=("u", "v")))
        assert out == {"x": 2.0, "tags": ["u", "v"]}

    def test_non_finite_floats(self):
        out = jsonable({"inf": math.inf, "nan": math.nan})
        assert out["inf"] == "inf"
        assert out["nan"] == "nan"

    def test_nested(self):
        out = jsonable({"rows": [np.int64(2), {"z": np.array([1.0])}]})
        assert out == {"rows": [2, {"z": [1.0]}]}

    def test_plain_list_is_copied(self):
        plain = [1, "s", None, True]
        out = jsonable(plain)
        assert out == plain and out is not plain

    def test_plain_rows_are_copied(self):
        rows = [[1, 2], [3, True], [None, "s"], []]
        out = jsonable(rows)
        assert out == rows and out is not rows
        assert all(a is not b for a, b in zip(out, rows))
        assert [type(v) for v in out[1]] == [int, bool]
        assert jsonable([[1, np.int64(2)], [3, 4]]) == [[1, 2], [3, 4]]


_DTYPES = ["int8", "int64", "uint8", "uint64", "bool", "float16", "float32", "float64", "nonfinite", "complex128"]
_SHAPES = [(0,), (0, 2), (3, 0), (), (5,), (3, 4)]


def _array(kind, shape, rng):
    """A seeded array of dtype `kind` ("nonfinite": float64 holding nan and
    +-inf as well) spanning its whole range."""
    if kind == "bool":
        return np.asarray(rng.random(shape) < 0.5)
    if kind in ("float16", "float32", "float64", "nonfinite", "complex128"):
        dtype = np.float64 if kind == "nonfinite" else np.dtype(kind)
        top = int(np.log10(np.finfo(dtype).max)) - 1  # no overflow in the cast
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-top, top, shape)
        if kind == "complex128":
            a = a + 1j * rng.standard_normal(shape)
        if kind == "nonfinite":
            a.flat[:3] = [math.nan, math.inf, -math.inf][: a.size]
        return np.asarray(a, dtype=dtype)
    info = np.iinfo(kind)
    return np.asarray(rng.integers(info.min, info.max, shape, dtype=kind, endpoint=True))


class TestJsonableArrays:
    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("kind", _DTYPES)
    def test_array_converts_as_its_tolist(self, kind, shape):
        a = _array(kind, shape, np.random.default_rng(7))
        assert isinstance(a, np.ndarray) and a.shape == shape
        assert typed(jsonable(a)) == typed(jsonable(a.tolist()))

    def test_extreme_integers_and_nonfinite_floats(self):
        assert jsonable(np.array([2 ** 64 - 1, 0], dtype=np.uint64)) == [2 ** 64 - 1, 0]
        assert jsonable(np.array([[-(2 ** 63)], [2 ** 63 - 1]])) == [[-(2 ** 63)], [2 ** 63 - 1]]
        assert jsonable(np.array([1.5, math.nan, -math.inf])) == [1.5, "nan", "-inf"]
        assert jsonable(np.array(2.5)) == 2.5 and jsonable(np.array(True)) is True

    def test_long_doubles_round_to_double(self):
        # .item() of np.longdouble and np.clongdouble returns the same type
        assert typed(jsonable(np.longdouble(0.1))) == typed(0.1)
        assert jsonable([np.longdouble(math.inf), -np.longdouble(math.inf), np.longdouble(math.nan)]) == [
            "inf", "-inf", "nan"]
        rows = np.array([[0.25, math.inf], [-math.inf, math.nan]], dtype=np.longdouble)
        assert typed(jsonable(rows)) == typed([[0.25, "inf"], ["-inf", "nan"]])
        assert jsonable(np.clongdouble(1 + 2j)) == "(1+2j)"
        assert jsonable(np.array([1j, math.inf], dtype=np.clongdouble)) == ["1j", "(inf+0j)"]


_array_leaves = st.builds(
    _array, st.sampled_from(_DTYPES), st.sampled_from(_SHAPES), st.integers(0, 2 ** 32 - 1).map(np.random.default_rng)
)
_numpy_scalars = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64), st.floats().map(np.float64), st.booleans().map(np.bool_)
)
_numpy_trees = st.recursive(
    st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3), _array_leaves, _numpy_scalars),
    lambda children: (st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4)
                      | st.tuples(children, children)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_numpy_trees)
def test_trees_with_numpy_leaves_print_as_json_dumps(tree):
    plain = jsonable(tree)
    assert dumps(plain) == json.dumps(plain, sort_keys=True, indent=2)


def reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\u2028\xe9\u20ac\U0001f600'),
                          st.characters()), max_size=6)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 1e-300, 1e22, 5e-324]),
    _text,
)
_leaves = st.one_of(
    _scalars,
    st.lists(st.integers(), max_size=6),
    st.lists(st.booleans(), max_size=4),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
    # rows such as [x, y] pairs, some with a bool or an empty row
    st.lists(st.lists(st.integers(), min_size=1, max_size=3), max_size=6),
    st.lists(st.lists(st.one_of(st.integers(), st.booleans()), max_size=3), max_size=6),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_text, children, max_size=4),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_byte_identical_to_json(self, tree):
        assert dumps(tree) == reference_dumps(tree)

    @pytest.mark.parametrize("obj", [
        [True, False], [1, True, 0], {"b": [], "a": {}}, [[]], "", -0.0,
        [[1, 2], [3, 4]], [[0], [-(2 ** 70), 5, 6]], [[1, True], [0, 2]], [[1, 2], [False]],
        [[1, 2], []], [[1, 2], [3.5]], {"pairs": [[4, 1], [2, 3]]},
    ])
    def test_edge_cases(self, obj):
        assert dumps(obj) == reference_dumps(obj)

    # outside what jsonable returns (it makes keys str and non-finite floats
    # strings): dumps rejects these, and cli.main reports the ValueError
    @pytest.mark.parametrize("obj", [
        math.nan, [math.inf, -math.inf], (1, 2), {3: "x", 1: [2.5]}, {None: 0}, np.float64(0.1),
    ])
    def test_rejects_values_jsonable_never_returns(self, obj):
        with pytest.raises(ValueError):
            dumps(obj)

    def test_int_rows(self):
        rng = np.random.default_rng(0)
        cases = [
            rng.integers(-50, 10 ** 6, (40, 2)).tolist(), rng.integers(0, 9, (7, 5)).tolist(),
            [[1], [2, 3, 4], [5, 6]] * 5, {"a": [[1, 2]] * 9, "b": [[[3, 4], [5, 6]]]},
        ]
        for obj in cases:
            assert dumps(obj) == reference_dumps(obj)

    @pytest.mark.parametrize("obj", [
        # the same values at two indent levels, and at one level in blocks of
        # equal rows and of ragged rows (which the generic writer takes)
        {"a": [[1, 2], [2, 1]], "b": {"c": [[1, 2], [2, 1]]}, "d": [[[2, 1]], [[1, 2], [2, 1]]]},
        {"a": [[1, 2], [3, 4]], "b": [[1], [2, 3, 4]], "c": [[4, 3], [2, 1]]},
        # one row, and rows of length 1
        [[5, 6, 7]], [[4]], [[1], [2], [1]], {"x": [[0]], "y": [[0], [0]]},
        # beyond int64, and negatives (-1 and -2 share a hash)
        [[2 ** 63, -(2 ** 63) - 1], [2 ** 64 + 1, 2 ** 63]], [[-1, -2], [-2, -1]], [[-(10 ** 30)], [10 ** 30]],
        # ragged blocks, one of them with as many entries as rows times the first
        # row's length, which a row-length check must not take for equal rows
        [[1, 2, 3], [4], [5, 6]], [[1, 2], [3], [4, 5, 6]], [[7], [7, 7]],
    ])
    def test_int_row_tokens(self, obj):
        assert dumps(obj) == reference_dumps(obj)

    @staticmethod
    def readme_examples():
        readme = Path(__file__).resolve().parents[1] / "README.md"
        return [line.split()[1:] for line in readme.read_text().splitlines()
                if re.match(r"roelab \w", line)]

    def test_readme_examples_and_a_graph_report(self):
        examples = self.readme_examples() + [["space", "gen", "--regular", "64,4"]]
        assert len(examples) > 5
        for argv in examples:
            report = run(argv)[0]
            assert dumps(report) == reference_dumps(report), argv


class TestResultsBytes:
    def test_key_order_independent(self):
        a = results_bytes({"x": 1, "y": 2})
        b = results_bytes({"y": 2, "x": 1})
        assert a == b

    def test_value_sensitivity(self):
        assert results_bytes({"x": 1}) != results_bytes({"x": 2})


class TestReportDiff:
    def test_identical_reports(self):
        r = make_report("m.a", {"seed": 0}, {"v": 1.0}, 0.1)
        assert report_diff(r, r) == []

    def test_tolerance(self):
        a = make_report("m.a", {}, {"v": 1.0}, 0.1)
        b = make_report("m.a", {}, {"v": 1.0 + 1e-9}, 0.2)
        assert report_diff(a, b, tol=1e-6) == []
        assert report_diff(a, b, tol=0.0) != []

    def test_nested_paths(self):
        a = make_report("m.a", {}, {"outer": {"inner": [1, 2]}}, 0.0)
        b = make_report("m.a", {}, {"outer": {"inner": [1, 3]}}, 0.0)
        diffs = report_diff(a, b)
        assert diffs == [("results.outer.inner[1]", "2 != 3")]

    def test_missing_key(self):
        a = make_report("m.a", {}, {"x": 1}, 0.0)
        b = make_report("m.a", {}, {"y": 1}, 0.0)
        paths = {p for p, _ in report_diff(a, b)}
        assert paths == {"results.x", "results.y"}

    def test_length_mismatch(self):
        a = make_report("m.a", {}, {"x": [1]}, 0.0)
        b = make_report("m.a", {}, {"x": [1, 2]}, 0.0)
        assert report_diff(a, b) == [("results.x", "length 1 != 2")]

    def test_changed_string_and_bool(self):
        # the reference check of the benchmark reads a flipped verdict or flag here
        a = make_report("m.a", {}, {"verdict": "PASS", "holds": True, "n": 3}, 0.0)
        b = make_report("m.a", {}, {"verdict": "FAIL", "holds": False, "n": 3}, 0.0)
        assert report_diff(a, b, tol=1.0) == [
            ("results.holds", "True != False"),
            ("results.verdict", "'PASS' != 'FAIL'"),
        ]

    def test_different_commands_raise(self):
        a = make_report("m.a", {}, {}, 0.0)
        b = make_report("m.b", {}, {}, 0.0)
        with pytest.raises(SchemaMismatch):
            report_diff(a, b)


def test_make_report_shape():
    r = make_report("m.a", {"seed": np.int64(3)}, {"v": np.float64(2.0)}, 0.5)
    assert set(r) == {"command", "config", "version", "wall_time_s", "results"}
    assert r["config"] == {"seed": 3}
    assert r["results"] == {"v": 2.0}

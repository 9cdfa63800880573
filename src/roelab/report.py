"""Deterministic JSON reports and tolerance-aware report diffing.

A report is built in two passes, each of which visits a value once:
`jsonable` turns results into a plain JSON tree, and `dumps` writes that
tree as indented JSON into one list of text pieces that it joins once.
Integer rows (a distance matrix, the [x, y] pairs of a partial
translation) are best handed to `jsonable` as a 2-D numpy array: they
become lists by one ``tolist()``, with no per-element scan, and `dumps`
type-scans them once and writes them from per-value tokens.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import SchemaMismatch

TOOL_VERSION = "0.1.0"


_PLAIN = frozenset((int, str, bool, type(None)))


def jsonable(obj):
    """Convert results (dataclasses, numpy scalars/arrays, tuples) to plain JSON types.

    Each value is visited once. A list of plain values (exact int, str, bool,
    None), or of rows of them, is copied by one type scan. An integer,
    unsigned or bool numpy array is returned as its fresh ``tolist()``, which
    holds only exact int or bool, without an element scan. Any other array
    goes through its ``tolist()`` element by element, so a non-finite float
    becomes its repr string ("nan", "inf") and a complex value its repr.
    """
    t = type(obj)
    # exact types: np.float64 subclasses float and np.bool_ is not bool
    if t in _PLAIN:
        return obj
    if t is list:
        types = set(map(type, obj))
        if _PLAIN.issuperset(types):
            return list(obj)
        if types == {list} and _PLAIN.issuperset(map(type, chain.from_iterable(obj))):
            return list(map(list, obj))  # rows of plain values, such as [x, y] pairs
        return [v if type(v) in _PLAIN else jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu":
            return obj.tolist()
        return jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        value = obj.item()
        if type(value) is t:  # np.longdouble and np.clongdouble return themselves
            value = complex(obj) if isinstance(obj, np.complexfloating) else float(obj)
        return jsonable(value)
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return repr(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, of a plain
    tree as `jsonable` returns it: exact dicts with str keys, lists, str, int,
    bool, None and finite floats. Anything else (a tuple, a non-str key, a
    non-finite or numpy float) raises ValueError.

    With an indent CPython runs its pure-Python encoder; this writer emits the
    same text. Every value appends its pieces to one list, which is joined
    once at the end, so no value's text is copied by the levels that enclose
    it. A list whose elements are all exact ints is one piece, and a list of
    nonempty lists of exact ints, such as [x, y] pairs or a distance matrix,
    is written from per-value tokens built once per call (`_int_rows`).
    """
    out: list = []
    _write(obj, "\n", {}, out)
    return "".join(out)


def _write(obj, newline: str, memo: dict, out: list) -> None:
    """Append the pieces of `obj` as indented JSON to `out`; `newline` is a
    line break plus its level's indent, and `memo` holds `_int_rows`' tokens
    for the whole call."""
    t = type(obj)
    if t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        types = set(map(type, obj))
        # exact int only: a bool must print as true/false, not as 1/0
        if types == {int}:
            out += "[" + inner, sep.join(map(int.__repr__, obj)), newline + "]"
        elif types == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            _int_rows(obj, newline, memo, out)
        else:
            lead = "[" + inner
            for v in obj:
                out.append(lead)
                lead = sep
                _write(v, inner, memo, out)
            out.append(newline + "]")
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        if set(map(type, obj)) != {str}:
            raise ValueError("dumps writes only str keys")
        inner = newline + "  "
        sep = "," + inner
        lead = "{" + inner
        for k, v in sorted(obj.items()):
            out.append(f"{lead}{encode_basestring_ascii(k)}: ")
            lead = sep
            _write(v, inner, memo, out)
        out.append(newline + "}")
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is float and math.isfinite(obj):
        out.append(float.__repr__(obj))
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    else:
        raise ValueError(f"dumps cannot write {reprlib.repr(obj)}: not a value that jsonable returns")


class _Tokens(dict):
    """The text of each exact int followed by `suffix`, built on first lookup."""

    def __init__(self, suffix: str):
        super().__init__()
        self.suffix = suffix

    def __missing__(self, v):
        token = self[v] = int.__repr__(v) + self.suffix
        return token


def _int_rows(rows: list, newline: str, memo: dict, out: list) -> None:
    """Append the indented text of a list of nonempty rows of exact ints, such
    as [x, y] pairs or a distance matrix, at the level of `newline` to `out`.

    Every entry is one token, its digits and what follows it: the comma and
    line break to the next entry of its row, or at a row's end the row's
    closing bracket, the comma and the next row's opening. The tokens of each
    value are built once per `newline` in `memo`, `out` is extended by one
    token per entry, and the row ends are set by one slice assignment when
    all rows have the same length.
    """
    inner = newline + "  "
    row = inner + "  "
    if newline not in memo:
        memo[newline] = _Tokens("," + row), _Tokens(f"{inner}],{inner}[{row}")
    within, end = memo[newline]
    start = len(out)
    out += map(within.__getitem__, chain.from_iterable(rows))
    lasts = map(itemgetter(-1), rows)
    if len(set(map(len, rows))) == 1:
        width = len(rows[0])
        out[start + width - 1 :: width] = map(end.__getitem__, lasts)
    else:
        for stop, v in zip(accumulate(map(len, rows)), lasts):
            out[start + stop - 1] = end[v]
    # the last entry first: with one entry the two are the same token
    out[-1] = f"{int.__repr__(rows[-1][-1])}{inner}]{newline}]"
    out[start] = f"[{inner}[{row}{out[start]}"


def results_bytes(results: dict) -> bytes:
    """Canonical byte serialization of a results section."""
    return json.dumps(jsonable(results), sort_keys=True, separators=(",", ":")).encode()


def make_report(command: str, config: dict, results: dict, wall_time: float) -> dict:
    return {
        "command": command,
        "config": jsonable(config),
        "version": TOOL_VERSION,
        "wall_time_s": wall_time,
        "results": jsonable(results),
    }


def report_diff(a: dict, b: dict, tol: float = 0.0) -> list:
    """Field-wise differences of two reports' results sections, up to tolerance."""
    if a.get("command") != b.get("command"):
        raise SchemaMismatch("reports come from different commands")
    diffs: list = []
    _diff(a.get("results"), b.get("results"), "results", tol, diffs)
    return diffs


def _diff(x, y, path, tol, out):
    if isinstance(x, dict) and isinstance(y, dict):
        for k in sorted(set(x) | set(y)):
            if k not in x or k not in y:
                out.append((path + "." + str(k), "missing"))
            else:
                _diff(x[k], y[k], path + "." + str(k), tol, out)
        return
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            out.append((path, f"length {len(x)} != {len(y)}"))
            return
        for i, (xv, yv) in enumerate(zip(x, y)):
            _diff(xv, yv, f"{path}[{i}]", tol, out)
        return
    if isinstance(x, (int, float)) and isinstance(y, (int, float)) and not (
        isinstance(x, bool) or isinstance(y, bool)
    ):
        if abs(float(x) - float(y)) > tol:
            out.append((path, f"{x} != {y}"))
        return
    if x != y:
        out.append((path, f"{x!r} != {y!r}"))

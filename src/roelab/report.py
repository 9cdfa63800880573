"""Deterministic JSON reports and tolerance-aware report diffing."""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import SchemaMismatch

TOOL_VERSION = "0.1.0"


_PLAIN = frozenset((int, str, bool, type(None)))
# dumps encodes lists of int rows about ROWS_CHUNK ints at a time
ROWS_CHUNK = 1 << 10


def jsonable(obj):
    """Convert results (dataclasses, numpy scalars/arrays, tuples) to plain JSON types."""
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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "ndim") and getattr(obj, "ndim") > 0:
        return jsonable(obj.tolist())
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return jsonable(obj.item())
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return repr(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "tolist"):
        return jsonable(obj.tolist())
    return repr(obj)


class _Fallback(Exception):
    """A value outside the trees `jsonable` returns; `dumps` hands it to json."""


def dumps(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    With an indent CPython runs its pure-Python encoder; this writer emits the
    same text for the plain trees `jsonable` returns (exact dict with str keys,
    list, str, int, bool, None and finite float), joins a list whose elements
    are all exact ints in one ``str.join``, and a list of nonempty lists of
    exact ints, such as [x, y] pairs, in one pass over its rows. Any other
    value sends the whole object to ``json.dumps``, so the bytes cannot
    drift.
    """
    try:
        return _write(obj, "\n")
    except _Fallback:
        return json.dumps(obj, sort_keys=True, indent=2)


def _write(obj, newline: str) -> str:
    """`obj` as indented JSON; `newline` is a line break plus its level's indent."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        types = set(map(type, obj))
        # exact int only: a bool must print as true/false, not as 1/0
        if types == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif types == {list} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            body = sep.join(_int_rows(obj, inner))
        else:
            body = sep.join([_write(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]"
    if t is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _Fallback  # json converts such keys after sorting them
        inner = newline + "  "
        body = ("," + inner).join([
            f"{encode_basestring_ascii(k)}: {_write(v, inner)}" for k, v in sorted(obj.items())
        ])
        return f"{{{inner}{body}{newline}}}"
    if t is int:
        return int.__repr__(obj)
    if t is float and math.isfinite(obj):
        return float.__repr__(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    raise _Fallback


def _int_rows(rows: list, newline: str):
    """Indented text of nonempty rows of exact ints, such as [x, y] pairs, at
    the level of `newline`, in pieces to be joined by "," + newline.

    Each piece covers about ROWS_CHUNK ints, written compactly by the C
    encoder and indented by two replacements: in "1,2],[3" every comma
    separates ints, then every "],[" (spread by the first replacement)
    separates rows. The pieces keep the compact copies small.
    """
    row = newline + "  "
    gap = f"{newline}],{newline}[{row}"
    step = max(1, ROWS_CHUNK // max(map(len, rows)))
    for s in range(0, len(rows), step):
        text = json.dumps(rows[s : s + step], separators=(",", ":"))[2:-2]
        text = text.replace(",", "," + row).replace(f"],{row}[", gap)
        yield f"[{row}{text}{newline}]"


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

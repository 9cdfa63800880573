"""Output check: each task's report against reference results recorded at the
commit that introduced the benchmark.

Results are compared with ``roelab.report.report_diff`` at FLOAT_TOL (absolute).
Integer-only lists longer than BIG_LIST leaves (distance matrices) are compared
through a SHA-256 digest. Fields that planned changes are expected to alter
are checked by invariant instead of equality:

- translation parts: an exact partition of the R-band into partial
  translations, with at most 2 N_X(R) parts;
- gap certificate: every per-translation sup below (1 + eps)/sqrt(n) + CERT_TOL,
  at most 2 N_X(R) of them, and the tensor norm in [1 - eps - CERT_TOL, 1 + CERT_TOL].

Fields a report gains after the reference was recorded are ignored; fields it
loses are failures.
"""

from __future__ import annotations

import hashlib
import json
import math

FLOAT_TOL = 1e-8
CERT_TOL = 1e-7
BIG_LIST = 1000


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _int_leaves(obj):
    """Number of leaves if obj is a (nested) list of plain ints, else None."""
    if isinstance(obj, list):
        total = 0
        for v in obj:
            c = _int_leaves(v)
            if c is None:
                return None
            total += c
        return total
    return 1 if type(obj) is int else None


def reduce(obj):
    """Replace long integer-only lists by their digest, recursively."""
    if isinstance(obj, dict):
        return {k: reduce(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) > 0 and isinstance(obj[0], (list, int)) and (_int_leaves(obj) or 0) > BIG_LIST:
            return {"sha256": digest(obj), "len": len(obj)}
        return [reduce(v) for v in obj]
    return obj


def _prune(fresh, ref):
    """fresh restricted to the keys ref has, so that added fields are ignored."""
    if isinstance(fresh, dict) and isinstance(ref, dict):
        return {k: _prune(v, ref[k]) if k in ref else v for k, v in fresh.items() if k in ref}
    if isinstance(fresh, list) and isinstance(ref, list) and len(fresh) == len(ref):
        return [_prune(a, b) for a, b in zip(fresh, ref)]
    return fresh


def band_pairs(parts) -> list:
    return sorted((x, y) for p in parts for x, y in p["pairs"])


def split_invariant_fields(kind: str, results: dict):
    """(results without invariant-checked fields, the fields taken out)."""
    results = dict(results)
    taken = {}
    if kind == "decompose":
        for key in ("decomposition", "part_count", "cap"):
            taken[key] = results.pop(key)
        results["decomposition_R"] = taken["decomposition"]["R"]
    elif kind == "gap-cert":
        for key in ("per_translation_sup", "tensor_value"):
            taken[key] = results.pop(key)
    return results, taken


def reference_entry(kind: str, report: dict, growth=None) -> dict:
    """What the reference file stores for one task."""
    results, taken = split_invariant_fields(kind, report["results"])
    entry = {"command": report["command"], "results": reduce(results)}
    if kind == "decompose":
        pairs = band_pairs(taken["decomposition"]["parts"])
        entry["band"] = {"pairs": len(pairs), "sha256": digest(pairs), "growth": growth}
    return entry


def _check_partition(taken: dict, results: dict, band: dict) -> list:
    parts = taken["decomposition"]["parts"]
    errors = []
    for i, part in enumerate(parts):
        xs = [x for x, _ in part["pairs"]]
        ys = [y for _, y in part["pairs"]]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            errors.append(f"part {i} is not a partial translation")
    pairs = band_pairs(parts)
    if len(set(pairs)) != len(pairs):
        errors.append("parts overlap")
    if len(pairs) != band["pairs"] or digest(pairs) != band["sha256"]:
        errors.append("parts do not cover exactly the R-band")
    if len(parts) > 2 * band["growth"]:
        errors.append(f"{len(parts)} parts exceed 2 N_X(R) = {2 * band['growth']}")
    if taken["part_count"] != len(parts):
        errors.append("part_count differs from the number of parts")
    if results.get("within_cap") is not True:
        errors.append("within_cap is not true")
    return errors


def _check_gap_cert(taken: dict, results: dict) -> list:
    eps, n = results["eps_achieved"], results["n"]
    sups, tensor = taken["per_translation_sup"], taken["tensor_value"]
    errors = []
    if len(sups) > 2 * results["growth_N"]:
        errors.append("more translation sups than 2 N_X(R)")
    if any(not s <= (1.0 + eps) / math.sqrt(n) + CERT_TOL for s in sups):
        errors.append("a translation sup exceeds (1 + eps)/sqrt(n)")
    if not 1.0 - eps - CERT_TOL <= tensor <= 1.0 + CERT_TOL:
        errors.append(f"tensor value {tensor} outside [1 - eps, 1]")
    return errors


def check(kind: str, report: dict, ref: dict, report_diff) -> list:
    """Problems with one task's report; empty when it matches its reference."""
    if report.get("command") != ref["command"]:
        return [f"command {report.get('command')!r} != {ref['command']!r}"]
    results, taken = split_invariant_fields(kind, report["results"])
    if kind == "decompose":
        errors = _check_partition(taken, report["results"], ref["band"])
    elif kind == "gap-cert":
        errors = _check_gap_cert(taken, report["results"])
    else:
        errors = []
    fresh = {"command": report["command"], "results": _prune(reduce(results), ref["results"])}
    diffs = report_diff(ref, fresh, tol=FLOAT_TOL)
    return errors + [f"{path}: {what}" for path, what in diffs[:5]]

"""Span tracing of roelab's public functions, installed from outside the package.

Each wrapped function records one span per outermost call: name, start, end,
parent span and task id. Wrappers are installed in every roelab module
namespace (and class) that holds the original object, because
``from .operators import operator_norm`` binds a separate reference in each
importing module, and are all removed by ``uninstall``.

Work counts are computed from arguments and results only.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter

MODULES = ("spaces", "operators", "translations", "reps", "randsub", "quasilocal", "propa", "report", "cli")

# (module, metric name, attribute path inside the module)
WRAPPED = (
    ("spaces", "FiniteMetricSpace", "FiniteMetricSpace.__init__"),
    ("spaces", "from_graph", "from_graph"),
    ("spaces", "random_regular", "random_regular"),
    ("spaces", "coarse_union", "coarse_union"),
    ("spaces", "expansion_kappa", "expansion_kappa"),
    ("spaces", "growth", "growth"),
    ("spaces", "load_space", "load_space"),
    ("operators", "operator_norm", "operator_norm"),
    ("operators", "sigma_max", "_sigma_max"),
    ("operators", "eps_propagation_radius", "eps_propagation_radius"),
    ("operators", "dist_to_band_bounds", "dist_to_band_bounds"),
    ("operators", "band_truncate", "band_truncate"),
    ("translations", "decompose_band", "decompose_band"),
    ("translations", "schur_restrict", "schur_restrict"),
    ("reps", "gap_certificate", "gap_certificate"),
    ("reps", "averaged_norm", "averaged_norm"),
    ("reps", "heisenberg_rep", "heisenberg_rep"),
    ("reps", "certificate", "UnitaryRep.certificate"),
    ("randsub", "restricted_norm_max", "restricted_norm_max"),
    ("randsub", "sample_subspace", "sample_subspace"),
    ("randsub", "mc_lemma_random", "mc_lemma_random"),
    ("randsub", "levy_median_check", "levy_median_check"),
    ("quasilocal", "regular_family", "regular_family"),
    ("quasilocal", "select_subspaces", "select_subspaces"),
    ("quasilocal", "assemble", "assemble"),
    ("quasilocal", "quasilocality_profile", "quasilocality_profile"),
    ("quasilocal", "mechanism_check", "mechanism_check"),
    ("quasilocal", "non_band_witness", "non_band_witness"),
    ("propa", "interval_space", "interval_space"),
    ("propa", "uniform_ball_kernel", "uniform_ball_kernel"),
    ("propa", "isometry_field", "isometry_field"),
    ("propa", "phi_nu", "phi_nu"),
    ("propa", "sz_approximate", "sz_approximate"),
    ("propa", "rademacher_diagnostics", "rademacher_diagnostics"),
    ("report", "jsonable", "jsonable"),
    ("report", "make_report", "make_report"),
    ("cli", "main", "main"),
    ("cli", "run", "run"),
)

COUNTS = (
    ("spaces.pairs_built", "count"),
    ("operators.sigma_max.entries", "count"),
    ("operators.operator_norm.entries", "count"),
    ("translations.parts_per_growth", "ratio"),
    ("randsub.restricted_norm_max.exact_subsets", "count"),
    ("randsub.restricted_norm_max.greedy_calls", "count"),
    ("quasilocal.accept_ratio", "ratio"),
    ("report.bytes_out", "bytes"),
)

OVERHEAD = "trace.overhead_s"


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, name, _ in WRAPPED:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.share"] = "fraction"
        units[f"{module}.errors"] = "count"
    units.update(COUNTS)
    units[OVERHEAD] = "s"
    return units


def _entries(mat) -> int:
    shape = getattr(mat, "shape", ())
    return int(math.prod(shape)) if shape else 1


class Tracer:
    """Installs span-recording wrappers, keeps spans in memory, aggregates them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, task id, raised]
        self.stack: list = []
        self.active: set = set()
        self.task = -1
        self.counts = {name: 0 for name, _ in COUNTS}
        self.parts = 0
        self.growth_total = 0
        self.accepted = 0
        self.draws = 0
        self.missing: list = []
        self._plan = None
        self._growth = None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._find()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)

    def _find(self) -> list:
        """(owner, attribute, original, wrapper) for every place a wrapped object is bound."""
        mods = {m: sys.modules[f"roelab.{m}"] for m in MODULES}
        holders = [mod for key, mod in sys.modules.items() if key == "roelab" or key.startswith("roelab.")]
        self._growth = getattr(mods["spaces"], "growth", None)
        plan = []
        for module, name, path in WRAPPED:
            owner = mods[module]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module}.{name}")
                continue
            wrapper = self._wrap(f"{module}.{name}", original, getattr(self, f"_count_{name}", None))
            if owner_path:  # a method: replace it on its class only
                plan.append((owner, attr, original, wrapper))
                continue
            for holder in holders:
                for key, value in vars(holder).items():
                    if value is original:
                        plan.append((holder, key, original, wrapper))
        return plan

    def _wrap(self, name, fn, counter):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:  # recursive call: covered by the outermost span
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, False]
            stack.append(len(spans))
            spans.append(span)
            active.add(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                active.discard(name)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # ------------------------------------------------------------ work counts

    def _count_FiniteMetricSpace(self, args, kwargs, result):
        self.counts["spaces.pairs_built"] += args[0].n ** 2

    def _count_sigma_max(self, args, kwargs, result):
        self.counts["operators.sigma_max.entries"] += _entries(args[0])

    def _count_operator_norm(self, args, kwargs, result):
        self.counts["operators.operator_norm.entries"] += _entries(args[0])

    def _count_decompose_band(self, args, kwargs, result):
        space = args[0] if args else kwargs["space"]
        R = args[1] if len(args) > 1 else kwargs["R"]
        self.parts += len(result.parts)
        self.growth_total += self._growth(space, R)

    def _count_restricted_norm_max(self, args, kwargs, result):
        sample = args[0] if args else kwargs["sample"]
        delta = args[1] if len(args) > 1 else kwargs["delta"]
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
        if mode == "greedy":
            self.counts["randsub.restricted_norm_max.greedy_calls"] += 1
        else:
            self.counts["randsub.restricted_norm_max.exact_subsets"] += math.comb(
                sample.d, int(math.floor(delta * sample.d))
            )

    def _count_select_subspaces(self, args, kwargs, result):
        samples, rejects = result
        self.accepted += len(samples)
        self.draws += len(samples) + sum(rejects)

    # ------------------------------------------------------------ aggregate

    def self_times(self) -> list:
        """Self time of each span: its duration minus the time its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, task_wall_s: float, bytes_out: int, overhead_s: float) -> dict:
        """Every per-layer metric as {name: value}; see ``metric_units``."""
        out = {name: 0 for name in metric_units()}
        own = self.self_times()
        module_of = {f"{m}.{n}": m for m, n, _ in WRAPPED}
        for span, t in zip(self.spans, own):
            name = span[0]
            module = module_of[name]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += t
            out[f"{module}.self_s"] += t
            parent = span[3]
            if span[5] and (parent < 0 or module_of[self.spans[parent][0]] != module):
                out[f"{module}.errors"] += 1
        for module in MODULES:
            out[f"{module}.share"] = out[f"{module}.self_s"] / task_wall_s if task_wall_s > 0 else 0.0
        out.update(self.counts)
        out["translations.parts_per_growth"] = self.parts / self.growth_total if self.growth_total else 0.0
        out["quasilocal.accept_ratio"] = self.accepted / self.draws if self.draws else 0.0
        out["report.bytes_out"] = bytes_out
        out[OVERHEAD] = overhead_s
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "raised": raised}) + "\n")

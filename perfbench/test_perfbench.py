"""Self-checks of the benchmark: tracing leaves no trace, self times add up,
and every workload runs clean on a held-out seed.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run
import workloads
from tracer import MODULES, Tracer, metric_units

HELD_OUT_SEED = 424242
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _one_of_each():
    """One task of every certify_small and quasilocal template, and the N = 200
    band_approx ones: together they reach all nine modules."""
    templates = workloads.CERTIFY_SMALL + workloads.QUASILOCAL
    templates += tuple(t for t in workloads.BAND_APPROX if "N200" in t.name)
    return [t.task(t.instances[0]) for t in templates]


def _call(cli, task):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(task.argv))
    return code, out.getvalue()


def test_tracer_is_removed_and_self_times_add_up():
    cli, report, _ = run.setup("certify_small")
    tasks = _one_of_each()

    def results(task):
        code, text = _call(cli, task)
        assert code == 0
        return report.results_bytes(json.loads(text)["results"])

    before = [results(t) for t in tasks]
    tracer = Tracer()
    tracer.install()
    try:
        traced_walls = []
        for index, task in enumerate(tasks):
            tracer.task = index
            start = run.perf_counter()
            _call(cli, task)
            traced_walls.append(run.perf_counter() - start)
    finally:
        tracer.uninstall()

    wrapped = [
        f"{name}.{key}"
        for name, mod in sys.modules.items()
        if name == "roelab" or name.startswith("roelab.")
        for key, value in list(vars(mod).items())
        + [(f"{k}.{m}", getattr(v, m)) for k, v in vars(mod).items() if isinstance(v, type) for m in dir(v)]
        if getattr(value, "__perfbench_wrapper__", False)
    ]
    assert wrapped == []
    assert not tracer.missing
    assert [results(t) for t in tasks] == before

    values = tracer.metrics(sum(traced_walls), 0, 0.0)
    modules_total = sum(values[f"{m}.self_s"] for m in MODULES)
    assert abs(modules_total - sum(traced_walls)) <= 0.05 * sum(traced_walls)
    # every span's self time is nonnegative, so no time is counted twice
    assert min(tracer.self_times()) >= 0
    assert {s[0].split(".")[0] for s in tracer.spans} == set(MODULES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_held_out_seed(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(HELD_OUT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= len(workloads.WORKLOADS[workload])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert set(result["metrics"]) == set(metric_units())

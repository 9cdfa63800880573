"""Every benchmark task, run through the CLI, matches the benchmark's recorded
reference results, so that a moved witness, bound, certificate or partition
fails here and not only in a benchmark run. The perfbench modules are loaded
read-only; the graph inputs some tasks read are written under a temporary
directory."""

import contextlib
import functools
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from roelab.cli import main
from roelab.report import report_diff

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@functools.cache
def _references(workload):
    return json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["tasks"]


def _tasks(workload):
    return pytest.mark.parametrize("task", workloads.all_tasks(workload), ids=lambda t: t.key)


def _check(workload, task, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the graph inputs live under a relative path
    workloads.write_inputs([task])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(task.argv)) == 0
    ref = _references(workload)[task.key]
    assert checks.check(task.kind, json.loads(out.getvalue()), ref, report_diff) == []


@_tasks("certify_small")
def test_certify_small_task_matches_reference(task, tmp_path, monkeypatch):
    _check("certify_small", task, tmp_path, monkeypatch)


@_tasks("graph_scale")
def test_graph_scale_task_matches_reference(task, tmp_path, monkeypatch):
    _check("graph_scale", task, tmp_path, monkeypatch)


@_tasks("band_approx")
def test_band_approx_task_matches_reference(task, tmp_path, monkeypatch):
    _check("band_approx", task, tmp_path, monkeypatch)


@_tasks("quasilocal")
def test_quasilocal_task_matches_reference(task, tmp_path, monkeypatch):
    _check("quasilocal", task, tmp_path, monkeypatch)

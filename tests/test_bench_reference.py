"""The quasilocal benchmark tasks, run through the CLI, match the benchmark's
recorded reference results, so that a moved witness or bound fails here and
not only in a benchmark run. The perfbench modules are loaded read-only."""

import contextlib
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


@pytest.mark.parametrize("task", workloads.all_tasks("quasilocal"), ids=lambda t: t.key)
def test_quasilocal_task_matches_reference(task):
    refs = json.loads((PERFBENCH / "reference" / "quasilocal.json").read_text())["tasks"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(task.argv)) == 0
    assert checks.check(task.kind, json.loads(out.getvalue()), refs[task.key], report_diff) == []

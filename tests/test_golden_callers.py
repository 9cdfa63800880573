"""Every function in src/roelab has a golden caller: some README example or
benchmark task calls it, or it is on ALLOWED with the reason it has none.

The golden lines are every ``roelab ...`` line of README.md and every task of
perfbench/workloads.py. They run in a fresh interpreter, which installs a
profile hook before roelab is imported, so that calls made at import time
count too. The perfbench modules are loaded read-only; the graph inputs some
tasks read are written under a temporary directory.

Run as a script (``python tests/test_golden_callers.py DIR``), this file
traces the golden lines in DIR and prints the calls as JSON.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "roelab"

# function -> why no golden line calls it
ALLOWED = {
    "cli._Parser.error": "usage-error path",
    "cli.run": "perfbench tracer wraps it",
    "operators.band_truncate": "perfbench tracer wraps it (ROADMAP item 9)",
    "translations.schur_restrict": "perfbench tracer wraps it (ROADMAP item 9)",
    "report.report_diff": "perfbench reference check",
    "report._diff": "perfbench reference check",
    "report.results_bytes": "perfbench self-test",
    "operators.complex_from_pairs": "reads --op and file: inputs, which a README line cannot ship",
    "operators.SpaceOperator.from_json": "reads --op inputs, which a README line cannot ship",
    "propa.commutator_bound_check": "acceptance criterion 08; ROADMAP item 11 gives it a caller",
}


def _defs() -> dict:
    """(module file, first line of its code object) -> qualified name, for every
    def in src/roelab, methods and nested functions included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                # a decorated function's code object starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def _golden_lines() -> list:
    """argv of every README example and every benchmark task; writes the space
    files that the tasks read into the working directory."""
    readme = [
        shlex.split(line)[1:]
        for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("roelab ")
    ]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    tasks = [t for name in workloads.WORKLOADS for t in workloads.all_tasks(name)]
    workloads.write_inputs(tasks)
    return readme + [list(t.argv) for t in tasks]


def _trace(workdir: str) -> dict:
    """Run every golden line in workdir under a profile hook; the (file, line)
    of every roelab code object called, and the lines that did not exit 0."""
    os.chdir(workdir)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(SRC.parent))
    sys.setprofile(profile)
    from roelab.cli import main

    failed = []
    for argv in _golden_lines():
        with contextlib.redirect_stdout(io.StringIO()):
            if main(argv) != 0:
                failed.append(argv)
    sys.setprofile(None)
    ours = [c for c in called if Path(c.co_filename).resolve().parent == SRC]
    return {
        "called": sorted((Path(c.co_filename).name, c.co_firstlineno) for c in ours),
        "failed": failed,
    }


def test_every_function_has_a_golden_caller(tmp_path):
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, check=True
    )
    traced = json.loads(proc.stdout)
    assert traced["failed"] == []
    called = set(map(tuple, traced["called"]))
    missed = {name for where, name in _defs().items() if where not in called}
    assert sorted(missed - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - missed) == []  # a stale entry fails too


if __name__ == "__main__":
    print(json.dumps(_trace(sys.argv[1])))

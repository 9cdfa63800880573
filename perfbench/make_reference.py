"""Record the reference results the benchmark's output check compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs every task any seed can produce (every template at every pool index) and
writes perfbench/reference/<workload>.json. Run it only when results are meant
to change, and say in CHANGES.md why they moved.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run
import workloads
from checks import FLOAT_TOL, check, reference_entry


def record(workload: str) -> dict:
    cli, report, _ = run.setup(workload)
    from roelab import spaces

    tasks = workloads.all_tasks(workload)
    entries = {}
    for task in tasks:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(task.argv))
        if code != 0:
            raise SystemExit(f"{task.key}: exit code {code}")
        rep = json.loads(out.getvalue())
        growth = None
        if task.kind == "decompose":
            argv = task.argv
            _, n, d, s = argv[argv.index("--space") + 1].split(":")
            space = spaces.random_regular(int(n), int(d), int(s))
            growth = spaces.growth(space, float(argv[argv.index("-R") + 1]))
        entries[task.key] = reference_entry(task.kind, rep, growth)
        problems = check(task.kind, rep, entries[task.key], report.report_diff)
        if problems:
            raise SystemExit(f"{task.key}: reference fails its own invariants: {problems}")
        print(f"{workload} {task.key}", file=sys.stderr)
    return {"float_tol": FLOAT_TOL, "tasks": entries}


def main(names) -> None:
    for workload in names or sorted(workloads.WORKLOADS):
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(workload), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

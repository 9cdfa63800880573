"""roelab benchmark: seeded CLI task streams, timed end to end or traced per module.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify_small --seed 1 --seconds 30 --trace 0

Each task is one in-process call of ``roelab.cli.main(argv)`` with stdout
captured in memory, run in a closed loop by a single client. A run does
whole cycles of the workload (see ``workloads``) for at most ``--seconds``,
at least one, so every run does the same mix of work. Every task's report is
checked against the recorded reference (see ``checks``).

--trace 0 reports the end-to-end metrics. --trace 1 runs each task untraced
and then with every public roelab function wrapped (see ``tracer``), and
reports the per-layer metrics; spans go to .bench_build/perfbench/spans/.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, thread_time
from typing import NamedTuple

import workloads
from checks import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".bench_build") / "perfbench"
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s", "peak_rss_mib": "MiB"}
# one probe's CPU time, taken while tasks run, on the host the benchmark was
# introduced on (2-vCPU Xeon VM); probe period; least number of probes that
# set a task's scale
PROBE_REF_S = 0.0005
PROBE_PERIOD_S = 0.025
PROBE_MIN = 5


class Ran(NamedTuple):
    start: float  # perf_counter() when the task started
    wall: float  # seconds
    cpu: float  # CPU seconds of the main thread
    failure: object  # None, or what went wrong
    nbytes: int  # bytes the task printed


def _scale(probe_cpus) -> float:
    """Factor from CPU seconds measured alongside these probe times to CPU
    seconds on the reference host."""
    return PROBE_REF_S / statistics.median(probe_cpus)


class HostProbe:
    """Times a fixed mix of interpreter and small-LAPACK work that does not use roelab.

    The shared host this benchmark was built on changes under a run: its
    hypervisor takes the CPU away for up to a fifth of the wall time in
    stretches of seconds, and the CPU runs up to 1.9x slower from one half
    second to the next. So a task is timed by the CPU time of the main
    thread, which leaves the stolen time out, and scaled by PROBE_REF_S /
    (median CPU time of the probes during the task). Inside ``with probe:``
    the probe runs from a timer signal every PROBE_PERIOD_S, in the middle of
    whatever task is running; a task during which fewer than PROBE_MIN probes
    ran takes the PROBE_MIN nearest to it.

    Scaled wall times spread about twice as widely between runs, because the
    median probe misses the stolen time; a probe run after each task instead
    of during it missed half of the changes of speed.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self._norm = numpy.linalg.norm
        self._mats = [rng.standard_normal((12, 12)) for _ in range(4)]
        self._adj = [[(v * 7 + k) % 64 for k in (1, 5, 11)] for v in range(64)]
        self.samples: list = []  # (start, wall seconds, CPU seconds)
        # left installed: a signal still pending when the timer stops must
        # not reach the default action, which ends the process
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start, cpu = perf_counter(), thread_time()
        for m in self._mats:
            self._norm(m, 2)
        for source in range(0, 64, 4):  # breadth-first search
            seen, frontier = {source}, [source]
            while frontier:
                reached = []
                for v in frontier:
                    for w in self._adj[v]:
                        if w not in seen:
                            seen.add(w)
                            reached.append(w)
                frontier = reached
        self.samples.append((start, perf_counter() - start, thread_time() - cpu))

    def __enter__(self):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale_now(self) -> float:
        """Scale factor to the reference host from 2 * PROBE_MIN probes run now."""
        for _ in range(2 * PROBE_MIN):
            self._sample()
        return _scale(cpu for _, _, cpu in self.samples[-2 * PROBE_MIN:])

    def net_and_scaled(self, runs) -> tuple:
        """For tasks run inside ``with probe:``: their wall and CPU times without
        the probes that ran inside them, and the CPU times scaled to the
        reference host."""
        starts = [start for start, _, _ in self.samples]
        walls, cpus, scaled = [], [], []
        for ran in runs:
            lo, hi = bisect.bisect_left(starts, ran.start), bisect.bisect_right(starts, ran.start + ran.wall)
            inside = self.samples[lo:hi]
            walls.append(ran.wall - sum(wall for _, wall, _ in inside))
            cpus.append(ran.cpu - sum(cpu for _, _, cpu in inside))
            if len(inside) < PROBE_MIN:
                middle = ran.start + ran.wall / 2
                near = bisect.bisect(starts, middle)
                around = self.samples[max(near - PROBE_MIN, 0):near + PROBE_MIN]
                inside = sorted(around, key=lambda s: abs(s[0] - middle))[:PROBE_MIN]
            scaled.append(cpus[-1] * _scale(cpu for _, _, cpu in inside))
        return walls, cpus, scaled


def _import_roelab():
    """Import roelab from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "roelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no roelab sources under {src}")
    sys.path.insert(0, str(src))
    import roelab.cli
    import roelab.report

    if not Path(roelab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: roelab imported from {roelab.__file__}, not from {src}")
    return roelab.cli, roelab.report


def setup(workload: str):
    """Import roelab and write the workload's input files; returns (cli, report,
    CPU seconds of the main thread)."""
    start = thread_time()
    cli, report = _import_roelab()
    workloads.write_inputs(workloads.all_tasks(workload))
    return cli, report, thread_time() - start


def fresh_setup_time(workload: str) -> float:
    """Set-up time measured in a new interpreter, so the import is cold."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    """The stamp every result carries: machine, library versions, BLAS, seed."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def run_task(cli, report_diff, task, refs) -> Ran:
    """Run one task and check its report."""
    out, err = io.StringIO(), io.StringIO()
    main = cli.main  # looked up per call, so that a traced run reaches the wrapper
    start, cpu = perf_counter(), thread_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(task.argv))
    except Exception as exc:  # a task that raises is a failed task; the loop goes on
        code = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = perf_counter() - start, thread_time() - cpu
    text = out.getvalue()
    if code != 0:
        problems = [f"exit {code}: {err.getvalue().strip()[:200]}"]
    elif task.key not in refs:
        problems = ["no reference result"]
    else:
        problems = check(task.kind, json.loads(text), refs[task.key], report_diff)
    failure = f"{task.key} ({' '.join(task.argv)}): {'; '.join(problems)}" if problems else None
    return Ran(start, wall, cpu, failure, len(text.encode()))


def _trim_heap():
    """A function that returns the C heap's free memory to the OS (glibc only;
    elsewhere it does nothing), so that every task starts from a compact heap,
    as in a fresh process. Without it, how much freed memory the heap kept
    varied between runs of the same seed, and ru_maxrss with it by up to 5 %."""
    libc = ctypes.CDLL(None)
    trim = getattr(libc, "malloc_trim", None)
    return (lambda: trim(0)) if trim is not None else (lambda: None)


def run_cycles(workload, seed, seconds, step) -> list:
    """Call step(task) on whole cycles, trimming the heap after each task, and
    start another cycle only while one as long as the last would end within
    `seconds` of the first's start (at least one cycle); returns the tasks run."""
    trim = _trim_heap()
    tasks, start, last = [], perf_counter(), 0.0
    for n, batch in enumerate(workloads.cycles(workload, seed)):
        cycle_start = perf_counter()
        if n and cycle_start - start + last > seconds:
            break
        for task in batch:
            step(task)
            trim()
        last = perf_counter() - cycle_start
        tasks += batch
    return tasks


def per_task_medians(tasks, walls) -> list:
    """The median time of each task (template and instance) over its runs.

    The run's figures are taken over this fixed mix, one task per template and
    instance, so they do not depend on how many cycles fit in the run, and the
    medians keep the odd task that the host scaling missed out of them.
    """
    by_key = {}
    for task, wall in zip(tasks, walls):
        by_key.setdefault(task.key, []).append(wall)
    return [statistics.median(times) for times in by_key.values()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.chdir(ROOT)

    cli, report, setup_s = setup(args.workload)
    probe = HostProbe()
    setup_s *= probe.scale_now()
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [fresh_setup_time(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    refs = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())["tasks"]
    env = environment(args.workload, args.seed)

    walls, failures = [], []
    if args.trace:
        # each task runs untraced, then traced: host speed drifts over
        # seconds to minutes, and pairing keeps that out of the overhead
        from tracer import Tracer, metric_units

        tracer = Tracer()
        traced, bytes_out = [], 0

        def step(task):
            nonlocal bytes_out
            plain = run_task(cli, report.report_diff, task, refs)
            tracer.task = len(traced)
            tracer.install()
            try:
                ran = run_task(cli, report.report_diff, task, refs)
            finally:
                tracer.uninstall()
            walls.append(plain.wall)
            traced.append(ran.wall)
            bytes_out += ran.nbytes
            failures.extend(f for f in (plain.failure, ran.failure) if f)

        tasks = run_cycles(args.workload, args.seed, args.seconds, step)
        values = tracer.metrics(sum(traced), bytes_out, sum(traced) - sum(walls))
        units = metric_units()
        (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        record = {"untraced_wall_s": sum(walls), "traced_wall_s": sum(traced), "not_found": tracer.missing}
        attempted = 2 * len(tasks)
    else:
        runs = []

        def step(task):
            ran = run_task(cli, report.report_diff, task, refs)
            runs.append(ran)
            failures.extend([ran.failure] if ran.failure else [])

        with probe:
            tasks = run_cycles(args.workload, args.seed, args.seconds, step)
        walls, cpus, scaled = probe.net_and_scaled(runs)
        medians, wall_medians = per_task_medians(tasks, scaled), per_task_medians(tasks, walls)
        values = {
            "setup_s": statistics.median(setups),
            "tasks_per_s": len(medians) / sum(medians),
            "task_p50_s": statistics.median(medians),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        attempted = len(tasks)
        record = {
            "wall": {"tasks_per_s": len(wall_medians) / sum(wall_medians), "task_p50_s": statistics.median(wall_medians)},
            "task_samples": len(walls),
            "task_cpu_s": cpus,
            "task_scaled_s": scaled,
            "probe_samples_s": [[start - runs[0].start, wall, cpu] for start, wall, cpu in probe.samples],
        }
        # p90 only where at least ten samples lie beyond it
        if len(walls) >= 100:
            record["task_p90_s"] = sorted(scaled)[int(0.9 * len(scaled))]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(env=env, setup_samples_s=setups, task_walls_s=[[t.key, w] for t, w in zip(tasks, walls)],
                  metrics=metrics, failures=failures)
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

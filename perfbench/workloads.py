"""Workload definitions: task templates, their fixed instances, seeded cycles.

A task is one ``roelab`` command line. A template names a command and the
instances it runs (graph seed, contraction seed, ...). A run does cycles: one
cycle runs every template at every instance once, in an order drawn from the
workload seed, so every cycle does the same work. Reference results exist for every task
(``reference/<workload>.json``).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

INPUT_DIR = Path(".bench_build") / "perfbench" / "inputs"


@dataclass(frozen=True)
class Task:
    template: str
    key: str  # template name and instance, e.g. "eps-prop-g12/3"; names the reference entry
    kind: str  # selects the output check
    argv: tuple


@dataclass(frozen=True)
class Template:
    name: str
    kind: str
    instances: tuple
    argv: object  # instance -> list of strings

    def task(self, i: int) -> Task:
        return Task(self.name, f"{self.name}/{i}", self.kind, tuple(self.argv(i)))


def graph_file(n: int, i: int) -> str:
    return str(INPUT_DIR / f"graph{n}_{i}.json")


def _graph_metric(n: int, i: int) -> list:
    """Shortest-path metric of a random connected graph: a random tree plus random chords."""
    rng = random.Random(f"graph-{n}-{i}")
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.2:
                adj[a].add(b)
                adj[b].add(a)
    dist = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if row[w] < 0:
                    row[w] = row[v] + 1
                    queue.append(w)
        dist.append(row)
    return dist


def write_graph(n: int, i: int) -> None:
    space = {"label": f"g{n}_{i}", "n": n, "metric": {"kind": "graph", "data": _graph_metric(n, i)}}
    path = Path(graph_file(n, i))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(space))


def _eps_prop(n):
    return lambda i: ["oper", "eps-prop", "--space", graph_file(n, i), "--mode", "exact",
                      "--eps", "0.1", "-R", "1", "--seed", str(i)]


def _band_dist(n):
    return lambda i: ["oper", "band-dist", "--space", graph_file(n, i), "-R", "1", "--seed", str(i)]


def _kappa(n, mode):
    return lambda i: ["space", "kappa", "--space", f"regular:{n}:4:{i}", "--mode", mode, "-R", "1"]


def _decompose(n, R):
    return lambda i: ["translations", "decompose", "--space", f"regular:{n}:4:{i}", "-R", str(R)]


def _fixed(*argv):
    return lambda i: list(argv)


def _seeded(*argv):
    return lambda i: [*argv, "--seed", str(i)]


P4 = (0, 1, 2, 3)
ONE = (0,)

CERTIFY_SMALL = (
    Template("eps-prop-g10", "plain", P4, _eps_prop(10)),
    Template("eps-prop-g12", "plain", P4, _eps_prop(12)),
    Template("band-dist-g10", "plain", P4, _band_dist(10)),
    Template("band-dist-g12", "plain", P4, _band_dist(12)),
    Template("kappa-r12", "plain", P4, _kappa(12, "exact")),
    Template("kappa-r16", "plain", P4, _kappa(16, "exact")),
    Template("kappa-r20", "plain", P4, _kappa(20, "exact")),
    Template("decompose-r32", "decompose", P4, _decompose(32, 1)),
    Template("decompose-r64", "decompose", P4, _decompose(64, 2)),
    Template("gap-cert-heis5", "gap-cert", ONE, _fixed("reps", "gap-cert", "--group", "heis:5", "--space", "far:5", "-R", "2")),
    Template("gap-cert-heis7", "gap-cert", ONE, _fixed("reps", "gap-cert", "--group", "heis:7", "--space", "far:7", "-R", "1")),
    Template("gap-cert-heis67", "gap-cert", ONE, _fixed("reps", "gap-cert", "--group", "heis:67", "--space", "far:67", "-R", "1")),
    Template("irr-check-heis5", "plain", P4, _seeded("reps", "irr-check", "--group", "heis:5", "--trials", "50")),
    Template("irr-check-heis7", "plain", P4, _seeded("reps", "irr-check", "--group", "heis:7", "--trials", "50")),
    Template("mc-d20", "plain", P4, _seeded("randsub", "mc", "--d", "20", "--n", "3", "--delta", "0.2", "--trials", "5")),
    Template("levy-d400", "plain", P4, _seeded("randsub", "levy", "--d", "400", "--delta", "0.04")),
)

# one graph per template, seeds spread over 0..3. With four tasks at n = 256
# and five at n = 512, the median task is the fastest of the n = 512 ones
# rather than a value on the gap between the two sizes. The spectral kappa
# runs at n = 512, not 1024: one n = 1024 task takes 7-11 s, and as a single
# sample per run it set most of the run-to-run spread.
GRAPH_SCALE = (
    Template("gen-r256", "space-gen", (0,), lambda i: ["space", "gen", "--regular", "256,4", "--seed", str(i)]),
    Template("gen-r512", "space-gen", (1,), lambda i: ["space", "gen", "--regular", "512,4", "--seed", str(i)]),
    *(Template(f"decompose-r{n}-R{R}", "decompose", (R,), _decompose(n, R)) for n in (256, 512) for R in (1, 2, 3)),
    Template("kappa-r512", "plain", (0,), _kappa(512, "spectral")),
)

# one seeded contraction per template, spread over seeds 0..3
BAND_APPROX = tuple(
    Template(name, "plain", (j % 4,), argv)
    for j, (name, argv) in enumerate([
        *((f"sz-N{N}-eps{eps}-R{R}", _seeded("propa", "sz", "--N", str(N), "--eps", eps, "-R", str(R)))
          for N in (200, 300, 600) for eps in ("1e-2", "1e-4") for R in (1, 2, 3)),
        ("rademacher-N200", _seeded("propa", "rademacher", "--N", "200")),
    ])
)

_MEMBERS = ("--members", "16,32,64,128")

QUASILOCAL = (
    Template("ql-build", "plain", (0, 1), _seeded("ql", "build", *_MEMBERS)),
    Template("ql-witness", "plain", (0, 1), _seeded("ql", "witness", *_MEMBERS, "-R", "2")),
    Template("ql-profile", "plain", (0, 1), _seeded("ql", "profile", *_MEMBERS)),
)

WORKLOADS = {
    "certify_small": CERTIFY_SMALL,
    "graph_scale": GRAPH_SCALE,
    "band_approx": BAND_APPROX,
    "quasilocal": QUASILOCAL,
}


def all_tasks(workload: str) -> list:
    """Every task of the workload, one per template and instance, in template order."""
    return [t.task(i) for t in WORKLOADS[workload] for i in t.instances]


def cycles(workload: str, seed: int):
    """The tasks of a run: endless cycles, each in an order drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        cycle = all_tasks(workload)
        rng.shuffle(cycle)
        yield cycle


def write_inputs(tasks) -> None:
    """Write the space files the tasks read."""
    paths = {t.argv[t.argv.index("--space") + 1] for t in tasks if "--space" in t.argv}
    for path in sorted(paths):
        if path.startswith(str(INPUT_DIR)):
            n, i = Path(path).stem.removeprefix("graph").split("_")
            write_graph(int(n), int(i))

"""Print the layer-share matrix: workloads x modules, each cell the module's
self time over traced task wall time (``M.share`` from a --trace 1 run).

    python3 perfbench/share_matrix.py [--seed N] [--seconds S]

It is reported, not gated: it shows where each layer's work sits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads
from tracer import MODULES


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    rows = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        rows.append((workload, [metrics[f"{m}.share"]["value"] for m in MODULES],
                     metrics["trace.overhead_s"]["value"]))
    print("| workload | " + " | ".join(MODULES) + " | tracing overhead s |")
    print("|---" * (len(MODULES) + 2) + "|")
    for workload, shares, overhead in rows:
        print(f"| {workload} | " + " | ".join(f"{s:.3f}" for s in shares) + f" | {overhead:.2f} |")


if __name__ == "__main__":
    main()

"""Print every metric of every workload: end-to-end, then the traced layers.

    python3 perfbench/report.py [--seed 0] [--seconds 40]

Runs ``run.py`` once per workload with tracing off and once with tracing
on, each in its own process (one after the other), and prints the
end-to-end metrics by name and unit per workload, followed by the
per-layer table with each layer's share of the traced wall time.  The run
environment and per-operation records are in ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, WORKLOAD_NAMES  # noqa: E402

# the self-time partition of a traced pass; it sums to trace.wall_s
PARTITION = ("geometry.self_s", "system.self_s", "solver.self_s", "solver.factor_s",
             "maxprin.self_s", "maxprin.factor_s", "analysis.self_s", "cli.write_s",
             "trace.hook_s", "bench.self_s")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    plain = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOAD_NAMES}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOAD_NAMES}

    print(f"end-to-end (tracing off), seed {args.seed}")
    print(f"{'metric':14s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOAD_NAMES))
    for name, m in plain[WORKLOAD_NAMES[0]]["metrics"].items():
        print(f"{name:14s} {m['unit']:6s}"
              + "".join(f"{plain[w]['metrics'][name]['value']:16.6g}" for w in WORKLOAD_NAMES))
    print(f"{'correct':21s}" + "".join(f"{str(plain[w]['correct']):>16s}" for w in WORKLOAD_NAMES))
    print(f"{'failed/attempted':21s}"
          + "".join(f"{plain[w]['failed']:>9d}/{plain[w]['attempted']:<6d}" for w in WORKLOAD_NAMES))

    print("\nper layer (traced run; '%' is the share of trace.wall_s)")
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{w:>22s}" for w in WORKLOAD_NAMES))
    for name, m in traced[WORKLOAD_NAMES[0]]["metrics"].items():
        cells = []
        for w in WORKLOAD_NAMES:
            v = traced[w]["metrics"][name]["value"]
            wall = traced[w]["metrics"]["trace.wall_s"]["value"]
            share = f" {100 * v / wall:5.1f}%" if m["unit"] == "s" and wall else " " * 7
            cells.append(f"{v:15.6g}{share}")
        print(f"{name:34s} {m['unit']:6s}" + "".join(cells))
    sums = [sum(traced[w]["metrics"][k]["value"] for k in PARTITION)
            / traced[w]["metrics"]["trace.wall_s"]["value"] for w in WORKLOAD_NAMES]
    print(f"{'self-time partition / trace.wall_s':41s}" + "".join(f"{s:15.9f}       " for s in sums))
    return 0


if __name__ == "__main__":
    sys.exit(main())

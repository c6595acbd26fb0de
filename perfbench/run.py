"""Run one benchmark workload against the hitchinlab sources of this checkout.

    python3 perfbench/run.py --workload newton-2d --seed 0 --seconds 40 --trace 0

Passes over the workload's operation list run back to back in this one
process (closed loop, one client) while a pass of typical length still fits
in ``--seconds``; every pass is complete, so a run lasts at least one pass.
With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics of the
median traced pass are reported together with the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  A record with the run environment and every operation's
latency is written to ``.bench_out/results/``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("newton-2d", "radial-study", "suites")



def declared_metrics(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_program():
    """Import hitchinlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hitchinlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no hitchinlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hitchinlab
    if Path(hitchinlab.__file__).resolve().parent != SRC / "hitchinlab":
        raise SystemExit(f"error: imported hitchinlab from {hitchinlab.__file__}")


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With fewer than eleven samples no percentile qualifies; the slowest
    operation (percentile 100) is returned instead.
    """
    s = sorted(latencies)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop; tracks the machine's speed."""
    t0 = time.perf_counter()
    sum(i * i for i in range(2_000_000))
    return time.perf_counter() - t0


def run_pass(ops, out_dir: Path, tracer=None) -> dict:
    """One pass over ``ops``; latencies exclude the benchmark's own checks."""
    from hitchinlab.system import BlowupError
    from workloads import OpContext, Outcome

    latencies, setups, outcomes = [], [], []
    for i, op in enumerate(ops):
        ctx = OpContext(str(out_dir / f"op{i:02d}"))
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = op.run(ctx)
        # the CLI's failure exits: refusal (1), numerical failure (2), I/O (3)
        except (ValueError, BlowupError, OSError) as exc:
            latencies.append(time.perf_counter() - t0)
            outcomes.append(Outcome(True, True, f"{type(exc).__name__}: {exc}"))
        else:
            latencies.append(time.perf_counter() - t0)
            outcomes.append(op.check(result, ctx))
        setups.append(ctx.setup_s)
    return {"wall_s": sum(latencies), "setup_s": sum(setups),
            "latencies": latencies, "outcomes": outcomes}


def environment(args, ops) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hitchinlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "operations_per_pass": len(ops),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import tracing
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    out_dir = OUT / args.workload
    for i in range(len(ops)):
        (out_dir / f"op{i:02d}").mkdir(parents=True, exist_ok=True)

    calibration = [calibration_s()]
    passes, traced, elapsed = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if args.trace and len(elapsed) % 2:
            tracer = tracing.Tracer()
            with tracer:
                p = run_pass(ops, out_dir, tracer)
            p["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters,
                                                tracer.hook_s, p["wall_s"])
            p["tracer"] = tracer
            traced.append(p)
        else:
            passes.append(run_pass(ops, out_dir))
        elapsed.append(time.perf_counter() - t0)
        # start another pass only if a typical one still fits in --seconds
        if (len(elapsed) > args.trace and time.perf_counter() - start
                + statistics.median(elapsed) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(calibration_s())

    # every pass, traced or not, must reproduce the first pass's outputs
    reference = [o.digest for o in passes[0]["outcomes"]]
    deterministic = all([o.digest for o in p["outcomes"]] == reference
                        for p in passes + traced)
    outcomes = [o for p in passes + traced for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = deterministic and all(o.correct for o in outcomes)

    walls = [p["wall_s"] for p in passes]
    latencies = [x for p in passes for x in p["latencies"]]
    tail, tail_pct = tail_latency(latencies)
    untraced = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }

    env = environment(args, ops)
    env["calibration_s"] = calibration
    print(f"# {args.workload} seed={args.seed}: {len(passes)} untraced + {len(traced)} "
          f"traced passes of {len(ops)} operations; correct={correct} "
          f"attempted={attempted} failed={failed}")
    print(f"# env: {json.dumps(env)}")
    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "operations": [op.name for op in ops],
              "failed_operations": sorted({op.name for p in passes + traced
                                           for op, o in zip(ops, p["outcomes"]) if o.failed}),
              "untraced_passes": [{"wall_s": p["wall_s"], "setup_s": p["setup_s"],
                                   "latencies": p["latencies"]} for p in passes],
              "op_tail_percentile": tail_pct, "op_tail_samples": len(latencies),
              "end_to_end": untraced}
    if args.trace:
        traced.sort(key=lambda p: p["wall_s"])
        median_pass = traced[(len(traced) - 1) // 2]
        values = dict(median_pass["layers"])
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - untraced["wall_s"])
        record["per_layer"] = values
        record["spans"] = median_pass["tracer"].dump()
        units = declared_metrics("per_layer")
    else:
        values = untraced
        units = declared_metrics("end_to_end")
        print(f"#   op_tail_s is percentile {tail_pct:.1f} of {len(latencies)} operations")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"#   {k:36s} {m['value']:>14.6g} {m['unit']}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

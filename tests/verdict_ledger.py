"""The verdict ledger: every fact the radial theorem battery reports.

The battery is the 30 verify operations of the benchmark's ``radial-study``
workload (``perfbench/workloads._battery``), run on workload seeds 0-5.
``compute()`` runs it and flattens each verdict to ``{path: leaf}``: every
boolean flag, note, margin, deviation and reported value, but not the solve
diagnostics under ``solver`` and ``reports`` (timings, iteration counts).
``tests/test_verdict_ledger.py`` recomputes the ledger and compares it with
the committed ``verdict_ledger.json``: booleans, strings and ``None`` must
match exactly and numbers within ``ATOL + RTOL * |x|``.

A change that moves a verdict on purpose rewrites the ledger with

    python tests/verdict_ledger.py

and lists every entry that moves.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "verdict_ledger.json"
SEEDS = range(6)
ATOL, RTOL = 1e-12, 1e-9
DIAGNOSTICS = ("solver", "reports")


def load_workloads():
    """``perfbench/workloads.py``, loaded without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location("_ledger_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module     # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def flatten(value, path: str = "") -> dict:
    """The leaves of a verdict as ``{"a/0/b": leaf}``, diagnostics left out."""
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            if key not in DIAGNOSTICS:
                out.update(flatten(v, f"{path}/{key}" if path else str(key)))
        return out
    if isinstance(value, (list, tuple)):
        out = {}
        for i, v in enumerate(value):
            out.update(flatten(v, f"{path}/{i}"))
        return out
    if hasattr(value, "item"):          # numpy scalar
        value = value.item()
    return {path: value}


def compute(out_dir: str) -> dict:
    """``{"<seed>/<operation>": flattened verdict}`` for the battery on every
    seed, its verdict files written under ``out_dir``."""
    workloads = load_workloads()
    ledger = {}
    for seed in SEEDS:
        for op in workloads._battery(workloads._battery_scale(seed)):
            ledger[f"{seed}/{op.name}"] = flatten(op.run(workloads.OpContext(out_dir)))
    return ledger


def _same(want, got) -> bool:
    if isinstance(want, bool) or isinstance(got, bool) or not (
            isinstance(want, (int, float)) and isinstance(got, (int, float))):
        return type(want) is type(got) and want == got
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if math.isinf(want) or math.isinf(got):
        return want == got
    return abs(got - want) <= ATOL + RTOL * abs(want)


def differences(want: dict, got: dict) -> list[str]:
    """One line per operation or leaf where ``got`` departs from ``want``."""
    lines = [f"{op}: missing" for op in want if op not in got]
    lines += [f"{op}: not in the ledger" for op in got if op not in want]
    for op in want.keys() & got.keys():
        w, g = want[op], got[op]
        for path in sorted(w.keys() | g.keys()):
            if path not in w or path not in g or not _same(w[path], g[path]):
                lines.append(f"{op} {path}: {w.get(path, '<absent>')!r} -> "
                             f"{g.get(path, '<absent>')!r}")
    return sorted(lines)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        ledger = compute(out_dir)
    if LEDGER.exists():
        for line in differences(json.loads(LEDGER.read_text()), ledger):
            print(line)
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, ledger.values()))} entries of {len(ledger)} verdicts "
          f"to {LEDGER}")


if __name__ == "__main__":
    main()

"""No config ends in a traceback or a vacuous success.

Each example takes the reference config of one command (``solve``,
``sweep``, ``verify`` with ``nu-bounds`` or ``monotonicity``) on radial 16
or disc2d 17, replaces one or two of its nodes (a leaf or a whole subtree)
by a JSON value of some other kind, or deletes them, and runs it through
``cli.main`` in-process.  The exit code must keep its contract:

* 0 only with finite numbers in every output file (and a pass);
* 1 with one ``error:`` line and no output file;
* 2 with an output that records the failure: a report not converged or a
  verdict that is no pass;
* no exception ever escapes, and no warning is issued (the CLI would print
  it to stderr beside its own lines).

The replacement values are a fixed palette, so a mutated size (a rank, a
resolution) is either small or too large to allocate at all.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from hitchinlab.cli import main

GRIDS = {"radial16": {"kind": "radial_disc", "resolution": 16, "radius": 0.8},
         "disc2d17": {"kind": "disc2d", "resolution": 17, "radius": 0.8}}
SPEC = {"variant": "hitchin_component", "n": 3, "t": 1.0,
        "data": [{"kind": "monomial", "coefficient": 1.0, "degree": 1}]}
SOLVER = {"tol_residual": 1e-10, "max_newton_iters": 40}
COMMANDS = {"solve": ["solve"], "sweep": ["sweep"],
            "nu-bounds": ["verify", "--theorem", "nu-bounds"],
            "monotonicity": ["verify", "--theorem", "monotonicity"]}
OUTPUTS = {"solve": ("report.json", "state.csv"), "sweep": ("sweep.json", "sweep.csv"),
           "nu-bounds": ("verdict.json",), "monotonicity": ("verdict.json",)}

VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, 3, 4, -1, 2**53, 2**53 + 2, 10**400,
    0.0, -0.0, 0.5, 2.5, -1.0, 1e-320, 1e-170, 1e154, 1e200, 1e308,
    math.inf, -math.inf, math.nan,
    "", "3", "x", "zero", "monomial", "radial_disc", "disc2d", "torus",
    "hitchin_component", "general_cyclic", "sp4_gothen",
    [], [1.0], [0.0, 1.0], [1.0, 0.5], [2.0, 1.0, 0.5], {}, {"kind": "zero"},
    {"kind": "constant", "coefficient": 0.0}, {"kind": "constant", "coefficient": [0.0, 2.0]},
])


def _reference(command, grid):
    cfg = copy.deepcopy({"grid": GRIDS[grid], "spec": SPEC, "solver": SOLVER})
    if command in ("sweep", "monotonicity"):
        cfg["t_list"] = [0.5, 1.0]
    return cfg


def _paths(node, prefix=()):
    """The path of every node below the root, subtrees before their leaves."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    grid = draw(st.sampled_from(sorted(GRIDS)))
    cfg = _reference(command, grid)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cfg))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        node = cfg
        for k in parent:
            node = node[k]
        if draw(st.booleans()) and isinstance(node, dict):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(VALUES))    # the palette stays as it is
    return command, cfg


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, float):
        yield obj
    elif isinstance(obj, str) and obj.lower().lstrip("+-") in ("nan", "inf", "infinity"):
        yield float(obj)     # how write_json spells a non-finite number


def _all_finite(path: Path) -> bool:
    if path.suffix == ".json":
        return all(math.isfinite(x) for x in _numbers(json.loads(path.read_text())))
    rows = path.read_text().splitlines()[1:]
    return all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def _recorded_failure(command, out: Path) -> bool:
    name = OUTPUTS[command][0]
    if not (out / name).exists():
        return False
    record = json.loads((out / name).read_text())
    if command == "solve":
        return record["converged"] is False
    return record["passed"] is False or record.get("inconclusive") is True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_configs())
def test_mutated_config_keeps_the_exit_code_contract(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        out = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            rc = main(COMMANDS[command] + ["--config", str(tmp / "cfg.json"), "--out", str(out)])
        err = stderr.getvalue()
        assert not caught, [str(w.message) for w in caught]
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if rc == 0:
            assert written == sorted(OUTPUTS[command]), written
            assert all(_all_finite(out / name) for name in written)
            assert not _recorded_failure(command, out)
        elif rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert written == [], written
        elif rc == 2:
            assert _recorded_failure(command, out), (err, stdout.getvalue())
        else:
            raise AssertionError(f"exit code {rc}: {err}")

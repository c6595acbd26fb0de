"""Batch front-end: JSON configs in, JSON/CSV reports out.

Three subcommands cover the workflows: ``solve`` runs one system to
convergence and dumps the state, ``verify`` runs a named theorem check and
writes a verdict with every margin (``SOLVE_RUNNERS`` maps each solve-based
theorem to its ``analysis`` runner), ``sweep`` tabulates the members of
``analysis.scale_family``.  Every system is solved on its grid's own
boundary, and a config that still carries a retired key (``_RETIRED_KEYS``)
is refused before any command runs.

Exit codes partition outcomes: 0 pass, 1 usage error or refusal,
2 numerical failure (non-convergence or a false verdict), 3 I/O failure.
All outputs are written atomically (temp file + rename) and verdicts are
byte-reproducible from config + seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import analysis
from .geometry import VERDICT_FRACTION, Grid, GridSpec, HolomorphicDatum, build_grid
from .solver import SolverConfig, solve
from .system import CyclicSpec, make_spec, make_system

# theorems checked on solved states: runner(spec, grid, [t_list,] config)
SOLVE_RUNNERS = {
    "monotonicity": analysis.verify_monotonicity,
    "nu-bounds": analysis.verify_nu_bounds,
    "curvature": analysis.verify_curvature_bounds,
    "hitchin-fiber-comparison": analysis.verify_fiber_comparison,
    "sp4-bounds": analysis.verify_sp4_bounds,
}
THEOREMS = (*SOLVE_RUNNERS, "max-principle", "sym-space-curvature")


class UsageError(ValueError):
    """Bad config or arguments; maps to exit code 1."""


# -- config parsing --------------------------------------------------------


def _int_from(value, key: str) -> int:
    """An integer config field, written as 5 or 5.0; a bool, a non-number or
    a number with a fractional part is refused, and so is one beyond 2**53
    in magnitude, where a double names no single integer."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise UsageError(f"{key!r} must be an integer, got {value!r}")
    if abs(value) > 2**53:
        raise UsageError(f"{key!r} must be an integer of magnitude at most 2**53, got {value!r}")
    return int(value)


def _float_from(value, key: str) -> float:
    """A real config number; a bool, a non-number or an integer beyond the
    double range is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise UsageError(f"{key!r} must be a number within the double range") from None
    raise UsageError(f"{key!r} must be a number, got {value!r}")


def _list_from(value, key: str) -> list:
    if not isinstance(value, list):
        raise UsageError(f"{key!r} must be a list, got {value!r}")
    return value


def _complex_from(value, key: str) -> complex:
    """A complex config number: a real number or an [re, im] pair of them."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_float_from(value[0], key), _float_from(value[1], key))
    return complex(_float_from(value, key))


def parse_datum(obj) -> HolomorphicDatum:
    """Datum from JSON: {"kind": ..., "coefficient(s)": ..., "degree": ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"datum must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "zero":
            return HolomorphicDatum.zero()
        if kind == "constant":
            return HolomorphicDatum.constant(_complex_from(obj["coefficient"], "coefficient"))
        if kind == "monomial":
            return HolomorphicDatum.monomial(_complex_from(obj["coefficient"], "coefficient"),
                                             _int_from(obj["degree"], "degree"))
        if kind == "polynomial":
            return HolomorphicDatum.polynomial(
                [_complex_from(c, "coefficients")
                 for c in _list_from(obj["coefficients"], "coefficients")])
    except KeyError as exc:
        raise UsageError(f"datum {kind!r} is missing field {exc}") from exc
    raise UsageError(f"unknown datum kind {kind!r}")


def parse_grid(obj) -> Grid:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("config needs a 'grid' object with a 'kind'")
    res = obj.get("resolution", 128)
    if isinstance(res, list):
        res = tuple(_int_from(r, "resolution") for r in res)
    else:
        res = _int_from(res, "resolution")
    kwargs = {}
    if "radius" in obj:
        kwargs["radius"] = _float_from(obj["radius"], "radius")
    if "periods" in obj:
        kwargs["periods"] = tuple(_float_from(p, "periods")
                                  for p in _list_from(obj["periods"], "periods"))
    try:
        return build_grid(GridSpec(obj["kind"], res, **kwargs))
    except ValueError as exc:
        raise UsageError(f"bad grid: {exc}") from exc


def parse_spec(obj) -> CyclicSpec:
    if not isinstance(obj, dict):
        raise UsageError("config needs a 'spec' object")
    try:
        data = tuple(parse_datum(d) for d in _list_from(obj["data"], "data"))
        degrees = obj.get("degrees")
        return make_spec(obj["variant"], _int_from(obj["n"], "n"), data,
                         t=_complex_from(obj.get("t", 1.0), "t"),
                         degrees=None if degrees is None else _list_from(degrees, "degrees"))
    except KeyError as exc:
        raise UsageError(f"spec is missing field {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad spec: {exc}") from exc


def parse_t_list(cfg: dict, command: str) -> list[float]:
    """The scale values of ``sweep`` and ``verify --theorem monotonicity``:
    a nonempty JSON list of numbers."""
    t_list = cfg.get("t_list")
    if not isinstance(t_list, list) or not t_list:
        raise UsageError(f"{command} needs a nonempty 't_list'")
    try:
        return [_float_from(t, "t_list") for t in t_list]
    except UsageError:
        raise UsageError(f"'t_list' must hold numbers, got {t_list!r}") from None


def parse_solver(obj) -> SolverConfig:
    """The ``solver`` object: each field an integer or a real number as
    ``SolverConfig`` declares it."""
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        raise UsageError(f"'solver' must be an object, got {obj!r}")
    fields = {f.name: _int_from if f.type in (int, "int") else _float_from
              for f in dataclasses.fields(SolverConfig)}
    extra = set(obj) - set(fields)
    if extra:
        raise UsageError(f"unknown solver options: {sorted(extra)}")
    values = {k: fields[k](v, k) for k, v in obj.items()}
    try:
        return SolverConfig(**values)
    except ValueError as exc:
        raise UsageError(f"bad solver config: {exc}") from exc


# config keys that once chose behaviour the library no longer has, each with
# why it is gone: ignoring one would run what the config did not ask for
_RETIRED_KEYS = {
    "margin_cells": "verdicts are asserted on the fixed region |z| <= {}R/{} of a disc chart "
                    "of radius R (every node of a torus)".format(
                        *Fraction(VERDICT_FRACTION).as_integer_ratio()),
    "boundary": "the boundary is the grid's own: the uniformising Dirichlet data on a disc, "
                "periodic on the torus",
    "violate": "every max-principle verdict runs all three negative controls and reports "
               "each as 'flagged'",
}


def _refuse_retired_keys(cfg: dict) -> None:
    for key, why in _RETIRED_KEYS.items():
        if key in cfg:
            raise UsageError(f"{key!r} is retired: {why}; remove the key")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config root must be a JSON object")
    return cfg


# -- output helpers --------------------------------------------------------


def _json_ready(obj, drop):
    """``obj`` in JSON types, with the keys in ``drop`` left out at every depth
    and a non-finite number, numpy's too, written as its repr ('inf', 'nan')."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v, drop) for k, v in obj.items() if k not in drop}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v, drop) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else repr(float(obj))
    return obj


# wall-clock fields: write_json drops them unless volatile_ok, so verdicts
# are byte-reproducible
_VOLATILE_KEYS = ("wall_time_s",)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict, volatile_ok: bool = False) -> None:
    data = _json_ready(payload, () if volatile_ok else _VOLATILE_KEYS)
    _atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_table(path: str, header: list[str], cols: np.ndarray) -> None:
    """One CSV row per row of ``cols``, each value as %.17g, rows ending in CRLF."""
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    _atomic_write(path, ",".join(header) + "\r\n"
                  + (row * len(cols)) % tuple(cols.ravel().tolist()))


def write_state_csv(path: str, grid: Grid, u: np.ndarray) -> None:
    """Columns x, y, u_1..u_m, each value as %.17g, CSV rows ending in CRLF."""
    z = grid.z()
    _write_table(path, ["x", "y"] + [f"u_{k + 1}" for k in range(u.shape[1])],
                 np.column_stack([z.real, z.imag, u]))


# -- subcommands -----------------------------------------------------------


def cmd_solve(cfg: dict, out_dir: str) -> int:
    grid = parse_grid(cfg.get("grid"))
    spec = parse_spec(cfg.get("spec"))
    sc = parse_solver(cfg.get("solver"))
    system = make_system(spec, grid)
    report = solve(system, config=sc)
    write_json(os.path.join(out_dir, "report.json"),
               report.to_json_dict(), volatile_ok=True)
    write_state_csv(os.path.join(out_dir, "state.csv"), grid, report.state.u)
    if not report.converged:
        print(f"solve: not converged ({report.message})", file=sys.stderr)
        return 2
    print(f"solve: converged in {report.iterations} iterations, "
          f"residual {report.final_residual:.3e}")
    return 0


def _run_theorem(theorem: str, cfg: dict, seed: int) -> dict:
    sc = parse_solver(cfg.get("solver"))
    if theorem in SOLVE_RUNNERS:
        grid = parse_grid(cfg.get("grid"))
        extra = [parse_t_list(cfg, theorem)] if theorem == "monotonicity" else []
        spec = parse_spec(cfg.get("spec"))
        return SOLVE_RUNNERS[theorem](spec, grid, *extra, sc)
    if theorem == "max-principle":
        return analysis.verify_max_principle(_int_from(cfg.get("count", 200), "count"), seed)
    if theorem == "sym-space-curvature":
        ns = tuple(_int_from(n, "ranks")
                   for n in _list_from(cfg.get("ranks", [2, 3, 4, 5, 6]), "ranks"))
        return analysis.verify_sym_space(_int_from(cfg.get("samples", 10000), "samples"),
                                         seed, ns)
    raise UsageError(f"unknown theorem {theorem!r}")


def cmd_verify(cfg: dict, theorem: str, out_dir: str, seed: int) -> int:
    result = _run_theorem(theorem, cfg, seed)
    result["theorem"] = theorem
    result["seed"] = seed
    if "error" in result:
        result["inconclusive"] = True
    write_json(os.path.join(out_dir, "verdict.json"), result)
    status = "pass" if result.get("passed") else (
        "inconclusive" if result.get("inconclusive") else "fail")
    print(f"verify[{theorem}]: {status}")
    return 0 if result["passed"] else 2


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    grid = parse_grid(cfg.get("grid"))
    spec = parse_spec(cfg.get("spec"))
    sc = parse_solver(cfg.get("solver"))
    t_list = parse_t_list(cfg, "sweep")

    region = grid.verdict_region()
    family = analysis.scale_family(spec, grid, t_list, sc)
    members = []
    for rep, metric in family:
        member = {"t": rep.state.spec.t.real, "converged": metric is not None,
                  "solver": rep.to_json_dict()}
        if metric is not None:
            curv = analysis.extrinsic_curvature(rep.state)
            kmin, kmax = curv.interior_range(region)
            g = metric.density[region]
            member.update(morse_energy=metric.morse_energy, g_min=float(g.min()),
                          g_max=float(g.max()), k_min=kmin, k_max=kmax)
        members.append(member)
    converged = [m for m in members if m["converged"]]
    header = ["t", "morse_energy", "g_min", "g_max", "k_min", "k_max"]
    _write_table(os.path.join(out_dir, "sweep.csv"), header,
                 np.array([[m[k] for k in header] for m in converged],
                          dtype=float).reshape(-1, len(header)))

    all_converged = len(converged) == len(t_list)
    monotone = all(b["morse_energy"] > a["morse_energy"]
                   for a, b in zip(converged, converged[1:]))
    # pairwise ratio margins are informational here; the thresholded strict
    # check is `verify --theorem monotonicity`
    ratio_margins = []
    if all_converged:
        for (ra, _), (rb, _) in zip(family[:-1], family[1:]):
            cmpres = analysis.compare_states(ra.state, rb.state, "ratio_fields", sc.tol_residual)
            ratio_margins.append({"t_low": ra.state.spec.t.real, "t_high": rb.state.spec.t.real,
                                  "min_margin": cmpres["min_margin"]})
    verdict = {"passed": bool(all_converged and monotone),
               "all_converged": all_converged,
               "morse_energy_increasing": monotone,
               "ratio_margins": ratio_margins,
               "members": members}
    write_json(os.path.join(out_dir, "sweep.json"), verdict)
    if not all_converged:
        print("sweep: a member failed to converge", file=sys.stderr)
        return 2
    print(f"sweep: {len(converged)} members, monotone={monotone}")
    return 0 if verdict["passed"] else 2


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hitchinlab",
        description="Planar laboratory for coupled scalar curvature systems "
                    "attached to cyclic holomorphic data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "run one system to convergence"),
                       ("verify", "run a named theorem check"),
                       ("sweep", "run a scale family and tabulate")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--resolution", type=int, default=None,
                       help="override the grid resolution")
        if name == "verify":
            p.add_argument("--theorem", required=True, choices=THEOREMS)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        _refuse_retired_keys(cfg)
        seed = args.seed if args.seed is not None else _int_from(cfg.get("seed", 0), "seed")
        if seed < 0:
            raise UsageError(f"'seed' must be a nonnegative integer, got {seed}")
        if args.resolution is not None and isinstance(cfg.get("grid"), dict):
            cfg["grid"] = {**cfg["grid"], "resolution": args.resolution}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"cannot create output directory: {exc}", file=sys.stderr)
            return 3
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.theorem, args.out, seed)
        return cmd_sweep(cfg, args.out)
    except (ValueError, MemoryError) as exc:     # UsageError included
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end: JSON configs in, JSON/CSV reports out.

Three subcommands cover the workflows: ``solve`` runs one system to
convergence and dumps the state, ``verify`` runs a named theorem check and
writes a verdict with every margin (``SOLVE_RUNNERS`` maps each solve-based
theorem to its ``analysis`` runner), ``sweep`` tabulates the members of
``analysis.scale_family``.

Exit codes partition outcomes: 0 pass, 1 usage error or refusal,
2 numerical failure (non-convergence or a false verdict), 3 I/O failure.
All outputs are written atomically (temp file + rename) and verdicts are
byte-reproducible from config + seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import analysis, maxprin
from .geometry import Grid, GridSpec, HolomorphicDatum, build_grid
from .solver import SolverConfig, solve
from .system import BlowupError, CyclicSpec, make_spec, make_system

# theorems checked on solved states: runner(spec, grid, [t_list,] config, margin_cells)
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
    """An integer config field; a number with a fractional part is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise UsageError(f"{key!r} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key!r} must be an integer, got {value!r}") from exc


def _complex_from(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise UsageError(f"expected number or [re, im] pair, got {value!r}")


def parse_datum(obj) -> HolomorphicDatum:
    """Datum from JSON: {"kind": ..., "coefficient(s)": ..., "degree": ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"datum must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "zero":
            return HolomorphicDatum.zero()
        if kind == "constant":
            return HolomorphicDatum.constant(_complex_from(obj["coefficient"]))
        if kind == "monomial":
            return HolomorphicDatum.monomial(_complex_from(obj["coefficient"]),
                                             _int_from(obj["degree"], "degree"))
        if kind == "polynomial":
            return HolomorphicDatum.polynomial([_complex_from(c)
                                                for c in obj["coefficients"]])
    except KeyError as exc:
        raise UsageError(f"datum {kind!r} is missing field {exc}") from exc
    raise UsageError(f"unknown datum kind {kind!r}")


def parse_grid(obj, resolution_override=None) -> Grid:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("config needs a 'grid' object with a 'kind'")
    res = obj.get("resolution", 128)
    if resolution_override is not None:
        res = resolution_override
    if isinstance(res, list):
        res = tuple(_int_from(r, "resolution") for r in res)
    else:
        res = _int_from(res, "resolution")
    kwargs = {}
    if "radius" in obj:
        kwargs["radius"] = float(obj["radius"])
    if "periods" in obj:
        kwargs["periods"] = tuple(float(p) for p in obj["periods"])
    try:
        return build_grid(GridSpec(obj["kind"], res, **kwargs))
    except ValueError as exc:
        raise UsageError(f"bad grid: {exc}") from exc


def parse_spec(obj) -> CyclicSpec:
    if not isinstance(obj, dict):
        raise UsageError("config needs a 'spec' object")
    try:
        data = tuple(parse_datum(d) for d in obj["data"])
        degrees = obj.get("degrees")
        return make_spec(obj["variant"], _int_from(obj["n"], "n"), data,
                         t=_complex_from(obj.get("t", 1.0)),
                         degrees=tuple(degrees) if degrees is not None else None)
    except KeyError as exc:
        raise UsageError(f"spec is missing field {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad spec: {exc}") from exc


def parse_solver(obj) -> SolverConfig:
    obj = obj or {}
    known = {f for f in SolverConfig.__dataclass_fields__}
    extra = set(obj) - known
    if extra:
        raise UsageError(f"unknown solver options: {sorted(extra)}")
    try:
        return SolverConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad solver config: {exc}") from exc


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


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


_VOLATILE_KEYS = ("wall_time", "wall_time_s")


def _strip_volatile(obj):
    """Drop wall-clock fields so verdicts are byte-reproducible."""
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in _VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


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
    data = _json_ready(payload)
    if not volatile_ok:
        data = _strip_volatile(data)
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


def _default_boundary(grid: Grid) -> str:
    return "periodic" if grid.kind == "torus" else "fuchsian"


# -- subcommands -----------------------------------------------------------


def cmd_solve(cfg: dict, out_dir: str, resolution=None) -> int:
    grid = parse_grid(cfg.get("grid"), resolution)
    spec = parse_spec(cfg.get("spec"))
    sc = parse_solver(cfg.get("solver"))
    boundary = cfg.get("boundary", _default_boundary(grid))
    system = make_system(spec, grid, boundary=boundary)
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


def _run_theorem(theorem: str, cfg: dict, seed: int, resolution) -> dict:
    sc = parse_solver(cfg.get("solver"))
    mc = _int_from(cfg.get("margin_cells", 5), "margin_cells")
    if theorem in SOLVE_RUNNERS:
        grid = parse_grid(cfg.get("grid"), resolution)
        t_list = cfg.get("t_list")
        if theorem == "monotonicity" and not t_list:
            raise UsageError("monotonicity needs a nonempty 't_list'")
        spec = parse_spec(cfg.get("spec"))
        extra = [[float(t) for t in t_list]] if theorem == "monotonicity" else []
        return SOLVE_RUNNERS[theorem](spec, grid, *extra, sc, mc)
    if theorem == "max-principle":
        violate = cfg.get("violate")
        if violate is not None:
            grid = parse_grid(cfg.get("grid", {"kind": "torus", "resolution": [16, 16]}),
                              resolution)
            rng = np.random.default_rng(seed)
            sysv = maxprin.random_cooperative_system(grid, _int_from(cfg.get("n", 3), "n"),
                                                     rng, violate=violate)
            cond = maxprin.check_conditions(sysv)
            return {"passed": not cond.passed,
                    "note": "conditions fail, positivity not asserted",
                    "conditions": cond.to_json_dict()}
        return analysis.verify_max_principle(_int_from(cfg.get("count", 200), "count"), seed)
    if theorem == "sym-space-curvature":
        ns = tuple(_int_from(n, "ranks") for n in cfg.get("ranks", (2, 3, 4, 5, 6)))
        return analysis.verify_sym_space(_int_from(cfg.get("samples", 10000), "samples"),
                                         seed, ns)
    raise UsageError(f"unknown theorem {theorem!r}")


def cmd_verify(cfg: dict, theorem: str, out_dir: str, seed: int, resolution=None) -> int:
    result = _run_theorem(theorem, cfg, seed, resolution)
    result["theorem"] = theorem
    result["seed"] = seed
    if "error" in result:
        result["inconclusive"] = True
    write_json(os.path.join(out_dir, "verdict.json"), result)
    status = "pass" if result.get("passed") else (
        "inconclusive" if result.get("inconclusive") else "fail")
    print(f"verify[{theorem}]: {status}")
    if result.get("inconclusive"):
        return 2
    return 0 if result["passed"] else 2


def cmd_sweep(cfg: dict, out_dir: str, resolution=None) -> int:
    grid = parse_grid(cfg.get("grid"), resolution)
    spec = parse_spec(cfg.get("spec"))
    sc = parse_solver(cfg.get("solver"))
    mc = _int_from(cfg.get("margin_cells", 5), "margin_cells")
    t_list = cfg.get("t_list")
    if not t_list:
        raise UsageError("sweep needs a nonempty 't_list'")
    t_list = [float(t) for t in t_list]

    region = grid.verdict_region(mc)
    family = analysis.scale_family(spec, grid, t_list, sc,
                                   boundary=cfg.get("boundary", _default_boundary(grid)))
    rows, summaries = [], []
    for spec_t, rep, metric in family:
        t = spec_t.t.real
        if metric is None:
            summaries.append({"t": t, "converged": False, "solver": rep.to_json_dict()})
            continue
        curv = analysis.extrinsic_curvature(spec_t, rep.state)
        kmin, kmax = curv.interior_range(region)
        g = metric.density[region]
        rows.append([t, metric.morse_energy, g.min(), g.max(), kmin, kmax])
        summaries.append({"t": t, "converged": True,
                          "morse_energy": metric.morse_energy,
                          "g_min": float(g.min()), "g_max": float(g.max()),
                          "k_min": kmin, "k_max": kmax,
                          "solver": rep.to_json_dict()})
    header = ["t", "morse_energy", "g_min", "g_max", "k_min", "k_max"]
    _write_table(os.path.join(out_dir, "sweep.csv"), header,
                 np.array(rows, dtype=float).reshape(-1, len(header)))

    all_converged = len(rows) == len(t_list)
    monotone = all(b[1] > a[1] for a, b in zip(rows, rows[1:]))   # morse_energy column
    # pairwise ratio margins are informational here; the thresholded strict
    # check is `verify --theorem monotonicity`
    ratio_margins = []
    if all_converged:
        for (sa, ra, _), (sb, rb, _) in zip(family[:-1], family[1:]):
            cmpres = analysis.compare_states(sa, ra.state, sb, rb.state,
                                             "ratio_fields", mc, sc.tol_residual)
            ratio_margins.append({"t_low": sa.t.real, "t_high": sb.t.real,
                                  "min_margin": cmpres.min_margin})
    verdict = {"passed": bool(all_converged and monotone),
               "all_converged": all_converged,
               "morse_energy_increasing": monotone,
               "ratio_margins": ratio_margins,
               "members": summaries}
    write_json(os.path.join(out_dir, "sweep.json"), verdict)
    if not all_converged:
        print("sweep: a member failed to converge", file=sys.stderr)
        return 2
    print(f"sweep: {len(rows)} members, monotone={monotone}")
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
        seed = args.seed if args.seed is not None else _int_from(cfg.get("seed", 0), "seed")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"cannot create output directory: {exc}", file=sys.stderr)
            return 3
        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.resolution)
        if args.command == "verify":
            return cmd_verify(cfg, args.theorem, args.out, seed, args.resolution)
        return cmd_sweep(cfg, args.out, args.resolution)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

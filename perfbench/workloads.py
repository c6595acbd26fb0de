"""The benchmark's three workloads, each a list of operations.

An operation is what one CLI invocation does: it builds its own grid (and,
for plain solves, its own system), runs one solve, verify or sweep, and
writes its output files through ``cli.write_json`` / ``cli.write_state_csv``.
The workload seed draws the inputs; the library sees only the drawn inputs.
Seed 0 gives the reference instances of the acceptance suite.

Every call into the library goes through a module attribute looked up at
call time (``geometry.build_grid``, ``analysis.verify_nu_bounds``, ...), so
the wrappers that ``tracing`` installs for a traced pass see each call.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from hitchinlab import analysis, cli, geometry, solver, system
from hitchinlab.geometry import GridSpec, HolomorphicDatum

TOL = 1e-10
SOLVER = solver.SolverConfig(tol_residual=TOL)
RADIUS = 0.8

zero = HolomorphicDatum.zero()
one = HolomorphicDatum.constant(1.0)
mono = HolomorphicDatum.monomial


@dataclass
class Outcome:
    """What the benchmark concludes about one operation after it ran."""

    failed: bool    # did not converge, residual above tol, or verdict != prediction
    correct: bool   # outputs read back intact and every verdict matched its prediction
    digest: str     # fingerprint of the outputs; must repeat across passes


class OpContext:
    """Per-operation output directory and set-up clock."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.setup_s = 0.0

    def setup(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` and charge its time to set-up."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.setup_s += time.perf_counter() - t0

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


@dataclass
class Op:
    name: str
    run: Callable[[OpContext], Any]               # timed
    check: Callable[[Any, OpContext], Outcome]    # not timed


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _default_boundary(grid) -> str:
    return "periodic" if grid.kind == "torus" else "fuchsian"


# -- operation kinds -------------------------------------------------------


def solve_op(name: str, grid_spec: GridSpec, spec, fields=None) -> Op:
    """``hitchinlab solve``: grid, system, Newton solve, report.json + state.csv.

    ``fields(grid)`` optionally returns coefficient fields (torus data).
    """
    def run(ctx):
        grid = ctx.setup(geometry.build_grid, grid_spec)
        coeff = fields(grid) if fields is not None else None
        sys_ = ctx.setup(system.make_system, spec, grid, _default_boundary(grid), coeff)
        report = solver.solve(sys_, config=SOLVER)
        cli.write_json(ctx.path("report.json"), report.to_json_dict(), volatile_ok=True)
        cli.write_state_csv(ctx.path("state.csv"), grid, report.state.u)
        return report

    def check(report, ctx):
        saved = json.loads(_read(ctx.path("report.json")))
        state = _read(ctx.path("state.csv"))
        correct = (saved["converged"] == report.converged
                   and saved["iterations"] == report.iterations
                   and state.count(b"\n") == report.state.grid.n_nodes + 1)
        ok = report.converged and report.final_residual <= TOL
        return Outcome(not ok, correct,
                       _sha(repr((report.converged, report.iterations,
                                  report.final_residual)).encode(), state))

    return Op(name, run, check)


def sweep_op(name: str, grid_spec: GridSpec, spec, t_list) -> Op:
    """``hitchinlab sweep``: warm-started family, energies, sweep.json.

    Passes when every member converges and the Morse energy strictly
    increases along the family.
    """
    def run(ctx):
        grid = ctx.setup(geometry.build_grid, grid_spec)
        runs = solver.continuation_solve(
            lambda t: ctx.setup(system.make_system, replace(spec, t=complex(t)), grid,
                                _default_boundary(grid)),
            t_list, SOLVER)
        members = []
        for t, rep in runs:
            entry = {"t": t, "solver": rep.to_json_dict()}
            if rep.converged:
                entry["morse_energy"] = analysis.pullback_metric(
                    replace(spec, t=complex(t)), rep.state).morse_energy
            members.append(entry)
        cli.write_json(ctx.path("sweep.json"), {"members": members})
        return members

    def check(members, ctx):
        saved = json.loads(_read(ctx.path("sweep.json")))
        energies = [m.get("morse_energy") for m in members]
        ok = (len(members) == len(t_list)
              and all(m["solver"]["converged"] for m in members)
              and all(b > a for a, b in zip(energies, energies[1:])))
        correct = len(saved["members"]) == len(members)
        return Outcome(not ok, correct, _sha(_read(ctx.path("sweep.json"))))

    return Op(name, run, check)


def verify_op(name: str, runner: str, args: Callable[[OpContext], tuple],
              expect: bool) -> Op:
    """``hitchinlab verify``: run ``analysis.<runner>``, write verdict.json.

    ``args(ctx)`` builds the runner's arguments (grids through
    ``ctx.setup``).  ``expect`` is the theorem's prediction for the input;
    a verdict that differs is both a failed operation and a wrong output.
    """
    def run(ctx):
        result = getattr(analysis, runner)(*args(ctx))
        result["theorem"] = name.split("/")[0]
        cli.write_json(ctx.path("verdict.json"), result)
        return result

    def check(result, ctx):
        verdict = _read(ctx.path("verdict.json"))
        matches = bool(result["passed"]) == expect
        correct = matches and json.loads(verdict)["passed"] == result["passed"]
        return Outcome(not matches, correct, _sha(verdict))

    return Op(name, run, check)


# -- newton-2d -------------------------------------------------------------


def _quadratic(seed: int) -> HolomorphicDatum:
    """q = z^2 - a^2 with roots +-a, |a| <= 1/2; seed 0 gives z^2 - 1/4."""
    if seed == 0:
        a = 0.5
    else:
        rng = np.random.default_rng([seed, 1])
        a = rng.uniform(0.4, 0.5) * np.exp(1j * rng.uniform(0.0, np.pi))
    return HolomorphicDatum.polynomial([-(a * a), 0.0, 1.0])


def _torus_fields(seed: int):
    """Three smooth positive periodic coefficient fields 1 + a cos(k.x + phase)."""
    if seed == 0:
        amps, waves, phases = [0.4] * 3, [(1, 0), (0, 1), (1, 1)], [0.0] * 3
    else:
        rng = np.random.default_rng([seed, 2])
        amps = rng.uniform(0.3, 0.5, size=3)
        waves = rng.integers(0, 2, size=(3, 2)) + np.array([1, 0])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def fields(grid):
        (lx, ly), (x, y) = grid.spec.periods, grid.xy.T
        return [1.0 + a * np.cos(2.0 * np.pi * (kx * x / lx + ky * y / ly) + ph)
                for a, (kx, ky), ph in zip(amps, waves, phases)]

    return fields


def newton_2d(seed: int) -> list[Op]:
    q = _quadratic(seed)
    disc = GridSpec("disc2d", 256, RADIUS)
    return [
        solve_op("solve/disc2d-256-hitchin-n4",
                 disc, system.make_spec("hitchin_component", 4, (q,))),
        solve_op("solve/torus-128-cyclic-n3", GridSpec("torus", 128),
                 system.make_spec("general_cyclic", 3, (one, one, one)),
                 fields=_torus_fields(seed)),
        sweep_op("sweep/disc2d-256-hitchin-n3", disc,
                 system.make_spec("hitchin_component", 3, (q,)), [0.0, 1.0, 2.0, 4.0, 8.0]),
    ]


# -- radial-study ----------------------------------------------------------

RADIAL = GridSpec("radial_disc", 256, RADIUS)
LADDER_N = (384, 512, 1024, 2048, 4096)


def _battery_scale(seed: int) -> float:
    """Coefficient scale in [0.85, 1]; every battery prediction holds there.

    Above 1 the sp4 ``mu = 1, nu = z`` instance leaves the f < 4/3 window
    (f2_max = 1.385 at s = 1.025), so the range ends at the reference data.
    """
    if seed == 0:
        return 1.0
    return float(np.random.default_rng([seed, 3]).uniform(0.85, 1.0))


def _radial(spec, *extra):
    """Runner arguments on a freshly built radial grid: (spec, grid, *extra, SOLVER)."""
    return lambda ctx: (spec, ctx.setup(geometry.build_grid, RADIAL), *extra, SOLVER)


def _battery(s: float) -> list[Op]:
    """Criteria 03, 04, 05, 07, 08 and the distinct-data fiber comparisons.

    ``s`` scales the holomorphic data.  The criterion-07 instances scale
    only their corner datum, which keeps each bundle's data identical to
    its partner's, so they stay degenerate (margins exactly 0) and fail as
    documented.  The criterion-08 ``mu = 1, nu = 0`` instance sits on the
    constant-curvature locus to one ulp and is left unscaled.
    """
    one_s = HolomorphicDatum.constant(s)
    spec = system.make_spec
    ops = []
    nine = [(n, q) for n in (3, 4, 5)
            for q in (mono(s, 1), mono(s, 2), HolomorphicDatum.constant(0.3 * s))]
    for theorem, runner in (("nu-bounds", "verify_nu_bounds"),
                            ("curvature", "verify_curvature_bounds")):
        for n, q in nine:
            ops.append(verify_op(f"{theorem}/n{n}-{q.kind}{q.degree}", runner,
                                 _radial(spec("hitchin_component", n, (q,))), True))
    t_values = (0.0, 0.5, 1.0, 2.0)
    for label, fam in (("cyclic-n3", spec("general_cyclic", 3, (one_s, mono(s, 1), mono(s, 1)))),
                       ("sp4", spec("sp4_gothen", 4, (one_s, mono(s, 1))))):
        ops.append(verify_op(f"monotonicity/{label}", "verify_monotonicity",
                             _radial(fam, t_values), True))
    for label, variant, n, data, expect in (
            ("crit07-n2", "slnr_even", 2, (mono(s, 2), one), False),
            ("crit07-n3", "slnr_odd", 3, (mono(s, 3), one), False),
            ("crit07-n4", "slnr_even", 4, (mono(s, 4), one, one), False),
            ("distinct-n2", "slnr_even", 2, (one_s, mono(s, 2)), True),
            ("distinct-n3", "slnr_odd", 3, (one_s, mono(s, 2)), True),
            ("distinct-n4", "slnr_even", 4, (one_s, one_s, mono(s, 2)), True)):
        ops.append(verify_op(f"hitchin-fiber-comparison/{label}", "verify_fiber_comparison",
                             _radial(spec(variant, n, data)), expect))
    for label, data, expect in (("mu1-nu0", (one, zero), False),
                                ("muz-nu0", (mono(s, 1), zero), True),
                                ("mu1-nuz", (one_s, mono(s, 1)), True),
                                ("muz-nu1", (mono(s, 1), one_s), True)):
        ops.append(verify_op(f"sp4-bounds/{label}", "verify_sp4_bounds",
                             _radial(spec("sp4_gothen", 4, data)), expect))
    return ops


def radial_study(seed: int) -> list[Op]:
    """The theorem battery plus a ladder of plain radial solves.

    The ladder is not seeded: it keeps the line-search stalls of the
    absolute stopping rule visible (they count as failed operations).
    """
    ladder = [solve_op(f"solve/radial-{N}-hitchin-n{n}-{label}",
                       GridSpec("radial_disc", N, RADIUS),
                       system.make_spec("hitchin_component", n, (q,)))
              for N in LADDER_N
              for n, label, q in ((3, "q1", one), (3, "qz", mono(1.0, 1)), (5, "qz2", mono(1.0, 2)))]
    return _battery(_battery_scale(seed)) + ladder


# -- suites ----------------------------------------------------------------


def suites(seed: int) -> list[Op]:
    """The two randomized verify suites at their CLI defaults, seeded."""
    def max_principle_args(ctx):
        # verify_max_principle's default grids, built here so set-up is timed
        grids = [ctx.setup(geometry.build_grid, GridSpec("torus", (16, 16))),
                 ctx.setup(geometry.build_grid, GridSpec("radial_disc", 64, RADIUS))]
        return 200, seed, grids

    return [
        verify_op("sym-space-curvature", "verify_sym_space",
                  lambda ctx: (10000, seed, (2, 3, 4, 5, 6)), True),
        verify_op("max-principle", "verify_max_principle", max_principle_args, True),
    ]


WORKLOADS = {"newton-2d": newton_2d, "radial-study": radial_study, "suites": suites}

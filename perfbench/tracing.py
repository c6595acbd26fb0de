"""Layer-attributed tracing of hitchinlab from outside the program.

A ``Tracer`` wraps the public entry points of each module at every name a
caller looks up (``hitchinlab.analysis.solve`` as well as
``hitchinlab.solver.solve``; methods on the class), records one span per
call -- name, start, end, parent, operation id -- in memory, and restores
every original when it exits.  ``scipy.sparse.linalg.splu`` is wrapped once
and each factorisation is named after the layer of the span that encloses
it (``solver.factor`` or ``maxprin.factor``).

Only entry points are wrapped, never per-plane or per-element helpers, so a
traced pass costs little more than an untraced one.  ``layer_metrics`` turns
the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse.linalg as spla

from hitchinlab import analysis, cli, geometry, maxprin, solver, system

@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0     # time covered by direct children and trace hooks
    nested: bool = False     # an enclosing span has the same name
    error: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


# -- hooks: counters read from arguments and results, timed as trace overhead


def _count_solve(tracer, args, kwargs, report):
    tracer.counters["solver.newton_iters"] += report.iterations
    tracer.counters["solver.failed_solves"] += not report.converged


def _count_redundant_residual(tracer, args, kwargs, result):
    """A residual evaluation is redundant when its input equals, value for
    value, the input of the previous evaluation on the same system."""
    sys_, u = args[0], args[1] if len(args) > 1 else kwargs["u"]
    prev = tracer.last_residual_input.get(id(sys_))
    if prev is not None and prev[0] is sys_ and np.array_equal(prev[1], u):
        tracer.counters["solver.redundant_residual_evals"] += 1
    tracer.last_residual_input[id(sys_)] = (sys_, np.array(u, copy=True))


def _count_bytes(tracer, args, kwargs, result):
    tracer.counters["cli.bytes_written"] += os.path.getsize(args[0])


def _count_fill(tracer, args, kwargs, lu):
    """Fill of the factorisation: SuperLU's stored L+U entries over nnz(A).

    ``SuperLU.nnz`` counts the supernodal storage without building L and U
    as separate matrices, which would cost a copy of the whole factor.
    """
    layer = tracer._enclosing_factor_name().split(".", 1)[0]
    tracer.counters[f"{layer}.lu_nnz"] += lu.nnz
    tracer.counters[f"{layer}.matrix_nnz"] += args[0].nnz


_SYM_SIG = inspect.signature(analysis.verify_sym_space)


def _count_planes(tracer, args, kwargs, result):
    bound = _SYM_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    ns = bound.arguments["ns"]
    combos = sum(1 for g in analysis.SYM_GROUPS for n in ns
                 if not (g == "sp_real" and n % 2))
    tracer.counters["analysis.sym_planes"] += bound.arguments["samples"] * combos


# (module, attribute, span name, hook) for every wrapped function; the
# function is wrapped at every hitchinlab module attribute bound to it
FUNCTIONS = (
    (geometry, "build_grid", "geometry.build_grid", None),
    (geometry, "eval_norm_squared", "geometry.norm_sq", None),
    (system, "make_system", "system.make_system", None),
    (solver, "solve", "solver.solve", _count_solve),
    (solver, "continuation_solve", "solver.continuation", None),
    (maxprin, "check_conditions", "maxprin.check_conditions", None),
    (maxprin, "assemble_matrix", "maxprin.assemble", None),
    (maxprin, "solve_linear_cooperative", "maxprin.coop_solve", None),
    (maxprin, "difference_system", "maxprin.difference_system", None),
    (maxprin, "random_cooperative_system", "maxprin.random_system", None),
    (maxprin, "randomized_positivity_suite", "maxprin.suite", None),
    (analysis, "verify_monotonicity", "analysis.verify", None),
    (analysis, "verify_nu_bounds", "analysis.verify", None),
    (analysis, "verify_curvature_bounds", "analysis.verify", None),
    (analysis, "verify_fiber_comparison", "analysis.verify", None),
    (analysis, "verify_sp4_bounds", "analysis.verify", None),
    (analysis, "verify_max_principle", "analysis.verify", None),
    (analysis, "verify_sym_space", "analysis.sym_space", _count_planes),
    (analysis, "pullback_metric", "analysis.reduce", None),
    (analysis, "nu_ratios", "analysis.reduce", None),
    (analysis, "extrinsic_curvature", "analysis.reduce", None),
    (analysis, "sp4_curvature", "analysis.reduce", None),
    (analysis, "metric_ratio_fields", "analysis.reduce", None),
    (analysis, "compare_states", "analysis.reduce", None),
    (cli, "write_json", "cli.write", _count_bytes),
    (cli, "write_state_csv", "cli.write", _count_bytes),
)

METHODS = (
    (system.HitchinSystem, "residual_array", "system.residual", _count_redundant_residual),
    (system.HitchinSystem, "jacobian_matrix", "system.jacobian", None),
)


class Tracer:
    """Context manager: wraps on entry, restores on exit; spans kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.hook_s = 0.0
        self.op: int | None = None
        self.last_residual_input: dict = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[s].name == name for s in self._stack)
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter(),
                    nested=nested)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.dur

    def _run_hook(self, hook, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        hook(self, args, kwargs, result)
        dt = time.perf_counter() - t0
        self.hook_s += dt
        if self._stack:
            self.spans[self._stack[-1]].child_s += dt

    def begin_op(self, index: int) -> None:
        self.op = index
        self.last_residual_input.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, orig, name, hook):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer._open(name() if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _enclosing_factor_name(self) -> str:
        layer = self.spans[self._stack[-1]].layer if self._stack else "bench"
        return f"{layer}.factor"

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items()
                   if k == "hitchinlab" or k.startswith("hitchinlab.")]
        for owner, attr, name, hook in FUNCTIONS:
            orig = getattr(owner, attr)
            wrapped = self._wrapper(orig, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)
        for cls, attr, name, hook in METHODS:
            self._patch(cls, attr, self._wrapper(getattr(cls, attr), name, hook))
        self._patch(spla, "splu", self._wrapper(spla.splu, self._enclosing_factor_name,
                                                _count_fill))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self.last_residual_input.clear()

    def dump(self) -> list[dict]:
        return [dict(asdict(s), layer=s.layer) for s in self.spans]


# -- per-layer metrics -----------------------------------------------------

def layer_metrics(spans: list[Span], counters: Counter, hook_s: float,
                  wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of wall time ``wall_s``."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.dur for s in by_name[name] if not s.nested)

    def count(name):
        return len(by_name[name])

    def self_time(layer, exclude=()):
        return sum(s.self_s for s in spans if s.layer == layer and s.name not in exclude)

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    sym_s = total("analysis.sym_space")
    m = {
        "geometry.build_grid_s": total("geometry.build_grid"),
        "geometry.norm_sq_calls": count("geometry.norm_sq"),
        "geometry.norm_sq_s": total("geometry.norm_sq"),
        "geometry.self_s": self_time("geometry"),
        "system.make_system_s": total("system.make_system"),
        "system.residual_evals": count("system.residual"),
        "system.residual_s": total("system.residual"),
        "system.jacobian_builds": count("system.jacobian"),
        "system.jacobian_s": total("system.jacobian"),
        "system.self_s": self_time("system"),
        "solver.solves": count("solver.solve"),
        "solver.failed_solves": counters["solver.failed_solves"],
        "solver.newton_iters": counters["solver.newton_iters"],
        "solver.redundant_residual_evals": counters["solver.redundant_residual_evals"],
        "solver.factorizations": count("solver.factor"),
        "solver.factor_s": total("solver.factor"),
        "solver.lu_fill": ratio("solver.lu_nnz", "solver.matrix_nnz"),
        "solver.self_s": self_time("solver", exclude=("solver.factor",)),
        "maxprin.check_conditions_s": total("maxprin.check_conditions"),
        "maxprin.assemble_s": total("maxprin.assemble"),
        "maxprin.factor_s": total("maxprin.factor"),
        "maxprin.coop_solves": count("maxprin.coop_solve"),
        "maxprin.refusals": sum(1 for s in by_name["maxprin.coop_solve"]
                                if s.error == "CertificationError"),
        "maxprin.difference_system_s": total("maxprin.difference_system"),
        "maxprin.self_s": self_time("maxprin", exclude=("maxprin.factor",)),
        "analysis.reduce_s": total("analysis.reduce"),
        "analysis.verify_self_s": sum(s.self_s for s in by_name["analysis.verify"]),
        "analysis.sym_space_s": sym_s,
        "analysis.sym_planes_per_s": counters["analysis.sym_planes"] / sym_s if sym_s else 0.0,
        "analysis.self_s": self_time("analysis"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": counters["cli.bytes_written"],
        "trace.hook_s": hook_s,
    }
    m["bench.self_s"] = wall_s - sum(s.self_s for s in spans) - hook_s
    m["trace.wall_s"] = wall_s
    return m


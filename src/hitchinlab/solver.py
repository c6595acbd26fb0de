"""Damped Newton solver for the assembled log-metric systems.

The outer iteration is plain Newton with backtracking on the residual
max-norm.  A step is -r at the Dirichlet nodes; at the free nodes it solves
the system's Newton matrix K, the Hessian of a convex energy (see
``HitchinSystem``): symmetric negative definite on disc2d and torus grids,
and such a matrix times a positive diagonal on the radial grid.  SuperLU
factors K in its symmetric mode (minimum-degree ordering of K^T + K, applied
to rows and columns alike) with diagonal pivots, which such a matrix admits
without row interchanges.

Failure to converge is reported, not raised: blow-ups, singular Jacobians
and stalled line searches all produce a ``SolveReport`` with
``converged=False`` and a diagnostic message.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .system import BlowupError, HitchinSystem, LogMetricState


@dataclass
class SolverConfig:
    tol_residual: float = 1e-10
    max_newton_iters: int = 40
    backtrack_factor: float = 0.5
    min_step: float = 1e-8
    sufficient_decrease: float = 1e-4

    def __post_init__(self):
        if not (0 < self.backtrack_factor < 1):
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.tol_residual <= 0 or self.max_newton_iters < 1:
            raise ValueError("bad tolerance or iteration budget")


@dataclass
class SolveReport:
    state: LogMetricState
    converged: bool
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    message: str = ""
    wall_time: float = 0.0

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else np.inf

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_norms": self.residual_norms,
            "step_sizes": self.step_sizes,
            "message": self.message,
            "wall_time_s": self.wall_time,
        }


def _norm(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return np.inf
    return float(np.abs(r).max()) if r.size else 0.0


def _factor(K):
    """Sparse direct factorisation of a free-node Newton matrix."""
    return spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _newton_step(system: HitchinSystem, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The Newton step at ``u`` with residual ``r``: -r at the boundary nodes,
    whose rows are u - boundary_value, then K step_F = -(r E^T E)_F minus
    the boundary coupling applied to step_B."""
    step, free = -r, system.free
    rhs = (step[free] @ system.gram).ravel() - system.boundary_coupling @ step[~free].ravel()
    step[free] = _factor(system.jacobian_matrix(u)).solve(rhs).reshape(-1, system.m)
    return step


def solve(
    system: HitchinSystem,
    initial: LogMetricState | None = None,
    config: SolverConfig | None = None,
) -> SolveReport:
    """Run damped Newton from ``initial`` (default: the system's seed state)."""
    config = config or SolverConfig()
    state = (initial.copy() if initial is not None else system.initial_state())
    if state.u.shape != (system.grid.n_nodes, system.m):
        raise ValueError("initial state does not match the system layout")
    u = state.u
    t0 = time.perf_counter()
    norms: list[float] = []
    steps: list[float] = []

    r = system.residual_array(u)
    rnorm = _norm(r)
    norms.append(rnorm)
    if not np.isfinite(rnorm):
        return SolveReport(state, False, 0, norms, steps,
                           "non-finite residual at the initial state",
                           time.perf_counter() - t0)

    for it in range(config.max_newton_iters):
        if rnorm <= config.tol_residual:
            state = LogMetricState(system.grid, u, rnorm)
            return SolveReport(state, True, it, norms, steps,
                               "converged", time.perf_counter() - t0)
        try:
            delta = _newton_step(system, u, r)
        except BlowupError as exc:
            state = LogMetricState(system.grid, u, rnorm)
            return SolveReport(state, False, it, norms, steps, str(exc),
                               time.perf_counter() - t0)
        except RuntimeError as exc:
            state = LogMetricState(system.grid, u, rnorm)
            return SolveReport(state, False, it, norms, steps,
                               f"linear solve failed: {exc}", time.perf_counter() - t0)

        alpha = 1.0
        accepted = False
        while alpha >= config.min_step:
            trial = u + alpha * delta
            if np.array_equal(trial, u):
                break  # the step rounds away, and every shorter one does too
            trial_r = system.residual_array(trial)
            trial_norm = _norm(trial_r)
            if trial_norm <= (1.0 - config.sufficient_decrease * alpha) * rnorm:
                u, r, rnorm = trial, trial_r, trial_norm
                accepted = True
                break
            alpha *= config.backtrack_factor
        if not accepted:
            state = LogMetricState(system.grid, u, rnorm)
            return SolveReport(state, False, it + 1, norms, steps,
                               f"line search stalled below step {config.min_step:g}",
                               time.perf_counter() - t0)
        norms.append(rnorm)
        steps.append(alpha)

    converged = rnorm <= config.tol_residual
    state = LogMetricState(system.grid, u, rnorm)
    msg = "converged" if converged else (
        f"iteration budget exhausted at residual {rnorm:.3e}")
    return SolveReport(state, converged, config.max_newton_iters, norms, steps,
                       msg, time.perf_counter() - t0)


def continuation_solve(
    make_system_at,
    t_values,
    config: SolverConfig | None = None,
) -> list[tuple[float, SolveReport]]:
    """Warm-started family solve over an ascending list of scale values.

    ``make_system_at(t)`` must return the assembled system for scale t; the
    converged state at each t seeds the next solve.  Solving stops at the
    first failure (the failed report is included so callers can inspect it).
    """
    t_values = [float(t) for t in t_values]
    if any(b < a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("continuation expects ascending scale values")
    if any(t < 0 for t in t_values):
        raise ValueError("scale values must be nonnegative")
    config = config or SolverConfig()
    out: list[tuple[float, SolveReport]] = []
    warm: LogMetricState | None = None
    for t in t_values:
        system = make_system_at(t)
        report = solve(system, initial=warm, config=config)
        out.append((t, report))
        if not report.converged:
            break
        warm = report.state
    return out

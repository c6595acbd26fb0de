"""Damped Newton solver for the assembled log-metric systems.

The outer iteration is plain Newton with backtracking on the residual
max-norm.  Every iterate holds the system's Dirichlet data, so a step is 0
at the Dirichlet nodes; at the free nodes it solves the system's Newton
matrix K, the Hessian of a convex energy (see
``HitchinSystem``): symmetric negative definite on disc2d and torus grids,
and such a matrix times a positive diagonal on the radial grid.  On the 2-D
grids SuperLU factors K in its symmetric mode (one ordering applied to rows
and columns alike) with diagonal pivots, which such a matrix admits without
row interchanges, in the order of its unknowns that ``Grid.block_laplacian``
gives with K's pattern, or else in SuperLU's minimum degree of K^T + K.

Every 2-D step is solved by conjugate gradients on K, preconditioned by the
last factorisation its solve keeps (Krylov-based iterative refinement:
Carson & Higham, SIAM J. Sci. Comput. 39, 2017): -K is symmetric positive
definite, and so, up to rounding, is minus its factorisation.  They start
from x = LU^-1 b and take each residual b - K x in double precision.  The
step from a Newton residual r is accepted once |b - K x| is at most the
forcing tolerance 0.1 max(min(|r|, 1) |r|, tol_residual), or, if that is
larger, 4 eps (|K| |x| + |b|), the backward error of a fresh direct solve
(max-norms throughout).  This is inexact Newton with a quadratic forcing
term (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982; Eisenstat
& Walker, SIAM J. Sci. Comput. 17, 1996).  b - K x is the residual of the
projected free rows r E^T E, and (E^T E)^-1 has max-norm below 2, so the
linear error adds less than twice the forcing tolerance to the next Newton
residual: Newton keeps its quadratic convergence, and the linear error
alone cannot hold the residual above tol_residual, which is still tested on
the true residual.  With a forcing tolerance of 0, refinement stops only at
the 4 eps backward error.  Because refinement reaches the accuracy
asked of it, the factorisation only has to precondition: 2-D matrices are
factored in single precision, which SuperLU does faster and in half the
memory.  b, and each vector the factorisation is applied to, is scaled to
max-norm about 1 by a power of two, so neither r^T z nor the cast to single
precision underflows or overflows (Langou et al., SC'06; Carson & Higham,
SIAM J. Sci. Comput. 40, 2018).  K changes little from one Newton step to
the next, or from one member of a continuation to the next, so the
factorisation is kept until refinement through it falls short: after
``_MAX_SWEEPS`` iterations, at a breakdown (r^T z or p^T K p not negative,
or overflowed: a kept factorisation can be far from a new K), or at a
non-finite residual.  Then it is released and K factored afresh.
When even a fresh single-precision factorisation cannot refine that far, or
the cast to single precision overflows, or SuperLU fails on it, it is
released and K is factored in double precision and solved directly; that
factorisation is then the one kept.  At most one factorisation is alive.

Where K's pattern has a band (the radial grid, where K is block
tridiagonal), every step solves K as it stands, afresh and in double
precision, by LAPACK's banded LU with partial pivoting (gbsv; Golub & Van
Loan, Matrix Computations, 4.3), which is backward stable on it; nothing is
kept.  One solve owns its factorisation; ``continuation_solve`` hands one
on from each member to the next.

Failure to converge is reported, not raised: blow-ups, singular Jacobians
and stalled line searches all produce a ``SolveReport`` with
``converged=False`` and a diagnostic message.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv

from .system import BlowupError, HitchinSystem, LogMetricState


@dataclass
class SolverConfig:
    tol_residual: float = 1e-10
    max_newton_iters: int = 40

    def __post_init__(self):
        if not (0 < self.tol_residual < np.inf) or self.max_newton_iters < 1:
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
    counters: dict[str, int] = field(default_factory=dict)

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
            "counters": self.counters,
        }


def _norm(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return np.inf
    return float(np.abs(r).max()) if r.size else 0.0


def _pow2(v: np.ndarray) -> float:
    """The power of two within a factor 2 above max|v| (1 for v = 0), to scale v exactly."""
    return np.ldexp(1.0, np.frexp(_norm(v))[1])


def _factor(K, dtype=np.float64, order=None):
    """Sparse direct factorisation of a free-node Newton matrix in ``dtype``:
    of K in SuperLU's minimum-degree order, or, given an ``order`` q of its
    unknowns, of K[q][:, q] in the order it stands.

    A cast that overflows ``dtype`` raises ``FloatingPointError``.
    """
    if order is not None:
        K = K[order][:, order]  # before the cast: SuperLU then holds the only copy
    with np.errstate(over="raise"):
        K = K.astype(dtype, copy=False)
    return spla.splu(K, permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _band_solve(K, b: np.ndarray, bw: int, positions: np.ndarray) -> np.ndarray:
    """K x = b by banded LU with partial pivoting, K (CSC) of half-bandwidth
    ``bw`` and its data at ``positions`` of the band storage (see
    ``Grid.block_laplacian``).  A singular K raises ``RuntimeError``."""
    ab = np.zeros((3 * bw + 1) * K.shape[0])
    ab[positions] = K.data
    _, _, x, info = dgbsv(bw, bw, ab.reshape(3 * bw + 1, -1, order="F"), b, overwrite_ab=True)
    if info:  # info > 0: the pivot U[info - 1, info - 1] is exactly zero
        raise RuntimeError(f"banded factor is exactly singular (gbsv info {info})")
    return x


_MAX_SWEEPS = 10
_BACKWARD_ERROR = 4.0 * np.finfo(float).eps
_FORCING = 0.1
# backtracking line search on the residual max-norm: Armijo constant, step
# halving, and the step below which it stalls (Nocedal & Wright, 3.1)
_SUFFICIENT_DECREASE = 1e-4
_BACKTRACK_FACTOR = 0.5
_MIN_STEP = 1e-8


class _NewtonLU:
    """The last kept factorisation of a solve's Newton matrices, made in
    ``dtype`` and in the ``order`` of their unknowns it is applied through,
    with counts of the factorisations made and the refinement
    (conjugate-gradient) iterations run."""

    def __init__(self):
        self.lu = None
        self.dtype = None
        self.order = None
        self.factorizations = 0
        self.refinement_sweeps = 0

    def counts(self) -> dict[str, int]:
        return {"factorizations": self.factorizations,
                "refinement_sweeps": self.refinement_sweeps}

    def solve(self, K, b: np.ndarray, band=None, forcing: float = 0.0,
              order=None) -> np.ndarray:
        """K x = b: by ``_band_solve``, keeping nothing, where K has a
        ``band``, else refined to ``forcing``, factoring K in its ``order``
        if it has one (both from ``Grid.block_laplacian``)."""
        if band is not None:
            self.lu = None
            self.factorizations += 1
            return _band_solve(K, b, *band)
        if self.lu is not None and self.lu.shape == K.shape:
            x = self._refine(K, b, forcing)
            if x is not None:
                return x
        self.lu = None  # released before the new factorisation is made
        try:
            self._keep(K, np.float32, order)
        except (FloatingPointError, RuntimeError):
            pass
        else:
            x = self._refine(K, b, forcing)
            if x is not None:
                return x
            self.lu = None
        self._keep(K, np.float64, order)
        return self._solve(b)

    def _keep(self, K, dtype, order=None) -> None:
        self.lu, self.dtype, self.order = _factor(K, dtype, order), dtype, order
        self.factorizations += 1

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """LU^-1 b, through the order the factorisation was made in."""
        if self.order is None:
            return self.lu.solve(b)
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x

    def _apply(self, b: np.ndarray) -> np.ndarray:
        """LU^-1 b in double precision, b scaled to max-norm ~1 for the cast."""
        scale = _pow2(b)
        with np.errstate(over="ignore", invalid="ignore"):  # far from K: _refine gives up
            return self._solve((b / scale).astype(self.dtype, copy=False)) * scale

    def _refine(self, K, b: np.ndarray, forcing: float = 0.0) -> np.ndarray | None:
        """x with |b - K x| within ``forcing`` or the backward error of a
        fresh solve, whichever is larger, or None."""
        k_norm = np.bincount(K.indices, np.abs(K.data), K.shape[0]).max()  # |K| row sums, CSC
        scale = _pow2(b)
        b = b / scale  # max-norm ~1, so r^T z neither underflows nor overflows
        b_norm = _norm(b)
        forcing = forcing / scale
        x = self._apply(b)
        p = rz = None
        for its in range(_MAX_SWEEPS + 1):
            r = b - K @ x
            r_norm = _norm(r)
            if r_norm == np.inf:
                return None
            if r_norm <= max(forcing, _BACKWARD_ERROR * (k_norm * _norm(x) + b_norm)):
                return x * scale
            if its == _MAX_SWEEPS:
                return None
            z = self._apply(r)
            with np.errstate(over="ignore", invalid="ignore"):  # a breakdown, caught below
                rz, rz_old = r @ z, rz
                p = z if p is None else z + (rz / rz_old) * p
                pKp = p @ (K @ p)
            # -K or minus its factorisation is not definite, or a product overflowed
            if not (-np.inf < rz < 0 and -np.inf < pKp < 0):
                return None
            x = x + (rz / pKp) * p
            self.refinement_sweeps += 1


def _newton_step(system: HitchinSystem, u: np.ndarray, r: np.ndarray,
                 lu: _NewtonLU, forcing: float = 0.0) -> np.ndarray:
    """The Newton step at ``u`` with residual ``r``: 0 at the boundary nodes,
    whose values ``u`` holds, and K step_F = -(r E^T E)_F, solved through
    ``lu`` to the ``forcing`` tolerance by the band or in the order of K's
    pattern."""
    step, free = np.zeros_like(r), system.free
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up, refused by K
        rhs = -r[free] @ system.gram
    K = system.jacobian_matrix(u)
    *_, band, order = system.grid.block_laplacian(system.gram)
    step[free] = lu.solve(K, rhs.ravel(), band, forcing, order).reshape(-1, system.m)
    return step


def solve(
    system: HitchinSystem,
    initial: LogMetricState | None = None,
    config: SolverConfig | None = None,
    *,
    _lu: _NewtonLU | None = None,
) -> SolveReport:
    """Run damped Newton from ``initial`` (default: the system's seed state).

    The seed's Dirichlet rows are set to ``system.boundary_values``, so every
    iterate holds the Dirichlet data and no step moves it.  The report's
    state is ``system``'s, whichever system ``initial`` belongs to.  ``_lu``
    is the factorisation a continuation hands on; a plain solve starts with none.
    """
    config = config or SolverConfig()
    u = (LogMetricState(system, initial.u.copy()) if initial is not None
         else system.initial_state()).u
    b = system.grid.boundary_mask
    u[b] = system.boundary_values[b]
    lu = _lu if _lu is not None else _NewtonLU()
    counts0 = lu.counts()
    t0 = time.perf_counter()
    norms: list[float] = []
    steps: list[float] = []
    residual_evals = backtracks = 0

    def report(converged: bool, iterations: int, message: str) -> SolveReport:
        counters = {k: v - counts0[k] for k, v in lu.counts().items()}
        counters.update(residual_evals=residual_evals, backtracks=backtracks)
        return SolveReport(LogMetricState(system, u), converged, iterations,
                           norms, steps, message, time.perf_counter() - t0, counters)

    r = system.residual_array(u)
    residual_evals += 1
    rnorm = _norm(r)
    norms.append(rnorm)
    if not np.isfinite(rnorm):
        return report(False, 0, "non-finite residual at the initial state")

    for it in range(config.max_newton_iters):
        if rnorm <= config.tol_residual:
            return report(True, it, "converged")
        forcing = _FORCING * max(min(rnorm, 1.0) * rnorm, config.tol_residual)
        try:
            delta = _newton_step(system, u, r, lu, forcing)
        except BlowupError as exc:
            return report(False, it, str(exc))
        except RuntimeError as exc:
            return report(False, it, f"linear solve failed: {exc}")

        alpha = 1.0
        accepted = False
        while alpha >= _MIN_STEP:
            trial = u + alpha * delta
            if np.array_equal(trial, u):
                break  # the step rounds away, and every shorter one does too
            trial_r = system.residual_array(trial)
            residual_evals += 1
            trial_norm = _norm(trial_r)
            if trial_norm <= (1.0 - _SUFFICIENT_DECREASE * alpha) * rnorm:
                u, r, rnorm = trial, trial_r, trial_norm
                accepted = True
                break
            alpha *= _BACKTRACK_FACTOR
            backtracks += 1
        if not accepted:
            return report(False, it + 1,
                          f"line search stalled below step {_MIN_STEP:g}")
        norms.append(rnorm)
        steps.append(alpha)

    converged = rnorm <= config.tol_residual
    msg = "converged" if converged else (
        f"iteration budget exhausted at residual {rnorm:.3e}")
    return report(converged, config.max_newton_iters, msg)


def continuation_solve(
    make_system_at,
    t_values,
    config: SolverConfig | None = None,
) -> list[tuple[float, SolveReport]]:
    """Warm-started family solve over an ascending list of scale values.

    ``make_system_at(t)`` must return the assembled system for scale t; the
    converged state at each t seeds the next solve, and the last kept
    factorisation of each member serves the next.  Solving stops at the
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
    lu = _NewtonLU()
    for t in t_values:
        system = make_system_at(t)
        report = solve(system, initial=warm, config=config, _lu=lu)
        out.append((t, report))
        if not report.converged:
            break
        warm = report.state
    return out

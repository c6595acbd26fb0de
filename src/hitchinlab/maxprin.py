"""Discrete cooperative elliptic systems and maximum-principle checks.

A cooperative system couples n scalar fields u_1..u_n through

    L u_i + sum_j c_ij u_j = f_i,        L = (1/g) Lap + <X, grad . >

where the drift is discretised with first-order upwinding so every
off-diagonal entry of L stays nonnegative.  Positivity of solutions with
f <= 0 rests on three structure conditions:

  (a) cooperative:        c_ij >= 0 for i != j,
  (b) column dominance:   sum_i c_ij <= 0 for every j,
  (c) fully coupled:      no partition (alpha, beta) of the unknowns with
                          c_ij identically zero for i in alpha, j in beta.

``check_conditions`` verifies all three with witnesses, ``fully_coupled``
runs the iterative reachability closure for (c), and
``solve_linear_cooperative`` solves the assembled sparse system (refusing
to certify positivity when a condition fails).

``assemble_matrix`` builds the unknown-major operator in one shot from
index arrays: L's CSR entries repeated on every diagonal block, the node
couplings c_ij[k] at (i N + k, j N + k), and identity rows at Dirichlet and
pole nodes.  ``solve_linear_cooperative`` makes one SuperLU factorisation
with the columns ordered by minimum degree on A^T + A in symmetric mode:
the stencil pattern is symmetric away from the identity rows and the
upwinded drift, and on a 2-D grid this ordering fills about half as much
as the default COLAMD.  The default pivot threshold keeps partial
pivoting, so systems solved with ``certify=False`` are factored stably
too.  ``fully_coupled_bruteforce``, the oracle for the closure, scans
every proper subset of the unknowns as a bitmask.

``difference_system`` assembles the cooperative system satisfied by the
log-ratios of two solved cyclic states that share holomorphic data and
differ only in the last-arrow scale.  Its coefficients use the exact
integral-mean closed form (e^v - 1)/v, and the column sums vanish
identically, so conditions (a)-(c) certify the scale-monotonicity
comparison by the same mechanism as the continuum argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .geometry import Grid, hyperbolic_metric
from .system import CyclicSpec, LogMetricState, arrow_coefficients, expand_log_metrics

DEFAULT_POLE_VALUE = 1.0e6
CONDITION_TOL = 1e-12       # slack on conditions (a) and (b)
SUITE_RANKS = (2, 3, 4)     # unknowns per system in the randomized suite
POSITIVITY_TOL = 1e-8       # relative slack on the suite's positivity verdict


class CertificationError(ValueError):
    """A positivity certificate was requested but a condition fails."""


@dataclass
class CooperativeSystem:
    """Discrete cooperative system on a grid.

    c has shape (n, n, n_nodes); f has shape (n, n_nodes).  ``metric_weight``
    divides the Laplacian (conformal factor g in Delta_g = g^{-1} Delta);
    ``drift`` holds one velocity component per grid axis.  ``excluded`` lists
    per-unknown node sets treated as Dirichlet poles with a large positive
    value (the discrete stand-in for points where the comparison quantity
    diverges).
    """

    grid: Grid
    n: int
    c: np.ndarray
    f: np.ndarray
    metric_weight: np.ndarray | None = None
    drift: np.ndarray | None = None
    excluded: list[np.ndarray] = field(default_factory=list)
    pole_value: float = DEFAULT_POLE_VALUE

    def __post_init__(self):
        N = self.grid.n_nodes
        self.c = np.asarray(self.c, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.c.shape != (self.n, self.n, N):
            raise ValueError(f"c must have shape ({self.n}, {self.n}, {N})")
        if self.f.shape != (self.n, N):
            raise ValueError(f"f must have shape ({self.n}, {N})")
        if self.metric_weight is not None:
            self.metric_weight = np.asarray(self.metric_weight, dtype=float)
            if self.metric_weight.shape != (N,) or np.any(self.metric_weight <= 0):
                raise ValueError("metric_weight must be a positive node field")
        if not self.excluded:
            self.excluded = [np.array([], dtype=int) for _ in range(self.n)]
        if len(self.excluded) != self.n:
            raise ValueError("need one excluded-node set per unknown")
        self.excluded = [np.asarray(e, dtype=int) for e in self.excluded]
        for e in self.excluded:
            if np.any((e < 0) | (e >= N)):
                raise ValueError(f"excluded node indices must lie in [0, {N})")

    def excluded_union_mask(self) -> np.ndarray:
        mask = np.zeros(self.grid.n_nodes, dtype=bool)
        for e in self.excluded:
            mask[e] = True
        return mask

    def scan_mask(self) -> np.ndarray:
        """Nodes where the structure conditions are checked: off poles and
        off the Dirichlet boundary."""
        return ~(self.excluded_union_mask() | self.grid.boundary_mask)

    def elliptic_operator(self) -> sparse.csr_matrix:
        """L = (1/g) Lap + upwinded drift, with zero rows at boundary nodes."""
        L = self.grid.lap
        if self.metric_weight is not None:
            L = sparse.diags(1.0 / self.metric_weight) @ L
        if self.drift is not None:
            L = L + _upwind_drift(self.grid, np.asarray(self.drift, float))
        return L.tocsr()


def _upwind_drift(grid: Grid, velocity: np.ndarray) -> sparse.csr_matrix:
    """First-order upwind discretisation of <X, grad u>.

    Off-diagonal entries are nonnegative by construction, preserving the
    M-matrix sign pattern of the full operator.  Where the upwind neighbor
    is missing (domain edge) the term is dropped.
    """
    nbr, spacings = grid.directional_neighbors()
    N = grid.n_nodes
    dim = len(spacings)
    if velocity.ndim == 1:
        velocity = velocity[:, None]
    if velocity.shape != (N, dim):
        raise ValueError(f"drift must have shape ({N}, {dim})")
    rows, cols, vals = [], [], []
    interior = ~grid.boundary_mask
    for ax, h in enumerate(spacings):
        minus, plus = nbr[:, 2 * ax], nbr[:, 2 * ax + 1]
        v = velocity[:, ax]
        forward = interior & (v > 0) & (plus >= 0)
        backward = interior & (v < 0) & (minus >= 0)
        p = np.nonzero(forward | backward)[0]
        w = np.abs(v[p]) / h
        rows += [p, p]
        cols += [np.where(forward, plus, minus)[p], p]
        vals += [w, -w]
    return sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(N, N)).tocsr()


@dataclass
class ConditionReport:
    cooperative_ok: bool
    column_ok: bool
    coupled_ok: bool
    worst_offdiag: tuple[int, int, int, float] | None  # (i, j, node, value)
    worst_column: tuple[int, int, float] | None        # (j, node, value)
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None

    @property
    def passed(self) -> bool:
        return self.cooperative_ok and self.column_ok and self.coupled_ok

    def to_json_dict(self) -> dict:
        return {
            "cooperative_ok": self.cooperative_ok,
            "column_dominance_ok": self.column_ok,
            "fully_coupled": self.coupled_ok,
            "worst_offdiag": list(self.worst_offdiag) if self.worst_offdiag else None,
            "worst_column_sum": list(self.worst_column) if self.worst_column else None,
            "partition": [list(p) for p in self.partition] if self.partition else None,
            "tol": CONDITION_TOL,
            "passed": self.passed,
        }


def coupling_pattern(system: CooperativeSystem) -> np.ndarray:
    """Boolean matrix: entry (i, j) iff c_ij is not identically zero."""
    scan = system.scan_mask()
    c = system.c[:, :, scan]
    return np.any(np.abs(c) > 0.0, axis=2)


def fully_coupled(pattern: np.ndarray):
    """Decide full coupling by iterative reachability closure.

    Starting from each unknown, repeatedly adjoin every unknown its current
    set couples into; if the closure stabilises on a proper subset alpha,
    then (alpha, complement) is a decoupling partition and the system is
    not fully coupled.

    Returns (True, None) or (False, (alpha, beta)).
    """
    P = np.asarray(pattern, dtype=bool)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("pattern must be square")
    for s in range(n):
        alpha = {s}
        while True:
            reach = {j for i in alpha for j in range(n) if P[i, j]}
            grown = alpha | reach
            if grown == alpha:
                break
            alpha = grown
        if len(alpha) < n:
            beta = tuple(sorted(set(range(n)) - alpha))
            return False, (tuple(sorted(alpha)), beta)
    return True, None


def fully_coupled_bruteforce(pattern: np.ndarray) -> bool:
    """Oracle: scan all 2^n - 2 proper nonempty subsets for a decoupling.

    A subset is a bitmask s over the unknowns.  reach[s] is the OR of the
    row masks of s's members, so (s, complement) decouples iff
    reach[s] & ~s == 0.
    """
    P = np.asarray(pattern, dtype=bool)
    n = P.shape[0]
    row_masks = P.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    reach = np.zeros(1, dtype=np.int64)
    for m in row_masks:                 # subsets with bit i set follow those without
        reach = np.concatenate([reach, reach | m])
    s = np.arange(1, 2**n - 1, dtype=np.int64)
    return not np.any((reach[1:-1] & ~s) == 0)


def check_conditions(system: CooperativeSystem) -> ConditionReport:
    """Verify conditions (a), (b), (c) with worst-case witnesses.

    (a) and (b) allow ``CONDITION_TOL`` of round-off; (c) counts a coupling
    that is nonzero at any scanned node.
    """
    scan = system.scan_mask()
    scan_idx = np.nonzero(scan)[0]
    n = system.n

    worst_off = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vals = system.c[i, j, scan]
            if vals.size == 0:
                continue
            k = int(np.argmin(vals))
            if worst_off is None or vals[k] < worst_off[3]:
                worst_off = (i, j, int(scan_idx[k]), float(vals[k]))
    cooperative_ok = worst_off is None or worst_off[3] >= -CONDITION_TOL

    colsums = system.c.sum(axis=0)[:, scan]  # (n, n_scan)
    worst_col = None
    if colsums.size:
        j, k = np.unravel_index(np.argmax(colsums), colsums.shape)
        worst_col = (int(j), int(scan_idx[k]), float(colsums[j, k]))
    column_ok = worst_col is None or worst_col[2] <= CONDITION_TOL

    coupled_ok, partition = fully_coupled(coupling_pattern(system))
    return ConditionReport(cooperative_ok, column_ok, coupled_ok,
                           worst_off, worst_col, partition)


def assemble_matrix(system: CooperativeSystem) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sparse operator and right-hand side, unknown-major ordering.

    Boundary nodes get homogeneous Dirichlet rows; excluded (pole) nodes
    get Dirichlet rows pinned at ``pole_value``.
    """
    N = system.grid.n_nodes
    n = system.n
    pins = np.concatenate([i * N + e for i, e in enumerate(system.excluded)])
    dirichlet = np.tile(system.grid.boundary_mask, n)
    dirichlet[pins] = True
    free = ~dirichlet
    # L's entries repeated on every diagonal block, offset by i*N
    L = system.elliptic_operator()
    offset = (np.arange(n) * N)[:, None]
    l_rows = (np.repeat(np.arange(N), np.diff(L.indptr)) + offset).ravel()
    l_cols = (L.indices + offset).ravel()
    # coupling c_ij at node k sits at row i*N + k, column j*N + k
    i, j, k = np.indices(system.c.shape).reshape(3, -1)
    rows = np.concatenate([l_rows, i * N + k])
    cols = np.concatenate([l_cols, j * N + k])
    vals = np.concatenate([np.tile(L.data, n), system.c.ravel()])
    keep = free[rows]
    # Dirichlet and pole rows are identity rows
    d = np.nonzero(dirichlet)[0]
    A = sparse.csr_matrix((np.concatenate([vals[keep], np.ones(d.size)]),
                           (np.concatenate([rows[keep], d]), np.concatenate([cols[keep], d]))),
                          shape=(n * N, n * N))
    A.eliminate_zeros()
    rhs = np.where(free, system.f.ravel(), 0.0)
    rhs[pins] = system.pole_value
    return A, rhs


def solve_linear_cooperative(system: CooperativeSystem, certify: bool = True):
    """Solve the assembled system; returns (u, ConditionReport).

    With ``certify=True`` a failing structure condition raises
    ``CertificationError`` (the solve is refused as a positivity
    certificate); pass ``certify=False`` to solve regardless.
    """
    report = check_conditions(system)
    if certify and not report.passed:
        raise CertificationError(
            "structure conditions fail; positivity is not certified "
            f"({report.to_json_dict()})"
        )
    A, rhs = assemble_matrix(system)
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError(f"singular cooperative operator: {exc}") from exc
    u = lu.solve(rhs).reshape(system.n, system.grid.n_nodes)
    return u, report


def rescale_unknowns(system: CooperativeSystem, lambdas) -> CooperativeSystem:
    """Diagonal rescaling u_i -> lambda_i u_i: c'_ij = c_ij l_i / l_j, f'_i = l_i f_i.

    Solutions transform exactly by the same factors, and positivity of u is
    equivalent to positivity of the rescaled solution.  Cooperativity and
    the coupling pattern are invariant, but column dominance is not: it must
    be re-checked on the transformed system.  Choosing scales that repair
    dominance is the standard way to widen the reach of the certificate.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (system.n,) or np.any(lam <= 0):
        raise ValueError("need one positive scale per unknown")
    c = system.c * lam[:, None, None] / lam[None, :, None]
    f = system.f * lam[:, None]
    return CooperativeSystem(system.grid, system.n, c, f, system.metric_weight,
                             system.drift, [e.copy() for e in system.excluded],
                             system.pole_value)


# -- difference system of a scale family -----------------------------------


@dataclass
class DifferenceSystem:
    """Cooperative system satisfied by log-ratios of two family members."""

    system: CooperativeSystem
    v: np.ndarray                 # (n_v, n_nodes) log-ratio fields
    mode: str                     # "cyclic" or "vanishing_corner"
    scale_ratio_log: float        # 2 log(t_a / t_b), inf when t_b = 0
    residual_inf: float           # worst interior defect of L v + C v - f

    def row_sum_error(self) -> float:
        """Max deviation of sum_k v_k from its constant value (cyclic mode)."""
        if self.mode != "cyclic":
            raise ValueError("row-sum identity only holds in cyclic mode")
        return float(np.abs(self.v.sum(axis=0) - self.scale_ratio_log).max())


def _phi(v: np.ndarray) -> np.ndarray:
    """Integral mean of e^(s v) over s in [0, 1]: (e^v - 1)/v, -> 1 at v = 0."""
    out = np.ones_like(v)
    nz = v != 0.0
    out[nz] = np.expm1(v[nz]) / v[nz]
    return out


def difference_system(spec_a: CyclicSpec, state_a: LogMetricState,
                      spec_b: CyclicSpec, state_b: LogMetricState) -> DifferenceSystem:
    """Assemble the cooperative system for v_k = log(u_k^a / u_k^b).

    The two specs must share all holomorphic data and differ only in the
    last-arrow scale, with |t_a| > |t_b| >= 0.  The consecutive-metric
    ratios u_k (with |t|^2 folded into the corner ratio) satisfy a closed
    cyclic system; subtracting the two copies and applying the exact
    mean-value identity e^x - e^y = (x - y) * mean(e) yields

        (1/g0) Lap v_k + c_{k-1} v_{k-1} - 2 c_k v_k + c_{k+1} v_{k+1} = f_k,

    where c_k = g0^{-1} |gamma_k|^2 u_k^b Phi(v_k) >= 0.  With t_b > 0 the
    right side vanishes and the column sums are exactly zero; with t_b = 0
    the corner column drops out and the corner term of the a-side moves to
    the (nonpositive, not identically zero) right-hand side.
    """
    grid = state_a.grid
    if state_b.grid is not grid and state_b.grid.spec != grid.spec:
        raise ValueError("states live on different grids")
    if grid.kind == "torus":
        raise ValueError("the scale-family comparison needs the hyperbolic background")
    if spec_a.cyclic_data() != spec_b.cyclic_data():
        raise ValueError("specs must share all holomorphic data (only t may differ)")
    ta, tb = abs(spec_a.t), abs(spec_b.t)
    if not ta > tb:
        raise ValueError("need |t_a| > |t_b|")

    n = spec_a.n
    N = grid.n_nodes
    g0 = hyperbolic_metric(grid)
    G = arrow_coefficients(replace(spec_a, t=1.0), grid)        # t enters through v

    w_a = expand_log_metrics(spec_a, state_a)
    w_b = expand_log_metrics(spec_b, state_b)
    lr_a = np.roll(w_a, -1, axis=1) - w_a          # log consecutive ratios
    lr_b = np.roll(w_b, -1, axis=1) - w_b
    mode = "cyclic" if tb > 0 else "vanishing_corner"

    if mode == "cyclic":
        lr_a[:, n - 1] += 2.0 * np.log(ta)
        lr_b[:, n - 1] += 2.0 * np.log(tb)
        n_v = n
    else:
        n_v = n - 1
    v = (lr_a - lr_b)[:, :n_v].T                    # (n_v, N)

    u_b = np.exp(lr_b).T                            # (n, N); corner scaled iff cyclic
    v_pad = np.vstack([v, np.zeros((n - n_v, N))])
    c_k = G.T * u_b * _phi(v_pad) / g0
    # a-side corner arrow term |t_a gamma_n|^2 h_n^{-1} h_1 (source in the
    # vanishing-corner mode); lr_a already contains the t_a^2 in cyclic mode
    corner_scale = 1.0 if mode == "cyclic" else ta**2
    corner_a = corner_scale * G[:, n - 1] * np.exp(lr_a[:, n - 1]) / g0

    C = np.zeros((n_v, n_v, N))
    f = np.zeros((n_v, N))
    for k in range(n_v):
        C[k, k] -= 2.0 * c_k[k]
        for j in (k - 1, k + 1):
            jj = j % n
            if jj < n_v:
                C[k, jj] += c_k[jj]
            else:
                # neighbor is the vanished corner: its a-side term is a source
                f[k] -= corner_a
    sys_ = CooperativeSystem(grid, n_v, C, f, metric_weight=g0)

    L = sys_.elliptic_operator()
    defect = np.stack([L @ v[k] for k in range(n_v)])
    defect += np.einsum("kjN,jN->kN", C, v) - f
    interior = grid.interior_mask
    residual_inf = float(np.abs(defect[:, interior]).max()) if interior.any() else 0.0

    ratio = 2.0 * (np.log(ta) - np.log(tb)) if tb > 0 else np.inf
    return DifferenceSystem(sys_, v, mode, ratio, residual_inf)


# -- randomized positivity suite -------------------------------------------


def _smooth_field(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """A smooth O(1) node field adapted to the grid's chart."""
    x, y = grid.xy[:, 0], grid.xy[:, 1]
    if grid.kind == "torus":
        lx, ly = grid.spec.periods
        kx, ky = rng.integers(1, 3, size=2)
        ph = rng.uniform(0, 2 * np.pi, size=2)
        return np.cos(2 * np.pi * kx * x / lx + ph[0]) * np.cos(2 * np.pi * ky * y / ly + ph[1])
    coeffs = rng.uniform(-1, 1, size=4)
    r2 = x**2 + y**2
    return coeffs[0] + coeffs[1] * x + coeffs[2] * y + coeffs[3] * r2


def random_cooperative_system(grid: Grid, n: int, rng: np.random.Generator,
                              violate: str | None = None,
                              with_drift: bool = False,
                              with_poles: bool = False) -> CooperativeSystem:
    """Draw a random system satisfying (a)-(c) with f <= 0, f != 0.

    ``violate`` breaks exactly one condition for negative controls:
    "cooperative", "column", or "coupled".  An unknown name, or a violation
    that n unknowns cannot realise (breaking cooperativity or coupling needs
    n >= 2, column dominance n >= 1), raises ``ValueError``.
    """
    if violate is not None:
        if violate not in ("cooperative", "column", "coupled"):
            raise ValueError(f"unknown violation {violate!r}; expected "
                             "'cooperative', 'column' or 'coupled'")
        need = 1 if violate == "column" else 2
        if n < need:
            raise ValueError(f"violation {violate!r} needs n >= {need} unknowns, got n = {n}")
    N = grid.n_nodes
    c = np.zeros((n, n, N))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ring = (j == (i + 1) % n) or (i == (j + 1) % n)
            if ring or rng.random() < 0.4:
                c[i, j] = rng.uniform(0.2, 1.0) * (1.1 + _smooth_field(grid, rng)) ** 2
    if violate == "coupled":
        # silence every coupling out of unknown 0 so ({0}, rest) decouples
        for j in range(1, n):
            c[0, j] = 0.0
    slack = np.stack([rng.uniform(0.1, 0.6) * (1.05 + _smooth_field(grid, rng)) ** 2
                      for _ in range(n)])
    for j in range(n):
        c[j, j] = -c[:, j, :].sum(axis=0) - slack[j]
    if violate == "cooperative":
        # negative at every node, so (a) fails however large c_01 was drawn
        c[0, 1] = -2.0 - np.abs(_smooth_field(grid, rng))
    if violate == "column":
        c[0, 0] = c[0, 0] + slack[0] + 1.0

    f = -np.stack([np.abs(_smooth_field(grid, rng)) + 0.05 for _ in range(n)])
    drift = None
    if with_drift:
        _, spacings = grid.directional_neighbors()
        drift = np.column_stack([rng.uniform(-0.5, 0.5) * np.ones(N)
                                 for _ in spacings])
        if grid.kind == "radial_disc":
            drift = drift * grid.xy[:, :1]  # vanish at the axis
    excluded = []
    if with_poles:
        interior_idx = np.nonzero(grid.interior_mask)[0]
        for _ in range(n):
            k = rng.integers(0, len(interior_idx), size=2)
            excluded.append(np.unique(interior_idx[k]))
    return CooperativeSystem(grid, n, c, f, None, drift,
                             excluded if excluded else [], DEFAULT_POLE_VALUE)


def randomized_positivity_suite(count: int, seed: int, grids: list[Grid]) -> dict:
    """Run ``count`` random certified solves and record interior minima.

    Verdict: every certified system has min u > -POSITIVITY_TOL * scale on
    its free nodes (strict positivity up to roundoff).  A suite of no
    solves would assert nothing, so ``count < 1`` is a ValueError.
    """
    if count < 1:
        raise ValueError(f"max-principle count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    cases = []
    worst = np.inf
    for k in range(count):
        grid = grids[k % len(grids)]
        n = int(rng.choice(SUITE_RANKS))
        with_drift = bool(rng.random() < 0.3)
        with_poles = bool(rng.random() < 0.3)
        sys_ = random_cooperative_system(grid, n, rng, None, with_drift, with_poles)
        u, report = solve_linear_cooperative(sys_, certify=True)
        free = sys_.scan_mask()
        umin = float(u[:, free].min())
        scale = float(np.abs(u[:, free]).max())
        margin = umin / max(scale, 1e-300)
        worst = min(worst, margin)
        cases.append({"case": k, "grid": grid.kind, "n": n,
                      "drift": with_drift, "poles": with_poles,
                      "min_u": umin, "scale": scale, "relative_min": margin})
    passed = worst > -POSITIVITY_TOL
    return {"count": count, "seed": seed, "worst_relative_min": worst,
            "tol": POSITIVITY_TOL, "passed": bool(passed), "cases": cases}

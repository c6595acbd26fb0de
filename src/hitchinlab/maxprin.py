"""Discrete cooperative elliptic systems and maximum-principle checks.

A cooperative system couples n scalar fields u_1..u_n through

    L u_i + sum_j c_ij u_j = f_i,        L = (1/g) Lap + <X, grad . >

where the drift is discretised with first-order upwinding so every
off-diagonal entry of L stays nonnegative.  Positivity of solutions with
f <= 0 rests on three structure conditions on the rows (i, k) the solve
keeps, ``CooperativeSystem.free_rows``:

  (a) cooperative:        c_ij >= 0 for i != j on every free row i,
  (b) column dominance:   sum_i c_ij <= 0 over the free rows, for every free
                          column j, and with every row free (a periodic grid
                          with no pole) also < 0 for some j at some node,
                          since zero column sums everywhere leave L + C singular,
  (c) fully coupled:      no partition (alpha, beta) of the unknowns with
                          c_ij zero wherever rows i in alpha, j in beta are free.

``check_conditions`` verifies all three with witnesses and returns the
dict a verdict writes, ``fully_coupled`` decides (c) from the boolean
transitive closure of the coupling pattern, and
``solve_linear_cooperative`` solves the assembled sparse system, refusing
it when a condition fails, since positivity is then not certified.

``assemble_matrix`` builds the unknown-major operator in one shot from
index arrays: L's CSR entries repeated on every diagonal block, the node
couplings c_ij[k] at (i N + k, j N + k), and identity rows at Dirichlet and
pole nodes.  ``solve_linear_cooperative`` makes one SuperLU factorisation
with the columns ordered by minimum degree on A^T + A in symmetric mode:
the stencil pattern is symmetric away from the identity rows and the
upwinded drift, and on a 2-D grid this ordering fills about half as much
as the default COLAMD.

``difference_system`` assembles the cooperative system satisfied by the
gap v of the ``HitchinSystem.scaled_log_ratios`` of two solved cyclic states
that share holomorphic data and differ only in the last-arrow scale; the
ratio margins of ``analysis.compare_states`` are its row minima.  Its
coefficients are exact integral means, the closed form (e^v - 1)/v near
v = 0 and a difference quotient beyond, and the column sums vanish
identically, so conditions (a)-(c) prove the scale-monotonicity comparison
by the same mechanism as the continuum argument.

``randomized_positivity_suite`` draws its systems from one stream on the
calling thread, in case order, and runs their certified solves on one
thread per CPU; SuperLU's factorisation releases the GIL.  Its cases come
out in the serial order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from ._parallel import imap_in_order
from .geometry import Grid, hyperbolic_metric
from .system import LogMetricState

POLE_VALUE = 1.0e6          # Dirichlet value at excluded (pole) nodes
CONDITION_TOL = 1e-12       # slack on conditions (a) and (b)
SUITE_RANKS = (2, 3, 4)     # unknowns per system in the randomized suite
POSITIVITY_TOL = 1e-8       # relative slack on the suite's positivity verdict
PHI_CUTOFF = 1.0            # |v| beyond which a difference coefficient is a quotient


class CertificationError(ValueError):
    """A positivity certificate was requested but a condition fails."""


@dataclass
class CooperativeSystem:
    """Discrete cooperative system on a grid.

    c has shape (n, n, n_nodes); f has shape (n, n_nodes).  ``metric_weight``
    divides the Laplacian (conformal factor g in Delta_g = g^{-1} Delta);
    ``drift`` holds one velocity component per grid axis.  ``excluded`` is an
    (n, n_nodes) boolean mask, None for no poles, of the nodes where each
    unknown is a Dirichlet pole with the large positive value ``POLE_VALUE``
    (the discrete stand-in for points where the comparison quantity
    diverges).  A pole pins only its own unknown (see ``free_rows``).
    """

    grid: Grid
    n: int
    c: np.ndarray
    f: np.ndarray
    metric_weight: np.ndarray | None = None
    drift: np.ndarray | None = None
    excluded: np.ndarray | None = None

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
        if self.excluded is None:
            self.excluded = np.zeros((self.n, N), dtype=bool)
        self.excluded = np.asarray(self.excluded, dtype=bool)
        if self.excluded.shape != (self.n, N):
            raise ValueError(f"excluded must be a boolean mask of shape ({self.n}, {N})")

    def free_rows(self) -> np.ndarray:
        """(n, n_nodes) mask of the unknowns the solve keeps: row (i, k) is
        free unless node k is on the Dirichlet boundary or a pole of u_i."""
        return ~(self.excluded | self.grid.boundary_mask)

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


def coupling_pattern(system: CooperativeSystem) -> np.ndarray:
    """Boolean matrix: entry (i, j) iff c_ij != 0 where rows i and j are free."""
    free = system.free_rows()
    return np.any((np.abs(system.c) > 0.0) & free[:, None] & free[None, :], axis=2)


def fully_coupled(pattern: np.ndarray):
    """Decide full coupling by reachability in the coupling digraph.

    The unknowns reachable from a start unknown along edges i -> j with
    pattern[i, j] set form a set alpha that nothing couples out of; if it
    is a proper subset, (alpha, complement) is a decoupling partition and
    the system is not fully coupled.  Start unknowns are tried in order.
    Reachability is the transitive closure of P | I: squaring it
    ceil(log2 n) times covers every path of at most n - 1 edges.

    Returns (True, None) or (False, (alpha, beta)).
    """
    P = np.asarray(pattern, dtype=bool)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("pattern must be square")
    R = P | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        R |= R @ R
    for reach in R:
        if not reach.all():
            return False, (tuple(np.flatnonzero(reach).tolist()),
                           tuple(np.flatnonzero(~reach).tolist()))
    return True, None


def check_conditions(system: CooperativeSystem) -> dict:
    """Verify conditions (a), (b), (c) with worst-case witnesses.

    Each reads the ``free_rows``, the rows ``assemble_matrix`` keeps, as the
    module docstring states.  (a) and (b) allow ``CONDITION_TOL`` of
    round-off; with every row free, (b) also needs some column sum below
    -``CONDITION_TOL``.  Returns the verdict dict: the three flags, the
    witnesses ``worst_offdiag`` [i, j, node, c_ij], ``worst_column_sum``
    [j, node, sum] and the decoupling ``partition`` (each None when there is
    none), ``tol`` and ``passed``.
    """
    free = system.free_rows()
    # (a) couplings into a pole count too: c_ij POLE_VALUE enters the right side
    i_off, j_off = np.nonzero(~np.eye(system.n, dtype=bool))  # (i, j) in i-major order
    p, k = np.nonzero(free[i_off])
    off = system.c[i_off[p], j_off[p], k]
    worst_off = None
    if off.size:
        w = np.argmin(off)
        worst_off = [int(i_off[p[w]]), int(j_off[p[w]]), int(k[w]), float(off[w])]
    cooperative_ok = worst_off is None or worst_off[3] >= -CONDITION_TOL

    j, k = np.nonzero(free)
    colsums = np.where(free[:, None], system.c, 0.0).sum(axis=0)[j, k]
    worst_col = None
    if colsums.size:
        w = np.argmax(colsums)
        worst_col = [int(j[w]), int(k[w]), float(colsums[w])]
    column_ok = worst_col is None or worst_col[2] <= CONDITION_TOL
    if free.all():
        # nothing pins the operator: zero column sums at every node leave a
        # left null vector (the invariant measure of L, once per unknown)
        column_ok = bool(column_ok and (colsums < -CONDITION_TOL).any())

    coupled_ok, partition = fully_coupled(coupling_pattern(system))
    return {"cooperative_ok": cooperative_ok, "column_dominance_ok": column_ok,
            "fully_coupled": coupled_ok, "worst_offdiag": worst_off,
            "worst_column_sum": worst_col,
            "partition": [list(p) for p in partition] if partition else None,
            "tol": CONDITION_TOL, "passed": cooperative_ok and column_ok and coupled_ok}


def assemble_matrix(system: CooperativeSystem) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sparse operator and right-hand side, unknown-major ordering.

    Boundary nodes get homogeneous Dirichlet rows; excluded (pole) nodes
    get Dirichlet rows pinned at ``POLE_VALUE``.
    """
    N = system.grid.n_nodes
    n = system.n
    free = system.free_rows().ravel()   # unknown-major, like the rows: i*N + k
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
    d = np.nonzero(~free)[0]
    A = sparse.csr_matrix((np.concatenate([vals[keep], np.ones(d.size)]),
                           (np.concatenate([rows[keep], d]), np.concatenate([cols[keep], d]))),
                          shape=(n * N, n * N))
    A.eliminate_zeros()
    rhs = np.where(free, system.f.ravel(), 0.0)
    rhs[system.excluded.ravel()] = POLE_VALUE
    return A, rhs


def solve_linear_cooperative(system: CooperativeSystem) -> np.ndarray:
    """Solve the assembled system; returns u, shape (n, n_nodes).

    A failing structure condition raises ``CertificationError``: positivity
    is then not certified.
    """
    report = check_conditions(system)
    if not report["passed"]:
        raise CertificationError(
            f"structure conditions fail; positivity is not certified ({report})")
    A, rhs = assemble_matrix(system)
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise RuntimeError(f"singular cooperative operator: {exc}") from exc
    return lu.solve(rhs).reshape(system.n, system.grid.n_nodes)


# -- difference system of a scale family -----------------------------------


@dataclass
class DifferenceSystem:
    """Cooperative system satisfied by log-ratios of two family members."""

    system: CooperativeSystem
    v: np.ndarray                 # (n_v, n_nodes) log-ratio fields
    mode: str                     # "cyclic" or "vanishing_corner"
    residual_inf: float           # worst interior defect of L v + C v - f


def _phi(v: np.ndarray) -> np.ndarray:
    """Integral mean of e^(s v) over s in [0, 1]: (e^v - 1)/v, -> 1 at v = 0."""
    out = np.ones_like(v)
    nz = v != 0.0
    out[nz] = np.expm1(v[nz]) / v[nz]
    return out


def difference_system(state_a: LogMetricState, state_b: LogMetricState) -> DifferenceSystem:
    """Assemble the cooperative system for v_k = log(u_k^a / u_k^b).

    The two states' specs must share all holomorphic data and differ only
    in the last-arrow scale, with |t_a| > |t_b| >= 0, and so must their
    assembled coefficients.  The consecutive-metric ratios u_k (logs
    ``scaled_log_ratios``, |t|^2 in the corner) satisfy a closed cyclic
    system; subtracting the two copies and applying the exact mean-value
    identity e^x - e^y = (x - y) * mean(e) yields

        (1/g0) Lap v_k + c_{k-1} v_{k-1} - 2 c_k v_k + c_{k+1} v_{k+1} = f_k,

    where c_k = g0^{-1} a_k^b Phi(v_k) = g0^{-1} (a_k^a - a_k^b) / v_k >= 0,
    a the states' arrow terms |gamma_k|^2 u_k, in the first form where
    |v_k| <= ``PHI_CUTOFF``.  With |t_b|^2 > 0 the right side vanishes and
    the column sums are exactly zero; with |t_b|^2 = 0 (t_b = 0 or an
    underflow) the corner column drops out and the a-side corner arrow term
    moves to the (nonpositive) right-hand side.
    """
    grid, spec_a, spec_b = state_a.grid, state_a.spec, state_b.spec
    if state_b.grid.spec != grid.spec:
        raise ValueError("states live on different grids")
    if not abs(spec_a.t) > abs(spec_b.t):
        raise ValueError("need |t_a| > |t_b|")
    # so must the assembled coefficients, which ``coefficient_fields`` can set
    # apart: the rungs bit for bit, and each corner / |t|^2, one field rounded
    # twice, within 4 eps relative plus smallest_subnormal / |t|^2 (underflow)
    G_a, G_b = state_a.system.coeff_sq, state_b.system.coeff_sq
    s_a, s_b, fl = spec_a.scale_sq, spec_b.scale_sq, np.finfo(float)
    same = (spec_a.cyclic_data() == spec_b.cyclic_data()
            and np.array_equal(G_a[:, :-1], G_b[:, :-1]))
    if same and s_b > 0:
        F_a, F_b = G_a[:, -1] / s_a, G_b[:, -1] / s_b
        tiny = fl.smallest_subnormal
        slack = 4 * fl.eps * np.maximum(F_a, F_b) + tiny / s_a + tiny / s_b
        same = bool((np.abs(F_a - F_b) <= slack).all())
    if not same:
        raise ValueError("specs must share all holomorphic data (only t may differ)")

    n, N, g0 = spec_a.n, grid.n_nodes, hyperbolic_metric(grid)
    a_a, a_b = (s.system.arrow_terms(s.u).T for s in (state_a, state_b))   # (n, N)
    mode = "cyclic" if spec_b.scale_sq > 0 else "vanishing_corner"
    n_v = n if mode == "cyclic" else n - 1
    L_a, L_b = (s.system.scaled_log_ratios(s.u)[:, :n_v] for s in (state_a, state_b))
    v = (L_a - L_b).T                               # (n_v, N)
    # the quotient cancels near v = 0; e^v overflows for a subnormal |t_b|^2
    far = np.abs(v) > PHI_CUTOFF
    c_k = a_b[:n_v] * _phi(np.where(far, 0.0, v))
    c_k[far] = (a_a[:n_v] - a_b[:n_v])[far] / v[far]
    c_k /= g0

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
                f[k] -= a_a[-1] / g0
    sys_ = CooperativeSystem(grid, n_v, C, f, metric_weight=g0)

    L = sys_.elliptic_operator()
    defect = np.stack([L @ v[k] for k in range(n_v)])
    defect += np.einsum("kjN,jN->kN", C, v) - f
    residual_inf = float(np.abs(defect[sys_.free_rows()]).max(initial=0.0))
    return DifferenceSystem(sys_, v, mode, residual_inf)


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
    excluded = None
    if with_poles:
        interior_idx = np.nonzero(grid.interior_mask)[0]
        excluded = np.zeros((n, N), dtype=bool)
        for pins in excluded:
            pins[interior_idx[rng.integers(0, len(interior_idx), size=2)]] = True
    return CooperativeSystem(grid, n, c, f, None, drift, excluded)


def randomized_positivity_suite(count: int, seed: int, grids: list[Grid]) -> dict:
    """Run ``count`` random certified solves and record interior minima.

    Verdict: every certified system has min u > -POSITIVITY_TOL * scale on
    its free nodes (strict positivity up to roundoff).  A suite of no
    solves would assert nothing, so ``count < 1`` is a ValueError, and so is
    an empty ``grids``.  The calling thread draws every system from one
    stream in case order; the certified solves run concurrently on the
    process's CPUs, and the cases, the verdict and the first exception come
    out as a serial loop would give them.
    """
    if count < 1:
        raise ValueError(f"max-principle count must be >= 1, got {count}")
    if not grids:
        raise ValueError("max-principle needs at least one grid")
    rng = np.random.default_rng(seed)

    def draws():
        for k in range(count):
            grid = grids[k % len(grids)]
            n = int(rng.choice(SUITE_RANKS))
            with_drift = bool(rng.random() < 0.3)
            with_poles = bool(rng.random() < 0.3)
            sys_ = random_cooperative_system(grid, n, rng, None, with_drift, with_poles)
            yield k, sys_, with_drift, with_poles

    def certified_case(draw):
        k, sys_, with_drift, with_poles = draw
        # the module attribute is looked up per call, so a wrapper installed
        # on it sees every solve, whichever thread makes it
        u = solve_linear_cooperative(sys_)
        free = sys_.free_rows()
        umin = float(u[free].min())
        scale = float(np.abs(u[free]).max())
        return {"case": k, "grid": sys_.grid.kind, "n": sys_.n,
                "drift": with_drift, "poles": with_poles,
                "min_u": umin, "scale": scale, "relative_min": umin / max(scale, 1e-300)}

    cases = []
    worst = np.inf
    for case in imap_in_order(certified_case, draws()):
        worst = min(worst, case["relative_min"])
        cases.append(case)
    passed = worst > -POSITIVITY_TOL
    return {"count": count, "seed": seed, "worst_relative_min": worst,
            "tol": POSITIVITY_TOL, "passed": bool(passed), "cases": cases}

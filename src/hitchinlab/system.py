"""Assembly of the coupled log-metric equations for cyclic Higgs bundles.

A rank-n cyclic bundle carries n "arrow" coefficients (gamma_1, ..., gamma_n);
the harmonic metric is diagonal, h = diag(h_1, ..., h_n) with det h = 1, and
its logs w_k = log h_k satisfy the Toda-type system

    Delta w_k + a_k - a_{k-1} = 0,    a_k = |gamma_k|^2 h_k^{-1} h_{k+1},

with indices mod n and Delta = del_z del_zbar.  Every variant is this one
system read through a constant n x m embedding E of its independent
unknowns u (an (N, m) array): w = u E^T, and the equations solved are the
first m rows.

Variants
--------
* ``general_cyclic``     : data (gamma_1..gamma_n); E = [I_{n-1}; -1^T], so
                           det h = 1 eliminates the last log-metric.
* ``hitchin_component``  : data (q_n); all interior arrows are 1.
* ``slnr_even``/``slnr_odd`` : data (nu, gamma_1..gamma_{m-1}, mu).
* ``sp4_gothen``         : data (mu, nu); rank 4 with arrows (1, mu, 1, nu).

The symmetric variants (all but ``general_cyclic``) impose
h_{n+1-k} = h_k^{-1}, leaving m = floor(n/2) unknowns:
E = [I_m; -J_m] for even n and [I_m; 0; -J_m] for odd n, with J the flip.
Their arrows unfold as in ``CyclicSpec.cyclic_data``.

The scale parameter ``t`` always multiplies the final arrow (gamma_n or nu).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sparse

from .geometry import Grid, HolomorphicDatum, eval_norm_squared, hyperbolic_metric

VARIANTS = ("general_cyclic", "hitchin_component", "slnr_even", "slnr_odd", "sp4_gothen")
SYMMETRIC_VARIANTS = ("hitchin_component", "slnr_even", "slnr_odd", "sp4_gothen")


class BlowupError(RuntimeError):
    """Raised when residual/Jacobian evaluation produces non-finite values."""


def _one() -> HolomorphicDatum:
    return HolomorphicDatum.constant(1.0)


@dataclass(frozen=True)
class CyclicSpec:
    """Holomorphic data of a cyclic bundle plus the last-arrow scale t.

    ``data`` ordering by variant:
      general_cyclic    : (gamma_1, ..., gamma_n)
      hitchin_component : (q_n,)
      slnr_even/odd     : (nu, gamma_1, ..., gamma_{m-1}, mu)
      sp4_gothen        : (mu, nu)

    ``degrees`` optionally records deg(L_1..L_n) for stability bookkeeping.
    A scale whose |t|^2 is not a finite float is refused.
    """

    n: int
    variant: str
    data: tuple[HolomorphicDatum, ...]
    t: complex = 1.0
    degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "data", tuple(self.data))
        object.__setattr__(self, "t", complex(self.t))
        if not np.isfinite(self.scale_sq):
            raise ValueError(f"the scale t = {self.t!r} has no finite |t|^2")
        if self.degrees is not None:
            for k, d in enumerate(self.degrees, 1):
                if not (isinstance(d, numbers.Real) and float(d).is_integer()):
                    raise ValueError(f"deg(L_{k}) must be an integer, got {d!r}")
            degs = tuple(int(d) for d in self.degrees)
            if len(degs) != self.n or sum(degs) != 0:
                raise ValueError("degrees must list deg(L_1..L_n) and sum to zero")
            object.__setattr__(self, "degrees", degs)
        n, m = self.n, self.n // 2
        v = self.variant
        if n < 2:
            raise ValueError("rank must be at least 2")
        if v == "general_cyclic":
            if len(self.data) != n:
                raise ValueError(f"general_cyclic rank {n} needs {n} data entries")
            if any(d.is_zero() for d in self.data[:-1]):
                raise ValueError("interior arrows gamma_1..gamma_{n-1} must not vanish identically")
        elif v == "hitchin_component":
            if len(self.data) != 1:
                raise ValueError("hitchin_component takes exactly one datum (q_n)")
        elif v in ("slnr_even", "slnr_odd"):
            if v == "slnr_even" and n % 2:
                raise ValueError("slnr_even needs even rank")
            if v == "slnr_odd" and (n % 2 == 0 or n < 3):
                raise ValueError("slnr_odd needs odd rank >= 3")
            if len(self.data) != m + 1:
                raise ValueError(f"{v} rank {n} needs {m + 1} data entries (nu, gammas, mu)")
            if any(d.is_zero() for d in self.data[1:]):
                raise ValueError("gamma and mu entries must not vanish identically")
        elif v == "sp4_gothen":
            if n != 4:
                raise ValueError("sp4_gothen is a rank-4 variant")
            if len(self.data) != 2:
                raise ValueError("sp4_gothen takes (mu, nu)")
            if self.data[0].is_zero():
                raise ValueError("mu must not vanish identically")

    # -- structure ---------------------------------------------------------

    @property
    def n_unknowns(self) -> int:
        if self.variant == "general_cyclic":
            return self.n - 1
        return self.n // 2

    @property
    def scale_sq(self) -> float:
        """|t|^2, squared in numpy floats: inf (never an exception) on overflow."""
        with np.errstate(over="ignore"):
            return float(np.float64(abs(self.t)) ** 2)

    @property
    def is_symmetric(self) -> bool:
        return self.variant in SYMMETRIC_VARIANTS

    @property
    def embedding(self) -> np.ndarray:
        """The (n, m) matrix E taking unknowns to all log-metrics, w = u E^T."""
        n, m = self.n, self.n_unknowns
        E = np.zeros((n, m))
        E[:m] = np.eye(m)
        if self.is_symmetric:
            E[n - m:] = -np.eye(m)[::-1]
        else:
            E[n - 1] = -1.0
        return E

    def corner_datum(self) -> HolomorphicDatum:
        """The final arrow (gamma_n, q_n, or nu), before scaling by t."""
        if self.variant == "general_cyclic":
            return self.data[-1]
        if self.variant == "hitchin_component":
            return self.data[0]
        if self.variant == "sp4_gothen":
            return self.data[1]
        return self.data[0]

    def middle_datum(self) -> HolomorphicDatum:
        """The top arrow mu of the symmetric variants (1 for hitchin_component)."""
        if self.variant == "hitchin_component":
            return _one()
        if self.variant == "sp4_gothen":
            return self.data[0]
        if self.variant in ("slnr_even", "slnr_odd"):
            return self.data[-1]
        raise ValueError("general_cyclic has no distinguished middle arrow")

    def rung_data(self) -> tuple[HolomorphicDatum, ...]:
        """gamma_1..gamma_{m-1} of the symmetric ladder."""
        m = self.n // 2
        if self.variant == "hitchin_component":
            return tuple(_one() for _ in range(m - 1))
        if self.variant == "sp4_gothen":
            return (_one(),)
        if self.variant in ("slnr_even", "slnr_odd"):
            return self.data[1:-1]
        raise ValueError("general_cyclic has no symmetric ladder")

    def cyclic_data(self) -> tuple[HolomorphicDatum, ...]:
        """All n arrows (gamma_1..gamma_n) of the equivalent cyclic bundle.

        The symmetric variants unfold as (gammas, mu, mirrored gammas, nu),
        with mu repeated once more for odd rank.  The scale t is *not*
        applied here.
        """
        if self.variant == "general_cyclic":
            return self.data
        m = self.n // 2
        rungs = self.rung_data()
        mu = self.middle_datum()
        nu = self.corner_datum()
        if self.n % 2 == 0:
            return (*rungs, mu, *reversed(rungs), nu)
        return (*rungs, mu, mu, *reversed(rungs), nu)

    def partner_differential(self) -> HolomorphicDatum:
        """q_n of the Hitchin-section bundle in the same determinant fiber.

        For even rank q_n = gamma_1^2 .. gamma_{m-1}^2 * mu * nu, for odd rank
        the mu factor enters squared.
        """
        if not self.is_symmetric:
            raise ValueError("fiber partner is defined for the symmetric variants")
        q = self.corner_datum().scaled(self.t)
        mu = self.middle_datum()
        q = q * mu if self.n % 2 == 0 else q * mu * mu
        for g in self.rung_data():
            q = q * g * g
        return q


def make_spec(
    variant: str,
    n: int,
    data: Sequence[HolomorphicDatum],
    t: complex = 1.0,
    degrees: Sequence[int] | None = None,
) -> CyclicSpec:
    return CyclicSpec(n=n, variant=variant, data=tuple(data), t=t,
                      degrees=None if degrees is None else tuple(degrees))


@dataclass
class LogMetricState:
    """Per-node log-metric unknowns, stored node-major as an (N, m) array."""

    grid: Grid
    u: np.ndarray
    residual_norm: float = np.inf

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 2 or self.u.shape[0] != self.grid.n_nodes:
            raise ValueError("state array must have shape (n_nodes, n_unknowns)")

    @property
    def n_unknowns(self) -> int:
        return self.u.shape[1]

    def copy(self) -> "LogMetricState":
        return LogMetricState(self.grid, self.u.copy(), self.residual_norm)


# -- Fuchsian reference state ---------------------------------------------


def fuchsian_log_metrics(n: int, n_unknowns: int, grid: Grid) -> np.ndarray:
    """Log-metrics of the uniformising solution (vanishing corner arrow).

    The consecutive metric ratios are h_k^{-1} h_{k+1} = (1/2) k (n-k) g0;
    the solution is antisymmetric, w_{n+1-k} = -w_k, which together with
    those ratios fixes every w_k.  They are built from the middle index
    outwards and returned as the first ``n_unknowns`` columns: the
    symmetric reduction (m = floor(n/2)) or the eliminated cyclic
    formulation (m = n-1).
    """
    if n_unknowns not in (n // 2, n - 1):
        raise ValueError("n_unknowns must be floor(n/2) or n-1")
    log_g0 = np.log(hyperbolic_metric(grid))
    m = n // 2
    w = np.zeros((grid.n_nodes, n))
    if n % 2 == 0:
        w[:, m - 1] = -0.5 * (np.log(0.5 * m**2) + log_g0)
    else:
        w[:, m - 1] = -(np.log(0.5 * m * (m + 1)) + log_g0)
    for k in range(m - 1, 0, -1):
        w[:, k - 1] = w[:, k] - (np.log(0.5 * k * (n - k)) + log_g0)
    w[:, n - m:] = -w[:, m - 1::-1]
    return w[:, :n_unknowns].copy()


def fuchsian_state(spec: CyclicSpec, grid: Grid) -> LogMetricState:
    """Uniformising reference state for any variant on a disc-kind grid."""
    if grid.kind == "torus":
        raise ValueError("the torus has no uniformising reference state")
    return LogMetricState(grid, fuchsian_log_metrics(spec.n, spec.n_unknowns, grid))


def expand_log_metrics(spec: CyclicSpec, state: LogMetricState) -> np.ndarray:
    """All n log-metrics (log h_1 .. log h_n) of the cyclic bundle, (N, n)."""
    return state.u @ spec.embedding.T


def arrow_kernel(G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Arrow terms a_k = G_k h_k^{-1} h_{k+1} from squared coefficients G and
    log-metrics w, both (N, n); overflow is left to the caller to detect."""
    with np.errstate(over="ignore", invalid="ignore"):
        return G * np.exp(np.roll(w, -1, axis=1) - w)


# -- assembled system ------------------------------------------------------


class HitchinSystem:
    """A spec bound to a grid with boundary data and coefficient fields.

    The nonlinear residual for the independent unknowns u (an (N, m) array)
    is R(u) = Lap u + F(u), where F holds the first m columns of
    a_k - a_{k-1} at w = u E^T; the rows at Dirichlet nodes read
    u - boundary_value instead.

    Newton works on the free nodes (interior nodes of a disc, every torus
    node).  Their rows are projected by the Gram matrix E^T E (2 I for the
    symmetric variants, I + 1 1^T for ``general_cyclic``): R E^T E is the
    gradient of the discrete energy sum |grad w|^2 / 2 + sum_k G_k
    e^{w_{k+1} - w_k}, so its derivative in the free unknowns,

        K = lap_FF (x) E^T E - blockdiag(d^T diag(a) d),  d = roll(E, -1) - E,

    is that energy's Hessian: symmetric wherever lap is.  The free rows
    couple to the boundary unknowns only through the constant
    ``boundary_coupling`` lap_FB (x) E^T E.
    """

    def __init__(
        self,
        spec: CyclicSpec,
        grid: Grid,
        boundary_values: np.ndarray | None,
        coeff_sq: np.ndarray,
        fuchsian: np.ndarray | None = None,
    ):
        self.spec = spec
        self.grid = grid
        self.m = spec.n_unknowns
        self.coeff_sq = coeff_sq  # (N, n) squared arrow coefficients, t^2 in last column
        self.free = grid.interior_mask  # every node of the torus
        if grid.kind == "torus":
            self.boundary_values = None
        else:
            bv = np.zeros((grid.n_nodes, self.m)) if boundary_values is None else boundary_values
            if bv.shape != (grid.n_nodes, self.m):
                raise ValueError("boundary value array has wrong shape")
            self.boundary_values = bv
        self._fuchsian = fuchsian  # uniformising log-metrics, computed on first need
        self._embedding = E = spec.embedding
        self.gram = E.T @ E
        # arrow i has log-derivative d[i] = d(w_{i+1} - w_i)/du; the Hessian
        # block sums a_i d[i]^T d[i], kept once per unordered pair (k, l)
        d = np.roll(E, -1, axis=0) - E
        self._pairs = np.triu_indices(self.m)
        self._dd = d[:, self._pairs[0]] * d[:, self._pairs[1]]

    # -- nonlinear couplings ----------------------------------------------

    def _arrows(self, u: np.ndarray) -> np.ndarray:
        return arrow_kernel(self.coeff_sq, u @ self._embedding.T)

    def _coupling_residual(self, u: np.ndarray) -> np.ndarray:
        a = self._arrows(u)
        return (a - np.roll(a, 1, axis=1))[:, :self.m]

    # -- residual and Newton matrix ----------------------------------------

    def residual_array(self, u: np.ndarray) -> np.ndarray:
        """Residual as an (N, m) array; may contain non-finite values."""
        R = (self.grid.lap @ u) + self._coupling_residual(u)
        if self.boundary_values is not None:
            b = self.grid.boundary_mask
            R[b, :] = u[b, :] - self.boundary_values[b, :]
        return R

    def jacobian_matrix(self, u: np.ndarray) -> sparse.csc_matrix:
        """K, the derivative of the projected free rows (R E^T E)_F in u_F.

        The pattern is built at the first call and kept by the grid; each
        call scatters the node blocks into a fresh copy of its data.
        """
        hess = self._arrows(u)[self.free] @ self._dd
        if not np.all(np.isfinite(hess)):
            raise BlowupError("non-finite Jacobian entries (state blew up)")
        lap_k, blocks, _, _ = self.grid.block_laplacian(self.gram)
        k, l = self._pairs
        upper, lower = blocks[:, l, k], blocks[:, k, l]
        K = lap_k.copy()
        K.data[upper] = K.data[lower] = lap_k.data[upper] - hess
        return K

    @property
    def boundary_coupling(self) -> sparse.csr_matrix:
        """lap_FB (x) E^T E: how the free rows see the boundary unknowns."""
        return self.grid.block_laplacian(self.gram)[2]

    @property
    def block_tridiagonal(self) -> bool:
        """Whether K is block tridiagonal (the radial grid), from its pattern."""
        return self.grid.block_laplacian(self.gram)[3]

    def initial_state(self) -> LogMetricState:
        """Default Newton seed: uniformising state on discs, zeros on the torus."""
        if self.grid.kind == "torus":
            return LogMetricState(self.grid, np.zeros((self.grid.n_nodes, self.m)))
        if self._fuchsian is None:
            self._fuchsian = fuchsian_log_metrics(self.spec.n, self.m, self.grid)
        u = self._fuchsian.copy()
        b = self.grid.boundary_mask
        u[b, :] = self.boundary_values[b, :]
        return LogMetricState(self.grid, u)


def arrow_coefficients(spec: CyclicSpec, grid: Grid, fields=None) -> np.ndarray:
    """(N, n) squared magnitudes of all cyclic arrows (or the given ``fields``,
    see make_system), with |t|^2 folded in; a non-finite result is refused."""
    G = np.column_stack(fields if fields is not None else
                        [eval_norm_squared(d, grid) for d in spec.cyclic_data()])
    with np.errstate(over="ignore"):
        G[:, -1] *= spec.scale_sq
    if not np.all(np.isfinite(G[:, -1])):
        raise ValueError("the last arrow coefficient times |t|^2 is not finite")
    return G


def make_system(
    spec: CyclicSpec,
    grid: Grid,
    boundary: str | Sequence = "fuchsian",
    coefficient_fields: Sequence[np.ndarray] | None = None,
) -> HitchinSystem:
    """Bind a spec to a grid.

    ``boundary`` is ``"fuchsian"`` (disc kinds; Dirichlet data from the
    uniformising state), ``"periodic"`` (torus), or an explicit per-unknown
    array/constant list for custom Dirichlet data.

    ``coefficient_fields`` overrides the squared arrow magnitudes with raw
    nonnegative per-node fields (one per cyclic arrow, scale t still applied
    to the last).  This is how non-constant smooth coefficients are injected
    on the torus, where only constants are globally holomorphic.
    """
    m = spec.n_unknowns
    fields = coefficient_fields
    if fields is not None:
        fields = [np.asarray(f, dtype=float) for f in fields]
        if len(fields) != spec.n:
            raise ValueError(f"need {spec.n} coefficient fields")
        for f in fields:
            if f.shape != (grid.n_nodes,) or np.any(f < 0) or not np.all(np.isfinite(f)):
                raise ValueError("coefficient fields must be finite, nonnegative node arrays")
    G = arrow_coefficients(spec, grid, fields)
    if fields is not None and spec.is_symmetric and not np.array_equal(G[:, :-1], G[:, -2::-1]):
        raise ValueError("a symmetric variant needs palindromic coefficient fields "
                         "(field k equal to field n-k for k < n)")

    if grid.kind == "torus":
        if isinstance(boundary, str) and boundary != "periodic":
            raise ValueError("torus grids take boundary='periodic'")
        return HitchinSystem(spec, grid, None, G)

    fuchsian = None
    if isinstance(boundary, str):
        if boundary != "fuchsian":
            raise ValueError("disc grids take boundary='fuchsian' or explicit values")
        bv = fuchsian = fuchsian_log_metrics(spec.n, m, grid)
    else:
        parts = list(boundary)
        if len(parts) != m:
            raise ValueError(f"need {m} boundary entries, got {len(parts)}")
        cols = []
        for p in parts:
            arr = np.asarray(p, dtype=float)
            if arr.ndim == 0:
                arr = np.full(grid.n_nodes, float(arr))
            if arr.shape != (grid.n_nodes,):
                raise ValueError("boundary entries must be scalars or per-node arrays")
            cols.append(arr)
        bv = np.column_stack(cols)
    return HitchinSystem(spec, grid, bv, G, fuchsian)


# -- spec transformations --------------------------------------------------


def scale_last_arrow(spec: CyclicSpec, t: complex) -> CyclicSpec:
    """(gamma_1, ..., gamma_n) -> (gamma_1, ..., t * gamma_n)."""
    return replace(spec, t=spec.t * complex(t))


def gauge_image(spec: CyclicSpec, t: complex) -> CyclicSpec:
    """Multiply every arrow by t^(1/n) (principal root).

    Scaling the last arrow by t and scaling all arrows by t^(1/n) give
    gauge-equivalent bundles; their solved pullback metrics must agree once
    boundary data is shifted consistently (see ``gauge_log_offsets``).
    """
    t = complex(t)
    if t == 0:
        raise ValueError("gauge image needs t != 0")
    root = t ** (1.0 / spec.n)
    return replace(spec, data=tuple(d.scaled(root) for d in spec.data))


def gauge_log_offsets(spec: CyclicSpec, t: complex) -> np.ndarray:
    """Constant shifts of log h_k matching gauge_image against scale_last_arrow.

    The diagonal gauge that rescales the last arrow shifts
    log h_k by ((n + 1 - 2k)/n) log|t| for k = 1..n; the first n_unknowns
    entries apply to the independent unknowns of either formulation.
    """
    n = spec.n
    lt = np.log(abs(complex(t)))
    return np.array([(n + 1 - 2 * k) / n * lt for k in range(1, spec.n_unknowns + 1)])


# -- stability -------------------------------------------------------------


def stability_check(degrees: Sequence[int], which_gamma_zero: int | None = None) -> bool:
    """Stability of the cyclic bundle from line-bundle degrees.

    With all arrows nonvanishing the bundle is automatically stable.  When
    the final arrow is identically zero (``which_gamma_zero = n``), the
    invariant subbundles L_n, L_n + L_{n-1}, ... must all have negative
    degree: sum_{i=1}^{k} deg L_{n+1-i} < 0 for k = 1..n-1.
    """
    degs = [int(d) for d in degrees]
    if sum(degs) != 0:
        raise ValueError("line bundle degrees must sum to zero")
    if which_gamma_zero is None:
        return True
    if which_gamma_zero != len(degs):
        raise ValueError("only the final arrow may vanish for a cyclic bundle")
    partial = np.cumsum(degs[::-1])[: len(degs) - 1]
    return bool(np.all(partial < 0))


def hitchin_component_degrees(n: int, genus: int) -> tuple[int, ...]:
    """deg(L_k) for the Hitchin-section bundle: L_k = K^((n+1-2k)/2)."""
    return tuple((n + 1 - 2 * k) * (genus - 1) for k in range(1, n + 1))


def sp4_gothen_degrees(deg_n: int, genus: int) -> tuple[int, ...]:
    """deg(L_k) for the rank-4 bundle N + N K^{-1} + N^{-1} K + N^{-1}."""
    d, k = deg_n, 2 * genus - 2
    return (d, d - k, k - d, -d)

"""Assembly of the coupled log-metric equations for cyclic Higgs bundles.

A rank-n cyclic bundle carries n "arrow" coefficients (gamma_1, ..., gamma_n);
the harmonic metric is diagonal, h = diag(h_1, ..., h_n) with det h = 1, and
its logs w_k = log h_k satisfy the Toda-type system

    Delta w_k + a_k - a_{k-1} = 0,    a_k = |gamma_k|^2 h_k^{-1} h_{k+1},

with indices mod n and Delta = del_z del_zbar.  Every variant is this one
system read through a constant n x m embedding E of its independent
unknowns u (an (N, m) array): w = u E^T, and the equations solved are the
first m rows.  The arrows read w only through its consecutive differences,
the log-ratios w_{k+1} - w_k = u D^T with the constant D = roll(E, -1) - E.
A ``HitchinSystem`` builds D once, and every reader of arrow terms computes
a = G exp(u D^T) through its ``log_ratios`` and ``arrow_terms``.

Variants
--------
* ``general_cyclic``     : data (gamma_1..gamma_n); E = [I_{n-1}; -1^T], so
                           det h = 1 eliminates the last log-metric.
* ``hitchin_component``  : data (q_n); all interior arrows are 1.
* ``slnr_even``/``slnr_odd`` : data (nu, gamma_1..gamma_{m-1}, mu).
* ``sp4_gothen``         : data (mu, nu); rank 4 with arrows (1, mu, 1, nu).

Only ``CyclicSpec.cyclic_data`` reads this layout.  Everything else reads
the n arrows it unfolds by index: the rungs gamma_1..gamma_{m-1} are [:m-1],
the middle arrows (mu, twice for odd rank) [m-1 : n-m], the corner [-1].

The symmetric variants (all but ``general_cyclic``) impose
h_{n+1-k} = h_k^{-1}, leaving m = floor(n/2) unknowns:
E = [I_m; -J_m] for even n and [I_m; 0; -J_m] for odd n, with J the flip.

The scale parameter ``t`` always multiplies the final arrow (gamma_n or nu).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sparse

from .geometry import Grid, HolomorphicDatum, eval_norm_squared, hyperbolic_metric

VARIANTS = ("general_cyclic", "hitchin_component", "slnr_even", "slnr_odd", "sp4_gothen")
SYMMETRIC_VARIANTS = ("hitchin_component", "slnr_even", "slnr_odd", "sp4_gothen")


class BlowupError(RuntimeError):
    """Raised when residual/Jacobian evaluation produces non-finite values."""


@dataclass(frozen=True)
class CyclicSpec:
    """Holomorphic data of a cyclic bundle plus the last-arrow scale t.

    ``data`` is laid out per variant as in the module docstring and read
    only by ``cyclic_data``; no arrow but the corner may vanish identically.
    ``degrees`` optionally records deg(L_1..L_n), as exact integers, for
    stability bookkeeping.  A scale whose |t|^2 is not a finite float is
    refused.
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
                # an integer is taken as it is: float() would overflow past 1e308
                if isinstance(d, bool) or not (isinstance(d, numbers.Integral) or (
                        isinstance(d, numbers.Real) and float(d).is_integer())):
                    raise ValueError(f"deg(L_{k}) must be an integer, got {d!r}")
            degs = tuple(int(d) for d in self.degrees)
            if len(degs) != self.n or sum(degs) != 0:
                raise ValueError("degrees must list deg(L_1..L_n) and sum to zero")
            object.__setattr__(self, "degrees", degs)
        n, v = self.n, self.variant
        if n < 2:
            raise ValueError("rank must be at least 2")
        if v == "slnr_even" and n % 2:
            raise ValueError("slnr_even needs even rank")
        if v == "slnr_odd" and n % 2 == 0:
            raise ValueError("slnr_odd needs odd rank >= 3")
        if v == "sp4_gothen" and n != 4:
            raise ValueError("sp4_gothen is a rank-4 variant")
        size = {"general_cyclic": n, "hitchin_component": 1, "slnr_even": n // 2 + 1,
                "slnr_odd": n // 2 + 1, "sp4_gothen": 2}[v]
        if len(self.data) != size:
            raise ValueError(f"{v} rank {n} takes {size} data entries, got {len(self.data)}")
        if any(d.is_zero() for d in self.cyclic_data()[:-1]):
            raise ValueError("the arrows gamma_1..gamma_{n-1} before the corner "
                             "must not vanish identically")

    # -- structure ---------------------------------------------------------

    @property
    def n_unknowns(self) -> int:
        return self.n // 2 if self.is_symmetric else self.n - 1

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

    def cyclic_data(self) -> tuple[HolomorphicDatum, ...]:
        """All n arrows (gamma_1..gamma_n) of the equivalent cyclic bundle.

        The symmetric variants unfold as (rungs, mu, mu again for odd rank,
        mirrored rungs, nu).  The scale t is *not* applied here.
        """
        if self.variant == "general_cyclic":
            return self.data
        one = HolomorphicDatum.constant(1.0)
        if self.variant == "hitchin_component":
            (nu,), mu, rungs = self.data, one, (one,) * (self.n // 2 - 1)
        elif self.variant == "sp4_gothen":
            (mu, nu), rungs = self.data, (one,)
        else:
            nu, *rungs, mu = self.data
        return (*rungs, *(mu,) * (1 + self.n % 2), *reversed(rungs), nu)

    def partner_differential(self) -> HolomorphicDatum:
        """q_n of the Hitchin-section bundle in the same determinant fiber.

        The product of all arrows, t times the corner first, then the
        middle arrows (mu, twice for odd rank), then each rung squared.
        """
        if not self.is_symmetric:
            raise ValueError("fiber partner is defined for the symmetric variants")
        arrows, m = self.cyclic_data(), self.n // 2
        q = arrows[-1].scaled(self.t)
        for a in arrows[m - 1:self.n - m]:
            q = q * a
        for g in arrows[:m - 1]:
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
    """Per-node log-metric unknowns of ``system``, stored node-major as an
    (N, m) array; its grid, spec and coefficients are the system's."""

    system: HitchinSystem
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.grid.n_nodes, self.system.m):
            raise ValueError("state array must have its system's shape (n_nodes, m)")

    @property
    def grid(self) -> Grid:
        return self.system.grid

    @property
    def spec(self) -> CyclicSpec:
        return self.system.spec


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


# -- assembled system ------------------------------------------------------


class HitchinSystem:
    """A spec bound to a grid with its coefficient fields.

    The one arrow kernel: ``log_ratios(u)`` = u D^T with D = roll(E, -1) - E,
    built once here, and ``arrow_terms(u)`` = G exp(u D^T).  The residual, the
    Newton matrix and every reduction of a solved state read them.

    The boundary is the grid's own.  ``boundary_values`` is the Newton seed
    and holds the Dirichlet data: on a disc the uniformising state
    (``fuchsian_log_metrics``), on the periodic torus, which has no
    Dirichlet nodes, zeros.

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
    see the boundary unknowns only through lap_FB u_B E^T E, a term that is
    constant in u_F.
    """

    def __init__(self, spec: CyclicSpec, grid: Grid, coeff_sq: np.ndarray):
        self.spec = spec
        self.grid = grid
        self.m = spec.n_unknowns
        self.coeff_sq = coeff_sq  # (N, n) squared arrow coefficients, t^2 in last column
        self.free = grid.interior_mask  # every node of the torus
        self.boundary_values = (np.zeros((grid.n_nodes, self.m)) if grid.kind == "torus"
                                else fuchsian_log_metrics(spec.n, self.m, grid))
        E = spec.embedding
        self.gram = E.T @ E
        # arrow i has log-derivative d[i] = d(w_{i+1} - w_i)/du; the Hessian
        # block sums a_i d[i]^T d[i], kept once per unordered pair (k, l)
        self._d = d = np.roll(E, -1, axis=0) - E
        self._pairs = np.triu_indices(self.m)
        self._dd = d[:, self._pairs[0]] * d[:, self._pairs[1]]

    # -- nonlinear couplings ----------------------------------------------

    def log_ratios(self, u: np.ndarray) -> np.ndarray:
        """Log consecutive ratios log h_k^{-1} h_{k+1} of the unknowns u, (N, n)."""
        return u @ self._d.T

    def arrow_terms(self, u: np.ndarray) -> np.ndarray:
        """Arrow terms |gamma_k|^2 h_k^{-1} h_{k+1} of the unknowns u, (N, n),
        |t|^2 included; overflow is left to the caller to detect."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.coeff_sq * np.exp(self.log_ratios(u))

    def _coupling_residual(self, u: np.ndarray) -> np.ndarray:
        """a_k - a_{k-1} for k = 1..m, with a_0 = a_n."""
        a, m = self.arrow_terms(u), self.m
        return a[:, :m] - np.concatenate((a[:, -1:], a[:, :m - 1]), axis=1)

    # -- residual and Newton matrix ----------------------------------------

    def residual_array(self, u: np.ndarray) -> np.ndarray:
        """Residual as an (N, m) array; may contain non-finite values."""
        R = (self.grid.lap @ u) + self._coupling_residual(u)
        b = self.grid.boundary_mask
        R[b, :] = u[b, :] - self.boundary_values[b, :]
        return R

    def jacobian_matrix(self, u: np.ndarray) -> sparse.csc_matrix:
        """K, the derivative of the projected free rows (R E^T E)_F in u_F.

        The pattern is built at the first call and kept by the grid; each
        call scatters the node blocks into a fresh copy of its data.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up, refused below
            hess = self.arrow_terms(u)[self.free] @ self._dd
        if not np.all(np.isfinite(hess)):
            raise BlowupError("non-finite Jacobian entries (state blew up)")
        lap_k, blocks, *_ = self.grid.block_laplacian(self.gram)
        k, l = self._pairs
        upper, lower = blocks[:, l, k], blocks[:, k, l]
        K = lap_k.copy()
        K.data[upper] = K.data[lower] = lap_k.data[upper] - hess
        return K

    def initial_state(self) -> LogMetricState:
        """Default Newton seed: uniformising state on discs, zeros on the torus."""
        return LogMetricState(self, self.boundary_values.copy())


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
    boundary: str | None = None,
    coefficient_fields: Sequence[np.ndarray] | None = None,
) -> HitchinSystem:
    """Bind a spec to a grid.

    The boundary is the grid's own: Dirichlet data from the uniformising
    state on the disc kinds, periodic on the torus.  ``boundary`` may name
    it, as ``"fuchsian"`` or ``"periodic"``; any other value is refused.

    ``coefficient_fields`` overrides the squared arrow magnitudes with raw
    nonnegative per-node fields (one per cyclic arrow, scale t still applied
    to the last).  This is how non-constant smooth coefficients are injected
    on the torus, where only constants are globally holomorphic.
    """
    own = "periodic" if grid.kind == "torus" else "fuchsian"
    if boundary is not None and not (isinstance(boundary, str) and boundary == own):
        raise ValueError(f"{grid.kind} grids take only their own boundary={own!r}")
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
    return HitchinSystem(spec, grid, G)


# -- stability -------------------------------------------------------------


def stability_check(degrees: Sequence[int]) -> bool:
    """Stability of the cyclic bundle from line-bundle degrees when its
    final arrow gamma_n vanishes identically.

    The invariant subbundles L_n, L_n + L_{n-1}, ... must then all have
    negative degree: sum_{i=1}^{k} deg L_{n+1-i} < 0 for k = 1..n-1.  (With
    all arrows nonvanishing the bundle is automatically stable.)
    """
    degs = [int(d) for d in degrees]
    if sum(degs) != 0:
        raise ValueError("line bundle degrees must sum to zero")
    # partial sums in Python ints: np.cumsum wraps past 2**63
    return all(p < 0 for p in itertools.accumulate(degs[:0:-1]))

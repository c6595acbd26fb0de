"""Model geometries, discrete Laplacians, and holomorphic coefficient data.

Everything downstream works on one of three chart geometries:

* ``radial_disc``  -- rotationally symmetric fields on a disc of chart radius
  R < 1, reduced to a 1-D grid in the radius.  The Laplacian is the radial
  part of Delta = del_z del_zbar = (1/4)(d_xx + d_yy).
* ``disc2d``       -- the full disc sampled on a uniform Cartesian lattice
  (nodes inside the circle; rim nodes act as Dirichlet boundary).
* ``torus``        -- a flat rectangular torus, periodic in both directions.
  It carries no background hyperbolic metric and is used for solver and
  positivity experiments.

All stencils are second order, have nonnegative off-diagonal entries and
zero row sums at interior nodes (M-matrix sign pattern), which is what the
discrete comparison arguments rely on.

The background metric is g0 = 2/(1-|z|^2)^2, normalised so that
Delta log g0 = g0 with the Delta above (verified symbolically; note this is
*not* the curvature -1 normalisation, which differs by a factor of 2).

A holomorphic datum has one canonical form, z^l times a polynomial with
nonzero constant term, so equal data compare equal whichever named
constructor built them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

GRID_KINDS = ("radial_disc", "disc2d", "torus")

_MIN_RESOLUTION = 8

# theorem verdicts are asserted on |z| <= VERDICT_FRACTION * R of a disc chart
VERDICT_FRACTION = 7 / 8


@dataclass(frozen=True)
class GridSpec:
    """Declarative description of a model-geometry grid.

    Parameters
    ----------
    kind : str
        One of ``radial_disc``, ``disc2d``, ``torus``.
    resolution : int or (int, int)
        Nodes per dimension.  Disc kinds take a single int; the torus
        accepts a pair (a single int means a square grid).
    radius : float
        Chart radius for the disc kinds; must lie in (0, 1) so the
        hyperbolic metric stays finite.
    periods : (float, float)
        Fundamental periods of the torus.
    """

    kind: str
    resolution: int | tuple[int, int] = 128
    radius: float = 0.8
    periods: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}; expected one of {GRID_KINDS}")
        res = self.resolution
        if self.kind == "torus":
            pair = (res, res) if isinstance(res, int) else tuple(res)
            if len(pair) != 2 or any(int(p) < _MIN_RESOLUTION for p in pair):
                raise ValueError(f"torus resolution must be >= {_MIN_RESOLUTION} per dimension")
            if not all(0.0 < p < np.inf for p in self.periods):
                raise ValueError("torus periods must be positive and finite")
            spacings = np.divide(self.periods, self.resolution_pair())
        else:
            if not isinstance(res, int) or res < _MIN_RESOLUTION:
                raise ValueError(f"resolution must be an int >= {_MIN_RESOLUTION}")
            if not (0.0 < self.radius < 1.0):
                raise ValueError("chart radius must lie in (0, 1)")
            spacings = (np.diff(np.linspace(-self.radius, self.radius, res)[:2])
                        if self.kind == "disc2d" else np.array([self.radius / (res - 1)]))
        # the stencil weights scale as 1/h^2, h as the grid builder computes it
        with np.errstate(all="ignore"):
            weights = 1.0 / np.square(spacings)
        if not np.all((weights > 0) & (weights < np.inf)):
            raise ValueError(f"grid spacings {spacings.tolist()} give no finite positive "
                             "stencil weight 1/h^2")

    def resolution_pair(self) -> tuple[int, int]:
        res = self.resolution
        return (res, res) if isinstance(res, int) else (int(res[0]), int(res[1]))


class Grid:
    """Realised grid: node coordinates, masks, and the Laplacian stencil.

    Attributes
    ----------
    spec : GridSpec
    n_nodes : int
    xy : ndarray, shape (n_nodes, 2)
        Cartesian chart coordinates (for ``radial_disc`` the nodes sit on
        the nonnegative real axis).
    spacing : float
        Representative mesh width (max over directions).
    boundary_mask, interior_mask : boolean ndarrays
    lap : csr_matrix
        Discrete Delta = (1/4) * Euclidean Laplacian.  Rows at boundary
        nodes are identically zero; Dirichlet handling is the caller's job.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        if spec.kind == "radial_disc":
            self._build_radial(spec)
        elif spec.kind == "disc2d":
            self._build_disc2d(spec)
        else:
            self._build_torus(spec)

    # -- constructors ------------------------------------------------------
    #
    # Each builder lays out its lattice -- coordinates, the directional
    # neighbour table (-1 where a neighbour is missing), the off-diagonal
    # weight of each neighbour, the diagonal, the boundary mask and the node
    # areas -- and hands the stencil to ``_finish``.  The diagonals keep
    # their closed forms: summing the off-diagonal weights rounds
    # differently.

    def _build_radial(self, spec: GridSpec):
        n = spec.resolution
        h = spec.radius / (n - 1)
        r = np.arange(n) * h
        self.xy = np.column_stack([r, np.zeros(n)])
        self.spacing = h
        self._dir_spacing = (h,)
        nbr = np.column_stack([np.arange(n) - 1, np.arange(n) + 1])
        nbr[n - 1, 1] = -1
        weights = np.zeros((n, 2))
        diag = np.empty(n)
        ri = r[1:]
        weights[1:, 0] = 0.25 * (1.0 / h**2 - 1.0 / (2.0 * h * ri))
        weights[1:, 1] = 0.25 * (1.0 / h**2 + 1.0 / (2.0 * h * ri))
        diag[1:] = -(weights[1:, 0] + weights[1:, 1])
        # r = 0: symmetric limit of the radial Laplacian.  For even profiles
        # Delta u(0) = (1/4) * 4 (u_1 - u_0)/h^2 + O(h^2).
        weights[0, 1] = 1.0 / h**2
        diag[0] = -1.0 / h**2
        boundary = np.zeros(n, dtype=bool)
        boundary[-1] = True
        # annulus areas: node i owns [r_i - h/2, r_i + h/2] clipped to [0, R]
        r_out = np.minimum(r + h / 2, spec.radius)
        r_in = np.maximum(r - h / 2, 0.0)
        self._finish(nbr, weights, diag, boundary, np.pi * (r_out**2 - r_in**2))

    def _build_disc2d(self, spec: GridSpec):
        n = spec.resolution
        R = spec.radius
        axis = np.linspace(-R, R, n)
        h = axis[1] - axis[0]
        xg, yg = np.meshgrid(axis, axis, indexing="ij")
        inside = xg**2 + yg**2 <= R**2 + 1e-12
        n_nodes = int(inside.sum())
        # node numbers on the lattice, padded by one ring of -1 (outside)
        index = np.full((n + 2, n + 2), -1, dtype=int)
        index[1:-1, 1:-1][inside] = np.arange(n_nodes)
        i, j = np.nonzero(inside)
        nbr = np.column_stack([index[i, j + 1], index[i + 2, j + 1],
                               index[i + 1, j], index[i + 1, j + 2]])
        self.xy = np.column_stack([xg[inside], yg[inside]])
        self.spacing = h
        self._dir_spacing = (h, h)
        coef = 0.25 / h**2
        self._finish(nbr, np.full(4, coef), np.full(n_nodes, -4.0 * coef),
                     (nbr < 0).any(axis=1), np.full(n_nodes, h * h))

    def _build_torus(self, spec: GridSpec):
        nx, ny = spec.resolution_pair()
        lx, ly = spec.periods
        hx, hy = lx / nx, ly / ny
        xg, yg = np.meshgrid(np.arange(nx) * hx, np.arange(ny) * hy, indexing="ij")
        self.xy = np.column_stack([xg.ravel(), yg.ravel()])
        self.spacing = max(hx, hy)
        self._dir_spacing = (hx, hy)
        i, j = np.divmod(np.arange(nx * ny), ny)
        nbr = np.column_stack([(i - 1) % nx * ny + j, (i + 1) % nx * ny + j,
                               i * ny + (j - 1) % ny, i * ny + (j + 1) % ny])
        cx = 0.25 / hx**2
        cy = 0.25 / hy**2
        self._finish(nbr, np.array([cx, cx, cy, cy]), np.full(nx * ny, -2.0 * (cx + cy)),
                     np.zeros(nx * ny, dtype=bool), np.full(nx * ny, hx * hy))

    def _finish(self, nbr, weights, diag, boundary, area):
        """Assemble the Laplacian from the stencil.

        ``nbr`` is the (n_nodes, 2*dim) neighbour table and ``weights`` the
        matching off-diagonal entries (or one per column).  Boundary rows
        stay empty.
        """
        n_nodes = len(nbr)
        self.n_nodes = n_nodes
        self.boundary_mask = boundary
        self.interior_mask = ~boundary
        self._nbr = nbr
        self._area = area
        p, k = np.nonzero((nbr >= 0) & self.interior_mask[:, None])
        interior = np.nonzero(self.interior_mask)[0]
        rows = np.concatenate([p, interior])
        cols = np.concatenate([nbr[p, k], interior])
        vals = np.concatenate([np.broadcast_to(weights, nbr.shape)[p, k], diag[interior]])
        self.lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
        self._block_laplacians: dict = {}
        self._node_order = None

    # -- queries -----------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.spec.kind

    def z(self) -> np.ndarray:
        """Complex chart coordinate of every node."""
        return self.xy[:, 0] + 1j * self.xy[:, 1]

    def area_weights(self) -> np.ndarray:
        """Quadrature weight (Euclidean area dx dy) owned by each node."""
        return self._area.copy()

    def directional_neighbors(self) -> tuple[np.ndarray, tuple[float, ...]]:
        """Neighbor table and per-direction spacings for first-order stencils.

        Columns come in (minus, plus) pairs per axis; -1 marks a missing
        neighbor (outside the domain).  Used for upwinded drift terms.
        """
        return self._nbr.copy(), self._dir_spacing

    def verdict_region(self) -> np.ndarray:
        """The nodes on which theorem verdicts are asserted.

        On a disc chart of radius R these are the interior nodes with
        |z| <= VERDICT_FRACTION * R, one chart set at every resolution (a
        coarse ``disc2d`` lattice has boundary nodes inside that radius); on
        the torus it is every node.  The region is never empty: the node
        nearest the centre is interior on every grid of resolution >= 8.
        """
        if self.kind == "torus":
            return self.interior_mask.copy()
        return self.interior_mask & (np.abs(self.z()) <= VERDICT_FRACTION * self.spec.radius)

    def _interior_laplacian(self) -> sparse.csc_matrix:
        """lap_II, lap on the interior nodes, from lap's CSR arrays: the
        boundary rows are empty, so drop the entries in boundary columns and
        renumber the others."""
        lap, inner = self.lap, self.interior_mask
        number = np.where(inner, np.cumsum(inner, dtype=lap.indices.dtype) - 1, -1)
        cols = number.take(lap.indices)
        keep = cols >= 0
        starts = lap.indptr[np.append(np.flatnonzero(inner), len(inner))]
        drop = np.searchsorted(starts, np.flatnonzero(~keep), "right")
        starts -= np.cumsum(np.bincount(drop, minlength=len(starts)), dtype=starts.dtype)
        n = len(starts) - 1
        return sparse.csr_matrix((lap.data[keep], cols[keep], starts), shape=(n, n)).tocsc()

    def node_order(self) -> np.ndarray:
        """The interior nodes in SuperLU's minimum-degree order of lap_II's
        graph: q = argsort(perm_c), so that lap_II[q][:, q] is the matrix
        SuperLU's symmetric mode factors.

        Computed once per grid, and read-only, by SuperLU's incomplete
        factorisation at an infinite drop tolerance: it orders the columns
        as ``splu`` would, at a fraction of the cost of a factorisation.
        """
        if self._node_order is None:
            ilu = spla.spilu(self._interior_laplacian(), drop_tol=np.inf, fill_factor=1.0,
                             permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
            self._node_order = np.argsort(ilu.perm_c)
            self._node_order.flags.writeable = False
        return self._node_order

    def block_laplacian(self, gram: np.ndarray):
        """The Laplacian on m unknowns per interior node, coupled by ``gram``.

        For an m x m matrix ``gram`` returns ``(A, blocks, band)``:

        * ``A`` (CSC) is lap_II (x) gram over the interior nodes (every node
          of the torus), node-major: unknown k of the f-th interior node is
          index f*m + k.  Its pattern also holds a full m x m block at every
          node, for callers that couple a node's own unknowns.
        * ``blocks[f, l, k]`` is the position in ``A.data`` of A[(f, k), (f, l)].
        * ``band`` is ``(bw, positions)`` where each interior node couples
          only to its neighbours in node order, so that ``A`` is block
          tridiagonal with half-bandwidth bw < 2m (the radial grid), and
          None on the 2-D lattices.  ``positions[p]`` is where ``A.data[p]``
          goes in LAPACK's general band storage of ``A`` with bw sub- and
          superdiagonals plus bw rows for the fill of pivoting: a
          (3 bw + 1) x n array in column-major order, A[i, j] at row
          2 bw + i - j of column j.

        Built once per ``gram`` and shared by every caller: the arrays are
        read-only, so copy ``A`` before writing to it.
        """
        key = (gram.shape, gram.tobytes())
        if key in self._block_laplacians:
            return self._block_laplacians[key]
        m = gram.shape[0]
        lap_ii = self._interior_laplacian()
        n = lap_ii.shape[0]
        # CSC arrays of lap_II read as CSR are lap_II^T; with the blocks
        # lap[i, j] gram^T they describe A^T in CSR, i.e. A in CSC.  NaN
        # marks each node's own block, so dropping the stored zeros of gram
        # keeps it whole.
        col = np.repeat(np.arange(n), np.diff(lap_ii.indptr))
        blocks = lap_ii.data[:, None, None] * gram.T
        blocks[lap_ii.indices == col] = np.nan
        A = sparse.bsr_matrix((blocks, lap_ii.indices, lap_ii.indptr), shape=(n * m, n * m)).tocsr()
        A.eliminate_zeros()
        own = np.flatnonzero(np.isnan(A.data)).reshape(n, m, m)
        A.data[own] = lap_ii.diagonal()[:, None, None] * gram.T
        A = sparse.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        band = None
        if np.all(np.abs(lap_ii.indices - col) <= 1):
            i, j = A.indices, np.repeat(np.arange(n * m), np.diff(A.indptr))
            bw = int(np.abs(i - j).max())
            band = bw, (2 * bw + i - j) + (3 * bw + 1) * j
            band[1].flags.writeable = False
        for arr in (A.data, A.indices, A.indptr, own):
            arr.flags.writeable = False
        self._block_laplacians[key] = A, own, band
        return A, own, band

    def __repr__(self):
        return f"Grid({self.spec.kind}, n_nodes={self.n_nodes}, spacing={self.spacing:.3g})"


@dataclass(frozen=True)
class HolomorphicDatum:
    """A holomorphic coefficient z^valuation * sum_k coefficients[k] z^k.

    The form is canonical: both end coefficients are nonzero, and the zero
    datum stores no coefficient at valuation 0.  So equal polynomials are
    one datum however they were built, e.g. ``constant(1) == monomial(1, 0)
    == polynomial([1, 0])``, and c*z^l stores one coefficient at any l.
    ``kind`` and ``degree`` are read from this support.

    Coefficients are stored exactly and |datum|^2 is always evaluated from
    the closed form -- never by sampling and differentiating.
    """

    valuation: int = 0
    coefficients: tuple[complex, ...] = ()

    def __post_init__(self):
        c = [complex(x) for x in self.coefficients]
        while c and c[-1] == 0:
            c.pop()
        lead = next((k for k, x in enumerate(c) if x != 0), 0)
        object.__setattr__(self, "valuation", self.valuation + lead if c else 0)
        object.__setattr__(self, "coefficients", tuple(c[lead:]))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "HolomorphicDatum":
        return HolomorphicDatum()

    @staticmethod
    def constant(c: complex) -> "HolomorphicDatum":
        return HolomorphicDatum(0, (c,))

    @staticmethod
    def monomial(c: complex, degree: int) -> "HolomorphicDatum":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return HolomorphicDatum(degree, (c,))

    @staticmethod
    def polynomial(coeffs: Sequence[complex]) -> "HolomorphicDatum":
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("polynomial datum needs at least one coefficient")
        return HolomorphicDatum(0, coeffs)

    # -- support -----------------------------------------------------------

    @property
    def kind(self) -> str:
        """``zero``, ``constant``, ``monomial`` (one term at a positive
        valuation) or ``polynomial``."""
        if not self.coefficients:
            return "zero"
        if len(self.coefficients) > 1:
            return "polynomial"
        return "monomial" if self.valuation else "constant"

    @property
    def degree(self) -> int:
        """The top degree (0 for the zero datum)."""
        return self.valuation + max(len(self.coefficients) - 1, 0)

    # -- algebra -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coefficients

    def scaled(self, s: complex) -> "HolomorphicDatum":
        return HolomorphicDatum(self.valuation, tuple(s * c for c in self.coefficients))

    def __mul__(self, other: "HolomorphicDatum") -> "HolomorphicDatum":
        if not isinstance(other, HolomorphicDatum):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return HolomorphicDatum.zero()
        return HolomorphicDatum(self.valuation + other.valuation,
                                tuple(np.convolve(self.coefficients, other.coefficients)))

    # -- evaluation --------------------------------------------------------

    def value(self, z: np.ndarray) -> np.ndarray:
        """Evaluate the datum at complex chart points."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in reversed(self.coefficients):  # Horner
            acc = acc * z + c
        return acc * z**self.valuation if self.valuation else acc

    def norm_squared(self, z: np.ndarray) -> np.ndarray:
        """|datum(z)|^2, exactly (for one term c*z^l, l > 0, this is
        |c|^2 |z|^(2l)).

        Computed in numpy floats: a coefficient too large to square gives
        inf or NaN, left to the caller to detect, never an exception.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if len(self.coefficients) == 1 and self.valuation:
                return np.abs(self.coefficients[0]) ** 2 * np.abs(np.asarray(z, complex)) ** (
                    2 * self.valuation
                )
            v = self.value(z)
            return (v * v.conjugate()).real

    def valid_on(self, grid: Grid) -> bool:
        """Whether the datum makes sense on the grid's chart.

        The radial reduction only admits rotationally symmetric |datum|^2,
        i.e. at most one term.  On the torus only constants (and zero) are
        holomorphic; richer periodic coefficient fields are injected
        directly at system-assembly time.
        """
        if grid.kind == "radial_disc":
            return len(self.coefficients) <= 1
        if grid.kind == "torus":
            return self.degree == 0
        return True


# -- module-level operations ----------------------------------------------


def build_grid(spec: GridSpec) -> Grid:
    """Materialise a grid from its declarative description."""
    return Grid(spec)


def hyperbolic_metric(grid: Grid) -> np.ndarray:
    """Background metric density g0 = 2/(1-|z|^2)^2 at a disc-kind grid's nodes.

    Normalised so that Delta log g0 = g0 for Delta = (1/4)(d_xx + d_yy).
    """
    if grid.kind == "torus":
        raise ValueError("the flat torus carries no hyperbolic background metric")
    rsq = (grid.xy**2).sum(axis=1)
    return 2.0 / (1.0 - rsq) ** 2


def eval_norm_squared(datum: HolomorphicDatum, grid: Grid) -> np.ndarray:
    """|datum|^2 sampled on the grid's nodes (exact closed form), shape (N,).

    A datum whose |datum|^2 is not finite at some node (a coefficient too
    large to square, infinite or NaN) is refused with a ValueError.
    """
    if not datum.valid_on(grid):
        raise ValueError(f"{datum.kind} datum is not valid on a {grid.kind} chart")
    nsq = datum.norm_squared(grid.z())
    if not np.all(np.isfinite(nsq)):
        raise ValueError("scalar field contains non-finite values")
    return nsq


def zero_set(datum: HolomorphicDatum, grid: Grid) -> np.ndarray:
    """Node indices where |datum|^2 is exactly zero (every node for the zero datum)."""
    return np.flatnonzero(eval_norm_squared(datum, grid) == 0.0)

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

GRID_KINDS = ("radial_disc", "disc2d", "torus")
DATUM_KINDS = ("zero", "constant", "monomial", "polynomial")

_MIN_RESOLUTION = 8


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
            if any(p <= 0 for p in self.periods):
                raise ValueError("torus periods must be positive")
        else:
            if not isinstance(res, int) or res < _MIN_RESOLUTION:
                raise ValueError(f"resolution must be an int >= {_MIN_RESOLUTION}")
            if not (0.0 < self.radius < 1.0):
                raise ValueError("chart radius must lie in (0, 1)")

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
        """Assemble the Laplacian and the boundary distance from the stencil.

        ``nbr`` is the (n_nodes, 2*dim) neighbour table and ``weights`` the
        matching off-diagonal entries (or one per column).  Boundary rows
        stay empty; the distance is the graph distance along the table.
        """
        n_nodes = len(nbr)
        self.n_nodes = n_nodes
        self.boundary_mask = boundary
        self.interior_mask = ~boundary
        self._nbr = nbr
        self._area = area
        live = nbr >= 0
        p, k = np.nonzero(live & self.interior_mask[:, None])
        interior = np.nonzero(self.interior_mask)[0]
        rows = np.concatenate([p, interior])
        cols = np.concatenate([nbr[p, k], interior])
        vals = np.concatenate([np.broadcast_to(weights, nbr.shape)[p, k], diag[interior]])
        self.lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()

        row_ptr = np.concatenate([[0], np.cumsum(live.sum(axis=1))])
        adj = sparse.csr_matrix((np.ones(row_ptr[-1]), nbr[live], row_ptr),
                                shape=(n_nodes, n_nodes))
        dist = dijkstra(adj, indices=np.nonzero(boundary)[0], unweighted=True, min_only=True)
        dist[np.isinf(dist)] = np.iinfo(np.int32).max
        self._cells_to_boundary = dist.astype(int)
        self._block_laplacians: dict = {}

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

    def cells_to_boundary(self) -> np.ndarray:
        """Graph distance (in grid steps) from each node to the boundary."""
        return self._cells_to_boundary.copy()

    def directional_neighbors(self) -> tuple[np.ndarray, tuple[float, ...]]:
        """Neighbor table and per-direction spacings for first-order stencils.

        Columns come in (minus, plus) pairs per axis; -1 marks a missing
        neighbor (outside the domain).  Used for upwinded drift terms.
        """
        return self._nbr.copy(), self._dir_spacing

    def verdict_region(self, margin_cells: int = 5) -> np.ndarray:
        """Interior nodes at least ``margin_cells`` grid steps from the boundary.

        Theorem verdicts are only asserted on this region; on the torus it is
        every node.  A negative margin, or one that leaves no node, is a
        ``ValueError``.
        """
        if margin_cells < 0:
            raise ValueError(f"margin_cells must be >= 0, got {margin_cells} on {self!r}")
        region = self._cells_to_boundary >= margin_cells
        if not region.any():
            raise ValueError(f"margin_cells={margin_cells} leaves no verdict region on {self!r}")
        return region

    def block_laplacian(self, gram: np.ndarray):
        """The Laplacian on m unknowns per interior node, coupled by ``gram``.

        For an m x m matrix ``gram`` returns ``(A, blocks, coupling, tridiagonal)``:

        * ``A`` (CSC) is lap_II (x) gram over the interior nodes (every node
          of the torus), node-major: unknown k of the f-th interior node is
          index f*m + k.  Its pattern also holds a full m x m block at every
          node, for callers that couple a node's own unknowns.
        * ``blocks[f, l, k]`` is the position in ``A.data`` of A[(f, k), (f, l)].
        * ``coupling`` (CSR) is lap_IB (x) gram, from the boundary unknowns
          into the interior rows; it has no columns on the torus.
        * ``tridiagonal`` says whether each interior node couples only to
          its neighbours in node order, so that ``A`` is block tridiagonal
          (half-bandwidth below 2m): true on the radial grid, false on the
          2-D lattices.

        Built once per ``gram`` and shared by every caller: the arrays are
        read-only, so copy ``A`` before writing to it.
        """
        key = (gram.shape, gram.tobytes())
        if key in self._block_laplacians:
            return self._block_laplacians[key]
        m = gram.shape[0]
        lap_i = self.lap[self.interior_mask]
        lap_ii = lap_i[:, self.interior_mask].tocsc()
        n = lap_ii.shape[0]
        # CSC arrays of lap_II read as CSR are lap_II^T; with the blocks
        # lap[i, j] gram^T they describe A^T in CSR, i.e. A in CSC.  NaN
        # marks each node's own block, so dropping the stored zeros of gram
        # keeps it whole.
        col = np.repeat(np.arange(n), np.diff(lap_ii.indptr))
        blocks = lap_ii.data[:, None, None] * gram.T
        blocks[lap_ii.indices == col] = np.nan
        tridiagonal = bool(np.all(np.abs(lap_ii.indices - col) <= 1))
        A = sparse.bsr_matrix((blocks, lap_ii.indices, lap_ii.indptr), shape=(n * m, n * m)).tocsr()
        A.eliminate_zeros()
        own = np.flatnonzero(np.isnan(A.data)).reshape(n, m, m)
        A.data[own] = lap_ii.diagonal()[:, None, None] * gram.T
        A = sparse.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        coupling = sparse.kron(lap_i[:, self.boundary_mask], gram, format="csr")
        for arr in (A.data, A.indices, A.indptr, own, coupling.data):
            arr.flags.writeable = False
        self._block_laplacians[key] = A, own, coupling, tridiagonal
        return A, own, coupling, tridiagonal

    def __repr__(self):
        return f"Grid({self.spec.kind}, n_nodes={self.n_nodes}, spacing={self.spacing:.3g})"


@dataclass(frozen=True)
class HolomorphicDatum:
    """A holomorphic coefficient: zero, a constant, c*z^l, or a polynomial.

    Coefficients are stored exactly and |datum|^2 is always evaluated from
    the closed form -- never by sampling and differentiating.

    ``coefficients`` is the full coefficient tuple in increasing degree for
    the polynomial kind; for ``monomial`` it holds the single coefficient c
    and ``degree`` the exponent l.
    """

    kind: str
    coefficients: tuple[complex, ...] = ()
    degree: int = 0

    def __post_init__(self):
        if self.kind not in DATUM_KINDS:
            raise ValueError(f"unknown datum kind {self.kind!r}")
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))
        if self.kind == "zero" and self.coefficients:
            raise ValueError("zero datum takes no coefficients")
        if self.kind in ("constant", "monomial") and len(self.coefficients) != 1:
            raise ValueError(f"{self.kind} datum takes exactly one coefficient")
        if self.kind == "monomial" and self.degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        if self.kind == "polynomial" and not self.coefficients:
            raise ValueError("polynomial datum needs at least one coefficient")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "HolomorphicDatum":
        return HolomorphicDatum("zero")

    @staticmethod
    def constant(c: complex) -> "HolomorphicDatum":
        return HolomorphicDatum("constant", (c,))

    @staticmethod
    def monomial(c: complex, degree: int) -> "HolomorphicDatum":
        return HolomorphicDatum("monomial", (c,), degree)

    @staticmethod
    def polynomial(coeffs: Sequence[complex]) -> "HolomorphicDatum":
        return HolomorphicDatum("polynomial", tuple(coeffs))

    # -- algebra -----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        return all(c == 0 for c in self.coefficients)

    def scaled(self, s: complex) -> "HolomorphicDatum":
        if self.kind == "zero":
            return self
        return HolomorphicDatum(self.kind, tuple(s * c for c in self.coefficients), self.degree)

    def __mul__(self, other: "HolomorphicDatum") -> "HolomorphicDatum":
        if not isinstance(other, HolomorphicDatum):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return HolomorphicDatum.zero()
        a, b = self._as_monomial_or_poly(), other._as_monomial_or_poly()
        if a[0] == "monomial" and b[0] == "monomial":
            return HolomorphicDatum.monomial(a[1] * b[1], a[2] + b[2])
        pa, pb = self._poly_coeffs(), other._poly_coeffs()
        prod = np.convolve(pa, pb)
        return HolomorphicDatum.polynomial(tuple(prod))

    def squared(self) -> "HolomorphicDatum":
        return self * self

    def _as_monomial_or_poly(self):
        if self.kind == "constant":
            return ("monomial", self.coefficients[0], 0)
        if self.kind == "monomial":
            return ("monomial", self.coefficients[0], self.degree)
        return ("polynomial", None, None)

    def _poly_coeffs(self) -> np.ndarray:
        if self.kind == "zero":
            return np.array([0j])
        if self.kind == "constant":
            return np.array([self.coefficients[0]])
        if self.kind == "monomial":
            out = np.zeros(self.degree + 1, dtype=complex)
            out[-1] = self.coefficients[0]
            return out
        return np.array(self.coefficients, dtype=complex)

    # -- evaluation --------------------------------------------------------

    def value(self, z: np.ndarray) -> np.ndarray:
        """Evaluate the datum at complex chart points."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "zero":
            return np.zeros_like(z)
        if self.kind == "constant":
            return np.full_like(z, self.coefficients[0])
        if self.kind == "monomial":
            return self.coefficients[0] * z**self.degree
        acc = np.zeros_like(z)
        for c in reversed(self.coefficients):  # Horner
            acc = acc * z + c
        return acc

    def norm_squared(self, z: np.ndarray) -> np.ndarray:
        """|datum(z)|^2, exactly (for a monomial this is |c|^2 |z|^(2l)).

        Computed in numpy floats: a coefficient too large to square gives
        inf or NaN, left to the caller to detect, never an exception.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "monomial":
                return np.abs(self.coefficients[0]) ** 2 * np.abs(np.asarray(z, complex)) ** (
                    2 * self.degree
                )
            v = self.value(z)
            return (v * v.conjugate()).real

    def valid_on(self, grid: Grid) -> bool:
        """Whether the datum makes sense on the grid's chart.

        The radial reduction only admits rotationally symmetric |datum|^2,
        i.e. zero/constant/monomial.  On the torus only constants (and zero)
        are holomorphic; richer periodic coefficient fields are injected
        directly at system-assembly time.
        """
        if grid.kind == "radial_disc":
            return self.kind in ("zero", "constant", "monomial")
        if grid.kind == "torus":
            return self.kind in ("zero", "constant")
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


def zero_set(datum: HolomorphicDatum, grid: Grid, tol: float = 0.0) -> np.ndarray:
    """Node indices where |datum|^2 <= tol * max |datum|^2 (default: exact zeros)."""
    nsq = eval_norm_squared(datum, grid)
    scale = nsq.max()
    if scale == 0.0:
        return np.arange(grid.n_nodes)
    return np.nonzero(nsq <= tol * scale)[0]

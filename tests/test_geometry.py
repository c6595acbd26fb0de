import dataclasses
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse

from hitchinlab.geometry import (
    Grid,
    GridSpec,
    HolomorphicDatum,
    build_grid,
    eval_norm_squared,
    hyperbolic_metric,
    zero_set,
)


def radial(n=64, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        build_grid(GridSpec("radial_disc", 4))
    with pytest.raises(ValueError):
        build_grid(GridSpec("radial_disc", 64, radius=1.0))
    with pytest.raises(ValueError):
        build_grid(GridSpec("radial_disc", 64, radius=0.0))
    with pytest.raises(ValueError):
        build_grid(GridSpec("klein_bottle", 64))


def test_radial_laplacian_exact_on_quadratic():
    # (1/4)(d_xx + d_yy) applied to x^2 + y^2 is identically 1, and the
    # radial stencil reproduces that exactly, including the axis row
    g = radial(128)
    r2 = np.abs(g.z()) ** 2
    interior = ~g.boundary_mask
    vals = g.lap @ r2
    np.testing.assert_allclose(vals[interior], 1.0, rtol=0, atol=1e-11)


def test_disc2d_laplacian_exact_on_quadratic():
    g = build_grid(GridSpec("disc2d", 41, 0.8))
    r2 = np.abs(g.z()) ** 2
    interior = ~g.boundary_mask
    vals = (g.lap @ r2)[interior]
    np.testing.assert_allclose(vals, 1.0, rtol=0, atol=1e-11)


def test_torus_laplacian_plane_wave():
    g = build_grid(GridSpec("torus", (64, 64), periods=(1.0, 1.0)))
    x = g.z().real
    f = np.cos(2 * np.pi * x)
    lam = -0.25 * (2 * np.pi) ** 2
    got = g.lap @ f
    assert np.abs(got - lam * f).max() < 0.02 * abs(lam)
    # constants are in the kernel
    np.testing.assert_allclose(g.lap @ np.ones(g.n_nodes), 0.0, atol=1e-12)


def test_torus_rows_sum_to_zero():
    g = build_grid(GridSpec("torus", (16, 12)))
    rowsums = np.asarray(g.lap.sum(axis=1)).ravel()
    np.testing.assert_allclose(rowsums, 0.0, atol=1e-12)


def test_area_weights_radial_total():
    g = radial(256, 0.7)
    # annuli tile the disc of radius R
    assert abs(g.area_weights().sum() - np.pi * 0.7**2) < 1e-10


def test_verdict_region_distances():
    g = radial(64)
    region = g.verdict_region(5)
    c = g.cells_to_boundary()
    assert np.array_equal(region, c >= 5)
    assert not region[g.boundary_mask].any()
    g2 = build_grid(GridSpec("torus", (12, 12)))
    assert g2.verdict_region(5).all()


def test_verdict_region_refuses_negative_and_empty_margins():
    g = radial(16)
    assert g.verdict_region(0).all()
    assert g.verdict_region(15).sum() == 1
    with pytest.raises(ValueError, match="margin_cells.*radial_disc"):
        g.verdict_region(-1)
    with pytest.raises(ValueError, match="margin_cells=16 leaves no verdict region"):
        g.verdict_region(16)
    d = build_grid(GridSpec("disc2d", 9, 0.8))
    with pytest.raises(ValueError, match="margin_cells=5.*disc2d"):
        d.verdict_region(5)
    t = build_grid(GridSpec("torus", (8, 8)))
    assert t.verdict_region(1000).all()
    with pytest.raises(ValueError, match="margin_cells"):
        t.verdict_region(-3)


# -- reference: the per-node loop constructors the stencil assembler replaced --


def _reference_radial(spec):
    n = spec.resolution
    h = spec.radius / (n - 1)
    r = np.arange(n) * h
    g = SimpleNamespace(xy=np.column_stack([r, np.zeros(n)]))
    g.boundary_mask = np.zeros(n, dtype=bool)
    g.boundary_mask[-1] = True
    rows, cols, vals = [0, 0], [0, 1], [-1.0 / h**2, 1.0 / h**2]
    for i in range(1, n - 1):
        ri = r[i]
        west = 0.25 * (1.0 / h**2 - 1.0 / (2.0 * h * ri))
        east = 0.25 * (1.0 / h**2 + 1.0 / (2.0 * h * ri))
        rows += [i, i, i]
        cols += [i - 1, i, i + 1]
        vals += [west, -(west + east), east]
    g.lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    r_out = np.minimum(r + h / 2, spec.radius)
    r_in = np.maximum(r - h / 2, 0.0)
    g.area = np.pi * (r_out**2 - r_in**2)
    g.cells = (n - 1) - np.arange(n)
    nbr = np.empty((n, 2), dtype=int)
    nbr[:, 0] = np.arange(n) - 1
    nbr[:, 1] = np.arange(n) + 1
    nbr[n - 1, 1] = -1
    g.nbr = nbr
    return g


def _reference_bfs_cells(n_nodes, index, inside, boundary, n):
    dist = np.full(n_nodes, -1, dtype=int)
    queue = deque()
    for p in np.nonzero(boundary)[0]:
        dist[p] = 0
        queue.append(p)
    where = {index[i, j]: (i, j) for i in range(n) for j in range(n) if inside[i, j]}
    while queue:
        p = queue.popleft()
        i, j = where[p]
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            i2, j2 = i + di, j + dj
            if 0 <= i2 < n and 0 <= j2 < n and inside[i2, j2]:
                q = index[i2, j2]
                if dist[q] < 0:
                    dist[q] = dist[p] + 1
                    queue.append(q)
    return dist


def _reference_disc2d(spec):
    n = spec.resolution
    R = spec.radius
    axis = np.linspace(-R, R, n)
    h = axis[1] - axis[0]
    xg, yg = np.meshgrid(axis, axis, indexing="ij")
    inside = xg**2 + yg**2 <= R**2 + 1e-12
    index = -np.ones((n, n), dtype=int)
    index[inside] = np.arange(inside.sum())
    n_nodes = int(inside.sum())
    g = SimpleNamespace(xy=np.column_stack([xg[inside], yg[inside]]))

    def neighbor(i, j, di, dj):
        i2, j2 = i + di, j + dj
        if 0 <= i2 < n and 0 <= j2 < n and inside[i2, j2]:
            return index[i2, j2]
        return -1

    boundary = np.zeros(n_nodes, dtype=bool)
    nbr_table = np.full((n_nodes, 4), -1, dtype=int)
    rows, cols, vals = [], [], []
    coef = 0.25 / h**2
    for i in range(n):
        for j in range(n):
            if not inside[i, j]:
                continue
            p = index[i, j]
            nbrs = [neighbor(i, j, di, dj) for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))]
            nbr_table[p] = nbrs
            if any(q < 0 for q in nbrs):
                boundary[p] = True
                continue
            for q in nbrs:
                rows.append(p)
                cols.append(q)
                vals.append(coef)
            rows.append(p)
            cols.append(p)
            vals.append(-4.0 * coef)
    g.boundary_mask = boundary
    g.nbr = nbr_table
    g.lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    g.area = np.full(n_nodes, h * h)
    g.cells = _reference_bfs_cells(n_nodes, index, inside, boundary, n)
    return g


def _reference_torus(spec):
    nx, ny = spec.resolution_pair()
    lx, ly = spec.periods
    hx, hy = lx / nx, ly / ny
    xg, yg = np.meshgrid(np.arange(nx) * hx, np.arange(ny) * hy, indexing="ij")
    n_nodes = nx * ny
    g = SimpleNamespace(xy=np.column_stack([xg.ravel(), yg.ravel()]))
    g.boundary_mask = np.zeros(n_nodes, dtype=bool)

    def idx(i, j):
        return (i % nx) * ny + (j % ny)

    rows, cols, vals = [], [], []
    nbr_table = np.empty((n_nodes, 4), dtype=int)
    cx = 0.25 / hx**2
    cy = 0.25 / hy**2
    for i in range(nx):
        for j in range(ny):
            p = idx(i, j)
            nbr_table[p] = (idx(i - 1, j), idx(i + 1, j), idx(i, j - 1), idx(i, j + 1))
            for q, c in ((idx(i + 1, j), cx), (idx(i - 1, j), cx),
                         (idx(i, j + 1), cy), (idx(i, j - 1), cy)):
                rows.append(p)
                cols.append(q)
                vals.append(c)
            rows.append(p)
            cols.append(p)
            vals.append(-2.0 * (cx + cy))
    g.lap = sparse.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    g.area = np.full(n_nodes, hx * hy)
    g.cells = np.full(n_nodes, np.iinfo(np.int32).max)
    g.nbr = nbr_table
    return g


_REFERENCE = {"radial_disc": _reference_radial, "disc2d": _reference_disc2d,
              "torus": _reference_torus}


@pytest.mark.parametrize("spec", [
    *(GridSpec("disc2d", n, R) for n in (8, 9, 16, 17, 32, 33) for R in (0.5, 0.99)),
    GridSpec("torus", (9, 13), periods=(2.5, 0.7)),
    GridSpec("radial_disc", 8, 0.8),
    GridSpec("radial_disc", 1024, 0.8),
], ids=lambda s: f"{s.kind}-{s.resolution}-{s.radius if s.kind != 'torus' else s.periods}")
def test_grid_arrays_match_loop_constructors(spec):
    g = build_grid(spec)
    ref = _REFERENCE[spec.kind](spec)
    lap = ref.lap.tocsr()
    lap.sum_duplicates()
    for got, want in ((g.lap.data, lap.data), (g.lap.indices, lap.indices),
                      (g.lap.indptr, lap.indptr), (g.directional_neighbors()[0], ref.nbr),
                      (g.boundary_mask, ref.boundary_mask), (g.interior_mask, ~ref.boundary_mask),
                      (g.cells_to_boundary(), ref.cells), (g.area_weights(), ref.area),
                      (g.xy, ref.xy)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_directional_neighbors_tables():
    g = radial(32)
    nbr, spacings = g.directional_neighbors()
    assert nbr.shape == (g.n_nodes, 2)
    assert len(spacings) == 1 and abs(spacings[0] - g.spacing) < 1e-15
    assert nbr[0, 0] == -1 and nbr[-1, 1] == -1
    assert nbr[5, 0] == 4 and nbr[5, 1] == 6

    t = build_grid(GridSpec("torus", (8, 8)))
    nt, _ = t.directional_neighbors()
    assert (nt >= 0).all()
    # every node appears exactly once as a +x neighbour
    counts = np.bincount(nt[:, 1], minlength=t.n_nodes)
    assert (counts == 1).all()

    d = build_grid(GridSpec("disc2d", 21, 0.8))
    nd, _ = d.directional_neighbors()
    assert ((nd == -1).sum(axis=1)[~d.boundary_mask] == 0).all()


def test_hyperbolic_metric_frozen_values():
    g = radial(96, 0.8)
    g0 = hyperbolic_metric(g)
    assert g0[0] == 2.0
    r = np.abs(g.z())
    i = int(np.argmin(np.abs(r - 0.5)))
    assert abs(g0[i] - 2.0 / (1 - r[i] ** 2) ** 2) < 1e-14
    with pytest.raises(ValueError):
        hyperbolic_metric(build_grid(GridSpec("torus", (8, 8))))


def test_log_hyperbolic_metric_solves_liouville():
    # Delta log g0 = g0 for the curvature -4 disc metric; the discrete
    # residual is pure truncation error and must shrink at second order
    def resid(n):
        g = radial(n, 0.8)
        g0 = hyperbolic_metric(g)
        return np.abs((g.lap @ np.log(g0) - g0)[~g.boundary_mask]).max()

    r128, r256, r512 = resid(128), resid(256), resid(512)
    assert r512 < 1e-3
    order = np.log2(r128 / r256), np.log2(r256 / r512)
    assert min(order) > 1.8


def test_datum_constructors_and_algebra():
    z = HolomorphicDatum.monomial(2.0, 3)
    assert z.degree == 3 and not z.is_zero()
    c = HolomorphicDatum.constant(1.5)
    prod = z * c
    assert prod.kind == "monomial" and prod.degree == 3
    p = HolomorphicDatum.polynomial([1.0, 0.0, -0.25])
    pp = p * p
    ref = np.polymul([1.0, 0.0, -0.25][::-1], [1.0, 0.0, -0.25][::-1])[::-1]
    np.testing.assert_allclose([complex(x) for x in pp.coefficients], ref)
    sq = z.squared()
    assert sq.degree == 6
    zero = HolomorphicDatum.zero()
    assert (zero * p).is_zero()
    assert zero.scaled(3.0).is_zero()


def test_datum_evaluation_against_direct_formula():
    # |p|^2 of a general polynomial is angle-dependent, so this needs the
    # full planar chart rather than the radially-reduced one
    g = build_grid(GridSpec("disc2d", 33, 0.9))
    zs = g.z()
    p = HolomorphicDatum.polynomial([0.5, -1.0, 2.0])
    direct = 0.5 - zs + 2.0 * zs**2
    np.testing.assert_allclose(p.value(zs), direct, atol=1e-14)
    nsq = eval_norm_squared(p, g)
    assert nsq.shape == (g.n_nodes,)
    np.testing.assert_allclose(nsq, np.abs(direct) ** 2, atol=1e-14)

    # and the radial chart refuses it outright
    with pytest.raises(ValueError):
        eval_norm_squared(p, radial(16))


def test_monomial_norm_squared_is_radial_power():
    g = radial(64)
    m = HolomorphicDatum.monomial(1.0 + 1.0j, 1)
    nsq = eval_norm_squared(m, g)
    np.testing.assert_allclose(nsq, 2.0 * np.abs(g.z()) ** 2, atol=1e-14)


def test_torus_rejects_nonconstant_data():
    t = build_grid(GridSpec("torus", (8, 8)))
    with pytest.raises(ValueError):
        eval_norm_squared(HolomorphicDatum.monomial(1.0, 2), t)
    ok = eval_norm_squared(HolomorphicDatum.constant(2.0), t)
    np.testing.assert_allclose(ok, 4.0)


@pytest.mark.parametrize("c", [1e200, np.inf, np.nan])
@pytest.mark.parametrize("datum", [HolomorphicDatum.constant,
                                   lambda c: HolomorphicDatum.monomial(c, 1),
                                   lambda c: HolomorphicDatum.polynomial([0.5, c])],
                         ids=["constant", "monomial", "polynomial"])
def test_non_finite_norm_squared_is_refused(datum, c):
    # |c|^2 overflows for |c| above about 1.3e154; every kind must refuse
    # the result with the same ValueError, never raise OverflowError
    g = build_grid(GridSpec("disc2d", 9, 0.8))
    with pytest.raises(ValueError, match="non-finite values"):
        eval_norm_squared(datum(c), g)
    assert np.isfinite(eval_norm_squared(datum(1e150), g)).all()


def test_zero_set_polynomial_on_lattice():
    # roots of z^2 - 1/4 sit at +-0.5; with an odd lattice those are nodes
    g = build_grid(GridSpec("disc2d", 33, 0.8))
    p = HolomorphicDatum.polynomial([-0.25, 0.0, 1.0])
    hits = zero_set(p, g, tol=1e-12)
    pts = g.z()[hits]
    assert len(pts) == 2
    assert sorted(np.round(pts.real, 10)) == [-0.5, 0.5]
    assert np.abs(pts.imag).max() < 1e-12


def test_zero_set_of_zero_datum_is_everything():
    g = radial(16)
    assert len(zero_set(HolomorphicDatum.zero(), g)) == g.n_nodes


def test_grid_spec_is_frozen():
    spec = GridSpec("radial_disc", 16, 0.9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.radius = 0.5
    g = build_grid(spec)
    assert isinstance(g, Grid)
    # derived arrays are handed out as copies, so callers cannot corrupt them
    w = g.area_weights()
    w[:] = 0.0
    assert g.area_weights().sum() > 0.0

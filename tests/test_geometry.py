import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from hitchinlab.geometry import (
    Grid,
    GridSpec,
    HolomorphicDatum,
    build_grid,
    eval_norm_squared,
    hyperbolic_metric,
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


@pytest.mark.parametrize("resolution", [7, (8, 7), (7, 12)])
def test_torus_resolution_below_eight_is_refused(resolution):
    with pytest.raises(ValueError, match="torus resolution must be >= 8 per dimension"):
        GridSpec("torus", resolution)


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
    nbr = np.empty((n, 2), dtype=int)
    nbr[:, 0] = np.arange(n) - 1
    nbr[:, 1] = np.arange(n) + 1
    nbr[n - 1, 1] = -1
    g.nbr = nbr
    return g


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
    g.nbr = nbr_table
    return g


_REFERENCE = {"radial_disc": _reference_radial, "disc2d": _reference_disc2d,
              "torus": _reference_torus}


def _spec_id(s):
    return f"{s.kind}-{s.resolution}-{s.radius if s.kind != 'torus' else s.periods}"


_LOOP_SPECS = [
    *(GridSpec("disc2d", n, R) for n in (8, 9, 16, 17, 32, 33) for R in (0.5, 0.99)),
    GridSpec("torus", (9, 13), periods=(2.5, 0.7)),
    GridSpec("radial_disc", 8, 0.8),
    GridSpec("radial_disc", 1024, 0.8),
]
_LOOP_GRIDS = pytest.mark.parametrize("spec", _LOOP_SPECS, ids=_spec_id)


@_LOOP_GRIDS
def test_grid_arrays_match_loop_constructors(spec):
    g = build_grid(spec)
    ref = _REFERENCE[spec.kind](spec)
    lap = ref.lap.tocsr()
    lap.sum_duplicates()
    for got, want in ((g.lap.data, lap.data), (g.lap.indices, lap.indices),
                      (g.lap.indptr, lap.indptr), (g.directional_neighbors()[0], ref.nbr),
                      (g.boundary_mask, ref.boundary_mask), (g.interior_mask, ~ref.boundary_mask),
                      (g.area_weights(), ref.area), (g.xy, ref.xy)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _scipy_block_laplacian(lap, interior, gram):
    """Oracle: lap_II by sparse fancy indexing, then the BSR -> CSR -> CSC
    pipeline that ``Grid.block_laplacian`` shares."""
    m = gram.shape[0]
    lap_ii = lap[interior][:, interior].tocsc()
    n = lap_ii.shape[0]
    col = np.repeat(np.arange(n), np.diff(lap_ii.indptr))
    blocks = lap_ii.data[:, None, None] * gram.T
    blocks[lap_ii.indices == col] = np.nan
    A = sparse.bsr_matrix((blocks, lap_ii.indices, lap_ii.indptr), shape=(n * m, n * m)).tocsr()
    A.eliminate_zeros()
    own = np.flatnonzero(np.isnan(A.data)).reshape(n, m, m)
    A.data[own] = lap_ii.diagonal()[:, None, None] * gram.T
    A = sparse.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    if not np.all(np.abs(lap_ii.indices - col) <= 1):
        return A, own, None
    i, j = A.indices, np.repeat(np.arange(n * m), np.diff(A.indptr))
    bw = int(np.abs(i - j).max())
    return A, own, (bw, (2 * bw + i - j) + (3 * bw + 1) * j)


_BLOCK_GRAMS = [2.0 * np.eye(1), 2.0 * np.eye(2), 2.0 * np.eye(3), np.eye(2) + 1.0, np.eye(3) + 1.0]


@pytest.mark.parametrize("spec", [
    *_LOOP_SPECS,
    *(GridSpec("radial_disc", n, 0.8) for n in (64, 256, 384, 512, 2048, 4096)),
    GridSpec("disc2d", 256, 0.8),
    GridSpec("torus", 16),
    GridSpec("torus", 128),
], ids=_spec_id)
def test_block_laplacian_is_the_scipy_pipeline_byte_for_byte(spec):
    # lap_II read straight from lap's CSR arrays gives the very arrays of
    # fancy indexing, for the symmetric (2 I) and general (I + 1 1^T) grams,
    # and leaves lap as it was
    g = build_grid(spec)
    lap = g.lap.copy()
    for gram in _BLOCK_GRAMS:
        A, blocks, band, _ = g.block_laplacian(gram)
        A0, blocks0, band0 = _scipy_block_laplacian(lap, g.interior_mask, gram)
        assert A.format == "csc" and A.shape == A0.shape
        assert (band is None) == (band0 is None) == (spec.kind != "radial_disc")
        pairs = [(A.data, A0.data), (A.indices, A0.indices), (A.indptr, A0.indptr),
                 (blocks, blocks0)]
        if band is not None:
            assert band[0] == band0[0]
            pairs.append((band[1], band0[1]))
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    for got, want in ((g.lap.data, lap.data), (g.lap.indices, lap.indices),
                      (g.lap.indptr, lap.indptr)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [GridSpec("disc2d", 8, 0.8), GridSpec("disc2d", 33, 0.8),
                                  GridSpec("disc2d", 256, 0.8), GridSpec("torus", 16),
                                  GridSpec("torus", 128), GridSpec("radial_disc", 64, 0.8)],
                         ids=_spec_id)
def test_node_order_is_superlus_own_order_of_the_interior_laplacian(spec, monkeypatch):
    # on the disc2d lattice a Gram matrix with a zero entry gets the order
    # SuperLU's symmetric mode would factor lap_II in, each node's unknowns
    # together, made once per Gram matrix, read-only, and by no
    # factorisation: splu is never called for it.  Every other pattern has
    # no order
    g = build_grid(spec)
    lap_ii = g.lap[g.interior_mask][:, g.interior_mask].tocsc()
    lu = spla.splu(lap_ii, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})

    def splu(*args, **kwargs):
        raise AssertionError("the node order made a factorisation")

    monkeypatch.setattr(spla, "splu", splu)
    for gram in _BLOCK_GRAMS:
        order = g.block_laplacian(gram)[3]
        m = gram.shape[0]
        if spec.kind != "disc2d" or np.all(gram):
            assert order is None
            continue
        node = np.argsort(lu.perm_c)
        assert np.array_equal(order, (node[:, None] * m + np.arange(m)).ravel())
        assert g.block_laplacian(gram.copy())[3] is order and not order.flags.writeable


@_LOOP_GRIDS
def test_verdict_region_is_one_chart_set(spec):
    # the interior nodes with |z| <= 7R/8 of a disc, every node of the torus;
    # the smallest lattices here (resolution 8) keep it nonempty
    g = build_grid(spec)
    region = g.verdict_region()
    assert region.dtype == bool and region.any()
    assert not region[g.boundary_mask].any()
    if spec.kind == "torus":
        assert region.all()
    else:
        assert np.array_equal(region, g.interior_mask & (np.abs(g.z()) <= 7 / 8 * spec.radius))


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
    sq = z * z
    assert sq.degree == 6
    zero = HolomorphicDatum.zero()
    assert (zero * p).is_zero()
    assert zero.scaled(3.0).is_zero()
    # a product with anything but a datum is refused, never coerced
    for other in (2.0, 1j, np.ones(3)[0], "z"):
        with pytest.raises(TypeError):
            z * other


@pytest.mark.parametrize("valuation", [-1, 0.5, 1.0, True, False, -2])
@pytest.mark.parametrize("coefficients", [(1.0,), ()], ids=["one-term", "zero"])
def test_a_pole_or_a_fractional_power_is_no_datum(valuation, coefficients):
    # z^-1 was once accepted on disc2d 16, which has no node at 0, and its
    # nu-bounds verdict solved; z^0.5 was accepted as well
    with pytest.raises(ValueError, match="nonnegative integer"):
        HolomorphicDatum(valuation, coefficients)


def test_an_integer_valuation_of_any_integer_type_is_stored_as_int():
    d = HolomorphicDatum(np.int64(2), (1.0,))
    assert type(d.valuation) is int and d == HolomorphicDatum.monomial(1.0, 2)


def test_equal_polynomials_are_one_datum_whichever_constructor_built_them():
    D = HolomorphicDatum
    assert [f.name for f in dataclasses.fields(D)] == ["valuation", "coefficients"]
    spellings = (D.constant(1), D.monomial(1, 0), D.polynomial([1, 0]))
    assert spellings[0] == spellings[1] == spellings[2]
    assert len({hash(d) for d in spellings}) == 1
    assert D.monomial(0, 3) == D.zero() == D.polynomial([0, 0]) == D.constant(2).scaled(0)
    assert D.polynomial([0, 0, 2.0, 0]) == D.monomial(2.0, 2)
    assert D.monomial(1.0, 1) * D.constant(2.0) == D.polynomial([0, 2.0])
    assert [(d.kind, d.degree) for d in (D.zero(), D.constant(3), D.monomial(2, 3),
                                         D.polynomial([0, 1, 2]))] == [
        ("zero", 0), ("constant", 0), ("monomial", 3), ("polynomial", 2)]
    with pytest.raises(ValueError, match="nonnegative"):
        D.monomial(1.0, -1)
    with pytest.raises(ValueError, match="at least one coefficient"):
        D.polynomial([])
    # a one-term polynomial is a monomial, so the radial chart takes it
    g = radial(16)
    np.testing.assert_array_equal(eval_norm_squared(D.polynomial([0, 1j]), g),
                                  eval_norm_squared(D.monomial(1j, 1), g))
    # and a polynomial of degree 0, or one with zero coefficients, is
    # constant on the torus
    t = build_grid(GridSpec("torus", (8, 8)))
    np.testing.assert_array_equal(eval_norm_squared(D.polynomial([2.0, 0.0]), t), 4.0)
    np.testing.assert_array_equal(eval_norm_squared(D.monomial(0.0, 2), t), 0.0)


def test_a_monomial_of_huge_degree_stores_one_coefficient():
    # the CLI takes any nonnegative integer degree; a dense coefficient
    # tuple would need l + 1 entries for c z^l
    d = HolomorphicDatum.monomial(1.0, 10**12)
    assert d.coefficients == (1.0,) and d.degree == 10**12
    assert (d * d).coefficients == (1.0,) and (d * d).degree == 2 * 10**12
    nsq = eval_norm_squared(d, radial(16))
    assert np.isfinite(nsq).all() and nsq.max() == 0.0


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
    # the verdicts' corner masks rely on |p|^2 being exactly 0 at lattice roots
    pts = g.z()[eval_norm_squared(p, g) == 0.0]
    assert len(pts) == 2
    assert sorted(np.round(pts.real, 10)) == [-0.5, 0.5]
    assert np.abs(pts.imag).max() < 1e-12


def test_zero_set_of_zero_datum_is_everything():
    g = radial(16)
    assert not eval_norm_squared(HolomorphicDatum.zero(), g).any()


def test_grid_spec_is_frozen():
    spec = GridSpec("radial_disc", 16, 0.9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.radius = 0.5
    g = build_grid(spec)
    assert isinstance(g, Grid)
    assert repr(g) == "Grid(radial_disc, n_nodes=16, spacing=0.06)"
    # derived arrays are handed out as copies, so callers cannot corrupt them
    w = g.area_weights()
    w[:] = 0.0
    assert g.area_weights().sum() > 0.0

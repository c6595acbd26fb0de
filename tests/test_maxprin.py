"""Cooperative-system machinery: conditions, certified solves, differences."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from hitchinlab.geometry import GridSpec, HolomorphicDatum, build_grid
from hitchinlab.maxprin import (
    CertificationError,
    CooperativeSystem,
    check_conditions,
    coupling_pattern,
    difference_system,
    fully_coupled,
    fully_coupled_bruteforce,
    assemble_matrix,
    random_cooperative_system,
    randomized_positivity_suite,
    rescale_unknowns,
    solve_linear_cooperative,
    _phi,
)
from hitchinlab.solver import SolverConfig, solve
from hitchinlab.system import make_spec, make_system, scale_last_arrow

one = HolomorphicDatum.constant(1.0)


def radial(n=32, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def test_system_shape_validation():
    g = radial(12)
    N = g.n_nodes
    with pytest.raises(ValueError):
        CooperativeSystem(g, 2, np.zeros((2, 2, N + 1)), np.zeros((2, N)))
    with pytest.raises(ValueError):
        CooperativeSystem(g, 2, np.zeros((2, 2, N)), np.zeros((3, N)))
    with pytest.raises(ValueError):
        CooperativeSystem(g, 2, np.zeros((2, 2, N)), np.zeros((2, N)),
                          metric_weight=np.zeros(N))
    with pytest.raises(ValueError):
        CooperativeSystem(g, 2, np.zeros((2, 2, N)), np.zeros((2, N)),
                          excluded=[np.array([0])])


def test_pole_indices_must_lie_on_the_grid():
    g = radial(12)
    N = g.n_nodes
    c, f = np.zeros((2, 2, N)), np.zeros((2, N))
    for bad in (-1, N):
        with pytest.raises(ValueError, match=r"excluded node indices must lie in \[0, 12\)"):
            CooperativeSystem(g, 2, c, f, excluded=[np.array([3]), np.array([bad])])
    ok = CooperativeSystem(g, 2, c, f, excluded=[np.array([0, N - 1]), np.array([], dtype=int)])
    assert ok.excluded_union_mask().sum() == 2


def test_conditions_pass_on_random_draws():
    rng = np.random.default_rng(5)
    g = radial(24)
    for _ in range(5):
        sys_ = random_cooperative_system(g, 3, rng)
        rep = check_conditions(sys_)
        assert rep.passed
        d = rep.to_json_dict()
        assert d["cooperative_ok"] and d["column_dominance_ok"] and d["fully_coupled"]


@pytest.mark.parametrize(
    "violate,flag",
    [("cooperative", "cooperative_ok"), ("column", "column_dominance_ok"),
     ("coupled", "fully_coupled")],
)
def test_each_negative_control_trips_its_own_flag(violate, flag):
    rng = np.random.default_rng(9)
    g = radial(24)
    sys_ = random_cooperative_system(g, 3, rng, violate=violate)
    rep = check_conditions(sys_).to_json_dict()
    assert not rep[flag]
    others = {"cooperative_ok", "column_dominance_ok", "fully_coupled"} - {flag}
    for key in others:
        assert rep[key], f"{violate} control should only break {flag}, broke {key}"
    assert not rep["passed"]


def test_cooperative_control_is_flagged_on_every_draw():
    # c_01 can be drawn larger than any fixed offset, so it must be replaced
    g = radial(24)
    for seed in range(200):
        sys_ = random_cooperative_system(g, 3, np.random.default_rng(seed), violate="cooperative")
        rep = check_conditions(sys_)
        assert not rep.cooperative_ok and rep.column_ok and rep.coupled_ok, seed


def test_decoupled_control_reports_a_real_partition():
    rng = np.random.default_rng(2)
    g = radial(16)
    sys_ = random_cooperative_system(g, 4, rng, violate="coupled")
    rep = check_conditions(sys_)
    ok, partition = rep.coupled_ok, rep.partition
    assert not ok and partition is not None
    alpha, beta = partition
    P = coupling_pattern(sys_)
    assert not any(P[i, j] for i in alpha for j in beta)


def test_closure_matches_bruteforce_on_random_patterns():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        P = rng.random((n, n)) < rng.uniform(0.1, 0.6)
        np.fill_diagonal(P, False)
        fast, partition = fully_coupled(P)
        assert fast == fully_coupled_bruteforce(P)
        if not fast:
            alpha, beta = partition
            assert not any(P[i, j] for i in alpha for j in beta)


def _itertools_bruteforce(P):
    # the per-subset Python scan the bitmask oracle replaced
    n = P.shape[0]
    idx = range(n)
    for r in range(1, n):
        for alpha in itertools.combinations(idx, r):
            beta = [j for j in idx if j not in alpha]
            if not any(P[i, j] for i in alpha for j in beta):
                return False
    return True


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(1, 12), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=12, density=0.0, seed=0)
@example(n=12, density=1.0, seed=0)
@example(n=1, density=0.0, seed=0)
@example(n=1, density=1.0, seed=0)
def test_bitmask_bruteforce_matches_itertools_oracle(n, density, seed):
    # density 0 and 1 give the all-false and all-true patterns
    P = np.random.default_rng(seed).random((n, n)) < density
    if density == 1.0:
        assert P.all()
    got = fully_coupled_bruteforce(P)
    assert type(got) is bool
    assert got == _itertools_bruteforce(P)


def test_certified_solve_against_dense_oracle():
    from hitchinlab.maxprin import assemble_matrix

    rng = np.random.default_rng(23)
    g = radial(12)
    sys_ = random_cooperative_system(g, 3, rng)
    u, rep = solve_linear_cooperative(sys_)
    assert rep.passed
    A, rhs = assemble_matrix(sys_)
    dense = np.linalg.solve(A.toarray(), rhs).reshape(3, g.n_nodes)
    assert np.abs(u - dense).max() < 1e-10 * max(1.0, np.abs(dense).max())
    # certified systems produce positive interior solutions
    assert u[:, sys_.scan_mask()].min() > 0.0


def test_certification_refusal_and_override():
    rng = np.random.default_rng(31)
    g = radial(16)
    bad = random_cooperative_system(g, 2, rng, violate="column")
    with pytest.raises(CertificationError):
        solve_linear_cooperative(bad)
    u, rep = solve_linear_cooperative(bad, certify=False)
    assert not rep.passed
    assert u.shape == (2, g.n_nodes)


_SOLVE_GRIDS = [radial(24), build_grid(GridSpec("disc2d", 11, 0.8)),
                build_grid(GridSpec("torus", (8, 8)))]


def _assert_matches_dense_oracle(sys_, u):
    # normwise at rtol 1e-10: Dirichlet zeros carry round-off on both sides
    A, rhs = assemble_matrix(sys_)
    dense = np.linalg.solve(A.toarray(), rhs).reshape(sys_.n, sys_.grid.n_nodes)
    assert np.abs(u - dense).max() <= 1e-10 * np.abs(dense).max()
    return dense


@pytest.mark.parametrize("grid", _SOLVE_GRIDS, ids=lambda g: g.kind)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("with_drift", [False, True])
@pytest.mark.parametrize("with_poles", [False, True])
def test_reordered_solve_matches_dense_oracle(grid, n, with_drift, with_poles):
    rng = np.random.default_rng(1000 * n + 10 * with_drift + with_poles)
    sys_ = random_cooperative_system(grid, n, rng, None, with_drift, with_poles)
    u, rep = solve_linear_cooperative(sys_, certify=True)
    assert rep.passed
    dense = _assert_matches_dense_oracle(sys_, u)
    scan = sys_.scan_mask()
    # an M-matrix solve is also accurate entry by entry where u > 0
    np.testing.assert_allclose(u[:, scan], dense[:, scan], rtol=1e-10)
    assert u[:, scan].min() > 0.0


@pytest.mark.parametrize("grid", _SOLVE_GRIDS, ids=lambda g: g.kind)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("violate", ["column", "cooperative"])
def test_uncertified_negative_controls_match_dense_oracle(grid, n, violate):
    # refused as certificates, but an uncertified solve must stay accurate
    rng = np.random.default_rng(7 * n)
    sys_ = random_cooperative_system(grid, n, rng, violate=violate)
    with pytest.raises(CertificationError):
        solve_linear_cooperative(sys_)
    u, rep = solve_linear_cooperative(sys_, certify=False)
    assert not rep.passed
    _assert_matches_dense_oracle(sys_, u)


def test_uncertified_solve_keeps_partial_pivoting():
    # node couplings of 1e12 against a Laplacian diagonal of -64: without
    # row exchanges the LU takes the small diagonal pivots and grows ~1e20.
    # The torus has no identity rows, whose unit scale would make A
    # ill-conditioned beside the 1e12 couplings.
    grid = build_grid(GridSpec("torus", (8, 8)))
    N = grid.n_nodes
    c = np.zeros((2, 2, N))
    c[0, 1] = c[1, 0] = 1e12
    sys_ = CooperativeSystem(grid, 2, c, -np.ones((2, N)))
    u, rep = solve_linear_cooperative(sys_, certify=False)
    assert not rep.column_ok
    _assert_matches_dense_oracle(sys_, u)


@pytest.mark.parametrize("violate,n", [("colum", 3), ("", 3), ("coupled", 1),
                                       ("cooperative", 1), ("column", 0)])
def test_unrealisable_violation_is_refused(violate, n):
    with pytest.raises(ValueError, match=repr(violate)):
        random_cooperative_system(radial(12), n, np.random.default_rng(0), violate=violate)


def test_column_violation_is_realised_by_one_unknown():
    sys_ = random_cooperative_system(radial(12), 1, np.random.default_rng(0), violate="column")
    rep = check_conditions(sys_).to_json_dict()
    assert not rep["column_dominance_ok"]
    assert rep["cooperative_ok"] and rep["fully_coupled"]


def test_rescaling_transforms_solutions_exactly():
    rng = np.random.default_rng(41)
    g = radial(20)
    sys_ = random_cooperative_system(g, 3, rng)
    lam = np.array([2.0, 0.5, 3.0])
    scaled = rescale_unknowns(sys_, lam)
    u, _ = solve_linear_cooperative(sys_)
    # a wide rescaling can break column dominance, so solve uncertified
    w, _ = solve_linear_cooperative(scaled, certify=False)
    np.testing.assert_allclose(w, lam[:, None] * u, rtol=1e-9, atol=1e-9)
    with pytest.raises(ValueError):
        rescale_unknowns(sys_, [1.0, -1.0, 2.0])


def test_rescaling_invariances_and_inverse():
    # sign pattern and coupling survive any positive rescaling; dominance
    # need not, and the inverse scaling restores the original exactly
    rng = np.random.default_rng(42)
    g = radial(16)
    sys_ = random_cooperative_system(g, 3, rng)
    lam = np.array([2.0, 0.5, 3.0])
    scaled = rescale_unknowns(sys_, lam)
    rep0, rep1 = check_conditions(sys_), check_conditions(scaled)
    assert rep0.cooperative_ok and rep1.cooperative_ok
    np.testing.assert_array_equal(coupling_pattern(sys_), coupling_pattern(scaled))
    back = rescale_unknowns(scaled, 1.0 / lam)
    np.testing.assert_allclose(back.c, sys_.c, rtol=1e-14)
    np.testing.assert_allclose(back.f, sys_.f, rtol=1e-14)
    assert check_conditions(back).passed


def test_poles_are_pinned_and_positive_elsewhere():
    rng = np.random.default_rng(43)
    g = radial(32)
    sys_ = random_cooperative_system(g, 2, rng, with_poles=True)
    assert any(len(e) for e in sys_.excluded)
    u, _ = solve_linear_cooperative(sys_)
    for i, e in enumerate(sys_.excluded):
        np.testing.assert_allclose(u[i, e], sys_.pole_value, rtol=1e-12)
    assert u[:, sys_.scan_mask()].min() > 0.0


def test_drift_keeps_offdiagonals_nonnegative():
    rng = np.random.default_rng(47)
    for g in (radial(24), build_grid(GridSpec("disc2d", 11, 0.8))):
        sys_ = random_cooperative_system(g, 2, rng, with_drift=True)
        L = sys_.elliptic_operator().tocoo()
        off = L.data[(L.row != L.col)]
        assert off.min() >= 0.0
        u, rep = solve_linear_cooperative(sys_)
        assert rep.passed and u[:, sys_.scan_mask()].min() > 0.0


def test_randomized_suite_reports_positive_minima():
    grids = [radial(24), build_grid(GridSpec("torus", (8, 8)))]
    out = randomized_positivity_suite(30, seed=1, grids=grids)
    assert out["passed"]
    assert out["worst_relative_min"] > -1e-8
    assert len(out["cases"]) == 30


@pytest.mark.parametrize("count", [0, -5])
def test_suite_without_solves_is_refused(count):
    # a suite of no certified solves asserts nothing, so it must not report
    # "passed" with worst_relative_min = inf
    with pytest.raises(ValueError, match="count must be >= 1"):
        randomized_positivity_suite(count, seed=0, grids=[radial(24)])


def test_phi_against_quadrature():
    assert _phi(np.array([0.0]))[0] == 1.0
    vals = np.linspace(-3.0, 3.0, 21)
    got = _phi(vals)
    for v, p in zip(vals, got):
        ref, _ = quad(lambda s: np.exp(s * v), 0.0, 1.0, epsabs=1e-13)
        assert abs(p - ref) < 1e-10


def _two_member_family(n=3, t_a=2.0, t_b=1.0, res=64):
    g = radial(res)
    base = make_spec("hitchin_component", n, (one,), t=1.0)
    cfg = SolverConfig(tol_residual=1e-11)
    spec_a = scale_last_arrow(base, t_a)
    spec_b = scale_last_arrow(base, t_b)
    rep_a = solve(make_system(spec_a, g), config=cfg)
    rep_b = solve(make_system(spec_b, g), config=cfg)
    assert rep_a.converged and rep_b.converged
    return spec_a, rep_a.state, spec_b, rep_b.state


def test_difference_system_cyclic_identities():
    spec_a, st_a, spec_b, st_b = _two_member_family()
    ds = difference_system(spec_a, st_a, spec_b, st_b)
    assert ds.mode == "cyclic"
    np.testing.assert_allclose(ds.scale_ratio_log, 2 * np.log(2.0), rtol=1e-15)
    assert ds.row_sum_error() < 1e-12
    assert ds.residual_inf < 5e-9
    rep = check_conditions(ds.system)
    assert rep.passed
    # the log-ratios are strictly positive away from the boundary
    inner = ds.system.grid.verdict_region(3)
    assert ds.v[:, inner].min() > 0.0


def test_difference_system_vanishing_corner_mode():
    spec_a, st_a, spec_b, st_b = _two_member_family(t_a=1.0, t_b=0.0)
    ds = difference_system(spec_a, st_a, spec_b, st_b)
    assert ds.mode == "vanishing_corner"
    assert np.isinf(ds.scale_ratio_log)
    with pytest.raises(ValueError):
        ds.row_sum_error()
    # source terms are nonpositive and not identically zero
    assert ds.system.f.max() <= 0.0
    assert ds.system.f.min() < 0.0
    inner = ds.system.grid.verdict_region(3)
    assert ds.v[:, inner].min() > 0.0


def test_difference_system_input_validation():
    spec_a, st_a, spec_b, st_b = _two_member_family(res=32)
    with pytest.raises(ValueError):
        difference_system(spec_b, st_b, spec_a, st_a)  # needs |t_a| > |t_b|
    other = make_spec("hitchin_component", 3, (HolomorphicDatum.constant(2.0),), t=2.0)
    with pytest.raises(ValueError):
        difference_system(other, st_a, spec_b, st_b)


# -- reference: the per-node drift loop and per-block assembly it replaced --


def _reference_upwind_drift(grid, velocity):
    nbr, spacings = grid.directional_neighbors()
    N = grid.n_nodes
    if velocity.ndim == 1:
        velocity = velocity[:, None]
    rows, cols, vals = [], [], []
    interior = ~grid.boundary_mask
    for ax in range(len(spacings)):
        h = spacings[ax]
        minus, plus = nbr[:, 2 * ax], nbr[:, 2 * ax + 1]
        v = velocity[:, ax]
        for p in np.nonzero(interior)[0]:
            vp = v[p]
            if vp > 0 and plus[p] >= 0:
                rows += [p, p]
                cols += [plus[p], p]
                vals += [vp / h, -vp / h]
            elif vp < 0 and minus[p] >= 0:
                rows += [p, p]
                cols += [minus[p], p]
                vals += [-vp / h, vp / h]
    return sparse.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()


def _reference_assemble(system):
    N = system.grid.n_nodes
    n = system.n
    L = system.grid.lap
    if system.metric_weight is not None:
        L = sparse.diags(1.0 / system.metric_weight) @ L
    if system.drift is not None:
        L = L + _reference_upwind_drift(system.grid, np.asarray(system.drift, float))
    L = L.tocsr()
    dirichlet = [system.grid.boundary_mask.copy() for _ in range(n)]
    for i, e in enumerate(system.excluded):
        dirichlet[i][e] = True
    blocks = []
    rhs = np.empty(n * N)
    for i in range(n):
        free = ~dirichlet[i]
        row_scale = sparse.diags(free.astype(float))
        row = [None] * n
        for j in range(n):
            if j == i:
                row[j] = row_scale @ (L + sparse.diags(system.c[i, i])) + sparse.diags(
                    dirichlet[i].astype(float))
            else:
                row[j] = row_scale @ sparse.diags(system.c[i, j])
        blocks.append(row)
        b = np.where(free, system.f[i], 0.0)
        b[system.grid.boundary_mask] = 0.0
        b[system.excluded[i]] = system.pole_value
        rhs[i * N:(i + 1) * N] = b
    return sparse.bmat(blocks, format="csr"), rhs


_ASSEMBLY_GRIDS = [build_grid(GridSpec("torus", (9, 13), periods=(2.0, 0.5))),
                   build_grid(GridSpec("radial_disc", 40, 0.8)),
                   build_grid(GridSpec("disc2d", 17, 0.9))]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(grid=st.sampled_from(_ASSEMBLY_GRIDS), n=st.integers(1, 5),
       with_drift=st.booleans(), with_poles=st.booleans(), weighted=st.booleans(),
       sparse_coupling=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_assembly_matches_block_reference(grid, n, with_drift, with_poles, weighted,
                                          sparse_coupling, seed):
    rng = np.random.default_rng(seed)
    sys_ = random_cooperative_system(grid, n, rng, None, with_drift, with_poles)
    if weighted:
        sys_.metric_weight = 1.0 + rng.random(grid.n_nodes)
    if sparse_coupling:
        sys_.c = sys_.c * (rng.random(sys_.c.shape) < 0.5)
    A, rhs = assemble_matrix(sys_)
    A_ref, rhs_ref = _reference_assemble(sys_)
    for got, want in ((A.data, A_ref.data), (A.indices, A_ref.indices),
                      (A.indptr, A_ref.indptr), (rhs, rhs_ref)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

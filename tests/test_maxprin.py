"""Cooperative-system machinery: conditions, certified solves, differences."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from hitchinlab import analysis, maxprin
from hitchinlab.geometry import GridSpec, HolomorphicDatum, build_grid
from hitchinlab.maxprin import (
    POLE_VALUE,
    CertificationError,
    CooperativeSystem,
    check_conditions,
    coupling_pattern,
    difference_system,
    fully_coupled,
    assemble_matrix,
    random_cooperative_system,
    randomized_positivity_suite,
    solve_linear_cooperative,
    _phi,
)
from hitchinlab.solver import SolverConfig, solve
from hitchinlab.system import make_spec, make_system

from gauge import scale_last_arrow

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
                          excluded=np.zeros((1, N), dtype=bool))


def test_pole_mask_must_cover_every_unknown_on_the_grid():
    g = radial(12)
    N = g.n_nodes
    c, f = np.zeros((2, 2, N)), np.zeros((2, N))
    for shape in ((2, N + 1), (2, N - 1), (N,), (2 * N,)):
        with pytest.raises(ValueError, match=r"excluded must be a boolean mask of shape \(2, 12\)"):
            CooperativeSystem(g, 2, c, f, excluded=np.zeros(shape, dtype=bool))
    mask = np.zeros((2, N), dtype=bool)
    mask[0, 3], mask[1, 5] = True, True
    # a pole pins only its own unknown's row; no mask means no poles
    free = CooperativeSystem(g, 2, c, f, excluded=mask).free_rows()
    np.testing.assert_array_equal(np.argwhere(free != ~g.boundary_mask), [[0, 3], [1, 5]])
    assert not CooperativeSystem(g, 2, c, f).excluded.any()


def test_conditions_pass_on_random_draws():
    rng = np.random.default_rng(5)
    g = radial(24)
    for _ in range(5):
        sys_ = random_cooperative_system(g, 3, rng)
        d = check_conditions(sys_)
        assert d["passed"]
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
    rep = check_conditions(sys_)
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
        assert (not rep["cooperative_ok"] and rep["column_dominance_ok"]
                and rep["fully_coupled"]), seed


def test_decoupled_control_reports_a_real_partition():
    rng = np.random.default_rng(2)
    g = radial(16)
    sys_ = random_cooperative_system(g, 4, rng, violate="coupled")
    rep = check_conditions(sys_)
    ok, partition = rep["fully_coupled"], rep["partition"]
    assert not ok and partition is not None
    alpha, beta = partition
    P = coupling_pattern(sys_)
    assert not any(P[i, j] for i in alpha for j in beta)


def fully_coupled_bruteforce(pattern):
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


def _worst_offdiag_loop(system):
    """Oracle: the n(n-1) pair scan that ``check_conditions`` replaced, over
    the nodes where row i is free (a pole of u_j does not drop c_ij).  The
    witness is the first pair (i, j) in i-major order holding the minimum,
    and that pair's first free node holding it."""
    free = system.free_rows()
    worst = None
    for i in range(system.n):
        nodes = np.nonzero(free[i])[0]
        for j in range(system.n):
            if i == j or nodes.size == 0:
                continue
            vals = system.c[i, j, nodes]
            k = int(np.argmin(vals))
            if worst is None or vals[k] < worst[3]:
                worst = (i, j, int(nodes[k]), float(vals[k]))
    return worst


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 4), levels=st.integers(1, 3), constant=st.booleans(),
       poles=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=16),
       seed=st.integers(0, 2**32 - 1))
@example(n=3, levels=1, constant=True, poles=[], seed=0)
@example(n=3, levels=2, constant=False, poles=[(i, k) for i in range(3) for k in range(8)],
         seed=0)
@example(n=2, levels=1, constant=True, poles=[(0, k) for k in range(8)], seed=1)
def test_worst_offdiag_witness_matches_the_pair_loop(n, levels, constant, poles, seed):
    # couplings drawn from a few integers tie across pairs and nodes, and
    # constant fields tie at every node; a pole (i, k) pins row i at node k
    # alone, and the poles can pin every row of an unknown, or every row
    g = radial(8)
    c = np.random.default_rng(seed).integers(-levels, levels + 1, size=(n, n, g.n_nodes))
    if constant:
        c[:] = c[..., :1]
    excluded = np.zeros((n, g.n_nodes), dtype=bool)
    for i, k in poles:
        excluded[i % n, k] = True
    sys_ = CooperativeSystem(g, n, c, np.zeros((n, g.n_nodes)), excluded=excluded)
    rep = check_conditions(sys_)
    want = _worst_offdiag_loop(sys_)
    assert rep["worst_offdiag"] == (None if want is None else list(want))
    assert rep["cooperative_ok"] == (want is None or want[3] >= 0.0)


def test_a_negative_coupling_into_a_pole_is_refused():
    # row (1, 20) is free, its coupling into the pole of u_0 at node 20 enters
    # the right-hand side as -c_10 POLE_VALUE; the per-node scan once dropped
    # node 20, certified the system and solved it to u[1, 20] = -1.12e7
    g = radial(64)
    sys_ = random_cooperative_system(g, 2, np.random.default_rng(0))
    sys_.excluded[0, 20] = True
    sys_.c[1, 0, 20] = -1e3
    rep = check_conditions(sys_)
    assert rep["cooperative_ok"] is False and rep["worst_offdiag"] == [1, 0, 20, -1000.0]
    with pytest.raises(CertificationError):
        solve_linear_cooperative(sys_)


_POLE_GRIDS = [radial(8), build_grid(GridSpec("torus", (8, 8))),
               build_grid(GridSpec("disc2d", 9, 0.8))]


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(grid=st.sampled_from(_POLE_GRIDS), n=st.integers(2, 4), density=st.floats(0.0, 0.5),
       breach=st.sampled_from(["offdiag", "column"]), seed=st.integers(0, 2**32 - 1))
def test_a_breach_on_a_free_row_is_refused_whatever_the_poles(grid, n, density, breach, seed):
    # each unknown draws its own poles; the breach sits on a row i >= 1 left
    # free at a pole k of u_0, a node the per-node scan once dropped
    rng = np.random.default_rng(seed)
    sys_ = random_cooperative_system(grid, n, rng)
    sys_.excluded = (rng.random((n, grid.n_nodes)) < density) & grid.interior_mask
    k, i = int(rng.choice(np.nonzero(grid.interior_mask)[0])), int(rng.integers(1, n))
    sys_.excluded[0, k], sys_.excluded[i, k] = True, False
    if breach == "offdiag":
        j = int(rng.choice([j for j in range(n) if j != i]))
        sys_.c[i, j, k] = -1.5
        flag, other = "cooperative_ok", "column_dominance_ok"
    else:
        # column i sums to 1 over the rows free at k and to -1 over all rows:
        # the pinned row 0 is an identity row, its coupling c_0i no entry
        free = sys_.free_rows()[:, k]
        sys_.c[i, i, k] += 1.0 - sys_.c[free, i, k].sum()
        sys_.c[0, i, k] -= 2.0 + sys_.c[~free, i, k].sum()
        flag, other = "column_dominance_ok", "cooperative_ok"
    rep = check_conditions(sys_)
    assert rep[flag] is False and rep[other] is True and not rep["passed"]
    if breach == "offdiag":
        assert rep["worst_offdiag"] == [i, j, k, -1.5]
    else:
        assert rep["worst_column_sum"][:2] == [i, k]
        assert rep["worst_column_sum"][2] == pytest.approx(1.0)
    with pytest.raises(CertificationError):
        solve_linear_cooperative(sys_)


def test_certified_solve_against_dense_oracle():
    from hitchinlab.maxprin import assemble_matrix

    rng = np.random.default_rng(23)
    g = radial(12)
    sys_ = random_cooperative_system(g, 3, rng)
    u = solve_linear_cooperative(sys_)
    assert check_conditions(sys_)["passed"]
    A, rhs = assemble_matrix(sys_)
    dense = np.linalg.solve(A.toarray(), rhs).reshape(3, g.n_nodes)
    assert np.abs(u - dense).max() < 1e-10 * max(1.0, np.abs(dense).max())
    # certified systems produce positive interior solutions
    assert u[sys_.free_rows()].min() > 0.0


def test_certification_refusal():
    rng = np.random.default_rng(31)
    bad = random_cooperative_system(radial(16), 2, rng, violate="column")
    with pytest.raises(CertificationError):
        solve_linear_cooperative(bad)


def _torus_system(size, c, excluded=None):
    """A constant coupling matrix ``c`` at every node of a torus, f = -1."""
    g = build_grid(GridSpec("torus", (size, size)))
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    return CooperativeSystem(g, n, np.repeat(c[:, :, None], g.n_nodes, axis=2),
                             -np.ones((n, g.n_nodes)), excluded=excluded)


@pytest.mark.parametrize("size", [8, 16])
@pytest.mark.parametrize("c", [[[0.0]], [[-1.0, 1.0], [1.0, -1.0]]], ids=["n1", "n2"])
def test_zero_column_sums_on_a_periodic_grid_are_refused(size, c):
    # nothing pins L + C there: (b) once held with equality at every node, the
    # singular operator was certified and "solved" to max|u| of 1e14 - 1e15
    sys_ = _torus_system(size, c)
    rep = check_conditions(sys_)
    assert rep["column_dominance_ok"] is False and not rep["passed"]
    assert rep["cooperative_ok"] and rep["fully_coupled"]
    assert rep["worst_column_sum"][2] == 0.0
    with pytest.raises(CertificationError):
        solve_linear_cooperative(sys_)


def test_one_strictly_dominant_column_certifies_a_periodic_system():
    sys_ = _torus_system(8, [[-1.0, 1.0], [1.0, -1.0]])
    sys_.c[1, 1, 5] -= 0.5
    rep = check_conditions(sys_)
    assert rep["passed"] and rep["column_dominance_ok"] is True
    u = solve_linear_cooperative(sys_)
    _assert_matches_dense_oracle(sys_, u)
    assert u.min() > 0.0


def test_a_pole_pins_a_zero_sum_periodic_system():
    excluded = np.zeros((2, 64), dtype=bool)
    excluded[0, 9] = True
    sys_ = _torus_system(8, [[-1.0, 1.0], [1.0, -1.0]], excluded)
    assert check_conditions(sys_)["passed"]
    u = solve_linear_cooperative(sys_)
    _assert_matches_dense_oracle(sys_, u)
    assert u[sys_.free_rows()].min() > 0.0


_SOLVE_GRIDS =[radial(24), build_grid(GridSpec("disc2d", 11, 0.8)),
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
    u = solve_linear_cooperative(sys_)
    assert check_conditions(sys_)["passed"]
    dense = _assert_matches_dense_oracle(sys_, u)
    free = sys_.free_rows()
    # an M-matrix solve is also accurate entry by entry where u > 0
    np.testing.assert_allclose(u[free], dense[free], rtol=1e-10)
    assert u[free].min() > 0.0


@pytest.mark.parametrize("grid", _SOLVE_GRIDS, ids=lambda g: g.kind)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("violate", ["column", "cooperative"])
def test_uncertified_negative_controls_match_dense_oracle(grid, n, violate):
    # refused as certificates: a system that fails a condition is not solved
    rng = np.random.default_rng(7 * n)
    sys_ = random_cooperative_system(grid, n, rng, violate=violate)
    with pytest.raises(CertificationError):
        solve_linear_cooperative(sys_)


@pytest.mark.parametrize("violate,n", [("colum", 3), ("", 3), ("coupled", 1),
                                       ("cooperative", 1), ("column", 0)])
def test_unrealisable_violation_is_refused(violate, n):
    with pytest.raises(ValueError, match=repr(violate)):
        random_cooperative_system(radial(12), n, np.random.default_rng(0), violate=violate)


def test_column_violation_is_realised_by_one_unknown():
    sys_ = random_cooperative_system(radial(12), 1, np.random.default_rng(0), violate="column")
    rep = check_conditions(sys_)
    assert not rep["column_dominance_ok"]
    assert rep["cooperative_ok"] and rep["fully_coupled"]


def test_poles_are_pinned_and_positive_elsewhere():
    rng = np.random.default_rng(43)
    g = radial(32)
    sys_ = random_cooperative_system(g, 2, rng, with_poles=True)
    assert sys_.excluded.any()
    u = solve_linear_cooperative(sys_)
    for i, e in enumerate(sys_.excluded):
        np.testing.assert_allclose(u[i, e], POLE_VALUE, rtol=1e-12)
    assert u[sys_.free_rows()].min() > 0.0


def test_drift_keeps_offdiagonals_nonnegative():
    rng = np.random.default_rng(47)
    for g in (radial(24), build_grid(GridSpec("disc2d", 11, 0.8))):
        sys_ = random_cooperative_system(g, 2, rng, with_drift=True)
        L = sys_.elliptic_operator().tocoo()
        off = L.data[(L.row != L.col)]
        assert off.min() >= 0.0
        u = solve_linear_cooperative(sys_)
        assert check_conditions(sys_)["passed"] and u[sys_.free_rows()].min() > 0.0


def test_drift_takes_one_column_per_grid_axis():
    # a radial drift is (N, 1); a flat (N,) array is refused, not reshaped
    g = radial(24)
    sys_ = random_cooperative_system(g, 2, np.random.default_rng(47), with_drift=True)
    assert sys_.drift.shape == (g.n_nodes, 1)
    sys_.drift = sys_.drift[:, 0]
    with pytest.raises(ValueError, match=rf"^drift must have shape \({g.n_nodes}, 1\)$"):
        sys_.elliptic_operator()


def test_randomized_suite_reports_positive_minima():
    grids = [radial(24), build_grid(GridSpec("torus", (8, 8)))]
    out = randomized_positivity_suite(30, seed=1, grids=grids)
    assert out["passed"]
    assert out["worst_relative_min"] > -1e-8
    assert len(out["cases"]) == 30


def test_suite_minimum_and_scale_read_every_free_row(monkeypatch):
    # seed 0's first system on radial 24 has poles, and both its min_u and
    # its scale sit on a free row at a pole of another unknown, a node the
    # per-node scan once dropped for every unknown
    solved = []

    def recording(sys_):
        u = solve_linear_cooperative(sys_)
        solved.append((sys_, u))
        return u

    monkeypatch.setattr(maxprin, "solve_linear_cooperative", recording)
    (case,) = randomized_positivity_suite(1, seed=0, grids=[radial(24)])["cases"]
    ((sys_, u),) = solved
    free = sys_.free_rows()
    assert case["poles"] and case["n"] >= 2
    assert case["min_u"] == u[free].min() and case["scale"] == np.abs(u[free]).max()
    for value in (case["min_u"], case["scale"]):
        _, k = np.argwhere(free & (np.abs(u) == abs(value)))[0]
        assert sys_.excluded[:, k].any()


@pytest.mark.parametrize("count", [0, -5])
def test_suite_without_solves_is_refused(count):
    # a suite of no certified solves asserts nothing, so it must not report
    # "passed" with worst_relative_min = inf
    with pytest.raises(ValueError, match="count must be >= 1"):
        randomized_positivity_suite(count, seed=0, grids=[radial(24)])


def test_suite_without_grids_is_refused():
    # case k draws on grids[k % len(grids)]: an empty list once died in a
    # ZeroDivisionError, here and in verify_max_principle
    for run in (randomized_positivity_suite, analysis.verify_max_principle):
        with pytest.raises(ValueError, match="needs at least one grid"):
            run(1, 0, [])


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
    return rep_a.state, rep_b.state


def test_difference_system_cyclic_identities():
    st_a, st_b = _two_member_family()
    ds = difference_system(st_a, st_b)
    assert ds.mode == "cyclic"
    # the log-ratios sum to log of the scale ratio squared: 2 log(t_a / t_b)
    assert np.abs(ds.v.sum(axis=0) - 2 * np.log(2.0 / 1.0)).max() < 1e-12
    assert ds.residual_inf < 5e-9
    assert check_conditions(ds.system)["passed"]
    # the log-ratios are strictly positive away from the boundary
    inner = ds.system.grid.verdict_region()
    assert ds.v[:, inner].min() > 0.0


def test_difference_system_compares_one_bundle_spelled_by_two_variants():
    # hitchin_component n = 3 with q = z and slnr_odd n = 3 with
    # (nu, mu) = (z, z^0) are one cyclic bundle; the comparison once refused
    # the pair as not sharing its holomorphic data
    g = radial(32)
    z = HolomorphicDatum.monomial(1.0, 1)
    spec_a = make_spec("hitchin_component", 3, (z,), t=2.0)
    spec_b = make_spec("slnr_odd", 3, (z, HolomorphicDatum.monomial(1.0, 0)), t=1.0)
    cfg = SolverConfig(tol_residual=1e-11)
    rep_a, rep_b = (solve(make_system(s, g), config=cfg) for s in (spec_a, spec_b))
    assert rep_a.converged and rep_b.converged
    ds = difference_system(rep_a.state, rep_b.state)
    assert ds.mode == "cyclic"
    assert check_conditions(ds.system)["passed"]


def test_difference_system_vanishing_corner_mode():
    st_a, st_b = _two_member_family(t_a=1.0, t_b=0.0)
    ds = difference_system(st_a, st_b)
    assert ds.mode == "vanishing_corner"
    # log(t_a / t_b) is infinite: the corner log-ratio drops out of v
    assert ds.v.shape == (st_a.spec.n - 1, st_a.grid.n_nodes)
    # source terms are nonpositive and not identically zero
    assert ds.system.f.max() <= 0.0
    assert ds.system.f.min() < 0.0
    inner = ds.system.grid.verdict_region()
    assert ds.v[:, inner].min() > 0.0


def test_difference_system_input_validation():
    st_a, st_b = _two_member_family(res=32)
    with pytest.raises(ValueError):
        difference_system(st_b, st_a)  # needs |t_a| > |t_b|
    other = make_spec("hitchin_component", 3, (HolomorphicDatum.constant(2.0),), t=2.0)
    with pytest.raises(ValueError, match="share all holomorphic data"):
        difference_system(make_system(other, st_a.grid).initial_state(), st_b)
    with pytest.raises(ValueError, match="different grids"):
        difference_system(make_system(st_a.spec, radial(24)).initial_state(), st_b)
    torus = build_grid(GridSpec("torus", 8))
    with pytest.raises(ValueError, match="hyperbolic background"):
        difference_system(*(make_system(st.spec, torus).initial_state() for st in (st_a, st_b)))


UNIT_CYCLIC = make_spec("general_cyclic", 3, (one, one, one), t=1.0)


def _with_fields(spec, g, fields):
    return make_system(spec, g, coefficient_fields=[np.full(g.n_nodes, c) for c in fields])


@pytest.mark.parametrize("fields", [(3.0, 1.0, 1.0), (1.0, 1.0, 3.0)], ids=["rung", "corner"])
def test_difference_system_refuses_coefficient_fields_that_are_not_the_data(fields):
    # on radial 64 the solved t = 2 states with these fields, against the
    # plain t = 1 state, once gave difference systems with defects 3.51
    # (rung) and 1.07 (corner) that check_conditions certified
    g = radial(64)
    st_b = make_system(UNIT_CYCLIC, g).initial_state()
    st_a = _with_fields(scale_last_arrow(UNIT_CYCLIC, 2.0), g, fields).initial_state()
    with pytest.raises(ValueError, match="share all holomorphic data"):
        difference_system(st_a, st_b)


def test_difference_system_takes_coefficient_fields_equal_to_the_data():
    g = radial(64)
    cfg = SolverConfig(tol_residual=1e-11)
    rep_b = solve(make_system(UNIT_CYCLIC, g), config=cfg)
    rep_a = solve(_with_fields(scale_last_arrow(UNIT_CYCLIC, 2.0), g, (1.0, 1.0, 1.0)),
                  config=cfg)
    assert rep_a.converged and rep_b.converged
    ds = difference_system(rep_a.state, rep_b.state)
    assert ds.residual_inf < 1e-11 and check_conditions(ds.system)["passed"]
    # a subnormal |t_b|^2 rounds the b-corner coarsely, within the stated slack
    for t_a, t_b in ((3e-160, 1e-160), (1e-155, 1e-160)):
        sys_a, sys_b = (_with_fields(scale_last_arrow(UNIT_CYCLIC, t), g, (1.0, 1.0, 1.7))
                        for t in (t_a, t_b))
        assert 0.0 < sys_b.spec.scale_sq < np.finfo(float).tiny
        difference_system(sys_a.initial_state(), sys_b.initial_state())


@pytest.mark.parametrize("t_low", [1e-160, 1e-155])
def test_a_subnormal_corner_scale_gives_a_finite_difference_system(t_low):
    # |t_low|^2 is subnormal and the corner log-ratio v passes 709.78, where
    # e^v overflows: (e^v - 1)/v once wrote an infinite defect and failed
    g = radial(32)
    spec = make_spec("general_cyclic", 3, (one, HolomorphicDatum.monomial(1.0, 1), one), t=1.0)
    out = analysis.verify_monotonicity(spec, g, [t_low, 1.0])
    (pair,) = out["pairs"]
    assert out["passed"] and pair["difference_conditions"]["passed"]
    assert pair["difference_mode"] == "cyclic" and pair["difference_defect"] < 1e-9


def test_full_coupling_refuses_a_non_square_pattern():
    with pytest.raises(ValueError, match="pattern must be square"):
        fully_coupled(np.ones((2, 3), dtype=bool))


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
        b[system.excluded[i]] = POLE_VALUE
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

"""Assembly-level tests: spec validation, reference states, Jacobians."""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import hitchinlab.analysis as analysis_module
import hitchinlab.maxprin as maxprin_module
import hitchinlab.system as system_module
from hitchinlab.geometry import GridSpec, HolomorphicDatum, build_grid
from hitchinlab.solver import (
    _BACKWARD_ERROR,
    SolverConfig,
    _factor,
    _NewtonLU,
    _newton_step,
    solve,
)
from hitchinlab.system import (
    BlowupError,
    CyclicSpec,
    LogMetricState,
    fuchsian_log_metrics,
    make_spec,
    make_system,
    stability_check,
)

from gauge import gauge_image, gauge_log_offsets, scale_last_arrow

one = HolomorphicDatum.constant(1.0)
zero = HolomorphicDatum.zero()


def radial(n=64, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def boundary_coupling(sys):
    """Oracle: lap_FB (x) E^T E, how the free rows see the boundary unknowns."""
    free = sys.free
    return sparse.kron(sys.grid.lap[free][:, ~free], sys.gram, format="csr")


# -- spec validation -------------------------------------------------------


def test_spec_rejects_bad_variants_and_arities():
    with pytest.raises(ValueError):
        make_spec("so8_triality", 4, (one,))
    with pytest.raises(ValueError):
        make_spec("general_cyclic", 3, (one, one))  # needs 3 entries
    with pytest.raises(ValueError):
        make_spec("hitchin_component", 4, (one, one))
    with pytest.raises(ValueError):
        make_spec("general_cyclic", 1, (one,))


def test_spec_rejects_vanishing_interior_arrows():
    # the corner arrow may vanish (uniformising locus), interior ones may not
    make_spec("general_cyclic", 3, (one, one, zero))
    with pytest.raises(ValueError):
        make_spec("general_cyclic", 3, (one, zero, one))
    with pytest.raises(ValueError):
        make_spec("slnr_even", 4, (one, one, zero))  # mu = 0
    make_spec("slnr_even", 4, (zero, one, one))  # nu = 0 is fine


def test_spec_parity_and_rank_rules():
    with pytest.raises(ValueError):
        make_spec("slnr_even", 5, (one, one, one))
    with pytest.raises(ValueError):
        make_spec("slnr_odd", 4, (one, one, one))
    with pytest.raises(ValueError):
        make_spec("sp4_gothen", 6, (one, one))
    with pytest.raises(ValueError):
        make_spec("sp4_gothen", 4, (zero, one))  # mu = 0
    make_spec("sp4_gothen", 4, (one, zero))  # nu = 0 is fine


def test_spec_degrees_must_balance():
    with pytest.raises(ValueError):
        make_spec("hitchin_component", 3, (one,), degrees=(1, 0, 0))
    s = make_spec("hitchin_component", 3, (one,), degrees=(2, 0, -2))
    assert s.degrees == (2, 0, -2)


def test_spec_degrees_must_be_integers():
    with pytest.raises(ValueError, match=r"deg\(L_1\) must be an integer, got 2.5"):
        make_spec("hitchin_component", 3, (one,), degrees=(2.5, -0.5, -2.0))
    for bad in (float("nan"), float("inf"), "2", None, True):
        with pytest.raises(ValueError, match=r"deg\(L_2\) must be an integer"):
            make_spec("hitchin_component", 3, (one,), degrees=(2, bad, -2))
    s = make_spec("hitchin_component", 3, (one,), degrees=(2.0, np.int64(0), -2.0))
    assert s.degrees == (2, 0, -2) and all(type(d) is int for d in s.degrees)


def test_spec_degrees_are_exact_integers_beyond_the_double_range():
    big = 10**400  # float(big) overflows
    s = make_spec("hitchin_component", 3, (one,), degrees=(big, 0, -big))
    assert s.degrees == (big, 0, -big)
    with pytest.raises(ValueError, match="sum to zero"):
        make_spec("hitchin_component", 3, (one,), degrees=(big, 0, 1 - big))


def test_unknown_counts_by_variant():
    assert make_spec("general_cyclic", 5, (one,) * 5).n_unknowns == 4
    assert make_spec("hitchin_component", 5, (one,)).n_unknowns == 2
    assert make_spec("slnr_odd", 7, (one,) * 4).n_unknowns == 3
    assert make_spec("sp4_gothen", 4, (one, one)).n_unknowns == 2


def test_cyclic_data_unfolding():
    nu = HolomorphicDatum.monomial(2.0, 1)
    mu = HolomorphicDatum.constant(3.0)
    g1 = HolomorphicDatum.constant(5.0)
    even = make_spec("slnr_even", 6, (nu, g1, g1, mu))
    vals = [d.value(0.7 + 0j) for d in even.cyclic_data()]
    np.testing.assert_allclose(vals, [5, 5, 3, 5, 5, nu.value(0.7)])
    odd = make_spec("slnr_odd", 5, (nu, g1, mu))
    vals = [d.value(0.7 + 0j) for d in odd.cyclic_data()]
    np.testing.assert_allclose(vals, [5, 3, 3, 5, nu.value(0.7)])


def test_partner_differential_accumulates_all_arrows():
    nu = HolomorphicDatum.monomial(1.0, 2)
    mu = HolomorphicDatum.constant(2.0)
    g1 = HolomorphicDatum.constant(3.0)
    s = make_spec("slnr_even", 6, (nu, g1, g1, mu), t=2.0)
    q = s.partner_differential()
    # q6 = t * nu * mu * g1^2 * g2^2 at a sample point
    z = 0.5 + 0.25j
    expect = 2.0 * nu.value(z) * 2.0 * 3.0**2 * 3.0**2
    np.testing.assert_allclose(q.value(z), expect, rtol=1e-14)
    with pytest.raises(ValueError):
        make_spec("general_cyclic", 3, (one, one, one)).partner_differential()


_RANKS = {"general_cyclic": [2, 3, 4, 5, 6], "hitchin_component": [2, 3, 4, 5, 6],
          "slnr_even": [2, 4, 6], "slnr_odd": [3, 5, 7], "sp4_gothen": [4]}
_DATA_LENGTH = {"general_cyclic": lambda n: n, "hitchin_component": lambda n: 1,
                "slnr_even": lambda n: n // 2 + 1, "slnr_odd": lambda n: n // 2 + 1,
                "sp4_gothen": lambda n: 2}


@st.composite
def _unfolding_case(draw):
    """A variant, a valid rank, one-term data (some possibly zero) and t."""
    variant = draw(st.sampled_from(sorted(_RANKS)))
    n = draw(st.sampled_from(_RANKS[variant]))
    data = []
    for _ in range(_DATA_LENGTH[variant](n)):
        c = draw(st.sampled_from([0.0, 1.0, 0.5 - 2j, -1.5 + 0.25j]))
        data.append(HolomorphicDatum.monomial(c, draw(st.integers(0, 3))))
    t = complex(draw(st.sampled_from([0.0, 1.0, 2.5, -0.5 + 1j])))
    return variant, n, tuple(data), t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_unfolding_case())
def test_unfolding_gives_n_arrows_whose_product_is_the_partner(case):
    variant, n, data, t = case
    # stand a distinct nonzero marker in for each zero datum: the spec is
    # refused exactly when a marker unfolds to an arrow before the corner
    markers = {i: HolomorphicDatum.constant(100.0 + i) for i, d in enumerate(data)
               if d.is_zero()}
    marked = tuple(markers.get(i, d) for i, d in enumerate(data))
    arrows = make_spec(variant, n, marked, t=t).cyclic_data()
    if any(a in markers.values() for a in arrows[:-1]):
        with pytest.raises(ValueError, match="must not vanish identically"):
            make_spec(variant, n, data, t=t)
        return
    spec = make_spec(variant, n, data, t=t)
    arrows = spec.cyclic_data()
    assert len(arrows) == n
    if not spec.is_symmetric:
        return
    assert arrows[:-1] == arrows[-2::-1]
    z = np.array([0.0, 0.3 + 0.2j, -0.55 + 0.1j, 0.7j])
    np.testing.assert_allclose(spec.partner_differential().value(z),
                               t * np.prod([a.value(z) for a in arrows], axis=0),
                               rtol=1e-13, atol=0.0)


# -- reference state and layout expansion ----------------------------------


def test_fuchsian_state_solves_system_to_truncation_error():
    g = radial(128)
    for n in (2, 3, 4, 5):
        spec = make_spec("hitchin_component", n, (zero,))
        sys = make_system(spec, g)
        worst = np.abs(sys.residual_array(sys.initial_state().u)).max()
        assert worst < 500 * g.spacing**2, (n, worst)


def test_fuchsian_state_general_formulation_matches():
    # same bundle written with all n-1 independent unknowns
    g = radial(96)
    spec = make_spec("general_cyclic", 4, (one, one, one, zero))
    sys = make_system(spec, g)
    worst = np.abs(sys.residual_array(sys.initial_state().u)).max()
    assert worst < 500 * g.spacing**2


@pytest.mark.parametrize("n_unknowns", [0, 1, 4])
def test_fuchsian_log_metrics_refuse_another_unknown_count(n_unknowns):
    # rank 4 has 2 unknowns (symmetric) or 3 (eliminated cyclic), no other count
    with pytest.raises(ValueError, match="n_unknowns must be floor"):
        fuchsian_log_metrics(4, n_unknowns, radial(16))


def test_embedding_and_log_ratio_layouts():
    g = radial(16)
    N = g.n_nodes
    rng = np.random.default_rng(7)

    gen = make_spec("general_cyclic", 4, (one, one, one, one))
    u = rng.normal(size=(N, 3))
    full = u @ gen.embedding.T
    assert full.shape == (N, 4)
    np.testing.assert_allclose(full.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(full[:, :3], u)
    np.testing.assert_allclose(make_system(gen, g).log_ratios(u), np.roll(full, -1, axis=1) - full,
                               atol=1e-14)

    ev = make_spec("slnr_even", 4, (one, one, one))
    u = rng.normal(size=(N, 2))
    full = u @ ev.embedding.T
    np.testing.assert_allclose(full, np.column_stack([u, -u[:, ::-1]]))
    np.testing.assert_array_equal(
        make_system(ev, g).log_ratios(u), np.column_stack([u[:, 1] - u[:, 0], -2 * u[:, 1],
                                            u[:, 1] - u[:, 0], 2 * u[:, 0]]))

    od = make_spec("slnr_odd", 5, (one, one, one))
    u = rng.normal(size=(N, 2))
    full = u @ od.embedding.T
    assert full.shape == (N, 5)
    np.testing.assert_allclose(full[:, 2], 0.0)
    np.testing.assert_allclose(full[:, 3:], -u[:, ::-1])
    assert np.array_equal(make_system(od, g).log_ratios(u),
                          u @ (np.roll(od.embedding, -1, axis=0) - od.embedding).T)


def test_symmetric_and_general_formulations_agree_pointwise():
    # rank 3 with unit rungs: embedding the reduced state as (u, 0) must
    # reproduce the same first residual row and a vanishing second row
    g = radial(48)
    hit = make_spec("hitchin_component", 3, (one,), t=1.5)
    gen = make_spec("general_cyclic", 3, (one, one, one), t=1.5)
    sys_h = make_system(hit, g)
    sys_g = make_system(gen, g)

    u = sys_h.initial_state().u
    bump = np.exp(-np.abs(g.z()) ** 2 / 0.1) * 0.3
    u[:, 0] += bump * (~g.boundary_mask)
    r_h = sys_h.residual_array(u)
    r_g = sys_g.residual_array(np.column_stack([u[:, 0], np.zeros(g.n_nodes)]))
    np.testing.assert_allclose(r_g[:, 0], r_h[:, 0], atol=1e-12)
    np.testing.assert_allclose(r_g[:, 1], 0.0, atol=1e-12)


def _symmetric_embedding(n: int) -> np.ndarray:
    """E = [I_m; -J_m] (even n) or [I_m; 0; -J_m] (odd n): w = u E^T."""
    m = n // 2
    E = np.zeros((n, m))
    E[:m] = np.eye(m)
    E[n - m:] = -np.eye(m)[::-1]
    return E


def _datum(draw, allow_zero: bool, radial: bool) -> HolomorphicDatum:
    mag = draw(st.floats(0.0 if allow_zero else 0.3, 1.5))
    phase = draw(st.floats(0.0, 2 * np.pi))
    c = mag * np.exp(1j * phase)
    kinds = ["constant", "monomial"] if radial else ["constant", "monomial", "polynomial"]
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return HolomorphicDatum.constant(c)
    if kind == "monomial":
        return HolomorphicDatum.monomial(c, draw(st.integers(1, 3)))
    return HolomorphicDatum.polynomial([c, draw(st.floats(-1.0, 1.0)), 0.5])


@st.composite
def _symmetric_case(draw):
    variant = draw(st.sampled_from(["hitchin_component", "slnr_even", "slnr_odd", "sp4_gothen"]))
    ranks = {"hitchin_component": [2, 3, 4, 5, 6], "slnr_even": [2, 4, 6],
             "slnr_odd": [3, 5, 7], "sp4_gothen": [4]}[variant]
    n = draw(st.sampled_from(ranks))
    radial_grid = draw(st.booleans())
    corner = _datum(draw, allow_zero=True, radial=radial_grid)
    if variant == "hitchin_component":
        data = (corner,)
    elif variant == "sp4_gothen":
        data = (_datum(draw, False, radial_grid), corner)
    else:
        data = (corner,) + tuple(_datum(draw, False, radial_grid) for _ in range(n // 2))
    t = draw(st.floats(0.0, 2.0))
    grid_spec = GridSpec("radial_disc", 16, 0.8) if radial_grid else GridSpec("disc2d", 8, 0.8)
    return make_spec(variant, n, data, t=t), grid_spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_symmetric_case())
def test_symmetric_system_is_general_system_on_embedding(case):
    # each symmetric variant is the general cyclic system of its unfolded
    # data restricted to w = u E^T: same residual rows, Jacobian times E
    spec, grid_spec, seed = case
    g = build_grid(grid_spec)
    n, m, N = spec.n, spec.n_unknowns, g.n_nodes
    E = _symmetric_embedding(n)
    sym = make_system(spec, g)
    rng = np.random.default_rng(seed)
    u = sym.initial_state().u + 0.3 * rng.normal(size=(N, m))

    gen_spec = make_spec("general_cyclic", n, spec.cyclic_data(), t=spec.t)
    gen = make_system(gen_spec, g)
    # the uniformising state is antisymmetric, so both read the same Dirichlet data
    assert np.array_equal(gen.boundary_values, (sym.boundary_values @ E.T)[:, :n - 1])
    w = (u @ E.T)[:, :n - 1]

    r_s = sym.residual_array(u)
    r_g = gen.residual_array(w)[:, :m]
    np.testing.assert_allclose(r_s, r_g, rtol=1e-13, atol=1e-13 * np.abs(r_s).max())

    # both Newton matrices are Hessians of one energy, so u -> w lifts them
    free = g.interior_mask
    lift_f = sparse.kron(sparse.identity(free.sum()), E[:n - 1], format="csr")
    lift_b = sparse.kron(sparse.identity((~free).sum()), E[:n - 1], format="csr")
    k_s = sym.jacobian_matrix(u).toarray()
    k_g = (lift_f.T @ gen.jacobian_matrix(w) @ lift_f).toarray()
    np.testing.assert_allclose(k_s, k_g, rtol=1e-13, atol=1e-13 * np.abs(k_s).max())
    c_s = boundary_coupling(sym).toarray()
    c_g = (lift_f.T @ boundary_coupling(gen) @ lift_b).toarray()
    np.testing.assert_allclose(c_s, c_g, rtol=1e-13, atol=1e-13 * np.abs(k_s).max())


# -- the arrow kernel against the expand-and-roll formulas -----------------

EPS = np.finfo(float).eps
KERNEL_GRID = radial(8)
KERNEL_CASES = [(v, n) for v in system_module.VARIANTS for n in range(2, 7)
                if {"slnr_even": n % 2 == 0, "slnr_odd": n % 2 == 1 and n > 2,
                    "sp4_gothen": n == 4}.get(v, True)]


def _expand_and_roll(spec, u):
    """Log consecutive ratios as w = u E^T, rolled and differenced."""
    w = u @ spec.embedding.T
    return np.roll(w, -1, axis=1) - w


def _assert_same_up_to_cancellation(spec, new, old, scale):
    """Bitwise equal on the symmetric variants, whose log-ratios are each
    one rounding of at most two terms; on general_cyclic within 4 ulp of
    ``scale``, the size of the sums that the log-ratios cancel."""
    if spec.is_symmetric:
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
    else:
        assert np.all(np.abs(new - old) <= 4 * EPS * scale)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(KERNEL_CASES), data=st.data())
def test_arrow_kernel_matches_expand_and_roll(case, data):
    variant, n = case
    g, N = KERNEL_GRID, KERNEL_GRID.n_nodes
    size = {"general_cyclic": n, "hitchin_component": 1, "sp4_gothen": 2}.get(variant, n // 2 + 1)
    t_a = data.draw(st.floats(0.1, 10.0))
    t_b = data.draw(st.sampled_from([0.0, 0.5 * t_a]))
    spec = make_spec(variant, n, (one,) * size, t=t_a)
    m = spec.n_unknowns
    floats = st.floats(-30.0, 30.0, allow_subnormal=False)
    u = data.draw(hnp.arrays(np.float64, (N, m), elements=floats))
    u_b = data.draw(hnp.arrays(np.float64, (N, m), elements=floats))
    G = data.draw(hnp.arrays(np.float64, (N, n), elements=st.floats(0.0, 1e3)))
    abs_d = np.abs(np.roll(spec.embedding, -1, axis=0) - spec.embedding)
    S, S_b = np.abs(u) @ abs_d.T, np.abs(u_b) @ abs_d.T    # the sums each log-ratio cancels

    sys_ = system_module.HitchinSystem(spec, g, G)
    lr = _expand_and_roll(spec, u)
    _assert_same_up_to_cancellation(spec, sys_.log_ratios(u), lr, S)

    a = G * np.exp(lr)
    scale = a * (1 + S)
    _assert_same_up_to_cancellation(spec, sys_.arrow_terms(u), a, scale)
    _assert_same_up_to_cancellation(spec, sys_._coupling_residual(u),
                                    (a - np.roll(a, 1, axis=1))[:, :m],
                                    (scale + np.roll(scale, 1, axis=1))[:, :m])

    # |t|^2 enters a log ratio in one place, as log |t|^2 added to the corner
    lr[:, -1] += np.log(spec.scale_sq)
    _assert_same_up_to_cancellation(spec, sys_.scaled_log_ratios(u), lr, S)
    ratios = np.exp(lr)
    state = LogMetricState(sys_, u)
    _assert_same_up_to_cancellation(spec, analysis_module.metric_ratio_fields(state),
                                    ratios, ratios * (1 + S))

    # the b-side assembles the same fields at t_b: its corner is G's times |t_b/t_a|^2
    spec_b = make_spec(variant, n, (one,) * size, t=t_b)
    G_b = G.copy()
    G_b[:, -1] *= spec_b.scale_sq / spec.scale_sq
    state_b = LogMetricState(system_module.HitchinSystem(spec_b, g, G_b), u_b)
    ds = maxprin_module.difference_system(state, state_b)
    lr_b, n_v = _expand_and_roll(spec_b, u_b), n - (t_b == 0)
    if t_b > 0:
        lr_b[:, -1] += np.log(spec_b.scale_sq)
    _assert_same_up_to_cancellation(spec, ds.v, (lr - lr_b)[:, :n_v].T,
                                    (S + S_b + np.abs(lr) + np.abs(lr_b))[:, :n_v].T)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [0.0, 1e-170])
def test_a_vanishing_scale_puts_minus_infinity_in_the_scaled_corner(t):
    sys_ = make_system(make_spec("general_cyclic", 3, (one,) * 3, t=t), KERNEL_GRID)
    u = np.random.default_rng(0).standard_normal((KERNEL_GRID.n_nodes, 2))
    scaled = sys_.scaled_log_ratios(u)
    assert np.array_equal(scaled[:, :-1], sys_.log_ratios(u)[:, :-1])
    assert (scaled[:, -1] == -np.inf).all()


# -- Jacobian correctness --------------------------------------------------


@pytest.mark.parametrize(
    "grid_spec,spec",
    [
        (GridSpec("torus", (8, 8)), make_spec("general_cyclic", 3, (one, one, one), t=0.7)),
        (GridSpec("radial_disc", 20, 0.8), make_spec("slnr_even", 4, (one, one, one), t=1.3)),
        (GridSpec("disc2d", 9, 0.8), make_spec("hitchin_component", 3, (HolomorphicDatum.monomial(1.0, 1),))),
        (GridSpec("disc2d", 9, 0.8),
         make_spec("slnr_odd", 5, (HolomorphicDatum.monomial(0.8, 1), HolomorphicDatum.constant(1.3), one), t=1.1)),
        (GridSpec("disc2d", 9, 0.8), make_spec("sp4_gothen", 4, (HolomorphicDatum.monomial(1.0, 1), one), t=0.9)),
        (GridSpec("disc2d", 9, 0.8), make_spec("hitchin_component", 2, (HolomorphicDatum.constant(0.7),))),
        (GridSpec("disc2d", 9, 0.8),
         make_spec("general_cyclic", 4, (one, HolomorphicDatum.constant(1.5), one,
                                         HolomorphicDatum.monomial(1.0, 2)), t=1.2)),
    ],
)
def test_jacobian_matches_central_differences(grid_spec, spec):
    # K and the boundary coupling are the derivatives of the free rows of
    # the projected residual R E^T E in the free and the boundary unknowns
    g = build_grid(grid_spec)
    boundary = "periodic" if grid_spec.kind == "torus" else "fuchsian"
    sys = make_system(spec, g, boundary=boundary)
    rng = np.random.default_rng(11)
    u = sys.initial_state().u + 0.1 * rng.normal(size=(g.n_nodes, sys.m))
    free = g.interior_mask

    def projected(flat):
        return (sys.residual_array(flat.reshape(u.shape)) @ sys.gram)[free].ravel()

    eps = 1e-6
    flat = u.ravel()
    fd = np.zeros((free.sum() * sys.m, flat.size))
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += eps
        dn[j] -= eps
        fd[:, j] = (projected(up) - projected(dn)) / (2 * eps)
    unknowns = np.arange(flat.size).reshape(u.shape)
    K = sys.jacobian_matrix(u).toarray()
    C = boundary_coupling(sys).toarray()
    scale = max(1.0, np.abs(K).max())
    assert np.abs(K - fd[:, unknowns[free].ravel()]).max() < 1e-6 * scale
    assert np.abs(C - fd[:, unknowns[~free].ravel()]).max(initial=0.0) < 1e-6 * scale


_FIVE_VARIANTS = [
    make_spec("general_cyclic", 4, (one, HolomorphicDatum.constant(1.5), one,
                                    HolomorphicDatum.constant(0.6)), t=1.2),
    make_spec("hitchin_component", 5, (HolomorphicDatum.constant(0.8),)),
    make_spec("slnr_even", 4, (HolomorphicDatum.constant(0.7), HolomorphicDatum.constant(1.3), one)),
    make_spec("slnr_odd", 5, (HolomorphicDatum.constant(0.8), HolomorphicDatum.constant(1.3), one),
              t=1.1),
    make_spec("sp4_gothen", 4, (HolomorphicDatum.constant(1.4), one), t=0.9),
]


@pytest.mark.parametrize("grid_spec", [GridSpec("disc2d", 11, 0.8), GridSpec("torus", (8, 10))])
@pytest.mark.parametrize("spec", _FIVE_VARIANTS, ids=lambda s: s.variant)
def test_newton_matrix_is_exactly_symmetric(grid_spec, spec):
    g = build_grid(grid_spec)
    boundary = "periodic" if grid_spec.kind == "torus" else "fuchsian"
    sys = make_system(spec, g, boundary=boundary)
    u = sys.initial_state().u + 0.3 * np.random.default_rng(5).normal(size=(g.n_nodes, sys.m))
    K = sys.jacobian_matrix(u)
    assert (K != K.T).nnz == 0


def _full_jacobian_reference(sys, u: np.ndarray) -> sparse.csr_matrix:
    """The full N*m Jacobian of the residual as the solver used to assemble
    it: kron(lap, I_m) plus the node blocks, identity rows at the boundary."""
    g, m, E = sys.grid, sys.m, sys.spec.embedding
    N = g.n_nodes
    d = np.roll(E, -1, axis=0) - E
    w = u @ E.T
    D_full = (sys.coeff_sq * np.exp(np.roll(w, -1, axis=1) - w))[:, :, None] * d
    D = (D_full - np.roll(D_full, 1, axis=1))[:, :m]
    D[g.boundary_mask, :, :] = 0.0
    blocks = sparse.bsr_matrix((D, np.arange(N), np.arange(N + 1)), shape=(N * m, N * m))
    J = sparse.kron(g.lap, sparse.identity(m), format="csr") + blocks.tocsr()
    return (J + sparse.diags(np.repeat(g.boundary_mask, m).astype(float))).tocsr()


_STEP_GRIDS = {"radial_disc": GridSpec("radial_disc", 16, 0.8),
               "disc2d": GridSpec("disc2d", 9, 0.8),
               "torus": GridSpec("torus", (8, 9))}


@st.composite
def _step_case(draw, kind):
    variant = draw(st.sampled_from(["general_cyclic", "hitchin_component", "slnr_even",
                                    "slnr_odd", "sp4_gothen"]))
    ranks = {"general_cyclic": [2, 3, 4, 5], "hitchin_component": [2, 3, 4, 5, 6],
             "slnr_even": [2, 4, 6], "slnr_odd": [3, 5, 7], "sp4_gothen": [4]}[variant]
    n = draw(st.sampled_from(ranks))

    def datum(allow_zero):
        if kind != "torus":
            return _datum(draw, allow_zero, kind == "radial_disc")
        return HolomorphicDatum.constant(draw(st.floats(0.0 if allow_zero else 0.3, 1.5)))

    corner = datum(True)
    if variant == "general_cyclic":
        data = tuple(datum(False) for _ in range(n - 1)) + (corner,)
    elif variant == "hitchin_component":
        data = (corner,)
    elif variant == "sp4_gothen":
        data = (datum(False), corner)
    else:
        data = (corner,) + tuple(datum(False) for _ in range(n // 2))
    t = draw(st.floats(0.0, 2.0))
    return make_spec(variant, n, data, t=t), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("kind", sorted(_STEP_GRIDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_free_node_step_matches_full_jacobian_solve(kind, data):
    # the free-node solve is the full Newton system with the Dirichlet rows
    # eliminated and the free rows multiplied by E^T E: the same step
    spec, seed = data.draw(_step_case(kind))
    g = build_grid(_STEP_GRIDS[kind])
    boundary = "periodic" if kind == "torus" else "fuchsian"
    sys = make_system(spec, g, boundary=boundary)
    rng = np.random.default_rng(seed)
    u = sys.initial_state().u + 0.3 * rng.normal(size=(g.n_nodes, sys.m)) * sys.free[:, None]
    r = sys.residual_array(u)
    step = _newton_step(sys, u, r, _NewtonLU())
    ref = spla.splu(_full_jacobian_reference(sys, u).tocsc()).solve(-r.ravel()).reshape(u.shape)
    np.testing.assert_allclose(step, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


_REUSE_GRIDS = {"disc2d": GridSpec("disc2d", 17, 0.8), "torus": GridSpec("torus", (8, 9))}


@pytest.mark.parametrize("kind", sorted(_REUSE_GRIDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_step_through_a_kept_factorisation_is_the_fresh_step(kind, data):
    # the step at u1 solved through the factorisation of K(u0) is refined to
    # the backward error of a fresh solve, or the factorisation is replaced
    spec, seed = data.draw(_step_case(kind))
    jump = data.draw(st.sampled_from([1e-6, 1e-3, 0.1, 1.0]))
    g = build_grid(_REUSE_GRIDS[kind])
    sys = make_system(spec, g, boundary="periodic" if kind == "torus" else "fuchsian")
    rng = np.random.default_rng(seed)
    u0 = sys.initial_state().u + 0.3 * rng.normal(size=(g.n_nodes, sys.m)) * sys.free[:, None]
    u1 = u0 + jump * rng.normal(size=u0.shape) * sys.free[:, None]
    lu = _NewtonLU()
    _newton_step(sys, u0, sys.residual_array(u0), lu)
    assert lu.factorizations == 1 and lu.lu is not None  # these 2-D matrices fill 2x or more

    r1 = sys.residual_array(u1)
    step = _newton_step(sys, u1, r1, lu)
    fresh = _newton_step(sys, u1, r1, _NewtonLU())
    if lu.factorizations == 2:
        np.testing.assert_array_equal(step, fresh)
        return
    assert lu.factorizations == 1
    np.testing.assert_allclose(step, fresh, rtol=1e-10, atol=1e-10 * np.abs(fresh).max())
    K, b = _free_system(sys, u1, r1)
    assert _backward_error(K, step[sys.free].ravel(), b) <= 4 * np.finfo(float).eps


def _free_system(sys, u, r):
    """K and the right-hand side of the free-node Newton solve at ``u``."""
    return sys.jacobian_matrix(u), (-r[sys.free] @ sys.gram).ravel()


def _backward_error(K, x, b) -> float:
    return np.abs(b - K @ x).max() / (spla.norm(K, np.inf) * np.abs(x).max() + np.abs(b).max())


class _RecordingLU(_NewtonLU):
    """Keeps the right-hand side of the last solve and returns a zero step."""

    def solve(self, K, b, band=None, forcing=0.0, order=None):
        self.rhs = b.copy()
        return np.zeros_like(b)


@pytest.mark.parametrize("grid_spec", [GridSpec("radial_disc", 64, 0.8), GridSpec("disc2d", 17, 0.8)],
                         ids=["radial64", "disc2d17"])
@pytest.mark.parametrize("spec", [
    make_spec("hitchin_component", 3, (HolomorphicDatum.monomial(1.0, 1),)),
    make_spec("general_cyclic", 3, (one, HolomorphicDatum.constant(1.5),
                                    HolomorphicDatum.monomial(0.6, 1)), t=1.2),
], ids=["symmetric", "general_cyclic"])
def test_newton_step_is_zero_on_the_dirichlet_rows(grid_spec, spec):
    # for any state, even one whose u_B is off the boundary values, the
    # right-hand side is -(r E^T E)_F and the step is exactly 0 at the
    # boundary; from the system's own seed r_B is 0 as well
    g = build_grid(grid_spec)
    sys = make_system(spec, g)
    rng = np.random.default_rng(7)
    u = sys.initial_state().u + 0.3 * rng.normal(size=(g.n_nodes, sys.m))
    r = sys.residual_array(u)
    assert np.all(r[~sys.free] != 0)
    lu = _RecordingLU()
    _newton_step(sys, u, r, lu)
    np.testing.assert_array_equal(lu.rhs, (-r[sys.free] @ sys.gram).ravel())
    step = _newton_step(sys, u, r, _NewtonLU())
    assert not step[~sys.free].any() and step[sys.free].all()

    u0 = sys.initial_state().u
    r0 = sys.residual_array(u0)
    _newton_step(sys, u0, r0, lu)
    assert not r0[~sys.free].any()
    np.testing.assert_array_equal(lu.rhs, _free_system(sys, u0, r0)[1])


@pytest.mark.parametrize("kind", sorted(_REUSE_GRIDS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fresh_2d_step_factored_in_single_precision_is_the_double_solve(kind, data):
    # a 2-D K is factored in float32 and the step refined in float64 to the
    # backward error of a direct float64 solve, whose solution it matches
    spec, seed = data.draw(_step_case(kind))
    g = build_grid(_REUSE_GRIDS[kind])
    sys = make_system(spec, g, boundary="periodic" if kind == "torus" else "fuchsian")
    rng = np.random.default_rng(seed)
    u = sys.initial_state().u + 0.3 * rng.normal(size=(g.n_nodes, sys.m)) * sys.free[:, None]
    r = sys.residual_array(u)
    lu = _NewtonLU()
    step = _newton_step(sys, u, r, lu)
    assert g.block_laplacian(sys.gram)[2] is None
    assert lu.factorizations == 1 and lu.dtype is np.float32
    K, b = _free_system(sys, u, r)
    x, ref = step[sys.free].ravel(), _factor(K).solve(b)
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
    assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_radial_step_is_a_banded_solve_to_the_backward_error_of_a_direct_one(data):
    # a radial K is solved as it stands by banded LU with partial pivoting,
    # fresh at every step, to a normwise backward error of at most 4 eps;
    # general_cyclic n = 3 couples through a full Gram matrix, bandwidth 3
    variant, n, bw = data.draw(st.sampled_from([("hitchin_component", 3, 1),
                                                ("hitchin_component", 5, 2),
                                                ("general_cyclic", 3, 3)]))
    others = n - 1 if variant == "general_cyclic" else 0
    coefficients = tuple(_datum(data.draw, False, True) for _ in range(others))
    spec = make_spec(variant, n, coefficients + (_datum(data.draw, True, True),),
                     t=data.draw(st.floats(0.0, 2.0)))
    g = build_grid(GridSpec("radial_disc", data.draw(st.integers(8, 2048)), 0.8))
    sys = make_system(spec, g)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = sys.initial_state().u + 0.3 * rng.normal(size=(g.n_nodes, sys.m)) * sys.free[:, None]
    r = sys.residual_array(u)
    lu = _NewtonLU()
    step = _newton_step(sys, u, r, lu)
    assert g.block_laplacian(sys.gram)[2][0] == bw
    assert lu.factorizations == 1 and lu.lu is None
    K, b = _free_system(sys, u, r)
    assert _backward_error(K, step[sys.free].ravel(), b) <= _BACKWARD_ERROR


@pytest.mark.parametrize("kind", sorted(_STEP_GRIDS))
def test_only_the_radial_newton_matrix_is_block_tridiagonal(kind):
    g = build_grid(_STEP_GRIDS[kind])
    sys = make_system(make_spec("general_cyclic", 3, (one, one, one)), g,
                      boundary="periodic" if kind == "torus" else "fuchsian")
    K = sys.jacobian_matrix(sys.initial_state().u)
    rows, cols = K.nonzero()
    banded = np.abs(rows - cols).max() < 2 * sys.m
    assert (g.block_laplacian(sys.gram)[2] is not None) == banded == (kind == "radial_disc")


def test_blowup_raised_on_huge_states():
    g = radial(16)
    spec = make_spec("hitchin_component", 3, (one,))
    sys = make_system(spec, g)
    huge = LogMetricState(sys, np.full((g.n_nodes, 1), 1e4))
    assert not np.all(np.isfinite(sys.residual_array(huge.u)))
    rep = solve(sys, initial=huge)
    assert not rep.converged
    assert "non-finite residual at the initial state" in rep.message
    with pytest.raises(BlowupError):
        sys.jacobian_matrix(huge.u)


# -- boundary handling -----------------------------------------------------


def test_boundary_argument_validation():
    # a grid takes only its own boundary, named or omitted
    g = radial(16)
    t = build_grid(GridSpec("torus", (8, 8)))
    spec = make_spec("hitchin_component", 4, (one,))
    cyclic = make_spec("general_cyclic", 3, (one, one, one))
    for bad in ("periodic", 5, [0.0, 0.0], np.zeros((g.n_nodes, 2))):
        with pytest.raises(ValueError, match="^radial_disc grids take only their own "
                                             "boundary='fuchsian'$"):
            make_system(spec, g, bad)
    for bad in ("fuchsian", [0.5, 0.5], 0.0):
        with pytest.raises(ValueError, match="^torus grids take only their own "
                                             "boundary='periodic'$"):
            make_system(cyclic, t, bad)


@pytest.mark.parametrize("kind", sorted(_STEP_GRIDS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_omitted_boundary_is_the_grids_own(kind, data):
    # every variant on every grid kind builds the same system with the
    # boundary omitted as with it named, and its seed satisfies the
    # Dirichlet rows exactly: the seed is the Dirichlet data
    spec, _ = data.draw(_step_case(kind))
    g = build_grid(_STEP_GRIDS[kind])
    default = make_system(spec, g)
    named = make_system(spec, g, "periodic" if kind == "torus" else "fuchsian")
    assert default.coeff_sq.tobytes() == named.coeff_sq.tobytes()
    seed = default.initial_state().u
    assert seed.tobytes() == named.initial_state().u.tobytes()
    assert default.boundary_values.tobytes() == named.boundary_values.tobytes()
    assert seed.tobytes() == default.boundary_values.tobytes()
    if kind == "torus":  # no Dirichlet rows: the seed is zeros
        assert not default.boundary_values.any()
    b = g.boundary_mask
    assert b.any() == (kind != "torus")
    assert not default.residual_array(seed)[b].any()


def test_seed_is_the_fuchsian_state_computed_once(monkeypatch):
    # the seed is the uniformising state, the one array that also serves as
    # the Dirichlet data
    g = build_grid(GridSpec("disc2d", 17, 0.8))
    spec = make_spec("hitchin_component", 4, (HolomorphicDatum.monomial(0.5, 1),))
    original = system_module.fuchsian_log_metrics
    fuchsian = original(4, 2, g)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(system_module, "fuchsian_log_metrics", counted)
    sys = make_system(spec, g)
    seed = sys.initial_state()
    assert solve(sys).converged
    assert sys.initial_state().u.tobytes() == seed.u.tobytes()
    assert len(calls) == 1
    assert seed.u.tobytes() == fuchsian.tobytes() == sys.boundary_values.tobytes()


def test_coefficient_field_overrides_are_validated():
    t = build_grid(GridSpec("torus", (8, 8)))
    spec = make_spec("general_cyclic", 3, (one, one, one))
    good = [np.ones(t.n_nodes)] * 3
    make_system(spec, t, boundary="periodic", coefficient_fields=good)
    with pytest.raises(ValueError):
        make_system(spec, t, boundary="periodic", coefficient_fields=good[:2])
    bad = [np.ones(t.n_nodes), -np.ones(t.n_nodes), np.ones(t.n_nodes)]
    with pytest.raises(ValueError):
        make_system(spec, t, boundary="periodic", coefficient_fields=bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e200, float("inf"), float("nan"), complex(1e160, 1e160)],
                         ids=["1e200", "inf", "nan", "complex"])
def test_scale_without_finite_square_is_refused(t):
    with pytest.raises(ValueError, match=r"has no finite \|t\|\^2"):
        make_spec("hitchin_component", 3, (one,), t=t)
    with pytest.raises(ValueError, match=r"has no finite \|t\|\^2"):
        scale_last_arrow(make_spec("hitchin_component", 3, (one,), t=1e100), 1e100)
    big = make_spec("hitchin_component", 3, (one,), t=1e150)
    assert big.scale_sq == 1e150 ** 2


@pytest.mark.filterwarnings("error")
def test_scale_folded_into_a_coefficient_must_stay_finite():
    g = radial(16)
    spec = make_spec("hitchin_component", 3, (HolomorphicDatum.constant(1e100),), t=1e100)
    with pytest.raises(ValueError, match=r"times \|t\|\^2 is not finite"):
        make_system(spec, g)
    t = build_grid(GridSpec("torus", (8, 8)))
    cyclic = make_spec("general_cyclic", 3, (one, one, one), t=1e10)
    fields = [np.ones(t.n_nodes)] * 2 + [np.full(t.n_nodes, 1e300)]
    with pytest.raises(ValueError, match=r"times \|t\|\^2 is not finite"):
        make_system(cyclic, t, boundary="periodic", coefficient_fields=fields)
    fields[2] = np.full(t.n_nodes, 1e200)
    G = make_system(cyclic, t, boundary="periodic", coefficient_fields=fields).coeff_sq
    assert np.all(G[:, 2] == 1e200 * 1e20)


def test_symmetric_variants_need_palindromic_coefficient_fields():
    # the symmetric reduction, and its energy Hessian, hold only when arrow
    # k and arrow n-k carry the same coefficient
    t = build_grid(GridSpec("torus", (8, 8)))
    spec = make_spec("hitchin_component", 4, (one,))
    wave = 1.0 + 0.3 * np.cos(2 * np.pi * t.xy[:, 0])
    flat = np.ones(t.n_nodes)
    make_system(spec, t, boundary="periodic", coefficient_fields=[wave, flat, wave, 2 * wave])
    with pytest.raises(ValueError, match="palindromic"):
        make_system(spec, t, boundary="periodic", coefficient_fields=[wave, flat, flat, flat])


# -- solved-state structure ------------------------------------------------


def test_palindromic_data_give_antisymmetric_log_metrics():
    # gamma_k = gamma_{n-k} forces h_{n+1-k} = h_k^{-1} by uniqueness, even
    # in the formulation that does not build the symmetry in
    g = radial(64)
    c = HolomorphicDatum.constant(2.0)
    spec = make_spec("general_cyclic", 4, (c, one, c, one), t=0.8)
    rep = solve(make_system(spec, g))
    assert rep.converged
    full = rep.state.u @ spec.embedding.T
    sym_defect = np.abs(full + full[:, ::-1]).max()
    assert sym_defect < 1e-8


def test_state_vector_roundtrip_and_validation():
    g = radial(12)
    sys = make_system(make_spec("hitchin_component", 4, (one,)), g)
    for shape in ((5, 2), (g.n_nodes, 3), (g.n_nodes,)):
        with pytest.raises(ValueError):
            LogMetricState(sys, np.zeros(shape))
    state = sys.initial_state()
    assert state.system is sys and (state.grid, state.spec) == (g, sys.spec)
    assert state.u is not sys.boundary_values and np.array_equal(state.u, sys.boundary_values)


# -- gauge moves and stability ---------------------------------------------


def test_scale_last_arrow_composes_multiplicatively():
    spec = make_spec("hitchin_component", 3, (one,), t=2.0)
    assert scale_last_arrow(spec, 3.0).t == pytest.approx(6.0)


def test_gauge_image_scales_every_datum():
    spec = make_spec("slnr_even", 4, (one, one, one), t=1.0)
    img = gauge_image(spec, 16.0)
    root = 16.0 ** 0.25
    for d in img.data:
        np.testing.assert_allclose(d.value(0.3 + 0j), root, rtol=1e-13)
    with pytest.raises(ValueError):
        gauge_image(spec, 0.0)


def test_gauge_log_offsets_values():
    spec = make_spec("hitchin_component", 4, (one,))
    off = gauge_log_offsets(spec, np.e**4)
    np.testing.assert_allclose(off, [3.0, 1.0], atol=1e-12)
    gen = make_spec("general_cyclic", 3, (one, one, one))
    off = gauge_log_offsets(gen, np.e**3)
    np.testing.assert_allclose(off, [2.0, 0.0], atol=1e-12)


def test_stability_check_cases():
    # every case has a vanishing final arrow
    assert stability_check((0, 0)) is False
    # deg L_k of the Hitchin-section bundle (n = 3, genus 2) and of
    # N + N K^-1 + N^-1 K + N^-1 (deg N = 4, genus 3)
    assert stability_check((2, 0, -2)) is True
    assert stability_check((4, 0, 0, -4)) is True
    # deg L_4 >= 0 makes the last line subbundle destabilising
    assert stability_check((-2, 1, 1, 0)) is False
    with pytest.raises(ValueError):
        stability_check((1, 1, 1))


def test_stability_partial_sums_do_not_wrap_past_int64():
    # every partial sum from the top is negative (-2**62, -2**63 - 1,
    # -2**62 - 1), though the second one is below the int64 range
    assert stability_check((2**62 + 1, 2**62, -2**62 - 1, -2**62)) is True
    assert stability_check((2**62, 2**62 + 1, -2**62, -2**62 - 1)) is True
    # partial sums -2**62 - 1, -1, 2**62: the last one destabilises
    assert stability_check((-2**62, 2**62 + 1, 2**62, -2**62 - 1)) is False

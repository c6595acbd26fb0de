"""Derived quantities and verdicts: curvature, ratios, strict comparisons."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchinlab import analysis
from hitchinlab.analysis import (
    MARGIN_COEFF_PAIRED,
    SYM_GROUPS,
    compare_states,
    extremal_plane,
    extrinsic_curvature,
    metric_ratio_fields,
    nu_ratios,
    arrow_terms,
    pullback_metric,
    random_tangent_planes,
    sp4_curvature,
    symmetric_space_curvature,
    verify_fiber_comparison,
    verify_max_principle,
    verify_sp4_bounds,
    verify_sym_space,
)
from hitchinlab.geometry import GridSpec, HolomorphicDatum, build_grid, hyperbolic_metric
from hitchinlab.solver import SolverConfig, solve
from hitchinlab.system import LogMetricState, fuchsian_state, make_spec, make_system

one = HolomorphicDatum.constant(1.0)
zero = HolomorphicDatum.zero()


def radial(n=64, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def uniformising(n, grid):
    spec = make_spec("hitchin_component", n, (zero,))
    return spec, fuchsian_state(spec, grid)


# -- closed-form constants on the uniformising state -----------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_uniformising_curvature_constant(n):
    g = radial(64)
    spec, st = uniformising(n, g)
    curv = extrinsic_curvature(spec, st)
    expect = -6.0 / (n**2 * (n**2 - 1))
    assert curv.defined_mask.all()
    np.testing.assert_allclose(curv.k_sigma, expect, rtol=1e-13)


def test_rank_two_image_is_hyperbolic_of_curvature_minus_half():
    g = radial(48)
    spec, st = uniformising(2, g)
    curv = extrinsic_curvature(spec, st)
    np.testing.assert_allclose(curv.k_sigma[curv.defined_mask], -0.5)


def test_curvature_hand_oracle_three_equal_arrows():
    # arrows (c, c, c, 0) at every node: K = -(0+0+c^2+c^2)/(2*4*(3c)^2) = -1/36
    g = radial(24)
    spec = make_spec("general_cyclic", 4, (one, one, one, one), t=0.0)
    st = LogMetricState(g, np.zeros((g.n_nodes, 3)))
    curv = extrinsic_curvature(spec, st)
    np.testing.assert_allclose(curv.k_sigma, -1.0 / 36.0, rtol=1e-14)
    # all four arrows equal: flat directions, K = 0
    st2 = LogMetricState(g, np.zeros((g.n_nodes, 3)))
    spec2 = make_spec("general_cyclic", 4, (one, one, one, one), t=1.0)
    np.testing.assert_allclose(extrinsic_curvature(spec2, st2).k_sigma, 0.0,
                               atol=1e-16)


def test_uniformising_arrow_terms_match_closed_form():
    g = radial(64)
    n = 4
    spec, st = uniformising(n, g)
    a = arrow_terms(spec, st)
    g0 = hyperbolic_metric(g)
    for k in range(1, n):
        np.testing.assert_allclose(a[:, k - 1], 0.5 * k * (n - k) * g0, rtol=1e-12)
    np.testing.assert_allclose(a[:, n - 1], 0.0)


def test_nu_reference_values_are_exact_rationals():
    g = radial(16)
    for n, refs in [(3, [Fraction(0)]),
                    (4, [Fraction(0), Fraction(3, 4)]),
                    (5, [Fraction(0), Fraction(2, 3)])]:
        spec, st = uniformising(n, g)
        rep = nu_ratios(spec, st)
        assert rep.reference == refs


def test_nu_ratios_equal_reference_on_uniformising_state():
    g = radial(64)
    spec, st = uniformising(5, g)
    rep = nu_ratios(spec, st)
    np.testing.assert_allclose(rep.values[0], 0.0)
    np.testing.assert_allclose(rep.values[1], 2.0 / 3.0, rtol=1e-13)
    with pytest.raises(ValueError):
        nu_ratios(make_spec("slnr_even", 4, (one, one, one)), st)


def test_morse_energy_against_hyperbolic_area_integral():
    # rank 2 uniformising: sum_k arrow_k = g0/2, so the energy is
    # int g0 dx dy = 2 pi R^2 / (1 - R^2) over the disc of radius R
    R = 0.8
    g = radial(512, R)
    spec, st = uniformising(2, g)
    rep = pullback_metric(spec, st)
    exact = 2 * np.pi * R**2 / (1 - R**2)
    assert abs(rep.morse_energy - exact) / exact < 2e-3
    np.testing.assert_allclose(rep.density, 2 * 2 * rep.arrows.sum(axis=1))
    d = rep.to_json_dict()
    assert d["morse_energy"] == rep.morse_energy and d["n"] == 2


# -- rank-4 symplectic curvature -------------------------------------------


def test_sp4_curvature_agrees_with_cyclic_formula():
    g = radial(96)
    spec = make_spec("sp4_gothen", 4, (one, one), t=1.0)
    rep = solve(make_system(spec, g), config=SolverConfig(tol_residual=1e-11))
    assert rep.converged
    s4 = sp4_curvature(spec, rep.state)
    cyc = extrinsic_curvature(spec, rep.state)
    np.testing.assert_allclose(s4.k_sigma, cyc.k_sigma, rtol=1e-11)
    a = arrow_terms(spec, rep.state)
    np.testing.assert_allclose(s4.f1, a[:, 3] / a[:, 0], rtol=1e-14)
    np.testing.assert_allclose(s4.f2, a[:, 1] / a[:, 0], rtol=1e-14)
    with pytest.raises(ValueError):
        sp4_curvature(make_spec("hitchin_component", 4, (one,)), rep.state)


def test_sp4_vanishing_corner_reduces_to_constant_curvature():
    # with the corner arrow off and mu constant the solved surface has
    # f1 = 0, f2 = 4/3 exactly, hence K = -1/40 up to solver tolerance
    g = radial(64)
    spec = make_spec("sp4_gothen", 4, (one, one), t=0.0)
    rep = solve(make_system(spec, g), config=SolverConfig(tol_residual=1e-11))
    assert rep.converged
    s4 = sp4_curvature(spec, rep.state)
    inner = g.verdict_region(3)
    np.testing.assert_allclose(s4.k_sigma[inner], -1.0 / 40.0, atol=1e-11)
    np.testing.assert_allclose(s4.f1[inner], 0.0, atol=1e-13)
    np.testing.assert_allclose(s4.f2[inner], 4.0 / 3.0, atol=1e-10)


def test_sp4_bounds_flag_the_uniformising_system():
    # mu = 1, nu = 0 assembles the rank-4 uniformising system, where the
    # window's upper bounds hold with equality; mu = z keeps mu's zero
    g = radial(64)
    flat = verify_sp4_bounds(make_spec("sp4_gothen", 4, (one, zero)), g)
    assert "degenerate" in flat
    assert flat["equality_deviation"] <= 1e-9
    assert not flat["passed"]
    mu_z = make_spec("sp4_gothen", 4, (HolomorphicDatum.monomial(1.0, 1), zero))
    out = verify_sp4_bounds(mu_z, g)
    assert "degenerate" not in out and "equality_deviation" not in out
    assert out["passed"]


# -- ambient symmetric-space curvature --------------------------------------


def test_sym_space_input_validation():
    Y = np.diag([1.0, -1.0])
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        symmetric_space_curvature(np.eye(2), Z)  # not trace-free
    with pytest.raises(ValueError):
        symmetric_space_curvature(np.array([[0, 1], [-1, 0]], float), Y)  # skew
    with pytest.raises(ValueError):
        symmetric_space_curvature(Y, 2.0 * Y)  # degenerate span
    with pytest.raises(ValueError):
        symmetric_space_curvature(np.zeros((2, 2)), Z)  # zero vector, no plane


def test_sym_space_commuting_plane_is_flat():
    Y = np.diag([1.0, 0.0, -1.0])
    Z = np.diag([1.0, -2.0, 1.0])
    assert symmetric_space_curvature(Y, Z) == 0.0


@pytest.mark.parametrize("group,n", [("sl_real", 2), ("sl_real", 5),
                                     ("sl_complex", 3), ("sp_real", 4)])
def test_sym_space_extremal_planes_hit_the_bound(group, n):
    Y, Z = extremal_plane(group, n)
    assert abs(symmetric_space_curvature(Y, Z) + 1.0 / n) < 1e-14


def test_sym_space_rotation_invariance_and_range():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        (Y,), (Z,) = random_tangent_planes("sl_real", n, rng, 1)
        k = symmetric_space_curvature(Y, Z)
        assert -1.0 / n - 1e-10 <= k <= 1e-10
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k_rot = symmetric_space_curvature(Q @ Y @ Q.T, Q @ Z @ Q.T)
        assert abs(k - k_rot) < 1e-10


def test_verify_sym_space_quick():
    out = verify_sym_space(samples=200, seed=4, ns=(2, 3, 4))
    assert out["passed"]
    assert all(e["extremal_deviation"] <= 1e-12 for e in out["groups"])
    # sp_real entries only appear at even rank
    assert {e["n"] for e in out["groups"] if e["group"] == "sp_real"} == {2, 4}


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -3}, {"ns": ()},
                                    {"ns": (1, 2)}])
def test_verify_sym_space_rejects_vacuous_suites(kwargs):
    # no samples, no ranks or a rank-1 group (whose tangent vectors are
    # zero) would check nothing and report a pass
    with pytest.raises(ValueError, match="sym-space"):
        verify_sym_space(**{"samples": 10, **kwargs})


def test_verify_sym_space_refusal_names_the_plane():
    with pytest.raises(ValueError, match=r"sp_real n=2 sample \d+: tangent vectors") as exc:
        verify_sym_space(10000, seed=4, ns=(2,))
    index = int(re.search(r"sample (\d+)", str(exc.value)).group(1))
    # the named sample is the first degenerate plane of the stream
    Y, Z = random_tangent_planes("sp_real", 2, np.random.default_rng([4, 2, 2]), index + 1)
    symmetric_space_curvature(Y[:index], Z[:index])
    with pytest.raises(ValueError, match="nondegenerate"):
        symmetric_space_curvature(Y[index], Z[index])


def _reference_draw(group, n, rng):
    """One tangent vector drawn matrix by matrix, as the sampler did before
    it drew whole stacks; the stacked draw must reproduce it bit for bit."""
    if group == "sl_real":
        A = rng.standard_normal((n, n))
        S = (A + A.T) / 2.0
        return S - np.trace(S) / n * np.eye(n)
    if group == "sl_complex":
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (A + A.conj().T) / 2.0
        return H - np.trace(H).real / n * np.eye(n)
    m = n // 2
    A = rng.standard_normal((m, m))
    Bm = rng.standard_normal((m, m))
    A = (A + A.T) / 2.0
    Bm = (Bm + Bm.T) / 2.0
    return np.block([[A, Bm], [Bm, -A]])


def _reference_curvature(Y, Z):
    """The single-plane curvature arithmetic the stacked kernel replaced."""
    n = Y.shape[0]
    B = lambda X, W: 2.0 * n * np.trace(X @ W).real
    by = B(Y, Y)
    Zp = Z - (B(Y, Z) / by) * Y
    comm = Y @ Zp - Zp @ Y
    return float(-2.0 * n * float((np.abs(comm) ** 2).sum()) / (by * B(Zp, Zp)))


SYM_CASES = [(g, n) for g in SYM_GROUPS for n in range(2, 7)
             if not (g == "sp_real" and n % 2)]


@pytest.mark.parametrize("group,n", SYM_CASES)
def test_stacked_sampler_matches_per_plane_reference(group, n):
    Y, Z = random_tangent_planes(group, n, np.random.default_rng([3, n]), 37)
    rng = np.random.default_rng([3, n])
    ref = [(_reference_draw(group, n, rng), _reference_draw(group, n, rng))
           for _ in range(37)]
    assert np.array_equal(Y, np.stack([y for y, _ in ref]))
    assert np.array_equal(Z, np.stack([z for _, z in ref]))
    k = symmetric_space_curvature(Y, Z)
    assert k.shape == (37,)
    assert np.array_equal(k, [symmetric_space_curvature(y, z) for y, z in zip(Y, Z)])
    assert np.array_equal(k, [_reference_curvature(y, z) for y, z in ref])


@st.composite
def _plane_stack(draw):
    group = draw(st.sampled_from(SYM_GROUPS))
    n = draw(st.sampled_from([2, 4, 6] if group == "sp_real" else [2, 3, 4, 5, 6]))
    count = draw(st.integers(1, 300))
    return group, n, count, draw(st.integers(0, count)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_plane_stack())
def test_stacked_curvature_range_invariance_and_refusal(case):
    group, n, count, bad, seed = case
    rng = np.random.default_rng(seed)
    Y, Z = random_tangent_planes(group, n, rng, count)
    k = symmetric_space_curvature(Y, Z)
    assert np.all(k >= -1.0 / n - 1e-10) and np.all(k <= 1e-10)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k_rot = symmetric_space_curvature(Q @ Y @ Q.T, Q @ Z @ Q.T)
    assert np.abs(k - k_rot).max() <= 1e-10
    # one degenerate plane (Y, 2Y) anywhere in the stack refuses all of it
    Yd = np.insert(Y, bad, Y[0], axis=0)
    Zd = np.insert(Z, bad, 2.0 * Y[0], axis=0)
    with pytest.raises(ValueError, match="nondegenerate"):
        symmetric_space_curvature(Yd, Zd)


# -- strict pairwise comparisons -------------------------------------------


def test_compare_state_with_itself_is_false_with_zero_margins():
    g = radial(48)
    spec = make_spec("hitchin_component", 3, (one,), t=1.0)
    rep = solve(make_system(spec, g))
    assert rep.converged
    for quantity in ("pullback_metric", "ratio_fields"):
        out = compare_states(spec, rep.state, spec, rep.state, quantity)
        assert not out.verdict
        assert all(m == 0.0 for m in out.margins)


def test_scale_pair_comparison_is_ordered():
    g = radial(96)
    lo = make_spec("hitchin_component", 3, (one,), t=1.0)
    hi = make_spec("hitchin_component", 3, (one,), t=2.0)
    cfg = SolverConfig(tol_residual=1e-11)
    rep_lo = solve(make_system(lo, g), config=cfg)
    rep_hi = solve(make_system(hi, g), config=cfg)
    assert rep_lo.converged and rep_hi.converged
    fwd = compare_states(lo, rep_lo.state, hi, rep_hi.state, "ratio_fields")
    assert fwd.verdict and fwd.min_margin > 0
    assert "corner ratio included" in fwd.notes
    bwd = compare_states(hi, rep_hi.state, lo, rep_lo.state, "ratio_fields")
    assert not bwd.verdict
    met = compare_states(lo, rep_lo.state, hi, rep_hi.state, "pullback_metric")
    assert met.verdict
    d = met.to_json_dict()
    assert d["verdict"] and d["min_margin"] == met.min_margin


def test_compare_states_grid_mismatch_rejected():
    spec = make_spec("hitchin_component", 3, (one,))
    st_a = fuchsian_state(spec, radial(32))
    st_b = fuchsian_state(spec, radial(48))
    with pytest.raises(ValueError):
        compare_states(spec, st_a, spec, st_b)
    with pytest.raises(ValueError):
        compare_states(spec, st_a, spec, st_a, "determinant")


def test_fiber_comparison_distinct_data_passes():
    g = radial(128)
    mu = HolomorphicDatum.monomial(1.0, 4)
    spec = make_spec("slnr_even", 4, (one, one, mu), t=1.0)
    out = verify_fiber_comparison(spec, g)
    assert out["passed"]
    assert out["metric"]["verdict"] and out["components"]["verdict"]
    assert "degenerate" not in out


def test_fiber_comparison_identical_data_degenerates():
    # unit data make the two assembled systems coincide, so every margin is
    # exactly zero and the strict verdict is necessarily false
    g = radial(64)
    spec = make_spec("slnr_even", 4, (one, one, one), t=1.0)
    out = verify_fiber_comparison(spec, g)
    assert not out["passed"]
    assert "degenerate" in out
    assert all(m == 0.0 for m in out["components"]["margins"])


@pytest.mark.parametrize("margin", [1000, -3])
def test_fiber_comparison_refuses_bad_margin_before_solving(monkeypatch, margin):
    calls = []
    monkeypatch.setattr(analysis, "solve", lambda *args, **kwargs: calls.append(args))
    spec = make_spec("slnr_even", 2, (one, HolomorphicDatum.monomial(1.0, 2)))
    with pytest.raises(ValueError, match="margin_cells"):
        verify_fiber_comparison(spec, radial(32), margin_cells=margin)
    assert calls == []


def test_verify_max_principle_quick():
    grids = [radial(24)]
    out = verify_max_principle(count=10, seed=3, grids=grids, pattern_cases=20)
    assert out["passed"]
    assert out["closure_matches_bruteforce"]
    for ctrl in out["negative_controls"]:
        assert ctrl["flagged"] and ctrl["refused"]

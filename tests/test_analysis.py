"""Derived quantities and verdicts: curvature, ratios, strict comparisons."""

import functools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchinlab import analysis, maxprin, solver
from hitchinlab.analysis import (
    CURVATURE_SLACK,
    MARGIN_COEFF_PAIRED,
    SYM_GROUPS,
    compare_states,
    extremal_plane,
    extrinsic_curvature,
    metric_ratio_fields,
    nu_ratios,
    pullback_metric,
    random_tangent_planes,
    sp4_curvature,
    symmetric_space_curvature,
    verify_curvature_bounds,
    verify_fiber_comparison,
    verify_max_principle,
    verify_monotonicity,
    verify_nu_bounds,
    verify_sp4_bounds,
    verify_sym_space,
)
from hitchinlab.geometry import (GridSpec, HolomorphicDatum, build_grid, eval_norm_squared,
                                 hyperbolic_metric)
from hitchinlab.solver import SolveReport, SolverConfig, _NewtonLU, _newton_step, solve
from hitchinlab.system import CyclicSpec, LogMetricState, make_spec, make_system

one = HolomorphicDatum.constant(1.0)
zero = HolomorphicDatum.zero()
Z = HolomorphicDatum.monomial(1.0, 1)
EPS = np.finfo(float).eps


def radial(n=64, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def uniformising(n, grid):
    spec = make_spec("hitchin_component", n, (zero,))
    return spec, make_system(spec, grid).initial_state()


# -- closed-form constants on the uniformising state -----------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_uniformising_curvature_constant(n):
    g = radial(64)
    spec, st = uniformising(n, g)
    curv = extrinsic_curvature(st)
    expect = -6.0 / (n**2 * (n**2 - 1))
    assert curv.defined_mask.all()
    np.testing.assert_allclose(curv.k_sigma, expect, rtol=1e-13)


def test_rank_two_image_is_hyperbolic_of_curvature_minus_half():
    g = radial(48)
    spec, st = uniformising(2, g)
    curv = extrinsic_curvature(st)
    np.testing.assert_allclose(curv.k_sigma[curv.defined_mask], -0.5)


def test_curvature_hand_oracle_three_equal_arrows():
    # arrows (c, c, c, 0) at every node: K = -(0+0+c^2+c^2)/(2*4*(3c)^2) = -1/36
    g = radial(24)
    spec = make_spec("general_cyclic", 4, (one, one, one, one), t=0.0)
    st = LogMetricState(make_system(spec, g), np.zeros((g.n_nodes, 3)))
    curv = extrinsic_curvature(st)
    np.testing.assert_allclose(curv.k_sigma, -1.0 / 36.0, rtol=1e-14)
    # all four arrows equal: flat directions, K = 0
    spec2 = make_spec("general_cyclic", 4, (one, one, one, one), t=1.0)
    st2 = LogMetricState(make_system(spec2, g), np.zeros((g.n_nodes, 3)))
    np.testing.assert_allclose(extrinsic_curvature(st2).k_sigma, 0.0,
                               atol=1e-16)


def test_uniformising_arrow_terms_match_closed_form():
    g = radial(64)
    n = 4
    spec, st = uniformising(n, g)
    a = st.system.arrow_terms(st.u)
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
        rep = nu_ratios(st)
        assert rep.reference == refs


def test_nu_ratios_equal_reference_on_uniformising_state():
    g = radial(64)
    spec, st = uniformising(5, g)
    rep = nu_ratios(st)
    np.testing.assert_allclose(rep.values[0], 0.0)
    np.testing.assert_allclose(rep.values[1], 2.0 / 3.0, rtol=1e-13)
    a = st.system.arrow_terms(st.u)     # reference: one ratio per k
    assert np.array_equal(rep.values[0], a[:, 4] / a[:, 0])
    for k in range(2, spec.n_unknowns + 1):
        assert np.array_equal(rep.values[k - 1], a[:, k - 2] / a[:, k - 1])
    with pytest.raises(ValueError):
        nu_ratios(make_system(make_spec("slnr_even", 4, (one, one, one)), g).initial_state())


def test_morse_energy_against_hyperbolic_area_integral():
    # rank 2 uniformising: sum_k arrow_k = g0/2, so the energy is
    # int g0 dx dy = 2 pi R^2 / (1 - R^2) over the disc of radius R
    R = 0.8
    g = radial(512, R)
    spec, st = uniformising(2, g)
    rep = pullback_metric(spec, st)
    exact = 2 * np.pi * R**2 / (1 - R**2)
    assert abs(rep.morse_energy - exact) / exact < 2e-3
    np.testing.assert_allclose(rep.density, 2 * 2 * st.system.arrow_terms(st.u).sum(axis=1))


def test_a_state_solved_with_coefficient_fields_is_analysed_with_them():
    # the pullback metric once re-evaluated the spec's unit data instead of
    # the fields the state was solved with: 16.7 % off 2n sum_k a_k here
    g = build_grid(GridSpec("torus", 16))
    spec = make_spec("general_cyclic", 3, (one, one, one))
    x = g.xy[:, 0] / g.spec.periods[0]
    fields = [1.0 + 0.4 * np.cos(2.0 * np.pi * x), np.ones(g.n_nodes), np.ones(g.n_nodes)]
    rep = solve(make_system(spec, g, coefficient_fields=fields))
    assert rep.converged
    state = rep.state
    E = spec.embedding
    a = state.system.coeff_sq * np.exp(state.u @ (np.roll(E, -1, axis=0) - E).T)
    np.testing.assert_allclose(pullback_metric(state.spec, state).density,
                               2 * spec.n * a.sum(axis=1), rtol=1e-14)
    for other in (replace(spec, t=2.0), make_spec("general_cyclic", 3, (one, one, Z))):
        with pytest.raises(ValueError, match="not the spec the state was solved with"):
            pullback_metric(other, state)


def test_a_solved_state_is_reduced_by_its_system_alone(monkeypatch):
    # the system builds D = roll(E, -1) - E once; no reduction, comparison or
    # Newton step of a solved state reads the spec's embedding again
    g = radial(32)
    z2 = HolomorphicDatum.monomial(1.0, 2)
    solved = lambda spec: solve(make_system(spec, g)).state
    hitchin = [solved(make_spec("hitchin_component", 3, (Z,), t=t)) for t in (0.0, 0.5, 1.0)]
    cyclic = solved(make_spec("general_cyclic", 3, (one, Z, Z)))
    even = solved(make_spec("slnr_even", 2, (one, z2)))
    odd = solved(make_spec("slnr_odd", 3, (one, z2)))
    sp4 = solved(make_spec("sp4_gothen", 4, (one, Z)))
    partner = solved(make_spec("hitchin_component", 2, (even.spec.partner_differential(),)))

    def no_embedding(spec):
        raise AssertionError("the spec's embedding was read after assembly")

    monkeypatch.setattr(CyclicSpec, "embedding", property(no_embedding))
    for state in (*hitchin, cyclic, even, odd, sp4, partner):
        pullback_metric(state.spec, state)
        metric_ratio_fields(state)
        extrinsic_curvature(state)
        sys_, u = state.system, state.system.initial_state().u
        _newton_step(sys_, u, sys_.residual_array(u), _NewtonLU())
    nu_ratios(hitchin[-1])
    sp4_curvature(sp4)
    for quantity in ("pullback_metric", "ratio_fields"):
        compare_states(hitchin[1], hitchin[2], quantity)
    compare_states(even, partner, "harmonic_components")
    for st_b, st_a in zip(hitchin, hitchin[1:]):    # vanishing-corner and cyclic modes
        maxprin.difference_system(st_a, st_b)


# -- rank-4 symplectic curvature -------------------------------------------


def test_sp4_curvature_agrees_with_cyclic_formula():
    g = radial(96)
    spec = make_spec("sp4_gothen", 4, (one, one), t=1.0)
    rep = solve(make_system(spec, g), config=SolverConfig(tol_residual=1e-11))
    assert rep.converged
    s4 = sp4_curvature(rep.state)
    cyc = extrinsic_curvature(rep.state)
    np.testing.assert_allclose(s4.k_sigma, cyc.k_sigma, rtol=1e-11)
    a = rep.state.system.arrow_terms(rep.state.u)
    np.testing.assert_allclose(s4.f1, a[:, 3] / a[:, 0], rtol=1e-14)
    np.testing.assert_allclose(s4.f2, a[:, 1] / a[:, 0], rtol=1e-14)
    with pytest.raises(ValueError):
        sp4_curvature(make_system(make_spec("hitchin_component", 4, (one,)), g).initial_state())


def test_sp4_vanishing_corner_reduces_to_constant_curvature():
    # with the corner arrow off and mu constant the solved surface has
    # f1 = 0, f2 = 4/3 exactly, hence K = -1/40 up to solver tolerance
    g = radial(64)
    spec = make_spec("sp4_gothen", 4, (one, one), t=0.0)
    rep = solve(make_system(spec, g), config=SolverConfig(tol_residual=1e-11))
    assert rep.converged
    s4 = sp4_curvature(rep.state)
    inner = g.verdict_region()
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("data,t", [((zero,), 1.0), ((HolomorphicDatum.constant(1e-320),), 1.0),
                                    ((HolomorphicDatum.monomial(1.0, 1),), 0.0)],
                         ids=["zero", "underflow", "t0"])
@pytest.mark.parametrize("runner", [verify_nu_bounds, verify_curvature_bounds],
                         ids=["nu", "curvature"])
def test_vanishing_differential_is_flagged_as_the_equality_case(runner, data, t, n):
    # on radial 64 the n = 3 nu-bounds verdict once passed on an infinite k = 1
    # margin, n = 4 failed on a k = 2 margin of -1.8e-15, and curvature passed
    # only through CURVATURE_SLACK (n = 3: k_min - bound = -1.4e-17; n = 4, 5:
    # qzero_k_max 5e-18 above its bound)
    out = runner(make_spec("hitchin_component", n, data, t=t), radial(64))
    assert out["solver"]["converged"] and not out["passed"]
    assert "uniformising system" in out["degenerate"]
    assert 0.0 <= out["equality_deviation"] <= 1e-9


@pytest.mark.parametrize("runner", [verify_nu_bounds, verify_curvature_bounds],
                         ids=["nu", "curvature"])
def test_nonvanishing_differential_is_no_equality_case(runner):
    out = runner(make_spec("hitchin_component", 4, (HolomorphicDatum.monomial(1.0, 1),)),
                 radial(64))
    assert out["passed"]
    assert "degenerate" not in out and "equality_deviation" not in out


# -- a vanishing corner is read from the assembled coefficient --------------
#
# A scale or a corner datum whose square underflows assembles exactly the
# system of t = 0 (or of a zero corner datum), so every verdict must read the
# same; on radial 64 the monotonicity family [1e-170, 0.5, 1] once failed with
# an infinite corner margin and a NaN difference defect where [0, 0.5, 1] passed.

UNDERFLOWING = st.floats(5e-324, 1e-163)      # x * x == 0.0 in doubles
ECHOED = ("t_values", "t_low", "t_high", "wall_time_s")


def _verdict(theorem, corner, t):
    """The verdict of ``theorem`` on radial 32 with the given corner arrow and
    scale; monotonicity runs the family [t, t + 0.5, t + 1]."""
    g = radial(32)
    if theorem == "monotonicity":
        spec = make_spec("general_cyclic", 3, (one, Z, corner))
        return verify_monotonicity(spec, g, [t, t + 0.5, t + 1.0])
    if theorem == "sp4-bounds":
        return verify_sp4_bounds(make_spec("sp4_gothen", 4, (Z, corner), t=t), g)
    runner = verify_nu_bounds if theorem == "nu-bounds" else verify_curvature_bounds
    return runner(make_spec("hitchin_component", 3 + (theorem == "curvature"), (corner,), t=t), g)


def _without_echoes(obj):
    if isinstance(obj, dict):
        return {k: _without_echoes(v) for k, v in obj.items() if k not in ECHOED}
    if isinstance(obj, list):
        return [_without_echoes(v) for v in obj]
    return obj


@functools.lru_cache(maxsize=None)
def _vanishing_corner_reference(theorem, corner, t):
    return repr(_without_echoes(_verdict(theorem, corner, t)))


@pytest.mark.parametrize("theorem", ["nu-bounds", "curvature", "sp4-bounds", "monotonicity"])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(tiny=UNDERFLOWING, underflow=st.sampled_from(["scale", "datum"]),
       degree=st.integers(0, 2))
def test_an_underflowing_corner_gives_the_vanishing_corner_verdict(theorem, tiny, underflow,
                                                                   degree):
    if underflow == "scale":
        got, want = _verdict(theorem, Z, tiny), (Z, 0.0)
    else:
        got, want = _verdict(theorem, HolomorphicDatum.monomial(tiny, degree), 1.0), (zero, 1.0)
    assert repr(_without_echoes(got)) == _vanishing_corner_reference(theorem, *want)


@pytest.mark.parametrize("corner, t_values", [(one, [1e-170, 1.0]), (zero, [1.0])],
                         ids=["t-1e-170", "zero-corner-datum"])
def test_scale_family_refuses_unstable_degrees_where_the_corner_vanishes(monkeypatch, corner,
                                                                        t_values):
    calls = []
    monkeypatch.setattr(analysis, "continuation_solve",
                        lambda *args, **kwargs: calls.append(args) or [])
    spec = make_spec("general_cyclic", 3, (one, one, corner), degrees=(-1, 0, 1))
    with pytest.raises(ValueError, match="refused .* unstable"):
        analysis.scale_family(spec, radial(32), t_values)
    assert calls == []
    # with a corner arrow at every member the bundle is stable whatever its degrees
    analysis.scale_family(replace(spec, data=(one, one, one)), radial(32), [0.5, 1.0])
    assert len(calls) == 1


# -- every conjunct of a verdict can fail ----------------------------------
#
# A verdict is run on the uniformising state plus N(0, sigma^2) noise, put in
# place of the solve.  Its ``passed`` must be the conjunction of the
# inequalities listed below, each of which some noisy state fails; the
# identities that once sat in ``passed`` must hold on every state.

GUARD_GRIDS = (radial(64), build_grid(GridSpec("disc2d", 17, 0.8)))
GUARD_SIGMAS = (0.1, 0.5, 2.0)
GUARD_CASES = (
    [(runner, make_spec("hitchin_component", n, (q,)))
     for runner in (verify_nu_bounds, verify_curvature_bounds) for n in (3, 4, 5)
     for q in (Z, HolomorphicDatum.monomial(1.0, 2), HolomorphicDatum.constant(0.3))]
    + [(verify_sp4_bounds, make_spec("sp4_gothen", 4, (mu, nu)))
       for mu in (one, Z) for nu in (zero, Z, one)])


def _listed_inequalities(runner, v) -> dict:
    """The inequalities ``passed`` conjoins, read from the verdict's numbers."""
    if runner is verify_nu_bounds:
        return {"upper": all(e["min_upper_margin"] > 0 for e in v["bounds"]),
                "lower, k >= 2": all(e["min_lower_margin"] > 0 for e in v["bounds"][1:])}
    if runner is verify_curvature_bounds:
        return {"lower": v["k_min"] >= v["lower_bound"] - CURVATURE_SLACK}
    return {"f1": v["f1_max"] < 4.0 / 3.0, "f2": v["f2_max"] < 4.0 / 3.0}


def _noisy_verdict(runner, spec, grid, sigma, seed):
    """(verdict, state) with the solve replaced by a noisy uniformising state."""
    rng = np.random.default_rng(seed)
    states = []

    def noisy_solve(system, config=None):
        u0 = system.initial_state().u
        states.append(LogMetricState(system, u0 + sigma * rng.standard_normal(u0.shape)))
        return SolveReport(states[-1], converged=True, iterations=0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "solve", noisy_solve)
        return runner(spec, grid), states[0]


def _check_passed_is_the_listed_conjunction(runner, v):
    listed = _listed_inequalities(runner, v)
    assert v["passed"] == (all(listed.values()) and "degenerate" not in v), (listed, v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(GUARD_CASES), st.sampled_from(GUARD_GRIDS),
       st.sampled_from(GUARD_SIGMAS), st.integers(0, 2**32 - 1))
def test_passed_is_the_conjunction_of_the_listed_inequalities(case, grid, sigma, seed):
    runner, spec = case
    v, _ = _noisy_verdict(runner, spec, grid, sigma, seed)
    _check_passed_is_the_listed_conjunction(runner, v)


@pytest.fixture(scope="module")
def noisy_verdicts():
    return [(runner, spec, grid, *_noisy_verdict(runner, spec, grid, sigma, seed))
            for seed, (runner, spec) in enumerate(GUARD_CASES)
            for grid in GUARD_GRIDS for sigma in GUARD_SIGMAS]


def test_every_listed_inequality_fails_on_some_noisy_state(noisy_verdicts):
    failed = {}
    for runner, _, _, v, _ in noisy_verdicts:
        _check_passed_is_the_listed_conjunction(runner, v)
        for name, holds in _listed_inequalities(runner, v).items():
            failed.setdefault((runner.__name__, name), False)
            failed[runner.__name__, name] |= not holds
    assert len(failed) == 5 and all(failed.values()), failed


def test_the_removed_identities_hold_on_every_noisy_state(noisy_verdicts):
    mu_zero_nodes = sp4_in_window = 0
    for runner, spec, grid, v, state in noisy_verdicts:
        region = grid.verdict_region()
        if runner is verify_nu_bounds:
            # nu_1 = a_n / a_1 >= 0, and > 0 off the zeros of q
            nu1 = nu_ratios(state).values[0]
            off_zeros = eval_norm_squared(spec.cyclic_data()[-1], grid) > 0
            assert (nu1 >= 0).all() and (nu1[off_zeros] > 0).all()
            assert "min_lower_margin" not in v["bounds"][0]
        elif runner is verify_curvature_bounds:
            assert v["k_max"] < 0      # a negated sum of squares
            # with a_n = 0 the uniformising arrows k(n-k)/2 maximise K
            assert v.get("qzero_k_max", -np.inf) <= v.get("qzero_bound", 0.0) + 1e-15
        else:
            if v["f1_max"] < 4.0 / 3.0 and v["f2_max"] < 4.0 / 3.0:
                # K >= -1/8 wherever f1, f2 <= 4/3, as (f1 - f2)^2 <= 8 (f1 + f2) there
                assert v["k_min"] >= -0.125 - 1e-15
                sp4_in_window += 1
            if not v["mu_fuchsian"]:
                assert v["k_max"] < 0
            else:
                # nu = 0 makes f1 = 0, so K <= -1/40, with equality only at
                # f2 = 4/3, and K = -1/8 exactly at a zero of mu, where f2 = 0 too
                assert v["k_max"] <= -1.0 / 40.0 + 1e-15
                mu_zeros = region & (eval_norm_squared(spec.cyclic_data()[1], grid) == 0)
                assert (sp4_curvature(state).k_sigma[mu_zeros] == -0.125).all()
                mu_zero_nodes += int(mu_zeros.sum())
    assert mu_zero_nodes > 0 and sp4_in_window > 0


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
    for shapes in ((3,), (3,)), ((2, 2), (3, 3)):
        with pytest.raises(ValueError, match="square matrices of equal size"):
            symmetric_space_curvature(*map(np.zeros, shapes))


def test_sym_space_commuting_plane_is_flat():
    Y = np.diag([1.0, 0.0, -1.0])
    Z = np.diag([1.0, -2.0, 1.0])
    assert symmetric_space_curvature(Y, Z) == 0.0


@pytest.mark.parametrize("group,n", [("sl_real", 2), ("sl_real", 5),
                                     ("sl_complex", 3), ("sp_real", 4)])
def test_sym_space_extremal_planes_hit_the_bound(group, n):
    Y, Z = extremal_plane(group, n)
    assert abs(symmetric_space_curvature(Y, Z) + 1.0 / n) < 1e-14


@pytest.mark.parametrize("call, message", [
    (lambda: random_tangent_planes("sp_real", 3, np.random.default_rng(0), 1), "even n"),
    (lambda: random_tangent_planes("su", 3, np.random.default_rng(0), 1), "unknown group"),
    (lambda: extremal_plane("sl_real", 3, 1, 1), "0 <= i < j < n"),
    (lambda: extremal_plane("sl_complex", 3, 0, 3), "0 <= i < j < n"),
    (lambda: extremal_plane("sp_real", 3), "even n and 0 <= i < n/2"),
    (lambda: extremal_plane("sp_real", 4, 2), "even n and 0 <= i < n/2"),
    (lambda: extremal_plane("su", 3), "unknown group"),
], ids=["sp-odd", "group", "sl-pair", "sl-range", "sp-odd-plane", "sp-index", "plane-group"])
def test_tangent_planes_refuse_bad_groups_ranks_and_indices(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


# seed 7's plane has |sin theta| = 1.0e-6, at the 1e-12 threshold on sin^2 theta,
# so a change of arithmetic in the kernel could move or drop that skip
@pytest.mark.parametrize("seed,index", [(4, 4378), (7, 7451)])
def test_verify_sym_space_skips_the_degenerate_plane(seed, index):
    # one degenerate draw is skipped and counted; the pair passes on the rest
    out = verify_sym_space(10000, seed=seed, ns=(2,))
    assert out["passed"]
    counts = {(e["group"], e["n"]): e["degenerate_samples"] for e in out["groups"]}
    assert counts == {("sl_real", 2): 0, ("sl_complex", 2): 0, ("sp_real", 2): 1}
    sp = next(e for e in out["groups"] if e["group"] == "sp_real")
    # every sp_real n = 2 plane is the whole tangent space
    assert abs(sp["k_min"] + 0.5) < 1e-12 and abs(sp["k_max"] + 0.5) < 1e-12
    # the skipped sample is the one degenerate plane of the stream
    Y, Z = random_tangent_planes("sp_real", 2, np.random.default_rng([seed, 2, 2]), 10000)
    symmetric_space_curvature(Y[:index], Z[:index])
    symmetric_space_curvature(Y[index + 1:], Z[index + 1:])
    with pytest.raises(ValueError, match="nondegenerate"):
        symmetric_space_curvature(Y[index], Z[index])


def test_verify_sym_space_refuses_a_pair_with_no_nondegenerate_plane(monkeypatch):
    # a pair whose every draw is degenerate would pass vacuously
    real = analysis.random_tangent_planes

    def planes(group, n, rng, count):
        Y, Z = real(group, n, rng, count)
        return (Y, 3.0 * Y) if (group, n) == ("sl_complex", 3) else (Y, Z)

    monkeypatch.setattr(analysis, "random_tangent_planes", planes)
    with pytest.raises(ValueError, match=r"^sl_complex n=3: no sampled pair of tangent "
                                         "vectors spans a nondegenerate plane$"):
        verify_sym_space(1, seed=0, ns=(2, 3))
    out = verify_sym_space(300, seed=0, ns=(2,))
    assert out["passed"] and all(e["degenerate_samples"] == 0 for e in out["groups"])


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
    assert np.abs(k - [_reference_curvature(y, z) for y, z in ref]).max() <= 4 * EPS


def _longdouble_curvatures(Y, Z):
    """The curvature formula evaluated with complex matrix products and
    traces in extended precision."""
    Y, Z = (M.astype(np.clongdouble) for M in (Y, Z))
    n = Y.shape[-1]
    B = lambda X, W: 2 * n * np.trace(X @ W, axis1=-2, axis2=-1).real
    Zp = Z - (B(Y, Z) / B(Y, Y))[:, None, None] * Y
    C = Y @ Zp - Zp @ Y
    return B(C, C) / (B(Y, Y) * B(Zp, Zp))


@pytest.mark.parametrize("group,n", SYM_CASES)
def test_sampled_curvatures_are_valid_nonpositive_and_accurate(group, n):
    Y, Z = random_tangent_planes(group, n, np.random.default_rng([5, n]), 200)
    # the sampler's stacks pass the public trace-free and Hermitian checks,
    # which verify_sym_space does not repeat on them
    k = symmetric_space_curvature(Y, Z)
    assert np.all(k <= 0.0)
    assert np.abs(k - _longdouble_curvatures(Y, Z)).max() <= 4 * EPS


@pytest.mark.parametrize("group", SYM_GROUPS)
def test_rank_two_spaces_have_constant_curvature_minus_half(group):
    # at n = 2 the three spaces are H^2, H^3 and H^2: every plane has K = -1/2
    rng = np.random.default_rng([6, SYM_GROUPS.index(group)])
    k = symmetric_space_curvature(*random_tangent_planes(group, 2, rng, 20000))
    assert np.abs(k + 0.5).max() <= 4 * EPS


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
        out = compare_states(rep.state, rep.state, quantity)
        assert not out["verdict"]
        assert all(m == 0.0 for m in out["margins"])


def test_scale_pair_comparison_is_ordered():
    g = radial(96)
    lo = make_spec("hitchin_component", 3, (one,), t=1.0)
    hi = make_spec("hitchin_component", 3, (one,), t=2.0)
    cfg = SolverConfig(tol_residual=1e-11)
    rep_lo = solve(make_system(lo, g), config=cfg)
    rep_hi = solve(make_system(hi, g), config=cfg)
    assert rep_lo.converged and rep_hi.converged
    fwd = compare_states(rep_lo.state, rep_hi.state, "ratio_fields")
    assert fwd["verdict"] and fwd["min_margin"] > 0
    assert "corner ratio included" in fwd["notes"]
    bwd = compare_states(rep_hi.state, rep_lo.state, "ratio_fields")
    assert not bwd["verdict"]
    met = compare_states(rep_lo.state, rep_hi.state, "pullback_metric")
    assert met["verdict"] and met["min_margin"] == min(met["margins"])


def test_ratio_margin_on_the_verdict_region_is_resolution_independent():
    # on the fixed region |z| <= 7R/8 the margin of t = 2 over t = 1 is a
    # property of the solution: 2.58e-3 at every N.  Five grid steps from the
    # rim it halved with each doubling of N (7.8e-4 at 128, 9.7e-5 at 1024)
    q = HolomorphicDatum.monomial(1.0, 1)
    cfg = SolverConfig(tol_residual=1e-9)
    margins = []
    for N in (128, 256, 512, 1024):
        g = radial(N)
        lo, hi = (make_spec("hitchin_component", 3, (q,), t=t) for t in (1.0, 2.0))
        rep_lo, rep_hi = (solve(make_system(s, g), config=cfg) for s in (lo, hi))
        assert rep_lo.converged and rep_hi.converged
        margins.append(compare_states(rep_lo.state, rep_hi.state, "ratio_fields",
                                      solver_tol=cfg.tol_residual)["min_margin"])
    assert min(margins) > 0 and max(margins) <= 1.01 * min(margins), margins


def test_compare_states_grid_mismatch_rejected():
    spec = make_spec("hitchin_component", 3, (one,))
    st_a, st_b = (make_system(spec, g).initial_state() for g in (radial(32), radial(48)))
    with pytest.raises(ValueError):
        compare_states(st_a, st_b)
    with pytest.raises(ValueError):
        compare_states(st_a, st_a, "determinant")
    # equal node counts and equal spacings on grids of different kinds:
    # the comparison once took them for one grid and returned a verdict
    period = 0.8 * 16 / 255
    torus = build_grid(GridSpec("torus", (16, 16), periods=(period, period)))
    disc = radial(256)
    assert (torus.n_nodes, torus.spacing) == (disc.n_nodes, disc.spacing)
    st_t, st_r = (make_system(spec, g).initial_state() for g in (torus, disc))
    for a, b in ((st_t, st_r), (st_r, st_t)):
        with pytest.raises(ValueError, match="same grid"):
            compare_states(a, b)


def test_harmonic_components_need_a_hitchin_section_partner():
    # the partner is read from its assembled system: symmetric, of equal
    # rank, every arrow but the corner exactly 1, whatever variant spells it
    g = radial(32)
    two = HolomorphicDatum.constant(2.0)
    bundle = make_system(make_spec("slnr_even", 4, (one, two, Z)), g).initial_state()
    for partner in (make_spec("slnr_even", 4, (one, two, Z)), make_spec("hitchin_component", 3, (Z,)),
                    make_spec("general_cyclic", 4, (one, one, one, Z))):
        with pytest.raises(ValueError, match="Hitchin-section state of equal rank"):
            compare_states(bundle, make_system(partner, g).initial_state(), "harmonic_components")
    for partner in (make_spec("hitchin_component", 4, (Z,)), make_spec("slnr_even", 4, (Z, one, one))):
        out = compare_states(bundle, make_system(partner, g).initial_state(), "harmonic_components")
        assert out["quantity"] == "harmonic_components"


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


@pytest.mark.parametrize("spec,passed", [
    (make_spec("slnr_odd", 5, (one, one, HolomorphicDatum.monomial(1.0, 2))), True),
    (make_spec("slnr_even", 6, (one, one, one, HolomorphicDatum.monomial(1.0, 2))), True),
    (make_spec("slnr_odd", 5, (HolomorphicDatum.monomial(1.0, 5), one, one)), False),
], ids=["n=5", "n=6", "self-partner"])
def test_fiber_comparison_above_rank_four_compares_components_alone(spec, passed):
    # the metric comparison is proved for rank <= 4 only; the self-partner
    # assembles its partner's system and is flagged as the equality case
    out = verify_fiber_comparison(spec, radial(128), SolverConfig(tol_residual=1e-10))
    assert out["metric"] is None
    assert out["passed"] == out["components"]["verdict"] == passed
    assert ("degenerate" in out) != passed
    if passed:
        assert out["components"]["min_margin"] > 0.1
    else:
        assert out["equality_deviation"] == 0.0


@pytest.mark.parametrize("spec,solves", [
    (make_spec("slnr_even", 4, (one, one, one), t=1.0), 1),
    (make_spec("slnr_even", 4, (one, one, HolomorphicDatum.monomial(1.0, 4)), t=1.0), 2),
], ids=["self-partner", "distinct-data"])
def test_fiber_comparison_solves_a_self_partner_once(monkeypatch, spec, solves):
    # a bundle that assembles its partner's system reuses its own solve; the
    # verdict is the one built from both sides solved apart
    g = radial(64)
    partner = make_spec("hitchin_component", 4, (spec.partner_differential(),))
    config = SolverConfig()
    rep_a = solve(make_system(spec, g), config=config)
    rep_b = solve(make_system(partner, g), config=config)
    want = {"n": 4, "passed": True}
    for quantity, key in (("pullback_metric", "metric"), ("harmonic_components", "components")):
        want[key] = compare_states(rep_a.state, rep_b.state, quantity, config.tol_residual)
        want["passed"] = bool(want["passed"] and want[key]["verdict"])
    calls = []
    monkeypatch.setattr(analysis, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    out = verify_fiber_comparison(spec, g, config)
    assert len(calls) == solves
    assert ("degenerate" in out) == (solves == 1)
    # the self-partner's margins are exactly zero, and so is its deviation
    assert out.pop("equality_deviation", 0.0) == 0.0
    out.pop("degenerate", None)
    assert out == want


def test_every_solve_based_runner_writes_one_inconclusive_shape(monkeypatch):
    # the single-state runners once wrote "report", monotonicity its own error
    def unconverged(system, initial=None, config=None, **kwargs):
        return SolveReport(system.initial_state(), False, 0, message="not converged")

    monkeypatch.setattr(analysis, "solve", unconverged)
    monkeypatch.setattr(solver, "solve", unconverged)     # continuation's solves
    g = radial(16)
    z = HolomorphicDatum.monomial(1.0, 1)
    hitchin = make_spec("hitchin_component", 3, (z,))
    family = verify_monotonicity(hitchin, g, [0.5, 1.0])
    assert (family.pop("t_values"), family.pop("converged")) == ([0.5], [False])
    verdicts = [verify_nu_bounds(hitchin, g), verify_curvature_bounds(hitchin, g),
                verify_sp4_bounds(make_spec("sp4_gothen", 4, (one, z)), g),
                verify_fiber_comparison(make_spec("slnr_even", 4, (one, one, z)), g), family]
    for out in verdicts:
        assert out.keys() == {"passed", "error", "reports"}
        assert out["passed"] is False and out["error"] == "solve failed"
    assert [len(out["reports"]) for out in verdicts] == [1, 1, 1, 2, 1]
    assert all(not r["converged"] for out in verdicts for r in out["reports"])


@pytest.mark.parametrize("spec", [
    make_spec("slnr_even", 4, (HolomorphicDatum.monomial(1.0, 1), HolomorphicDatum.constant(3.0),
                               HolomorphicDatum.constant(0.2))),
    make_spec("general_cyclic", 3, (one, HolomorphicDatum.constant(2.0),
                                    HolomorphicDatum.monomial(1.0, 1))),
], ids=["slnr_even", "general_cyclic"])
def test_curvature_bounds_refuse_other_variants_before_solving(monkeypatch, spec):
    # the pinching theorem is proved for the Hitchin section only; on radial
    # 128 these two specs read k_min -0.1133 < -1/36 and -0.1262 < -1/12
    calls = []
    monkeypatch.setattr(analysis, "solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="hitchin_component"):
        verify_curvature_bounds(spec, radial(32))
    assert calls == []


@pytest.mark.parametrize("runner, extra, theorem", [
    (verify_monotonicity, ([0.5, 1.0],), "monotonicity"),
    (verify_nu_bounds, (), "nu-bounds"),
    (verify_curvature_bounds, (), "curvature"),
    (verify_fiber_comparison, (), "hitchin-fiber-comparison"),
    (verify_sp4_bounds, (), "sp4-bounds"),
], ids=["monotonicity", "nu-bounds", "curvature", "fiber-comparison", "sp4-bounds"])
def test_solve_based_runners_refuse_a_torus_before_building_a_system(monkeypatch, runner, extra,
                                                                     theorem):
    # a verdict is asserted against the uniformising Dirichlet data of a disc;
    # on torus 16 two runners once passed, two gave verdicts and monotonicity
    # solved its whole family before refusing.  sp4 refuses the torus before
    # the variant, and the fiber comparison before building its partner.
    def never(*args, **kwargs):
        raise AssertionError("a system was built or solved")

    monkeypatch.setattr(analysis, "make_system", never)
    monkeypatch.setattr(analysis, "solve", never)
    spec = make_spec("hitchin_component", 3, (Z,))
    with pytest.raises(ValueError) as exc:
        runner(spec, build_grid(GridSpec("torus", 16)), *extra)
    assert str(exc.value) == f"{theorem} needs a disc grid ('radial_disc' or 'disc2d'), not a torus"


@pytest.mark.parametrize("t_values", [[1.0], [1.0, 1.0, 2.0], [2.0, 1.0]],
                         ids=["one", "repeated", "descending"])
def test_monotonicity_refuses_a_family_that_is_not_strictly_increasing(monkeypatch, t_values):
    calls = []
    monkeypatch.setattr(analysis, "continuation_solve",
                        lambda *args, **kwargs: calls.append(args))
    spec = make_spec("hitchin_component", 3, (one,))
    with pytest.raises(ValueError, match="strictly increasing 't_list' of at least 2"):
        verify_monotonicity(spec, radial(32), t_values)
    assert calls == []


def test_verify_max_principle_quick():
    grids = [radial(24)]
    out = verify_max_principle(count=10, seed=3, grids=grids)
    assert out["passed"]
    for ctrl in out["negative_controls"]:
        assert ctrl["flagged"]

"""Newton solver behaviour: convergence, failure reporting, continuation."""

import functools
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgbsv

from hitchinlab import solver
from hitchinlab.geometry import GridSpec, HolomorphicDatum, build_grid
from hitchinlab.solver import SolverConfig, SolveReport, continuation_solve, solve
from hitchinlab.system import LogMetricState, make_spec, make_system

from gauge import scale_last_arrow

one = HolomorphicDatum.constant(1.0)
quadratic = HolomorphicDatum.polynomial([-0.25, 0.0, 1.0])  # z^2 - 1/4


def radial(n=64, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_newton_iters=0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(tol_residual=tol)


def test_newton_converges_with_quadratic_tail():
    g = radial(96)
    spec = make_spec("hitchin_component", 3, (one,), t=1.0)
    sys = make_system(spec, g)
    seed = sys.initial_state()
    rng = np.random.default_rng(3)
    seed.u += 0.5 * rng.normal(size=seed.u.shape) * (~g.boundary_mask)[:, None]
    rep = solve(sys, initial=seed, config=SolverConfig(tol_residual=1e-10))
    assert rep.converged and rep.message == "converged"
    assert rep.final_residual <= 1e-10

    # once the iterate is close, each full step should square the residual
    # (up to the rounding floor of the linear algebra, ~1e-11 at this size)
    tail = [r for r in rep.residual_norms if r < 1e-2]
    assert len(tail) >= 2
    for a, b in zip(tail, tail[1:]):
        assert b < max(50 * a**2, 2e-11)
    assert rep.step_sizes[-1] == 1.0


def test_solved_state_residual_matches_report():
    g = radial(64)
    sys = make_system(make_spec("slnr_even", 4, (one, one, one), t=0.5), g)
    rep = solve(sys)
    assert rep.converged
    r = np.abs(sys.residual_array(rep.state.u)).max()
    np.testing.assert_allclose(r, rep.final_residual, rtol=1e-12)


def test_iteration_budget_reported_not_raised():
    g = radial(48)
    sys = make_system(make_spec("hitchin_component", 4, (one,), t=2.0), g)
    seed = sys.initial_state()
    seed.u += 1.0 * (~g.boundary_mask)[:, None]
    rep = solve(sys, initial=seed, config=SolverConfig(max_newton_iters=1))
    assert not rep.converged
    assert "iteration budget exhausted" in rep.message


def test_initial_state_shape_checked():
    g = radial(16)
    sys = make_system(make_spec("hitchin_component", 4, (one,)), g)
    bad = LogMetricState(g, np.zeros((g.n_nodes, 3)))
    with pytest.raises(ValueError):
        solve(sys, initial=bad)


def test_report_serialisation_keys():
    g = radial(32)
    rep = solve(make_system(make_spec("hitchin_component", 2, (one,)), g))
    d = rep.to_json_dict()
    assert set(d) == {
        "converged", "iterations", "final_residual", "residual_norms",
        "step_sizes", "message", "wall_time_s", "counters",
    }
    assert isinstance(rep, SolveReport)
    assert d["converged"] is True
    assert d["final_residual"] == rep.residual_norms[-1]
    assert d["counters"] == {"factorizations": rep.iterations, "refinement_sweeps": 0,
                             "residual_evals": 1 + rep.iterations, "backtracks": 0}


def test_continuation_validates_schedule():
    g = radial(32)
    base = make_spec("hitchin_component", 3, (one,), t=1.0)

    def at(t):
        return make_system(scale_last_arrow(base, t), g)

    with pytest.raises(ValueError):
        continuation_solve(at, [1.0, 0.5])
    with pytest.raises(ValueError):
        continuation_solve(at, [-1.0, 0.5])


def test_continuation_warm_starts_and_improves():
    g = radial(64)
    base = make_spec("hitchin_component", 3, (one,), t=1.0)

    def at(t):
        return make_system(scale_last_arrow(base, t), g)

    out = continuation_solve(at, [0.0, 1.0, 2.0, 4.0])
    assert [t for t, _ in out] == [0.0, 1.0, 2.0, 4.0]
    assert all(rep.converged for _, rep in out)
    # the warm start at t=4 should take fewer Newton steps than a cold solve
    cold = solve(at(4.0))
    assert out[-1][1].iterations <= cold.iterations


def test_continuation_stops_at_first_failure():
    g = radial(32)
    base = make_spec("hitchin_component", 3, (one,), t=1.0)
    # generous tolerance so one step suffices near the uniformising seed,
    # but the long jump to t=8 cannot finish in a single iteration
    budget = SolverConfig(max_newton_iters=1, tol_residual=1e-5)

    def at(t):
        sys = make_system(scale_last_arrow(base, t), g)
        return sys

    out = continuation_solve(at, [0.0, 8.0, 16.0], config=budget)
    assert out[0][1].converged
    assert len(out) == 2 and not out[1][1].converged


@pytest.mark.parametrize("spec", [
    make_spec("hitchin_component", 4, (quadratic,), t=2.0),
    make_spec("general_cyclic", 3, (one, one, quadratic), t=2.0),
], ids=lambda s: s.variant)
def test_damped_warm_start_off_the_dirichlet_data_lands_on_it(spec, monkeypatch):
    # the boundary part of each step is -r_B and enters the free solve
    # through the boundary coupling; damped steps move it only part way
    monkeypatch.setattr(solver, "_SUFFICIENT_DECREASE", 0.9)
    g = build_grid(GridSpec("disc2d", 17, 0.8))
    sys = make_system(spec, g)
    b = g.boundary_mask
    seed = sys.initial_state()
    seed.u[b] += 1.5
    seed.u[~b] -= 1.0
    rep = solve(sys, initial=seed, config=SolverConfig(tol_residual=1e-10))
    assert rep.converged
    assert min(rep.step_sizes) < 1.0
    bv = sys.boundary_values[b]
    assert np.abs(rep.state.u[b] - bv).max() <= 1e-14 * max(1.0, np.abs(bv).max())


def test_counters_count_residual_evaluations_and_backtracks(monkeypatch):
    # every line-search trial evaluates the residual once; each rejected
    # trial halves the step, so the accepted step sizes give the backtracks
    monkeypatch.setattr(solver, "_SUFFICIENT_DECREASE", 0.9)
    g = build_grid(GridSpec("disc2d", 17, 0.8))
    sys = make_system(make_spec("hitchin_component", 4, (quadratic,), t=2.0), g)
    seed = sys.initial_state()
    seed.u[~g.boundary_mask] -= 1.0
    rep = solve(sys, initial=seed, config=SolverConfig(tol_residual=1e-10))
    assert rep.converged
    backtracks = sum(round(-np.log2(a)) for a in rep.step_sizes)
    assert backtracks > 0
    assert rep.counters["backtracks"] == backtracks
    assert rep.counters["residual_evals"] == 1 + rep.iterations + backtracks


def _reference_runs(config):
    """The tier-1 reference instances: a disc2d solve, a torus solve and a
    disc2d continuation over t = 0, 1, 2, 4, 8, as lists of reports."""
    disc = build_grid(GridSpec("disc2d", 33, 0.8))
    disc_solve = solve(make_system(make_spec("hitchin_component", 4, (quadratic,)), disc),
                       config=config)
    torus = build_grid(GridSpec("torus", 32))
    x, y = torus.xy.T
    fields = [1.0 + 0.4 * np.cos(2.0 * np.pi * (kx * x + ky * y))
              for kx, ky in ((1, 0), (0, 1), (1, 1))]
    cyclic = make_spec("general_cyclic", 3, (one, one, one))
    torus_solve = solve(make_system(cyclic, torus, "periodic", fields), config=config)
    family = make_spec("hitchin_component", 3, (quadratic,))
    runs = continuation_solve(lambda t: make_system(replace(family, t=complex(t)), disc),
                              [0.0, 1.0, 2.0, 4.0, 8.0], config)
    return [disc_solve], [torus_solve], [rep for _, rep in runs]


def _strict_refinement():
    """A context in which every 2-D step is refined to 4 eps, as with no
    forcing tolerance."""
    return mock.patch.object(solver, "_FORCING", 0.0)


def test_reference_solves_keep_their_newton_iteration_counts():
    # counts recorded with the full-Jacobian LU solve that preceded the
    # free-node symmetric one; the Newton direction is the same.  Steps
    # solved through a kept factorisation keep the counts with fewer
    # factorisations, the first member's serving the whole family, whether
    # they are refined to 4 eps or only to the forcing tolerance; the
    # forcing tolerance takes fewer sweeps
    config = SolverConfig(tol_residual=1e-10)
    with _strict_refinement():
        strict = _reference_runs(config)
    forced = _reference_runs(config)
    for disc, torus, family in (strict, forced):
        assert all(rep.converged for rep in disc + torus + family)
        assert [rep.iterations for rep in disc + torus] == [2, 3]
        assert [rep.counters["factorizations"] for rep in disc + torus] == [1, 1]
        assert [rep.iterations for rep in family] == [2, 2, 3, 3, 3]
        assert [rep.counters["factorizations"] for rep in family] == [1, 0, 0, 0, 0]
    sweeps = [sum(rep.counters["refinement_sweeps"] for reps in runs for rep in reps)
              for runs in (forced, strict)]
    assert sweeps[0] < sweeps[1]


def test_every_accepted_2d_step_meets_its_forcing_tolerance(monkeypatch):
    # each step's linear residual is at most 0.1 max(min(|r|, 1) |r|, tol),
    # r the Newton residual it starts from, or the backward error of a
    # fresh solve, whichever is larger; and the forcing tolerance, not
    # 4 eps, accepts some of them
    steps, solve_step = [], solver._NewtonLU.solve

    def recorded(self, K, b, band=None, forcing=0.0, order=None):
        x = solve_step(self, K, b, band, forcing, order)
        steps.append((K, b, x, forcing))
        return x

    monkeypatch.setattr(solver._NewtonLU, "solve", recorded)
    tol = 1e-10
    reports = sum(_reference_runs(SolverConfig(tol_residual=tol)), [])
    assert all(rep.converged for rep in reports)
    norms = [r for rep in reports for r in rep.residual_norms[:rep.iterations]]
    assert len(steps) == len(norms) == sum(rep.iterations for rep in reports)
    by_forcing = 0
    for (K, b, x, forcing), r in zip(steps, norms):
        assert forcing == 0.1 * max(min(r, 1.0) * r, tol)
        linear = np.abs(b - K @ x).max()
        strict = 4 * np.finfo(float).eps * (spla.norm(K, np.inf) * np.abs(x).max()
                                             + np.abs(b).max())
        assert linear <= max(forcing, strict)
        by_forcing += linear > strict
    assert by_forcing > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["disc2d-hitchin3", "disc2d-hitchin4", "disc2d-cyclic3",
                             "torus-cyclic3"]),
       t=st.sampled_from([1.0, 8.0, 128.0, 2048.0]),
       tol=st.sampled_from([1e-6, 1e-10, 1e-13, 1e-16]))
def test_forced_solves_converge_wherever_strict_ones_do(case, t, tol):
    # a forced step leaves a linear residual of at most its forcing
    # tolerance, which moves the next Newton residual by less than twice
    # that: wherever the strict rule converges, so does the forced one, to
    # the same tolerance and in at most one more Newton step a member.
    # Disc2d instances are continuations from t = 0 straight to t
    config = SolverConfig(tol_residual=tol)
    if case == "torus-cyclic3":
        sys = _torus_cyclic(t / 128.0, 16)

        def run():
            return [solve(sys, config=config)]
    else:
        name, n, data = {"disc2d-hitchin3": ("hitchin_component", 3, (quadratic,)),
                         "disc2d-hitchin4": ("hitchin_component", 4, (quadratic,)),
                         "disc2d-cyclic3": ("general_cyclic", 3, (one, one, quadratic))}[case]
        family, disc = make_spec(name, n, data), build_grid(GridSpec("disc2d", 17, 0.8))

        def run():
            return [rep for _, rep in continuation_solve(
                lambda s: make_system(replace(family, t=complex(s)), disc), [0.0, t], config)]

    with _strict_refinement():
        strict = run()
    forced = run()
    if all(rep.converged for rep in strict):
        assert len(forced) == len(strict)
        for rep, ref in zip(forced, strict):
            assert rep.converged and rep.final_residual <= tol
            assert rep.iterations <= ref.iterations + 1


def _fresh_factor_every_step(monkeypatch):
    """Make every Newton step factor its own matrix, as before the reuse."""
    monkeypatch.setattr(solver._NewtonLU, "solve",
                        lambda self, K, b, band=None, forcing=0.0, order=None:
                        solver._factor(K).solve(b))


def _fresh_band_solve_every_step(monkeypatch):
    """Make every Newton step a banded LU solve of K, its band storage built
    from K's own pattern at each step."""
    def fresh(self, K, b, band=None, forcing=0.0, order=None):
        c = K.tocoo()
        bw = int(np.abs(c.row - c.col).max())
        ab = np.zeros((3 * bw + 1, K.shape[0]), order="F")
        ab[2 * bw + c.row - c.col, c.col] = c.data
        _, _, x, info = dgbsv(bw, bw, ab, b)
        assert info == 0
        return x

    monkeypatch.setattr(solver._NewtonLU, "solve", fresh)


def test_radial_solves_factor_every_step_and_match_fresh_factorisations(monkeypatch):
    # radial matrices are banded and every step is a fresh banded LU solve,
    # nothing kept, so the states are those of one
    g = radial(256)
    base = make_spec("hitchin_component", 5, (HolomorphicDatum.monomial(1.0, 2),))
    ts = [0.0, 0.5, 1.0, 2.0]

    def at(t):
        return make_system(scale_last_arrow(base, t), g)

    sp4 = make_spec("sp4_gothen", 4, (one, HolomorphicDatum.monomial(1.0, 1)))

    def reports():
        return [solve(make_system(sp4, g))] + [rep for _, rep in continuation_solve(at, ts)]

    got = reports()
    for rep in got:
        assert rep.converged
        assert rep.counters == {"factorizations": rep.iterations, "refinement_sweeps": 0,
                                "residual_evals": 1 + rep.iterations, "backtracks": 0}

    _fresh_band_solve_every_step(monkeypatch)
    refs = reports()
    assert len(refs) == len(got) == 1 + len(ts)
    for rep, ref in zip(got, refs):
        assert rep.state.u.tobytes() == ref.state.u.tobytes()
        assert rep.residual_norms == ref.residual_norms


def test_radial_solves_never_call_superlu(monkeypatch):
    def splu(*args, **kwargs):
        raise AssertionError("splu called on a radial Newton matrix")

    monkeypatch.setattr(spla, "splu", splu)
    g = radial(128)
    base = make_spec("general_cyclic", 3, (one, HolomorphicDatum.monomial(0.5, 1), one))
    reps = [solve(make_system(base, g))]
    reps += [rep for _, rep in continuation_solve(
        lambda t: make_system(scale_last_arrow(base, t), g), [0.0, 1.0, 2.0])]
    assert all(rep.converged and rep.counters["factorizations"] == rep.iterations > 0
               for rep in reps)


def test_singular_radial_newton_matrix_fails_the_solve(monkeypatch):
    # a zero column stops the banded LU at its first pivot: reported, not raised
    jacobian = solver.HitchinSystem.jacobian_matrix

    def singular(self, u):
        K = jacobian(self, u)
        K.data[K.indptr[0]:K.indptr[1]] = 0.0
        return K

    monkeypatch.setattr(solver.HitchinSystem, "jacobian_matrix", singular)
    rep = solve(make_system(make_spec("hitchin_component", 5, (one,)), radial()))
    assert not rep.converged and rep.iterations == 0
    assert rep.message.startswith("linear solve failed: ")
    assert rep.counters["factorizations"] == 1


def _record_factorisations(monkeypatch, fail_single=lambda count: False):
    """Record every holder and the dtype of every factorisation, asserting
    that no holder keeps one while another is made.  The single-precision
    factorisation numbered ``count`` (from 0) raises when ``fail_single``
    says so."""
    holders, dtypes, factor = [], [], solver._factor

    class Recorded(solver._NewtonLU):
        def __init__(self):
            super().__init__()
            holders.append(self)

    def stub(K, dtype=np.float64, order=None):
        assert all(h.lu is None for h in holders)
        if dtype is np.float32 and fail_single(dtypes.count(np.float32)):
            dtypes.append(dtype)
            raise RuntimeError("single-precision factorisation failed")
        dtypes.append(dtype)
        return factor(K, dtype, order)

    monkeypatch.setattr(solver, "_NewtonLU", Recorded)
    monkeypatch.setattr(solver, "_factor", stub)
    return holders, dtypes


def test_far_continuation_jump_refactors_and_never_holds_two_factorisations(monkeypatch):
    # t 0 -> 128 moves K too far for refinement with the t = 0 factorisation:
    # the kept one is released before the new one is made, and the solve
    # still converges in the steps of a fresh-factorisation solve.  Every
    # single-precision factorisation after the first fails here, so each
    # refactorisation falls back to double precision, also with none kept
    disc = build_grid(GridSpec("disc2d", 33, 0.8))
    family = make_spec("hitchin_component", 3, (quadratic,))

    def at(t):
        return make_system(replace(family, t=complex(t)), disc)

    with monkeypatch.context() as mp:
        _fresh_factor_every_step(mp)
        ref = continuation_solve(at, [0.0, 128.0])

    holders, dtypes = _record_factorisations(monkeypatch, fail_single=lambda count: count > 0)
    runs = continuation_solve(at, [0.0, 128.0])
    assert len(holders) == 1
    assert all(rep.converged for _, rep in runs)
    assert runs[1][1].counters["factorizations"] >= 1
    assert runs[1][1].counters["refinement_sweeps"] > 0  # the kept one was tried first
    assert dtypes[0] is np.float32 and len(dtypes) >= 3
    assert dtypes[1:] == [np.float32, np.float64] * (len(dtypes) // 2)
    made = sum(rep.counters["factorizations"] for _, rep in runs)
    assert holders[0].factorizations == made == 1 + len(dtypes) // 2
    assert [rep.iterations for _, rep in runs] == [rep.iterations for _, rep in ref]


def _torus_cyclic(scale, resolution=64):
    torus = build_grid(GridSpec("torus", resolution))
    x, y = torus.xy.T
    fields = [scale * (1.0 + 0.4 * np.cos(2.0 * np.pi * (kx * x + ky * y)))
              for kx, ky in ((1, 0), (0, 1), (1, 1))]
    return make_system(make_spec("general_cyclic", 3, (one, one, one)), torus, "periodic", fields)


def _direct(K, b, order=None):
    """K x = b by a float64 factorisation, of K[order][:, order] where an
    ``order`` is given, its solution put back in K's order."""
    if order is None:
        return solver._factor(K).solve(b)
    x = np.empty_like(b)
    x[order] = solver._factor(K, order=order).solve(b[order])
    return x


def _falls_back_to_a_direct_double_solve(monkeypatch, K, b, order):
    """With a forcing tolerance of 0, refinement through the float32
    factorisation of a nearly singular K cannot reach 4 eps, so K is factored
    again in float64 and solved directly, the float32 factorisation released
    first; both are made in ``order``, and the solution is in K's own."""
    ref = _direct(K, b, order)
    holders, dtypes = _record_factorisations(monkeypatch)
    lu = solver._NewtonLU()
    x = lu.solve(K, b, forcing=0.0, order=order)
    assert dtypes == [np.float32, np.float64]
    assert holders == [lu] and lu.factorizations == 2 and lu.dtype is np.float64
    assert lu.order is order
    assert x.tobytes() == ref.tobytes()
    assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps


def test_single_precision_that_cannot_refine_falls_back_to_a_direct_double_solve(monkeypatch):
    # with fields of size 1e-6 the torus K is nearly the singular periodic
    # Laplacian
    sys = _torus_cyclic(1e-6)
    u = sys.initial_state().u
    K, b = sys.jacobian_matrix(u), (-sys.residual_array(u) @ sys.gram).ravel()  # all nodes free
    assert sys.order is None
    _falls_back_to_a_direct_double_solve(monkeypatch, K, b, None)


def test_single_precision_that_cannot_refine_falls_back_in_the_node_order(monkeypatch):
    # disc2d hitchin-4, its K shifted to 1e-7 of its eigenvalue nearest zero,
    # in the node order a Newton step uses
    sys = make_system(make_spec("hitchin_component", 4, (quadratic,)),
                      build_grid(GridSpec("disc2d", 17, 0.8)))
    u = sys.initial_state().u
    K = sys.jacobian_matrix(u)
    shift = (1.0 - 1e-7) * np.abs(np.linalg.eigvalsh(K.toarray())).min()
    b = (-sys.residual_array(u)[sys.free] @ sys.gram).ravel()
    assert sys.order is not None
    _falls_back_to_a_direct_double_solve(
        monkeypatch, (K + shift * sp.identity(K.shape[0])).tocsc(), b, sys.order)


@pytest.mark.parametrize("failure", ["raises", "overflows"])
def test_failed_single_precision_factorisation_falls_back(monkeypatch, failure):
    # a float32 factorisation that SuperLU refuses, or whose cast overflows,
    # is replaced by a float64 one instead of failing the solve
    disc = build_grid(GridSpec("disc2d", 33, 0.8))
    sys = make_system(make_spec("hitchin_component", 4, (quadratic,)), disc)
    factor = solver._factor

    def stub(K, dtype=np.float64, order=None):
        if dtype is np.float32:
            if failure == "raises":
                raise RuntimeError("Factor is exactly singular")
            K = K * 2.0**200  # beyond the float32 range: the cast raises
        return factor(K, dtype, order)

    monkeypatch.setattr(solver, "_factor", stub)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is caught at the cast, not left to SuperLU
        rep = solve(sys, config=SolverConfig(tol_residual=1e-10))
    assert rep.converged and rep.iterations == 2
    assert rep.counters["factorizations"] == 1


@pytest.mark.parametrize("size", [1e-300, 1e300])
def test_right_hand_sides_far_outside_single_range_refine_in_single_precision(size):
    # each right-hand side is scaled to max-norm ~1 before its float32 cast,
    # so sizes that would flush to zero or overflow there still refine
    disc = build_grid(GridSpec("disc2d", 17, 0.8))
    sys = make_system(make_spec("hitchin_component", 3, (quadratic,)), disc)
    K = sys.jacobian_matrix(sys.initial_state().u)
    b = np.random.default_rng(2).normal(size=K.shape[0])
    lu = solver._NewtonLU()
    x = lu.solve(K, size * b)
    assert lu.factorizations == 1 and lu.dtype is np.float32
    ref = solver._factor(K).solve(b)
    np.testing.assert_allclose(x / size, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def _backward_error(K, x, b):
    return np.abs(b - K @ x).max() / (spla.norm(K, np.inf) * np.abs(x).max() + np.abs(b).max())


def test_slowly_contracting_refinement_refactors_after_few_sweeps(monkeypatch):
    # adding a random fraction of its diagonal to K0 spreads the spectrum of
    # LU(K0)^-1 K over [1, 40]: conjugate gradients would need several times
    # the iteration cap to reach 4 eps, so they run to the cap and K is
    # factored afresh
    disc = build_grid(GridSpec("disc2d", 33, 0.8))
    sys = make_system(make_spec("hitchin_component", 3, (quadratic,)), disc)
    K0 = sys.jacobian_matrix(sys.initial_state().u)
    rng = np.random.default_rng(5)
    b = rng.normal(size=K0.shape[0])
    lu = solver._NewtonLU()
    lu.solve(K0, b)
    before, seen, factor = lu.refinement_sweeps, [], solver._factor

    def stub(K, dtype=np.float64, order=None):
        seen.append(lu.refinement_sweeps - before)
        return factor(K, dtype, order)

    monkeypatch.setattr(solver, "_factor", stub)
    K = (K0 + sp.diags(K0.diagonal() * rng.uniform(size=K0.shape[0]))).tocsc()
    x = lu.solve(K, b)
    assert lu.factorizations == 2 and seen == [solver._MAX_SWEEPS]
    assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps


def test_stale_unsymmetric_factorisation_still_preconditions_to_4_eps():
    # SuperLU's single-precision factors with diagonal pivots are not exactly
    # symmetric, so conjugate gradients run with a preconditioner that is
    # only nearly so.  Through the t = 0 factorisation they still solve the
    # Newton matrix at the converged t = 8 state, whose spectrum relative to
    # it spans [1, 1.3]: stationary refinement would contract by only 0.3 a
    # sweep there and give up
    disc = build_grid(GridSpec("disc2d", 33, 0.8))
    family = make_spec("hitchin_component", 3, (quadratic,))
    sys0 = make_system(family, disc)
    sys8 = make_system(replace(family, t=8.0), disc)
    K = sys8.jacobian_matrix(solve(sys8).state.u)
    lu = solver._NewtonLU()
    lu._keep(sys0.jacobian_matrix(sys0.initial_state().u), np.float32)
    u, v, *rhs = np.random.default_rng(1).normal(size=(5, K.shape[0]))
    assert u @ lu._apply(v) != v @ lu._apply(u)
    for b in rhs:
        before = lu.refinement_sweeps
        x = lu._refine(K, b)
        assert x is not None and 0 < lu.refinement_sweeps - before < solver._MAX_SWEEPS
        assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("case, n", [
    pytest.param(case, n, id=case + (", node order" if n == 4 else ""))
    for n in (3, 4) for case in ("indefinite matrix", "positive definite factorisation")])
def test_conjugate_gradients_break_down_at_once_on_a_wrong_sign(case, n):
    # CG needs -K and minus the kept factorisation positive definite.
    # Shifting K0 past its eigenvalue nearest zero gives K a direction of
    # positive curvature, p^T K p > 0; a kept factorisation of -K0 gives
    # r^T z > 0.  Either way refinement gives up before its first iteration.
    # Rank 4 factors K in the node order a Newton step uses
    disc = build_grid(GridSpec("disc2d", 33, 0.8))
    sys = make_system(make_spec("hitchin_component", n, (quadratic,)), disc)
    order = sys.order
    assert (order is None) == (n == 3)
    K0 = sys.jacobian_matrix(sys.initial_state().u)
    if case == "indefinite matrix":
        shift = 3.0 * np.abs(np.linalg.eigvalsh(K0.toarray())).min()
        K, kept = (K0 + shift * sp.identity(K0.shape[0])).tocsc(), K0
    else:
        K, kept = K0, -K0
    b = np.random.default_rng(3).normal(size=K0.shape[0])
    lu = solver._NewtonLU()
    lu._keep(kept, np.float32, order)
    assert lu._refine(K, b) is None and lu.refinement_sweeps == 0
    x = lu.solve(K, b, order=order)
    assert lu.order is order
    if case == "indefinite matrix":
        # a fresh single-precision factorisation is indefinite too: K is
        # factored in double precision and solved directly
        assert lu.dtype is np.float64 and x.tobytes() == _direct(K, b, order).tobytes()
    else:
        assert lu.dtype is np.float32 and lu.factorizations == 2
        assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps


_ORDER_GRIDS = {"disc2d33": GridSpec("disc2d", 33, 0.8), "torus16": GridSpec("torus", 16)}


@pytest.mark.parametrize("grid", sorted(_ORDER_GRIDS))
@pytest.mark.parametrize("variant, n", [("general_cyclic", 3), ("hitchin_component", 3),
                                        ("hitchin_component", 4), ("hitchin_component", 6),
                                        ("slnr_even", 4), ("slnr_odd", 5), ("sp4_gothen", 4)])
def test_node_order_is_used_exactly_where_the_gram_matrix_has_a_zero(grid, variant, n):
    # E^T E = 2 I (the symmetric variants with m >= 2) has zeros, and only
    # there, on the disc2d lattice, is K factored in the grid's node order,
    # each node's m unknowns together.  Elsewhere the step is the bytes of
    # a solve through SuperLU's own order of K
    g = build_grid(_ORDER_GRIDS[grid])
    datum = quadratic if g.kind == "disc2d" else HolomorphicDatum.constant(0.5)
    size = {"general_cyclic": n, "hitchin_component": 1, "sp4_gothen": 2}.get(variant, n // 2 + 1)
    sys = make_system(make_spec(variant, n, (one,) * (size - 1) + (datum,)), g,
                      "periodic" if g.kind == "torus" else "fuchsian")
    rng = np.random.default_rng(n)
    u = sys.initial_state().u
    u[sys.free] += 0.1 * rng.normal(size=(sys.free.sum(), sys.m))
    r = sys.residual_array(u)
    K, b = sys.jacobian_matrix(u), (-r[sys.free] @ sys.gram).ravel()  # the boundary step is 0
    lu = solver._NewtonLU()
    x = solver._newton_step(sys, u, r, lu)[sys.free].ravel()
    used = sys.order is not None
    assert (not np.all(sys.gram)) == (sys.m > 1 and variant != "general_cyclic")
    assert used == (g.kind == "disc2d" and not np.all(sys.gram))
    assert lu.order is sys.order and lu.factorizations == 1
    assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps
    if not used:
        assert x.tobytes() == solver._NewtonLU().solve(K, b).tobytes()
        return
    unknowns = sys.order.reshape(-1, sys.m)
    nodes = unknowns[:, 0] // sys.m
    assert np.array_equal(unknowns, nodes[:, None] * sys.m + np.arange(sys.m))
    assert np.array_equal(np.sort(nodes), np.arange(sys.free.sum()))


@pytest.mark.parametrize("grid", [GridSpec("disc2d", 65, 0.8), GridSpec("torus", 32)],
                         ids=["disc2d65", "torus32"])
@pytest.mark.parametrize("n", [4, 6])
def test_the_node_order_fills_less_on_the_disc_and_more_on_the_torus(grid, n):
    # with E^T E = 2 I, K's factor in the node order has less fill than in
    # SuperLU's own order of K on the disc2d lattice (here from 65 on; at
    # 17 and 33 it has 3-8 % more, and those factor in milliseconds) and
    # more on the periodic torus lattice, which therefore keeps its own
    g = build_grid(grid)
    datum = quadratic if g.kind == "disc2d" else HolomorphicDatum.constant(0.5)
    sys = make_system(make_spec("hitchin_component", n, (datum,)), g,
                      "periodic" if g.kind == "torus" else "fuchsian")
    K = sys.jacobian_matrix(sys.initial_state().u)
    node = (g.node_order()[:, None] * sys.m + np.arange(sys.m)).ravel()
    fill = solver._factor(K, np.float32, node).nnz / solver._factor(K, np.float32).nnz
    assert (sys.order is not None) == (fill < 1) == (g.kind == "disc2d")


@functools.cache
def _newton_matrix(variant):
    """K at the seed, and the order a Newton step factors it in."""
    if variant == "torus-cyclic3":
        sys = _torus_cyclic(1.0, 16)
    else:
        name, n, data = {"disc2d-hitchin4": ("hitchin_component", 4, (quadratic,)),
                         "disc2d-cyclic3": ("general_cyclic", 3, (one, one, quadratic))}[variant]
        sys = make_system(make_spec(name, n, data, t=2.0),
                          build_grid(GridSpec("disc2d", 17, 0.8)))
    assert (sys.order is None) == (variant != "disc2d-hitchin4")
    return sys.jacobian_matrix(sys.initial_state().u), sys.order


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(variant=st.sampled_from(["disc2d-hitchin4", "disc2d-cyclic3", "torus-cyclic3"]),
       spread=st.floats(0.0, 1.0), exponent=st.floats(-300.0, 300.0),
       seed=st.integers(0, 2**32 - 1))
def test_refinement_through_a_perturbed_factorisation_meets_4_eps_or_refactors(
        variant, spread, exponent, seed):
    # the kept factorisation is of K plus up to ``spread`` times its diagonal,
    # and b has max-norm from 1e-300 to 1e300: refinement either meets the
    # 4 eps backward error or K is factored afresh.  A factorisation of K
    # itself refines at every scale, because b is scaled to max-norm ~1
    # before conjugate gradients form r^T z.  disc2d hitchin-4 is factored
    # in the node order a Newton step uses
    K, order = _newton_matrix(variant)
    rng = np.random.default_rng(seed)
    stale = (K + sp.diags(spread * K.diagonal() * rng.uniform(size=K.shape[0]))).tocsc()
    b = 10.0**exponent * rng.normal(size=K.shape[0])
    lu = solver._NewtonLU()
    lu._keep(stale, np.float32, order)
    x = lu.solve(K, b, order=order)
    assert lu.factorizations == 1 or spread > 0
    if lu.dtype is np.float32:  # refined, through the kept factorisation or a fresh one
        assert _backward_error(K, x, b) <= 4 * np.finfo(float).eps

"""Newton solver behaviour: convergence, failure reporting, continuation."""

import numpy as np
import pytest

from hitchinlab.geometry import GridSpec, HolomorphicDatum, build_grid
from hitchinlab.solver import SolverConfig, SolveReport, continuation_solve, solve
from hitchinlab.system import LogMetricState, make_spec, make_system, scale_last_arrow

one = HolomorphicDatum.constant(1.0)


def radial(n=64, radius=0.8):
    return build_grid(GridSpec("radial_disc", n, radius))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(backtrack_factor=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_newton_iters=0)


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
    np.testing.assert_allclose(r, rep.state.residual_norm, rtol=1e-12)


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
        "step_sizes", "message", "wall_time_s",
    }
    assert isinstance(rep, SolveReport)
    assert d["converged"] is True
    assert d["final_residual"] == rep.residual_norms[-1]


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

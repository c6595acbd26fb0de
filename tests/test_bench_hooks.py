"""The benchmark's tracer must keep finding what it wraps in the library.

``perfbench/tracing.py`` wraps library functions and methods by name, so a
renamed or removed entry point would silently drop out of the traced pass.
``perfbench/workloads.py`` names operations from the library's data, so a
change there would rename what the benchmark compares.  Both modules are
loaded read-only: no bytecode is written next to them.
"""

import importlib.util
import inspect
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hitchinlab import analysis, geometry, solver, system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module     # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _targets(tracing):
    return [(owner, attr) for owner, attr, _, _ in tracing.FUNCTIONS + tracing.METHODS]


def test_every_traced_target_resolves(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in _targets(tracing)
               if not callable(getattr(owner, attr, None))]
    assert not missing


def _snapshot(tracing):
    owners = [m for k, m in sys.modules.items()
              if k == "hitchinlab" or k.startswith("hitchinlab.")]
    owners += [cls for cls, _, _, _ in tracing.METHODS] + [spla]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_tracer_wraps_every_target_and_restores_every_attribute(tracing):
    before = _snapshot(tracing)
    with tracing.Tracer() as tracer:
        for owner, attr in _targets(tracing) + [(spla, "splu")]:
            assert getattr(owner, attr) is not before[id(owner)][1][attr], attr
        # a small solve, looked up as the library's callers look it up; a
        # disc2d Newton matrix is factored by splu
        grid = geometry.build_grid(geometry.GridSpec("disc2d", 9, 0.8))
        spec = system.make_spec("hitchin_component", 3,
                                (geometry.HolomorphicDatum.monomial(1.0, 1),))
        assert solver.solve(system.make_system(spec, grid)).converged
    for owner, attrs in before.values():
        now = dict(vars(owner))
        changed = [k for k in attrs.keys() | now.keys() if attrs.get(k) is not now.get(k)]
        assert not changed, (owner, changed)
    names = {s.name for s in tracer.spans}
    assert {"geometry.build_grid", "geometry.norm_sq", "system.make_system", "solver.solve",
            "system.residual", "system.jacobian", "solver.factor"} <= names


def test_traced_factorisations_equal_the_solvers_own_count(tracing):
    # the benchmark counts a span per splu call, named after the layer that
    # encloses it; the library counts each factorisation it makes.  A small
    # disc2d continuation whose jump to t = 128 refactors, and a
    # near-singular torus step solved outside any solve at forcing
    # tolerance 0, whose single-precision factorisation falls back to a double
    # one, must count the same
    disc = geometry.build_grid(geometry.GridSpec("disc2d", 33, 0.8))
    quadratic = geometry.HolomorphicDatum.polynomial([-0.25, 0.0, 1.0])
    family = system.make_spec("hitchin_component", 3, (quadratic,))
    torus = geometry.build_grid(geometry.GridSpec("torus", 64))
    cyclic = system.make_spec("general_cyclic", 3, (geometry.HolomorphicDatum.constant(1.0),) * 3)
    x, y = torus.xy.T
    fields = [1e-6 * (1.0 + 0.4 * np.cos(2.0 * np.pi * (kx * x + ky * y)))
              for kx, ky in ((1, 0), (0, 1), (1, 1))]
    near_singular = system.make_system(cyclic, torus, "periodic", fields)
    u = near_singular.initial_state().u
    lu = solver._NewtonLU()
    with tracing.Tracer() as tracer:
        reports = [rep for _, rep in solver.continuation_solve(
            lambda t: system.make_system(replace(family, t=complex(t)), disc),
            [0.0, 1.0, 2.0, 128.0])]
        solver._newton_step(near_singular, u, near_singular.residual_array(u), lu)
    assert all(rep.converged for rep in reports)
    made = [rep.counters["factorizations"] for rep in reports] + [lu.factorizations]
    assert made == [1, 0, 0, 1, 2]
    factors = Counter(s.name for s in tracer.spans if s.name.endswith(".factor"))
    assert factors == {"solver.factor": sum(made[:-1]), "bench.factor": made[-1]}


def test_traced_sym_space_counts_its_sampled_planes(tracing):
    # the plane counter binds verify_sym_space's signature: ranks 2 and 3 are
    # sampled in sl_real and sl_complex, and rank 2 alone in sp_real
    with tracing.Tracer() as tracer:
        assert analysis.verify_sym_space(20, 0, (2, 3))["passed"]
    assert tracer.counters["analysis.sym_planes"] == 20 * 5
    # the suites workload passes these arguments by position; the counter reads samples by name
    bound = inspect.signature(analysis.verify_sym_space).bind(10000, 0, (2, 3, 4, 5, 6))
    assert bound.arguments["samples"] == 10000


def test_traced_max_principle_sees_the_solves_made_on_worker_threads(tracing, monkeypatch):
    # the certified solves run on a thread pool and look their function up
    # on the module at call time, so the tracer's wrapper sees each one: 200
    # suite solves, each factored under the maxprin layer, and no refusal, as
    # the negative controls are only flagged; three workers make a pool on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with tracing.Tracer() as tracer:
        assert analysis.verify_max_principle(200, 0)["passed"]
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, tracer.hook_s, 1.0)
    assert metrics["maxprin.coop_solves"] == 200
    assert metrics["maxprin.refusals"] == 0
    assert Counter(s.name for s in tracer.spans if s.name.endswith(".factor")) == {
        "maxprin.factor": 200}


def test_radial_study_names_its_battery_by_datum_kind_and_degree(workloads):
    # the names are f"{q.kind}{q.degree}" of each datum; the benchmark pairs
    # operations across commits by name
    names = [op.name for op in workloads.radial_study(0)]
    battery = [n for n in names if n.split("/")[0] in ("nu-bounds", "curvature")]
    assert len(battery) == 18
    assert set(battery) == {f"{theorem}/n{n}-{q}" for theorem in ("nu-bounds", "curvature")
                            for n in (3, 4, 5) for q in ("monomial1", "monomial2", "constant0")}

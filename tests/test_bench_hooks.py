"""The benchmark's tracer must keep finding what it wraps in the library.

``perfbench/tracing.py`` wraps library functions and methods by name, so a
renamed or removed entry point would silently drop out of the traced pass.
The tracer module is loaded read-only: no bytecode is written next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

from hitchinlab import geometry, solver, system

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module     # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


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
        # a small solve, looked up as the library's callers look it up
        grid = geometry.build_grid(geometry.GridSpec("radial_disc", 16, 0.8))
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

"""hitchinlab: a planar laboratory for cyclic coupled curvature systems.

The package discretizes families of coupled log-metric equations attached
to tuples of holomorphic data on a disc or torus chart, solves them by
damped Newton iteration, and checks the qualitative theory — scale
monotonicity, interior ratio bounds, curvature pinching, fiberwise metric
domination — with explicit numerical margins and a certified cooperative
maximum principle as the cross-check.
"""

from .geometry import Grid, GridSpec, HolomorphicDatum, build_grid
from .solver import SolveReport, SolverConfig, continuation_solve, solve
from .system import CyclicSpec, LogMetricState, make_spec, make_system

__version__ = "0.1.0"

__all__ = [
    "Grid", "GridSpec", "HolomorphicDatum", "build_grid",
    "CyclicSpec", "LogMetricState", "make_spec", "make_system",
    "SolverConfig", "SolveReport", "solve", "continuation_solve",
    "__version__",
]

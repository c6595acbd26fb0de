"""Spec moves read only by the tests: the gauge acceptance criterion and the
scale families of the solver and maximum-principle tests are built on them."""

from dataclasses import replace

import numpy as np

from hitchinlab.system import CyclicSpec


def scale_last_arrow(spec: CyclicSpec, t: complex) -> CyclicSpec:
    """(gamma_1, ..., gamma_n) -> (gamma_1, ..., t * gamma_n)."""
    return replace(spec, t=spec.t * complex(t))


def gauge_image(spec: CyclicSpec, t: complex) -> CyclicSpec:
    """Multiply every arrow by t^(1/n) (principal root).

    Scaling the last arrow by t and scaling all arrows by t^(1/n) give
    gauge-equivalent bundles; their solved pullback metrics must agree once
    boundary data is shifted consistently (see ``gauge_log_offsets``).
    """
    t = complex(t)
    if t == 0:
        raise ValueError("gauge image needs t != 0")
    root = t ** (1.0 / spec.n)
    return replace(spec, data=tuple(d.scaled(root) for d in spec.data))


def gauge_log_offsets(spec: CyclicSpec, t: complex) -> np.ndarray:
    """Constant shifts of log h_k matching gauge_image against scale_last_arrow.

    The diagonal gauge that rescales the last arrow shifts
    log h_k by ((n + 1 - 2k)/n) log|t| for k = 1..n; the first n_unknowns
    entries apply to the independent unknowns of either formulation.
    """
    n = spec.n
    lt = np.log(abs(complex(t)))
    return np.array([(n + 1 - 2 * k) / n * lt for k in range(1, spec.n_unknowns + 1)])

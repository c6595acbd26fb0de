"""Derived geometry of solved states and theorem-verification reports.

From a solved log-metric state this module computes the pullback metric of
the harmonic map, the interior ratio invariants of Hitchin-section states,
the extrinsic curvature of the image surface, the dedicated rank-4
curvature formula, and sectional curvatures of the ambient symmetric
space.  On top of those sit ``verify_*`` runners that orchestrate solves
and produce machine-checkable verdicts with explicit margins; the CLI and
the acceptance suite both call these.  ``scale_family`` solves a t-family
(stability gate, continuation, per-member metric) for both
``verify_monotonicity`` and the CLI's ``sweep``.

Pairwise comparisons measure their margins on the log scale, field by
field, and call a margin resolved when it exceeds

    max(10 * solver_tol, MARGIN_COEFF_PAIRED * spacing^2 * max|margin field|)

Both states are solved on the same grid, so the shared discretisation bias
cancels up to a term proportional to the difference field itself.  The
curvature windows of ``verify_curvature_bounds`` and ``verify_sp4_bounds``
are checked with the fixed slack ``CURVATURE_SLACK`` at every spacing, and
the ratio bounds of ``verify_nu_bounds`` with no threshold at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .geometry import Grid, HolomorphicDatum, eval_norm_squared, zero_set
from .solver import SolverConfig, continuation_solve, solve
from .system import (
    CyclicSpec,
    LogMetricState,
    arrow_coefficients,
    arrow_kernel,
    expand_log_metrics,
    make_system,
    stability_check,
)
from . import maxprin

MARGIN_COEFF_PAIRED = 1.0
CURVATURE_SLACK = 1e-6


# -- basic derived fields --------------------------------------------------


def arrow_terms(spec: CyclicSpec, state: LogMetricState) -> np.ndarray:
    """All n arrow terms |gamma_k|^2 h_k^{-1} h_{k+1}, (N, n), t^2 included."""
    return arrow_kernel(arrow_coefficients(spec, state.grid), expand_log_metrics(spec, state))


def metric_ratio_fields(spec: CyclicSpec, state: LogMetricState) -> np.ndarray:
    """Consecutive metric ratios h_k^{-1} h_{k+1}, (N, n).

    The corner column carries the |t|^2 factor (so it is the quantity that
    is monotone in the family scale); the holomorphic coefficients are not
    included.
    """
    w = expand_log_metrics(spec, state)
    ratios = np.exp(np.roll(w, -1, axis=1) - w)
    ratios[:, -1] *= spec.scale_sq
    return ratios


@dataclass
class MetricReport:
    """Pullback metric g = 2n * sum_k arrow_k (coefficient of dz dzbar)."""

    spec: CyclicSpec
    grid: Grid
    density: np.ndarray          # (N,) metric coefficient
    arrows: np.ndarray           # (N, n) individual arrow terms
    morse_energy: float

    def to_json_dict(self) -> dict:
        return {
            "variant": self.spec.variant,
            "n": self.spec.n,
            "t": [self.spec.t.real, self.spec.t.imag],
            "density_min": float(self.density.min()),
            "density_max": float(self.density.max()),
            "morse_energy": self.morse_energy,
        }


def pullback_metric(spec: CyclicSpec, state: LogMetricState) -> MetricReport:
    """Metric pulled back by the harmonic map, plus the integrated energy.

    The energy integrates tr(phi phi*) = sum_k arrow_k against the area
    form 2 dx dy (the real form of the |dz|^2 volume).
    """
    a = arrow_terms(spec, state)
    density = 2.0 * spec.n * a.sum(axis=1)
    energy = float((a.sum(axis=1) * 2.0 * state.grid.area_weights()).sum())
    return MetricReport(spec, state.grid, density, a, energy)


# -- interior ratio invariants ---------------------------------------------


@dataclass
class NuRatioReport:
    values: np.ndarray           # (m, N) ratio fields
    reference: list[Fraction]    # exact uniformising values, per k
    n: int


def nu_ratios(spec: CyclicSpec, state: LogMetricState) -> NuRatioReport:
    """Successive arrow-term ratios of a Hitchin-section state.

    nu_1 = (corner term)/(first rung term); nu_k = a_{k-1}/a_k for
    k = 2..m.  At the uniformising solution these equal the exact rationals
    (k-1)(n+1-k) / (k(n-k)) (zero for k = 1); the interior bounds theorem
    places the solved ratios strictly between those values and 1 away from
    the zeros of q_n.
    """
    if spec.variant != "hitchin_component":
        raise ValueError("ratio invariants are defined for hitchin_component states")
    n, m = spec.n, spec.n_unknowns
    a = arrow_terms(spec, state)
    vals = np.empty((m, state.grid.n_nodes))
    vals[0] = a[:, n - 1] / a[:, 0]
    for k in range(2, m + 1):
        vals[k - 1] = a[:, k - 2] / a[:, k - 1]
    ref = [Fraction(0)] + [Fraction((k - 1) * (n + 1 - k), k * (n - k)) for k in range(2, m + 1)]
    return NuRatioReport(vals, ref, n)


# -- extrinsic curvature ---------------------------------------------------


@dataclass
class CurvatureReport:
    k_sigma: np.ndarray          # (N,), NaN where undefined
    defined_mask: np.ndarray     # (N,) bool: image surface defined (phi != 0)
    n: int

    def interior_range(self, region: np.ndarray) -> tuple[float, float]:
        sel = region & self.defined_mask
        vals = self.k_sigma[sel]
        return float(vals.min()), float(vals.max())


def extrinsic_curvature(spec: CyclicSpec, state: LogMetricState) -> CurvatureReport:
    """Curvature of the image of the harmonic map in the symmetric space.

    For rank >= 3 the cyclic structure gives the closed form

        K = - sum_k (a_k - a_{k+1})^2 / (2 n (sum_k a_k)^2)

    over the arrow terms a_k (cyclically).  Branch points (all arrows
    vanishing) are masked.  For rank 2 the image is totally geodesic of
    constant curvature -1/2, which is reported directly.
    """
    a = arrow_terms(spec, state)
    total = a.sum(axis=1)
    defined = total > 0.0
    k_sigma = np.full(state.grid.n_nodes, np.nan)
    if spec.n == 2:
        k_sigma[defined] = -0.5
        return CurvatureReport(k_sigma, defined, spec.n)
    diff = a - np.roll(a, -1, axis=1)
    num = (diff**2).sum(axis=1)
    k_sigma[defined] = -num[defined] / (2.0 * spec.n * total[defined] ** 2)
    return CurvatureReport(k_sigma, defined, spec.n)


@dataclass
class Sp4CurvatureReport:
    f1: np.ndarray
    f2: np.ndarray
    k_sigma: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "f1_max": float(self.f1.max()), "f2_max": float(self.f2.max()),
            "k_min": float(self.k_sigma.min()), "k_max": float(self.k_sigma.max()),
        }


def sp4_curvature(spec: CyclicSpec, state: LogMetricState) -> Sp4CurvatureReport:
    """Rank-4 curvature through the two coefficient ratios.

    f1 = |nu|^2 h_1^2 / (h_1^{-1} h_2), f2 = |mu|^2 h_2^{-2} / (h_1^{-1} h_2);
    then K = -[(f1-1)^2 + (f2-1)^2] / (4 (2 + f1 + f2)^2), which agrees with
    the general cyclic formula on the unfolded state.
    """
    if spec.variant != "sp4_gothen":
        raise ValueError("this formula is specific to sp4_gothen states")
    a = arrow_terms(spec, state)       # (a1, a2=mu-term, a3=a1, a4=nu-term)
    f1 = a[:, 3] / a[:, 0]
    f2 = a[:, 1] / a[:, 0]
    k = -((f1 - 1.0) ** 2 + (f2 - 1.0) ** 2) / (4.0 * (2.0 + f1 + f2) ** 2)
    return Sp4CurvatureReport(f1, f2, k)


# -- symmetric-space sectional curvature -----------------------------------

SYM_GROUPS = ("sl_real", "sl_complex", "sp_real")

# planes drawn and evaluated at once by verify_sym_space: enough to amortise
# numpy's per-call cost, few enough that a block's temporaries stay well
# below the memory the other verify suites already take (one block of all
# 10000 default samples raises peak RSS by about 45 MB, 2000 by about 7 MB)
SYM_BLOCK = 256


def _sectional_curvatures(Y: np.ndarray, Z: np.ndarray):
    """Curvatures of stacked planes and the mask of degenerate ones.

    Y, Z have shape (..., n, n).  Raises ValueError if any matrix is not a
    square trace-free Hermitian matrix; a degenerate plane is not an error
    here but is flagged, and its curvature is meaningless.
    """
    Y = np.asarray(Y)
    Z = np.asarray(Z)
    if Y.ndim < 2 or Y.shape[-1] != Y.shape[-2] or Z.shape != Y.shape:
        raise ValueError("tangent vectors must be square matrices of equal size")
    n = Y.shape[-1]
    for M in (Y, Z):
        scale = 1e-10 * (1 + np.abs(M).max(axis=(-2, -1)))
        if (np.abs(np.trace(M, axis1=-2, axis2=-1)) > scale).any():
            raise ValueError("tangent vectors must be trace-free")
        if (np.abs(M - M.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) > scale).any():
            raise ValueError("tangent vectors must be Hermitian/symmetric")
    B = lambda X, W: 2.0 * n * np.trace(X @ W, axis1=-2, axis2=-1).real
    with np.errstate(divide="ignore", invalid="ignore"):    # degenerate planes
        # orthogonalise the plane first: evaluating the Gram determinant
        # directly cancels catastrophically for nearly parallel draws, while
        # after projection both factors of the denominator are positive norms
        by = B(Y, Y)
        Zp = Z - (B(Y, Z) / by)[..., None, None] * Y
        bz = B(Zp, Zp)
        # negated so that the NaN a zero Y leaves in bz is flagged as well
        degenerate = ~(bz > 1e-12 * np.maximum(B(Z, Z), 1e-300))
        comm = Y @ Zp - Zp @ Y
        # comm is anti-Hermitian, so B(comm, comm) = -2n ||comm||_F^2; writing
        # it as a negated norm keeps the numerator exactly nonpositive
        num = -2.0 * n * (np.abs(comm) ** 2).sum(axis=(-2, -1))
        return num / (by * bz), degenerate


def symmetric_space_curvature(Y: np.ndarray, Z: np.ndarray):
    """Sectional curvature of span(Y, Z) in the relevant symmetric space.

    Y, Z are trace-free Hermitian (or real symmetric) tangent vectors, or
    stacks of them of shape (..., n, n); with the scaled trace form
    B(X, W) = 2n tr(XW),

        K = B([Y, Z], [Y, Z]) / (B(Y,Y) B(Z,Z) - B(Y,Z)^2).

    The commutator is anti-Hermitian so the numerator is <= 0, and the
    value lies in [-1/n, 0].  A single pair gives a float, a stack an array
    of its leading shape; any degenerate plane refuses the whole call.
    """
    k, degenerate = _sectional_curvatures(Y, Z)
    if degenerate.any():
        raise ValueError("tangent vectors do not span a nondegenerate plane")
    return float(k) if k.ndim == 0 else k


def random_tangent_planes(group: str, n: int, rng: np.random.Generator, count: int):
    """``count`` random pairs of tangent vectors for the given group.

    Returns two (count, n, n) stacks Y, Z.  One normal draw fills the batch
    plane by plane, Y before Z, so a batch takes the same stream as drawing
    its matrices one at a time in that order.
    """
    if group == "sl_real":
        A = rng.standard_normal((count, 2, n, n))
        S = (A + A.swapaxes(-2, -1)) / 2.0
        P = S - (np.trace(S, axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n)
    elif group == "sl_complex":
        G = rng.standard_normal((count, 2, 2, n, n))    # (plane, Y/Z, re/im)
        A = G[:, :, 0] + 1j * G[:, :, 1]
        H = (A + A.conj().swapaxes(-2, -1)) / 2.0
        P = H - (np.trace(H, axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)
    elif group == "sp_real":
        if n % 2:
            raise ValueError("sp_real needs even n")
        m = n // 2
        G = rng.standard_normal((count, 2, 2, m, m))    # (plane, Y/Z, A/B)
        G = (G + G.swapaxes(-2, -1)) / 2.0
        A, Bm = G[:, :, 0], G[:, :, 1]
        P = np.block([[A, Bm], [Bm, -A]])
    else:
        raise ValueError(f"unknown group {group!r}")
    return P[:, 0], P[:, 1]


def extremal_plane(group: str, n: int, i: int = 0, j: int = 1):
    """A plane realising the pinched value -1/n."""
    if group in ("sl_real", "sl_complex"):
        if not (0 <= i < j < n):
            raise ValueError("need 0 <= i < j < n")
        Y = np.zeros((n, n))
        Y[i, j] = Y[j, i] = 1.0
        Z = np.zeros((n, n))
        Z[i, i], Z[j, j] = 1.0, -1.0
        return Y, Z
    if group == "sp_real":
        m = n // 2
        if n % 2 or not 0 <= i < m:
            raise ValueError("sp_real needs even n and 0 <= i < n/2")
        Y = np.zeros((n, n))
        Y[i, m + i] = Y[m + i, i] = 1.0
        Z = np.zeros((n, n))
        Z[i, i], Z[m + i, m + i] = 1.0, -1.0
        return Y, Z
    raise ValueError(f"unknown group {group!r}")


# -- pairwise comparisons --------------------------------------------------


@dataclass
class DominationReport:
    """Outcome of a strict pointwise comparison on a verdict region.

    ``margins`` holds the per-field minimum log-scale margins; the verdict
    is true only when every margin exceeds its per-field threshold.  In a
    two-solve comparison the shared discretization bias cancels up to a
    term proportional to the difference field itself, so the resolvable
    threshold is max(10 * tol, C * h^2 * max|field|) rather than an
    absolute C * h^2.
    """

    quantity: str
    verdict: bool
    margins: list[float]
    thresholds: list[float]
    region_nodes: int
    notes: str = ""

    @property
    def min_margin(self) -> float:
        return min(self.margins) if self.margins else np.nan

    @property
    def threshold(self) -> float:
        return max(self.thresholds) if self.thresholds else np.nan

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "verdict": self.verdict,
            "min_margin": self.min_margin,
            "margins": self.margins,
            "thresholds": self.thresholds,
            "region_nodes": self.region_nodes,
            "notes": self.notes,
        }


def _log_margin_report(quantity, lower_fields, upper_fields, masks, region, grid,
                       solver_tol, notes=""):
    """Per-field min of log(hi) - log(lo) over each field's mask, thresholded."""
    margins, thresholds = [], []
    floor = 10.0 * solver_tol
    for lo, hi, mask in zip(lower_fields, upper_fields, masks):
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.log(hi[mask]) - np.log(lo[mask])
        margins.append(float(np.min(m)))
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        thresholds.append(max(floor, MARGIN_COEFF_PAIRED * grid.spacing**2 * scale))
    verdict = bool(all(m > t for m, t in zip(margins, thresholds)))
    return DominationReport(quantity, verdict, margins, thresholds,
                            int(region.sum()), notes)


def compare_states(
    spec_a: CyclicSpec, state_a: LogMetricState,
    spec_b: CyclicSpec, state_b: LogMetricState,
    quantity: str = "pullback_metric",
    margin_cells: int = 5,
    solver_tol: float = 1e-10,
) -> DominationReport:
    """Strict domination check: does the b-state dominate the a-state?

    ``quantity`` selects pullback metric density, consecutive metric
    ratios (corner included only when both scales are nonzero), or the
    weighted harmonic-metric components (b must then be the
    Hitchin-section partner and the inequality runs the other way:
    a-components dominate the weighted b-components).
    """
    grid = state_a.grid
    if state_b.grid.n_nodes != grid.n_nodes or state_b.grid.spacing != grid.spacing:
        raise ValueError("states must be solved on the same grid")
    region = grid.verdict_region(margin_cells)
    if quantity == "pullback_metric":
        ga = pullback_metric(spec_a, state_a).density
        gb = pullback_metric(spec_b, state_b).density
        return _log_margin_report("pullback_metric", [ga], [gb], [region], region,
                                  grid, solver_tol)
    if quantity == "ratio_fields":
        ra = metric_ratio_fields(spec_a, state_a)
        rb = metric_ratio_fields(spec_b, state_b)
        k_max = spec_a.n if (abs(spec_a.t) > 0 and abs(spec_b.t) > 0) else spec_a.n - 1
        los = [ra[:, k] for k in range(k_max)]
        his = [rb[:, k] for k in range(k_max)]
        note = "corner ratio included" if k_max == spec_a.n else "corner ratio skipped (zero scale)"
        return _log_margin_report("ratio_fields", los, his, [region] * k_max, region,
                                  grid, solver_tol, note)
    if quantity == "harmonic_components":
        return _harmonic_domination(spec_a, state_a, spec_b, state_b, region,
                                    grid, solver_tol)
    raise ValueError(f"unknown comparison quantity {quantity!r}")


def _harmonic_domination(spec, state, spec_hit, state_hit, region, grid, solver_tol):
    """Componentwise h_k > weight_k * h~_k against the fiber partner.

    The weights multiply the partner metric by |mu| (even rank; |mu|^2 for
    odd rank) and the squared magnitudes of the outer rungs.  Nodes where a
    weight vanishes exactly are excluded (the inequality is trivial there).
    """
    if spec_hit.variant != "hitchin_component" or spec_hit.n != spec.n:
        raise ValueError("partner must be the hitchin_component spec of equal rank")
    n, m = spec.n, spec.n_unknowns
    mu_sq = eval_norm_squared(spec.middle_datum(), grid)
    rung_sq = [eval_norm_squared(d, grid) for d in spec.rung_data()]
    mu_weight = np.sqrt(mu_sq) if n % 2 == 0 else mu_sq
    lows, highs, masks = [], [], []
    for k in range(1, m + 1):
        w = mu_weight.copy()
        for j in range(k - 1, m - 1):
            w = w * rung_sq[j]
        lows.append(w * np.exp(state_hit.u[:, k - 1]))
        highs.append(np.exp(state.u[:, k - 1]))
        masks.append(region & (w > 0.0))
    return _log_margin_report("harmonic_components", lows, highs, masks, region,
                              grid, solver_tol, "weight zero set excluded")


# -- theorem runners -------------------------------------------------------


def _same_system(spec_a: CyclicSpec, spec_b: CyclicSpec, grid: Grid) -> bool:
    """Whether the two specs assemble one and the same system on ``grid``.

    Equal embeddings give equal unknowns and equal Fuchsian boundary data,
    so the systems coincide exactly when the squared arrow coefficients do.
    """
    return bool(np.array_equal(spec_a.embedding, spec_b.embedding)
                and np.array_equal(arrow_coefficients(spec_a, grid),
                                   arrow_coefficients(spec_b, grid)))


def scale_family(spec: CyclicSpec, grid: Grid, t_values,
                 config: SolverConfig | None = None, boundary="fuchsian"):
    """The scale family t -> spec at t, solved by warm-started continuation.

    Returns one (spec at t, solve report, pullback metric) per member in
    ascending t; solving stops at the first member that fails, which comes
    last and carries the metric None.  A family through t = 0 whose declared
    degrees make that member unstable is refused before any solve.
    """
    t_values = [float(t) for t in t_values]
    if (spec.degrees is not None and 0.0 in t_values
            and not stability_check(spec.degrees, which_gamma_zero=spec.n)):
        raise ValueError(f"refused — the t=0 member is unstable for degrees {spec.degrees}: every "
                         "partial sum of the degrees from the top of the grading must be negative")
    scaled = {t: replace(spec, t=complex(t)) for t in t_values}
    runs = continuation_solve(lambda t: make_system(scaled[t], grid, boundary=boundary),
                              t_values, config)
    return [(scaled[t], rep, pullback_metric(scaled[t], rep.state) if rep.converged else None)
            for t, rep in runs]


def verify_monotonicity(spec: CyclicSpec, grid: Grid, t_values,
                        config: SolverConfig | None = None,
                        margin_cells: int = 5) -> dict:
    """Scale-family monotonicity: solve along t and compare consecutive pairs.

    Checks strict pointwise increase of the consecutive metric ratios and
    the pullback metric on the verdict region, strict increase of the
    integrated energy, and assembles the cooperative difference system for
    each pair (conditions (a)-(c) plus positivity of the log-ratios), which
    re-derives the comparison by the maximum-principle route.
    """
    config = config or SolverConfig()
    region = grid.verdict_region(margin_cells)
    family = scale_family(spec, grid, t_values, config)
    results = {"t_values": [s.t.real for s, _, _ in family],
               "converged": [r.converged for _, r, _ in family],
               "pairs": [], "passed": False}
    if not all(results["converged"]):
        results["error"] = "continuation failed; see solve reports"
        results["reports"] = [r.to_json_dict() for _, r, _ in family]
        return results

    results["morse_energies"] = energies = [metric.morse_energy for _, _, metric in family]

    ok = True
    for (sa, rep_a, _), (sb, rep_b, _) in zip(family[1:], family[:-1]):
        ratios = compare_states(sb, rep_b.state, sa, rep_a.state, "ratio_fields",
                                margin_cells, config.tol_residual)
        metric = compare_states(sb, rep_b.state, sa, rep_a.state, "pullback_metric",
                                margin_cells, config.tol_residual)
        ds = maxprin.difference_system(sa, rep_a.state, sb, rep_b.state)
        cond = maxprin.check_conditions(ds.system)
        v_min = float(ds.v[:, region].min())
        pair = {
            "t_low": sb.t.real, "t_high": sa.t.real,
            "ratios": ratios.to_json_dict(),
            "pullback": metric.to_json_dict(),
            "difference_conditions": cond.to_json_dict(),
            "difference_mode": ds.mode,
            "v_min_verdict_region": v_min,
            "difference_defect": ds.residual_inf,
        }
        ok = ok and ratios.verdict and metric.verdict and cond.passed and v_min > 0
        results["pairs"].append(pair)
    energy_ok = all(b > a for a, b in zip(energies, energies[1:]))
    results["morse_energy_increasing"] = energy_ok
    results["passed"] = bool(ok and energy_ok)
    return results


def verify_nu_bounds(spec: CyclicSpec, grid: Grid,
                     config: SolverConfig | None = None,
                     margin_cells: int = 5) -> dict:
    """Interior ratio bounds for a Hitchin-section state.

    Strictly between the uniformising reference values and 1 on the
    verdict region; the k = 1 lower bound is checked away from the exact
    zeros of q_n, where the ratio equals its reference value zero.
    """
    region = grid.verdict_region(margin_cells)
    rep = solve(make_system(spec, grid), config=config)
    if not rep.converged:
        return {"passed": False, "error": "solve failed", "report": rep.to_json_dict()}
    ratios = nu_ratios(spec, rep.state)
    qzeros = zero_set(spec.corner_datum().scaled(spec.t), grid)
    zmask = np.zeros(grid.n_nodes, dtype=bool)
    zmask[qzeros] = True
    out = {"n": spec.n, "passed": True, "bounds": [],
           "solver": rep.to_json_dict()}
    for k in range(ratios.values.shape[0]):
        vals = ratios.values[k]
        ref = float(ratios.reference[k])
        sel_lower = region & ~zmask if k == 0 else region
        lower = float((vals[sel_lower] - ref).min()) if sel_lower.any() else np.inf
        upper = float((1.0 - vals[region]).min())
        entry = {"k": k + 1, "reference": ref,
                 "min_lower_margin": lower, "min_upper_margin": upper}
        out["bounds"].append(entry)
        if not (lower > 0 and upper > 0):
            out["passed"] = False
    return out


def verify_curvature_bounds(spec: CyclicSpec, grid: Grid,
                            config: SolverConfig | None = None,
                            margin_cells: int = 5) -> dict:
    """Pinched curvature of a Hitchin-section image surface.

    -1/(n (n-1)^2) - CURVATURE_SLACK <= K < 0 on the defined verdict region.
    """
    region = grid.verdict_region(margin_cells)
    rep = solve(make_system(spec, grid), config=config)
    if not rep.converged:
        return {"passed": False, "error": "solve failed", "report": rep.to_json_dict()}
    curv = extrinsic_curvature(spec, rep.state)
    kmin, kmax = curv.interior_range(region)
    bound = -1.0 / (spec.n * (spec.n - 1) ** 2)
    out = {"n": spec.n, "k_min": kmin, "k_max": kmax, "lower_bound": bound,
           "passed": bool(kmin >= bound - CURVATURE_SLACK and kmax < 0.0),
           "solver": rep.to_json_dict()}
    if spec.n >= 4:
        # at zeros of the differential the curvature dips to (or below) the
        # uniformising constant -6/(n^2(n^2-1))
        qz = [p for p in zero_set(spec.corner_datum().scaled(spec.t), grid) if region[p]]
        if qz:
            fuchs = -6.0 / (spec.n**2 * (spec.n**2 - 1))
            worst = float(max(curv.k_sigma[p] for p in qz))
            out["qzero_k_max"] = worst
            out["qzero_bound"] = fuchs
            out["passed"] = bool(out["passed"] and worst <= fuchs + CURVATURE_SLACK)
    return out


def verify_fiber_comparison(spec: CyclicSpec, grid: Grid,
                            config: SolverConfig | None = None,
                            margin_cells: int = 5) -> dict:
    """Domination by the Hitchin-section partner in the same fiber.

    Solves both sides with matching boundary data and checks the strict
    metric comparison (rank <= 4) together with the weighted component
    comparison of the harmonic metrics.  A bundle in the Hitchin section is
    its own partner: when the two sides assemble the same system the
    theorem gives equality, the verdict carries a ``degenerate`` note and
    the strict ``passed`` is false.
    """
    config = config or SolverConfig()
    partner = CyclicSpec(spec.n, "hitchin_component", (spec.partner_differential(),))
    grid.verdict_region(margin_cells)
    rep_a = solve(make_system(spec, grid), config=config)
    rep_b = solve(make_system(partner, grid), config=config)
    if not (rep_a.converged and rep_b.converged):
        return {"passed": False, "error": "solve failed",
                "reports": [rep_a.to_json_dict(), rep_b.to_json_dict()]}
    out = {"n": spec.n, "passed": True}
    if spec.n <= 4:
        metric = compare_states(spec, rep_a.state, partner, rep_b.state,
                                "pullback_metric", margin_cells, config.tol_residual)
        out["metric"] = metric.to_json_dict()
        out["passed"] = out["passed"] and metric.verdict
    else:
        out["metric"] = None
    comp = compare_states(spec, rep_a.state, partner, rep_b.state,
                          "harmonic_components", margin_cells, config.tol_residual)
    out["components"] = comp.to_json_dict()
    out["passed"] = bool(out["passed"] and comp.verdict)
    if _same_system(spec, partner, grid):
        out["degenerate"] = ("the two sides assemble identical systems; the "
                             "comparison reduces to a self-comparison and the "
                             "strict verdict is false by construction")
    return out


def verify_sp4_bounds(spec: CyclicSpec, grid: Grid,
                      config: SolverConfig | None = None,
                      margin_cells: int = 5) -> dict:
    """Rank-4 coefficient-ratio and curvature bounds.

    Both ratios stay below 4/3 on the verdict region and K lies in
    [-1/8 - CURVATURE_SLACK, 0).  When the corner coefficient vanishes
    identically the sharper upper bound K < -1/40 holds, with K pinned at
    -1/8 at the nodes nearest each zero of mu; all of this off the
    uniformising locus.

    On that locus (the assembled system is the rank-4 uniformising one of
    ``hitchin_component`` with q = 0, e.g. mu = 1 and nu = 0) f1 = 0,
    f2 = 4/3 and K = -1/40 hold with equality.  The verdict then carries a
    ``degenerate`` note and ``equality_deviation``, the largest of |f1|,
    |f2 - 4/3| and |K + 1/40| over the verdict region; the strict
    ``passed`` is false there.
    """
    if spec.variant != "sp4_gothen":
        raise ValueError("sp4 bounds apply to sp4_gothen specs")
    region = grid.verdict_region(margin_cells)
    rep = solve(make_system(spec, grid), config=config)
    if not rep.converged:
        return {"passed": False, "error": "solve failed", "report": rep.to_json_dict()}
    curv = sp4_curvature(spec, rep.state)
    f1max = float(curv.f1[region].max())
    f2max = float(curv.f2[region].max())
    kmin = float(curv.k_sigma[region].min())
    kmax = float(curv.k_sigma[region].max())
    mu_fuchsian = spec.corner_datum().is_zero() or spec.t == 0
    out = {"mu_fuchsian": bool(mu_fuchsian),
           "f1_max": f1max, "f2_max": f2max, "k_min": kmin, "k_max": kmax,
           "solver": rep.to_json_dict()}
    ok = f1max < 4.0 / 3.0 and f2max < 4.0 / 3.0 and kmin >= -0.125 - CURVATURE_SLACK
    if mu_fuchsian:
        ok = ok and kmax < -1.0 / 40.0
        mu_zeros = zero_set(spec.middle_datum(), grid)
        sharp = []
        for p in mu_zeros:
            sharp.append({"node": int(p), "k_sigma": float(curv.k_sigma[p]),
                          "deviation": float(abs(curv.k_sigma[p] + 0.125))})
            ok = ok and abs(curv.k_sigma[p] + 0.125) <= 2.0 * grid.spacing
        out["mu_zero_sharpness"] = sharp
    else:
        ok = ok and kmax < 0.0
    if _same_system(spec, CyclicSpec(4, "hitchin_component", (HolomorphicDatum.zero(),)),
                    grid):
        out["degenerate"] = ("the system is the rank-4 uniformising system; "
                             "f1 = 0, f2 = 4/3 and K = -1/40 hold with equality "
                             "and the strict verdict is false by construction")
        out["equality_deviation"] = float(max(
            np.abs(curv.f1[region]).max(), np.abs(curv.f2[region] - 4.0 / 3.0).max(),
            np.abs(curv.k_sigma[region] + 1.0 / 40.0).max()))
    out["passed"] = bool(ok)
    return out


def verify_sym_space(samples: int = 10000, seed: int = 0,
                     ns=(2, 3, 4, 5, 6), tol: float = 1e-10,
                     extremal_tol: float = 1e-12) -> dict:
    """Sampled pinching of the ambient sectional curvature.

    Random tangent planes per group and rank stay in [-1/n - tol, tol];
    the distinguished planes hit -1/n within ``extremal_tol``.  Needs
    ``samples >= 1`` and a nonempty list of ranks >= 2 (a rank-1 tangent
    vector is zero).  A degenerate sampled plane refuses the whole suite
    with a ValueError naming the group, the rank and the 0-based sample
    index within that group and rank.
    """
    if samples < 1:
        raise ValueError(f"sym-space samples must be >= 1, got {samples}")
    if len(ns) == 0:
        raise ValueError("sym-space ranks must be a nonempty list")
    if min(ns) < 2:
        raise ValueError(f"sym-space ranks must be >= 2, got {min(ns)}")
    out = {"samples": samples, "seed": seed, "groups": [], "passed": True}
    for group in SYM_GROUPS:
        for n in ns:
            if group == "sp_real" and n % 2:
                continue
            rng = np.random.default_rng([seed, SYM_GROUPS.index(group), n])
            kmin, kmax = np.inf, -np.inf
            for start in range(0, samples, SYM_BLOCK):
                Y, Z = random_tangent_planes(group, n, rng,
                                             min(SYM_BLOCK, samples - start))
                k, degenerate = _sectional_curvatures(Y, Z)
                if degenerate.any():
                    raise ValueError(
                        f"{group} n={n} sample {start + int(np.argmax(degenerate))}: "
                        "tangent vectors do not span a nondegenerate plane")
                kmin, kmax = min(kmin, float(k.min())), max(kmax, float(k.max()))
            in_range = kmin >= -1.0 / n - tol and kmax <= tol
            if group == "sp_real":
                planes = [extremal_plane(group, n, i) for i in range(n // 2)]
            else:
                planes = [extremal_plane(group, n, i, j)
                          for i in range(n) for j in range(i + 1, n)]
            Y, Z = map(np.stack, zip(*planes))
            ext_dev = float(np.abs(symmetric_space_curvature(Y, Z) + 1.0 / n).max())
            ok = bool(in_range and ext_dev <= extremal_tol)
            out["groups"].append({"group": group, "n": n, "k_min": kmin,
                                  "k_max": kmax, "extremal_deviation": ext_dev,
                                  "passed": ok})
            out["passed"] = out["passed"] and ok
    return out


def verify_max_principle(count: int = 200, seed: int = 0,
                         grids: list[Grid] | None = None,
                         pattern_cases: int = 100) -> dict:
    """Randomized positivity suite plus negative controls and closure oracle."""
    from .geometry import GridSpec, build_grid

    if grids is None:
        grids = [build_grid(GridSpec("torus", (16, 16))),
                 build_grid(GridSpec("radial_disc", 64, 0.8))]
    suite = maxprin.randomized_positivity_suite(count, seed, grids)

    rng = np.random.default_rng(seed + 1)
    controls = []
    ctrl_ok = True
    for violate, flag in (("cooperative", "cooperative_ok"),
                          ("column", "column_dominance_ok"),
                          ("coupled", "fully_coupled")):
        sysv = maxprin.random_cooperative_system(grids[0], 3, rng, violate=violate)
        reportv = maxprin.check_conditions(sysv)
        d = reportv.to_json_dict()
        caught = not d[flag]
        refused = False
        try:
            maxprin.solve_linear_cooperative(sysv, certify=True)
        except maxprin.CertificationError:
            refused = True
        controls.append({"violated": violate, "flagged": caught, "refused": refused})
        ctrl_ok = ctrl_ok and caught and refused

    closure_ok = True
    for _ in range(pattern_cases):
        n = int(rng.integers(2, 13))
        density = rng.uniform(0.1, 0.9)
        pattern = rng.random((n, n)) < density
        verdict, _ = maxprin.fully_coupled(pattern)
        if verdict != maxprin.fully_coupled_bruteforce(pattern):
            closure_ok = False
            break

    return {"suite": {k: v for k, v in suite.items() if k != "cases"},
            "worst_relative_min": suite["worst_relative_min"],
            "negative_controls": controls,
            "closure_matches_bruteforce": closure_ok,
            "passed": bool(suite["passed"] and ctrl_ok and closure_ok)}

"""Derived geometry of solved states and theorem-verification reports.

From a solved log-metric state, which carries its system, this module
computes the pullback metric of the harmonic map, the interior ratio
invariants of Hitchin-section states, the extrinsic curvature of the image
surface and the dedicated rank-4 curvature formula, all through the
system's arrow kernel (``log_ratios``, ``arrow_terms``) and its assembled
``coeff_sq``, and sectional curvatures of the ambient symmetric space.  On
top of those sit ``verify_*`` runners that orchestrate solves
and produce machine-checkable verdicts with explicit margins; the CLI and
the acceptance suite both call these.  The verdicts are plain dicts, and so
is each strict comparison that ``compare_states`` returns; the report
classes hold only the fields a verdict or a caller reads.  ``scale_family``
solves a t-family (stability gate, continuation, per-member metric) for
both ``verify_monotonicity`` and the CLI's ``sweep``.

Every verdict is asserted on ``Grid.verdict_region()``: the interior nodes
with |z| <= 7R/8 of a disc chart of radius R, one chart set at every
resolution, so a margin measures the solution and not the Dirichlet
boundary layer.  Each solve-based runner refuses a torus grid before it
builds any system.

Pairwise comparisons measure their margins on the log scale, field by
field, and call a margin resolved when it exceeds

    max(10 * solver_tol, MARGIN_COEFF_PAIRED * spacing^2 * max|margin field|)

Both states are solved on the same grid, so the shared discretisation bias
cancels up to a term proportional to the difference field itself.  The
curvature bound of ``verify_curvature_bounds`` is checked with the fixed
slack ``CURVATURE_SLACK`` at every spacing, and the ratio bounds of
``verify_nu_bounds`` and ``verify_sp4_bounds`` with no threshold at all.

A vanishing corner arrow is read from its assembled coefficient |t gamma_n|^2
(``scale_sq`` where only the scale matters), never from t or the datum, so
an underflowing |t|^2 or |q|^2 is decided as t = 0 is.  Equality cases are
read from the assembled coefficients as well: the fiber comparison of a
bundle whose system is its partner's, and a single-state bound on the
rank-n uniformising system.  Either carries a ``degenerate`` note and
``equality_deviation``, and its strict ``passed`` is false.  A solve that
fails makes every solve-based verdict the one inconclusive
``{"passed": False, "error": "solve failed", "reports": [...]}``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ._parallel import imap_in_order
from .geometry import Grid
from .solver import SolverConfig, continuation_solve, solve
from .system import (
    CyclicSpec,
    HitchinSystem,
    LogMetricState,
    make_system,
    stability_check,
)
from . import maxprin

MARGIN_COEFF_PAIRED = 1.0
CURVATURE_SLACK = 1e-6


# -- basic derived fields --------------------------------------------------


def metric_ratio_fields(state: LogMetricState) -> np.ndarray:
    """Consecutive metric ratios h_k^{-1} h_{k+1}, (N, n).

    The corner column carries the |t|^2 factor (so it is the quantity that
    is monotone in the family scale); the holomorphic coefficients are not
    included.
    """
    ratios = np.exp(state.system.log_ratios(state.u))
    ratios[:, -1] *= state.spec.scale_sq
    return ratios


@dataclass
class MetricReport:
    """Pullback metric g = 2n * sum_k arrow_k (coefficient of dz dzbar)."""

    density: np.ndarray          # (N,) metric coefficient
    morse_energy: float


def pullback_metric(spec: CyclicSpec, state: LogMetricState) -> MetricReport:
    """Metric pulled back by the harmonic map, plus the integrated energy.

    The energy integrates tr(phi phi*) = sum_k arrow_k against the area
    form 2 dx dy (the real form of the |dz|^2 volume).  ``spec`` must be
    ``state.spec``; ROADMAP item 18 retires the argument.
    """
    if spec != state.spec:
        raise ValueError("spec is not the spec the state was solved with")
    a = state.system.arrow_terms(state.u)
    density = 2.0 * spec.n * a.sum(axis=1)
    energy = float((a.sum(axis=1) * 2.0 * state.grid.area_weights()).sum())
    return MetricReport(density, energy)


# -- interior ratio invariants ---------------------------------------------


@dataclass
class NuRatioReport:
    values: np.ndarray           # (m, N) ratio fields
    reference: list[Fraction]    # exact uniformising values, per k


def nu_ratios(state: LogMetricState) -> NuRatioReport:
    """Successive arrow-term ratios of a Hitchin-section state.

    nu_1 = (corner term)/(first rung term); nu_k = a_{k-1}/a_k for
    k = 2..m.  At the uniformising solution these equal the exact rationals
    (k-1)(n+1-k) / (k(n-k)) (zero for k = 1); the interior bounds theorem
    places the solved ratios strictly between those values and 1 away from
    the zeros of q_n.
    """
    spec = state.spec
    if spec.variant != "hitchin_component":
        raise ValueError("ratio invariants are defined for hitchin_component states")
    n, m = spec.n, spec.n_unknowns
    a = state.system.arrow_terms(state.u)
    vals = np.vstack([a[:, n - 1] / a[:, 0], (a[:, :m - 1] / a[:, 1:m]).T])
    ref = [Fraction(0)] + [Fraction((k - 1) * (n + 1 - k), k * (n - k)) for k in range(2, m + 1)]
    return NuRatioReport(vals, ref)


# -- extrinsic curvature ---------------------------------------------------


@dataclass
class CurvatureReport:
    k_sigma: np.ndarray          # (N,), NaN where undefined
    defined_mask: np.ndarray     # (N,) bool: image surface defined (phi != 0)

    def interior_range(self, region: np.ndarray) -> tuple[float, float]:
        sel = region & self.defined_mask
        vals = self.k_sigma[sel]
        return float(vals.min()), float(vals.max())


def extrinsic_curvature(state: LogMetricState) -> CurvatureReport:
    """Curvature of the image of the harmonic map in the symmetric space.

    For rank >= 3 the cyclic structure gives the closed form

        K = - sum_k (a_k - a_{k+1})^2 / (2 n (sum_k a_k)^2)

    over the arrow terms a_k (cyclically).  Branch points (all arrows
    vanishing) are masked.  For rank 2 the image is totally geodesic of
    constant curvature -1/2, which is reported directly.
    """
    a, n = state.system.arrow_terms(state.u), state.spec.n
    total = a.sum(axis=1)
    defined = total > 0.0
    k_sigma = np.full(state.grid.n_nodes, np.nan)
    if n == 2:
        k_sigma[defined] = -0.5
        return CurvatureReport(k_sigma, defined)
    num = (np.diff(a, axis=1, append=a[:, :1]) ** 2).sum(axis=1)
    k_sigma[defined] = -num[defined] / (2.0 * n * total[defined] ** 2)
    return CurvatureReport(k_sigma, defined)


@dataclass
class Sp4CurvatureReport:
    f1: np.ndarray
    f2: np.ndarray
    k_sigma: np.ndarray


def sp4_curvature(state: LogMetricState) -> Sp4CurvatureReport:
    """Rank-4 curvature through the two coefficient ratios.

    f1 = |nu|^2 h_1^2 / (h_1^{-1} h_2), f2 = |mu|^2 h_2^{-2} / (h_1^{-1} h_2);
    then K = -[(f1-1)^2 + (f2-1)^2] / (4 (2 + f1 + f2)^2), which agrees with
    the general cyclic formula on the unfolded state.
    """
    if state.spec.variant != "sp4_gothen":
        raise ValueError("this formula is specific to sp4_gothen states")
    a = state.system.arrow_terms(state.u)   # (a1, a2=mu-term, a3=a1, a4=nu-term)
    f1 = a[:, 3] / a[:, 0]
    f2 = a[:, 1] / a[:, 0]
    k = -((f1 - 1.0) ** 2 + (f2 - 1.0) ** 2) / (4.0 * (2.0 + f1 + f2) ** 2)
    return Sp4CurvatureReport(f1, f2, k)


# -- symmetric-space sectional curvature -----------------------------------

SYM_GROUPS = ("sl_real", "sl_complex", "sp_real")

# planes drawn and evaluated at once by verify_sym_space: enough to amortise
# numpy's per-call cost, few enough that a block's temporaries stay well
# below the memory the other verify suites already take (one block of all
# 10000 default samples raises peak RSS by about 48 MB, 2000 by about 11 MB)
SYM_BLOCK = 256
SYM_TOL = 1e-10             # slack on the lower pinching bound -1/n of sampled planes
SYM_EXTREMAL_TOL = 1e-12    # largest deviation of the distinguished planes from -1/n


def _sectional_curvatures(Y: np.ndarray, Z: np.ndarray):
    """Curvatures of stacked planes and the mask of degenerate ones.

    Y, Z: unchecked trace-free Hermitian (..., n, n) stacks of one dtype, float64
    or complex128, with a contiguous last axis.  A flagged plane's k is meaningless.
    """
    n = Y.shape[-1]
    # for Hermitian X, W, tr(XW) is the dot product of their real coordinates
    B = lambda X, W: 2.0 * n * np.einsum("...ij,...ij->...", X.view(float), W.view(float))
    with np.errstate(divide="ignore", invalid="ignore"):    # degenerate planes
        # orthogonalise the plane first: evaluating the Gram determinant
        # directly cancels catastrophically for nearly parallel draws, while
        # after projection both factors of the denominator are positive norms
        by = B(Y, Y)
        Zp = Z - (B(Y, Z) / by)[..., None, None] * Y
        bz = B(Zp, Zp)
        # negated so that the NaN a zero Y leaves in bz is flagged as well
        degenerate = ~(bz > 1e-12 * np.maximum(B(Z, Z), 1e-300))
        # [Y, Zp] = P - P^H for P = Y Zp: antisymmetric real, symmetric imaginary part
        if Y.dtype.kind == "c":
            yr, yi, zr, zi = Y.real, Y.imag, Zp.real, Zp.imag
            re, im = yr @ zr - yi @ zi, yr @ zi + yi @ zr
            comm = (re - re.swapaxes(-2, -1), im + im.swapaxes(-2, -1))
        else:
            P = Y @ Zp
            comm = (P - P.swapaxes(-2, -1),)
        # B([Y,Zp], [Y,Zp]) = -2n ||[Y,Zp]||_F^2: a negated sum of squares, so num <= 0
        num = -sum(B(c, c) for c in comm)
        return num / (by * bz), degenerate


def symmetric_space_curvature(Y: np.ndarray, Z: np.ndarray):
    """Sectional curvature of span(Y, Z) in the relevant symmetric space.

    Y, Z are trace-free Hermitian (or real symmetric) tangent vectors, or
    stacks of them of shape (..., n, n); with the scaled trace form
    B(X, W) = 2n tr(XW),

        K = B([Y, Z], [Y, Z]) / (B(Y,Y) B(Z,Z) - B(Y,Z)^2).

    The commutator is anti-Hermitian so the numerator is <= 0, and the
    value lies in [-1/n, 0].  In real arithmetic, B(X, W) = 2n sum_ij (Re X_ij
    Re W_ij + Im X_ij Im W_ij), and [Y, Z] = P - P^H with P = Y Z once Z is
    B-orthogonal to Y.  A single pair gives a float, a stack an array of its
    leading shape; any degenerate plane refuses the whole call.
    """
    dtype = complex if np.iscomplexobj(Y) or np.iscomplexobj(Z) else float
    Y, Z = (np.ascontiguousarray(M, dtype) for M in (Y, Z))
    if Y.ndim < 2 or Y.shape[-1] != Y.shape[-2] or Z.shape != Y.shape:
        raise ValueError("tangent vectors must be square matrices of equal size")
    for M in (Y, Z):
        scale = 1e-10 * (1 + np.abs(M).max(axis=(-2, -1)))
        if (np.abs(np.trace(M, axis1=-2, axis2=-1)) > scale).any():
            raise ValueError("tangent vectors must be trace-free")
        if (np.abs(M - M.conj().swapaxes(-2, -1)).max(axis=(-2, -1)) > scale).any():
            raise ValueError("tangent vectors must be Hermitian/symmetric")
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


def _log_margin_report(quantity, lower_fields, upper_fields, masks, region, grid,
                       solver_tol, notes=""):
    """The verdict dict of a strict comparison on a verdict region.

    ``margins`` holds the per-field minimum of log(hi) - log(lo) over each
    field's mask, ``min_margin`` the least of them; the verdict is true only
    when every margin exceeds its threshold max(10 * tol, C * h^2 * max|field|).
    """
    margins, thresholds = [], []
    floor = 10.0 * solver_tol
    for lo, hi, mask in zip(lower_fields, upper_fields, masks):
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.log(hi[mask]) - np.log(lo[mask])
        margins.append(float(np.min(m)))
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        thresholds.append(max(floor, MARGIN_COEFF_PAIRED * grid.spacing**2 * scale))
    return {"quantity": quantity,
            "verdict": bool(all(m > t for m, t in zip(margins, thresholds))),
            "min_margin": min(margins), "margins": margins, "thresholds": thresholds,
            "region_nodes": int(region.sum()), "notes": notes}


def compare_states(
    state_a: LogMetricState,
    state_b: LogMetricState,
    quantity: str = "pullback_metric",
    solver_tol: float = 1e-10,
) -> dict:
    """Strict domination check: does the b-state dominate the a-state?

    ``quantity`` selects pullback metric density, consecutive metric
    ratios (corner included only when both |t|^2 are nonzero), or the
    weighted harmonic-metric components (b must then be the
    Hitchin-section partner and the inequality runs the other way:
    a-components dominate the weighted b-components).
    """
    grid, n = state_a.grid, state_a.spec.n
    if state_b.grid.spec != grid.spec:
        raise ValueError("states must be solved on the same grid")
    region = grid.verdict_region()
    if quantity == "pullback_metric":
        ga = pullback_metric(state_a.spec, state_a).density
        gb = pullback_metric(state_b.spec, state_b).density
        return _log_margin_report("pullback_metric", [ga], [gb], [region], region,
                                  grid, solver_tol)
    if quantity == "ratio_fields":
        ra, rb = metric_ratio_fields(state_a), metric_ratio_fields(state_b)
        k_max = n if (state_a.spec.scale_sq > 0 and state_b.spec.scale_sq > 0) else n - 1
        los = [ra[:, k] for k in range(k_max)]
        his = [rb[:, k] for k in range(k_max)]
        note = "corner ratio included" if k_max == n else "corner ratio skipped (zero scale)"
        return _log_margin_report("ratio_fields", los, his, [region] * k_max, region,
                                  grid, solver_tol, note)
    if quantity == "harmonic_components":
        return _harmonic_domination(state_a, state_b, region, solver_tol)
    raise ValueError(f"unknown comparison quantity {quantity!r}")


def _harmonic_domination(state, state_hit, region, solver_tol):
    """Componentwise h_k > weight_k * h~_k against the fiber partner.

    The weights multiply the partner metric by |mu| (even rank; |mu|^2 for
    odd rank) and the squared magnitudes of the outer rungs.  The partner's
    system is symmetric of rank n with every arrow but the corner exactly 1.
    Nodes where a weight vanishes exactly are excluded (the inequality is
    trivial there).
    """
    hit, n, m = state_hit.system, state.spec.n, state.spec.n_unknowns
    if not (hit.spec.is_symmetric and hit.spec.n == n and (hit.coeff_sq[:, :-1] == 1.0).all()):
        raise ValueError("partner must be a Hitchin-section state of equal rank")
    G = state.system.coeff_sq
    mu_weight = np.sqrt(G[:, m - 1]) if n % 2 == 0 else G[:, m - 1]
    lows, highs, masks = [], [], []
    for k in range(1, m + 1):
        w = mu_weight.copy()
        for j in range(k - 1, m - 1):
            w = w * G[:, j]
        lows.append(w * np.exp(state_hit.u[:, k - 1]))
        highs.append(np.exp(state.u[:, k - 1]))
        masks.append(region & (w > 0.0))
    return _log_margin_report("harmonic_components", lows, highs, masks, region,
                              state.grid, solver_tol, "weight zero set excluded")


# -- theorem runners -------------------------------------------------------


def _refuse_torus(grid: Grid, theorem: str) -> None:
    """Refuse a torus before any system is built: a solve-based verdict is
    asserted on a disc chart, against the uniformising Dirichlet data."""
    if grid.kind == "torus":
        raise ValueError(f"{theorem} needs a disc grid ('radial_disc' or 'disc2d'), not a torus")


def _solve_spec(spec: CyclicSpec, grid: Grid, config: SolverConfig | None,
                variant: str | None = None, refusal: str = ""):
    """Assemble ``spec`` on ``grid`` and solve it; the report's state holds the system.
    A spec of another variant than ``variant``, when one is named, is
    refused with ``refusal`` before any solve."""
    if variant is not None and spec.variant != variant:
        raise ValueError(refusal)
    return solve(make_system(spec, grid), config=config)


def _inconclusive(reports) -> dict:
    """The verdict of a solve-based runner whose solve failed."""
    return {"passed": False, "error": "solve failed",
            "reports": [rep.to_json_dict() for rep in reports]}


def _uniformising_note(system: HitchinSystem, holds: str) -> str | None:
    """The ``degenerate`` note when ``system`` is the rank-n uniformising one
    (``hitchin_component`` with q = 0, which t = 0 or an underflowing |q|^2
    also give): a symmetric embedding, every arrow coefficient but the
    corner exactly 1 and a zero corner.  None for any other system."""
    G = system.coeff_sq
    if system.spec.is_symmetric and not G[:, -1].any() and (G[:, :-1] == 1.0).all():
        return (f"the system is the rank-{system.spec.n} uniformising system; {holds} "
                "with equality and the strict verdict is false by construction")
    return None


def _flag_equality_case(out: dict, degenerate: str | None, deviation) -> None:
    """Mark ``out`` as the equality case of its theorem when ``degenerate``
    is a note: that note, ``equality_deviation`` from ``deviation()``, and a
    false strict ``passed``."""
    if degenerate is not None:
        out["degenerate"] = degenerate
        out["equality_deviation"] = float(deviation())
        out["passed"] = False


def scale_family(spec: CyclicSpec, grid: Grid, t_values, config: SolverConfig | None = None):
    """The scale family t -> spec at t on the grid's own boundary, solved by
    warm-started continuation.

    Returns one (solve report, pullback metric) per member in ascending t;
    each report's state holds its member's system and spec.  Solving stops
    at the first member that fails, which comes last and carries the metric
    None.  A family with a member whose assembled corner vanishes at every
    node (t = 0, an underflowing |t|^2 or a zero corner datum), when the
    declared degrees make that member unstable, is refused before any solve.
    """
    t_values = [float(t) for t in t_values]
    systems = {t: make_system(replace(spec, t=complex(t)), grid) for t in t_values}
    if spec.degrees is not None and not stability_check(spec.degrees) and any(
            not s.coeff_sq[:, -1].any() for s in systems.values()):
        raise ValueError(f"refused — a member whose corner arrow vanishes is unstable for degrees "
                         f"{spec.degrees}: every partial sum of the degrees from the top of the "
                         "grading must be negative")
    runs = continuation_solve(systems.__getitem__, t_values, config)
    return [(rep, pullback_metric(rep.state.spec, rep.state) if rep.converged else None)
            for _, rep in runs]


def verify_monotonicity(spec: CyclicSpec, grid: Grid, t_values,
                        config: SolverConfig | None = None) -> dict:
    """Scale-family monotonicity: solve along t and compare consecutive pairs.

    Checks strict pointwise increase of the consecutive metric ratios and
    the pullback metric on the verdict region, strict increase of the
    integrated energy, and assembles the cooperative difference system for
    each pair (conditions (a)-(c) plus positivity of the log-ratios), which
    re-derives the comparison by the maximum-principle route.  A ``t_values``
    list that is not strictly increasing with at least two members would
    compare nothing, or a member with itself, and is refused before any solve.
    """
    _refuse_torus(grid, "monotonicity")
    t_values = [float(t) for t in t_values]
    if len(t_values) < 2 or any(b <= a for a, b in zip(t_values, t_values[1:])):
        raise ValueError("monotonicity needs a strictly increasing 't_list' of at least "
                         f"2 values, got {t_values}")
    config = config or SolverConfig()
    region = grid.verdict_region()
    family = scale_family(spec, grid, t_values, config)
    states = [rep.state for rep, _ in family]
    echo = {"t_values": [st.spec.t.real for st in states],
            "converged": [rep.converged for rep, _ in family]}
    if not all(echo["converged"]):
        return {**echo, **_inconclusive(rep for rep, _ in family)}
    energies = [metric.morse_energy for _, metric in family]
    results = {**echo, "pairs": [], "passed": False, "morse_energies": energies}

    ok = True
    for st_a, st_b in zip(states[1:], states[:-1]):
        ratios = compare_states(st_b, st_a, "ratio_fields", config.tol_residual)
        metric = compare_states(st_b, st_a, "pullback_metric", config.tol_residual)
        ds = maxprin.difference_system(st_a, st_b)
        cond = maxprin.check_conditions(ds.system)
        v_min = float(ds.v[:, region].min())
        pair = {
            "t_low": st_b.spec.t.real, "t_high": st_a.spec.t.real,
            "ratios": ratios,
            "pullback": metric,
            "difference_conditions": cond,
            "difference_mode": ds.mode,
            "v_min_verdict_region": v_min,
            "difference_defect": ds.residual_inf,
        }
        ok = ok and ratios["verdict"] and metric["verdict"] and cond["passed"] and v_min > 0
        results["pairs"].append(pair)
    energy_ok = all(b > a for a, b in zip(energies, energies[1:]))
    results["morse_energy_increasing"] = energy_ok
    results["passed"] = bool(ok and energy_ok)
    return results


def verify_nu_bounds(spec: CyclicSpec, grid: Grid,
                     config: SolverConfig | None = None) -> dict:
    """Interior ratio bounds for a Hitchin-section state.

    Strictly between the uniformising reference values and 1 on the
    verdict region; the k = 1 entry has no lower margin, as nu_1 > 0 is a
    ratio of positive arrow terms.
    """
    _refuse_torus(grid, "nu-bounds")
    rep = _solve_spec(spec, grid, config, "hitchin_component",
                      "ratio invariants are defined for hitchin_component states")
    if not rep.converged:
        return _inconclusive([rep])
    region = grid.verdict_region()
    ratios = nu_ratios(rep.state)
    vals, refs = ratios.values[:, region], [float(r) for r in ratios.reference]
    out = {"n": spec.n, "bounds": [], "solver": rep.to_json_dict()}
    for k, ref in enumerate(refs):
        entry = {"k": k + 1, "reference": ref, "min_upper_margin": float((1.0 - vals[k]).min())}
        if k:
            entry["min_lower_margin"] = float((vals[k] - ref).min())
        out["bounds"].append(entry)
    out["passed"] = all(v > 0 for e in out["bounds"] for key, v in e.items() if "margin" in key)
    holds = "the lower bounds nu_k >= reference_k hold"
    _flag_equality_case(out, _uniformising_note(rep.state.system, holds),
                        lambda: np.abs(vals - np.array(refs)[:, None]).max())
    return out


def verify_curvature_bounds(spec: CyclicSpec, grid: Grid,
                            config: SolverConfig | None = None) -> dict:
    """Pinched curvature of a Hitchin-section image surface.

    K >= -1/(n (n-1)^2) - CURVATURE_SLACK on the defined verdict region.
    Reported but not checked, as identities of the closed form: K <= 0
    (``k_max``), and for n >= 4 K <= -6/(n^2(n^2-1)) where the assembled
    corner |t q|^2 vanishes (``qzero_k_max``), the most any arrows with
    a_n = 0 give.
    """
    _refuse_torus(grid, "curvature")
    rep = _solve_spec(spec, grid, config, "hitchin_component",
                      "the curvature bounds are proved for hitchin_component states")
    system = rep.state.system
    if not rep.converged:
        return _inconclusive([rep])
    region = grid.verdict_region()
    curv = extrinsic_curvature(rep.state)
    kmin, kmax = curv.interior_range(region)
    bound = -1.0 / (spec.n * (spec.n - 1) ** 2)
    fuchs = Fraction(-6, spec.n**2 * (spec.n**2 - 1))
    out = {"n": spec.n, "k_min": kmin, "k_max": kmax, "lower_bound": bound,
           "passed": bool(kmin >= bound - CURVATURE_SLACK),
           "solver": rep.to_json_dict()}
    qzero = region & (system.coeff_sq[:, -1] == 0)
    if spec.n >= 4 and qzero.any():
        out["qzero_k_max"] = float(curv.k_sigma[qzero].max())
        out["qzero_bound"] = float(fuchs)
    _flag_equality_case(out, _uniformising_note(system, f"K = {fuchs} holds"), lambda: np.abs(
        curv.k_sigma[region & curv.defined_mask] - float(fuchs)).max())
    return out


def verify_fiber_comparison(spec: CyclicSpec, grid: Grid,
                            config: SolverConfig | None = None) -> dict:
    """Domination by the Hitchin-section partner in the same fiber.

    Solves both sides with matching boundary data and checks the strict
    metric comparison (rank <= 4) together with the weighted component
    comparison of the harmonic metrics.  A bundle in the Hitchin section is
    its own partner: when the two sides assemble the same system (both
    embeddings are the symmetric one of rank n, so the squared arrow
    coefficients decide) the theorem gives equality, the verdict carries a
    ``degenerate`` note and ``equality_deviation``, the largest |margin|,
    and the strict ``passed`` is false.  That system is then solved once.
    """
    _refuse_torus(grid, "hitchin-fiber-comparison")
    config = config or SolverConfig()
    partner_system = make_system(
        CyclicSpec(spec.n, "hitchin_component", (spec.partner_differential(),)), grid)
    rep_a = _solve_spec(spec, grid, config)
    same = np.array_equal(rep_a.state.system.coeff_sq, partner_system.coeff_sq)
    rep_b = rep_a if same else solve(partner_system, config=config)
    if not (rep_a.converged and rep_b.converged):
        return _inconclusive([rep_a, rep_b])
    out = {"n": spec.n, "passed": True}
    if spec.n <= 4:
        metric = compare_states(rep_a.state, rep_b.state, "pullback_metric", config.tol_residual)
        out["metric"] = metric
        out["passed"] = out["passed"] and metric["verdict"]
    else:
        out["metric"] = None
    comp = compare_states(rep_a.state, rep_b.state, "harmonic_components", config.tol_residual)
    out["components"] = comp
    out["passed"] = bool(out["passed"] and comp["verdict"])
    note = ("the two sides assemble identical systems; the comparison reduces to a "
            "self-comparison and the strict verdict is false by construction")
    _flag_equality_case(out, note if same else None, lambda: max(
        abs(m) for v in (out["metric"], comp) if v for m in v["margins"]))
    return out


def verify_sp4_bounds(spec: CyclicSpec, grid: Grid,
                      config: SolverConfig | None = None) -> dict:
    """Rank-4 coefficient-ratio and curvature bounds.

    ``passed`` asks both ratios to stay below 4/3 on the verdict region, off
    the uniformising locus.  Identities of the closed form are reported but
    not checked: K <= 0 (``k_max``); K >= -1/8 (``k_min``) wherever f1, f2
    <= 4/3, since (f1 - f2)^2 <= 8 (f1 + f2) there; and when the assembled
    corner coefficient vanishes at every node (``mu_fuchsian``, so f1 = 0)
    K <= -1/40, with equality only at f2 = 4/3, and K = -1/8 at a zero of mu.

    On that locus (the assembled system is the rank-4 uniformising one of
    ``hitchin_component`` with q = 0, e.g. mu = 1 and nu = 0) f1 = 0,
    f2 = 4/3 and K = -1/40 hold with equality.  The verdict then carries a
    ``degenerate`` note and ``equality_deviation``, the largest of |f1|,
    |f2 - 4/3| and |K + 1/40| over the verdict region; the strict
    ``passed`` is false there.
    """
    _refuse_torus(grid, "sp4-bounds")
    rep = _solve_spec(spec, grid, config, "sp4_gothen", "sp4 bounds apply to sp4_gothen specs")
    system = rep.state.system
    if not rep.converged:
        return _inconclusive([rep])
    region = grid.verdict_region()
    curv = sp4_curvature(rep.state)
    f1max, f2max = float(curv.f1[region].max()), float(curv.f2[region].max())
    out = {"mu_fuchsian": not system.coeff_sq[:, -1].any(), "f1_max": f1max, "f2_max": f2max,
           "k_min": float(curv.k_sigma[region].min()), "k_max": float(curv.k_sigma[region].max()),
           "passed": f1max < 4.0 / 3.0 and f2max < 4.0 / 3.0, "solver": rep.to_json_dict()}
    holds = "f1 = 0, f2 = 4/3 and K = -1/40 hold"
    _flag_equality_case(out, _uniformising_note(system, holds), lambda: max(
        np.abs(curv.f1[region]).max(), np.abs(curv.f2[region] - 4.0 / 3.0).max(),
        np.abs(curv.k_sigma[region] + 1.0 / 40.0).max()))
    return out


def verify_sym_space(samples: int = 10000, seed: int = 0, ns=(2, 3, 4, 5, 6)) -> dict:
    """Sampled pinching of the ambient sectional curvature.

    Random tangent planes per group and rank stay above -1/n - SYM_TOL
    (K <= 0, a negated norm over a positive one, is not checked); the
    distinguished planes hit -1/n within ``SYM_EXTREMAL_TOL``.
    Needs ``samples >= 1`` and a nonempty list of ranks >= 2 (a rank-1
    tangent vector is zero).  A degenerate sampled plane is skipped and
    counted in its group's ``degenerate_samples``; ``k_min`` and ``k_max``
    range over the others.  A (group, rank) pair with no nondegenerate
    plane refuses the whole suite with a ValueError naming the group and
    the rank, since it would check nothing.  Each pair draws from its own
    stream, so the pairs are sampled concurrently on the process's CPUs;
    the report lists them in group-major order, and a refusal names the
    first failing pair in that order, as a serial loop would.
    """
    if samples < 1:
        raise ValueError(f"sym-space samples must be >= 1, got {samples}")
    if len(ns) == 0:
        raise ValueError("sym-space ranks must be a nonempty list")
    if min(ns) < 2:
        raise ValueError(f"sym-space ranks must be >= 2, got {min(ns)}")
    pairs = [(group, n) for group in SYM_GROUPS for n in ns
             if not (group == "sp_real" and n % 2)]

    def sampled_range(pair):
        group, n = pair
        rng = np.random.default_rng([seed, SYM_GROUPS.index(group), n])
        kmin, kmax, skipped = np.inf, -np.inf, 0
        for start in range(0, samples, SYM_BLOCK):
            Y, Z = random_tangent_planes(group, n, rng, min(SYM_BLOCK, samples - start))
            k, degenerate = _sectional_curvatures(Y, Z)
            k = k[~degenerate]
            skipped += int(np.count_nonzero(degenerate))
            kmin, kmax = float(k.min(initial=kmin)), float(k.max(initial=kmax))
        if skipped == samples:
            raise ValueError(f"{group} n={n}: no sampled pair of tangent vectors spans a "
                             "nondegenerate plane")
        return group, n, kmin, kmax, skipped

    out = {"samples": samples, "seed": seed, "groups": [], "passed": True}
    for group, n, kmin, kmax, skipped in imap_in_order(sampled_range, pairs):
        if group == "sp_real":
            planes = [extremal_plane(group, n, i) for i in range(n // 2)]
        else:
            planes = [extremal_plane(group, n, i, j)
                      for i in range(n) for j in range(i + 1, n)]
        Y, Z = map(np.stack, zip(*planes))
        ext_dev = float(np.abs(symmetric_space_curvature(Y, Z) + 1.0 / n).max())
        ok = bool(kmin >= -1.0 / n - SYM_TOL and ext_dev <= SYM_EXTREMAL_TOL)
        out["groups"].append({"group": group, "n": n, "k_min": kmin,
                              "k_max": kmax, "degenerate_samples": skipped,
                              "extremal_deviation": ext_dev, "passed": ok})
        out["passed"] = out["passed"] and ok
    return out


def verify_max_principle(count: int = 200, seed: int = 0,
                         grids: list[Grid] | None = None) -> dict:
    """Randomized positivity suite plus negative controls, each of which
    ``check_conditions`` must flag (``solve_linear_cooperative`` refuses
    exactly the flagged systems)."""
    from .geometry import GridSpec, build_grid

    if grids is None:
        grids = [build_grid(GridSpec("torus", (16, 16))),
                 build_grid(GridSpec("radial_disc", 64, 0.8))]
    suite = maxprin.randomized_positivity_suite(count, seed, grids)

    rng = np.random.default_rng(seed + 1)
    controls = []
    for violate, flag in (("cooperative", "cooperative_ok"),
                          ("column", "column_dominance_ok"),
                          ("coupled", "fully_coupled")):
        sysv = maxprin.random_cooperative_system(grids[0], 3, rng, violate=violate)
        caught = not maxprin.check_conditions(sysv)[flag]
        controls.append({"violated": violate, "flagged": caught})

    return {"suite": {k: v for k, v in suite.items() if k != "cases"},
            "worst_relative_min": suite["worst_relative_min"],
            "negative_controls": controls,
            "passed": bool(suite["passed"] and all(c["flagged"] for c in controls))}

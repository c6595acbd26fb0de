"""End-to-end command-line checks through main(): exit codes and artifacts."""

import csv
import io
import json

import numpy as np
import pytest

from hitchinlab.cli import _write_table, main, write_state_csv
from hitchinlab.geometry import GridSpec, build_grid

RADIAL = {"kind": "radial_disc", "resolution": 48, "radius": 0.8}
HITCHIN3 = {"variant": "hitchin_component", "n": 3,
            "data": [{"kind": "constant", "coefficient": 1.0}], "t": 1.0}


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_writes_report_and_state(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    report = read_json(out / "report.json")
    assert report["converged"] is True
    assert report["final_residual"] <= 1e-10
    with open(out / "state.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "u_1"]
    assert len(rows) == 1 + 48


def test_solve_resolution_override(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out), "--resolution", "32"])
    assert rc == 0
    with open(out / "state.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 32


def test_malformed_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"grid": ')
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_unconverged_solve_exits_two_but_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL,
        "spec": dict(HITCHIN3, t=5.0),
        "solver": {"max_newton_iters": 1},
    })
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "not converged" in capsys.readouterr().err
    assert read_json(out / "report.json")["converged"] is False
    assert (out / "state.csv").exists()


def test_unknown_solver_option_is_usage_error(tmp_path, capsys):
    # linear_solver was an option once; the direct LU solve is now the only one
    for option in ({"newton_tol": 1e-8}, {"linear_solver": "direct"}):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "grid": RADIAL, "spec": HITCHIN3, "solver": option})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown solver options" in capsys.readouterr().err


def test_verify_nu_bounds_passes_and_is_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--theorem", "nu-bounds",
                 "--out", str(out_a)]) == 0
    assert main(["verify", "--config", cfg, "--theorem", "nu-bounds",
                 "--out", str(out_b)]) == 0
    bytes_a = (out_a / "verdict.json").read_bytes()
    bytes_b = (out_b / "verdict.json").read_bytes()
    assert bytes_a == bytes_b
    verdict = json.loads(bytes_a)
    assert verdict["passed"] is True
    assert verdict["theorem"] == "nu-bounds"
    assert "wall_time_s" not in json.dumps(verdict)


def test_verify_monotonicity_requires_t_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    rc = main(["verify", "--config", cfg, "--theorem", "monotonicity",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "t_list" in capsys.readouterr().err


def test_verify_sp4_rejects_wrong_variant(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    rc = main(["verify", "--config", cfg, "--theorem", "sp4-bounds",
               "--out", str(tmp_path)])
    assert rc == 1


def test_verify_sym_space_small_sample(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {"samples": 50, "ranks": [2, 3]})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "sym-space-curvature",
               "--out", str(out), "--seed", "7"])
    assert rc == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["passed"] and verdict["seed"] == 7


@pytest.mark.parametrize("payload", [{"samples": 0}, {"ranks": []}, {"ranks": [1, 2]}])
def test_verify_sym_space_vacuous_config_is_usage_error(tmp_path, capsys, payload):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "sym-space-curvature",
               "--out", str(out)])
    assert rc == 1
    assert "sym-space" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


_DEGREE_17 = dict(HITCHIN3, data=[{"kind": "monomial", "coefficient": 1.0, "degree": 1.7}])


@pytest.mark.parametrize("key,theorem,payload", [
    ("samples", "sym-space-curvature", {"samples": 2.5, "ranks": [2]}),
    ("ranks", "sym-space-curvature", {"samples": 5, "ranks": [2.9]}),
    ("count", "max-principle", {"count": 3.7}),
    ("n", "nu-bounds", {"grid": RADIAL, "spec": dict(HITCHIN3, n=3.5)}),
    ("margin_cells", "nu-bounds", {"grid": RADIAL, "spec": HITCHIN3, "margin_cells": 5.5}),
    ("seed", "sym-space-curvature", {"samples": 5, "ranks": [2], "seed": 0.5}),
    ("resolution", "nu-bounds", {"grid": dict(RADIAL, resolution=64.9), "spec": HITCHIN3}),
    ("degree", "nu-bounds", {"grid": RADIAL, "spec": _DEGREE_17}),
])
def test_fractional_integer_field_is_usage_error(tmp_path, capsys, key, theorem, payload):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", theorem, "--out", str(out)])
    assert rc == 1
    assert f"'{key}' must be an integer" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


def test_integral_float_fields_are_accepted(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {"samples": 5e1, "ranks": [2.0, 3], "seed": 7.0})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "sym-space-curvature",
               "--out", str(out)])
    assert rc == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["seed"] == 7 and verdict["samples"] == 50


@pytest.mark.parametrize("margin", [1000, -3])
def test_nu_bounds_margin_without_region_is_usage_error(tmp_path, capsys, margin):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3,
                                           "margin_cells": margin})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "nu-bounds", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "margin_cells" in err and "radial_disc" in err
    assert not (out / "verdict.json").exists()


def test_verify_max_principle_violation_demo(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "violate": "column", "n": 3,
        "grid": {"kind": "radial_disc", "resolution": 24, "radius": 0.8}})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "max-principle",
               "--out", str(out)])
    assert rc == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["passed"] is True
    assert "positivity not asserted" in verdict["note"]
    assert verdict["conditions"]["column_dominance_ok"] is False


@pytest.mark.parametrize("payload,name", [({"violate": "colum"}, "'colum'"),
                                          ({"violate": "coupled", "n": 1}, "'coupled'"),
                                          ({"violate": "cooperative", "n": 1}, "'cooperative'")])
def test_verify_max_principle_unrealisable_violation_is_refused(tmp_path, capsys, payload, name):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "max-principle", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "violation" in err and name in err
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("count", [0, -5])
def test_verify_max_principle_without_solves_is_refused(tmp_path, capsys, count):
    cfg = write_cfg(tmp_path, "cfg.json", {"count": count})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "max-principle", "--out", str(out)])
    assert rc == 1
    assert f"count must be >= 1, got {count}" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coefficient", [1e200, float("inf")], ids=["1e200", "Infinity"])
@pytest.mark.parametrize("datum", [{"kind": "constant"},
                                   {"kind": "monomial", "degree": 1},
                                   {"kind": "polynomial"}], ids=lambda d: d["kind"])
def test_unrepresentable_coefficient_is_usage_error(tmp_path, capsys, datum, coefficient):
    if datum["kind"] == "polynomial":
        datum = dict(datum, coefficients=[0.5, coefficient])
    else:
        datum = dict(datum, coefficient=coefficient)
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "disc2d", "resolution": 9, "radius": 0.8},
        "spec": dict(HITCHIN3, data=[datum])})
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: scalar field contains non-finite values" in err
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, out_file", [
    (["solve"], "report.json"),
    (["sweep"], "sweep.json"),
    (["verify", "--theorem", "nu-bounds"], "verdict.json"),
    (["verify", "--theorem", "monotonicity"], "verdict.json"),
], ids=["solve", "sweep", "nu-bounds", "monotonicity"])
@pytest.mark.parametrize("t", [1e200, float("inf")], ids=["1e200", "Infinity"])
def test_scale_without_finite_square_is_usage_error(tmp_path, capsys, command, out_file, t):
    # solve and nu-bounds read the spec's t, sweep and monotonicity the t_list
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": dict(RADIAL, resolution=16), "spec": dict(HITCHIN3, t=t),
        "t_list": [0.5, t]})
    out = tmp_path / "out"
    assert main(command + ["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has no finite |t|^2" in err
    assert not (out / out_file).exists()


@pytest.mark.filterwarnings("error")
def test_scale_overflowing_a_coefficient_is_usage_error(tmp_path, capsys):
    datum = {"kind": "constant", "coefficient": 1e100}
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": dict(RADIAL, resolution=16), "spec": dict(HITCHIN3, data=[datum], t=1e100)})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert ("error: the last arrow coefficient times |t|^2 is not finite"
            in capsys.readouterr().err)
    assert not (out / "report.json").exists()


_MONO1 = {"kind": "monomial", "coefficient": 1.0, "degree": 1}


@pytest.mark.parametrize("theorem, spec, keys", [
    ("nu-bounds", dict(HITCHIN3, data=[_MONO1]), {"report"}),
    ("curvature", dict(HITCHIN3, data=[_MONO1]), {"report"}),
    ("sp4-bounds", {"variant": "sp4_gothen", "n": 4,
                    "data": [HITCHIN3["data"][0], _MONO1]}, {"report"}),
    ("hitchin-fiber-comparison", {"variant": "slnr_even", "n": 2,
                                  "data": [HITCHIN3["data"][0], dict(_MONO1, degree=2)]},
     {"reports"}),
    ("monotonicity", dict(HITCHIN3, data=[_MONO1]), {"reports", "t_values", "converged"}),
])
def test_failed_solve_is_inconclusive(tmp_path, capsys, theorem, spec, keys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": dict(RADIAL, resolution=96), "spec": spec, "t_list": [0.5, 1.0],
        "solver": {"max_newton_iters": 1}})
    out = tmp_path / "out"
    assert main(["verify", "--theorem", theorem, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().out == f"verify[{theorem}]: inconclusive\n"
    verdict = read_json(out / "verdict.json")
    assert verdict["inconclusive"] is True and verdict["passed"] is False
    assert keys <= verdict.keys()
    if theorem == "monotonicity":
        assert verdict["error"] == "continuation failed; see solve reports"
        assert verdict["converged"] == [False] and len(verdict["reports"]) == 1
    else:
        assert verdict["error"] == "solve failed"
    if theorem == "hitchin-fiber-comparison":
        assert len(verdict["reports"]) == 2
    for report in verdict.get("reports", [verdict.get("report")]):
        assert report["iterations"] == 1


def test_sweep_and_monotonicity_agree_on_the_family(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL, "spec": dict(HITCHIN3, data=[_MONO1]), "t_list": [0.0, 0.5, 1.0, 2.0]})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    assert main(["verify", "--theorem", "monotonicity", "--config", cfg,
                 "--out", str(tmp_path / "verify")]) == 0
    sweep = read_json(tmp_path / "sweep" / "sweep.json")
    verdict = read_json(tmp_path / "verify" / "verdict.json")
    assert [m["t"] for m in sweep["members"]] == verdict["t_values"] == [0.0, 0.5, 1.0, 2.0]
    assert [m["morse_energy"] for m in sweep["members"]] == verdict["morse_energies"]
    assert len(sweep["ratio_margins"]) == len(verdict["pairs"]) == 3
    for margin, pair in zip(sweep["ratio_margins"], verdict["pairs"]):
        assert (margin["t_low"], margin["t_high"]) == (pair["t_low"], pair["t_high"])
        assert margin["min_margin"] == pair["ratios"]["min_margin"]


def test_sweep_on_the_torus_solves_periodic_members(tmp_path, capsys):
    spec = {"variant": "general_cyclic", "n": 3, "data": [HITCHIN3["data"][0]] * 3}
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "torus", "resolution": 16}, "spec": spec, "t_list": [0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "sweep: 2 members, monotone=True\n"
    verdict = read_json(out / "sweep.json")
    assert verdict["passed"] and [m["t"] for m in verdict["members"]] == [0.5, 1.0]
    # the fuchsian boundary that verify uses is refused on the torus
    assert main(["verify", "--theorem", "monotonicity", "--config", cfg,
                 "--out", str(out)]) == 1
    assert "torus grids take boundary='periodic'" in capsys.readouterr().err


def test_sweep_tabulates_members(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL, "spec": HITCHIN3, "t_list": [0.5, 1.0, 2.0]})
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "morse_energy", "g_min", "g_max", "k_min", "k_max"]
    assert len(rows) == 4
    energies = [float(r[1]) for r in rows[1:]]
    assert energies == sorted(energies)
    verdict = read_json(out / "sweep.json")
    assert verdict["passed"] and verdict["morse_energy_increasing"]
    assert len(verdict["ratio_margins"]) == 2


def test_sweep_singleton_family(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL, "spec": HITCHIN3, "t_list": [1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        assert len(list(csv.reader(fh))) == 2


SWEEP_HEADER = ["t", "morse_energy", "g_min", "g_max", "k_min", "k_max"]


def _csv_writer_reference(header, rows) -> bytes:
    """The csv.writer formatting, each value as %.17g, that sweep.csv used to have."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([f"{v:.17g}" for v in row] for row in rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("t_list,solver,n_rows", [([0.5, 1.0, 2.0], {}, 3),
                                                  ([5.0, 6.0], {"max_newton_iters": 1}, 0)])
def test_sweep_csv_bytes_match_csv_writer(tmp_path, t_list, solver, n_rows):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3,
                                           "t_list": t_list, "solver": solver})
    out = tmp_path / "out"
    main(["sweep", "--config", cfg, "--out", str(out)])
    rows = [[m[k] for k in SWEEP_HEADER]
            for m in read_json(out / "sweep.json")["members"] if m["converged"]]
    assert len(rows) == n_rows
    assert (out / "sweep.csv").read_bytes() == _csv_writer_reference(SWEEP_HEADER, rows)


@pytest.mark.parametrize("n_rows", [0, 1, 2])
def test_table_bytes_match_csv_writer_on_special_values(tmp_path, n_rows):
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, 123456789012345678.0]
    rows = np.array(special).reshape(2, 6)[:n_rows]
    path = tmp_path / "sweep.csv"
    _write_table(str(path), SWEEP_HEADER, rows)
    assert path.read_bytes() == _csv_writer_reference(SWEEP_HEADER, rows.tolist())


def test_sweep_refuses_unstable_degrees(tmp_path, capsys):
    spec = {"variant": "general_cyclic", "n": 2,
            "data": [{"kind": "constant", "coefficient": 1.0},
                     {"kind": "constant", "coefficient": 1.0}],
            "degrees": [0, 0]}
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL, "spec": spec, "t_list": [0.0, 1.0]})
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "refused" in err and "unstable" in err
    # the monotonicity verifier runs the same family through the same gate
    rc = main(["verify", "--theorem", "monotonicity", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "refused" in err and "unstable" in err
    assert not (tmp_path / "sweep.json").exists() and not (tmp_path / "verdict.json").exists()


def test_sweep_stable_degrees_proceed(tmp_path):
    spec = dict(HITCHIN3, degrees=[2, 0, -2])
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL, "spec": spec, "t_list": [0.0, 1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0


def test_sweep_degrees_must_be_integers(tmp_path, capsys):
    def sweep(degrees):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "grid": RADIAL, "spec": dict(HITCHIN3, degrees=degrees), "t_list": [0.0, 1.0]})
        return main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])

    assert sweep([2.5, -0.5, -2.0]) == 1
    assert "deg(L_1) must be an integer, got 2.5" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.json").exists()
    assert sweep([2.0, 0.0, -2.0]) == 0


def test_sweep_requires_t_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_bad_grid_kind_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "annulus", "resolution": 32}, "spec": HITCHIN3})
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "bad grid" in capsys.readouterr().err


def test_bad_datum_kind_is_usage_error(tmp_path, capsys):
    spec = {"variant": "hitchin_component", "n": 3,
            "data": [{"kind": "rational", "coefficient": 1.0}]}
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": spec})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown datum kind" in capsys.readouterr().err


def test_torus_solve_path(tmp_path):
    spec = {"variant": "general_cyclic", "n": 3, "t": 0.5,
            "data": [{"kind": "constant", "coefficient": 1.0},
                     {"kind": "constant", "coefficient": [0.0, 1.0]},
                     {"kind": "constant", "coefficient": 2.0}]}
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "torus", "resolution": [12, 12]}, "spec": spec})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "state.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "u_1", "u_2"]
    assert len(rows) == 1 + 144


def _state_csv_reference(grid, u) -> bytes:
    """The per-node csv.writer formatting that write_state_csv replaced."""
    z = grid.z()
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["x", "y"] + [f"u_{k + 1}" for k in range(u.shape[1])])
    w.writerows([f"{z[i].real:.17g}", f"{z[i].imag:.17g}"]
                + [f"{u[i, k]:.17g}" for k in range(u.shape[1])]
                for i in range(grid.n_nodes))
    return buf.getvalue().encode()


@pytest.mark.parametrize("spec", [GridSpec("radial_disc", 40, 0.8),
                                  GridSpec("disc2d", 17, 0.8),
                                  GridSpec("torus", (9, 8))], ids=lambda s: s.kind)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_state_csv_bytes_match_the_per_node_writer(tmp_path, spec, m):
    grid = build_grid(spec)
    u = np.random.default_rng(m).normal(scale=10.0 ** np.arange(-3, 3 * m - 3, 3),
                                        size=(grid.n_nodes, m))
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               0.1, 1 / 3, 1e22, 123456789012345678.0]
    u.flat[:len(special)] = special
    path = tmp_path / "state.csv"
    write_state_csv(str(path), grid, u)
    assert path.read_bytes() == _state_csv_reference(grid, u)

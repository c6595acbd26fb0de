"""End-to-end command-line checks through main(): exit codes and artifacts."""

import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from hitchinlab.cli import _RETIRED_KEYS, _write_table, main, write_json, write_state_csv
from hitchinlab.geometry import GridSpec, build_grid
from hitchinlab.solver import SolverConfig

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


def test_config_root_that_is_no_object_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", [{"grid": RADIAL, "spec": HITCHIN3}])
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config root must be a JSON object\n"
    assert not out.exists()


SYM_QUICK = {"samples": 10, "ranks": [2]}


def test_output_directory_that_cannot_be_made_is_io_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", SYM_QUICK)
    (tmp_path / "file").write_text("")
    rc = main(["verify", "--theorem", "sym-space-curvature", "--config", cfg,
               "--out", str(tmp_path / "file" / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot create output directory: ") and err.count("\n") == 1


def test_failed_write_leaves_no_partial_file_and_is_io_failure(tmp_path, capsys, monkeypatch):
    def disk_full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("hitchinlab.cli.os.replace", disk_full)
    cfg = write_cfg(tmp_path, "cfg.json", SYM_QUICK)
    out = tmp_path / "out"
    rc = main(["verify", "--theorem", "sym-space-curvature", "--config", cfg, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr() == ("", "I/O failure: [Errno 28] No space left on device\n")
    assert list(out.iterdir()) == []


def test_written_json_spells_non_finite_numbers_and_drops_wall_times(tmp_path):
    payload = {"a": float("inf"), "b": [float("nan"), np.float64(-np.inf), np.float32(0.5)],
               "c": {"wall_time_s": 1.5, "d": (np.float64(2.0),)}, "wall_time_s": 2.5}
    path = tmp_path / "out.json"
    write_json(str(path), payload)
    assert read_json(path) == {"a": "inf", "b": ["nan", "-inf", 0.5], "c": {"d": [2.0]}}
    write_json(str(path), payload, volatile_ok=True)
    assert read_json(path) == {"a": "inf", "b": ["nan", "-inf", 0.5],
                               "c": {"wall_time_s": 1.5, "d": [2.0]}, "wall_time_s": 2.5}


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
    # linear_solver was an option once; the direct LU solve is now the only
    # one.  The line search's constants were options too, each with one value
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["tol_residual", "max_newton_iters"]
    for option in ({"newton_tol": 1e-8}, {"linear_solver": "direct"},
                   {"backtrack_factor": 0.5}, {"min_step": 1e-8}, {"sufficient_decrease": 1e-4}):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "grid": RADIAL, "spec": HITCHIN3, "solver": option})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert f"unknown solver options: {sorted(option)}" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    {"backtrack_factor": "0.5"}, {"min_step": 1.5}, {"sufficient_decrease": 0},
], ids=lambda v: next(iter(v)))
def test_retired_line_search_option_is_usage_error(tmp_path, capsys, option):
    # these values were once refused by a type or range check of their own;
    # the keys are gone now, so any value is refused as an unknown option
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": dict(RADIAL, resolution=16), "spec": HITCHIN3, "solver": option})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unknown solver options: {sorted(option)}" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("option, message", [
    ({"tol_residual": True}, "'tol_residual' must be a number, got True"),
    ({"tol_residual": 10**400}, "'tol_residual' must be a number within the double range"),
    ({"tol_residual": float("nan")}, "bad solver config: bad tolerance"),
    ({"tol_residual": float("inf")}, "bad solver config: bad tolerance"),
    ({"max_newton_iters": 2.5}, "'max_newton_iters' must be an integer, got 2.5"),
    ({"max_newton_iters": True}, "'max_newton_iters' must be an integer, got True"),
    ({"max_newton_iters": " 20 "}, "'max_newton_iters' must be an integer, got ' 20 '"),
], ids=lambda v: repr(v)[:40])
def test_solver_option_of_the_wrong_kind_is_usage_error(tmp_path, capsys, option, message):
    # a bool tolerance once solved to 1 and exited 0, a fractional iteration
    # budget ended in a traceback, and a NaN tolerance ran until the budget
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": dict(RADIAL, resolution=16), "spec": HITCHIN3, "solver": option})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "report.json").exists()


def test_solver_config_that_is_no_object_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3, "solver": 1e-8})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: 'solver' must be an object")


def test_solver_options_take_integers_and_floats(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": RADIAL, "spec": HITCHIN3,
        "solver": {"tol_residual": 1e-9, "max_newton_iters": 20.0}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "report.json")["final_residual"] <= 1e-9


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


@pytest.mark.parametrize("solver", [{}, {"max_newton_iters": 1}],
                         ids=["converging", "unconverged"])
def test_verify_nu_bounds_refuses_wrong_variant_before_solving(tmp_path, capsys, solver):
    spec = {"variant": "slnr_even", "n": 4,
            "data": [{"kind": "constant", "coefficient": 1.0}] * 3}
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": spec, "solver": solver})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--theorem", "nu-bounds", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hitchin_component" in err
    assert not (out / "verdict.json").exists()


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
    ("max_newton_iters", "curvature",
     {"grid": RADIAL, "spec": HITCHIN3, "solver": {"max_newton_iters": 5.5}}),
    ("seed", "sym-space-curvature", {"samples": 5, "ranks": [2], "seed": 0.5}),
    ("resolution", "nu-bounds", {"grid": dict(RADIAL, resolution=64.9), "spec": HITCHIN3}),
    ("degree", "nu-bounds", {"grid": RADIAL, "spec": _DEGREE_17}),
    # strings were once parsed by int(): "64" ran as resolution 64
    ("samples", "sym-space-curvature", {"samples": "5", "ranks": [2]}),
    ("ranks", "sym-space-curvature", {"samples": 5, "ranks": ["2"]}),
    ("count", "max-principle", {"count": "3"}),
    ("n", "nu-bounds", {"grid": RADIAL, "spec": dict(HITCHIN3, n="3")}),
    ("max_newton_iters", "curvature",
     {"grid": RADIAL, "spec": HITCHIN3, "solver": {"max_newton_iters": "5"}}),
    ("seed", "sym-space-curvature", {"samples": 5, "ranks": [2], "seed": "0"}),
    ("resolution", "nu-bounds", {"grid": dict(RADIAL, resolution="64"), "spec": HITCHIN3}),
    ("degree", "nu-bounds", {"grid": RADIAL, "spec": dict(HITCHIN3, data=[
        {"kind": "monomial", "coefficient": 1.0, "degree": "1"}])}),
])
def test_fractional_integer_field_is_usage_error(tmp_path, capsys, key, theorem, payload):
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", theorem, "--out", str(out)])
    assert rc == 1
    assert f"'{key}' must be an integer" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("theorem,payload", [
    ("max-principle", {"count": 2}),
    ("sym-space-curvature", {"samples": 5, "ranks": [2]}),
    ("nu-bounds", {"grid": RADIAL, "spec": HITCHIN3}),
])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_is_usage_error(tmp_path, capsys, theorem, payload, source):
    # the randomized suites once died in numpy's "expected non-negative
    # integer", naming no field, and nu-bounds wrote "seed": -1
    cfg = write_cfg(tmp_path, "cfg.json", dict(payload, seed=-1) if source == "config" else payload)
    out = tmp_path / "out"
    argv = ["verify", "--config", cfg, "--theorem", theorem, "--out", str(out)]
    rc = main(argv + (["--seed", "-1"] if source == "flag" else []))
    assert rc == 1
    assert capsys.readouterr().err == "error: 'seed' must be a nonnegative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("ranks", [5, "23", {"2": 3}])
def test_sym_space_ranks_that_are_no_list_are_usage_error(tmp_path, capsys, ranks):
    # 5 once died in a TypeError traceback, and "23" ran ranks 2 and 3
    cfg = write_cfg(tmp_path, "cfg.json", {"samples": 5, "ranks": ranks})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "sym-space-curvature", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: 'ranks' must be a list, got ")
    assert not (out / "verdict.json").exists()


def test_integral_float_fields_are_accepted(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {"samples": 5e1, "ranks": [2.0, 3], "seed": 7.0})
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--theorem", "sym-space-curvature",
               "--out", str(out)])
    assert rc == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["seed"] == 7 and verdict["samples"] == 50


@pytest.mark.parametrize("argv", [["solve"], ["verify", "--theorem", "nu-bounds"],
                                  ["verify", "--theorem", "max-principle"], ["sweep"]],
                         ids=["solve", "verify", "verify-max-principle", "sweep"])
@pytest.mark.parametrize("value", [5, "column", None])
@pytest.mark.parametrize("key", sorted(_RETIRED_KEYS))
def test_retired_key_is_usage_error(tmp_path, capsys, monkeypatch, key, value, argv):
    # each key once chose what the library no longer does (the verdict
    # region's distance from the rim, explicit Dirichlet data, a one-control
    # max-principle demo); an old config is refused, not reinterpreted,
    # before any grid is built
    calls = []
    monkeypatch.setattr("hitchinlab.cli.parse_grid", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3,
                                           "t_list": [0.0, 1.0], key: value})
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {key!r} is retired: {_RETIRED_KEYS[key]}; remove the key\n")
    assert calls == []
    assert not out.exists()


def test_retired_margin_cells_message_names_the_region():
    assert _RETIRED_KEYS["margin_cells"] == (
        "verdicts are asserted on the fixed region |z| <= 7R/8 of a disc chart of radius R "
        "(every node of a torus)")


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


@pytest.mark.parametrize("theorem, spec, reports", [
    ("nu-bounds", dict(HITCHIN3, data=[_MONO1]), 1),
    ("curvature", dict(HITCHIN3, data=[_MONO1]), 1),
    ("sp4-bounds", {"variant": "sp4_gothen", "n": 4,
                    "data": [HITCHIN3["data"][0], _MONO1]}, 1),
    ("hitchin-fiber-comparison", {"variant": "slnr_even", "n": 2,
                                  "data": [HITCHIN3["data"][0], dict(_MONO1, degree=2)]}, 2),
    ("monotonicity", dict(HITCHIN3, data=[_MONO1]), 1),
])
def test_failed_solve_is_inconclusive(tmp_path, capsys, theorem, spec, reports):
    # every solve-based theorem writes one inconclusive shape; monotonicity
    # also echoes its family
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": dict(RADIAL, resolution=96), "spec": spec, "t_list": [0.5, 1.0],
        "solver": {"max_newton_iters": 1}})
    out = tmp_path / "out"
    assert main(["verify", "--theorem", theorem, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().out == f"verify[{theorem}]: inconclusive\n"
    verdict = read_json(out / "verdict.json")
    assert verdict["inconclusive"] is True and verdict["passed"] is False
    assert verdict["error"] == "solve failed"
    echo = {"t_values", "converged"} if theorem == "monotonicity" else set()
    assert verdict.keys() == {"passed", "error", "reports", "inconclusive", "theorem",
                              "seed"} | echo
    if theorem == "monotonicity":
        assert verdict["converged"] == [False] and verdict["t_values"] == [0.5]
    assert len(verdict["reports"]) == reports
    for report in verdict["reports"]:
        assert report["iterations"] == 1


def _const(c):
    return {"kind": "constant", "coefficient": c}


@pytest.mark.parametrize("spec", [
    {"variant": "slnr_even", "n": 4, "data": [_MONO1, _const(3.0), _const(0.2)]},
    {"variant": "general_cyclic", "n": 3, "data": [_const(1.0), _const(2.0), _MONO1]},
], ids=["slnr_even", "general_cyclic"])
def test_verify_curvature_refuses_wrong_variant_before_solving(tmp_path, capsys, spec):
    # both solve, and read k_min below the Hitchin-section bound on radial 128
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": spec})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--theorem", "curvature", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hitchin_component" in err
    assert not (out / "verdict.json").exists()


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
    # verify solves with the disc's fuchsian boundary, so it refuses the torus
    assert main(["verify", "--theorem", "monotonicity", "--config", cfg,
                 "--out", str(out)]) == 1
    assert ("error: monotonicity needs a disc grid ('radial_disc' or 'disc2d'), not a torus\n"
            == capsys.readouterr().err)


@pytest.mark.parametrize("theorem", ["monotonicity", "nu-bounds", "curvature",
                                     "hitchin-fiber-comparison", "sp4-bounds"])
def test_solve_based_theorems_refuse_a_torus_grid(tmp_path, capsys, theorem):
    # the refusal names the grid the theorem needs, not a boundary the config never set
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "torus", "resolution": 8}, "spec": HITCHIN3, "t_list": [0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["verify", "--theorem", theorem, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {theorem} needs a disc grid ('radial_disc' or 'disc2d'), not a torus\n"
    assert not (out / "verdict.json").exists()


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


@pytest.mark.parametrize("t_list", [[1.0], [1.0, 1.0, 2.0]], ids=["one", "repeated"])
def test_monotonicity_refuses_t_list_that_is_not_strictly_increasing(tmp_path, capsys, t_list):
    # one member compares nothing and a repeated one compares a state with
    # itself; either is refused with no verdict, where sweep takes a singleton
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3, "t_list": t_list})
    out = tmp_path / "out"
    assert main(["verify", "--theorem", "monotonicity", "--config", cfg,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: monotonicity needs a strictly increasing 't_list' "
                            f"of at least 2 values, got {t_list}\n")
    assert not (out / "verdict.json").exists()


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


def test_sweep_degrees_beyond_the_double_range_are_exact(tmp_path, capsys):
    big = 10**400  # float(big) overflows

    def sweep(degrees):
        cfg = write_cfg(tmp_path, "cfg.json", {
            "grid": RADIAL, "spec": dict(HITCHIN3, degrees=degrees), "t_list": [0.0, 1.0]})
        return main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])

    assert sweep([big, 0, 1 - big]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sum to zero" in err
    assert sweep([-big, 0, big]) == 1
    assert "unstable" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.json").exists()
    assert sweep([big, 0, -big]) == 0


@pytest.mark.parametrize("degrees, message", [
    (5, "'degrees' must be a list, got 5"),
    ({"L_1": 1}, "'degrees' must be a list"),
    ([True, -1], "deg(L_1) must be an integer, got True"),
])
def test_degrees_that_are_no_list_of_integers_are_usage_error(tmp_path, capsys, degrees,
                                                               message):
    spec = {"variant": "general_cyclic", "n": 2, "degrees": degrees,
            "data": [{"kind": "constant", "coefficient": 1.0}] * 2}
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": dict(RADIAL, resolution=16), "spec": spec})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "report.json").exists()


def test_sweep_requires_t_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("t_list, message", [
    (5, "needs a nonempty 't_list'"),
    ("0.5", "needs a nonempty 't_list'"),
    ({"t": 0.5}, "needs a nonempty 't_list'"),
    ([], "needs a nonempty 't_list'"),
    ([0.5, None], "'t_list' must hold numbers"),
    ([0.5, [1.0]], "'t_list' must hold numbers"),
    ([0.5, "one"], "'t_list' must hold numbers"),
    (["0.5"], "'t_list' must hold numbers"),
    ([0.5, True], "'t_list' must hold numbers"),
    ([0.5, 10**400], "'t_list' must hold numbers"),
])
@pytest.mark.parametrize("command", [["sweep"], ["verify", "--theorem", "monotonicity"]],
                         ids=["sweep", "monotonicity"])
def test_t_list_that_is_not_a_list_of_numbers_is_usage_error(tmp_path, capsys, command,
                                                              t_list, message):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": HITCHIN3, "t_list": t_list})
    out = tmp_path / "out"
    assert main([*command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or not any(out.iterdir())


def _number_field_config(field, value):
    """A solve config whose ``field`` holds ``value``, all else valid."""
    grid, spec = RADIAL, HITCHIN3
    if field == "radius":
        grid = dict(RADIAL, radius=value)
    elif field == "periods":
        grid = {"kind": "torus", "resolution": [12, 12], "periods": [1.0, value]}
    elif field == "t":
        spec = dict(HITCHIN3, t=[0.5, value])
    elif field == "coefficient":
        spec = dict(HITCHIN3, data=[{"kind": "monomial", "coefficient": value, "degree": 1}])
    else:  # a radial grid takes no polynomial
        grid = {"kind": "disc2d", "resolution": 9, "radius": 0.8}
        spec = dict(HITCHIN3, data=[{"kind": "polynomial", "coefficients": [0.5, value]}])
    return {"grid": grid, "spec": spec}


@pytest.mark.parametrize("value", [10**400, True], ids=["beyond-double", "true"])
@pytest.mark.parametrize("field", ["radius", "periods", "t", "coefficient", "coefficients"])
def test_number_field_that_is_no_double_is_usage_error(tmp_path, capsys, field, value):
    # a JSON integer beyond the double range, or a JSON bool, in any real or
    # complex number field is refused with an error line, never a traceback
    cfg = write_cfg(tmp_path, "cfg.json", _number_field_config(field, value))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}' must be a number" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("field", ["periods", "coefficients"])
def test_number_list_that_is_no_list_is_usage_error(tmp_path, capsys, field):
    payload = _number_field_config(field, 1.0)
    (payload["grid"] if field == "periods" else payload["spec"]["data"][0])[field] = 1.0
    cfg = write_cfg(tmp_path, "cfg.json", payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}' must be a list" in err


@pytest.mark.parametrize("field", ["radius", "periods", "t", "coefficient", "coefficients"])
def test_number_fields_take_integers_and_floats(tmp_path, field):
    value = 0.5 if field == "radius" else 1
    cfg = write_cfg(tmp_path, "cfg.json", _number_field_config(field, value))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_bad_grid_kind_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "annulus", "resolution": 32}, "spec": HITCHIN3})
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "bad grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    {"kind": "torus", "resolution": [12, 12], "periods": [1e308, 1.0]},
    {"kind": "torus", "resolution": [12, 12], "periods": [1e-200, 1.0]},
    {"kind": "torus", "resolution": [12, 12], "periods": [float("nan"), 1.0]},
    {"kind": "torus", "resolution": [12, 12], "periods": [float("inf"), 1.0]},
    dict(RADIAL, radius=1e-200),
    {"kind": "disc2d", "resolution": 9, "radius": 1e-200},
], ids=["period-1e308", "period-1e-200", "period-nan", "period-inf", "radial-1e-200",
        "disc2d-1e-200"])
def test_chart_without_finite_stencil_weights_is_usage_error(tmp_path, capsys, grid):
    # a spacing whose 1/h^2 overflows or underflows, or a non-finite period
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": grid, "spec": HITCHIN3})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: bad grid: ")
    assert not (out / "report.json").exists()


def test_bad_datum_kind_is_usage_error(tmp_path, capsys):
    spec = {"variant": "hitchin_component", "n": 3,
            "data": [{"kind": "rational", "coefficient": 1.0}]}
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": RADIAL, "spec": spec})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown datum kind" in capsys.readouterr().err


def test_one_datum_spelled_two_ways_solves_to_the_same_bytes(tmp_path, capsys):
    # z as a one-term polynomial was once refused on the radial grid
    outs = []
    for k, datum in enumerate(({"kind": "polynomial", "coefficients": [0, 1]},
                               {"kind": "monomial", "coefficient": 1.0, "degree": 1})):
        cfg = write_cfg(tmp_path, f"cfg{k}.json", {"grid": RADIAL,
                                                    "spec": dict(HITCHIN3, data=[datum])})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / str(k))]) == 0
        outs.append((tmp_path / str(k) / "state.csv").read_bytes())
    assert outs[0] == outs[1]


def test_monomial_of_huge_degree_verifies(tmp_path):
    # c z^l is stored as one coefficient whatever l is.  At l = 1e12, |q|^2
    # underflows to 0 at every node of the chart, so the system is the
    # uniformising one: the equality case, whose strict verdict is false
    datum = {"kind": "monomial", "coefficient": 1.0, "degree": 1e12}
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": dict(RADIAL, resolution=64),
                                           "spec": dict(HITCHIN3, data=[datum])})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--theorem", "nu-bounds", "--out", str(out)]) == 2
    verdict = read_json(out / "verdict.json")
    assert verdict["passed"] is False and "degenerate" in verdict
    assert verdict["equality_deviation"] <= 1e-9


@pytest.mark.parametrize("theorem", ["nu-bounds", "curvature"])
@pytest.mark.parametrize("datum", [{"kind": "zero"}, {"kind": "constant", "coefficient": 0.0},
                                   {"kind": "constant", "coefficient": 1e-320}],
                         ids=["zero", "coefficient-0", "coefficient-1e-320"])
def test_vanishing_differential_is_the_equality_case(tmp_path, capsys, theorem, datum):
    # the n = 3 nu-bounds verdict once passed with an infinite k = 1 margin
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": dict(RADIAL, resolution=64),
                                           "spec": dict(HITCHIN3, data=[datum])})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--theorem", theorem, "--out", str(out)]) == 2
    assert capsys.readouterr().out == f"verify[{theorem}]: fail\n"
    text = (out / "verdict.json").read_text()
    verdict = json.loads(text)
    assert verdict["passed"] is False and "degenerate" in verdict
    assert verdict["equality_deviation"] <= 1e-9
    assert "inf" not in text.lower()


@pytest.mark.parametrize("spec, message", [
    (dict(HITCHIN3, data=5), "'data' must be a list, got 5"),
    (dict(HITCHIN3, data=None), "'data' must be a list, got None"),
    (dict(HITCHIN3, n=1e308), "'n' must be an integer of magnitude at most 2**53, got 1e+308"),
    (dict(HITCHIN3, n=2**53 + 2), "'n' must be an integer of magnitude at most 2**53"),
    (dict(HITCHIN3, data=[{"kind": "monomial", "coefficient": 1.0, "degree": 1e308}]),
     "'degree' must be an integer of magnitude at most 2**53, got 1e+308"),
], ids=["data-5", "data-null", "n-1e308", "n-2**53+2", "degree-1e308"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_spec_that_once_raised_is_usage_error(tmp_path, capsys, spec, message, command):
    # these died in a TypeError or an OverflowError with a traceback
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": dict(RADIAL, resolution=16), "spec": spec})
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + (["--theorem", "nu-bounds"] if command == "verify" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad spec: ") and message in err and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_unallocatable_rank_is_one_error_line(tmp_path, capsys, command):
    # 2**53 passes the integer check, but unfolding that many arrows fails
    # inside CyclicSpec at once, before anything is allocated; it once ended
    # in a MemoryError traceback
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": dict(RADIAL, resolution=16),
                                           "spec": dict(HITCHIN3, n=9007199254740992),
                                           "t_list": [0.5, 1.0]})
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + (["--theorem", "nu-bounds"] if command == "verify" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory" in err and err.count("\n") == 1
    assert not any(out.iterdir())


def test_continuation_to_an_overflowing_scale_fails_without_warnings(tmp_path, capsys):
    # the member at t = 1e154 is refined first through the factorisation
    # kept from t = 0.5; r^T z overflowed there, and numpy's RuntimeWarnings
    # reached stderr beside the CLI's own line
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "disc2d", "resolution": 17, "radius": 0.8},
        "spec": dict(HITCHIN3, data=[{"kind": "monomial", "coefficient": 1.0, "degree": 1}]),
        "t_list": [0.5, 1e154]})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "sweep: a member failed to converge\n"
    assert [m["converged"] for m in read_json(out / "sweep.json")["members"]] == [True, False]


def test_solve_at_an_overflowing_scale_fails_without_warnings(tmp_path, capsys):
    # the first Newton step's right-hand side and Hessian overflowed in their
    # matrix products, and numpy's RuntimeWarnings reached stderr before the
    # blow-up was reported
    cfg = write_cfg(tmp_path, "cfg.json", {
        "grid": {"kind": "radial_disc", "resolution": 16, "radius": 0.8},
        "spec": {"variant": "hitchin_component", "n": 2, "t": 1e154,
                 "data": [{"kind": "constant", "coefficient": 1.0}]}})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "solve: not converged (non-finite Jacobian entries (state blew up))\n")
    assert read_json(out / "report.json")["converged"] is False


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

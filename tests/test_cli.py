import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chebpot.cli import dumps, main


def run_cli(tmp_path, name, doc, *args):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / f"out_{name}"
    code = main([name.split("__")[0], "--config", str(cfg), "--out", str(out), *args])
    return code, out


def test_solve_classical(tmp_path):
    doc = {"bands": [[-1, 1]], "weight": {"kind": "unit"}, "x_star": "inf", "n": 3}
    code, out = run_cli(tmp_path, "solve", doc)
    assert code == 0
    data = json.loads((out / "solve.json").read_text())
    assert abs(data["solution"]["t"] - 0.25) < 1e-12
    # x^3 - 0.75 x = T_3(x)/4; the monomial coefficients field is gone
    assert data["solution"]["cheb_coeffs"] == [0, 0, 0, 0.25]
    assert "coefficients" not in data["solution"]
    csv_text = (out / "solve.csv").read_text().splitlines()
    assert csv_text[0] == "n,degree,t,defect"


def test_bounds_csv_row(tmp_path):
    doc = {
        "bands": [[-1, 1]],
        "weight": {"kind": "recip_poly", "coeffs": [-3.0, 1.0]},
        "x_star": "inf",
        "n": 5,
    }
    code, out = run_cli(tmp_path, "bounds", doc)
    assert code == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "n,t_n,W_n,S,sharp_lb,ub,pass_lb,pass_ub"
    row = lines[1].split(",")
    assert int(row[0]) == 5
    W, S = float(row[2]), float(row[3])
    assert abs(W - 2 * S) < 1e-9
    assert row[6] == "true" and row[7] == "true"


def test_missing_bands_is_input_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "solve", {"weight": {"kind": "unit"}, "n": 3})
    assert code == 2
    assert "/bands" in capsys.readouterr().err


def test_bad_weight_kind_path(tmp_path, capsys):
    doc = {"bands": [[-1, 1]], "weight": {"kind": "nope"}, "n": 2}
    code, _ = run_cli(tmp_path, "solve", doc)
    assert code == 2
    assert "/weight/kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"bands": [[-1, 1]], "n": 1100},
        {"bands": [[-1, 1]], "x_star": 1.5, "n": 1100},
        {"bands": [[-0.01, 0.01]], "n": 170},
    ],
)
def test_normalization_overflow_exits_one_without_traceback(tmp_path, doc):
    # a fresh process, so that an uncaught exception would show its traceback
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-m", "chebpot.cli", "solve", "--config", str(cfg), "--out", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: solve: IllConditionedError:")
    assert f"n = {doc['n']}" in proc.stderr and "Traceback" not in proc.stderr


def test_computation_error_exit_one(tmp_path, capsys):
    # x* on the set: valid descriptor, failing computation
    doc = {"bands": [[-1, 1]], "weight": {"kind": "unit"}, "x_star": 0.5, "n": 2}
    code, _ = run_cli(tmp_path, "solve", doc)
    assert code == 1
    assert "PoleOnSet" in capsys.readouterr().err


@pytest.mark.parametrize(
    "update, path",
    [
        ({"x_star": math.nan}, "/x_star"),
        ({"weight": {"kind": "recip_poly", "coeffs": [math.nan, 1]}}, "/weight/coeffs/0"),
        ({"weight": {"kind": "abs_poly", "coeffs": [math.inf, 1]}}, "/weight/coeffs/0"),
        ({"weight": {"kind": "sampled", "grid": [-1, "a"], "values": [1, 1]}}, "/weight/grid/1"),
        ({"weight": {"kind": "sampled", "grid": [1, -1], "values": [1, 1]}}, "/weight/grid"),
        ({"weight": {"kind": "semicircle", "pairs": [[1, -1]]}}, "/weight/pairs"),
        ({"weight": {"kind": "exp_inv_abs", "center": math.nan}}, "/weight/center"),
        ({"weight": {"kind": "recip_poly", "coeffs": [0.0]}}, "/weight/coeffs"),
    ],
    ids=["x_star_nan", "coeff_nan", "coeff_inf", "grid_string", "grid_decreasing",
         "pair_reversed", "center_nan", "zero_poly"],
)
def test_bad_number_is_input_error(tmp_path, capsys, update, path):
    doc = {"bands": [[-1, 1]], "weight": {"kind": "unit"}, "x_star": "inf", "n": 2, **update}
    code, _ = run_cli(tmp_path, "solve", doc)
    assert code == 2
    assert f"error: {path}:" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    doc = {
        "bands": [[-1, -0.6], [0.6, 1]],
        "weight": {"kind": "unit"},
        "n_range": [1, 4],
    }
    _, out1 = run_cli(tmp_path, "sweep__a", doc)
    _, out2 = run_cli(tmp_path, "sweep__b", doc)
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_solve_output_feeds_enset_without_resolve(tmp_path):
    doc = {
        "bands": [[-1, 1]],
        "weight": {"kind": "recip_poly", "coeffs": [-3.0, 1.0]},
        "x_star": "inf",
        "n": 4,
    }
    code, out = run_cli(tmp_path, "solve__r", doc)
    assert code == 0
    solved = json.loads((out / "solve.json").read_text())

    cfg2 = tmp_path / "chain.json"
    cfg2.write_text(json.dumps(solved))
    out2 = tmp_path / "out_chain"
    assert main(["enset", "--config", str(cfg2), "--out", str(out2)]) == 0
    data = json.loads((out2 / "enset.json").read_text())
    assert data["d_n"] == 4 and data["r_n"] == 1
    assert data["measures_ok"] and data["cosh_ok"]

    # same command from the raw descriptor gives identical artifacts
    cfg3 = tmp_path / "raw.json"
    cfg3.write_text(json.dumps(doc))
    out3 = tmp_path / "out_raw"
    assert main(["enset", "--config", str(cfg3), "--out", str(out3)]) == 0
    assert (out2 / "enset.json").read_bytes() == (out3 / "enset.json").read_bytes()


def test_widom_uses_embedded_solution_verbatim(tmp_path):
    doc = {"bands": [[-1, 1]], "weight": {"kind": "unit"}, "x_star": "inf", "n": 2}
    code, out = run_cli(tmp_path, "solve__w", doc)
    solved = json.loads((out / "solve.json").read_text())
    solved["solution"]["t"] = 123.0  # a recomputation would overwrite this
    cfg = tmp_path / "tweaked.json"
    cfg.write_text(json.dumps(solved))
    out2 = tmp_path / "out_tweaked"
    assert main(["widom", "--config", str(cfg), "--out", str(out2)]) == 0
    data = json.loads((out2 / "widom.json").read_text())
    assert data["t"] == 123.0


def test_dichotomy_command(tmp_path):
    doc = {
        "bands": [[-1, 1]],
        "weight": {"kind": "exp_inv_abs", "center": 0.2},
        "n_range": [4, 8],
    }
    code, out = run_cli(tmp_path, "dichotomy", doc)
    assert code == 0
    data = json.loads((out / "dichotomy.json").read_text())
    assert data["divergent"] is True
    assert data["szego_log_integral"] == "-inf"


def test_potential_command(tmp_path):
    doc = {"bands": [[-1, -0.6], [0.6, 1]], "x_star": 0.0}
    code, out = run_cli(tmp_path, "potential", doc)
    assert code == 0
    data = json.loads((out / "potential.json").read_text())
    assert abs(data["capacity"] - 0.4) < 1e-10
    assert abs(data["pw"] - math.log(2)) < 1e-10
    assert abs(data["pw_at_x_star"] - math.log(2)) < 1e-10


def test_json_format_only(tmp_path):
    doc = {"bands": [[-1, 1]], "weight": {"kind": "unit"}, "n": 2}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    assert (out / "solve.json").exists()
    assert not (out / "solve.csv").exists()


def test_dumps_17_digits_roundtrip():
    x = 1 / 3
    s = dumps({"v": x})
    assert "0.33333333333333331" in s
    assert json.loads(s)["v"] == x
    assert dumps({"a": math.inf, "b": -math.inf}) == '{\n  "a": "inf",\n  "b": "-inf"\n}'


def test_dumps_sorted_keys_and_types():
    s = dumps({"b": [1, 2.5, None, True], "a": "x"})
    assert s.index('"a"') < s.index('"b"')
    parsed = json.loads(s)
    assert parsed == {"a": "x", "b": [1, 2.5, None, True]}


@pytest.mark.parametrize("tol", [-1, 0, 1, 2.5, math.nan, "small", True])
def test_tol_out_of_range_is_input_error(tmp_path, capsys, tol):
    doc = {"bands": [[-1, 1]], "n": 3, "options": {"tol": tol}}
    code, out = run_cli(tmp_path, "solve", doc)
    assert code == 2
    assert "/options/tol" in capsys.readouterr().err
    assert not (out / "solve.json").exists()


def test_tol_flag_out_of_range_is_input_error(tmp_path, capsys):
    doc = {"bands": [[-1, 1]], "n": 3}
    code, _ = run_cli(tmp_path, "solve", doc, "--tol", "-1")
    assert code == 2
    assert "/options/tol" in capsys.readouterr().err


def _solved(tmp_path):
    doc = {"bands": [[-1, 1]], "weight": {"kind": "unit"}, "x_star": "inf", "n": 3}
    code, out = run_cli(tmp_path, "solve__s", doc)
    assert code == 0
    return json.loads((out / "solve.json").read_text())


@pytest.mark.parametrize("field", ["t", "n", "x_star", "cheb_coeffs", "signs", "defect"])
def test_embedded_solution_missing_field(tmp_path, capsys, field):
    solved = _solved(tmp_path)
    del solved["solution"][field]
    code, _ = run_cli(tmp_path, "bounds", solved)
    assert code == 2
    assert f"/solution/{field}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("t", "small", "/solution/t"),
        ("t", -0.25, "/solution/t"),
        ("half", 0, "/solution/half"),
        ("x_star", "nan", "/solution/x_star"),
        ("n", 0, "/solution/n"),
        ("alternation", [0.5, "x"], "/solution/alternation/1"),
        ("signs", [1, 0, 1, -1], "/solution/signs/1"),
        ("cheb_coeffs", 3.0, "/solution/cheb_coeffs"),
    ],
)
def test_embedded_solution_malformed_field(tmp_path, capsys, field, value, path):
    solved = _solved(tmp_path)
    solved["solution"][field] = value
    code, _ = run_cli(tmp_path, "widom", solved)
    assert code == 2
    assert path in capsys.readouterr().err


def test_embedded_solution_not_an_object(tmp_path, capsys):
    solved = _solved(tmp_path)
    solved["solution"] = [1, 2]
    code, _ = run_cli(tmp_path, "enset", solved)
    assert code == 2
    assert "/solution" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [3, 2048.0, True, "2048"])
def test_grid_option_is_input_error(tmp_path, capsys, grid):
    doc = {"bands": [[-1, 1]], "n": 3, "options": {"grid": grid}}
    code, out = run_cli(tmp_path, "solve", doc)
    assert code == 2
    assert "/options/grid" in capsys.readouterr().err
    assert not (out / "solve.json").exists()


@pytest.mark.parametrize("flag, value, path", [("--grid", "3", "/options/grid"), ("--tol", "nan", "/options/tol")])
def test_option_flag_is_input_error(tmp_path, capsys, flag, value, path):
    code, _ = run_cli(tmp_path, "solve", {"bands": [[-1, 1]], "n": 3}, flag, value)
    assert code == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, args, grid",
    [({}, (), None), ({"grid": None}, (), None), ({}, ("--grid", "2048"), 2048)],
    ids=["default", "null", "flag_2048"],
)
def test_cli_grid_matches_library(tmp_path, options, args, grid):
    from chebpot.extremal import RemezOptions, solve_extremal
    from chebpot.realset import make_set
    from chebpot.weights import RecipPolyWeight

    w = {"kind": "recip_poly", "coeffs": [0.25, 0.0, 1.0]}
    doc = {"bands": [[-1, -0.5], [-0.2, 0.3], [0.6, 1]], "weight": w, "x_star": 0.45, "n": 30, "options": options}
    code, out = run_cli(tmp_path, "solve", doc, *args)
    assert code == 0
    t = json.loads((out / "solve.json").read_text())["solution"]["t"]
    E = make_set([(-1, -0.5), (-0.2, 0.3), (0.6, 1)])
    sol = solve_extremal(E, RecipPolyWeight([0.25, 0.0, 1.0]), 0.45, 30, RemezOptions(grid=grid))
    assert t == sol.t

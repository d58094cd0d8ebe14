import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nestor
from nestor.cli import main, validate_config
from nestor.errors import ConfigError


def run_cli(args, cwd):
    # Put the directory holding the imported nestor package first on the
    # child's PYTHONPATH, so the child runs the same code from any cwd,
    # whether nestor is installed or only on a relative PYTHONPATH=src.
    env = os.environ.copy()
    pkg_root = str(Path(nestor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "nestor.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


# Most tests call main() in-process: it is fast and lets them use capsys.
# test_console_script_entry alone covers the `python -m nestor.cli` entry
# point (the __main__ guard) in a child process.
def run_main(args):
    return main(args)


def test_scenario_list(capsys):
    assert run_main(["scenario-list"]) == 0
    out = capsys.readouterr().out.split()
    assert "paraboloid-segment" in out and "ball-circle" in out


def test_solve_writes_artifacts(tmp_path, capsys):
    code = run_main(["solve", "uniform-1d", "--out", str(tmp_path)])
    assert code == 0
    for name in ("curve.csv", "map.csv", "nestedness.json", "summary.json"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0].split(",") == ["y", "k", "kprime", "v", "area",
                                   "balance_residual", "tangential"]
    assert len(lines) == 1 + 257  # default node count
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["nestedness_verdict"] == "nested"
    assert summary["nondegeneracy"]["passed"] is True
    assert "tol_mass" in summary["tolerances"]
    assert "timings_seconds" not in summary
    assert "map_gradient_error" not in summary


def test_require_nested_exit_code(tmp_path):
    code = run_main(["check-nested", "ball-circle", "--resolution", "128",
                     "--y-nodes", "65", "--require-nested",
                     "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "nestedness.json").read_text())
    assert report["verdict"] == "non-nested"
    assert report["unique_splitting"]["witnesses"]


def test_check_nested_pie_threshold(tmp_path):
    code = run_main(["check-nested", "pie-slice", "--theta0", "1.2",
                     "--resolution", "128", "--y-nodes", "65",
                     "--require-nested", "--out", str(tmp_path / "a")])
    assert code == 0


def test_malformed_config_reports_pointer(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": "uniform-1d",
                               "quadrature": {"resolution": -3}}))
    code = run_main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "/quadrature/resolution" in captured.err


def test_config_requires_scenario_or_model():
    with pytest.raises(ConfigError):
        validate_config({})


def test_reproducible_artifacts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run_main(["solve", "uniform-1d", "--y-nodes", "65",
                         "--out", str(out)]) == 0
    for name in ("curve.csv", "map.csv", "nestedness.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_oracle_subcommand(tmp_path):
    code = run_main(["oracle", "uniform-1d", "--atoms", "80x20",
                     "--y-nodes", "65", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    oracle = summary["oracle"]
    assert abs(oracle["surplus_gap"]) < 5e-3
    assert abs(oracle["strong_duality_gap"]) < 1e-9


def test_reduce_1d_subcommand(tmp_path):
    code = run_main(["reduce-1d", "uniform-1d", "--y-nodes", "65",
                     "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["reduce_1d"]["is_index"] is True
    assert summary["reduce_1d"]["sup_gap_vs_full"] <= 1e-2
    assert (tmp_path / "map1d.csv").exists()


def test_holder_subcommand(tmp_path):
    code = run_main(["holder-probe", "uniform-1d", "--y-nodes", "129",
                     "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert abs(summary["holder_exponent"] - 1.0) <= 0.05


def test_inline_model_config(tmp_path):
    cfg = {
        "model": {
            "domain": {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            "target": [0.0, 1.0],
            "surplus": {"polynomial": [
                {"coeff": 1.0, "x_powers": [1, 0], "y_power": 1}]},
            "density_g": {"polynomial": [0.5, 1.0]},
        },
        "quadrature": {"resolution": 128},
        "y_nodes": 65,
        "outputs": {"nestedness_json": False, "map_csv": False},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_main(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    rows = np.genfromtxt(tmp_path / "curve.csv", delimiter=",", names=True)
    # g ~ 0.5 + y normalized: G(y) = (y/2 + y^2/2); k solves k = G(y)
    y = rows["y"]
    assert np.allclose(rows["k"], 0.5 * y + 0.5 * y ** 2, atol=1e-4)


def test_environment_variable_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NESTOR_OUT_DIR", str(tmp_path / "env_out"))
    assert run_main(["check-nested", "uniform-1d", "--y-nodes", "33"]) == 0
    assert (tmp_path / "env_out" / "nestedness.json").exists()


def test_console_script_entry(tmp_path):
    proc = run_cli(["scenario-list"], cwd=str(tmp_path))
    assert proc.returncode == 0
    assert "uniform-1d" in proc.stdout


def test_every_tolerance_settable_and_echoed(tmp_path):
    from nestor.cli import DEFAULT_TOLERANCES
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "uniform-1d", "y_nodes": 33,
        "tolerances": {"splitting_deadband": 2e-3, "scan_nodes": 101},
    }))
    assert run_main(["check-nested", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(DEFAULT_TOLERANCES) <= set(summary["tolerances"])
    assert summary["tolerances"]["splitting_deadband"] == 2e-3
    assert summary["tolerances"]["scan_nodes"] == 101


def test_dump_level_2d_writes_contour_segments(tmp_path):
    assert run_main(["solve", "paraboloid-segment", "--resolution", "64",
                     "--y-nodes", "33", "--dump-level", "0.5",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "levelset_0p5.csv").read_text().splitlines()
    assert lines[0] == "segment,x1,x2"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape[0] >= 2
    # two endpoints per segment, ids 0, 0, 1, 1, ...
    assert np.array_equal(rows[:, 0], np.repeat(np.arange(rows.shape[0] // 2), 2))
    # s_y = x1 on the bowl, so the level set at y is the chord x1 = y^(2/3)
    assert np.max(np.abs(rows[:, 1] - 0.5 ** (2 / 3))) < 1e-2


def test_dump_level_band_writes_samples_with_measure(tmp_path):
    assert run_main(["solve", "uniform-1d", "--y-nodes", "65",
                     "--dump-level", "0.5", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "levelset_0p5.csv", delimiter=",",
                         names=True)
    assert rows.dtype.names == ("x1", "measure")
    assert np.max(np.abs(rows["x1"] - 0.5)) < 0.01
    # the level set is one point, whose counting measure is 1
    assert abs(np.sum(rows["measure"]) - 1.0) < 1e-3


def test_empty_level_sets_are_counted_per_column(tmp_path):
    # on the wide pie slice the contour misses the domain at some end nodes
    # while their band sample does not: the balance residual cells go NaN
    # and are counted, the area cells stay finite
    assert run_main(["solve", "pie-slice", "--theta0", "1.2",
                     "--resolution", "96", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "curve.csv", delimiter=",", names=True)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["empty_level_sets"] == {"area": 0, "balance_residual": 12}
    assert np.all(np.isfinite(rows["area"]))
    assert int(np.sum(np.isnan(rows["balance_residual"]))) == 12
    assert isinstance(summary["balance_residual_max"], float)


def test_map_gradient_failure_is_recorded(tmp_path):
    # every speed k' - s_yy = 1 is below this threshold, so map_gradient
    # raises ZeroSpeed; the run goes on and says why grad_norm is empty
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenario": "uniform-1d", "y_nodes": 33,
        "tolerances": {"zero_speed_threshold": 1e6}}))
    assert run_main(["solve", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["map_gradient_error"].startswith("ZeroSpeed: ")
    rows = np.genfromtxt(tmp_path / "map.csv", delimiter=",", names=True)
    assert np.all(np.isnan(rows["grad_norm"]))


def test_curve_csv_residual_matches_library(tmp_path):
    from nestor.errors import EmptyBand
    from nestor.scenarios import build
    from nestor.solver import balance_residual, solve_split_curve
    assert run_main(["solve", "paraboloid-segment", "--resolution", "48",
                     "--y-nodes", "33", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "curve.csv", delimiter=",", names=True)
    model = build("paraboloid-segment", resolution=48).model
    curve = solve_split_curve(model, n_nodes=33)
    assert np.array_equal(rows["k"], curve.k_plus)
    for y, res in zip(curve.y_grid, rows["balance_residual"]):
        try:
            ref = balance_residual(model, curve, float(y))
        except EmptyBand:
            assert np.isnan(res)
            continue
        assert abs(res - ref) <= 1e-12


def test_default_area_column_reads_the_curve(tmp_path):
    # the area column is the solve's own band area
    from nestor.scenarios import build
    from nestor.solver import solve_split_curve
    assert run_main(["solve", "paraboloid-segment", "--resolution", "48",
                     "--y-nodes", "33", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "curve.csv", delimiter=",", names=True)
    curve = solve_split_curve(build("paraboloid-segment", resolution=48).model,
                              n_nodes=33)
    assert np.array_equal(rows["area"], curve.area, equal_nan=True)


@pytest.mark.parametrize("key, value", [("estimator", "contour2d"),
                                        ("epsilon_band", 0.01)])
def test_removed_area_settings_are_rejected(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "uniform-1d",
                                  "tolerances": {key: value}}))
    assert run_main(["solve", "--config", str(config),
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config invalid at '/tolerances'" in err and repr(key) in err


_BOX = {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
_BILINEAR = {"polynomial": [{"coeff": 1.0, "x_powers": [1, 0], "y_power": 1}]}


def _inline(**model):
    return {"model": {"domain": _BOX, "target": [0.0, 1.0],
                      "surplus": _BILINEAR, **model},
            "quadrature": {"resolution": 16}}


@pytest.mark.parametrize("config, args", [
    pytest.param(None, [], id="missing-file"),
    pytest.param("{not json", [], id="not-json"),
    pytest.param(_inline(target=[1.0, 0.0]), [], id="reversed-target"),
    pytest.param(_inline(surplus={"polynomial": [
        {"coeff": 1.0, "x_powers": [1], "y_power": 1}]}), [],
        id="short-x-powers"),
    pytest.param(_inline(density_f={"polynomial": [
        {"coeff": -1.0, "x_powers": [0, 0]}]}), [], id="negative-density"),
    pytest.param(None, ["paraboloid-segment", "--m", "1"],
                 id="bad-scenario-param"),
])
def test_input_errors_are_config_errors(tmp_path, capsys, config, args):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
    if not args:
        args = ["--config", str(path)]
    assert run_main(["solve", *args, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err, err


def test_scenario_config_applies_model_tolerances(tmp_path, capsys):
    # a non-degeneracy threshold above every |grad_x s_y| fails the
    # certificate, for a built-in scenario exactly as for an inline model
    inline = {"model": {"domain": {"type": "paraboloid", "m": 2},
                        "target": [0.0, 1.0],
                        "surplus": {"builtin": "bilinear"}},
              "quadrature": {"resolution": 32}}
    scenario = {"scenario": "paraboloid-segment",
                "quadrature": {"resolution": 32}}
    for name, base in (("inline", inline), ("scenario", scenario)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(
            {**base, "y_nodes": 17,
             "tolerances": {"nondegeneracy_rel_threshold": 1e6}}))
        assert run_main(["check-nested", "--config", str(config),
                         "--out", str(tmp_path / name)]) == 1, name
        assert "error: Degenerate: " in capsys.readouterr().err, name


def test_pivot_budget_goes_through_the_error_path(tmp_path, monkeypatch,
                                                   capsys):
    # reversed source atoms make the northwest corner anti-monotone, so the
    # simplex must pivot, and a budget of 0 pivots is exceeded
    from functools import partial

    from nestor import cli
    from nestor.oracle import DiscreteInstance, sample_instance, solve_transport

    def reversed_atoms(*args, **kwargs):
        inst = sample_instance(*args, **kwargs)
        rev = slice(None, None, -1)
        return DiscreteInstance(inst.source_points[rev],
                                inst.source_weights[rev], inst.target_points,
                                inst.target_weights, inst.surplus_matrix[rev])

    monkeypatch.setattr(cli, "sample_instance", reversed_atoms)
    monkeypatch.setattr(cli, "solve_transport",
                        partial(solve_transport, max_pivots=0))
    code = run_main(["oracle", "uniform-1d", "--atoms", "80x20",
                     "--y-nodes", "33", "--out", str(tmp_path)])
    assert code == 1
    assert "error: PivotBudgetExceeded: " in capsys.readouterr().err


def test_dump_level_missing_level_is_header_only(tmp_path):
    from nestor.cli import _dump_level_set
    from nestor.geometry import (Quadrature, TargetInterval, box_domain,
                                 interval_domain)
    from nestor.model import Model
    from nestor.solver import SplitCurve
    from nestor.surplus import bilinear_surplus
    cases = [(box_domain([0, 0], [1, 1]), [1.0, 0.0], 32, "segment,x1,x2"),
             (interval_domain(), [1.0], 256, "x1,measure")]
    for i, (domain, direction, res, header) in enumerate(cases):
        model = Model(domain, TargetInterval(0, 1), bilinear_surplus(direction),
                      quadrature=Quadrature("tensor", res))
        # a level far above max s_y = 1 never meets the domain
        far = SplitCurve.from_function(model.target, np.linspace(0, 1, 9),
                                       lambda y: 50.0 + 0 * y)
        out = tmp_path / str(i)
        out.mkdir()
        _dump_level_set(model, far, 0.5, str(out))
        assert (out / "levelset_0p5.csv").read_text() == header + "\n"

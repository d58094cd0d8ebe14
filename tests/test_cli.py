import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nestor
from nestor.cli import build_model_from_config, main, validate_config
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
    assert len(lines) == 1 + 65  # default node count
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["nestedness_verdict"] == "nested"
    assert summary["nondegeneracy"]["passed"] is True
    assert set(summary["tolerances"]) == {"nestedness_probes", "scan_nodes"}
    assert "timings_seconds" not in summary
    assert "map_gradient_error" not in summary


def test_default_nodes_keep_the_paraboloid_accuracy(tmp_path):
    # the default 65 nodes lose nothing against 257: err_k and err_map sit
    # at the quadrature's floor, and the balance residual stays below the
    # 257-node run's 0.01629
    assert run_main(["solve", "paraboloid-segment", "--out", str(tmp_path)]) == 0
    curve = np.loadtxt(tmp_path / "curve.csv", delimiter=",", skiprows=1)
    maps = np.loadtxt(tmp_path / "map.csv", delimiter=",", skiprows=1)
    summary = json.loads((tmp_path / "summary.json").read_text())
    y, k = curve[:, 0], curve[:, 1]
    inner = (y >= 0.02) & (y <= 0.98)
    assert y.size == summary["y_nodes"] == 65
    assert np.max(np.abs(k - y ** (2 / 3))[inner]) <= 2.5e-4
    assert np.max(np.abs(maps[:, 2] - maps[:, 0] ** 1.5)) <= 1.5e-4
    assert summary["balance_residual_max"] <= 0.01629
    assert np.isfinite(summary["interpolation_error"])
    assert summary["nestedness_verdict"] == "nested"


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


# Installed as sitecustomize.py on the child's PYTHONPATH (as the CI step
# that runs the shipped default solve does): any import of scipy fails.
BLOCK_SCIPY = '''import sys


class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked: scipy is a test dependency")
        return None


sys.meta_path.insert(0, _BlockScipy())
'''

PIPELINE_WITHOUT_SCIPY = '''import sys
from nestor import cli, nestedness, pseudoindex, scenarios, solver

model = scenarios.build("paraboloid-segment", resolution=32).model
assert model.certificate.passed
curve = solver.solve_split_curve(model, n_nodes=17)
nestedness.nestedness_report(model, curve, n_probes=20, scan_nodes=33)
x = model.domain.sample_interior(50, seed=0, margin=0.02)
solver.optimal_map(model, curve, x)
solver.source_payoff(model, curve, x)
solver.map_gradient(model, curve, x)
pseudoindex.reduce_and_solve_1d(model).map_full(x)
assert cli.main(["solve", "paraboloid-segment", "--resolution", "32",
                 "--y-nodes", "17", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
'''


def test_runtime_loads_no_scipy(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(BLOCK_SCIPY)
    env = os.environ.copy()
    pkg_root = str(Path(nestor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tmp_path), pkg_root, env.get("PYTHONPATH")) if p)
    blocked = subprocess.run([sys.executable, "-c", "import scipy"],
                             capture_output=True, text=True, env=env)
    assert "scipy is blocked" in blocked.stderr
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE_WITHOUT_SCIPY, str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_every_tolerance_settable_and_echoed(tmp_path):
    from nestor.cli import DEFAULT_TOLERANCES
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "uniform-1d", "y_nodes": 33,
        "tolerances": {"nestedness_probes": 50, "scan_nodes": 101},
    }))
    assert run_main(["check-nested", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(DEFAULT_TOLERANCES) == set(summary["tolerances"])
    assert summary["tolerances"] == {"nestedness_probes": 50, "scan_nodes": 101}


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
    # two of the 65 default nodes (twelve of 257)
    assert summary["empty_level_sets"] == {"area": 0, "balance_residual": 2}
    assert np.all(np.isfinite(rows["area"]))
    assert int(np.sum(np.isnan(rows["balance_residual"]))) == 2
    assert isinstance(summary["balance_residual_max"], float)


def test_map_gradient_failure_is_recorded(tmp_path, monkeypatch):
    # when map_gradient raises ZeroSpeed, the run goes on and says why
    # grad_norm is empty
    from nestor import solver
    from nestor.errors import ZeroSpeed

    def zero_speed(*args, **kwargs):
        raise ZeroSpeed("level-set speed k' - s_yy at or below threshold")

    monkeypatch.setattr(solver, "map_gradient", zero_speed)
    assert run_main(["solve", "uniform-1d", "--y-nodes", "33",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["map_gradient_error"].startswith("ZeroSpeed: ")
    rows = np.genfromtxt(tmp_path / "map.csv", delimiter=",", names=True)
    assert np.all(np.isnan(rows["grad_norm"]))


def test_curve_csv_residual_matches_library(tmp_path):
    from nestor.scenarios import build
    from nestor.solver import balance_residual, solve_split_curve
    assert run_main(["solve", "paraboloid-segment", "--resolution", "48",
                     "--y-nodes", "33", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "curve.csv", delimiter=",", names=True)
    model = build("paraboloid-segment", resolution=48).model
    curve = solve_split_curve(model, n_nodes=33)
    assert np.array_equal(rows["k"], curve.k_plus)
    ref = [balance_residual(model, curve, float(y)) for y in curve.y_grid]
    assert np.allclose(rows["balance_residual"], ref, rtol=0, atol=1e-12,
                       equal_nan=True)


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


@pytest.mark.parametrize("key, value", [
    ("estimator", "contour2d"), ("epsilon_band", 0.01),
    ("tangential_threshold", 0.05), ("mono_margin_tol", 1e-3),
    ("dynamic_tol", 1e-3), ("y_tol_rel", 1e-8), ("cdf_nodes", 2049),
    pytest.param("holder_window", [0.005, 0.08],
                 id="holder_window-0.005-0.08"),
    # a key outside the tolerances object is named with its section
    pytest.param("oracle/seed", 7, id="oracle-seed-7")])
def test_removed_tolerances_are_rejected(tmp_path, capsys, key, value):
    section, key = key.split("/") if "/" in key else ("tolerances", key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "uniform-1d",
                                  section: {key: value}}))
    assert run_main(["solve", "--config", str(config),
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config invalid at '/{section}'" in err and repr(key) in err


def test_seed_flag_keeps_the_default_resolution(tmp_path):
    assert run_main(["solve", "uniform-1d", "--seed", "3", "--y-nodes", "17",
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["quadrature"]["resolution"] == 2048
    assert summary["quadrature"]["seed"] == 3


def test_inline_quadrature_spec_fills_from_the_dimension_default():
    config = validate_config({
        "model": {"domain": {"type": "interval"}, "target": [0.0, 1.0],
                  "surplus": {"builtin": "bilinear"}},
        "quadrature": {"seed": 1}})
    model, _ = build_model_from_config(config)
    assert (model.quadrature.mode, model.quadrature.resolution,
            model.quadrature.seed) == ("tensor", 2048, 1)


def test_quadrature_mode_with_a_scenario_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenario": "uniform-1d", "y_nodes": 17,
        "quadrature": {"mode": "monte-carlo", "resolution": 5000}}))
    assert run_main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "quadrature.mode" in err


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
    pytest.param(None, ["uniform-1d", "--m", "2"], id="stray-scenario-param"),
    pytest.param(None, ["paraboloid-segment", "--theta0", "1.0"],
                 id="param-of-another-scenario"),
    pytest.param({**_inline(), "params": {"m": 3}}, [],
                 id="params-beside-inline-model"),
    pytest.param(None, ["uniform-1d", "--dump-level", "2.5"],
                 id="dump-level-outside-target"),
    pytest.param(None, ["uniform-1d", "--dump-level", "nan"],
                 id="dump-level-nan"),
    *(pytest.param({"scenario": "uniform-1d", "tolerances": {key: value}},
                   [], id=f"removed-{key}")
      for key, value in (("tol_mass", 1e-6), ("splitting_deadband", 1e-3),
                         ("nondegeneracy_rel_threshold", 1e-8),
                         ("zero_speed_threshold", 1e-8))),
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


def test_removed_tol_mass_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_main(["solve", "uniform-1d", "--tol-mass", "1e-6"])
    assert exc.value.code == 2
    assert "--tol-mass" in capsys.readouterr().err


def test_degenerate_inline_model_is_an_error(tmp_path, capsys):
    # s = y x1^2 + x2 has grad_x s_y = (2 x1, 0), which vanishes on x1 = 0
    # inside the box, so the non-degeneracy certificate fails
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"domain": {"type": "box", "lo": [-1.0, -1.0],
                             "hi": [1.0, 1.0]},
                  "target": [0.0, 1.0],
                  "surplus": {"polynomial": [
                      {"coeff": 1.0, "x_powers": [2, 0], "y_power": 1},
                      {"coeff": 1.0, "x_powers": [0, 1], "y_power": 0}]}},
        "quadrature": {"resolution": 32}, "y_nodes": 17}))
    assert run_main(["check-nested", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    assert "error: Degenerate: " in capsys.readouterr().err


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

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


def load_strict_json(path):
    """Parse a JSON file, rejecting the NaN and Infinity tokens RFC 8259
    does not allow."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


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


def test_json_artifacts_are_strict(tmp_path):
    # at 32^2 every paraboloid node is tangential: the speed limit and the
    # dynamic criterion's minimum have no finite value and are written as
    # null, which RFC 8259 allows, not as Infinity or NaN
    assert run_main(["solve", "paraboloid-segment", "--resolution", "32",
                     "--y-nodes", "33", "--out", str(tmp_path)]) == 0
    payloads = {path.name: load_strict_json(path)
                for path in tmp_path.glob("*.json")}
    assert set(payloads) == {"nestedness.json", "summary.json"}
    assert payloads["summary.json"]["speed_limit"] is None


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
    # the plan is the oracle's one artifact, and it is the library's plan
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curve.csv", "map.csv", "oracle_plan.json", "summary.json"]
    written = load_strict_json(tmp_path / "oracle_plan.json")
    run = nestor.solve(nestor.build("uniform-1d").model, y_nodes=65,
                       oracle_atoms={"n_source": 80, "n_target": 20})
    assert written == run.oracle[1].to_dict()


def test_reduce_1d_subcommand(tmp_path):
    code = run_main(["reduce-1d", "uniform-1d", "--y-nodes", "65",
                     "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["reduce_1d"]) == {"is_index", "confidence",
                                         "ode_residual_max", "sup_gap_vs_full"}
    assert summary["reduce_1d"]["is_index"] is True
    assert summary["reduce_1d"]["sup_gap_vs_full"] <= 1e-2
    assert (tmp_path / "map1d.csv").exists()


def test_reduce_1d_subcommand_not_index_form(tmp_path):
    code = run_main(["reduce-1d", "ball-circle", "--resolution", "48",
                     "--y-nodes", "17", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["reduce_1d"]) == {"is_index", "confidence"}
    assert summary["reduce_1d"]["is_index"] is False
    assert not (tmp_path / "map1d.csv").exists()


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
    from importlib import resources
    schema = json.loads(resources.files("nestor").joinpath(
        "config_schema.json").read_text())
    settable = schema["properties"]["tolerances"]["properties"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "uniform-1d", "y_nodes": 33,
        "tolerances": {"nestedness_probes": 50, "scan_nodes": 101},
    }))
    assert run_main(["check-nested", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(settable) == set(summary["tolerances"])
    assert summary["tolerances"] == {"nestedness_probes": 50, "scan_nodes": 101}


def _check_dump(tmp_path, scenario, y, resolution, **params):
    """Run ``solve`` with --dump-level y at 33 nodes and check that the dump
    holds the ``auto`` samples at the run's k(y): 17 digits round-trip, so
    its rows are their points and measures bit for bit, and the measures
    sum to the level set's area.  Returns the rows, model, k and samples."""
    from nestor.levelsets import level_set
    from nestor.scenarios import build
    from nestor.solver import solve_split_curve
    flags = [f"--{key}={value}" for key, value in params.items()]
    assert run_main(["solve", scenario, *flags, "--resolution", str(resolution),
                     "--y-nodes", "33", "--dump-level", str(y),
                     "--out", str(tmp_path)]) == 0
    model = build(scenario, resolution=resolution, **params).model
    k = solve_split_curve(model, n_nodes=33).k_at(y)
    ls = level_set(model, y, k)
    dim = model.domain.dim
    path = next(tmp_path.glob("levelset_*.csv"))
    assert path.read_text().splitlines()[0] == ",".join(
        [f"x{j + 1}" for j in range(dim)] + ["measure"])
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] > 0
    assert np.array_equal(rows[:, :dim], ls.points)
    assert np.array_equal(rows[:, dim], ls.measure)
    assert np.sum(rows[:, dim]) == ls.area
    return rows, model, k, ls


def test_dump_level_2d_writes_contour_segments(tmp_path):
    # one row per contour segment: its midpoint and its length
    rows, _, _, ls = _check_dump(tmp_path, "paraboloid-segment", 0.5, 64)
    assert ls.estimator == "contour2d"
    # s_y = x1 on the bowl, so the level set at y is the chord x1 = y^(2/3)
    assert np.max(np.abs(rows[:, 0] - 0.5 ** (2 / 3))) < 1e-2


@pytest.mark.parametrize("scenario, y, resolution, params", [
    # near the sector's edge the contour leaves the domain: clipped segments
    pytest.param("pie-slice", -1.19, 64, {"theta0": 1.2}, id="clipped-contour"),
    pytest.param("paraboloid-segment", 0.5, 24, {"m": 3}, id="band-m3"),
])
def test_dump_level_writes_the_level_set_samples(tmp_path, scenario, y,
                                                 resolution, params):
    from nestor.levelsets import _contour_segments
    _, model, k, ls = _check_dump(tmp_path, scenario, y, resolution, **params)
    if ls.estimator == "contour2d":
        assert _contour_segments(model, [y], [k])[1][0] > 0
    else:
        assert model.domain.dim == 3


def test_close_dump_levels_write_two_files(tmp_path):
    assert run_main(["solve", "paraboloid-segment", "--resolution", "32",
                     "--y-nodes", "17", "--dump-level", "0.5",
                     "--dump-level", "0.5000001", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "levelset_0p5.csv").exists()
    assert (tmp_path / "levelset_0p5000001.csv").exists()


def test_inline_domain_missing_field_is_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    # a field the factory needs and lacks, or one it does not take
    for domain, field in (({"type": "box", "hi": [1.0, 1.0]}, "'lo'"),
                          ({"type": "pie-slice"}, "'theta0'"),
                          ({"type": "annulus", "r_inner": 0.1,
                            "r_outter": 3.0, "theta0": 0.5},
                           "['r_outter', 'theta0']"),
                          ({**_BOX, "theta0": 0.5}, "['theta0']")):
        config.write_text(json.dumps(_inline(domain=domain)))
        assert run_main(["solve", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err, err


@pytest.mark.parametrize("model, resolution, scenario", [
    pytest.param({"domain": {"type": "pie-slice", "theta0": 1.2},
                  "target": [-1.2, 1.2], "surplus": {"builtin": "arc"}},
                 64, ["pie-slice", "--theta0", "1.2"], id="pie-slice"),
    pytest.param({"domain": {"type": "paraboloid", "m": 2},
                  "target": [0.0, 1.0], "surplus": {"builtin": "bilinear"}},
                 48, ["paraboloid-segment"], id="paraboloid")])
def test_inline_model_writes_its_scenarios_artifacts(tmp_path, model,
                                                     resolution, scenario):
    # the inline spec builds the scenario's model: only the echo of the
    # scenario and its parameters tells the two runs apart
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": model, "y_nodes": 33,
                                  "quadrature": {"resolution": resolution}}))
    assert run_main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "inline")]) == 0
    assert run_main(["solve", *scenario, "--resolution", str(resolution),
                     "--y-nodes", "33", "--out", str(tmp_path / "built")]) == 0
    inline, built = tmp_path / "inline", tmp_path / "built"
    for name in ("curve.csv", "map.csv", "nestedness.json"):
        assert (inline / name).read_bytes() == (built / name).read_bytes()
    summaries = []
    for out in (inline, built):
        summary = json.loads((out / "summary.json").read_text())
        del summary["scenario"], summary["params"]
        summaries.append(json.dumps(summary, sort_keys=True))
    assert summaries[0] == summaries[1]


def test_holder_probe_error_is_recorded(tmp_path):
    # 5 nodes leave one in the fit window: the run succeeds and records why
    # the exponent is missing
    assert run_main(["holder-probe", "paraboloid-segment", "--resolution",
                     "32", "--y-nodes", "5", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["holder_exponent"] is None
    assert summary["holder_error"] == "only 1 nodes in the fit window"


@pytest.mark.parametrize("command, extra, stages", [
    ("solve", [], {"solve_split_curve_s", "nestedness_s", "total_s"}),
    ("oracle", ["--atoms", "40x10", "--require-nested"],
     {"solve_split_curve_s", "nestedness_s", "oracle_s", "total_s"})])
def test_timings_are_recorded_apart(tmp_path, command, extra, stages):
    args = [command, "uniform-1d", "--y-nodes", "17", *extra]
    assert run_main([*args, "--timings", "--out", str(tmp_path / "a")]) == 0
    assert run_main([*args, "--out", str(tmp_path / "b")]) == 0
    timed = json.loads((tmp_path / "a" / "summary.json").read_text())
    timings = timed.pop("timings_seconds")
    assert set(timings) == stages
    assert all(np.isfinite(t) and t >= 0 for t in timings.values())
    assert timed == json.loads((tmp_path / "b" / "summary.json").read_text())


def test_library_call_gives_the_cli_summary(tmp_path):
    from nestor import build, pipeline, solve
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenario": "paraboloid-segment", "quadrature": {"resolution": 48},
        "y_nodes": 33,
        "outputs": {"oracle": True, "reduce_1d": True, "holder_probe": True}}))
    assert run_main(["solve", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    cli_summary = json.loads((tmp_path / "summary.json").read_text())
    assert cli_summary.pop("scenario") == "paraboloid-segment"
    assert cli_summary.pop("params") == {"resolution": 48, "seed": 0}
    run = solve(build("paraboloid-segment", resolution=48).model, y_nodes=33,
                oracle_atoms=pipeline.ORACLE_ATOMS, reduce_1d=True,
                holder_probe=True)
    library = json.loads(json.dumps(run.summary, default=lambda v: v.item()))
    assert {"oracle", "reduce_1d", "holder_exponent"} <= set(library)
    assert library == cli_summary


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
    # when the map gradient raises ZeroSpeed, the run goes on and says why
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


@pytest.mark.parametrize("command, extra, walks", [
    ("solve", [], 2), ("oracle", ["--atoms", "40x10"], 3)])
def test_one_node_walk_per_point_set(tmp_path, monkeypatch, command, extra,
                                     walks):
    # map.csv, the pushforward distance and the oracle's atoms each take
    # F (and u, DF) from one by-level node walk
    from nestor import solver
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return walk(*args, **kwargs)

    walk = solver._map_by_level
    monkeypatch.setattr(solver, "_map_by_level", counted)
    assert run_main([command, "paraboloid-segment", "--resolution", "32",
                     "--y-nodes", "17", *extra, "--out", str(tmp_path)]) == 0
    assert len(calls) == walks


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
    pytest.param([1, 2], [], id="top-level-list"),
    pytest.param('"x"', [], id="top-level-string"),
    pytest.param(_inline(target=[1.0, 0.0]), [], id="reversed-target"),
    pytest.param(_inline(surplus={"polynomial": [
        {"coeff": 1.0, "x_powers": [1], "y_power": 1}]}), [],
        id="short-x-powers"),
    pytest.param(_inline(density_f={"polynomial": [
        {"coeff": -1.0, "x_powers": [0, 0]}]}), [], id="negative-density"),
    pytest.param(_inline(surplus={"polynomial": [
        {"coeff": 1.0, "x_powers": [1, 0], "y_power": 1, "extra": 2}]}), [],
        id="surplus-term-with-stray-key"),
    pytest.param(_inline(density_f={"polynomial": [
        {"coeff": 1.0, "x_powers": [0, 0], "y_power": 3}]}), [],
        id="density-term-with-y-power"),
    # a density has no type: its one value, "uniform", was read by nothing,
    # so a polynomial beside it was solved as given
    pytest.param(_inline(density_f={"type": "uniform", "polynomial": [
        {"coeff": 1.0, "x_powers": [0, 0]},
        {"coeff": 3.0, "x_powers": [1, 0]}]}), [], id="density_f-with-type"),
    pytest.param(_inline(density_g={"type": "uniform",
                                    "polynomial": [0.5, 1.0]}), [],
                 id="density_g-with-type"),
    pytest.param(None, ["paraboloid-segment", "--m", "1"],
                 id="bad-scenario-param"),
    pytest.param(None, ["uniform-1d", "--m", "2"], id="stray-scenario-param"),
    pytest.param(None, ["paraboloid-segment", "--theta0", "1.0"],
                 id="param-of-another-scenario"),
    pytest.param({**_inline(), "params": {"m": 3}}, [],
                 id="params-beside-inline-model"),
    pytest.param(_inline(domain={"type": "box"}), [], id="box-without-lo"),
    pytest.param(_inline(domain={"type": "pie-slice"}), [],
                 id="pie-slice-without-theta0"),
    pytest.param(_inline(domain={"type": "annulus", "r_inner": 0.1,
                                 "r_outter": 3.0, "theta0": 0.5}), [],
                 id="annulus-with-stray-fields"),
    pytest.param(_inline(domain={**_BOX, "theta0": 0.5}), [],
                 id="box-with-theta0"),
    pytest.param(_inline(domain={"type": "pie-slice", "theta0": 1.2},
                         target=[-1.2, 1.2],
                         surplus={"builtin": "arc", "direction": [0.0, 1.0]}),
                 [], id="arc-with-direction"),
    pytest.param(_inline(surplus={"builtin": "arc", **_BILINEAR}), [],
                 id="arc-with-polynomial"),
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

    from nestor import pipeline
    from nestor.oracle import DiscreteInstance, sample_instance, solve_transport

    def reversed_atoms(*args, **kwargs):
        inst = sample_instance(*args, **kwargs)
        rev = slice(None, None, -1)
        return DiscreteInstance(inst.source_points[rev],
                                inst.source_weights[rev], inst.target_points,
                                inst.target_weights, inst.surplus_matrix[rev])

    monkeypatch.setattr(pipeline, "sample_instance", reversed_atoms)
    monkeypatch.setattr(pipeline, "solve_transport",
                        partial(solve_transport, max_pivots=0))
    code = run_main(["oracle", "uniform-1d", "--atoms", "80x20",
                     "--y-nodes", "33", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: PivotBudgetExceeded: " in capsys.readouterr().err
    # the run raised before anything was written
    assert list(tmp_path.iterdir()) == []


def test_dump_level_missing_level_is_header_only(tmp_path):
    from nestor.cli import _dump_level_set
    from nestor.geometry import (Quadrature, TargetInterval, box_domain,
                                 interval_domain)
    from nestor.model import Model
    from nestor.solver import SplitCurve
    from nestor.surplus import bilinear_surplus
    cases = [(box_domain([0, 0], [1, 1]), [1.0, 0.0], 32, "x1,x2,measure"),
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


def test_csv_values_are_written_as_17_digit_floats(tmp_path):
    from nestor.cli import _write_csv
    flags = np.array([True, False, True, False, True, False])
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300])
    for name, columns in (("mixed.csv", {"flag": flags, "v": values}),
                          ("flags.csv", {"flag": flags})):
        _write_csv(str(tmp_path), name, columns)
        lines = [",".join(columns)] + [
            ",".join(format(float(v), ".17g") for v in row)
            for row in zip(*columns.values())]
        assert (tmp_path / name).read_text() == "\n".join(lines) + "\n"
    assert (tmp_path / "mixed.csv").read_text().splitlines()[1:] == [
        "1,nan", "0,inf", "1,-inf", "0,-0", "1,4.9406564584124654e-324",
        "0,1.0000000000000001e+300"]
    # no rows: the header alone
    _write_csv(str(tmp_path), "empty.csv",
               {"x1": np.empty(0), "x2": np.empty(0), "measure": np.empty(0)})
    assert (tmp_path / "empty.csv").read_text() == "x1,x2,measure\n"

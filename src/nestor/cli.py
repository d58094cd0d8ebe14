"""Command-line front end.

Subcommands map one-to-one onto the library pipelines:

    solve          split curve + payoffs + map samples + diagnostics
    check-nested   nestedness report (exit 2 with --require-nested on a
                   non-nested verdict)
    oracle         discrete LP cross-check (surplus and dual gaps)
    reduce-1d      index-form detection and scalar reduction
    holder-probe   endpoint growth exponent of the split curve
    scenario-list  names of the built-in fixtures

Runs are configured either by flags or a JSON document validated against
the schema shipped as ``nestor/config_schema.json``; every numerical
tolerance is settable there and echoed into summary.json.  Artifacts
(curve.csv, map.csv, nestedness.json, summary.json) are deterministic
for a fixed configuration: CSV floats carry 17 significant digits and
timings are recorded only when requested.

Exit codes: 0 success; 1 configuration or numerical error; 2 non-nested
verdict under --require-nested.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import resources

import numpy as np

from . import nestedness as nd
from . import pseudoindex as pix
from . import scenarios as sc
from . import solver as sv
from .errors import ConfigError, NestorError
from .geometry import (Quadrature, TargetInterval, annulus_domain, box_domain,
                       interval_domain, paraboloid_domain, pie_slice_domain)
from .levelsets import EmptyBand, level_set
from .model import DensityPair, Model
from .oracle import (compare_with_map, cyclical_monotonicity_audit,
                     sample_instance, solve_transport)
from .surplus import arc_surplus, bilinear_surplus, polynomial_surplus

DEFAULT_TOLERANCES = {
    "tol_mass": 1e-6,
    "y_tol_rel": 1e-8,
    "tangential_threshold": None,
    "mono_margin_tol": None,
    "dynamic_tol": None,
    "splitting_deadband": 1e-3,
    "nondegeneracy_rel_threshold": 1e-8,
    "zero_speed_threshold": 1e-8,
    "nestedness_probes": 100,
    "scan_nodes": 201,
    "holder_window": [0.005, 0.08],
    "cdf_nodes": 2049,
}


def load_schema() -> dict:
    with resources.files("nestor").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


def validate_config(config: dict) -> dict:
    """Schema-validate and fill defaults; raises ConfigError with a JSON
    pointer to the offending entry."""
    import jsonschema
    schema = load_schema()
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"config invalid at {pointer!r}: {err.message}")
    merged = dict(config)
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(config.get("tolerances", {}))
    merged["tolerances"] = tol
    merged.setdefault("seed", 0)
    merged.setdefault("y_nodes", 257)
    merged.setdefault("map_samples", 500)
    merged.setdefault("require_nested", False)
    merged.setdefault("dump_levels", [])
    merged.setdefault("record_timings", False)
    merged["outputs"] = dict(config.get("outputs", {}))
    merged["oracle"] = dict(config.get("oracle", {}))
    for key, default in (("curve_csv", True), ("map_csv", True),
                         ("nestedness_json", True), ("oracle", False),
                         ("reduce_1d", False), ("holder_probe", False)):
        merged["outputs"].setdefault(key, default)
    merged["oracle"].setdefault("n_source", 400)
    merged["oracle"].setdefault("n_target", 40)
    merged["oracle"].setdefault("seed", 7)
    return merged


# ---------------------------------------------------------------------------
# inline model construction
# ---------------------------------------------------------------------------

def _domain_from_spec(spec: dict):
    kind = spec["type"]
    if kind == "box":
        return box_domain(spec["lo"], spec["hi"])
    if kind == "interval":
        return interval_domain(spec.get("a", 0.0), spec.get("b", 1.0))
    if kind == "annulus":
        return annulus_domain(spec.get("r_inner", 0.0), spec.get("r_outer", 1.0))
    if kind == "pie-slice":
        return pie_slice_domain(spec["theta0"], spec.get("radius", 1.0))
    if kind == "paraboloid":
        return paraboloid_domain(spec.get("m", 2), spec.get("flatness", 1.0),
                                 spec.get("height", 1.0))
    raise ConfigError(f"unknown domain type {kind!r}")


def _surplus_from_spec(spec: dict, dim: int):
    if "polynomial" in spec:
        return polynomial_surplus(spec["polynomial"], dim)
    builtin = spec.get("builtin", "bilinear")
    if builtin == "bilinear":
        direction = spec.get("direction", [1.0] + [0.0] * (dim - 1))
        return bilinear_surplus(direction)
    if builtin == "arc":
        return arc_surplus()
    raise ConfigError(f"unknown surplus builtin {builtin!r}")


def _densities_from_spec(model_spec: dict, dim: int) -> DensityPair:
    f_spec = model_spec.get("density_f", {"type": "uniform"})
    g_spec = model_spec.get("density_g", {"type": "uniform"})

    if "polynomial" in f_spec:
        terms = [(t["coeff"], tuple(t["x_powers"]), 0) for t in f_spec["polynomial"]]
        poly = polynomial_surplus(terms, dim)
        f = lambda x: poly.s(np.atleast_2d(x), 0.0)  # noqa: E731
    else:
        f = DensityPair().f
    if "polynomial" in g_spec:
        coeffs = np.asarray(g_spec["polynomial"], dtype=float)
        g = lambda y: np.polyval(coeffs[::-1], np.asarray(y, dtype=float))  # noqa: E731
    else:
        g = DensityPair().g
    return DensityPair(f=f, g=g)


def build_model_from_config(config: dict):
    """Returns (model, scenario or None, params echo); a ValueError while
    the scenario or the inline model is built is a ConfigError."""
    tol = config["tolerances"]
    model_kw = {key: tol[key]
                for key in ("cdf_nodes", "nondegeneracy_rel_threshold")}
    quad_spec = config.get("quadrature")
    quad = None
    if quad_spec:
        quad = Quadrature(mode=quad_spec.get("mode", "tensor"),
                          resolution=quad_spec.get("resolution", 256),
                          seed=quad_spec.get("seed", 0))
    try:
        if "scenario" in config:
            params = dict(config.get("params", {}))
            if quad is not None:
                params["resolution"] = quad.resolution
                params["seed"] = quad.seed
            scenario = sc.build(config["scenario"], **params, **model_kw)
            return scenario.model, scenario, params
        spec = config["model"]
        dom = _domain_from_spec(spec["domain"])
        target = TargetInterval(*spec["target"])
        surplus = _surplus_from_spec(spec["surplus"], dom.dim)
        dens = _densities_from_spec(spec, dom.dim)
        model = Model(dom, target, surplus, dens, quadrature=quad, **model_kw)
        return model, None, {}
    except ValueError as exc:
        raise ConfigError(f"cannot build the model: {exc}") from None


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return format(float(x), ".17g")


def _write_csv(path: str, header: list, columns: list):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _dump_level_set(model, curve, y: float, out_dir: str):
    """Diagnostic dump of the ``auto`` samples of one indifference set: the
    clipped contour polyline (segment, x1, x2) on planar tensor grids, band
    points with their surface measure (x1..xm, measure) otherwise.  A level
    set with no samples gives a header-only file."""
    tag = format(y, ".6g").replace("-", "m").replace(".", "p")
    try:
        ls = level_set(model, y, curve.k_at(y))
        estimator = ls.estimator
    except EmptyBand as exc:
        ls, estimator = None, exc.estimator
    if estimator == "contour2d":
        header = ["segment", "x1", "x2"]
        segments = np.empty((0, 2, 2)) if ls is None else ls.segments
        flat = segments.reshape(-1, 2)
        cols = [np.repeat(np.arange(segments.shape[0]), 2),
                flat[:, 0], flat[:, 1]]
    else:
        header = [f"x{j + 1}" for j in range(model.domain.dim)] + ["measure"]
        cols = [] if ls is None else list(ls.points.T) + [ls.measure]
    _write_csv(os.path.join(out_dir, f"levelset_{tag}.csv"), header, cols)


def _print_report(report):
    print(f"verdict: {report.verdict}")
    for crit in (report.sublevel_monotone, report.dynamic,
                 report.unique_splitting):
        extra = ""
        if crit.witnesses:
            extra = f" ({len(crit.witnesses)} witness(es))"
        print(f"  {crit.name:18s} {crit.status}{extra}")
    if report.transversality_min is not None:
        print(f"  transversality_min {report.transversality_min:.4f}")
    print(f"  speed_limit        {report.speed_limit:.4f}")


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------

def run(config: dict, out_dir: str = None) -> int:
    """Execute solve -> diagnostics -> optional oracle / reduction / probe,
    writing the requested artifacts; returns the process exit code."""
    config = validate_config(config)
    tol = config["tolerances"]
    out_dir = out_dir or config.get("out_dir") \
        or os.environ.get("NESTOR_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    timings = {}
    t_all = time.perf_counter()

    model, scenario, params = build_model_from_config(config)
    summary = {
        "scenario": config.get("scenario"),
        "params": params,
        "tolerances": tol,
        "seed": config["seed"],
        "y_nodes": config["y_nodes"],
        "quadrature": {"mode": model.quadrature.mode,
                       "resolution": model.quadrature.resolution,
                       "seed": model.quadrature.seed,
                       "interior_points": model.grid.n_points},
    }

    cert = model.certificate
    summary["nondegeneracy"] = {"min_grad_norm": cert.min_grad_norm,
                                "threshold": cert.threshold,
                                "passed": cert.passed}

    t0 = time.perf_counter()
    curve = sv.solve_split_curve(model, tol_mass=tol["tol_mass"],
                                 n_nodes=config["y_nodes"],
                                 tangential_threshold=tol["tangential_threshold"])
    timings["solve_split_curve_s"] = time.perf_counter() - t0
    v_vals = curve.v_values
    summary["k_nondecreasing"] = curve.k_nondecreasing

    # per-node diagnostics for curve.csv come from the solve's own samples;
    # an empty level set leaves its cell NaN
    residuals = -(curve.h_y + curve.kprime_at(curve.y_grid) * curve.h_k)
    summary["empty_level_sets"] = {
        "area": int(np.sum(np.isnan(curve.area))),
        "balance_residual": int(np.sum(np.isnan(residuals)))}

    if config["outputs"]["curve_csv"]:
        _write_csv(os.path.join(out_dir, "curve.csv"),
                   ["y", "k", "kprime", "v", "area", "balance_residual",
                    "tangential"],
                   [curve.y_grid, curve.k_plus, curve.kprime, v_vals,
                    curve.area, residuals, curve.tangential_flags])

    if config["outputs"]["map_csv"]:
        pts = model.domain.sample_interior(config["map_samples"],
                                           seed=config["seed"], margin=0.01)
        f_vals = sv.optimal_map(model, curve, pts,
                                y_tol=tol["y_tol_rel"] * model.target.length)
        u_vals, _ = sv.source_payoff(model, curve, pts)
        grad_norm = np.full(pts.shape[0], np.nan)
        try:
            grads = sv.map_gradient(model, curve, pts,
                                    speed_threshold=tol["zero_speed_threshold"])
            grad_norm = np.linalg.norm(np.atleast_2d(grads), axis=1)
        except NestorError as exc:
            summary["map_gradient_error"] = f"{type(exc).__name__}: {exc}"
        cols = [pts[:, j] for j in range(model.domain.dim)]
        _write_csv(os.path.join(out_dir, "map.csv"),
                   [f"x{j + 1}" for j in range(model.domain.dim)]
                   + ["F", "u", "grad_norm"],
                   cols + [f_vals, u_vals, grad_norm])

    for y_dump in config.get("dump_levels", []):
        _dump_level_set(model, curve, float(y_dump), out_dir)

    exit_code = 0
    report = None
    if config["outputs"]["nestedness_json"] or config["require_nested"]:
        t0 = time.perf_counter()
        report = nd.nestedness_report(model, curve, seed=config["seed"],
                                      n_probes=tol["nestedness_probes"],
                                      scan_nodes=tol["scan_nodes"],
                                      margin_tol=tol["mono_margin_tol"],
                                      dynamic_tol=tol["dynamic_tol"],
                                      deadband=tol["splitting_deadband"])
        timings["nestedness_s"] = time.perf_counter() - t0
        summary["nestedness_verdict"] = report.verdict
        summary["speed_limit"] = report.speed_limit
        summary["transversality_min"] = report.transversality_min
        if config["outputs"]["nestedness_json"]:
            _write_json(os.path.join(out_dir, "nestedness.json"),
                        report.to_dict())
        if config["require_nested"] and report.verdict != "nested":
            exit_code = 2

    summary["pushforward_distance"] = sv.pushforward_distance(model, curve)
    clean = np.isfinite(residuals) & ~curve.tangential_flags
    summary["balance_residual_max"] = \
        float(np.max(np.abs(residuals[clean]))) if np.any(clean) else None

    if config["outputs"]["oracle"]:
        t0 = time.perf_counter()
        osc = config["oracle"]
        inst = sample_instance(model, osc["n_source"], osc["n_target"],
                               seed=osc["seed"])
        plan = solve_transport(inst)
        gaps = compare_with_map(model, curve, inst, plan)
        gaps["cyclical_monotonicity_worst"] = cyclical_monotonicity_audit(
            plan, inst.surplus_matrix)
        gaps["n_pivots"] = plan.n_pivots
        gaps["strong_duality_gap"] = float(
            plan.objective - plan.u @ inst.source_weights
            - plan.v @ inst.target_weights)
        summary["oracle"] = gaps
        # regression fixtures: the instance and plan round-trip through JSON
        _write_json(os.path.join(out_dir, "oracle_instance.json"),
                    inst.to_dict())
        _write_json(os.path.join(out_dir, "oracle_plan.json"), plan.to_dict())
        timings["oracle_s"] = time.perf_counter() - t0

    if config["outputs"]["reduce_1d"]:
        det = pix.detect_index_form(model, seed=config["seed"])
        entry = {"is_index": det["is_index"], "confidence": det["confidence"],
                 "n_pairs": det["n_pairs"]}
        if det["is_index"]:
            rearr = pix.reduce_and_solve_1d(model)
            entry["ode_residual_max"] = pix.verify_1d_ode(rearr)
            probes = model.domain.sample_interior(100, seed=config["seed"],
                                                  margin=0.02)
            full = sv.optimal_map(model, curve, probes)
            entry["sup_gap_vs_full"] = float(np.max(np.abs(
                np.atleast_1d(full) - np.asarray(rearr.map_full(probes)))))
            ts = np.linspace(rearr.index_grid[0], rearr.index_grid[-1], 257)
            _write_csv(os.path.join(out_dir, "map1d.csv"),
                       ["t", "F1", "cdf", "density"],
                       [ts, np.asarray(rearr.map_1d(ts)), rearr.cdf(ts),
                        rearr.density(ts)])
        summary["reduce_1d"] = entry

    if config["outputs"]["holder_probe"]:
        if scenario is None:
            scenario = sc.Scenario(name="inline", model=model, params={},
                                   expected_verdict="nested")
        try:
            expo = sc.holder_probe(scenario, tuple(tol["holder_window"]),
                                   curve=curve)
            summary["holder_exponent"] = expo
        except NestorError as exc:
            summary["holder_exponent"] = None
            summary["holder_error"] = str(exc)

    if config["record_timings"]:
        timings["total_s"] = time.perf_counter() - t_all
        summary["timings_seconds"] = timings
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    if report is not None:
        _print_report(report)
    print(f"artifacts written to {out_dir}")
    return exit_code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("scenario", nargs="?", help="built-in scenario name")
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--out", default=None, help="output directory "
                   "(default $NESTOR_OUT_DIR or '.')")
    p.add_argument("--resolution", type=int, default=None,
                   help="quadrature points per axis")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--y-nodes", type=int, default=None)
    p.add_argument("--tol-mass", type=float, default=None)
    p.add_argument("--require-nested", action="store_true")
    p.add_argument("--dump-level", type=float, action="append",
                   dest="dump_levels", metavar="Y",
                   help="dump the indifference set at target value Y to CSV "
                   "(repeatable)")
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock timings in summary.json "
                   "(off by default so artifacts are reproducible)")
    # scenario parameters
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--flatness", type=float, default=None)
    p.add_argument("--inner-radius", type=float, default=None)
    p.add_argument("--target-density", choices=["uniform", "linear"],
                   default=None)


def _config_from_args(args) -> dict:
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config!r}: {exc}") from None
    else:
        if not args.scenario:
            raise ConfigError("need a scenario name or --config FILE")
        config = {"scenario": args.scenario}
    params = config.setdefault("params", {})
    for key, name in (("m", "m"), ("theta0", "theta0"),
                      ("flatness", "flatness"), ("inner_radius", "r"),
                      ("target_density", "target")):
        val = getattr(args, key)
        if val is not None:
            params[name] = val
    if not params:
        config.pop("params")
    if args.resolution is not None:
        config.setdefault("quadrature", {})["resolution"] = args.resolution
    if args.seed is not None:
        config["seed"] = args.seed
        config.setdefault("quadrature", {}).setdefault("seed", args.seed)
    if args.y_nodes is not None:
        config["y_nodes"] = args.y_nodes
    if args.tol_mass is not None:
        config.setdefault("tolerances", {})["tol_mass"] = args.tol_mass
    if args.require_nested:
        config["require_nested"] = True
    if args.dump_levels:
        config["dump_levels"] = args.dump_levels
    if args.timings:
        config["record_timings"] = True
    if args.out is not None:
        config["out_dir"] = args.out
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nestor",
        description="multi- to one-dimensional optimal transport solver")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("solve", "split curve, payoffs, map samples, diagnostics"),
            ("check-nested", "nestedness criteria and verdict"),
            ("oracle", "discrete LP cross-check"),
            ("reduce-1d", "index-form detection and scalar reduction"),
            ("holder-probe", "endpoint exponent of the split curve")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "oracle":
            p.add_argument("--atoms", default="400x40",
                           help="source x target atom counts, e.g. 400x40")

    sub.add_parser("scenario-list", help="list built-in scenarios")

    args = parser.parse_args(argv)
    if args.command == "scenario-list":
        for name in sc.list_scenarios():
            print(name)
        return 0

    try:
        config = _config_from_args(args)
        outputs = {"curve_csv": True, "map_csv": True,
                   "nestedness_json": args.command == "solve", "oracle": False,
                   "reduce_1d": False, "holder_probe": False}
        if args.command == "check-nested":
            outputs.update(curve_csv=False, map_csv=False, nestedness_json=True)
        elif args.command in ("reduce-1d", "holder-probe"):
            outputs[args.command.replace("-", "_")] = True
        elif args.command == "oracle":
            outputs["oracle"] = True
            try:
                n_src, n_tgt = (int(v) for v in args.atoms.split("x"))
            except ValueError:
                raise ConfigError(f"bad --atoms {args.atoms!r}; want NxM")
            config.setdefault("oracle", {})
            config["oracle"]["n_source"] = n_src
            config["oracle"]["n_target"] = n_tgt
        user_outputs = config.get("outputs", {})
        outputs.update(user_outputs)
        config["outputs"] = outputs
        return run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NestorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

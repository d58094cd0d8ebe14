"""Command-line front end.

Each subcommand but ``scenario-list`` runs ``pipeline.solve`` with its own
stages on (``_COMMANDS``) and then writes their artifacts, so a run that
raises writes none.  A run is configured by flags or by a JSON document
validated against ``nestor/config_schema.json``, whose fields are the
keywords of ``pipeline.solve``; its signature holds their defaults.
Artifacts are deterministic for a fixed configuration: CSV floats carry 17
significant digits and timings are recorded only when requested.

Exit codes: 0 success; 1 configuration or numerical error; 2 non-nested
verdict under --require-nested.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import pipeline
from . import scenarios as sc
from .errors import ConfigError, NestorError
from .geometry import (TargetInterval, annulus_domain, box_domain,
                       interval_domain, paraboloid_domain, pie_slice_domain)
from .levelsets import EmptyBand, level_set
from .model import DensityPair, Model, default_quadrature
from .nestedness import _jsonable
from .surplus import arc_surplus, bilinear_surplus, polynomial_surplus

# the artifacts and stages a run has on unless its outputs object says
_OUTPUTS = {"curve_csv": True, "map_csv": True, "nestedness_json": True,
            "oracle": False, "reduce_1d": False, "holder_probe": False}
# subcommand: help text, and what it changes in the output defaults
_COMMANDS = {
    "solve": ("split curve, payoffs, map samples, diagnostics", {}),
    "check-nested": ("nestedness criteria and verdict",
                     {"curve_csv": False, "map_csv": False}),
    "oracle": ("discrete LP cross-check",
               {"nestedness_json": False, "oracle": True}),
    "reduce-1d": ("index-form detection and scalar reduction",
                  {"nestedness_json": False, "reduce_1d": True}),
    "holder-probe": ("endpoint exponent of the split curve",
                     {"nestedness_json": False, "holder_probe": True}),
}


def validate_config(config: dict) -> dict:
    """Schema-validate and fill the outputs the CLI writes by default (the
    run's own defaults are ``pipeline.solve``'s); raises ConfigError with a
    JSON pointer to the offending entry."""
    import jsonschema
    with resources.files("nestor").joinpath("config_schema.json").open() as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"config invalid at {pointer!r}: {err.message}")
    return {**config, "outputs": {**_OUTPUTS, **config.get("outputs", {})}}


# ---------------------------------------------------------------------------
# inline model construction
# ---------------------------------------------------------------------------

_DOMAINS = {"box": box_domain, "interval": interval_domain,
            "annulus": annulus_domain, "pie-slice": pie_slice_domain,
            "paraboloid": paraboloid_domain}


def _from_fields(factory, fields: dict, noun: str):
    """Call ``factory`` on a spec's fields, which are its keywords: its
    defaults fill the fields the spec leaves out, and a field it needs and
    lacks, or one it does not take, is a ConfigError naming them."""
    params = inspect.signature(factory).parameters
    missing = [name for name, par in params.items()
               if par.default is par.empty and name not in fields]
    if missing:
        raise ConfigError(f"{noun} needs {missing}")
    stray = sorted(set(fields) - set(params))
    if stray:
        raise ConfigError(f"{noun} takes no field {stray}")
    return factory(**fields)


def _domain_from_spec(spec: dict):
    fields = {k: v for k, v in spec.items() if k != "type"}
    noun = f"a {spec['type']} domain"
    return _from_fields(_DOMAINS[spec["type"]], fields, noun)


def _surplus_from_spec(spec: dict, dim: int):
    """A polynomial spec has no other field; otherwise ``builtin`` names the
    factory (bilinear by default, along x1 unless ``direction`` is given)."""
    fields = dict(spec)
    if "polynomial" in fields:
        kind = "polynomial"

        def factory(polynomial):
            return polynomial_surplus([(t["coeff"], t["x_powers"], t["y_power"])
                                       for t in polynomial], dim)
    else:
        kind = fields.pop("builtin", "bilinear")
        factory = {"bilinear": bilinear_surplus, "arc": arc_surplus}[kind]
        if kind == "bilinear":
            fields.setdefault("direction", [1.0] + [0.0] * (dim - 1))
    return _from_fields(factory, fields, f"the {kind} surplus")


def _densities_from_spec(model_spec: dict, dim: int) -> DensityPair:
    """Polynomial densities where the spec gives them, else uniform ones."""
    f_spec = model_spec.get("density_f", {})
    g_spec = model_spec.get("density_g", {})
    dens = DensityPair()
    if "polynomial" in f_spec:
        terms = [(t["coeff"], tuple(t["x_powers"]), 0) for t in f_spec["polynomial"]]
        poly = polynomial_surplus(terms, dim)
        dens = replace(dens, f=lambda x: poly.s(np.atleast_2d(x), 0.0))
    if "polynomial" in g_spec:
        coeffs = np.asarray(g_spec["polynomial"], dtype=float)
        dens = replace(dens, g=lambda y: np.polyval(coeffs[::-1],
                                                   np.asarray(y, dtype=float)))
    return dens


def build_model_from_config(config: dict):
    """Returns (model, params echo).  A quadrature spec fills its missing
    fields from ``default_quadrature(dim)``, and its ``mode`` applies to
    inline models only; ``params`` applies to scenarios only.  A ValueError
    while the scenario or the inline model is built is a ConfigError."""
    quad_spec = config.get("quadrature", {})
    if "scenario" in config and "mode" in quad_spec:
        raise ConfigError("quadrature.mode applies to inline models only; "
                          "a scenario picks the mode for its dimension")
    if "model" in config and config.get("params"):
        raise ConfigError("params apply to built-in scenarios only")
    try:
        if "scenario" in config:
            params = dict(config.get("params", {}))
            scenario = sc.build(config["scenario"], **params, **quad_spec)
            if quad_spec:
                quad = scenario.model.quadrature
                params.update(resolution=quad.resolution, seed=quad.seed)
            return scenario.model, params
        spec = config["model"]
        dom = _domain_from_spec(spec["domain"])
        target = TargetInterval(*spec["target"])
        surplus = _surplus_from_spec(spec["surplus"], dom.dim)
        dens = _densities_from_spec(spec, dom.dim)
        quad = replace(default_quadrature(dom.dim), **quad_spec)
        return Model(dom, target, surplus, dens, quadrature=quad), {}
    except ValueError as exc:
        raise ConfigError(f"cannot build the model: {exc}") from None


# ---------------------------------------------------------------------------
# a run: the pipeline, then the artifact writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return format(float(x), ".17g")


def _write_csv(out_dir: str, name: str, columns: dict):
    """One CSV column per entry of ``columns``, headed by its key."""
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(out_dir: str, name: str, payload: dict):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def _dump_level_set(model, curve, y: float, out_dir: str):
    """Diagnostic dump of the ``auto`` samples of one indifference set: the
    clipped contour polyline (segment, x1, x2) on planar tensor grids, band
    points with their surface measure (x1..xm, measure) otherwise.  A level
    set with no samples gives a header-only file."""
    tag = repr(float(y)).replace("-", "m").replace(".", "p")
    try:
        ls = level_set(model, y, curve.k_at(y))
        estimator = ls.estimator
    except EmptyBand as exc:
        ls, estimator = None, exc.estimator
    if estimator == "contour2d":
        segments = np.empty((0, 2, 2)) if ls is None else ls.segments
        flat = segments.reshape(-1, 2)
        cols = {"segment": np.repeat(np.arange(segments.shape[0]), 2),
                "x1": flat[:, 0], "x2": flat[:, 1]}
    else:
        points = np.empty((0, model.domain.dim)) if ls is None else ls.points
        cols = {**_coordinates(points),
                "measure": np.empty(0) if ls is None else ls.measure}
    _write_csv(out_dir, f"levelset_{tag}.csv", cols)


def _coordinates(points: np.ndarray) -> dict:
    return {f"x{j + 1}": col for j, col in enumerate(points.T)}


def _print_report(report):
    print(f"verdict: {report.verdict}")
    for crit in (report.sublevel_monotone, report.dynamic,
                 report.unique_splitting):
        extra = f" ({len(crit.witnesses)} witness(es))" if crit.witnesses else ""
        print(f"  {crit.name:18s} {crit.status}{extra}")
    if report.transversality_min is not None:
        print(f"  transversality_min {report.transversality_min:.4f}")
    print(f"  speed_limit        {report.speed_limit:.4f}")


def run(config: dict) -> int:
    """Validate ``config``, build its model, run ``pipeline.solve`` and
    write the requested artifacts to ``config["out_dir"]`` (default
    $NESTOR_OUT_DIR or '.'); returns the process exit code."""
    config = validate_config(config)
    out = config["outputs"]
    model, params = build_model_from_config(config)
    dump_levels = config.get("dump_levels", [])
    for y_dump in dump_levels:
        if not model.target.y_lo <= y_dump <= model.target.y_hi:
            raise ConfigError(f"dump level {y_dump!r} is outside the target "
                              f"interval [{model.target.y_lo:g}, "
                              f"{model.target.y_hi:g}]")
    require_nested = config.get("require_nested", False)
    kwargs = {key: config[key] for key in ("seed", "y_nodes", "map_samples")
              if key in config}
    if not out["map_csv"]:
        kwargs["map_samples"] = 0
    if out["oracle"]:
        kwargs["oracle_atoms"] = {**pipeline.ORACLE_ATOMS,
                                  **config.get("oracle", {})}
    result = pipeline.solve(
        model, report=out["nestedness_json"] or require_nested,
        reduce_1d=out["reduce_1d"], holder_probe=out["holder_probe"],
        **config.get("tolerances", {}), **kwargs)
    summary = {"scenario": config.get("scenario"), "params": params,
               **result.summary}
    if config.get("record_timings"):
        summary["timings_seconds"] = result.timings

    out_dir = config.get("out_dir") or os.environ.get("NESTOR_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    curve, samples = result.curve, result.map_samples
    if out["curve_csv"]:
        _write_csv(out_dir, "curve.csv", {
            "y": curve.y_grid, "k": curve.k_plus, "kprime": curve.kprime,
            "v": curve.v_values, "area": curve.area,
            "balance_residual": result.residuals,
            "tangential": curve.tangential_flags})
    if samples is not None:
        _write_csv(out_dir, "map.csv", {
            **_coordinates(samples["x"]),
            **{key: samples[key] for key in ("F", "u", "grad_norm")}})
    for y_dump in dump_levels:
        _dump_level_set(model, curve, float(y_dump), out_dir)
    if out["nestedness_json"]:
        _write_json(out_dir, "nestedness.json", result.report.to_dict())
    if result.oracle is not None:
        _write_json(out_dir, "oracle_plan.json", result.oracle[1].to_dict())
    if result.map1d is not None:
        _write_csv(out_dir, "map1d.csv", result.map1d)
    _write_json(out_dir, "summary.json", _jsonable(summary))
    if result.report is not None:
        _print_report(result.report)
    print(f"artifacts written to {out_dir}")
    return 2 if require_nested and result.report.verdict != "nested" else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# every flag but the scenario and --config stores None unless given; these
# set a run field (a scenario parameter), by config key
_RUN_FLAGS = ("seed", "y_nodes", "require_nested", "dump_levels",
              "record_timings", "out_dir")
_PARAM_FLAGS = ("m", "theta0", "flatness", "r", "target")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("scenario", nargs="?", help="built-in scenario name")
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--out", dest="out_dir", help="output directory "
                   "(default $NESTOR_OUT_DIR or '.')")
    p.add_argument("--resolution", type=int, help="quadrature points per axis")
    p.add_argument("--seed", type=int)
    p.add_argument("--y-nodes", type=int)
    p.add_argument("--require-nested", action="store_true", default=None)
    p.add_argument("--dump-level", type=float, action="append",
                   dest="dump_levels", metavar="Y",
                   help="dump the indifference set at target value Y to CSV "
                   "(repeatable)")
    p.add_argument("--timings", action="store_true", default=None,
                   dest="record_timings",
                   help="record wall-clock timings in summary.json "
                   "(off by default so artifacts are reproducible)")
    # scenario parameters
    p.add_argument("--m", type=int)
    p.add_argument("--theta0", type=float)
    p.add_argument("--flatness", type=float)
    p.add_argument("--inner-radius", type=float, dest="r")
    p.add_argument("--target-density", choices=["uniform", "linear"],
                   dest="target")


def _config_from_args(args) -> dict:
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config!r}: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"{args.config!r} does not hold a JSON object")
    else:
        if not args.scenario:
            raise ConfigError("need a scenario name or --config FILE")
        config = {"scenario": args.scenario}
    params = {key: getattr(args, key) for key in _PARAM_FLAGS
              if getattr(args, key) is not None}
    if params:
        config["params"] = {**config.get("params", {}), **params}
    config.update((key, getattr(args, key)) for key in _RUN_FLAGS
                  if getattr(args, key) is not None)
    if args.resolution is not None:
        config.setdefault("quadrature", {})["resolution"] = args.resolution
    if args.seed is not None:
        config.setdefault("quadrature", {}).setdefault("seed", args.seed)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nestor",
        description="multi- to one-dimensional optimal transport solver")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "oracle":
            p.add_argument("--atoms", help="source x target atom counts "
                           "(default {n_source}x{n_target})".format(
                               **pipeline.ORACLE_ATOMS))

    sub.add_parser("scenario-list", help="list built-in scenarios")

    args = parser.parse_args(argv)
    if args.command == "scenario-list":
        for name in sc.list_scenarios():
            print(name)
        return 0

    try:
        config = _config_from_args(args)
        if getattr(args, "atoms", None) is not None:
            try:
                n_src, n_tgt = (int(v) for v in args.atoms.split("x"))
            except ValueError:
                raise ConfigError(f"bad --atoms {args.atoms!r}; want NxM")
            config["oracle"] = {"n_source": n_src, "n_target": n_tgt}
        config["outputs"] = {**_COMMANDS[args.command][1],
                             **config.get("outputs", {})}
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NestorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

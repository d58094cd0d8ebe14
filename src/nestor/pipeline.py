"""One nestor run on a built model: every stage the CLI runs, and every
summary.json figure but the echo of the scenario and its parameters.  The
stage timings are kept apart, so the summary is reproducible."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import nestedness as nd
from . import pseudoindex as pix
from . import scenarios as sc
from . import solver as sv
from .errors import NestorError
from .model import Model
from .oracle import (compare_with_map, cyclical_monotonicity_audit,
                     sample_instance, solve_transport)

ORACLE_ATOMS = {"n_source": 400, "n_target": 40}  # the oracle's default
ORACLE_SEED = 7  # the seed of the oracle's sampled atoms


@dataclass(frozen=True)
class Run:
    """What ``solve`` computed; a stage that did not run leaves None.
    residuals: ``balance_residual`` at each node.  map_samples: columns x
    (n, m), F, u, y_star and grad_norm (|DF|, NaN if the map gradient
    failed).  oracle: (instance, plan).  map1d: the 1-d reduction's columns
    t, F1, cdf, density.  timings: seconds per stage that ran."""
    curve: sv.SplitCurve
    residuals: np.ndarray
    summary: dict
    timings: dict
    map_samples: Optional[dict] = None
    report: Optional[nd.NestednessReport] = None
    oracle: Optional[tuple] = None
    map1d: Optional[dict] = None


def solve(model: Model, *, y_nodes: int = 65, seed: int = 0,
          map_samples: int = 500, report: bool = True,
          nestedness_probes: int = nd._N_PROBES,
          scan_nodes: int = nd._SCAN_NODES,
          oracle_atoms: Optional[dict] = None,
          reduce_1d: bool = False, holder_probe: bool = False) -> Run:
    """Solve ``model`` on ``y_nodes`` nodes and compute the figures around
    the solution.  ``seed`` draws the ``map_samples`` map points (0 takes
    none) and the report's and the index detector's probes.  ``oracle_atoms``
    (n_source and n_target, as in ``ORACLE_ATOMS``) runs the LP oracle.  A
    NestorError of the map gradient or of the endpoint probe is recorded in
    the summary; any other propagates."""
    t_all = time.perf_counter()
    timings = {}
    summary = {
        "tolerances": {"nestedness_probes": nestedness_probes,
                       "scan_nodes": scan_nodes},
        "seed": seed, "y_nodes": y_nodes,
        "quadrature": {**asdict(model.quadrature),
                       "interior_points": model.grid.n_points},
        "nondegeneracy": {"min_grad_norm": model.certificate.min_grad_norm,
                          "threshold": model.certificate.threshold,
                          "passed": model.certificate.passed},
    }

    t0 = time.perf_counter()
    curve = sv.solve_split_curve(model, n_nodes=y_nodes)
    timings["solve_split_curve_s"] = time.perf_counter() - t0
    summary["k_nondecreasing"] = curve.k_nondecreasing
    summary["interpolation_error"] = sv.interpolation_error(curve)
    # from the solve's own samples; an empty level set leaves its cell NaN
    residuals = sv.balance_residual(model, curve, curve.y_grid)
    summary["empty_level_sets"] = {
        "area": int(np.sum(np.isnan(curve.area))),
        "balance_residual": int(np.sum(np.isnan(residuals)))}

    parts = {}  # the outputs of the optional stages, by Run field
    if map_samples:
        x = model.domain.sample_interior(map_samples, seed=seed, margin=0.01)
        f_vals, u_vals, y_star = sv.map_and_payoff(model, curve, x)
        grad_norm = np.full(x.shape[0], np.nan)
        try:
            grad_norm = np.linalg.norm(
                sv.map_gradient(model, curve, x, f_vals), axis=1)
        except NestorError as exc:
            summary["map_gradient_error"] = f"{type(exc).__name__}: {exc}"
        parts["map_samples"] = {"x": x, "F": f_vals, "u": u_vals,
                                "y_star": y_star, "grad_norm": grad_norm}

    if report:
        t0 = time.perf_counter()
        nest = parts["report"] = nd.nestedness_report(
            model, curve, seed=seed, n_probes=nestedness_probes,
            scan_nodes=scan_nodes)
        timings["nestedness_s"] = time.perf_counter() - t0
        summary["nestedness_verdict"] = nest.verdict
        summary["speed_limit"] = nest.speed_limit
        summary["transversality_min"] = nest.transversality_min

    summary["pushforward_distance"] = sv.pushforward_distance(model, curve)
    clean = np.isfinite(residuals) & ~curve.tangential_flags
    summary["balance_residual_max"] = \
        float(np.max(np.abs(residuals[clean]))) if np.any(clean) else None

    if oracle_atoms is not None:
        t0 = time.perf_counter()
        inst = sample_instance(model, **oracle_atoms, seed=ORACLE_SEED)
        plan = solve_transport(inst)
        gaps = compare_with_map(model, curve, inst, plan)
        gaps["cyclical_monotonicity_worst"] = cyclical_monotonicity_audit(
            plan, inst.surplus_matrix)
        gaps["n_pivots"] = plan.n_pivots
        gaps["strong_duality_gap"] = float(
            plan.objective - plan.u @ inst.source_weights
            - plan.v @ inst.target_weights)
        summary["oracle"] = gaps
        parts["oracle"] = (inst, plan)
        timings["oracle_s"] = time.perf_counter() - t0

    if reduce_1d:
        det = pix.detect_index_form(model, seed=seed)
        entry = {"is_index": det["is_index"], "confidence": det["confidence"]}
        if det["is_index"]:
            rearr = pix.reduce_and_solve_1d(model)
            entry["ode_residual_max"] = pix.verify_1d_ode(rearr)
            probes = model.domain.sample_interior(100, seed=seed, margin=0.02)
            full = sv.optimal_map(model, curve, probes)
            entry["sup_gap_vs_full"] = float(np.max(np.abs(
                full - np.asarray(rearr.map_full(probes)))))
            ts = np.linspace(rearr.index_grid[0], rearr.index_grid[-1], 257)
            parts["map1d"] = {"t": ts, "F1": np.asarray(rearr.map_1d(ts)),
                              "cdf": rearr.cdf(ts),
                              "density": rearr.density(ts)}
        summary["reduce_1d"] = entry

    if holder_probe:
        try:
            summary["holder_exponent"] = sc.holder_probe(model, curve=curve)
        except NestorError as exc:
            summary["holder_exponent"] = None
            summary["holder_error"] = str(exc)

    timings["total_s"] = time.perf_counter() - t_all
    return Run(curve, residuals, summary, timings, **parts)

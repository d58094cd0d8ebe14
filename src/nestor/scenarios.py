"""Built-in analytic fixtures.

Each scenario bundles a model with the closed-form map/potentials it is
known to admit, so solver output can be regressed against ground truth:

* uniform-1d          scalar segment-to-segment matching (identity map,
                      or the square-root map for the linear target);
* paraboloid-segment  solid paraboloid onto a segment under the inner
                      product; map x -> x_1^((m+1)/2), nested;
* flat-paraboloid     flattened bowl (|x'|^2/2)^kappa < x_1; the map
                      exponent 1 + 1/(2 kappa) degrades toward 1 as the
                      bowl flattens, probing boundary regularity;
* ball-circle         punctured ball (annulus) onto the punctured unit
                      circle parameterized by angle; the angle map is
                      optimal but the model is not nested;
* pie-slice           circular sector onto its arc; nested exactly up to
                      opening half-angle pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientRange, UnknownScenario
from .geometry import (Quadrature, TargetInterval, annulus_domain,
                       interval_domain, paraboloid_domain, pie_slice_domain)
from .model import DensityPair, Model, default_quadrature
from .surplus import arc_surplus, bilinear_surplus


@dataclass
class Scenario:
    name: str
    model: Model
    params: dict
    expected_verdict: str                      # "nested" | "non-nested"
    analytic_map: Optional[Callable] = None    # (N, m) -> (N,)
    analytic_v: Optional[Callable] = None      # (N,) targets -> payoffs
    analytic_u: Optional[Callable] = None      # (N, m) -> payoffs
    analytic_k: Optional[Callable] = None      # (N,) targets -> levels


def _quad_for(dim: int, resolution: Optional[int], seed: int) -> Quadrature:
    """``default_quadrature(dim)`` with the resolution (when given) and the
    seed overridden."""
    quad = default_quadrature(dim)
    return replace(quad, seed=seed, resolution=quad.resolution
                   if resolution is None else resolution)


def _build_uniform_1d(resolution=None, seed=0, target="uniform", **model_kw):
    dom = interval_domain(0.0, 1.0)
    tgt = TargetInterval(0.0, 1.0)
    if target == "uniform":
        dens = DensityPair()
        analytic = dict(
            analytic_map=lambda x: np.atleast_2d(x)[:, 0],
            analytic_v=lambda y: 0.5 * np.asarray(y) ** 2,
            analytic_u=lambda x: 0.5 * np.atleast_2d(x)[:, 0] ** 2,
            analytic_k=lambda y: np.asarray(y, dtype=float))
    elif target == "linear":
        dens = DensityPair(g=lambda y: 2.0 * np.maximum(np.asarray(y, dtype=float), 1e-300))
        analytic = dict(
            analytic_map=lambda x: np.sqrt(np.atleast_2d(x)[:, 0]),
            analytic_v=lambda y: np.asarray(y) ** 3 / 3.0,
            analytic_u=lambda x: (2.0 / 3.0) * np.atleast_2d(x)[:, 0] ** 1.5,
            analytic_k=lambda y: np.asarray(y, dtype=float) ** 2)
    else:
        raise UnknownScenario(f"uniform-1d target {target!r}")
    model = Model(dom, tgt, bilinear_surplus([1.0]), dens,
                  quadrature=_quad_for(1, resolution, seed), **model_kw)
    return Scenario(name="uniform-1d", model=model,
                    params={"target": target}, expected_verdict="nested",
                    **analytic)


def _build_paraboloid(m=2, resolution=None, seed=0, **model_kw):
    m = int(m)
    dom = paraboloid_domain(m)
    tgt = TargetInterval(0.0, 1.0)
    e1 = [1.0] + [0.0] * (m - 1)
    model = Model(dom, tgt, bilinear_surplus(e1),
                  quadrature=_quad_for(m, resolution, seed), **model_kw)
    p_map = (m + 1) / 2.0
    p_u = (m + 3) / 2.0
    c_u = 2.0 / (m + 3)
    c_v = (m + 1) / (m + 3)
    p_v = 1.0 + 2.0 / (m + 1)
    return Scenario(
        name="paraboloid-segment", model=model, params={"m": m},
        expected_verdict="nested",
        analytic_map=lambda x: np.atleast_2d(x)[:, 0] ** p_map,
        analytic_u=lambda x: c_u * np.atleast_2d(x)[:, 0] ** p_u,
        analytic_v=lambda y: c_v * np.asarray(y, dtype=float) ** p_v,
        analytic_k=lambda y: np.asarray(y, dtype=float) ** (2.0 / (m + 1)))


def _build_flat_paraboloid(m=2, flatness=2.0, resolution=None, seed=0,
                           **model_kw):
    if int(m) != 2:
        raise UnknownScenario("flat-paraboloid is a planar fixture (m = 2)")
    kappa = float(flatness)
    dom = paraboloid_domain(2, flatness=kappa)
    tgt = TargetInterval(0.0, 1.0)
    model = Model(dom, tgt, bilinear_surplus([1.0, 0.0]),
                  quadrature=_quad_for(2, resolution, seed), **model_kw)
    p_map = 1.0 + 1.0 / (2.0 * kappa)          # F = x_1^p
    p_k = (2.0 * kappa) / (2.0 * kappa + 1.0)  # k = y^(1/p)
    c_v = (2.0 * kappa + 1.0) / (4.0 * kappa + 1.0)
    p_v = (4.0 * kappa + 1.0) / (2.0 * kappa + 1.0)
    c_u = 2.0 * kappa / (4.0 * kappa + 1.0)
    p_u = (4.0 * kappa + 1.0) / (2.0 * kappa)
    return Scenario(
        name="flat-paraboloid", model=model,
        params={"m": 2, "flatness": kappa}, expected_verdict="nested",
        analytic_map=lambda x: np.atleast_2d(x)[:, 0] ** p_map,
        analytic_v=lambda y: c_v * np.asarray(y, dtype=float) ** p_v,
        analytic_u=lambda x: c_u * np.atleast_2d(x)[:, 0] ** p_u,
        analytic_k=lambda y: np.asarray(y, dtype=float) ** p_k)


def _build_ball_circle(r=0.05, resolution=None, seed=0, **model_kw):
    r = float(r)
    dom = annulus_domain(r, 1.0)
    tgt = TargetInterval(-np.pi, np.pi)
    model = Model(dom, tgt, arc_surplus(),
                  quadrature=_quad_for(2, resolution, seed), **model_kw)
    return Scenario(
        name="ball-circle", model=model, params={"r": r},
        expected_verdict="non-nested",
        analytic_map=lambda x: np.arctan2(np.atleast_2d(x)[:, 1],
                                          np.atleast_2d(x)[:, 0]),
        analytic_u=lambda x: np.linalg.norm(np.atleast_2d(x), axis=1),
        analytic_v=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        analytic_k=lambda y: np.zeros_like(np.asarray(y, dtype=float)))


def _build_pie_slice(theta0=np.pi / 4, resolution=None, seed=0, **model_kw):
    theta0 = float(theta0)
    dom = pie_slice_domain(theta0, 1.0)
    tgt = TargetInterval(-theta0, theta0)
    model = Model(dom, tgt, arc_surplus(),
                  quadrature=_quad_for(2, resolution, seed), **model_kw)
    verdict = "nested" if theta0 <= np.pi / 2 else "non-nested"
    return Scenario(
        name="pie-slice", model=model, params={"theta0": theta0},
        expected_verdict=verdict,
        analytic_map=lambda x: np.arctan2(np.atleast_2d(x)[:, 1],
                                          np.atleast_2d(x)[:, 0]),
        analytic_u=lambda x: np.linalg.norm(np.atleast_2d(x), axis=1),
        analytic_v=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        analytic_k=lambda y: np.zeros_like(np.asarray(y, dtype=float)))


_BUILDERS = {
    "uniform-1d": _build_uniform_1d,
    "paraboloid-segment": _build_paraboloid,
    "flat-paraboloid": _build_flat_paraboloid,
    "ball-circle": _build_ball_circle,
    "pie-slice": _build_pie_slice,
}


def list_scenarios() -> list:
    return sorted(_BUILDERS)


def build(name: str, **params) -> Scenario:
    """Construct a named scenario; unknown names raise UnknownScenario.
    Keywords that are not scenario parameters (``cdf_nodes``,
    ``nondegeneracy_rel_threshold``) go to the Model."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownScenario(
            f"{name!r}; known: {', '.join(list_scenarios())}") from None
    return builder(**params)


def validate_analytic(scenario: Scenario) -> dict:
    """Self-check of the registered closed forms against the model: the
    analytic map must push the f-weighted quadrature points to g (KS
    distance), and (u, v) must be stable with equality on the graph at
    400 random probes (seed 0)."""
    from .solver import weighted_ks_distance
    model = scenario.model
    out = {}
    if scenario.analytic_map is not None:
        f_vals = np.asarray(scenario.analytic_map(model.grid.points), dtype=float)
        out["map_pushforward_ks"] = weighted_ks_distance(model, f_vals,
                                                         model.point_mass)
    if scenario.analytic_u is not None and scenario.analytic_v is not None:
        rng = np.random.default_rng(0)
        xs = model.domain.sample_interior(400, seed=0)
        ys = model.target.y_lo + model.target.length * rng.random(400)
        u_vals = np.asarray(scenario.analytic_u(xs), dtype=float)
        v_vals = np.asarray(scenario.analytic_v(ys), dtype=float)
        s_vals = np.asarray(model.surplus.s(xs, ys), dtype=float)
        out["stability_min"] = float(np.min(u_vals + v_vals - s_vals))
        if scenario.analytic_map is not None:
            f_vals = np.asarray(scenario.analytic_map(xs), dtype=float)
            vf = np.asarray(scenario.analytic_v(f_vals), dtype=float)
            sf = np.asarray(model.surplus.s(xs, f_vals), dtype=float)
            out["graph_equality_max"] = float(np.max(np.abs(u_vals + vf - sf)))
    return out


def holder_probe(scenario: Scenario, exponent_window=(0.005, 0.08), *,
                 curve) -> float:
    """Fitted growth exponent of k(y) - k(y_lo) near the lower endpoint by
    log-log regression over the window (fractions of the target length).

    k(y_lo) is the essential infimum of s_y(., y_lo) over the domain: the
    split level sinks to the bottom of the slope range as the target mass
    vanishes.  Raises InsufficientRange below 5 usable nodes in the window.
    """
    model = scenario.model
    lo_frac, hi_frac = exponent_window
    length = model.target.length
    y0 = model.target.y_lo
    mask = ((curve.y_grid >= y0 + lo_frac * length)
            & (curve.y_grid <= y0 + hi_frac * length))
    if int(np.sum(mask)) < 5:
        raise InsufficientRange(
            f"only {int(np.sum(mask))} nodes in the fit window")
    sl = model.slice_at(y0 + 1e-12 * length)
    if sl.span is not None:
        # midpoint samples sit half a cell above the true infimum
        k_floor = float(np.min(sl.sy - 0.5 * sl.span))
    else:
        k_floor = float(np.min(sl.sy))
    dk = curve.k_plus[mask] - k_floor
    dy = curve.y_grid[mask] - y0
    good = dk > 0
    if int(np.sum(good)) < 5:
        raise InsufficientRange("level increments vanish in the fit window")
    slope, _ = np.polyfit(np.log(dy[good]), np.log(dk[good]), 1)
    return float(slope)

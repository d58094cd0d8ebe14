"""Built-in analytic fixtures.

Each scenario bundles a model with the closed-form map/potentials it is
known to admit, so solver output can be regressed against ground truth.
The closed forms come in two families:

* the power law (``_power_law``): under s = y x_1 onto [0, 1] the optimal
  map is the monotone rearrangement F = x_1^p.  uniform-1d matches two
  segments (p = 1, or 1/2 for the linear target density);
  paraboloid-segment (any m >= 2) and the planar flat-paraboloid fill the
  bowl (|x'|^2/2)^kappa < x_1 < 1, with p = 1 + (m - 1)/(2 kappa) (kappa = 1
  for the round paraboloid): flattening the bowl degrades the exponent
  toward 1, probing boundary regularity;
* the angle map (``_ANGLE_MAP``): under s = x . (cos y, sin y) onto an arc
  of angles, F = angle of x, u = |x| and k = v = 0.  ball-circle maps an
  annulus onto the punctured circle and is not nested; pie-slice maps a
  sector onto its arc and is nested exactly up to half-angle pi/2.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientRange, UnknownScenario
from .geometry import (Quadrature, TargetInterval, annulus_domain,
                       interval_domain, paraboloid_domain, pie_slice_domain)
from .levelsets import _mass_knots
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


def _power_law(p: float) -> dict:
    """The map F = x_1^p, the split curve k = F^-1 (s_y = x_1 on the graph
    of F), v = int_0^y k and u = s(x, F(x)) - v(F(x))."""
    q = 1.0 + 1.0 / p
    return dict(
        analytic_map=lambda x: np.atleast_2d(x)[:, 0] ** p,
        analytic_k=lambda y: np.asarray(y, dtype=float) ** (1.0 / p),
        analytic_v=lambda y: np.asarray(y, dtype=float) ** q / q,
        analytic_u=lambda x: np.atleast_2d(x)[:, 0] ** (p + 1.0) / (p + 1.0))


def _zero(y):
    return np.zeros_like(np.asarray(y, dtype=float))


# s = |x| cos(y - angle x) peaks at the angle of x with s_y = 0 there
_ANGLE_MAP = dict(
    analytic_map=lambda x: np.arctan2(np.atleast_2d(x)[:, 1],
                                      np.atleast_2d(x)[:, 0]),
    analytic_u=lambda x: np.linalg.norm(np.atleast_2d(x), axis=1),
    analytic_v=_zero, analytic_k=_zero)


def _build_uniform_1d(resolution=None, seed=0, target="uniform"):
    if target == "uniform":
        dens, p = DensityPair(), 1.0
    elif target == "linear":
        dens = DensityPair(g=lambda y: 2.0 * np.maximum(np.asarray(y, dtype=float), 1e-300))
        p = 0.5
    else:
        raise UnknownScenario(f"uniform-1d target {target!r}")
    model = Model(interval_domain(0.0, 1.0), TargetInterval(0.0, 1.0),
                  bilinear_surplus([1.0]), dens,
                  quadrature=_quad_for(1, resolution, seed))
    return Scenario("uniform-1d", model, {"target": target}, "nested",
                    **_power_law(p))


def _bowl(name, m, kappa, params, resolution, seed):
    # the slice at height x_1 has volume ~ x_1^((m - 1)/(2 kappa))
    model = Model(paraboloid_domain(m, flatness=kappa),
                  TargetInterval(0.0, 1.0),
                  bilinear_surplus([1.0] + [0.0] * (m - 1)),
                  quadrature=_quad_for(m, resolution, seed))
    return Scenario(name, model, params, "nested",
                    **_power_law(1.0 + (m - 1) / (2.0 * kappa)))


def _build_paraboloid(m=2, resolution=None, seed=0):
    m = int(m)
    return _bowl("paraboloid-segment", m, 1.0, {"m": m}, resolution, seed)


def _build_flat_paraboloid(m=2, flatness=2.0, resolution=None, seed=0):
    if int(m) != 2:
        raise UnknownScenario("flat-paraboloid is a planar fixture (m = 2)")
    kappa = float(flatness)
    return _bowl("flat-paraboloid", 2, kappa, {"m": 2, "flatness": kappa},
                 resolution, seed)


def _arc(name, domain, half_angle, params, verdict, resolution, seed):
    model = Model(domain, TargetInterval(-half_angle, half_angle),
                  arc_surplus(), quadrature=_quad_for(2, resolution, seed))
    return Scenario(name, model, params, verdict, **_ANGLE_MAP)


def _build_ball_circle(r=0.05, resolution=None, seed=0):
    r = float(r)
    return _arc("ball-circle", annulus_domain(r, 1.0), np.pi, {"r": r},
                "non-nested", resolution, seed)


def _build_pie_slice(theta0=np.pi / 4, resolution=None, seed=0):
    theta0 = float(theta0)
    verdict = "nested" if theta0 <= np.pi / 2 else "non-nested"
    return _arc("pie-slice", pie_slice_domain(theta0, 1.0), theta0,
                {"theta0": theta0}, verdict, resolution, seed)


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
    """Construct a named scenario; unknown names raise UnknownScenario and
    parameters the scenario does not take raise ValueError.  The model's
    tolerances are library constants, not scenario parameters."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownScenario(
            f"{name!r}; known: {', '.join(list_scenarios())}") from None
    stray = sorted(set(params) - set(inspect.signature(builder).parameters))
    if stray:
        raise ValueError(f"{name!r} takes no parameter {', '.join(stray)}")
    return builder(**params)


def _cell_images(model: Model, fn: Callable):
    """fn at the quadrature points, and the radius 1/2 sum_j |d_j fn| h_j
    of each tensor cell's image (0 on Monte Carlo grids).  d_j fn is the
    difference over x -/+ h_j / 2 along axis j, with a stencil point that
    leaves X replaced by x itself, so fn is evaluated inside X only."""
    x = model.grid.points
    f_vals = np.asarray(fn(x), dtype=float)
    radius = np.zeros(f_vals.size)
    if model.grid.spacing is None:
        return f_vals, radius
    for j, h in enumerate(model.grid.spacing):
        ends = []
        for sign in (1.0, -1.0):
            shifted = x.copy()
            shifted[:, j] += sign * 0.5 * h
            inside = model.domain.contains(shifted)
            at = f_vals.copy()
            at[inside] = np.asarray(fn(shifted[inside]), dtype=float)
            ends.append((at, inside))
        (f_up, in_up), (f_down, in_down) = ends
        run = 0.5 * h * (in_up.astype(float) + in_down)
        radius += 0.5 * h * np.abs(f_up - f_down) / np.where(run > 0, run, 1.0)
    return f_vals, radius


def validate_analytic(scenario: Scenario) -> dict:
    """Self-check of the registered closed forms against the model: the
    analytic map must push the f-weighted quadrature cells to g (KS
    distance, each cell spread over its image), and (u, v) must be stable
    with equality on the graph at 400 random probes (seed 0)."""
    from .solver import weighted_ks_distance
    model = scenario.model
    out = {}
    if scenario.analytic_map is not None:
        f_vals, radius = _cell_images(model, scenario.analytic_map)
        out["map_pushforward_ks"] = weighted_ks_distance(
            model, f_vals, model.point_mass, radius)
    if scenario.analytic_u is not None and scenario.analytic_v is not None:
        rng = np.random.default_rng(0)
        xs = model.domain.sample_interior(400, seed=0)
        ys = model.target.y_lo + model.target.length * rng.random(400)
        u_vals = np.asarray(scenario.analytic_u(xs), dtype=float)
        v_vals = np.asarray(scenario.analytic_v(ys), dtype=float)
        s_vals = model.surplus.s(xs, ys)
        out["stability_min"] = float(np.min(u_vals + v_vals - s_vals))
        if scenario.analytic_map is not None:
            f_vals = np.asarray(scenario.analytic_map(xs), dtype=float)
            vf = np.asarray(scenario.analytic_v(f_vals), dtype=float)
            sf = model.surplus.s(xs, f_vals)
            out["graph_equality_max"] = float(np.max(np.abs(u_vals + vf - sf)))
    return out


def holder_probe(model: Model, *, curve) -> float:
    """Fitted growth exponent of k(y) - k(y_lo) near the lower endpoint by
    log-log regression over the nodes with y - y_lo between 0.005 and 0.08
    of the target length.

    k(y_lo) is the lowest knot of the sublevel mass at y_lo: the split
    level sinks to the bottom of the slope range as the target mass
    vanishes.  Raises InsufficientRange below 5 usable nodes in the window.
    """
    length = model.target.length
    y0 = model.target.y_lo
    mask = ((curve.y_grid >= y0 + 0.005 * length)
            & (curve.y_grid <= y0 + 0.08 * length))
    if int(np.sum(mask)) < 5:
        raise InsufficientRange(
            f"only {int(np.sum(mask))} nodes in the fit window")
    k_floor = _mass_knots(model, model.slice_at(y0 + 1e-12 * length))[0][0]
    dk = curve.k_plus[mask] - k_floor
    dy = curve.y_grid[mask] - y0
    good = dk > 0
    if int(np.sum(good)) < 5:
        raise InsufficientRange("level increments vanish in the fit window")
    slope, _ = np.polyfit(np.log(dy[good]), np.log(dk[good]), 1)
    return float(slope)

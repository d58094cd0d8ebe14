"""Nestedness diagnostics.

A model is nested when its selected sublevel sets X_<=(y, k(y)) grow
strictly with y.  Three independent sampled criteria probe this:

1. sublevel monotonicity - direct set inclusion on quadrature points;
2. the dynamic criterion  - sign of the outward normal speed k' - s_yy
   on each indifference set (strict positivity certifies nestedness when
   no level set is tangential to the domain boundary);
3. unique splitting       - each probe point must admit exactly one
   target splitting the population proportionately.

The report also carries the boundary-transversality modulus
1 - (n_X . n_levelset)^2 (values near zero flag tangential intersections
where the derivative formulas break) and the speed limit
ell = inf (k' - s_yy), whose positivity yields a Lipschitz bound
|F|_Lip <= sup|grad_x s_y| / ell on the optimal map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyBand, NoBoundaryOracle
from .levelsets import level_set
from .model import Model
from .solver import (SplitCurve, count_sign_changes, effective_deadband,
                     splitting_profile)


@dataclass
class CriterionResult:
    name: str
    status: str                  # "pass" | "fail" | "indeterminate"
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class NestednessReport:
    sublevel_monotone: CriterionResult
    dynamic: CriterionResult
    unique_splitting: CriterionResult
    transversality_min: Optional[float]
    speed_limit: float
    verdict: str                 # "nested" | "non-nested" | "inconclusive"

    def to_dict(self) -> dict:
        def crit(c: CriterionResult) -> dict:
            return {"status": c.status,
                    "witnesses": [_jsonable(w) for w in c.witnesses],
                    "details": _jsonable(c.details)}
        return {
            "sublevel_monotone": crit(self.sublevel_monotone),
            "dynamic": crit(self.dynamic),
            "unique_splitting": crit(self.unique_splitting),
            "transversality_min": self.transversality_min,
            "speed_limit": self.speed_limit,
            "verdict": self.verdict,
        }


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# criterion 1: direct sublevel-set monotonicity
# ---------------------------------------------------------------------------

def check_sublevel_monotonicity(
        model: Model, curve: SplitCurve, y_pairs: Optional[list] = None,
        margin_tol: Optional[float] = None) -> CriterionResult:
    """For sampled y < y', every quadrature point of X_<=(y, k(y)) must lie
    strictly inside X_<(y', k(y')).  A point violates when
    s_y(x, y') - k(y') exceeds the margin tolerance (which absorbs one
    cell of discretization jitter); the 20 worst violations are kept."""
    if y_pairs is None:
        levels = curve.y_grid[:: max(1, curve.y_grid.size // 12)]
        y_pairs = [(float(a), float(b))
                   for i, a in enumerate(levels) for b in levels[i + 1:]]
    witnesses = []
    worst = -np.inf
    for y0, y1 in y_pairs:
        if not y0 < y1:
            continue
        sl0 = model.slice_at(y0)
        sl1 = model.slice_at(y1)
        tol = 1e-3 * max(float(np.max(sl1.sy) - np.min(sl1.sy)), 1e-12) \
            if margin_tol is None else margin_tol
        inside0 = sl0.sy <= curve.k_at(y0)
        margin = sl1.sy - curve.k_at(y1)
        viol = inside0 & (margin > tol)
        if np.any(viol):
            idx = np.nonzero(viol)[0]
            top = idx[np.argsort(margin[idx])[::-1][:3]]
            for i in top:
                witnesses.append((y0, y1, model.grid.points[i].copy(),
                                  float(margin[i])))
        worst = max(worst, float(np.max(margin[inside0]))
                    if np.any(inside0) else -np.inf)
    witnesses.sort(key=lambda t: -t[3])
    witnesses = witnesses[:20]
    status = "fail" if witnesses else "pass"
    return CriterionResult(name="sublevel_monotone", status=status,
                           witnesses=witnesses,
                           details={"n_pairs": len(y_pairs),
                                    "worst_margin": worst})


# ---------------------------------------------------------------------------
# criterion 2: dynamic (normal-speed) criterion
# ---------------------------------------------------------------------------

def _speed_resolution_floor(model: Model) -> float:
    """Smallest speed deficit the sampled criterion can resolve: set
    samples sit within one cell of the true hypersurface, so s_yy is only
    known to (cell size) x (its spatial Lipschitz constant)."""
    if model.grid.spacing is None:
        h = (model.grid.volume / model.grid.n_points) ** (1.0 / model.domain.dim)
    else:
        h = float(np.max(model.grid.spacing))
    pts = model.domain.sample_interior(64, seed=3)
    y_mid = model.target.mid
    s0 = np.asarray(model.surplus.s_yy(pts, y_mid), dtype=float)
    lip = 0.0
    for j in range(model.domain.dim):
        shifted = pts.copy()
        shifted[:, j] += h
        s1 = np.asarray(model.surplus.s_yy(shifted, y_mid), dtype=float)
        lip = max(lip, float(np.max(np.abs(s1 - s0))) / h)
    return lip * h


def dynamic_criterion(model: Model, curve: SplitCurve,
                      tol: Optional[float] = None) -> CriterionResult:
    """Check k' - s_yy >= 0 on each sampled indifference set, with a strict
    maximum somewhere; strict positivity everywhere with no tangential
    nodes additionally certifies the model nested.  At node i, k' - s_yy
    spans kprime - syy_max .. kprime - syy_min (the curve's own sample);
    tangential nodes and empty level sets are skipped and counted apart.

    The default tolerance combines the usual discretization-noise floor
    with the speed resolution of the grid (one cell of s_yy variation):
    deficits below it are not distinguishable from sampling error.
    """
    idx = np.arange(curve.y_grid.size)[:: max(1, curve.y_grid.size // 41)]
    if tol is None:
        tol = max(1e-4 * (1.0 + float(np.max(np.abs(curve.kprime)))),
                  _speed_resolution_floor(model))
    tangential = curve.tangential_flags[idx]
    empty = ~tangential & np.isnan(curve.syy_max[idx])
    idx = idx[~tangential & ~empty]
    lo = curve.kprime[idx] - curve.syy_max[idx]
    hi = curve.kprime[idx] - curve.syy_min[idx]
    per_node = list(zip(curve.y_grid[idx].tolist(), lo.tolist(), hi.tolist()))
    witnesses = [(float(curve.y_grid[i]), float(lo_i), curve.x_syy_max[i].copy())
                 for i, lo_i in zip(idx, lo) if lo_i < -tol]
    n_tangential, n_empty = int(np.sum(tangential)), int(np.sum(empty))
    if not per_node:
        status = "indeterminate"
    elif witnesses:
        status = "fail"
    elif np.all(hi > 0):
        status = "pass"
    else:
        status = "indeterminate"  # speed identically ~0 at some node
    certified = bool(status == "pass" and n_tangential + n_empty == 0
                     and np.all(lo > 0))
    return CriterionResult(
        name="dynamic", status=status, witnesses=witnesses,
        details={"per_node": per_node, "skipped": n_tangential + n_empty,
                 "skipped_tangential": n_tangential, "skipped_empty": n_empty,
                 "tol": tol, "min": float(np.min(lo)) if lo.size else np.nan,
                 "certified_strict": certified})


# ---------------------------------------------------------------------------
# criterion 3: unique splitting
# ---------------------------------------------------------------------------

def unique_splitting_check(model: Model,
                           x_probes: Optional[np.ndarray] = None,
                           n_probes: int = 100, seed: int = 0,
                           scan_nodes: int = 201,
                           deadband: float = 1e-3) -> CriterionResult:
    """Count roots of psi_x(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y) per
    probe; the first 20 probes with several roots witness non-nestedness."""
    model.require_nondegenerate()
    if x_probes is None:
        x_probes = model.domain.sample_interior(n_probes, seed=seed,
                                                margin=0.01)
    x_probes = np.atleast_2d(x_probes)
    y_scan = model.target.interior_grid(scan_nodes, clustered=False)
    psi = splitting_profile(model, x_probes, y_scan)
    band = effective_deadband(model, deadband)
    witnesses = []
    n_single = 0
    n_flat = 0
    n_multi = 0
    for i in range(x_probes.shape[0]):
        count, brackets = count_sign_changes(psi[i], band)
        if count <= 0:
            n_flat += 1
        elif count == 1:
            n_single += 1
        else:
            n_multi += 1
            if len(witnesses) < 20:
                roots = [0.5 * (y_scan[a] + y_scan[b]) for a, b in brackets]
                witnesses.append((x_probes[i].copy(), roots))
    status = "fail" if witnesses else "pass"
    return CriterionResult(
        name="unique_splitting", status=status, witnesses=witnesses,
        details={"n_probes": int(x_probes.shape[0]), "n_single": n_single,
                 "n_flat": n_flat, "n_multi": n_multi})


# ---------------------------------------------------------------------------
# boundary transversality and speed limit
# ---------------------------------------------------------------------------

def transversality_diagnostic(model: Model, curve: SplitCurve,
                              y_nodes: Optional[np.ndarray] = None) -> float:
    """min over boundary-adjacent band samples of 1 - (n_X . n_levelset)^2;
    values near 0 flag tangential intersections with the domain boundary."""
    if model.domain.boundary_normal is None:
        raise NoBoundaryOracle("domain carries no boundary-normal oracle")
    if y_nodes is None:
        y_nodes = curve.y_grid[:: max(1, curve.y_grid.size // 41)]
    best = np.inf
    for y in y_nodes:
        try:
            ls = level_set(model, y, curve.k_at(float(y)), "band")
        except EmptyBand:
            continue
        mask = ls.boundary
        if not np.any(mask):
            continue
        n_x = np.atleast_2d(model.domain.boundary_normal(ls.points[mask]))
        n_level = ls.grad[mask] / ls.gnorm[mask][:, None]
        dots = np.sum(n_x * n_level, axis=1)
        best = min(best, float(np.min(1.0 - dots ** 2)))
    return 1.0 if best is np.inf or not np.isfinite(best) else best


def speed_limit(model: Model, curve: SplitCurve,
                region_y: Optional[tuple] = None) -> float:
    """ell = min over sampled nodes (within region_y) and level-set samples
    of k' - s_yy, i.e. of kprime - syy_max over the nodes whose level set
    is not empty (+inf when none is); ell > 0 bounds the Lipschitz
    constant of the map by sup|grad_x s_y| / ell."""
    idx = np.arange(curve.y_grid.size)
    if region_y is not None:
        lo, hi = region_y
        idx = idx[(curve.y_grid >= lo) & (curve.y_grid <= hi)]
    idx = idx[:: max(1, idx.size // 64)]
    speeds = curve.kprime[idx] - curve.syy_max[idx]
    speeds = speeds[~np.isnan(speeds)]
    return float(np.min(speeds)) if speeds.size else float(np.inf)


def kprime_bound_gap(model: Model, curve: SplitCurve,
                     y_nodes: Optional[np.ndarray] = None):
    """Evaluate the a.e. bound
        |k'(y)| <= sup|s_yy| + g(y) sup|grad_x s_y / f| / A(y)
    at sampled non-tangential nodes (explicit y_nodes snap to the nearest
    node), with A the curve's own band area; returns (|k'| values, bound
    values), the bound NaN where that band sample is empty."""
    if y_nodes is None:
        idx = np.flatnonzero(~curve.tangential_flags)
        idx = idx[:: max(1, idx.size // 41)]
    else:
        idx = np.array([np.argmin(np.abs(curve.y_grid - y)) for y in y_nodes],
                       dtype=int)
    lhs = []
    rhs = []
    for i in idx:
        y = float(curve.y_grid[i])
        sl = model.slice_at(y)
        sup_syy = float(np.max(np.abs(sl.syy)))
        sup_ratio = float(np.max(sl.gnorm / model.f_vals))
        g_y = float(model.g_at(y)[0])
        lhs.append(abs(float(curve.kprime[i])))
        rhs.append(sup_syy + g_y * sup_ratio / curve.area[i])
    return np.asarray(lhs), np.asarray(rhs)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def nestedness_report(model: Model, curve: SplitCurve, seed: int = 0,
                      n_probes: int = 100, scan_nodes: int = 201,
                      margin_tol: Optional[float] = None,
                      dynamic_tol: Optional[float] = None,
                      deadband: float = 1e-3) -> NestednessReport:
    """Run all three criteria plus the transversality and speed-limit
    diagnostics; nested requires all three to pass, non-nested at least one
    definite failure witness, anything else is inconclusive."""
    mono = check_sublevel_monotonicity(model, curve, margin_tol=margin_tol)
    dyn = dynamic_criterion(model, curve, tol=dynamic_tol)
    uniq = unique_splitting_check(model, seed=seed, n_probes=n_probes,
                                  scan_nodes=scan_nodes, deadband=deadband)
    try:
        trans = transversality_diagnostic(model, curve)
    except NoBoundaryOracle:
        trans = None
    ell = speed_limit(model, curve)

    criteria = (mono, dyn, uniq)
    if any(c.status == "fail" for c in criteria):
        verdict = "non-nested"
    elif all(c.status == "pass" for c in criteria):
        verdict = "nested"
    else:
        verdict = "inconclusive"
    return NestednessReport(sublevel_monotone=mono, dynamic=dyn,
                            unique_splitting=uniq, transversality_min=trans,
                            speed_limit=ell, verdict=verdict)

"""Nestedness diagnostics.

A model is nested when its selected sublevel sets X_<=(y, k(y)) grow
strictly with y.  Three criteria probe this:

1. sublevel monotonicity - no quadrature point leaves the sublevel set
   between two consecutive curve nodes: phi = s_y - k never crosses
   upward along the map's node walk;
2. the dynamic criterion  - sign of the outward normal speed k' - s_yy
   on each indifference set (strict positivity certifies nestedness when
   no level set is tangential to the domain boundary);
3. unique splitting       - each probe point must admit exactly one
   target splitting the population proportionately, read off the solved
   curve as the sign of h_k(y) (s_y(x, y) - k(y)); it is therefore not
   independent of the solve (the tests check it against a scan that ranks
   the grid afresh at every target node).

The report also carries the boundary-transversality modulus
1 - (n_X . n_levelset)^2 (values near zero flag tangential intersections
where the derivative formulas break) and the speed limit
ell = inf (k' - s_yy), whose positivity yields a Lipschitz bound
|F|_Lip <= sup|grad_x s_y| / ell on the optimal map.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import NoBoundaryOracle
from .model import Model, grad_norm
from .solver import _CHUNK, SplitCurve, _node_walk

logger = logging.getLogger(__name__)

# the unique-splitting check's defaults: probe points and scan nodes
_N_PROBES, _SCAN_NODES = 100, 201


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
        """Every field as JSON-ready values; a criterion keyed by its name."""
        out = _jsonable(asdict(self))
        for crit in (out["sublevel_monotone"], out["dynamic"],
                     out["unique_splitting"]):
            del crit["name"]
        return out


def _jsonable(obj):
    """obj in strict JSON types; a NaN or infinite float becomes None."""
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# criterion 1: direct sublevel-set monotonicity
# ---------------------------------------------------------------------------

def check_sublevel_monotonicity(model: Model,
                                curve: SplitCurve) -> CriterionResult:
    """X_<=(y, k(y)) grows with y on the quadrature points when no point's
    phi = s_y(x, .) - k crosses upward from one curve node to the next
    (phi <= 0 at y_j and > 0 at y_j+1: x leaves the sublevel set).  The
    map's node walk finds each point's first upcrossing, with no rooting
    and no margin tolerance; the criterion fails on any, and the 20 with
    the largest margin phi(y_j+1) are kept.  It reads only k, so a
    ``from_function`` curve gets a verdict too."""
    x = model.grid.points
    ys, k = curve.y_grid, curve.k_plus
    first_up = np.concatenate([_node_walk(model, curve, x[s:s + _CHUNK])[-1]
                               for s in range(0, x.shape[0], _CHUNK)])
    rows = np.flatnonzero(first_up >= 0)
    j = first_up[rows]
    margin = model.surplus.s_y(x[rows], ys[j + 1]) - k[j + 1]
    witnesses = [(float(ys[j[i]]), float(ys[j[i] + 1]), x[rows[i]].copy(),
                  float(margin[i]))
                 for i in np.argsort(-margin, kind="stable")[:20]]
    mass = float(np.sum(model.point_mass[rows]) / model.total_mass)
    logger.debug("sublevel monotonicity: %d of %d points cross upward (%.3g "
                 "of the mass); the worst between the nodes %s", rows.size,
                 x.shape[0], mass, witnesses[0][:2] if witnesses else None)
    return CriterionResult(
        name="sublevel_monotone", status="fail" if witnesses else "pass",
        witnesses=witnesses,
        details={"n_upcrossing": int(rows.size), "upcrossing_mass": mass})


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
    s0 = model.surplus.s_yy(pts, y_mid)
    lip = 0.0
    for j in range(model.domain.dim):
        shifted = pts.copy()
        shifted[:, j] += h
        s1 = model.surplus.s_yy(shifted, y_mid)
        lip = max(lip, float(np.max(np.abs(s1 - s0))) / h)
    return lip * h


def dynamic_criterion(model: Model, curve: SplitCurve) -> CriterionResult:
    """Check k' - s_yy >= 0 on each sampled indifference set, with a strict
    maximum somewhere; strict positivity everywhere with no tangential
    nodes additionally certifies the model nested.  At node i, k' - s_yy
    spans kprime - syy_max .. kprime - syy_min (the curve's own sample);
    tangential nodes are skipped, and so are nodes without samples, counted
    apart.  A solved curve flags a node with an empty level set tangential,
    so only a curve built without samples (``SplitCurve.from_function``)
    counts any under ``skipped_empty``.

    The tolerance combines the usual discretization-noise floor
    with the speed resolution of the grid (one cell of s_yy variation):
    deficits below it are not distinguishable from sampling error.
    """
    tol = max(1e-4 * (1.0 + float(np.max(np.abs(curve.kprime)))),
              _speed_resolution_floor(model))
    tangential = curve.tangential_flags
    empty = ~tangential & np.isnan(curve.syy_max)
    idx = np.flatnonzero(~tangential & ~empty)
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

def count_sign_changes(values: np.ndarray, deadband: float) -> tuple:
    """Number of strict sign changes of a sampled function, ignoring the
    deadband |v| <= deadband.

    Returns (count, brackets): each bracket is an index pair (i, j) of
    opposite-signed samples with only deadband values in between.
    """
    signs = np.where(values > deadband, 1, np.where(values < -deadband, -1, 0))
    nz_idx = np.nonzero(signs != 0)[0]
    if nz_idx.size == 0:
        return 0, []
    nz = signs[nz_idx]
    flips = np.nonzero(nz[:-1] != nz[1:])[0]
    brackets = [(int(nz_idx[i]), int(nz_idx[i + 1])) for i in flips]
    return int(len(brackets)), brackets


def effective_deadband(model: Model) -> float:
    """Sign deadband of the unique-splitting scan of h_k (s_y - k), which
    stands in for a sublevel mass minus G: 1e-3 of the mass, or one grid
    point's mass (the binary mass quantization) when that is larger."""
    return max(1e-3, float(np.max(model.point_mass)))


def unique_splitting_check(model: Model, curve: SplitCurve,
                           x_probes: Optional[np.ndarray] = None,
                           n_probes: int = _N_PROBES, seed: int = 0,
                           scan_nodes: int = _SCAN_NODES) -> CriterionResult:
    """Count the roots of psi_x(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y)
    per probe; the first 20 probes with several roots witness
    non-nestedness.

    psi_x(y) = h(y, s_y(x, y)) has the sign of s_y(x, y) - k(y), as h(y, .)
    increases, and psi ~ h_k(y) (s_y(x, y) - k(y)) near a root; so the scan
    reads the solved curve and evaluates no mass: it counts the sign
    changes of that product, with h_k interpolated linearly from
    ``curve.h_k`` (NaN read as 0).  A curve without h_k (as from
    ``SplitCurve.from_function``) leaves the criterion indeterminate.
    Reading the curve, it is not independent of the solve."""
    model.require_nondegenerate()
    if x_probes is None:
        x_probes = model.domain.sample_interior(n_probes, seed=seed,
                                                margin=0.01)
    x_probes = np.atleast_2d(x_probes)
    y_scan = model.target.interior_grid(scan_nodes, clustered=False)
    h_k = np.interp(y_scan, curve.y_grid, np.nan_to_num(curve.h_k, nan=0.0))
    k = curve.k_at(y_scan)
    psi = np.empty((x_probes.shape[0], y_scan.size))
    for j, yj in enumerate(y_scan):
        sy = model.surplus.s_y(x_probes, float(yj))
        psi[:, j] = h_k[j] * (sy - k[j])
    band = effective_deadband(model)
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
    unread = np.isnan(curve.h_k) | curve.plateau_flags
    logger.debug("unique splitting: %d single, %d flat, %d multi; %d of %d "
                 "scan nodes interpolate a NaN (read as 0) or plateau h_k",
                 n_single, n_flat, n_multi,
                 int(np.sum(np.interp(y_scan, curve.y_grid, unread) > 0)),
                 y_scan.size)
    if witnesses:
        status = "fail"
    elif np.all(np.isnan(curve.h_k)):
        status = "indeterminate"  # no level-set data to read the sign from
    else:
        status = "pass"
    return CriterionResult(
        name="unique_splitting", status=status, witnesses=witnesses,
        details={"n_probes": int(x_probes.shape[0]), "n_single": n_single,
                 "n_flat": n_flat, "n_multi": n_multi})


# ---------------------------------------------------------------------------
# boundary transversality and speed limit
# ---------------------------------------------------------------------------

def transversality_diagnostic(model: Model, curve: SplitCurve) -> float:
    """Least stored transversality 1 - (n_X . n_levelset)^2 over all
    nodes, 1.0 when none has a boundary-adjacent sample; values near 0
    flag tangential intersections with the domain boundary."""
    if model.domain.boundary_normal is None:
        raise NoBoundaryOracle("domain carries no boundary-normal oracle")
    vals = curve.transversality[np.isfinite(curve.transversality)]
    return float(np.min(vals)) if vals.size else 1.0


def speed_limit(model: Model, curve: SplitCurve) -> float:
    """ell = min over the nodes and level-set samples of k' - s_yy, i.e.
    of kprime - syy_max over the non-tangential nodes whose level set is
    not empty (+inf when none is); ell > 0 bounds the Lipschitz constant
    of the map by sup|grad_x s_y| / ell.  Tangential nodes are skipped, as
    by ``dynamic_criterion``: their kprime is a difference quotient, not
    -h_y/h_k."""
    keep = ~curve.tangential_flags
    speeds = curve.kprime[keep] - curve.syy_max[keep]
    speeds = speeds[~np.isnan(speeds)]
    return float(np.min(speeds)) if speeds.size else float(np.inf)


def kprime_bound_gap(model: Model, curve: SplitCurve):
    """Evaluate the a.e. bound
        |k'(y)| <= sup|s_yy| + g(y) sup|grad_x s_y / f| / A(y)
    at the non-tangential nodes, with A the curve's own band area; returns
    (|k'| values, bound values), the bound NaN where that band sample is
    empty.  Both sups are taken over the quadrature points, from the
    bundle's s_yy and grad_x s_y there (no surplus slice is built)."""
    idx = np.flatnonzero(~curve.tangential_flags)
    pts = model.grid.points
    lhs = []
    rhs = []
    for i in idx:
        y = float(curve.y_grid[i])
        syy = model.surplus.s_yy(pts, y)
        gnorm = grad_norm(model.surplus.grad_x_s_y(pts, y))
        sup_syy = float(np.max(np.abs(syy)))
        sup_ratio = float(np.max(gnorm / model.f_vals))
        g_y = float(model.g_at(y)[0])
        lhs.append(abs(float(curve.kprime[i])))
        rhs.append(sup_syy + g_y * sup_ratio / curve.area[i])
    return np.asarray(lhs), np.asarray(rhs)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def nestedness_report(model: Model, curve: SplitCurve, seed: int = 0,
                      n_probes: int = _N_PROBES,
                      scan_nodes: int = _SCAN_NODES) -> NestednessReport:
    """Run all three criteria plus the transversality and speed-limit
    diagnostics; nested requires all three to pass, non-nested at least one
    definite failure witness, anything else is inconclusive."""
    mono = check_sublevel_monotonicity(model, curve)
    dyn = dynamic_criterion(model, curve)
    uniq = unique_splitting_check(model, curve, seed=seed,
                                  n_probes=n_probes, scan_nodes=scan_nodes)
    trans = None if model.domain.boundary_normal is None \
        else transversality_diagnostic(model, curve)
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

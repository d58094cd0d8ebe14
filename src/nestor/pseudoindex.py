"""Index-form detection and one-dimensional reduction.

A surplus has index form when s(x, y) = alpha(x) + sigma(I(x), y) for a
scalar index I; equivalently, the level sets of x -> s_y(x, y) do not
move with y.  Such problems are nested for every pair of densities and
collapse to a scalar monotone rearrangement: push mu through I, then
match quantiles with the target.  With the canonical index
I = s_y(., y_mid) the mixed derivative of sigma at y_mid is
|grad_x s_y|^2 > 0, so the matching is always increasing.

The detector is statistical: it manufactures pairs of points on a common
level set of s_y(., y0) (a tangent step followed by a few Newton
projections) and tests whether they stay matched at other target values.
Failing pairs are exactly sampled witnesses of the level-set motion that
breaks universal nestedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._pchip import Pchip
from .errors import InsufficientPairs, NonMonotoneSign
from .levelsets import sublevel_mass
from .model import Model, target_quantile


@dataclass
class Rearrangement1D:
    """Monotone scalar solution: CDF of the pushed index, the target CDF,
    and the quantile map F1 between them."""

    index_grid: np.ndarray
    index_cdf: Pchip
    model: Model
    index: Callable

    def cdf(self, t):
        t = np.clip(t, self.index_grid[0], self.index_grid[-1])
        return np.clip(self.index_cdf(t), 0.0, 1.0)

    def density(self, t):
        t = np.clip(t, self.index_grid[0], self.index_grid[-1])
        return np.maximum(self.index_cdf.slope(t), 0.0)

    def map_1d(self, t):
        """F1 = G^{-1} o CDF."""
        return target_quantile(self.model, self.cdf(t))

    def map_full(self, x):
        """F(x) = F1(I(x))."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.map_1d(np.asarray(self.index(x), dtype=float))


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def _project_to_level(model: Model, x: np.ndarray, y0: float,
                      target_vals: np.ndarray) -> np.ndarray:
    """Six Newton steps along grad s_y pulling each row of x onto its
    assigned level {s_y(., y0) = target}."""
    x = x.copy()
    for _ in range(6):
        vals = np.asarray(model.surplus.s_y(x, y0), dtype=float)
        grad = np.asarray(model.surplus.grad_x_s_y(x, y0), dtype=float)
        gn2 = np.sum(grad * grad, axis=1)
        gn2 = np.maximum(gn2, 1e-300)
        x = x - ((vals - target_vals) / gn2)[:, None] * grad
    return x


def detect_index_form(model: Model, pair_probes: int = 400,
                      seed: int = 0) -> dict:
    """Decide whether the level sets of x -> s_y(x, y) move with y.

    Pairs matched at the midpoint y0 of the target (|difference| at
    roundoff level after projection) are re-tested 0.15, 0.35, 0.65 and
    0.85 of the way along the target; a pair fails when its s_y values
    separate by more than 1e-6 of the sampled s_y spread.  The surplus has
    index form when under 1% of these tests fail; up to 10 failures are
    kept as witnesses.  Raises InsufficientPairs below 100 usable pairs.
    """
    model.require_nondegenerate()
    if model.domain.dim == 1:
        # level sets are single points; the surplus is trivially of index
        # form with I = s_y(., y_mid)
        return {"is_index": True, "confidence": 1.0, "witnesses": [],
                "n_pairs": 0, "n_tests": 0}
    rng = np.random.default_rng(seed)
    t = model.target
    y0 = t.mid
    base = model.domain.sample_interior(pair_probes, seed=seed, margin=0.02)
    vals0 = np.asarray(model.surplus.s_y(base, y0), dtype=float)
    grad0 = np.asarray(model.surplus.grad_x_s_y(base, y0), dtype=float)
    gn = np.linalg.norm(grad0, axis=1)
    # random tangent step, then project back onto the level set
    step = rng.standard_normal(base.shape)
    step -= (np.sum(step * grad0, axis=1) / np.maximum(gn, 1e-300) ** 2)[:, None] * grad0
    norms = np.linalg.norm(step, axis=1)
    ok = norms > 1e-12
    step[ok] /= norms[ok][:, None]
    partner = base + 0.05 * model.domain.scale * step
    partner = _project_to_level(model, partner, y0, vals0)
    inside = model.domain.contains(partner) & ok
    d0 = np.abs(np.asarray(model.surplus.s_y(partner, y0), dtype=float) - vals0)
    spread0 = max(float(np.max(vals0) - np.min(vals0)), 1e-12)
    matched = inside & (d0 <= 1e-9 * spread0)
    n_pairs = int(np.sum(matched))
    if n_pairs < 100:
        raise InsufficientPairs(
            f"only {n_pairs} matched pairs (need 100); increase pair_probes")
    xa = base[matched]
    xb = partner[matched]
    witnesses = []
    n_tests = 0
    n_fail = 0
    for q in (0.15, 0.35, 0.65, 0.85):
        y1 = t.y_lo + q * t.length
        va = np.asarray(model.surplus.s_y(xa, y1), dtype=float)
        vb = np.asarray(model.surplus.s_y(xb, y1), dtype=float)
        spread1 = max(float(np.max(va) - np.min(va)), 1e-12)
        d1 = np.abs(va - vb)
        bad = d1 > 1e-6 * spread1
        n_tests += d1.size
        n_fail += int(np.sum(bad))
        for i in np.nonzero(bad)[0][:3]:
            if len(witnesses) < 10:
                witnesses.append((xa[i].copy(), xb[i].copy(), float(y1),
                                  float(d1[i])))
    rate = n_fail / n_tests
    return {"is_index": rate < 0.01,
            "confidence": 1.0 - rate, "witnesses": witnesses,
            "n_pairs": n_pairs, "n_tests": n_tests}


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def canonical_index(model: Model) -> Callable:
    """The midpoint slope I(x) = s_y(x, y_mid): for an index-form surplus
    its level sets are the index level sets."""
    y_mid = model.target.mid

    def index(x):
        return np.asarray(model.surplus.s_y(np.atleast_2d(x), y_mid),
                          dtype=float)

    return index


def _check_orientation(model: Model) -> None:
    """Raise NonMonotoneSign unless grad_x s_y(., y_mid), the gradient of
    the canonical index, is nonzero at 64 interior probes and keeps a
    nonnegative dot product with grad_x s_y(., y) at 0.2, 0.5 and 0.8 of
    the target: the mixed derivative of the effective surplus must not
    change sign."""
    pts = model.domain.sample_interior(64, seed=0, margin=0.01)
    grad_i = np.asarray(model.surplus.grad_x_s_y(pts, model.target.mid),
                        dtype=float)
    if np.any(np.linalg.norm(grad_i, axis=1) < 1e-12):
        raise NonMonotoneSign("index gradient vanishes at a probe")
    for q in (0.2, 0.5, 0.8):
        y = model.target.y_lo + q * model.target.length
        g_sy = np.asarray(model.surplus.grad_x_s_y(pts, y), dtype=float)
        if np.any(np.sum(g_sy * grad_i, axis=1) < 0):
            raise NonMonotoneSign(
                "mixed derivative of the effective surplus changes sign")


def reduce_and_solve_1d(model: Model) -> Rearrangement1D:
    """Push mu through the canonical index, build its CDF on a 257-point
    grid, and compose with the target quantile function.  Since
    I = s_y(., y_mid), the CDF at t is the split solve's own sublevel mass
    at (y_mid, t) over the total, ramps included.  The result matches the
    full nested solve whenever the surplus really is of index form."""
    _check_orientation(model)
    index = canonical_index(model)
    i_vals = np.asarray(index(model.grid.points), dtype=float)
    lo, hi = float(np.min(i_vals)), float(np.max(i_vals))
    pad = 1e-9 * max(hi - lo, 1.0)
    grid = np.linspace(lo - pad, hi + pad, 257)
    cdf_vals = (sublevel_mass(model, model.target.mid, grid)
                / float(np.sum(model.point_mass)))
    # strictly increasing knots for the monotone interpolant
    keep = np.concatenate([[True], np.diff(cdf_vals) > 1e-15])
    keep[0] = keep[-1] = True
    interp = Pchip(grid[keep], cdf_vals[keep])
    return Rearrangement1D(index_grid=grid, index_cdf=interp, model=model,
                           index=index)


def verify_1d_ode(rearr: Rearrangement1D) -> float:
    """Max residual of the scalar mass-balance equation
    f1(t) = F1'(t) g(F1(t)) over the 101 index quantiles in [0.05, 0.95],
    with F1' by central differences."""
    model = rearr.model
    grid = rearr.index_grid
    probes = np.interp(np.linspace(0.05, 0.95, 101), rearr.cdf(grid), grid)
    h = 1e-4 * (rearr.index_grid[-1] - rearr.index_grid[0])
    f1 = rearr.density(probes)
    fp = (np.asarray(rearr.map_1d(probes + h), dtype=float)
          - np.asarray(rearr.map_1d(probes - h), dtype=float)) / (2 * h)
    g_here = model.g_at(np.asarray(rearr.map_1d(probes), dtype=float))
    return float(np.max(np.abs(f1 - fp * g_here)))

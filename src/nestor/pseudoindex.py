"""Index-form detection and one-dimensional reduction.

A surplus has index form when s(x, y) = alpha(x) + sigma(I(x), y) for a
scalar index I; equivalently, the level sets of x -> s_y(x, y) do not
move with y.  Such problems are nested for every pair of densities and
collapse to a scalar monotone rearrangement: push mu through I, then
match quantiles with the target.  With the canonical index
I = s_y(., y_mid) the mixed derivative of sigma at y_mid is
|grad_x s_y|^2 > 0, so the matching is always increasing.

The level sets of s_y(., y) stay put exactly when grad_x s_y(x, y) stays
parallel to grad_x s_y(x, y_mid).  The detector measures the sine of that
angle at seeded interior probes and four target values; a probe where it
is not at roundoff level is a sampled witness of the level-set motion
that breaks universal nestedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._pchip import Pchip
from .errors import NonMonotoneSign
from .levelsets import _mass_knots
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

def detect_index_form(model: Model, seed: int = 0) -> dict:
    """Decide whether the level sets of x -> s_y(x, y) move with y.

    At 400 seeded interior probes (margin 0.02) and 0.15, 0.35, 0.65 and
    0.85 of the way along the target, a test takes the sine of the angle
    between g = grad_x s_y(x, y) and g0 = grad_x s_y(x, y_mid): the length
    of g's component orthogonal to g0 over |g|.  A test fails unless the
    sine is at most 1e-6 (a NaN sine fails).  The surplus has index form
    when under 1% of the tests fail; up to three failures per level, and
    10 in all, are kept as (x, y, sine) witnesses.
    """
    model.require_nondegenerate()
    if model.domain.dim == 1:
        # level sets are single points; the surplus is trivially of index
        # form with I = s_y(., y_mid)
        return {"is_index": True, "confidence": 1.0, "witnesses": []}
    t = model.target
    pts = model.domain.sample_interior(400, seed=seed, margin=0.02)
    g0 = model.surplus.grad_x_s_y(pts, t.mid)
    witnesses = []
    n_fail = 0
    for y in t.y_lo + np.array([0.15, 0.35, 0.65, 0.85]) * t.length:
        g = model.surplus.grad_x_s_y(pts, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            along = np.sum(g * g0, axis=1) / np.sum(g0 * g0, axis=1)
            sine = (np.linalg.norm(g - along[:, None] * g0, axis=1)
                    / np.linalg.norm(g, axis=1))
        bad = np.flatnonzero(~(sine <= 1e-6))
        n_fail += bad.size
        witnesses += [(pts[i].copy(), float(y), float(sine[i]))
                      for i in bad[:3]]
    rate = n_fail / (4 * pts.shape[0])
    return {"is_index": rate < 0.01, "confidence": 1.0 - rate,
            "witnesses": witnesses[:10]}


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def canonical_index(model: Model) -> Callable:
    """The midpoint slope I(x) = s_y(x, y_mid): for an index-form surplus
    its level sets are the index level sets."""
    y_mid = model.target.mid

    def index(x):
        return model.surplus.s_y(np.atleast_2d(x), y_mid)

    return index


def _check_orientation(model: Model) -> None:
    """Raise NonMonotoneSign unless grad_x s_y(., y_mid), the gradient of
    the canonical index, is nonzero at 64 interior probes and keeps a
    nonnegative dot product with grad_x s_y(., y) at 0.2, 0.5 and 0.8 of
    the target: the mixed derivative of the effective surplus must not
    change sign."""
    pts = model.domain.sample_interior(64, seed=0, margin=0.01)
    grad_i = model.surplus.grad_x_s_y(pts, model.target.mid)
    if np.any(np.linalg.norm(grad_i, axis=1) < 1e-12):
        raise NonMonotoneSign("index gradient vanishes at a probe")
    for q in (0.2, 0.5, 0.8):
        y = model.target.y_lo + q * model.target.length
        g_sy = model.surplus.grad_x_s_y(pts, y)
        if np.any(np.sum(g_sy * grad_i, axis=1) < 0):
            raise NonMonotoneSign(
                "mixed derivative of the effective surplus changes sign")


def reduce_and_solve_1d(model: Model) -> Rearrangement1D:
    """Push mu through the canonical index, build its CDF on a 257-point
    grid, and compose with the target quantile function.  Since
    I = s_y(., y_mid), the CDF at t is the split solve's own sublevel mass
    at (y_mid, t) over the total, ramps included: the midpoint slice's
    mass knot table, the one the split solve inverts.  The result matches
    the full nested solve whenever the surplus really is of index form."""
    _check_orientation(model)
    sl = model.slice_at(model.target.mid)
    lo, hi = float(np.min(sl.sy)), float(np.max(sl.sy))
    pad = 1e-9 * max(hi - lo, 1.0)
    grid = np.linspace(lo - pad, hi + pad, 257)
    cdf_vals = np.interp(grid, *_mass_knots(model, sl)) / model.total_mass
    # strictly increasing knots for the monotone interpolant
    keep = np.concatenate([[True], np.diff(cdf_vals) > 1e-15])
    keep[0] = keep[-1] = True
    interp = Pchip(grid[keep], cdf_vals[keep])
    return Rearrangement1D(index_grid=grid, index_cdf=interp, model=model,
                           index=canonical_index(model))


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

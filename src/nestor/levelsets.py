"""Level-set machinery: sublevel masses, the split function h(y, k), its
partial derivatives, and surface integrals over indifference sets.

The indifference set of (y, k) is the hypersurface {x : s_y(x, y) = k};
its sublevel set drives the splitting equation h(y, k) = mu[{s_y <= k}] -
G(y).  Every surface integral over it is a sum over the samples of
``level_set(model, y, k, estimator)``: points x_j carrying surface measure
dA_j, so that sum_j phi(x_j) dA_j -> integral_{s_y = k} phi dH^{m-1}.  Two
estimators are provided:

* band: a co-area estimator.  The samples are the quadrature points with
  |s_y - k| < eps and dA_i = w_i |grad_x s_y(x_i)| K_eps(s_y(x_i) - k),
  with K_eps a unit-mass triangular kernel.  On tensor grids the kernel
  half-width is twice the per-cell variation of s_y, which keeps
  the band a few cells thick.  The triangular kernel (rather than a flat
  window) is what makes midpoint sums of grid-aligned bands exact and the
  estimator smooth in (y, k); a flat window would jitter by a whole grid
  column.  Boundary-adjacent samples are flagged.

* contour2d (m = 2 only): marching-squares extraction of the polyline
  {s_y = k} on the node grid, clipped to the domain; the samples are the
  segment midpoints and dA is the segment length.  One array pass cuts
  every sign-changing edge of the corner walk A->B->C->D->A of each mixed
  cell, joins a two-crossing cell's cuts, and splits a saddle by the sign
  of its cell-centre average.

``estimator="auto"`` picks contour2d on planar tensor grids and band
otherwise.  An empty level set raises EmptyBand.

Sublevel masses use a sub-cell linear ramp instead of a binary indicator
so that h is smooth in k at fixed resolution; the ramp width is the span
of s_y across one cell, which reproduces the exact cut-cell volume
fraction for grid-aligned level sets.  The ramp mass is piecewise linear
in k, and ``sublevel_levels`` inverts it exactly from its sorted
breakpoints (a weighted quantile on Monte Carlo grids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketFailure, Degenerate, EmptyBand
from .model import Model, SurplusSlice, target_cdf


@dataclass(frozen=True)
class SurfaceIntegralResult:
    value: float
    band_count: int
    epsilon: float
    estimator: str


@dataclass(frozen=True)
class GradH:
    """Partial derivatives of the split function; h_k >= 0 always."""
    h_y: float
    h_k: float


# ---------------------------------------------------------------------------
# masses
# ---------------------------------------------------------------------------

def _sublevel_fractions(sl: SurplusSlice, k):
    """Per-point fraction of the cell lying in {s_y <= k} (linear ramp);
    one column per level when k is an array."""
    k = np.asarray(k, dtype=float)
    sy = sl.sy if k.ndim == 0 else sl.sy[:, None]
    if sl.span is None:  # Monte Carlo: binary indicator
        return (sy <= k).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = (k - sy) / (sl.span if k.ndim == 0 else sl.span[:, None])
    return np.clip(t + 0.5, 0.0, 1.0)


def cumulative_mass(sy: np.ndarray, mass: np.ndarray):
    """sy in ascending order, and cum with cum[j] the mass of the j
    smallest values: the binary sublevel mass at k is
    cum[searchsorted(sorted, k, "right")]."""
    order = np.argsort(sy, kind="stable")
    return sy[order], np.concatenate([[0.0], np.cumsum(mass[order])])


def _mass_knots(model: Model, sl: SurplusSlice):
    """Knots (k_j, M_j) of the sublevel mass M(k): M is linear between
    consecutive knots, 0 before the first and the total after the last;
    two knots at one k make a jump (the binary indicator)."""
    if sl.span is None:
        sy, cum = cumulative_mass(sl.sy, model.point_mass)
        return np.repeat(sy, 2), np.repeat(cum, 2)[1:-1]
    # each ramp adds slope w_i f_i / span_i between s_y,i -/+ span_i / 2
    slope = model.point_mass / sl.span
    knots = np.concatenate([sl.sy - 0.5 * sl.span, sl.sy + 0.5 * sl.span])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    rate = np.cumsum(np.concatenate([slope, -slope])[order])
    mass = np.concatenate([[0.0], np.cumsum(rate[:-1] * np.diff(knots))])
    return knots, np.maximum.accumulate(mass)


def _invert_knots(knots, mass, target: float, side: str) -> float:
    """Smallest k with M(k) >= target (side "left") or largest k with
    M(k) <= target (side "right"); +-inf when no knot bounds it."""
    j = int(np.searchsorted(mass, target, side))
    if j in (0, mass.size):
        return -np.inf if j == 0 else np.inf
    a, b = knots[j - 1], knots[j]
    if a == b and side == "right":  # a jump: M(a) already exceeds target
        return float(np.nextafter(a, -np.inf))
    return float(a + (target - mass[j - 1]) / (mass[j] - mass[j - 1]) * (b - a))


def sublevel_levels(model: Model, y: float, lo_mass: float, hi_mass: float):
    """The smallest k with sublevel_mass(model, y, k) >= lo_mass and the
    largest k with mass <= hi_mass (-inf or +inf when every k qualifies),
    from one sort of the ramp breakpoints and one interpolation each.
    Raises BracketFailure when hi_mass < 0 or lo_mass exceeds the total."""
    total = float(np.sum(model.point_mass))
    if hi_mass < 0 or lo_mass > total:
        raise BracketFailure(f"sublevel mass never enters [{lo_mass:.6g}, "
                             f"{hi_mass:.6g}] (total mass {total:.6g})")
    knots, mass = _mass_knots(model, model.slice_at(float(y)))
    return (_invert_knots(knots, mass, lo_mass, "left"),
            _invert_knots(knots, mass, hi_mass, "right"))


def sublevel_mass(model: Model, y: float, k):
    """mu[{x in X : s_y(x, y) <= k}]; k may be a scalar or an array."""
    sl = model.slice_at(float(y))
    k_arr = np.asarray(k, dtype=float)
    if k_arr.ndim == 0:
        return float(model.point_mass @ _sublevel_fractions(sl, k_arr))
    out = np.empty(k_arr.shape[0])
    chunk = max(1, int(2e7) // max(1, sl.sy.size))
    for i in range(0, k_arr.shape[0], chunk):
        frac = _sublevel_fractions(sl, k_arr[i:i + chunk])
        out[i:i + chunk] = model.point_mass @ frac
    return out


def split_function(model: Model, y: float, k):
    """h(y, k) = mu[sublevel] - G(y); non-decreasing in k."""
    return sublevel_mass(model, y, k) - target_cdf(model, y)


# ---------------------------------------------------------------------------
# the level-set sampler
# ---------------------------------------------------------------------------

def band_epsilon(model: Model, sl: SurplusSlice) -> float:
    """Band half-width: two cells thick in s_y units."""
    if sl.span is not None:
        return 2.0 * float(np.max(sl.span))
    # Monte Carlo: typical inter-sample distance times the gradient scale
    h = (model.grid.volume / model.grid.n_points) ** (1.0 / model.domain.dim)
    return 2.0 * h * float(np.max(sl.gnorm))


@dataclass(frozen=True)
class LevelSet:
    """Samples of the indifference set {s_y(., y) = k}.

    Sample j sits at ``points[j]`` and carries surface measure
    ``measure[j]``; ``f``, ``grad``, ``gnorm`` and ``syy`` are the source
    density, grad_x s_y, its norm and s_yy there.  ``boundary`` flags band
    samples in boundary-adjacent cells and ``segments`` holds the contour
    polyline; each is None for the other estimator.  The properties are
    the sums surface integrals reduce to: area, h_k (of f / |grad_x s_y|),
    flux (of f s_yy / |grad_x s_y|, so h_y = -g(y) - flux) and, for the
    band, the share of the area on boundary-adjacent samples.
    """
    estimator: str                  # "band" | "contour2d"
    epsilon: float                  # band half-width; 0 for contour2d
    points: np.ndarray              # (S, m)
    measure: np.ndarray             # (S,)
    f: np.ndarray                   # (S,)
    grad: np.ndarray                # (S, m)
    gnorm: np.ndarray               # (S,)
    syy: np.ndarray                 # (S,)
    boundary: Optional[np.ndarray]  # (S,) bool, band only
    segments: Optional[np.ndarray]  # (S, 2, 2), contour2d only

    @property
    def area(self) -> float:
        return float(np.sum(self.measure))

    @property
    def h_k(self) -> float:
        return float(np.sum(self.measure * self.f / self.gnorm))

    @property
    def flux(self) -> float:
        return float(np.sum(self.measure * self.f * self.syy / self.gnorm))

    @property
    def boundary_fraction(self) -> float:
        area = self.area
        return float(np.sum(self.measure[self.boundary])) / area if area > 0 else 1.0


def level_set(model: Model, y: float, k: float,
              estimator: str = "auto") -> LevelSet:
    """Sample the indifference set {s_y(., y) = k}.

    ``auto`` uses the extracted contour on planar tensor grids, which stays
    accurate when the level set passes a domain corner (the band there
    sweeps up a blob of small-|s_y - k| points that are nowhere near the
    hypersurface), and the band elsewhere; the band half-width is
    ``band_epsilon``.  Raises EmptyBand when no sample falls on the level
    set.
    """
    y = float(y)
    k = float(k)
    if estimator == "auto":
        estimator = "contour2d" if (model.domain.dim == 2
                                    and model.grid.spacing is not None) else "band"
    if estimator == "contour2d":
        segments = _contour_segments(model, y, k)
        if segments.shape[0] == 0:
            raise EmptyBand(f"level {k:g} has no contour inside the domain",
                            estimator=estimator)
        points = segments.mean(axis=1)
        grad = np.asarray(model.surplus.grad_x_s_y(points, y), dtype=float)
        return LevelSet(
            estimator=estimator, epsilon=0.0, points=points,
            measure=np.linalg.norm(segments[:, 1, :] - segments[:, 0, :], axis=1),
            f=model.f_at(points), grad=grad, gnorm=np.linalg.norm(grad, axis=1),
            syy=np.asarray(model.surplus.s_yy(points, y), dtype=float),
            boundary=None, segments=segments)
    if estimator != "band":
        raise ValueError(f"unknown estimator {estimator!r}")
    sl = model.slice_at(y)
    eps = band_epsilon(model, sl)
    t = np.abs(sl.sy - k)
    idx = np.flatnonzero(t < eps)
    if idx.size == 0:
        raise EmptyBand(f"no quadrature point within {eps:g} of level {k:g}",
                        estimator=estimator)
    gnorm = sl.gnorm[idx]
    kernel = (1.0 - t[idx] / eps) / eps
    return LevelSet(
        estimator=estimator, epsilon=eps, points=model.grid.points[idx],
        measure=model.grid.weights[idx] * gnorm * kernel,
        f=model.f_vals[idx], grad=sl.grad[idx], gnorm=gnorm, syy=sl.syy[idx],
        boundary=model.grid.boundary_adjacent[idx], segments=None)


# ---------------------------------------------------------------------------
# reductions over the sampler
# ---------------------------------------------------------------------------

def surface_integral(model: Model, y: float, k: float,
                     integrand: Optional[Callable] = None,
                     estimator: str = "band") -> SurfaceIntegralResult:
    """Integral of ``integrand`` over the indifference set {s_y(., y) = k}.

    ``integrand`` maps (N, m) points to (N,) values; None means 1, so the
    default result is the surface area A.  Raises EmptyBand when the level
    set misses the domain.
    """
    ls = level_set(model, y, k, estimator)
    value = ls.area if integrand is None else \
        float(np.sum(ls.measure * np.asarray(integrand(ls.points), dtype=float)))
    return SurfaceIntegralResult(value=value,
                                 band_count=ls.points.shape[0],
                                 epsilon=ls.epsilon, estimator=ls.estimator)


def grad_h(model: Model, y: float, k: float,
           estimator: str = "auto") -> GradH:
    """Derivatives of h at (y, k):

        h_k =  integral_{s_y=k} f / |grad_x s_y| dH^{m-1}
        h_y = -g(y) - integral_{s_y=k} f s_yy / |grad_x s_y| dH^{m-1}
    """
    ls = level_set(model, y, k, estimator)
    return GradH(h_y=-float(model.g_at(y)[0]) - ls.flux, h_k=ls.h_k)


def normal_velocity(model: Model, y: float, k: float, kprime: float,
                    x: np.ndarray):
    """Outward normal speed (k' - s_yy) / |grad_x s_y| of the sublevel set
    at points x near the indifference set."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    grad = np.asarray(model.surplus.grad_x_s_y(x, float(y)), dtype=float)
    gnorm = np.linalg.norm(grad, axis=1)
    if np.any(gnorm < model.nondegeneracy_threshold):
        raise Degenerate("|grad_x s_y| below threshold at a velocity probe")
    syy = np.asarray(model.surplus.s_yy(x, float(y)), dtype=float)
    out = (kprime - syy) / gnorm
    return out if out.size > 1 else float(out[0])


def default_tangential_threshold(model: Model) -> float:
    """Boundary-band share above which a query counts as tangential.

    A transversal crossing already owns a one-cell collar worth roughly
    (boundary ring length x cell) / area; in the plane that is a few
    percent at desk resolutions, but for m >= 3 the ring scales up, so the
    planar 5% figure would flag every query."""
    return 0.05 if model.domain.dim <= 2 else 0.25


def is_tangential(model: Model, y: float, k: float) -> bool:
    """Plateau detection: the query is flagged when more than
    ``default_tangential_threshold(model)`` of the band area sits in
    boundary-touching cells, i.e. the indifference set hugs the domain
    boundary and the derivative formulas for k are unreliable there."""
    return (level_set(model, y, k, "band").boundary_fraction
            > default_tangential_threshold(model))


def level_set_sizes(model: Model, y: float, k: float) -> dict:
    """Area A = H^{m-1}[X(y,k)] and boundary measure B = H^{m-2} of its
    trace on the domain boundary.

    A is the band estimate.  B comes from counting endpoints of the
    clipped contour when m = 2 and from a boundary-collar band estimate
    (requires the boundary-normal oracle) when m >= 3; it is None when
    unavailable.
    """
    ls = level_set(model, y, k, "band")
    b_val = None
    m = model.domain.dim
    if m == 1:
        b_val = 0.0
    elif m == 2:
        segments = _contour_segments(model, y, k)
        if segments.shape[0]:
            b_val = float(_chain_ends(model, segments))
    elif model.domain.boundary_normal is not None and model.grid.spacing is not None:
        collar = float(np.max(model.grid.spacing))
        b_val = float(np.sum(ls.measure[ls.boundary])) / collar
    return {"A": ls.area, "B": b_val, "tangential":
            ls.boundary_fraction > default_tangential_threshold(model)}


# ---------------------------------------------------------------------------
# marching squares (m = 2)
# ---------------------------------------------------------------------------

def _node_values(model: Model, y: float):
    lo, hi = model.domain.bbox
    dx = model.grid.spacing
    n = np.round((hi - lo) / dx).astype(int)
    xs = lo[0] + np.arange(n[0] + 1) * dx[0]
    ys = lo[1] + np.arange(n[1] + 1) * dx[1]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = np.asarray(model.surplus.s_y(pts, float(y)), dtype=float)
    return xs, ys, vals.reshape(n[0] + 1, n[1] + 1)


def _contour_segments(model: Model, y: float, k: float):
    """Clipped polyline of {s_y(., y) = k} as an (S, 2, 2) array of
    endpoint pairs, from one marching-squares pass over the mixed cells.

    Cell (i, j) has corners A=(i,j), B=(i+1,j), C=(i+1,j+1), D=(i,j+1).
    Each edge of the walk A->B->C->D->A whose end values differ in sign is
    crossed at the linear interpolate taken from its first corner (so CD
    from C and DA from D).  A cell crossed twice joins its two crossings in
    walk order; a saddle (crossed four times) joins AB-BC and CD-DA when
    the cell-centre average has A's sign, AB-DA and BC-CD otherwise.
    Segments come in row-major cell order, a saddle's two in that order.
    Clipping against the implicit domain runs as one vectorized bisection
    over all segments with a single inside endpoint.
    """
    if model.domain.dim != 2 or model.grid.spacing is None:
        raise ValueError("contour2d estimator needs a 2-d tensor grid")
    xs, ys, vals = _node_values(model, y)
    T = vals - float(k)
    tiny = 1e-14 * max(1.0, float(np.max(np.abs(vals))))
    T[T == 0.0] = tiny

    sign = T > 0
    corner = sign[:-1, :-1]
    i, j = np.nonzero((corner != sign[1:, :-1]) | (corner != sign[1:, 1:])
                      | (corner != sign[:-1, 1:]))
    ci, cj = i[:, None] + [0, 1, 1, 0], j[:, None] + [0, 0, 1, 1]  # A B C D
    v = T[ci, cj]                                            # (N, 4)
    p = np.stack([xs[ci], ys[cj]], axis=-1)                  # (N, 4, 2)
    walk = [1, 2, 3, 0]
    crossed = v * v[:, walk] < 0                 # edges AB, BC, CD, DA
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = v / (v - v[:, walk])
        edge_pts = p + t[:, :, None] * (p[:, walk] - p)

    n_cross = np.sum(crossed, axis=1)
    two, saddle = n_cross == 2, n_cross == 4
    a_side = 0.25 * (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) * v[:, 0] > 0
    # edge pairs of each cell's first and second segment
    pairs = np.where(a_side[:, None, None], [[0, 1], [2, 3]], [[0, 3], [1, 2]])
    pairs[two, 0] = np.nonzero(crossed[two])[1].reshape(-1, 2)
    cell, slot = np.nonzero(np.stack([two | saddle, saddle], axis=1))
    if cell.size == 0:
        return np.empty((0, 2, 2))
    raw = edge_pts[cell[:, None], pairs[cell, slot]]         # (S, 2, 2)

    in_p = model.domain.contains(raw[:, 0, :])
    in_q = model.domain.contains(raw[:, 1, :])
    full = raw[in_p & in_q]
    mixed_mask = in_p ^ in_q
    clipped = np.empty((0, 2, 2))
    if np.any(mixed_mask):
        seg = raw[mixed_mask]
        inside_pt = np.where(in_p[mixed_mask][:, None], seg[:, 0, :], seg[:, 1, :])
        outside_pt = np.where(in_p[mixed_mask][:, None], seg[:, 1, :], seg[:, 0, :])
        a = np.zeros(seg.shape[0])
        b = np.ones(seg.shape[0])
        for _ in range(40):
            mid = 0.5 * (a + b)
            x = inside_pt + mid[:, None] * (outside_pt - inside_pt)
            ok = model.domain.contains(x)
            a = np.where(ok, mid, a)
            b = np.where(ok, b, mid)
        cut = inside_pt + a[:, None] * (outside_pt - inside_pt)
        clipped = np.stack([inside_pt, cut], axis=1)
    return np.concatenate([full, clipped], axis=0)


def _chain_ends(model: Model, segments: np.ndarray) -> int:
    """Number of contour chain ends: points used by exactly one segment
    (grid-edge exits and clip cuts), counted after quantizing to 1e-9 of
    the domain scale to kill float jitter."""
    scale = max(model.domain.scale, 1.0)
    keys = np.rint(segments.reshape(-1, 2) / scale * 1e9).astype(np.int64)
    _, counts = np.unique(keys, axis=0, return_counts=True)
    return int(np.sum(counts == 1))

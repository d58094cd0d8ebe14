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
  column.  Boundary-adjacent samples are flagged.  Where s_y is free of
  y, one ranking of s_y gives every band the scan's rows (``_band_rows``).

* contour2d (m = 2 only): marching-squares extraction (Lorensen & Cline,
  SIGGRAPH 1987) of the polyline {s_y = k} on the node grid, clipped to
  the domain; the samples are the segment midpoints and dA is the segment
  length.  Each node's lattice values locate its mixed cells; one array
  pass over the mixed cells of every requested node then cuts each
  sign-changing edge of the corner walk A->B->C->D->A, joins a
  two-crossing cell's cuts, splits a saddle by the sign of its
  cell-centre average and clips the segments that leave the domain.  The
  split-curve solve makes one such pass for all its nodes, ``level_set``
  one for its single node.

``estimator="auto"`` picks contour2d on planar tensor grids and band
otherwise.  An empty level set raises EmptyBand.

Sublevel masses use a sub-cell linear ramp instead of a binary indicator
so that h is smooth in k at fixed resolution; the ramp width is the span
of s_y across one cell, which reproduces the exact cut-cell volume
fraction for grid-aligned level sets.  One knot table (``_ramp_knots``)
of ramps and atoms (Monte Carlo points, whose two knots carry the two
sides of a jump) serves the split inversion, the 1-d CDF of the index
reduction and the pushforward distance.  ``_invert_sublevel`` inverts it
exactly on only the ramps that overlap a k window: a sorted strided
subsample of s_y places the window around both levels, and the full
table is built only when a level falls outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BracketFailure, EmptyBand
from .model import Model, SurplusSlice, grad_norm


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


def _ramp_knots(centre, half, weight):
    """Sorted knots of the law spreading weight_i evenly over
    centre_i -/+ half_i, with its CDF at each: linear between knots, while
    an atom (half_i = 0) adds its weight at its upper knot, so its two knots
    carry the two sides of its jump.  The CDF is a raw running sum."""
    half = np.broadcast_to(half, np.shape(centre))
    knots = np.concatenate([centre - half, centre + half])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    atom = half == 0
    slope = weight / np.where(atom, np.inf, 2.0 * half)
    rate = np.cumsum(np.concatenate([slope, -slope])[order])
    gain = np.diff(knots, prepend=knots[:1])
    gain[1:] *= rate[:-1]
    if atom.any():  # a 2N gather that a table of ramps alone skips
        gain += np.concatenate([np.zeros(atom.size),
                                np.where(atom, weight, 0.0)])[order]
    return knots, np.cumsum(gain)


def _mass_knots(model: Model, sl: SurplusSlice, k_lo: float = -np.inf,
                k_hi: float = np.inf):
    """Knots (k_j, M_j) of the sublevel mass M(k), exact for k in the window
    [k_lo, k_hi]: M is linear between consecutive knots and constant
    outside them; two knots at one k make a jump.  Point i ramps over
    s_y,i -/+ span_i / 2 (an atom at s_y,i on Monte Carlo grids) in the
    ``_ramp_knots`` table.  With h the largest half-span, the ramps with
    s_y,i <= k_lo - h lie wholly below the window and add their mass to
    every knot as one base (a pairwise sum), the ramps with
    s_y,i >= k_hi + h lie wholly above it and are dropped, and only the
    rest are sorted; the default window keeps every ramp, so M runs from 0
    to the total.  M_j is the table's running maximum: no rounding dip."""
    h = 0.5 * sl.max_span
    below = sl.sy <= k_lo - h
    keep = np.flatnonzero(~below & (sl.sy < k_hi + h))
    base = float(np.sum(model.point_mass[below]))
    # max_span is 0 only on Monte Carlo grids, whose points are atoms
    half = 0.5 * sl.span[keep] if sl.max_span else 0.0
    knots, mass = _ramp_knots(sl.sy[keep], half, model.point_mass[keep])
    return knots, np.maximum.accumulate(base + mass)


def _invert_knots(knots, mass, target, side: str):
    """Smallest k with M(k) >= target (side "left") or largest k with
    M(k) <= target (side "right") on a nondecreasing knot table, for a
    scalar or an array of targets; +-inf when no knot bounds it (+inf when
    there is none).  k lies between the searchsorted knot j (the first to
    reach the target, or to pass it on the right) and the one before; a
    jump there puts a right k just below it."""
    t = np.atleast_1d(np.asarray(target, dtype=float))
    j = np.searchsorted(mass, t, side)
    out = np.where(j == mass.size, np.inf, -np.inf)
    inner = (j > 0) & (j < mass.size)
    j = j[inner]
    a, b, m_a = knots[j - 1], knots[j], mass[j - 1]
    level = a + (t[inner] - m_a) / (mass[j] - m_a) * (b - a)
    if side == "right":
        level = np.where(a == b, np.nextafter(a, -np.inf), level)
    out[inner] = level
    return float(out[0]) if np.ndim(target) == 0 else out


# The k window comes from every 16th point: its sort costs a sixteenth of
# the full one, and at the default 2-, 3- and 4-d grids the window then
# holds 6-9 % of the ramps.
_WINDOW_STRIDE = 16
# Slack on the subsample's running mass, as a share of the total: 8
# subsample masses, or 4 standard deviations of the share p estimated from
# n_eff (Kish's effective size of the weighted subsample), whichever is
# larger.  The subsample's error reached 17 masses (2.1 deviations) on the
# tensor grids of the arc surplus, and 3.04 deviations on one node of the
# m = 4 Monte Carlo grid, whose points come in random order.
_WINDOW_SLACK_MASSES = 8
_WINDOW_SIGMAS = 4


def _sublevel_window(model: Model, sl: SurplusSlice, lo_mass: float,
                     hi_mass: float, total: float):
    """A k window (k_lo, k_hi) that should hold the two sublevel levels:
    the stable-sorted strided subsample of s_y with its masses (scaled to
    the total), read where its running mass reaches lo_mass - slack and
    hi_mass + slack, then widened by one largest cell span.  A side whose
    slackened target leaves (0, total) is unbounded."""
    sub = sl.sy[::_WINDOW_STRIDE]
    order = np.argsort(sub, kind="stable")
    w = model.point_mass[::_WINDOW_STRIDE][order]
    cum = np.cumsum(w)
    n_eff = cum[-1] ** 2 / float(w @ w)
    p = np.clip(np.array([lo_mass, hi_mass]) / total, 0.0, 1.0)
    slack = total * np.maximum(_WINDOW_SLACK_MASSES / sub.size,
                               _WINDOW_SIGMAS * np.sqrt(p * (1 - p) / n_eff))
    lo_t, hi_t = lo_mass - slack[0], hi_mass + slack[1]
    j = np.searchsorted(cum, np.array([lo_t, hi_t]) * (cum[-1] / total))
    k_sub = sub[order[np.minimum(j, sub.size - 1)]]
    return (float(k_sub[0]) - sl.max_span if lo_t > 0 else -np.inf,
            float(k_sub[1]) + sl.max_span if hi_t < total else np.inf)


def _invert_sublevel(model: Model, y: float, lo_mass: float,
                     hi_mass: float):
    """The smallest k with sublevel_mass(model, y, k) >= lo_mass and the
    largest k with mass <= hi_mass (-inf or +inf when every k qualifies),
    with the window (k_lo, k_hi) whose knots gave them and the share of
    ramps sorted there.  The levels are kept only when both lie strictly
    inside the window, where its knot masses are exact; otherwise (an
    infinite level included) the full knots are inverted.  Raises
    BracketFailure when hi_mass < 0 or lo_mass exceeds the total."""
    total = model.total_mass
    if hi_mass < 0 or lo_mass > total:
        raise BracketFailure(f"sublevel mass never enters [{lo_mass:.6g}, "
                             f"{hi_mass:.6g}] (total mass {total:.6g})")
    sl = model.slice_at(float(y))
    full = (-np.inf, np.inf)
    for window in (_sublevel_window(model, sl, lo_mass, hi_mass, total), full):
        knots, mass = _mass_knots(model, sl, *window)
        levels = (_invert_knots(knots, mass, lo_mass, "left"),
                  _invert_knots(knots, mass, hi_mass, "right"))
        if window == full or all(window[0] < k < window[1] for k in levels):
            return levels, window, knots.size / (2 * sl.sy.size)


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


# ---------------------------------------------------------------------------
# the level-set sampler
# ---------------------------------------------------------------------------

def band_epsilon(model: Model, sl: SurplusSlice) -> float:
    """Band half-width: two cells thick in s_y units."""
    if sl.span is not None:
        return 2.0 * sl.max_span
    # Monte Carlo: typical inter-sample distance times the gradient scale
    h = (model.grid.volume / model.grid.n_points) ** (1.0 / model.domain.dim)
    return 2.0 * h * float(np.max(grad_norm(sl.grad)))


@dataclass(frozen=True)
class LevelSet:
    """Samples of the indifference set {s_y(., y) = k}.

    Sample j sits at ``points[j]`` and carries surface measure
    ``measure[j]`` (what ``--dump-level`` writes); ``f``, ``grad``,
    ``gnorm`` and ``syy`` are the source density, grad_x s_y, its norm and
    s_yy there, taken at the samples only: the band reads f and grad_x s_y
    at its rows of the grid and the slice, and evaluates the norm and s_yy
    there.  ``rows`` holds the band samples' quadrature rows (increasing)
    and ``boundary`` flags those in boundary-adjacent cells; both are None
    for contour2d.  The properties are the sums surface integrals reduce
    to: area, h_k (of f / |grad_x s_y|), flux (of f s_yy / |grad_x s_y|, so
    h_y = -g(y) - flux) and, for the band, the share of the area on
    boundary-adjacent samples.
    """
    estimator: str                  # "band" | "contour2d"
    epsilon: float                  # band half-width; 0 for contour2d
    points: np.ndarray              # (S, m)
    measure: np.ndarray             # (S,)
    f: np.ndarray                   # (S,)
    grad: np.ndarray                # (S, m)
    gnorm: np.ndarray               # (S,)
    syy: np.ndarray                 # (S,)
    rows: Optional[np.ndarray]      # (S,) int, band only
    boundary: Optional[np.ndarray]  # (S,) bool, band only

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
        estimator = "contour2d" if _planar_tensor(model) else "band"
    if estimator == "contour2d":
        return _contour_level_set(model, y, k,
                                  _contour_segments(model, [y], [k])[0][0])
    if estimator != "band":
        raise ValueError(f"unknown estimator {estimator!r}")
    sl = model.slice_at(y)
    eps = band_epsilon(model, sl)
    return _band_level_set(model, sl, y, k, eps, _band_rows(sl, k, eps)[0])


def _band_rows(sl: SurplusSlice, k: float, eps: float, order=None):
    """The rows with |s_y - k| < eps, increasing, and how many rows were
    tested: every row, or with ``order`` (an argsort of ``sl.sy``) only the
    ranked window of [k - eps, k + eps], padded by a few ulps so that it
    holds every row that passes, and sorted back to row order."""
    if order is None:
        return np.flatnonzero(np.abs(sl.sy - k) < eps), sl.sy.size
    pad = 4 * np.spacing(abs(k) + eps)
    lo, hi = np.searchsorted(sl.sy, [k - eps - pad, k + eps + pad],
                             sorter=order)
    rows = np.sort(order[lo:hi])
    return rows[np.abs(sl.sy[rows] - k) < eps], rows.size


def _band_measure(model: Model, sl: SurplusSlice, k: float, eps: float,
                  rows: np.ndarray, gnorm: np.ndarray) -> np.ndarray:
    """dA_i = w_i |grad_x s_y| K_eps(s_y - k) on the band rows (``gnorm``)."""
    kernel = (1.0 - np.abs(sl.sy[rows] - k) / eps) / eps
    return model.grid.weights[rows] * gnorm * kernel


def _band_level_set(model: Model, sl: SurplusSlice, y: float, k: float,
                    eps: float, rows: np.ndarray) -> LevelSet:
    """The band sample of {s_y(., y) = k} on the slice rows ``rows``
    (those with |s_y - k| < eps, increasing).  Raises EmptyBand when there
    is none."""
    if rows.size == 0:
        raise EmptyBand(f"no quadrature point within {eps:g} of level {k:g}")
    points, grad = (np.take(a, rows, axis=0) for a in (model.grid.points, sl.grad))
    gnorm = grad_norm(grad)
    return LevelSet(
        estimator="band", epsilon=eps, points=points,
        measure=_band_measure(model, sl, k, eps, rows, gnorm),
        f=model.f_vals[rows], grad=grad, gnorm=gnorm,
        syy=model.surplus.s_yy(points, y),
        rows=rows, boundary=model.grid.boundary_adjacent[rows])


def _contour_level_set(model: Model, y: float, k: float,
                       segments: np.ndarray) -> LevelSet:
    """The contour2d sample of {s_y(., y) = k} made of its clipped
    segments: their midpoints, each carrying its length.  Raises EmptyBand
    when there is no segment."""
    if segments.shape[0] == 0:
        raise EmptyBand(f"level {k:g} has no contour inside the domain")
    points = segments.mean(axis=1)
    grad = model.surplus.grad_x_s_y(points, y)
    return LevelSet(
        estimator="contour2d", epsilon=0.0, points=points,
        measure=np.linalg.norm(segments[:, 1, :] - segments[:, 0, :], axis=1),
        f=model.f_at(points), grad=grad, gnorm=grad_norm(grad),
        syy=model.surplus.s_yy(points, y),
        rows=None, boundary=None)


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


# ---------------------------------------------------------------------------
# marching squares (m = 2)
# ---------------------------------------------------------------------------

def _planar_tensor(model: Model) -> bool:
    """Whether the contour2d estimator applies: a 2-d tensor grid."""
    return model.domain.dim == 2 and model.grid.spacing is not None


def _contour_segments(model: Model, ys, ks):
    """Clipped polylines of {s_y(., y_i) = k_i}, one (S_i, 2, 2) array of
    endpoint pairs per node, and the number of clipped segments of each
    (the last ones of its array).

    Each node evaluates s_y on the node lattice, nudges its exact zeros
    to its own tiny level, finds its mixed cells and gathers their corner
    values; every later step runs once over all nodes' cells.  Cell (i, j)
    has corners A=(i,j), B=(i+1,j), C=(i+1,j+1), D=(i,j+1).  Each edge of
    the walk A->B->C->D->A whose end values differ in sign is crossed at
    the linear interpolate taken from its first corner (so CD from C and
    DA from D).  A cell crossed twice joins its two crossings in walk
    order; a saddle (crossed four times) joins AB-BC and CD-DA when the
    cell-centre average has A's sign, AB-DA and BC-CD otherwise.  A
    segment with one endpoint inside the implicit domain is clipped by
    one vectorized bisection over every node's such segments.  A node's
    array holds its unclipped segments in row-major cell order (a
    saddle's two in that order), then its clipped ones.
    """
    if not _planar_tensor(model):
        raise ValueError("contour2d estimator needs a 2-d tensor grid")
    lo, hi = model.domain.bbox
    dx = model.grid.spacing
    n = np.round((hi - lo) / dx).astype(int)
    x1 = lo[0] + np.arange(n[0] + 1) * dx[0]
    x2 = lo[1] + np.arange(n[1] + 1) * dx[1]
    g1, g2 = np.meshgrid(x1, x2, indexing="ij")
    lattice = np.stack([g1.ravel(), g2.ravel()], axis=1)

    values, ci, cj, counts = [], [], [], []
    for y, k in zip(ys, ks):
        vals = model.surplus.s_y(lattice, float(y))
        T = vals.reshape(n[0] + 1, n[1] + 1) - float(k)
        T[T == 0.0] = 1e-14 * max(1.0, float(np.max(np.abs(vals))))
        sign = T > 0
        corner = sign[:-1, :-1]
        i, j = np.nonzero((corner != sign[1:, :-1]) | (corner != sign[1:, 1:])
                          | (corner != sign[:-1, 1:]))
        ci.append(i[:, None] + [0, 1, 1, 0])                 # A B C D
        cj.append(j[:, None] + [0, 0, 1, 1])
        values.append(T[ci[-1], cj[-1]])
        counts.append(i.size)
    n_nodes = len(counts)
    ci, cj = np.concatenate(ci), np.concatenate(cj)
    v = np.concatenate(values)                               # (N, 4)
    p = np.stack([x1[ci], x2[cj]], axis=-1)                  # (N, 4, 2)
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
    raw = edge_pts[cell[:, None], pairs[cell, slot]]         # (S, 2, 2)
    owner = np.repeat(np.arange(n_nodes), counts)[cell]

    in_p = model.domain.contains(raw[:, 0, :])
    in_q = model.domain.contains(raw[:, 1, :])
    full = in_p & in_q
    mixed = in_p ^ in_q
    seg = raw[mixed]
    inside_pt = np.where(in_p[mixed][:, None], seg[:, 0, :], seg[:, 1, :])
    outside_pt = np.where(in_p[mixed][:, None], seg[:, 1, :], seg[:, 0, :])
    a = np.zeros(seg.shape[0])
    b = np.ones(seg.shape[0])
    # a segment spans at most a cell diagonal, so 24 halvings put the
    # cut within 2^-24 (6e-8) of a cell diagonal of the boundary
    for _ in range(24 if seg.size else 0):
        mid = 0.5 * (a + b)
        x = inside_pt + mid[:, None] * (outside_pt - inside_pt)
        ok = model.domain.contains(x)
        a = np.where(ok, mid, a)
        b = np.where(ok, b, mid)
    cut = inside_pt + a[:, None] * (outside_pt - inside_pt)
    kept = np.concatenate([raw[full], np.stack([inside_pt, cut], axis=1)])
    kept_owner = np.concatenate([owner[full], owner[mixed]])
    order = np.argsort(kept_owner, kind="stable")
    split = np.searchsorted(kept_owner[order], np.arange(1, n_nodes))
    return (np.split(kept[order], split),
            np.bincount(owner[mixed], minlength=n_nodes))

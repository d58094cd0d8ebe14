"""Nested solve: the split curve k(y), payoffs, and the optimal map.

For each y the level k(y) splits the population proportionately,
mu[{s_y(., y) <= k}] = G(y); the sublevel mass is piecewise linear in k,
so its exact inverse gives the maximal root interval [k^-, k^+].  The
target-side payoff is v(y) = integral of k, the source-side payoff is its
generalized conjugate u(x) = sup_y s(x, y) - v(y), and the map F sends x
to the y whose indifference set passes through x, by rooting
phi(y) = s_y(x, y) - k(y) (as v' = k, phi is the y-slope of s(x, .) - v,
so u reads its sup off this node walk and root).  When the surplus declares
s_y free of y (``SurplusBundle.sy_free_of_y``, so s_yy = 0), one knot set
gives every node's levels and one ranking of s_y every node's band, which
is reduced on its rows; on a nondecreasing k a branchless search of s_y(x)
in k gives the walk's bracket, and the root reads each row's s_y off it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._pchip import Pchip
from .errors import ZeroSpeed
from .levelsets import (_band_level_set, _band_measure, _band_rows,
                        _contour_level_set, _contour_segments, _invert_knots,
                        _invert_sublevel, _mass_knots, _planar_tensor,
                        _ramp_knots, band_epsilon, default_tangential_threshold)
from .model import Model, grad_norm, target_cdf

logger = logging.getLogger(__name__)
_ROOT_ITERS = 60  # Newton step cap; plain bisection needs about 30 steps
_CHUNK = 8192  # rows per block of the node scans, which stream over the
               # nodes and keep a few running values per row


@dataclass
class SplitCurve:
    """Solved level curve k(y) on a target grid.

    ``y_grid`` holds at least 2 strictly increasing finite nodes (else a
    ValueError).  k_minus/k_plus bracket the zero set of h(y, .) at each
    node (they differ by more than the gap tolerance only when the data
    carries a mass plateau, which is flagged); kprime holds -h_y/h_k at
    clean nodes and ``np.gradient``'s difference quotients at tangential
    ones (central inside, one-sided at the two end nodes).  h_k, h_y,
    syy_min, syy_max and x_syy_max (where s_yy peaks) reduce the ``auto``
    sample of each node's level set X(y, k_plus), tangential or not, and
    are NaN where it is empty; the balance residual and the speed criteria
    are arithmetic on them.  ``area`` is the surface area of the default
    band sample of X(y, k_plus) (the one the tangential flag reads), NaN
    where that sample is empty; ``transversality`` is the least
    1 - (n_X . n_level)^2 over its boundary-adjacent samples, NaN where it
    has none or the domain no boundary-normal oracle.  ``from_function``
    curves carry only k and k': their level-set fields are NaN and
    x_syy_max has no columns.
    """

    y_grid: np.ndarray
    k_minus: np.ndarray
    k_plus: np.ndarray
    kprime: np.ndarray
    tangential_flags: np.ndarray
    plateau_flags: np.ndarray
    y_lo: float
    y_hi: float
    h_k: np.ndarray
    h_y: np.ndarray
    syy_min: np.ndarray
    syy_max: np.ndarray
    x_syy_max: np.ndarray
    area: np.ndarray
    transversality: np.ndarray
    interpolation: Pchip = field(init=False, repr=False)

    def __post_init__(self):
        self.y_grid = y = np.asarray(self.y_grid, dtype=float)
        if y.ndim != 1 or y.size < 2 or not (np.all(np.isfinite(y))
                                             and np.all(np.diff(y) > 0)):
            raise ValueError("split-curve nodes must be at least 2 strictly "
                             f"increasing finite values, got {y}")
        self.k_plus = np.asarray(self.k_plus, dtype=float)
        self.k_minus = np.asarray(self.k_minus, dtype=float)
        self.y_lo = float(self.y_lo)
        self.y_hi = float(self.y_hi)
        self.interpolation = Pchip(self.y_grid, self.k_plus)

    @classmethod
    def from_function(cls, target, y_grid: np.ndarray, k_fn: Callable,
                      kprime_fn: Optional[Callable] = None) -> "SplitCurve":
        """Wrap an explicit level curve (e.g. an analytic v') as a curve."""
        y_grid = np.asarray(y_grid, dtype=float)
        k = np.asarray(k_fn(y_grid), dtype=float)
        flags = np.zeros(y_grid.size, dtype=bool)
        nan = np.full(y_grid.size, np.nan)
        curve = cls(y_grid=y_grid, k_minus=k.copy(), k_plus=k, kprime=nan,
                    tangential_flags=flags, plateau_flags=flags.copy(),
                    y_lo=target.y_lo, y_hi=target.y_hi, h_k=nan, h_y=nan,
                    syy_min=nan, syy_max=nan, x_syy_max=np.empty((nan.size, 0)),
                    area=nan, transversality=nan)
        # set once the nodes are checked: np.gradient divides by their steps
        curve.kprime = np.gradient(k, y_grid) if kprime_fn is None \
            else np.asarray(kprime_fn(y_grid), dtype=float)
        return curve

    # -- evaluation (constant extension beyond the node range) -------------

    def k_at(self, y):
        yc = np.clip(y, self.y_grid[0], self.y_grid[-1])
        out = self.interpolation(yc)
        return out if np.ndim(y) else float(out)

    def kprime_at(self, y):
        """k'(y): the derivative of the k interpolant, consistent with
        finite differences of the by-level map (unlike the node values
        ``kprime``, which are -h_y/h_k at clean nodes)."""
        yc = np.clip(y, self.y_grid[0], self.y_grid[-1])
        out = self.interpolation.slope(yc)
        return out if np.ndim(y) else float(out)

    def v_at(self, y):
        """Target payoff v(y) = integral_{y_lo}^{y} k, with k extended as a
        constant beyond the end nodes; v(y_lo) = 0."""
        out = self._v(np.asarray(y, dtype=float))
        return out if np.ndim(y) else float(out)

    def _v(self, y: np.ndarray, hint=None):
        """``v_at`` on an array, with a hint of each y's PCHIP interval."""
        y0, yn = self.y_grid[0], self.y_grid[-1]
        return (float(self.k_plus[0]) * (np.minimum(y, y0) - self.y_lo)
                + self.interpolation.integral(np.clip(y, y0, yn), hint)
                + float(self.k_plus[-1]) * np.maximum(y - yn, 0.0))

    def nearest_nodes(self, y):
        """Index of the node nearest each y (the first one on ties)."""
        y = np.asarray(y, dtype=float)
        i = np.clip(np.searchsorted(self.y_grid, y), 1, self.y_grid.size - 1)
        return np.where(y - self.y_grid[i - 1] <= self.y_grid[i] - y, i - 1, i)

    @property
    def v_values(self) -> np.ndarray:
        return self.v_at(self.y_grid)

    @property
    def k_nondecreasing(self) -> bool:
        """Whether the solved levels increase with y (equivalently, whether
        the target payoff v is convex); recorded, not required."""
        return bool(np.all(np.diff(self.k_plus) >= -1e-12))


def interpolation_error(curve: SplitCurve) -> float:
    """Largest |k(y_i) - P_i(y_i)| over the interior nodes i, with P_i the
    PCHIP (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980) through the
    other nodes: how far the interpolant strays between nodes."""
    y, k = curve.y_grid, curve.k_plus
    return max(abs(float(k[i] - Pchip(np.delete(y, i), np.delete(k, i))(y[i])))
               for i in range(1, y.size - 1))


# ---------------------------------------------------------------------------
# split-curve solve
# ---------------------------------------------------------------------------

def solve_split_curve(model: Model, n_nodes: int = 65) -> SplitCurve:
    """Solve h(y, k(y)) = 0 at every node by inverting the sublevel mass.

    The nodes are the ``n_nodes`` Chebyshev roots of the target interval
    (fewer than 3 is a ValueError); k_minus and k_plus are the edges of the
    mass band {k : |h(y, k)| <= 1e-6}, clamped to the padded range of s_y.
    A first pass builds each node's slice once, inverts its mass and reduces
    the band sample of X(y, k_plus) at once to the area, the tangential flag
    and the boundary transversality (and, off planar tensor grids, to h_k,
    h_y and the s_yy figures), so no sample outlives its node.  One
    boundary-normal pass over the boundary-adjacent rows serves every band,
    which reads it by row.  When s_y is free of y, one slice, one knot set
    and one argsort of s_y serve every node, |grad_x s_y| and
    1 - (n_X . n_level)^2 are taken once per row, and each band's rows
    (``levelsets._band_rows``) are reduced in place: s_yy = 0, so no point
    or gradient is gathered and s_yy is not called.  On planar tensor grids
    one contour pass over all nodes then gives the contour samples that h_k,
    h_y and the s_yy figures reduce.  Nodes flagged tangential (more than
    ``default_tangential_threshold(model)`` of the band area in
    boundary-adjacent cells, or an empty level set) get difference-quotient
    derivatives instead of -h_y/h_k, whose hypotheses fail there.  DEBUG
    logs the plateau, tangential and empty-level-set nodes, the nodes
    inverted on a k window (``_invert_sublevel``), on the full knots or on
    the one knot set, the contour pass's counts, the ranked windows' median
    size and kept share, and the rows the normals were taken and read at.
    """
    if n_nodes < 3:
        raise ValueError(f"the split solve needs at least 3 nodes, got {n_nodes}")
    y_grid, n = model.target.interior_grid(n_nodes), n_nodes
    model.require_nondegenerate()
    tangential_threshold = default_tangential_threshold(model)
    planar = _planar_tensor(model)
    k_minus = np.empty(n)
    k_plus = np.empty(n)
    kprime = np.full(n, np.nan)
    tangential = np.zeros(n, dtype=bool)
    plateau = np.zeros(n, dtype=bool)
    windowed = np.zeros(n, dtype=bool)
    sorted_share = np.empty(n)
    h_k, h_y, syy_min, syy_max, area, transversality = np.full((6, n), np.nan)
    g_targets = target_cdf(model, y_grid)
    one_slice = model.surplus.sy_free_of_y
    order = gnorms = None  # the one slice's s_y ranking and |grad_x s_y|
    ranked = np.zeros((2, n), dtype=np.intp)  # rows tested, rows kept
    if one_slice:  # one knot set; one search per side for every node
        knots, mass = _mass_knots(model, model.slice_at(float(y_grid[0])))
        k_minus[:] = _invert_knots(knots, mass, g_targets - 1e-6, "left")
        k_plus[:] = _invert_knots(knots, mass, g_targets + 1e-6, "right")
        del knots, mass  # 2N knots, not kept through the band samples
        logger.debug("split curve: s_y is free of y, so all %d nodes are "
                     "inverted on one knot set", n)
    normal = model.domain.boundary_normal
    if normal is not None:  # one oracle pass; the bands read it by row
        adjacent, read = np.flatnonzero(model.grid.boundary_adjacent), 0
        normals = np.atleast_2d(normal(np.take(model.grid.points, adjacent, axis=0)))
        at = np.full(model.grid.n_points, -1, dtype=np.intp)  # row -> position
        at[adjacent] = np.arange(adjacent.size)
    x_syy_max = np.full((n, model.domain.dim), np.nan)

    def modulus(grad, gnorm, pos):  # 1 - (n_X . n_level)^2 at adjacent[pos]
        return 1.0 - np.sum(normals[pos] * (grad / gnorm[:, None]), axis=1) ** 2

    def keep_sample(i, ls):
        h_k[i] = ls.h_k
        h_y[i] = -float(model.g_at(float(y_grid[i]))[0]) - ls.flux
        j = int(np.argmax(ls.syy))
        syy_min[i], syy_max[i] = np.min(ls.syy), ls.syy[j]
        x_syy_max[i] = ls.points[j]

    for i, y in enumerate(y_grid):
        y = float(y)
        if i == 0 or not one_slice:  # one slice serves every node
            sl = model.slice_at(y)
            eps = band_epsilon(model, sl)
            sy_lo, sy_hi = np.min(sl.sy), np.max(sl.sy)
            k_range = max(float(sy_hi - sy_lo), 1e-12)
            pad = 1e-3 * k_range + 10 * sl.max_span if sl.span is not None \
                else 1e-2 * k_range
            if one_slice:  # ranking, norms and boundary terms for every node
                order, gnorms = np.argsort(sl.sy), grad_norm(sl.grad)
                if normal is not None:
                    term = modulus(np.take(sl.grad, adjacent, axis=0),
                                   gnorms[adjacent], slice(None))
        if not one_slice:
            g = float(g_targets[i])
            (k_minus[i], k_plus[i]), window, sorted_share[i] = \
                _invert_sublevel(model, y, g - 1e-6, g + 1e-6)
            windowed[i] = window != (-np.inf, np.inf)
        k_minus[i], k_plus[i] = np.clip((k_minus[i], k_plus[i]),
                                        sy_lo - pad, sy_hi + pad)
        plateau[i] = k_plus[i] - k_minus[i] > 1e-4 * k_range

        rows, ranked[0, i] = _band_rows(sl, k_plus[i], eps, order)
        ranked[1, i] = rows.size
        if not rows.size:  # an empty band
            tangential[i] = True
            continue
        if one_slice:  # the band's sums straight off its rows
            gnorm = gnorms[rows]
            measure = _band_measure(model, sl, k_plus[i], eps, rows, gnorm)
            b = model.grid.boundary_adjacent[rows]
        else:
            band = _band_level_set(model, sl, y, k_plus[i], eps, rows)
            measure, b = band.measure, band.boundary
        area[i] = np.sum(measure)
        tangential[i] = (np.sum(measure[b]) / area[i] if area[i] > 0
                         else 1.0) > tangential_threshold
        if normal is not None and np.any(b):
            pos = at[rows[b]]
            transversality[i] = np.min(term[pos] if one_slice else modulus(
                band.grad[b], band.gnorm[b], pos))
            read += pos.size
        if one_slice and not planar:  # s_yy = 0: no flux; argmax picks row 0
            h_k[i] = np.sum(measure * model.f_vals[rows] / gnorm)
            h_y[i] = -float(model.g_at(y)[0])
            syy_min[i] = syy_max[i] = 0.0
            x_syy_max[i] = model.grid.points[rows[0]]
        elif not planar:
            keep_sample(i, band)
    if one_slice:
        logger.debug("split curve: s_y ranked once for every band: a median "
                     "window of %d rows, %.6g of them kept by |s_y - k| < eps",
                     np.median(ranked[0]), np.sum(ranked[1]) / max(1, np.sum(ranked[0])))
    if normal is not None:
        logger.debug("split curve: boundary normals taken once, on %d boundary-"
                     "adjacent rows, and read at %d band samples", adjacent.size, read)
    band = normals = adjacent = at = term = order = gnorms = None  # not kept

    if planar:
        segments, clipped = _contour_segments(model, y_grid, k_plus)
        for i, seg in enumerate(segments):
            if seg.shape[0]:
                keep_sample(i, _contour_level_set(model, float(y_grid[i]),
                                                  k_plus[i], seg))
        sizes = np.array([seg.shape[0] for seg in segments])
        logger.debug("split curve: %d contour segments over %d nodes, %d of "
                     "them clipped; %d nodes with an empty contour at y = %s",
                     np.sum(sizes), n, np.sum(clipped), np.sum(sizes == 0),
                     np.round(y_grid[sizes == 0], 6).tolist())
    # not h_k > 0 also catches an empty auto set (NaN)
    tangential |= ~(h_k > 0)
    kprime[~tangential] = -h_y[~tangential] / h_k[~tangential]

    empty = np.isnan(h_k) | np.isnan(area)
    for what, mask in (("plateau", plateau), ("tangential", tangential),
                       ("with an empty level set", empty)):
        logger.debug("split curve: %d of %d nodes %s at y = %s", np.sum(mask),
                     n, what, np.round(y_grid[mask], 6).tolist())
    if not one_slice:
        logger.debug("split curve: %d nodes inverted on a k window (median "
                     "%.3g of the ramps sorted), %d on the full knots",
                     np.sum(windowed), np.median(sorted_share[windowed])
                     if windowed.any() else np.nan, n - np.sum(windowed))

    # difference quotients at tangential nodes (one-sided at the ends)
    fd = np.gradient(k_plus, y_grid)
    bad = tangential | ~np.isfinite(kprime)
    kprime[bad] = fd[bad]

    return SplitCurve(y_grid=y_grid, k_minus=k_minus, k_plus=k_plus,
                      kprime=kprime, tangential_flags=tangential,
                      plateau_flags=plateau,
                      y_lo=model.target.y_lo, y_hi=model.target.y_hi,
                      h_k=h_k, h_y=h_y, syy_min=syy_min, syy_max=syy_max,
                      x_syy_max=x_syy_max, area=area,
                      transversality=transversality)


# ---------------------------------------------------------------------------
# map evaluation
# ---------------------------------------------------------------------------

def optimal_map(model: Model, curve: SplitCurve, x: np.ndarray):
    """Map source points to targets by rooting phi(y) = s_y(x, y) - k(y)
    on the curve grid, bracketed by one streamed pass over the nodes per
    block of points (no points x nodes matrix is kept).  Points beyond the
    extreme level sets clamp to the interval ends.  Roots are resolved to
    1e-8 of the target length.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = _map_by_level(model, curve, x, 1e-8 * (curve.y_hi - curve.y_lo))[0]
    return float(out[0]) if single else out


def _level_root(model: Model, curve: SplitCurve, x: np.ndarray, a: np.ndarray,
                b: np.ndarray, fa: np.ndarray, fb: np.ndarray, y_tol: float,
                j: Optional[np.ndarray] = None, sy: Optional[np.ndarray] = None):
    """Root of phi(y) = s_y(x, y) - k(y) per row of x in [a, b], where
    phi(a) = fa and phi(b) = fb differ in sign: safeguarded Newton (rtsafe;
    Press et al., Numerical Recipes, 3rd ed., sec. 9.4) from the secant
    point, with phi' = s_yy - k' (k' of the interpolant, and 0 past the
    end nodes, where k_at holds k constant), bisecting where the Newton
    point would leave the bracket.  A row stops, and leaves the working
    arrays, once its step or its bracket is within y_tol.  ``j`` is given
    where [a, b] is the curve interval [y_j, y_j+1]: no iterate falls below
    y_j and none passes y_j+1 by more than the secant point's rounding, so
    the PCHIP interval is j, or j + 1 from y_j+1 on, with no search.
    ``sy``, given where s_y is free of y, holds each row's s_y: phi is then
    sy - k and phi' = -k' (s_yy = 0), with no surplus call."""
    pos_a, rows, ys = fa > 0, np.arange(a.size), curve.y_grid
    y = a - fa * (b - a) / (fb - fa)
    out = y.copy()
    data = x if sy is None else sy  # what phi reads per working row
    upper = np.append(ys[1:-1], np.inf)  # y_j+1; none after the last interval
    for _ in range(_ROOT_ITERS):
        if not rows.size:
            break
        yc = np.clip(y, ys[0], ys[-1])
        if j is None:
            k, kp = curve.interpolation.value_and_slope(yc)
        else:
            i = j + (yc >= upper[j])
            k, kp = curve.interpolation.value_and_slope_on(i, yc - ys[i])
        f = (model.surplus.s_y(data, y) if sy is None else data) - k
        df = (model.surplus.s_yy(data, y) if sy is None else 0.0) \
            - np.where(yc == y, kp, 0.0)
        keep_a = (f > 0) != pos_a
        a, b = np.where(keep_a, a, y), np.where(keep_a, y, b)
        # a zero slope makes the step infinite (a bisection) off a root
        step = np.divide(f, df, out=np.where(f == 0, 0.0, np.inf), where=df != 0)
        new = np.clip(y - step, a, b)
        # a step within y_tol is final even where it lands on (or an ulp
        # past) a bracket end: bisecting it would walk away from the root
        done = np.abs(step) <= y_tol
        bisect = ~done & ~((new > a) & (new < b))
        new[bisect] = 0.5 * (a + b)[bisect]
        out[rows] = new
        live = ~(done | (np.abs(new - y) <= y_tol) | (b - a <= y_tol))
        y = new
        if not live.all():  # settled rows leave the working arrays
            rows, y, a, b, pos_a, data = (v[live] for v in (rows, y, a, b,
                                                            pos_a, data))
            j = None if j is None else j[live]
    if rows.size:
        logger.debug("by-level root: %d of %d rows hit the %d-step cap", rows.size,
                     out.size, _ROOT_ITERS)
    return out


def _search_table(model: Model, curve: SplitCurve):
    """k padded with +inf to a power of two (one pad at least) for
    ``_node_walk``'s search, where s_y is free of y and k nondecreasing;
    else None, and the walk visits every node."""
    k = curve.k_plus
    if not (model.surplus.sy_free_of_y and np.all(np.diff(k) >= 0)):
        return None
    return np.append(k, np.full((1 << k.size.bit_length()) - k.size, np.inf))


def _lower_bound(table: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """np.searchsorted(table[:n], t, "left") bit for bit, by a branchless
    binary search (Khuong & Morin, ACM JEA 22, 2017) that sets the bits of
    the count of k below t from the highest down; a NaN key ends at n."""
    pos = np.zeros(t.shape, dtype=np.intp)
    h = table.size // 2
    while h:
        pos += h * ~(np.take(table, pos + (h - 1)) >= t)
        h //= 2
    return np.minimum(pos, n)


def _node_walk(model: Model, curve: SplitCurve, xb: np.ndarray, table):
    """Bracket phi = s_y - k on the curve grid for the rows of xb.

    The nodes are walked from last to first, keeping per row the bracket
    [y_j, y_j+1] of the first downcrossing of phi (+ to -), else of its
    first sign change, and the node j of the first upcrossing (phi <= 0
    at y_j, > 0 at y_j+1; -1 for none): the smallest j is written last.
    Returns (j, s_y at y_j and y_j+1, has a downcrossing, phi > 0 at every
    node, first upcrossing node); s_y is kept raw, k comes off once.  With
    s_y free of y and k nondecreasing (``table``, the curve's
    ``_search_table``, is not None), one search of s_y in k gives the
    same, and no row crosses upward."""
    ys, k = curve.y_grid, curve.k_plus
    n = xb.shape[0]
    first_up = np.full(n, -1, dtype=np.intp)
    right = model.surplus.s_y(xb, float(ys[-1]))
    if table is not None:
        # phi > 0 exactly at the nodes below J = searchsorted(k, s_y): one
        # downcrossing, [y_J-1, y_J]
        j = _lower_bound(table, right, ys.size)
        return (np.maximum(j - 1, 0), right, right, (j > 0) & (j < ys.size),
                j == ys.size, first_up)
    idx, fa, fb = np.zeros(n, dtype=np.intp), np.empty(n), np.empty(n)
    has_down = np.zeros(n, dtype=bool)
    pos_right = right > k[-1]
    all_pos = pos_right.copy()
    for j in range(ys.size - 2, -1, -1):
        left = model.surplus.s_y(xb, float(ys[j]))
        pos_left = left > k[j]
        down = pos_left > pos_right
        up = pos_right > pos_left
        take = down | (up > has_down)
        np.copyto(idx, j, where=take)
        np.copyto(fa, left, where=take)
        np.copyto(fb, right, where=take)
        np.copyto(first_up, j, where=up)
        has_down |= down
        all_pos &= pos_left
        right, pos_right = left, pos_left
    return idx, fa, fb, has_down, all_pos, first_up


def _map_by_level(model: Model, curve: SplitCurve, x: np.ndarray,
                  y_tol: float):
    """Root phi = s_y - k per row in the bracket ``_node_walk`` gives, one
    block of rows at a time: the correct matching root always crosses
    downward.  Rows with no sign change clamp to y_hi when phi > 0 at every
    node, else y_lo.  Returns F, the settled rows (they cross down but never
    up: as v' = k, s - v peaks at F there) and each row's bracket node."""
    out = np.empty(x.shape[0])
    settled = np.empty(x.shape[0], dtype=bool)
    node = np.empty(x.shape[0], dtype=np.intp)
    ys, k = curve.y_grid, curve.k_plus
    free = model.surplus.sy_free_of_y  # fa is then each row's s_y
    table = _search_table(model, curve)
    for start in range(0, x.shape[0], _CHUNK):
        xb = x[start:start + _CHUNK]
        idx, fa, fb, has_down, all_pos, first_up = _node_walk(model, curve, xb, table)
        out[start:start + _CHUNK] = np.where(all_pos, curve.y_hi, curve.y_lo)
        settled[start:start + _CHUNK] = has_down & (first_up < 0)
        node[start:start + _CHUNK] = idx
        rows = np.nonzero(has_down | (first_up >= 0))[0]
        j = idx[rows]
        out[start + rows] = _level_root(  # np.take gathers rows 4x faster than xb[rows]
            model, curve, np.take(xb, rows, axis=0), ys[j], ys[j + 1],
            fa[rows] - k[j], fb[rows] - k[j + 1], y_tol, j, fa[rows] if free else None)
    return out, settled, node


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def source_payoff(model: Model, curve: SplitCurve, x: np.ndarray):
    """u(x) = sup_y s(x, y) - v(y); returns (u, argmax_y) arrays.

    As v' = k, s - v peaks at F on the rows the map's node walk settles
    (phi = s_y - k changes sign once, downward): there u = s(x, F) - v(F)
    and y* = F.  On the rest the curve-grid node maximizing s - v (the
    first on ties), found by one streamed pass over the nodes per block of
    points, guards the sup; where phi changes sign between its neighbours
    (interval ends past the end nodes) the map's Newton solve roots it,
    and u is the best of that root, the node and the two neighbours."""
    single = np.asarray(x).ndim == 1
    _, u_val, y_star = map_and_payoff(
        model, curve, np.atleast_2d(np.asarray(x, dtype=float)))
    return (float(u_val[0]), float(y_star[0])) if single else (u_val, y_star)


def map_and_payoff(model: Model, curve: SplitCurve, x: np.ndarray):
    """(F, u, y*) arrays for the rows of a 2-d x from one by-level node
    walk: F as ``optimal_map`` gives it, (u, y*) as ``source_payoff`` does,
    for the cost of one of the two."""
    ends = np.concatenate([[curve.y_lo], curve.y_grid, [curve.y_hi]])
    y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    f_val, settled, bracket = _map_by_level(model, curve, x, y_tol)
    y_star = f_val.copy()  # the scan below overwrites y* on unsettled rows
    u_val = model.surplus.s(x, y_star) - curve._v(y_star, bracket)
    rest = np.nonzero(~settled)[0]
    ys, v = curve.y_grid, curve.v_values
    for start in range(0, rest.size, _CHUNK):
        block = rest[start:start + _CHUNK]
        xb = x[block]
        cols = np.arange(xb.shape[0])
        # running best s - v over the nodes; the strict > keeps the first
        # (selects and arithmetic, not masked copies, whose random masks
        # stall the branch predictor)
        best_val = model.surplus.s(xb, float(ys[0])) - v[0]
        best = np.zeros(xb.shape[0], dtype=np.intp)
        for j in range(1, ys.size):
            val = model.surplus.s(xb, float(ys[j])) - v[j]
            better = val > best_val
            best_val = np.where(better, val, best_val)
            best += better * (j - best)
        a, node, b = ends[best], ends[best + 1], ends[best + 2]
        fa, fb = (model.surplus.s_y(xb, e) - curve.k_at(e) for e in (a, b))
        # candidates: the root where phi changes sign (else the node), the
        # node, the bracket ends; argmax prefers the root on ties
        cand_y = np.stack([node, node, a, b])
        rows = np.nonzero((fa > 0) != (fb > 0))[0]
        cand_y[0, rows] = _level_root(model, curve, xb[rows], a[rows], b[rows],
                                      fa[rows], fb[rows], y_tol)
        cand_u = (model.surplus.s(np.tile(xb, (4, 1)), cand_y.ravel())
                  - curve.v_at(cand_y.ravel())).reshape(4, -1)
        cand_u[1] = best_val
        pick = np.argmax(cand_u, axis=0)
        u_val[block] = cand_u[pick, cols]
        y_star[block] = cand_y[pick, cols]
    return f_val, u_val, y_star


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

# The level-set speed k' - s_yy at or below which DF has no finite value.
_ZERO_SPEED = 1e-8


def _map_derivative_parts(model: Model, curve: SplitCurve, x: np.ndarray,
                          f_val: np.ndarray):
    """grad_x s_y(x, F) and the level-set speed k'(F) - s_yy(x, F) at the
    map values F of the rows of x, with k' the interpolant's slope."""
    kp = np.atleast_1d(curve.kprime_at(f_val))
    syy = model.surplus.s_yy(x, f_val)
    grad = model.surplus.grad_x_s_y(x, f_val)
    return grad, kp - syy


def map_gradient(model: Model, curve: SplitCurve, x: np.ndarray,
                 f_val: Optional[np.ndarray] = None):
    """DF(x) = grad_x s_y(x, F(x)) / (k'(F(x)) - s_yy(x, F(x))).

    The derivative of the interpolated curve is used for k' so the identity
    is consistent with finite differences of the by-level map.  ``f_val``,
    the map values F(x) where the caller has them, saves the map's node
    walk.  Raises ZeroSpeed when the denominator drops to 1e-8 or below.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if f_val is None:
        f_val = optimal_map(model, curve, x)
    grad, denom = _map_derivative_parts(model, curve, x, f_val)
    if np.any(denom <= _ZERO_SPEED):
        raise ZeroSpeed("level-set speed k' - s_yy at or below threshold")
    out = grad / denom[:, None]
    return out[0] if single else out


def balance_residual(model: Model, curve: SplitCurve, y):
    """g(y) minus the level-set balance integral

        integral_{X(y,k(y))} (k'(y) - s_yy) f / |grad_x s_y| dH^{m-1}

    over the ``auto`` sample the solve kept at the node nearest each y,
    i.e. -(h_y + k' h_k) with k' the slope of the interpolated curve; NaN
    where that sample was empty and on ``from_function`` curves.  At a
    clean node, whose stored k' is -h_y/h_k, this is
    h_k (k'_formula - k'_interp): how far the interpolant's slope strays
    from the derivative formula, not an independent closure.  Samples
    nothing; ``model`` is not read."""
    i = curve.nearest_nodes(y)
    out = -(curve.h_y[i] + curve.kprime_at(curve.y_grid[i]) * curve.h_k[i])
    return out if np.ndim(y) else float(out)


def weighted_ks_distance(model: Model, f_vals: np.ndarray,
                         weights: np.ndarray, radius: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a weighted sample law and the
    target distribution G.

    Sample i stands for its quadrature cell, so its weight is spread evenly
    over [f_i - r_i, f_i + r_i], the image of the cell; r_i = 0 (every
    Monte Carlo point) leaves an atom at f_i.  Without the spread the
    statistic would report the atomization of the quadrature rather than
    transport error.  The law's CDF is the knot table of
    ``levelsets._ramp_knots``, which the sublevel mass also reads: linear
    between the knots f_i -/+ r_i, with an atom's two knots on the two
    sides of its jump; the distance is its largest gap to G at the knots.
    """
    knots, cdf = _ramp_knots(f_vals, radius, weights / np.sum(weights))
    g_here = target_cdf(model, np.clip(knots, model.target.y_lo,
                                       model.target.y_hi))
    return float(np.max(np.abs(cdf - g_here)))


def pushforward_distance(model: Model, curve: SplitCurve) -> float:
    """Kolmogorov-Smirnov distance between the f-weighted law of the
    by-level F over the quadrature cells and the target distribution G.
    A tensor cell's image has the radius 1/2 sum_j |d_j F| h_j, with DF
    from the ``map_gradient`` formula; a cell whose level-set speed is at
    or below the ZeroSpeed threshold, and a Monte Carlo point, spreads over
    nothing."""
    x = model.grid.points
    f_vals = optimal_map(model, curve, x)
    radius = np.zeros(f_vals.size)
    if model.grid.spacing is not None:
        grad, speed = _map_derivative_parts(model, curve, x, f_vals)
        fast = speed > _ZERO_SPEED
        radius[fast] = (0.5 * (np.abs(grad[fast]) @ model.grid.spacing)
                        / speed[fast])
    return weighted_ks_distance(model, f_vals, model.point_mass, radius)

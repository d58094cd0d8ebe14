"""Nested solve: the split curve k(y), payoffs, and the optimal map.

For each y the level k(y) splits the population proportionately,
mu[{s_y(., y) <= k}] = G(y); the sublevel mass is piecewise linear in k,
so its exact inverse gives the maximal root interval [k^-, k^+].  The
target-side payoff is v(y) = integral of k, the source-side payoff is its
generalized conjugate u(x) = sup_y s(x, y) - v(y), and the map F sends x
to the y whose indifference set passes through x, by rooting
phi(y) = s_y(x, y) - k(y) (as v' = k, phi is the y-slope of s(x, .) - v,
so u reads its sup off this node walk and root).  When the surplus declares
s_y free of y (``SurplusBundle.sy_free_of_y``), one knot set gives every
node's levels, and on a nondecreasing k a search of s_y(x) in k gives the
walk's bracket.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._pchip import Pchip
from .errors import EmptyBand, ZeroSpeed
from .levelsets import (_contour_level_set, _contour_segments, _invert_knots,
                        _invert_sublevel, _mass_knots, _planar_tensor,
                        default_tangential_threshold, level_set)
from .model import Model, target_cdf

logger = logging.getLogger(__name__)
_ROOT_ITERS = 60  # Newton step cap; plain bisection needs about 30 steps
_CHUNK = 8192  # rows per block of the node scans, which stream over the
               # nodes and keep a few running values per row


@dataclass
class SplitCurve:
    """Solved level curve k(y) on a target grid.

    k_minus/k_plus bracket the zero set of h(y, .) at each node (they
    differ by more than the gap tolerance only when the data carries a
    mass plateau, which is flagged); kprime holds -h_y/h_k at clean nodes
    and one-sided difference quotients at tangential ones.  h_k, h_y,
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
        self.y_grid = np.asarray(self.y_grid, dtype=float)
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
        kp = np.gradient(k, y_grid) if kprime_fn is None \
            else np.asarray(kprime_fn(y_grid), dtype=float)
        flags = np.zeros(y_grid.size, dtype=bool)
        nan = np.full(y_grid.size, np.nan)
        return cls(y_grid=y_grid, k_minus=k.copy(), k_plus=k, kprime=kp,
                   tangential_flags=flags, plateau_flags=flags.copy(),
                   y_lo=target.y_lo, y_hi=target.y_hi, h_k=nan, h_y=nan,
                   syy_min=nan, syy_max=nan, x_syy_max=np.empty((nan.size, 0)),
                   area=nan, transversality=nan)

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
        y_arr = np.asarray(y, dtype=float)
        y0, yn = self.y_grid[0], self.y_grid[-1]
        out = (float(self.k_plus[0]) * (np.minimum(y_arr, y0) - self.y_lo)
               + self.interpolation.integral(np.clip(y_arr, y0, yn))
               + float(self.k_plus[-1]) * np.maximum(y_arr - yn, 0.0))
        return out if np.ndim(y) else float(out)

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

def solve_split_curve(model: Model, y_grid: Optional[np.ndarray] = None,
                      n_nodes: int = 65) -> SplitCurve:
    """Solve h(y, k(y)) = 0 at every node by inverting the sublevel mass.

    k_minus and k_plus are the edges of the mass band {k : |h(y, k)| <= 1e-6},
    clamped to the padded range of s_y.  The solve makes two passes.  The
    first builds each node's slice once (s_y, grad_x s_y and the cell spans
    on every quadrature point; |grad_x s_y| and s_yy are taken on the band
    samples only), inverts its mass and reduces the band sample of
    X(y, k_plus) at once to the area, the tangential flag and the boundary
    transversality (and, off planar tensor grids, to h_k, h_y and the s_yy
    figures), so no sample outlives its node; when s_y is free of y, one
    slice and one knot set serve every node.  On planar
    tensor grids one contour pass over all nodes then gives the contour
    samples that h_k, h_y and the s_yy figures reduce.  Nodes flagged
    tangential (more than ``default_tangential_threshold(model)`` of the
    band area in boundary-adjacent cells, or an empty level set) get
    difference-quotient derivatives instead of -h_y/h_k, whose hypotheses
    fail there.  The plateau, tangential and empty-level-set nodes are
    logged at DEBUG, and so are the counts of nodes inverted on a k window
    and on the full knots (see ``sublevel_levels``) or on the one knot set,
    and the contour pass's segment, clipped-segment and empty-contour counts.
    """
    model.require_nondegenerate()
    if y_grid is None:
        y_grid = model.target.interior_grid(n_nodes)
    tangential_threshold = default_tangential_threshold(model)
    planar = _planar_tensor(model)
    y_grid = np.asarray(y_grid, dtype=float)
    n = y_grid.size
    k_minus = np.empty(n)
    k_plus = np.empty(n)
    kprime = np.full(n, np.nan)
    tangential = np.zeros(n, dtype=bool)
    plateau = np.zeros(n, dtype=bool)
    windowed = np.zeros(n, dtype=bool)
    sorted_share = np.empty(n)
    h_k, h_y, syy_min, syy_max, area, transversality = np.full((6, n), np.nan)
    normal = model.domain.boundary_normal
    x_syy_max = np.full((n, model.domain.dim), np.nan)

    def keep_sample(i, ls):
        h_k[i] = ls.h_k
        h_y[i] = -float(model.g_at(float(y_grid[i]))[0]) - ls.flux
        j = int(np.argmax(ls.syy))
        syy_min[i], syy_max[i] = np.min(ls.syy), ls.syy[j]
        x_syy_max[i] = ls.points[j]

    g_targets = target_cdf(model, y_grid)
    one_slice = model.surplus.sy_free_of_y
    if one_slice:  # one knot set; each node searches its running maximum
        knots, mass = _mass_knots(model, model.slice_at(float(y_grid[0])))
        peak = np.maximum.accumulate(mass)
        for out, t, side in ((k_minus, g_targets - 1e-6, "left"),
                             (k_plus, g_targets + 1e-6, "right")):
            for i, j in enumerate(np.searchsorted(peak, t, side)):
                s = slice(max(j - 1, 0), j + 1)  # all it reads of the knots
                out[i] = _invert_knots(knots[s], peak[s], t[i], side)
        del knots, mass, peak  # 2N knots, not kept through the band samples
        logger.debug("split curve: s_y is free of y, so all %d nodes are "
                     "inverted on one knot set", n)
    for i, y in enumerate(y_grid):
        y = float(y)
        if i == 0 or not one_slice:  # one slice serves every node
            sl = model.slice_at(y)
            sy_lo, sy_hi = np.min(sl.sy), np.max(sl.sy)
            k_range = max(float(sy_hi - sy_lo), 1e-12)
            pad = 1e-3 * k_range + 10 * sl.max_span if sl.span is not None \
                else 1e-2 * k_range
        if not one_slice:
            g = float(g_targets[i])
            (k_minus[i], k_plus[i]), window, sorted_share[i] = \
                _invert_sublevel(model, y, g - 1e-6, g + 1e-6)
            windowed[i] = window != (-np.inf, np.inf)
        k_minus[i], k_plus[i] = np.clip((k_minus[i], k_plus[i]),
                                        sy_lo - pad, sy_hi + pad)
        plateau[i] = k_plus[i] - k_minus[i] > 1e-4 * k_range

        try:
            band = level_set(model, y, k_plus[i], "band")
        except EmptyBand:
            tangential[i] = True
            continue
        area[i] = band.area
        tangential[i] = band.boundary_fraction > tangential_threshold
        b = band.boundary
        if normal is not None and np.any(b):
            n_level = band.grad[b] / band.gnorm[b][:, None]
            dots = np.sum(np.atleast_2d(normal(band.points[b])) * n_level, axis=1)
            transversality[i] = np.min(1.0 - dots ** 2)
        if not planar:
            keep_sample(i, band)

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
    out, _ = _map_by_level(model, curve, x, 1e-8 * (curve.y_hi - curve.y_lo))
    return float(out[0]) if single else out


def _level_root(model: Model, curve: SplitCurve, x: np.ndarray, a: np.ndarray,
                b: np.ndarray, fa: np.ndarray, fb: np.ndarray, y_tol: float):
    """Root of phi(y) = s_y(x, y) - k(y) per row of x in [a, b], where
    phi(a) = fa and phi(b) = fb differ in sign: safeguarded Newton (rtsafe;
    Press et al., Numerical Recipes, 3rd ed., sec. 9.4) from the secant
    point, with phi' = s_yy - k' (k' of the interpolant, and 0 past the
    end nodes, where k_at holds k constant), bisecting where the Newton
    point would leave the bracket.  A row stops, and is not evaluated
    again, once its step or its bracket is within y_tol."""
    a, b, pos_a = a.copy(), b.copy(), fa > 0
    y = a - fa * (b - a) / (fb - fa)
    rows = np.arange(y.size)
    for _ in range(_ROOT_ITERS):
        if not rows.size:
            break
        xr, yr = x[rows], y[rows]
        yc = np.clip(yr, curve.y_grid[0], curve.y_grid[-1])
        k, kp = curve.interpolation.value_and_slope(yc)
        f = model.surplus.s_y(xr, yr) - k
        df = model.surplus.s_yy(xr, yr) - np.where(yc == yr, kp, 0.0)
        keep_a = (f > 0) != pos_a[rows]
        a[rows] = ar = np.where(keep_a, a[rows], yr)
        b[rows] = br = np.where(keep_a, yr, b[rows])
        # a zero slope makes the step infinite (a bisection) off a root
        step = np.divide(f, df, out=np.where(f == 0, 0.0, np.inf), where=df != 0)
        new = np.clip(yr - step, ar, br)
        # a step within y_tol is final even where it lands on (or an ulp
        # past) a bracket end: bisecting it would walk away from the root
        done = np.abs(step) <= y_tol
        bisect = ~done & ~((new > ar) & (new < br))
        new[bisect] = 0.5 * (ar + br)[bisect]
        y[rows] = new
        rows = rows[~(done | (np.abs(new - yr) <= y_tol) | (br - ar <= y_tol))]
    if rows.size:
        logger.debug("by-level root: %d of %d rows hit the %d-step cap", rows.size,
                     y.size, _ROOT_ITERS)
    return y


def _node_walk(model: Model, curve: SplitCurve, xb: np.ndarray):
    """Bracket phi = s_y - k on the curve grid for the rows of xb.

    The nodes are walked from last to first, keeping per row the bracket
    [y_j, y_j+1] of the first downcrossing of phi (+ to -), else of its
    first sign change, and the node j of the first upcrossing (phi <= 0
    at y_j, > 0 at y_j+1; -1 for none): the smallest j is written last.
    Returns (j, s_y at y_j and y_j+1, has a downcrossing, phi > 0 at every
    node, first upcrossing node); s_y is kept raw, k comes off once.  With
    s_y free of y and k nondecreasing, a search gives the same, and no
    row crosses upward."""
    ys, k = curve.y_grid, curve.k_plus
    n = xb.shape[0]
    first_up = np.full(n, -1, dtype=np.intp)
    right = model.surplus.s_y(xb, float(ys[-1]))
    if model.surplus.sy_free_of_y and np.all(np.diff(k) >= 0):
        # phi > 0 exactly at the nodes below J = searchsorted(k, s_y): one
        # downcrossing, [y_J-1, y_J]
        j = np.searchsorted(k, right, "left")
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
    downward.  Rows with no sign change clamp to y_hi when phi > 0 at
    every node, else y_lo.  Returns F and the settled rows, which cross
    down but never up: as v' = k, s - v peaks at F there."""
    out = np.empty(x.shape[0])
    settled = np.empty(x.shape[0], dtype=bool)
    ys, k = curve.y_grid, curve.k_plus
    for start in range(0, x.shape[0], _CHUNK):
        xb = x[start:start + _CHUNK]
        idx, fa, fb, has_down, all_pos, first_up = _node_walk(model, curve, xb)
        out[start:start + _CHUNK] = np.where(all_pos, curve.y_hi, curve.y_lo)
        settled[start:start + _CHUNK] = has_down & (first_up < 0)
        rows = np.nonzero(has_down | (first_up >= 0))[0]
        j = idx[rows]
        out[start + rows] = _level_root(model, curve, xb[rows], ys[j], ys[j + 1],
                                        fa[rows] - k[j], fb[rows] - k[j + 1],
                                        y_tol)
    return out, settled


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
    _, u_val, y_star = _map_and_payoff(
        model, curve, np.atleast_2d(np.asarray(x, dtype=float)))
    return (float(u_val[0]), float(y_star[0])) if single else (u_val, y_star)


def _map_and_payoff(model: Model, curve: SplitCurve, x: np.ndarray):
    """(F, u, y*) for the rows of a 2-d x from one by-level node walk: F
    as ``optimal_map`` gives it, (u, y*) as ``source_payoff`` does."""
    ends = np.concatenate([[curve.y_lo], curve.y_grid, [curve.y_hi]])
    y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    f_val, settled = _map_by_level(model, curve, x, y_tol)
    y_star = f_val.copy()  # the scan below overwrites y* on unsettled rows
    u_val = model.surplus.s(x, y_star) - curve.v_at(y_star)
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
    syy = np.asarray(model.surplus.s_yy(x, f_val), dtype=float)
    grad = np.asarray(model.surplus.grad_x_s_y(x, f_val), dtype=float)
    return grad, kp - syy


def map_gradient(model: Model, curve: SplitCurve, x: np.ndarray):
    """DF(x) = grad_x s_y(x, F(x)) / (k'(F(x)) - s_yy(x, F(x))).

    The derivative of the interpolated curve is used for k' so the identity
    is consistent with finite differences of the by-level map.  Raises
    ZeroSpeed when the denominator drops to 1e-8 or below.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = _map_gradient_at(model, curve, x, optimal_map(model, curve, x))
    return out[0] if single else out


def _map_gradient_at(model: Model, curve: SplitCurve, x: np.ndarray,
                     f_val: np.ndarray) -> np.ndarray:
    """DF at the rows of a 2-d x, given their map values F."""
    grad, denom = _map_derivative_parts(model, curve, x, f_val)
    if np.any(denom <= _ZERO_SPEED):
        raise ZeroSpeed("level-set speed k' - s_yy at or below threshold")
    return grad / denom[:, None]


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
    transport error.  The law's CDF is piecewise linear between the knots
    f_i -/+ r_i and jumps at the atoms; the distance is its largest gap to
    G at the knots, read on both sides of each jump.
    """
    w = np.asarray(weights, dtype=float) / np.sum(weights)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), w.shape)
    ramp = radius > 0
    slope = np.where(ramp, w / np.where(ramp, 2.0 * radius, 1.0), 0.0)
    knots = np.concatenate([f_vals - radius, f_vals + radius])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    jump = np.concatenate([np.where(ramp, 0.0, w), np.zeros(w.size)])[order]
    rate = np.cumsum(np.concatenate([slope, -slope])[order])
    after = np.cumsum(jump + np.concatenate([[0.0],
                                             rate[:-1] * np.diff(knots)]))
    g_here = target_cdf(model, np.clip(knots, model.target.y_lo,
                                       model.target.y_hi))
    return float(max(np.max(np.abs(after - jump - g_here)),
                     np.max(np.abs(after - g_here))))


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

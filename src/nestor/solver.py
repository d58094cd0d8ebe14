"""Nested solve: the split curve k(y), payoffs, and the optimal map.

For each y the level k(y) splits the population proportionately,
mu[{s_y(., y) <= k}] = G(y); the sublevel mass is piecewise linear in k,
so its exact inverse gives the maximal root interval [k^-, k^+].  The
target-side payoff is v(y) = integral of k, the source-side payoff is its
generalized conjugate u(x) = sup_y s(x, y) - v(y), and the map F sends x
to the y whose indifference set passes through x, by rooting
phi(y) = s_y(x, y) - k(y) ("by-level"; as v' = k, where s(x, .) - v peaks,
so u shares this safeguarded Newton solve) or by re-solving the
proportional-splitting equation at x ("by-splitting"); the two agree
exactly when the model is nested.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import EmptyBand, NonNested, ZeroSpeed
from .levelsets import (cumulative_mass, default_tangential_threshold, grad_h,
                        level_set, sublevel_levels, sublevel_mass)
from .model import Model, target_cdf

logger = logging.getLogger(__name__)
_ROOT_ITERS = 60  # Newton step cap; plain bisection needs about 30 steps
_CHUNK = 8192  # rows per block of the node-grid scans


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
    where that sample is empty.  ``from_function`` curves carry only k and
    k': their level-set fields are NaN and x_syy_max has no columns.
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
    interpolation: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self):
        self.y_grid = np.asarray(self.y_grid, dtype=float)
        self.k_plus = np.asarray(self.k_plus, dtype=float)
        self.k_minus = np.asarray(self.k_minus, dtype=float)
        self.y_lo = float(self.y_lo)
        self.y_hi = float(self.y_hi)
        self.interpolation = PchipInterpolator(self.y_grid, self.k_plus)
        self._k_deriv = self.interpolation.derivative()
        self._v_anti = self.interpolation.antiderivative()

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
                   area=nan)

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
        out = self._k_deriv(yc)
        return out if np.ndim(y) else float(out)

    def v_at(self, y):
        """Target payoff v(y) = integral_{y_lo}^{y} k, with k extended as a
        constant beyond the end nodes; v(y_lo) = 0."""
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        y0, yn = self.y_grid[0], self.y_grid[-1]
        k0 = float(self.k_plus[0])
        kn = float(self.k_plus[-1])
        base = k0 * (y0 - self.y_lo)
        a0 = float(self._v_anti(y0))
        out = np.empty_like(y_arr)
        low = y_arr <= y0
        high = y_arr >= yn
        mid = ~(low | high)
        out[low] = k0 * (y_arr[low] - self.y_lo)
        out[mid] = base + self._v_anti(y_arr[mid]) - a0
        out[high] = base + (float(self._v_anti(yn)) - a0) + kn * (y_arr[high] - yn)
        return out if np.ndim(y) else float(out[0])

    @property
    def v_values(self) -> np.ndarray:
        return self.v_at(self.y_grid)

    @property
    def k_nondecreasing(self) -> bool:
        """Whether the solved levels increase with y (equivalently, whether
        the target payoff v is convex); recorded, not required."""
        return bool(np.all(np.diff(self.k_plus) >= -1e-12))


# ---------------------------------------------------------------------------
# split-curve solve
# ---------------------------------------------------------------------------

def solve_split_curve(model: Model, y_grid: Optional[np.ndarray] = None,
                      tol_mass: float = 1e-6, n_nodes: int = 257,
                      tangential_threshold: Optional[float] = None) -> SplitCurve:
    """Solve h(y, k(y)) = 0 at every node by inverting the sublevel mass.

    k_minus and k_plus are the edges of {k : |h(y, k)| <= tol_mass},
    clamped to the padded range of s_y.  X(y, k_plus) is sampled once per
    node (twice on planar tensor grids, where the tangential flag needs
    band samples besides the contour).  Nodes flagged tangential (level set
    hugging the domain boundary, or empty) get one-sided difference-quotient
    derivatives instead of -h_y/h_k, whose hypotheses fail there.  The
    plateau, tangential and empty-level-set nodes are logged at DEBUG.
    """
    model.require_nondegenerate()
    if y_grid is None:
        y_grid = model.target.interior_grid(n_nodes)
    if tangential_threshold is None:
        tangential_threshold = default_tangential_threshold(model)
    y_grid = np.asarray(y_grid, dtype=float)
    n = y_grid.size
    k_minus = np.empty(n)
    k_plus = np.empty(n)
    kprime = np.full(n, np.nan)
    tangential = np.zeros(n, dtype=bool)
    plateau = np.zeros(n, dtype=bool)
    h_k, h_y, syy_min, syy_max, area = (np.full(n, np.nan) for _ in range(5))
    x_syy_max = np.full((n, model.domain.dim), np.nan)

    for i, y in enumerate(y_grid):
        y = float(y)
        sl = model.slice_at(y)
        k_range = max(float(np.ptp(sl.sy)), 1e-12)
        pad = 1e-3 * k_range + 10 * float(np.max(sl.span)) if sl.span is not None \
            else 1e-2 * k_range
        g_target = target_cdf(model, y)
        k_minus[i], k_plus[i] = np.clip(
            sublevel_levels(model, y, g_target - tol_mass, g_target + tol_mass),
            np.min(sl.sy) - pad, np.max(sl.sy) + pad)
        plateau[i] = k_plus[i] - k_minus[i] > 1e-4 * k_range

        try:
            ls = level_set(model, y, k_plus[i])
            h_k[i], h_y[i] = ls.h_k, -float(model.g_at(y)[0]) - ls.flux
            j = int(np.argmax(ls.syy))
            syy_min[i], syy_max[i] = np.min(ls.syy), ls.syy[j]
            x_syy_max[i] = ls.points[j]
        except EmptyBand:
            ls = None
        try:
            band = ls if ls is not None and ls.estimator == "band" \
                else level_set(model, y, k_plus[i], "band")
            area[i] = band.area
            tangential[i] = band.boundary_fraction > tangential_threshold
        except EmptyBand:
            tangential[i] = True
        # not h_k > 0 also catches an empty auto set (NaN)
        tangential[i] |= not h_k[i] > 0
        if not tangential[i]:
            kprime[i] = -h_y[i] / h_k[i]

    empty = np.isnan(h_k) | np.isnan(area)
    for what, mask in (("plateau", plateau), ("tangential", tangential),
                       ("with an empty level set", empty)):
        logger.debug("split curve: %d of %d nodes %s at y = %s", np.sum(mask),
                     n, what, np.round(y_grid[mask], 6).tolist())

    # difference quotients at tangential nodes (one-sided at the ends)
    fd = np.gradient(k_plus, y_grid)
    bad = tangential | ~np.isfinite(kprime)
    kprime[bad] = fd[bad]

    return SplitCurve(y_grid=y_grid, k_minus=k_minus, k_plus=k_plus,
                      kprime=kprime, tangential_flags=tangential,
                      plateau_flags=plateau,
                      y_lo=model.target.y_lo, y_hi=model.target.y_hi,
                      h_k=h_k, h_y=h_y, syy_min=syy_min, syy_max=syy_max,
                      x_syy_max=x_syy_max, area=area)


# ---------------------------------------------------------------------------
# map evaluation
# ---------------------------------------------------------------------------

def _surplus_matrix(evaluate: Callable, x: np.ndarray, ys: np.ndarray,
                    shift: np.ndarray) -> np.ndarray:
    """evaluate(x_i, y_j) - shift_j per row i and node j: s - v or s_y - k."""
    out = np.empty((x.shape[0], ys.size))
    for j, yj in enumerate(ys):
        out[:, j] = evaluate(x, float(yj)) - shift[j]
    return out


def _bracket_roots(phi: np.ndarray):
    """First downcrossing bracket per row of a sampled function.

    Returns (index array, has_bracket, all_positive) where index j means a
    sign change between columns j and j+1; downcrossings (+ to -) win over
    upcrossings because the correct matching root always crosses downward.
    """
    pos = phi > 0
    down = pos[:, :-1] & ~pos[:, 1:]
    anyc = pos[:, :-1] != pos[:, 1:]
    has_down = down.any(axis=1)
    has_any = anyc.any(axis=1)
    idx = np.where(has_down, np.argmax(down, axis=1), np.argmax(anyc, axis=1))
    all_positive = pos.all(axis=1)
    return idx, has_any, all_positive


def optimal_map(model: Model, curve: SplitCurve, x: np.ndarray,
                method: str = "by-level", y_tol: Optional[float] = None):
    """Map source points to targets.

    by-level roots phi(y) = s_y(x, y) - k(y) on the curve grid;
    by-splitting roots psi(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y),
    scanned on 65 uniform nodes, raising NonNested when psi changes sign
    more than once.  Points beyond the extreme level sets clamp to the
    interval ends.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if y_tol is None:
        y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    if method == "by-level":
        out = _map_by_level(model, curve, x, y_tol)
    elif method == "by-splitting":
        out = _map_by_splitting(model, curve, x, y_tol)
    else:
        raise ValueError(f"unknown map method {method!r}")
    return float(out[0]) if single else out


def _level_root(model: Model, curve: SplitCurve, x: np.ndarray, a: np.ndarray,
                b: np.ndarray, fa: np.ndarray, fb: np.ndarray, y_tol: float):
    """Root of phi(y) = s_y(x, y) - k(y) per row of x in [a, b], where
    phi(a) = fa and phi(b) = fb differ in sign: safeguarded Newton (rtsafe;
    Press et al., Numerical Recipes, 3rd ed., sec. 9.4) from the secant
    point, with phi' = s_yy - k' (k' of the interpolant), bisecting where
    the Newton point would leave the bracket.  A row stops, and is not
    evaluated again, once its step or its bracket is within y_tol."""
    a, b, pos_a = a.copy(), b.copy(), fa > 0
    y = a - fa * (b - a) / (fb - fa)
    rows = np.arange(y.size)
    for _ in range(_ROOT_ITERS):
        if not rows.size:
            break
        xr, yr = x[rows], y[rows]
        f = model.surplus.s_y(xr, yr) - curve.k_at(yr)
        df = model.surplus.s_yy(xr, yr) - curve.kprime_at(yr)
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


def _map_by_level(model: Model, curve: SplitCurve, x: np.ndarray,
                  y_tol: float) -> np.ndarray:
    out = np.empty(x.shape[0])
    ys = curve.y_grid
    for start in range(0, x.shape[0], _CHUNK):
        xb = x[start:start + _CHUNK]
        phi = _surplus_matrix(model.surplus.s_y, xb, ys, curve.k_plus)
        idx, has_any, all_pos = _bracket_roots(phi)
        out[start:start + _CHUNK] = np.where(all_pos, curve.y_hi, curve.y_lo)
        rows = np.nonzero(has_any)[0]
        j = idx[rows]
        out[start + rows] = _level_root(model, curve, xb[rows], ys[j], ys[j + 1],
                                        phi[rows, j], phi[rows, j + 1], y_tol)
    return out


def splitting_profile(model: Model, x: np.ndarray,
                      y_scan: np.ndarray) -> np.ndarray:
    """psi_x(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y) sampled on y_scan,
    one row per probe point.

    Masses here are binary (sorted cumulative lookup, O(N log N) per scan
    node); their jitter is far below the sign deadbands used on psi.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pts = model.grid.points
    psi = np.empty((x.shape[0], y_scan.size))
    for j, yj in enumerate(y_scan):
        sy = np.asarray(model.surplus.s_y(pts, float(yj)), dtype=float)
        sy_sorted, cum = cumulative_mass(sy, model.point_mass)
        kv = np.asarray(model.surplus.s_y(x, float(yj)), dtype=float)
        idx = np.searchsorted(sy_sorted, kv, side="right")
        psi[:, j] = cum[idx] - target_cdf(model, float(yj))
    return psi


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


def effective_deadband(model: Model, mass_deadband: float) -> float:
    """Sign deadband for sampled splitting profiles: at least the binary
    mass quantization of the grid (one point's worth of mass)."""
    return max(mass_deadband, float(np.max(model.point_mass)))


def _map_by_splitting(model: Model, curve: SplitCurve, x: np.ndarray,
                      y_tol: float) -> np.ndarray:
    y_scan = model.target.interior_grid(65, clustered=False)
    psi = splitting_profile(model, x, y_scan)
    mass_noise = effective_deadband(model, 1e-3)
    out = np.empty(x.shape[0])
    witnesses = []
    for i in range(x.shape[0]):
        n_changes, brackets = count_sign_changes(psi[i], mass_noise)
        if n_changes == 0:
            out[i] = curve.y_hi if psi[i, -1] > 0 else curve.y_lo
            continue
        if n_changes > 1:
            roots = [0.5 * (y_scan[ja] + y_scan[jb]) for ja, jb in brackets]
            witnesses.append((x[i].copy(), roots))
            continue
        (ja, jb), = brackets

        def psi_at(yv):
            kv = np.asarray(model.surplus.s_y(x[i][None, :], float(yv)), dtype=float)
            return float(sublevel_mass(model, float(yv), kv)[0]
                         - target_cdf(model, float(yv)))

        # the scan used binary masses; re-check the bracket with the smooth
        # estimator and widen by one scan step if quantization moved the root
        for _ in range(3):
            a, b = y_scan[ja], y_scan[jb]
            pa, pb = psi_at(a), psi_at(b)
            if (pa > 0) != (pb > 0):
                break
            if abs(pa) < abs(pb) and ja > 0:
                ja -= 1
            elif jb < y_scan.size - 1:
                jb += 1
            else:
                break
            logger.debug("by-splitting row %d: bracket [%.6g, %.6g] widened to "
                         "[%.6g, %.6g]", i, a, b, y_scan[ja], y_scan[jb])
        sign_a = pa > 0
        if (pa > 0) == (pb > 0):
            out[i] = 0.5 * (a + b)
            continue
        for _ in range(80):
            if b - a <= y_tol:
                break
            mid = 0.5 * (a + b)
            if (psi_at(mid) > 0) == sign_a:
                a = mid
            else:
                b = mid
        out[i] = 0.5 * (a + b)
    if witnesses:
        raise NonNested(
            f"{len(witnesses)} probe(s) admit several proportional splits",
            witnesses=witnesses)
    return out


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def source_payoff(model: Model, curve: SplitCurve, x: np.ndarray):
    """u(x) = sup_y s(x, y) - v(y); returns (u, argmax_y) arrays.

    The curve-grid node maximizing s - v guards the sup.  Where s_y - k
    changes sign between its neighbours (interval ends past the end nodes)
    the map's Newton solve roots it; u is the best of that root, the node
    and the two neighbours."""
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ends = np.concatenate([[curve.y_lo], curve.y_grid, [curve.y_hi]])
    y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    u_val, y_star = np.empty(x.shape[0]), np.empty(x.shape[0])
    for start in range(0, x.shape[0], _CHUNK):
        xb = x[start:start + _CHUNK]
        cols = np.arange(xb.shape[0])
        vals = _surplus_matrix(model.surplus.s, xb, curve.y_grid, curve.v_values)
        best = np.argmax(vals, axis=1)
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
        cand_u[1] = vals[cols, best]
        pick = np.argmax(cand_u, axis=0)
        u_val[start:start + _CHUNK] = cand_u[pick, cols]
        y_star[start:start + _CHUNK] = cand_y[pick, cols]
    return (float(u_val[0]), float(y_star[0])) if single else (u_val, y_star)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def map_gradient(model: Model, curve: SplitCurve, x: np.ndarray,
                 speed_threshold: float = 1e-8):
    """DF(x) = grad_x s_y(x, F(x)) / (k'(F(x)) - s_yy(x, F(x))).

    The derivative of the interpolated curve is used for k' so the identity
    is consistent with finite differences of the by-level map.  Raises
    ZeroSpeed when the denominator drops to the threshold.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    f_val = optimal_map(model, curve, x)
    f_val = np.atleast_1d(f_val)
    kp = np.atleast_1d(curve.kprime_at(f_val))
    syy = np.asarray(model.surplus.s_yy(x, f_val), dtype=float)
    denom = kp - syy
    if np.any(denom <= speed_threshold):
        raise ZeroSpeed("level-set speed k' - s_yy at or below threshold")
    grad = np.asarray(model.surplus.grad_x_s_y(x, f_val), dtype=float)
    out = grad / denom[:, None]
    return out[0] if single else out


def balance_residual(model: Model, curve: SplitCurve, y: float) -> float:
    """g(y) minus the level-set balance integral

        integral_{X(y,k(y))} (k'(y) - s_yy) f / |grad_x s_y| dH^{m-1}

    over the ``auto`` samples, i.e. -(h_y + k' h_k) with k' the slope of
    the interpolated curve.  At a clean node, whose stored k' is -h_y/h_k,
    this is h_k (k'_formula - k'_interp): how far the interpolant's slope
    strays from the derivative formula, not an independent closure."""
    y = float(y)
    gh = grad_h(model, y, curve.k_at(y))
    return -(gh.h_y + curve.kprime_at(y) * gh.h_k)


def weighted_ks_distance(model: Model, f_vals: np.ndarray,
                         weights: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a weighted sample law and the
    target distribution G.

    The samples stand in for a continuous density on midpoint cells, so
    ties (whole lattice slabs mapping to one value, up to root-finder
    jitter) are merged and each merged atom is charged half its weight at
    its location; otherwise the statistic reports the quadrature
    atomization itself rather than transport error.  Sorted values at
    most 1e-7 of the target length apart are ties.
    """
    order = np.argsort(f_vals, kind="stable")
    f = f_vals[order]
    w = weights[order]
    tie = 1e-7 * model.target.length
    new_group = np.concatenate([[True], np.diff(f) > tie])
    gid = np.cumsum(new_group) - 1
    gw = np.bincount(gid, weights=w)
    gf = np.bincount(gid, weights=w * f) / gw
    cum = np.cumsum(gw)
    mid = (cum - 0.5 * gw) / cum[-1]
    g_here = target_cdf(model, np.clip(gf, model.target.y_lo,
                                       model.target.y_hi))
    return float(np.max(np.abs(mid - g_here)))


def pushforward_distance(model: Model, curve: SplitCurve) -> float:
    """Kolmogorov-Smirnov distance between the f-weighted law of the
    by-level F over the quadrature points and the target distribution G."""
    f_vals = optimal_map(model, curve, model.grid.points)
    return weighted_ks_distance(model, f_vals, model.point_mass)


"""Nested solve: the split curve k(y), payoffs, and the optimal map.

For each y the level k(y) splits the population proportionately,
mu[{s_y(., y) <= k}] = G(y); the sublevel mass is piecewise linear in k,
so its exact inverse gives the maximal root interval [k^-, k^+].  The
target-side payoff is v(y) = integral of k, the source-side payoff is its
generalized conjugate u(x) = sup_y s(x, y) - v(y), and the map F sends x
to the y whose indifference set passes through x.  F is evaluated either
by rooting s_y(x, y) = k(y) ("by-level") or by re-solving the
proportional-splitting equation at x ("by-splitting"); the two agree
exactly when the model is nested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import EmptyBand, NonNested, ZeroSpeed
from .levelsets import (cumulative_mass, default_tangential_threshold, grad_h,
                        level_set, sublevel_levels, sublevel_mass)
from .model import Model, target_cdf


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
    are arithmetic on them.  ``from_function`` curves carry only k and k':
    their level-set fields are NaN and x_syy_max has no columns.
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
    interpolation: PchipInterpolator = field(init=False, repr=False)
    _kprime_interp: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self):
        self.y_grid = np.asarray(self.y_grid, dtype=float)
        self.k_plus = np.asarray(self.k_plus, dtype=float)
        self.k_minus = np.asarray(self.k_minus, dtype=float)
        self.y_lo = float(self.y_lo)
        self.y_hi = float(self.y_hi)
        self.interpolation = PchipInterpolator(self.y_grid, self.k_plus)
        self._kprime_interp = PchipInterpolator(self.y_grid, self.kprime)
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
                   syy_min=nan, syy_max=nan, x_syy_max=np.empty((nan.size, 0)))

    # -- evaluation (constant extension beyond the node range) -------------

    def k_at(self, y):
        yc = np.clip(y, self.y_grid[0], self.y_grid[-1])
        out = self.interpolation(yc)
        return out if np.ndim(y) else float(out)

    def kprime_at(self, y, from_interpolant: bool = False):
        """k'(y): the stored -h_y/h_k values interpolated, or the derivative
        of the k interpolant itself (consistent with finite differences of
        the by-level map)."""
        yc = np.clip(y, self.y_grid[0], self.y_grid[-1])
        out = self._k_deriv(yc) if from_interpolant else self._kprime_interp(yc)
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
    derivatives instead of -h_y/h_k, whose hypotheses fail there.
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
    h_k, h_y, syy_min, syy_max = (np.full(n, np.nan) for _ in range(4))
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
            tangential[i] = band.boundary_fraction > tangential_threshold
        except EmptyBand:
            tangential[i] = True
        # not h_k > 0 also catches an empty auto set (NaN)
        tangential[i] |= not h_k[i] > 0
        if not tangential[i]:
            kprime[i] = -h_y[i] / h_k[i]

    # difference quotients at tangential nodes (one-sided at the ends)
    fd = np.gradient(k_plus, y_grid)
    bad = tangential | ~np.isfinite(kprime)
    kprime[bad] = fd[bad]

    return SplitCurve(y_grid=y_grid, k_minus=k_minus, k_plus=k_plus,
                      kprime=kprime, tangential_flags=tangential,
                      plateau_flags=plateau,
                      y_lo=model.target.y_lo, y_hi=model.target.y_hi,
                      h_k=h_k, h_y=h_y, syy_min=syy_min, syy_max=syy_max,
                      x_syy_max=x_syy_max)


# ---------------------------------------------------------------------------
# map evaluation
# ---------------------------------------------------------------------------

def _surplus_matrix(evaluate: Callable, x: np.ndarray,
                    ys: np.ndarray) -> np.ndarray:
    """evaluate(x_i, y_j) for all rows i and grid values j, where evaluate
    is one of the surplus evaluators (s or s_y)."""
    cols = [np.asarray(evaluate(x, float(yj)), dtype=float) for yj in ys]
    return np.stack(cols, axis=1)


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
                method: str = "by-level", y_tol: Optional[float] = None,
                scan_nodes: int = 65, on_multiple: str = "raise",
                mass_deadband: float = 1e-3):
    """Map source points to targets.

    by-level roots phi(y) = s_y(x, y) - k(y) on the curve grid;
    by-splitting roots psi(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y),
    raising NonNested when psi changes sign more than once (pass
    on_multiple='first' to force the first downward root instead).
    Points beyond the extreme level sets clamp to the interval ends.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if y_tol is None:
        y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    if method == "by-level":
        out = _map_by_level(model, curve, x, y_tol)
    elif method == "by-splitting":
        out = _map_by_splitting(model, curve, x, y_tol, scan_nodes, on_multiple,
                                mass_deadband)
    else:
        raise ValueError(f"unknown map method {method!r}")
    return float(out[0]) if single else out


def _map_by_level(model: Model, curve: SplitCurve, x: np.ndarray,
                  y_tol: float, chunk: int = 8192) -> np.ndarray:
    out = np.empty(x.shape[0])
    ys = curve.y_grid
    kv = curve.k_plus
    for start in range(0, x.shape[0], chunk):
        xb = x[start:start + chunk]
        phi = _surplus_matrix(model.surplus.s_y, xb, ys) - kv[None, :]
        idx, has_any, all_pos = _bracket_roots(phi)
        res = np.where(all_pos, curve.y_hi, curve.y_lo)
        rows = np.nonzero(has_any)[0]
        if rows.size:
            a = ys[idx[rows]].copy()
            b = ys[idx[rows] + 1].copy()
            sign_a = phi[rows, idx[rows]] > 0
            xr = xb[rows]
            for _ in range(80):
                if np.max(b - a) <= y_tol:
                    break
                mid = 0.5 * (a + b)
                fmid = np.asarray(model.surplus.s_y(xr, mid), dtype=float) \
                    - curve.k_at(mid)
                go_a = (fmid > 0) == sign_a
                a = np.where(go_a, mid, a)
                b = np.where(go_a, b, mid)
            res[rows] = 0.5 * (a + b)
        out[start:start + chunk] = res
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
                      y_tol: float, scan_nodes: int, on_multiple: str,
                      mass_deadband: float = 1e-3) -> np.ndarray:
    y_scan = model.target.interior_grid(scan_nodes, clustered=False)
    psi = splitting_profile(model, x, y_scan)
    mass_noise = effective_deadband(model, mass_deadband)
    out = np.empty(x.shape[0])
    witnesses = []
    for i in range(x.shape[0]):
        n_changes, brackets = count_sign_changes(psi[i], mass_noise)
        if n_changes == 0:
            out[i] = curve.y_hi if psi[i, -1] > 0 else curve.y_lo
            continue
        if n_changes > 1 and on_multiple == "raise":
            roots = [0.5 * (y_scan[ja] + y_scan[jb]) for ja, jb in brackets]
            witnesses.append((x[i].copy(), roots))
            continue
        # first downward crossing (+ to -); fall back to the first crossing
        ja, jb = brackets[0]
        for cand in brackets:
            if psi[i, cand[0]] > 0:
                ja, jb = cand
                break

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

def _golden_max_rows(fun: Callable, a: np.ndarray, b: np.ndarray,
                     iters: int = 60):
    """Vectorized golden-section maximization of fun(y) per row on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = fun(c)
    fd = fun(d)
    for _ in range(iters):
        take_left = fc > fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        d_new = np.where(take_left, c, a + invphi * (b - a))
        c_new = np.where(take_left, b - invphi * (b - a), d)
        fd_new = np.where(take_left, fc, 0.0)
        fc_new = np.where(take_left, 0.0, fd)
        need = np.nonzero(take_left)[0]
        if need.size:
            fc_new[need] = fun(c_new[need], rows=need)
        need = np.nonzero(~take_left)[0]
        if need.size:
            fd_new[need] = fun(d_new[need], rows=need)
        c, d, fc, fd = c_new, d_new, fc_new, fd_new
    y = np.where(fc > fd, c, d)
    val = np.maximum(fc, fd)
    return y, val


def source_payoff(model: Model, curve: Optional[SplitCurve], x: np.ndarray,
                  v_fn: Optional[Callable] = None):
    """u(x) = sup_y s(x, y) - v(y) with the sup localized on the curve grid
    and refined by golden section; returns (u, argmax_y) arrays.

    ``v_fn`` overrides the curve payoff (e.g. an analytic v) and must map
    an array of targets to an array of payoffs.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if v_fn is None:
        if curve is None:
            raise ValueError("need a curve or an explicit v_fn")
        v_fn = curve.v_at
        y_nodes = curve.y_grid
        y_lo, y_hi = curve.y_lo, curve.y_hi
    else:
        y_lo, y_hi = model.target.y_lo, model.target.y_hi
        y_nodes = model.target.interior_grid(257)
    v_nodes = np.asarray(v_fn(y_nodes), dtype=float)
    vals = _surplus_matrix(model.surplus.s, x, y_nodes) - v_nodes[None, :]
    best = np.argmax(vals, axis=1)
    a = np.where(best > 0, y_nodes[np.maximum(best - 1, 0)], y_lo)
    b = np.where(best < y_nodes.size - 1,
                 y_nodes[np.minimum(best + 1, y_nodes.size - 1)], y_hi)

    def objective(yv, rows=None):
        xr = x if rows is None else x[rows]
        s_val = np.asarray(model.surplus.s(xr, yv), dtype=float)
        return s_val - np.asarray(v_fn(yv), dtype=float)

    y_star, u_val = _golden_max_rows(objective, a, b)
    if single:
        return float(u_val[0]), float(y_star[0])
    return u_val, y_star


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
    kp = np.atleast_1d(curve.kprime_at(f_val, from_interpolant=True))
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
    return -(gh.h_y + curve.kprime_at(y, from_interpolant=True) * gh.h_k)


def weighted_ks_distance(model: Model, f_vals: np.ndarray,
                         weights: np.ndarray,
                         merge_tol: Optional[float] = None) -> float:
    """Kolmogorov-Smirnov distance between a weighted sample law and the
    target distribution G.

    The samples stand in for a continuous density on midpoint cells, so
    ties (whole lattice slabs mapping to one value, up to root-finder
    jitter) are merged and each merged atom is charged half its weight at
    its location; otherwise the statistic reports the quadrature
    atomization itself rather than transport error.
    """
    if merge_tol is None:
        merge_tol = 1e-7 * model.target.length
    order = np.argsort(f_vals, kind="stable")
    f = f_vals[order]
    w = weights[order]
    new_group = np.concatenate([[True], np.diff(f) > merge_tol])
    gid = np.cumsum(new_group) - 1
    gw = np.bincount(gid, weights=w)
    gf = np.bincount(gid, weights=w * f) / gw
    cum = np.cumsum(gw)
    mid = (cum - 0.5 * gw) / cum[-1]
    g_here = target_cdf(model, np.clip(gf, model.target.y_lo,
                                       model.target.y_hi))
    return float(np.max(np.abs(mid - g_here)))


def pushforward_distance(model: Model, curve: SplitCurve,
                         resolution: Optional[int] = None,
                         method: str = "by-level") -> float:
    """Kolmogorov-Smirnov distance between the f-weighted law of F over the
    quadrature points and the target distribution G."""
    pts = model.grid.points
    pm = model.point_mass
    if resolution is not None and resolution < pts.shape[0]:
        stride = int(np.ceil(pts.shape[0] / resolution))
        pts = pts[::stride]
        pm = pm[::stride]
    f_vals = optimal_map(model, curve, pts, method=method,
                         on_multiple="first")
    return weighted_ks_distance(model, f_vals, pm)


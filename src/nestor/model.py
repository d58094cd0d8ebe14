"""Model assembly: domain + target + surplus + densities + quadrature.

A Model normalizes both densities against its own quadrature (so mass
balance residuals downstream are free of normalization bias), caches the
target CDF on a fine grid with monotone interpolation, and certifies
non-degeneracy |grad_x s_y| > 0 on demand.

A Model is not immutable: ``slice_at`` keeps a small FIFO cache of
surplus slices, and ``certificate`` and ``surplus_scale`` are computed on
first use and stored.  None of this is locked, so one Model must not be
called from several threads at once; give each thread its own Model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import Degenerate, EmptyDomain, OutOfRange
from .geometry import Domain, Quadrature, QuadratureGrid, TargetInterval
from .surplus import SurplusBundle


def uniform_density(x):
    """Constant density; normalization happens at model assembly."""
    x = np.asarray(x)
    n = x.shape[0] if x.ndim > 1 else x.size
    return np.ones(n)


@dataclass(frozen=True)
class DensityPair:
    """Raw (unnormalized) source and target densities.

    ``f`` maps (N, m) points to positive values, ``g`` maps an (N,) array
    of target coordinates to positive values.  Normalization constants and
    the resulting log bounds are computed by the Model.
    """

    f: Callable = uniform_density
    g: Callable = uniform_density


@dataclass(frozen=True)
class NondegeneracyCertificate:
    min_grad_norm: float
    threshold: float
    passed: bool
    witness: Optional[tuple] = None  # (x, y) minimizing |grad_x s_y|


@dataclass(frozen=True)
class SurplusSlice:
    """All surplus data at one target coordinate, on the quadrature points."""

    y: float
    sy: np.ndarray      # s_y(x_i, y)
    grad: np.ndarray    # grad_x s_y(x_i, y), shape (N, m)
    gnorm: np.ndarray   # |grad_x s_y|
    syy: np.ndarray     # s_yy(x_i, y)
    span: Optional[np.ndarray]  # s_y variation across one cell, or None (MC)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class Model:
    """Bundled problem data with cached quadrature and target CDF."""

    def __init__(self, domain: Domain, target: TargetInterval,
                 surplus: SurplusBundle, densities: Optional[DensityPair] = None,
                 quadrature: Optional[Quadrature] = None, *,
                 validate: bool = True, cdf_nodes: int = 2049,
                 nondegeneracy_rel_threshold: float = 1e-8):
        self.domain = domain
        self.target = target
        self.surplus = surplus
        if densities is None:
            densities = DensityPair()
        if quadrature is None:
            quadrature = default_quadrature(domain.dim)
        self.densities = densities
        self.quadrature = quadrature
        self.grid: QuadratureGrid = quadrature.materialize(domain)
        if self.grid.volume <= 0:
            raise EmptyDomain("estimated domain volume is not positive")
        self.nondegeneracy_threshold = nondegeneracy_rel_threshold * domain.scale

        # -- normalize f against this very quadrature
        f_raw = np.asarray(densities.f(self.grid.points), dtype=float)
        if np.any(~np.isfinite(f_raw)) or np.any(f_raw <= 0):
            raise ValueError("source density must be finite and strictly "
                             "positive at every quadrature point")
        z_f = float(np.sum(self.grid.weights * f_raw))
        self.f_scale = 1.0 / z_f
        self.f_vals = f_raw * self.f_scale
        self.point_mass = self.grid.weights * self.f_vals  # w_i f(x_i)

        # -- normalize g by Gauss-Legendre panels and cache the CDF
        nodes = np.linspace(target.y_lo, target.y_hi, cdf_nodes)
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        half = 0.5 * np.diff(nodes)
        eval_pts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        g_raw = np.asarray(densities.g(eval_pts), dtype=float)
        if np.any(~np.isfinite(g_raw)) or np.any(g_raw <= 0):
            raise ValueError("target density must be finite and strictly "
                             "positive on the target interval")
        panel = (g_raw.reshape(-1, 12) * _GL_WEIGHTS[None, :]).sum(axis=1) * half
        z_g = float(np.sum(panel))
        self.g_scale = 1.0 / z_g
        cdf = np.concatenate([[0.0], np.cumsum(panel)]) * self.g_scale
        cdf[-1] = 1.0
        self._cdf = PchipInterpolator(nodes, cdf, extrapolate=False)
        self._quantile = PchipInterpolator(cdf, nodes, extrapolate=False)

        g_node_vals = np.asarray(densities.g(nodes), dtype=float) * self.g_scale
        self.log_bounds = {
            "log_f": (float(np.min(np.log(self.f_vals))),
                      float(np.max(np.log(self.f_vals)))),
            "log_g": (float(np.min(np.log(g_node_vals))),
                      float(np.max(np.log(g_node_vals)))),
        }

        if validate:
            surplus.check_consistency(domain, target)
            self._check_boundary_normals()

        self._slice_cache: dict = {}
        self._certificate: Optional[NondegeneracyCertificate] = None
        self._surplus_scale: Optional[float] = None

    # ------------------------------------------------------------------
    # density access
    # ------------------------------------------------------------------

    def f_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.densities.f(np.atleast_2d(x)), dtype=float) * self.f_scale

    def g_at(self, y) -> np.ndarray:
        return np.asarray(self.densities.g(np.atleast_1d(np.asarray(y, dtype=float))),
                          dtype=float) * self.g_scale

    # ------------------------------------------------------------------
    # surplus slices
    # ------------------------------------------------------------------

    def slice_at(self, y: float) -> SurplusSlice:
        key = float(y)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        pts = self.grid.points
        sy = np.asarray(self.surplus.s_y(pts, key), dtype=float)
        grad = np.asarray(self.surplus.grad_x_s_y(pts, key), dtype=float)
        gnorm = np.linalg.norm(grad, axis=1)
        syy = np.asarray(self.surplus.s_yy(pts, key), dtype=float)
        if self.grid.spacing is not None:
            span = np.abs(grad) @ self.grid.spacing
            span = np.maximum(span, 1e-30)
        else:
            span = None
        sl = SurplusSlice(y=key, sy=sy, grad=grad, gnorm=gnorm, syy=syy, span=span)
        # solves and scans revisit at most a handful of target values at a
        # time; a deep cache would hold O(100 MB) of slices on 3-d grids
        if len(self._slice_cache) >= 8:
            self._slice_cache.pop(next(iter(self._slice_cache)))
        self._slice_cache[key] = sl
        return sl

    @property
    def surplus_scale(self) -> float:
        """max |s| over quadrature points and a coarse y sample."""
        if self._surplus_scale is None:
            ys = self.target.interior_grid(5, clustered=False)
            vals = [np.max(np.abs(self.surplus.s(self.grid.points, y))) for y in ys]
            self._surplus_scale = max(1e-12, float(np.max(vals)))
        return self._surplus_scale

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------

    @property
    def certificate(self) -> NondegeneracyCertificate:
        if self._certificate is None:
            self._certificate = certify_nondegeneracy(self)
        return self._certificate

    def require_nondegenerate(self):
        cert = self.certificate
        if not cert.passed:
            raise Degenerate(
                f"|grad_x s_y| reaches {cert.min_grad_norm:.3e} "
                f"(threshold {cert.threshold:.3e}) at witness {cert.witness}")

    def _check_boundary_normals(self):
        if self.domain.boundary_normal is None:
            return
        pts = self.grid.points[self.grid.boundary_adjacent]
        if pts.shape[0] == 0:
            return
        sel = pts[:: max(1, pts.shape[0] // 64)]
        normals = np.atleast_2d(self.domain.boundary_normal(sel))
        norms = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("boundary_normal oracle returned non-unit vectors")


def default_quadrature(dim: int) -> Quadrature:
    """Tensor midpoint grids at desk scale for m <= 3, seeded Monte Carlo
    beyond."""
    if dim <= 3:
        return Quadrature(mode="tensor", resolution={1: 2048, 2: 256, 3: 64}[dim])
    return Quadrature(mode="monte-carlo", resolution=200_000, seed=0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def certify_nondegeneracy(model: Model) -> NondegeneracyCertificate:
    """Minimum of |grad_x s_y| over quadrature points and a clustered
    17-node y sample, polished by a local search so interior zeros hiding
    between grid points are found; passes iff the minimum clears
    ``model.nondegeneracy_threshold``."""
    if model.grid.n_points == 0:
        raise EmptyDomain("no interior quadrature points")
    thr = model.nondegeneracy_threshold
    best = np.inf
    witness = None
    for y in model.target.interior_grid(17):
        sl = model.slice_at(float(y))
        i = int(np.argmin(sl.gnorm))
        if sl.gnorm[i] < best:
            best = float(sl.gnorm[i])
            witness = (model.grid.points[i].copy(), float(y))

    # local polish around the sampled minimizer (x only; the y scan is dense
    # enough for the smooth bundles we accept)
    x0, y0 = witness
    penalty = best * 10 + 1.0

    def objective(x):
        x = np.asarray(x)[None, :]
        if not model.domain.contains(x)[0]:
            return penalty
        g = np.asarray(model.surplus.grad_x_s_y(x, y0), dtype=float)
        return float(np.linalg.norm(g[0]))

    from scipy.optimize import minimize
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"xatol": 1e-12 * model.domain.scale,
                            "fatol": 1e-14, "maxiter": 400})
    if res.fun < best:
        best = float(res.fun)
        witness = (np.asarray(res.x), y0)

    passed = best > thr
    return NondegeneracyCertificate(min_grad_norm=best, threshold=thr,
                                    passed=passed,
                                    witness=None if passed else witness)


def target_cdf(model: Model, y) -> np.ndarray:
    """G(y) = nu[(-infty, y)] from the cached monotone interpolant."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = model.target.y_lo, model.target.y_hi
    slack = 1e-12 * max(1.0, model.target.length)
    if np.any(y_arr < lo - slack) or np.any(y_arr > hi + slack):
        raise OutOfRange(f"target coordinate outside [{lo}, {hi}]")
    out = model._cdf(np.clip(y_arr, lo, hi))
    return out if np.ndim(y) else float(out[0])

def target_quantile(model: Model, q) -> np.ndarray:
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(q_arr < -1e-12) or np.any(q_arr > 1 + 1e-12):
        raise OutOfRange("quantile level outside [0, 1]")
    out = model._quantile(np.clip(q_arr, 0.0, 1.0))
    return out if np.ndim(q) else float(out[0])


def region_mass(model: Model, predicate: Callable) -> float:
    """mu-mass of {x : predicate(x)}; empty regions give 0."""
    mask = np.asarray(predicate(model.grid.points), dtype=bool)
    return float(np.sum(model.point_mass[mask]))

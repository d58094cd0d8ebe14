"""Model assembly: domain + target + surplus + densities + quadrature.

A Model normalizes both densities against its own quadrature (so mass
balance residuals downstream are free of normalization bias), caches the
target CDF on a fine grid with monotone interpolation, and certifies
non-degeneracy |grad_x s_y| > 0 on demand.

A Model is not immutable: ``slice_at`` keeps the last surplus slice (only
a solve node revisits a target value, back to back, and a 3-d slice is
tens of MB), and ``certificate`` and ``surplus_scale`` are computed on
first use and stored.  None of this is locked, so one Model must not be
called from several threads at once; give each thread its own Model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._pchip import Pchip
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
    of target coordinates to positive values.  Normalization constants are
    computed by the Model.
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
    """The surplus data every consumer reads at one target coordinate, on
    every quadrature point: s_y, grad_x s_y (whose row norms ``grad_norm``
    takes where a sample needs them), the cell spans and their maximum.
    s_yy is not kept: the level-set sampler evaluates it on its samples."""

    y: float
    sy: np.ndarray      # s_y(x_i, y)
    grad: np.ndarray    # grad_x s_y(x_i, y), shape (N, m)
    span: Optional[np.ndarray]  # s_y variation across one cell, or None (MC)
    max_span: float     # max of span; 0.0 on Monte Carlo grids


def grad_norm(grad: np.ndarray) -> np.ndarray:
    """Row norms of an (N, m) gradient array, as np.linalg.norm(grad,
    axis=1) gives them (its row sums run in axis order for m < 8), without
    its strided short-row reduction."""
    sq = grad[:, 0] * grad[:, 0]
    for c in range(1, grad.shape[1]):
        sq += grad[:, c] * grad[:, c]
    return np.sqrt(sq)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class Model:
    """Bundled problem data; caches quadrature, total mass, target CDF and
    last slice."""

    def __init__(self, domain: Domain, target: TargetInterval,
                 surplus: SurplusBundle, densities: Optional[DensityPair] = None,
                 quadrature: Optional[Quadrature] = None):
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

        # -- normalize f against this very quadrature
        f_raw = np.asarray(densities.f(self.grid.points), dtype=float)
        if np.any(~np.isfinite(f_raw)) or np.any(f_raw <= 0):
            raise ValueError("source density must be finite and strictly "
                             "positive at every quadrature point")
        z_f = float(np.sum(self.grid.weights * f_raw))
        self.f_scale = 1.0 / z_f
        self.f_vals = f_raw * self.f_scale
        self.point_mass = self.grid.weights * self.f_vals  # w_i f(x_i)
        self.total_mass = float(np.sum(self.point_mass))

        # -- normalize g by Gauss-Legendre panels and cache the CDF
        nodes = np.linspace(target.y_lo, target.y_hi, 2049)
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
        self._cdf = Pchip(nodes, cdf)
        self._quantile = Pchip(cdf, nodes)

        surplus.check_consistency(domain, target)
        self._check_boundary_normals()

        self._slice: Optional[SurplusSlice] = None
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
        """The slice at y, kept until another y is asked for; when the
        surplus declares ``sy_free_of_y``, the first one serves every y."""
        key = float(y)
        last = self._slice
        if last is not None and (last.y == key or self.surplus.sy_free_of_y):
            return last
        pts = self.grid.points
        sy = np.asarray(self.surplus.s_y(pts, key), dtype=float)
        grad = np.asarray(self.surplus.grad_x_s_y(pts, key), dtype=float)
        span = None if self.grid.spacing is None \
            else np.maximum(np.abs(grad) @ self.grid.spacing, 1e-30)
        self._slice = SurplusSlice(
            y=key, sy=sy, grad=grad, span=span,
            max_span=0.0 if span is None else float(np.max(span)))
        return self._slice

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
    """Cut-cell tensor grids at desk scale for m <= 3, seeded Monte Carlo
    beyond."""
    if dim <= 3:
        return Quadrature(mode="tensor", resolution={1: 2048, 2: 128, 3: 56}[dim])
    return Quadrature(mode="monte-carlo", resolution=200_000, seed=0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def certify_nondegeneracy(model: Model) -> NondegeneracyCertificate:
    """Minimum of |grad_x s_y| over quadrature points and a clustered
    17-node y sample, polished by a compass search so interior zeros hiding
    between grid points are found; passes iff the minimum clears 1e-8 of
    the domain's scale."""
    if model.grid.n_points == 0:
        raise EmptyDomain("no interior quadrature points")
    thr = 1e-8 * model.domain.scale
    best = np.inf
    witness = None
    for y in model.target.interior_grid(17):
        gnorm = grad_norm(np.asarray(
            model.surplus.grad_x_s_y(model.grid.points, float(y)), dtype=float))
        i = int(np.argmin(gnorm))
        if gnorm[i] < best:
            best = float(gnorm[i])
            witness = (model.grid.points[i].copy(), float(y))

    # compass search (Kolda, Lewis & Torczon, SIAM Review 45, 2003) in x only
    # (the y scan is dense enough for the smooth bundles we accept): poll
    # +-step on each axis, move to the best poll lowering |grad_x s_y|, else halve
    y0 = witness[1]
    penalty = best * 10 + 1.0
    polls = np.concatenate([np.eye(model.domain.dim), -np.eye(model.domain.dim)])
    step = 0.05 * model.domain.scale
    for _ in range(400):
        if step <= 1e-12 * model.domain.scale:
            break
        trial = witness[0] + step * polls
        inside = model.domain.contains(trial)
        vals = np.full(trial.shape[0], penalty)
        if inside.any():
            g = model.surplus.grad_x_s_y(trial[inside], y0)
            vals[inside] = np.linalg.norm(np.asarray(g, dtype=float), axis=1)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best, witness = float(vals[j]), (trial[j], y0)
        else:
            step *= 0.5

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

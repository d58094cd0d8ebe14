"""Source domains, target intervals and quadrature rules.

Domains are implicit: a bounding box plus an inside-indicator (and an
optional boundary-normal oracle).  Nothing is ever meshed; every volume
and surface quantity downstream is computed from quadrature points that
carry cell geometry with them.  Tensor grids are cut-cell rules (the
volume fractions of Johansen & Colella, J. Comput. Phys. 147, 1998): a
cell at the boundary weighs its inside share and sits at its inside
centroid, both read from 4^m sub-samples, so a curved boundary costs a
second-order error rather than a first-order staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EmptyDomain

Indicator = Callable[[np.ndarray], np.ndarray]
NormalOracle = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Domain:
    """Implicit source region X in R^m.

    ``inside`` maps an (N, m) array of points (C- or column-major) to an
    (N,) boolean mask and must return False everywhere outside ``bbox``.  ``boundary_normal``,
    when supplied, maps boundary-adjacent points to outward unit vectors.
    """

    dim: int
    bbox: np.ndarray  # shape (2, m): stacked (lower, upper) corners
    inside: Indicator
    boundary_normal: Optional[NormalOracle] = None

    def __post_init__(self):
        bbox = np.asarray(self.bbox, dtype=float).reshape(2, self.dim)
        object.__setattr__(self, "bbox", bbox)
        if not np.all(bbox[1] > bbox[0]):
            raise ValueError("bbox must have strictly positive extent on every axis")

    @property
    def extent(self) -> np.ndarray:
        return self.bbox[1] - self.bbox[0]

    @property
    def scale(self) -> float:
        """Characteristic length: the largest bbox extent."""
        return float(np.max(self.extent))

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        in_box = np.all((x >= self.bbox[0]) & (x <= self.bbox[1]), axis=1)
        out = np.zeros(x.shape[0], dtype=bool)
        if np.any(in_box):
            out[in_box] = np.asarray(self.inside(x[in_box]), dtype=bool)
        return out

    def sample_interior(self, n: int, seed: int = 0, margin: float = 0.0) -> np.ndarray:
        """Draw n interior points by seeded rejection sampling.

        With margin > 0 a point is kept only if the 2m-point stencil at
        distance margin*scale stays inside, which keeps probes away from
        the boundary.
        """
        rng = np.random.default_rng(seed)
        lo, hi = self.bbox
        pts = np.empty((0, self.dim))
        delta = margin * self.scale
        attempts = 0
        while pts.shape[0] < n:
            cand = lo + (hi - lo) * rng.random((max(4 * n, 256), self.dim))
            keep = self.contains(cand)
            if delta > 0:
                for j in range(self.dim):
                    for sgn in (-1.0, 1.0):
                        shifted = cand.copy()
                        shifted[:, j] += sgn * delta
                        keep &= self.contains(shifted)
            pts = np.vstack([pts, cand[keep]])
            attempts += 1
            if attempts > 200:
                raise EmptyDomain("rejection sampling failed; is the domain empty?")
        return pts[:n]


@dataclass(frozen=True)
class TargetInterval:
    """Open target interval Y = (y_lo, y_hi) on the line."""

    y_lo: float
    y_hi: float

    def __post_init__(self):
        object.__setattr__(self, "y_lo", float(self.y_lo))
        object.__setattr__(self, "y_hi", float(self.y_hi))
        if not self.y_lo < self.y_hi:
            raise ValueError("need y_lo < y_hi")

    @property
    def length(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.y_lo + self.y_hi)

    def interior_grid(self, n: int, clustered: bool = True) -> np.ndarray:
        """n strictly interior nodes; Chebyshev roots cluster at the
        endpoints where the split curve may lose smoothness."""
        if clustered:
            i = np.arange(n)
            t = -np.cos((2 * i + 1) * np.pi / (2 * n))  # in (-1, 1)
        else:
            t = (2 * np.arange(1, n + 1) / (n + 1.0)) - 1.0
        return self.mid + 0.5 * self.length * t


@dataclass(frozen=True)
class QuadratureGrid:
    """Materialized quadrature: interior points with weights.

    For tensor grids ``spacing`` holds the cell side per axis, each weight
    is the inside share of its cell times the cell volume, and
    ``boundary_adjacent`` flags the cut cells: those within one axis step
    of an indicator change (or on a bbox face), including every kept cell
    whose midpoint is outside.  Monte Carlo grids carry equal weights
    box_volume / n_samples and no spacing.
    """

    points: np.ndarray          # (N, m)
    weights: np.ndarray         # (N,)
    spacing: Optional[np.ndarray]  # (m,) or None for monte-carlo
    boundary_adjacent: np.ndarray  # (N,) bool

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def volume(self) -> float:
        return float(np.sum(self.weights))


# Sub-samples per block of cut cells: a block's coordinates and the
# indicator's temporaries stay in cache (16,384 points, 384 KB in 3-d).
_SUBSAMPLE_BLOCK = 16384


@dataclass(frozen=True)
class Quadrature:
    """Quadrature configuration: deterministic given (mode, resolution, seed).

    mode 'tensor'      - cut-cell rule on ``resolution`` cells per axis:
                         cells away from the boundary keep their midpoint
                         and full weight; a cut cell (within one axis step
                         of an indicator change) weighs its inside share
                         of 4^m sub-samples and sits at their inside
                         centroid, and is dropped when none is inside.
                         Points come in x1-major cell order.
    mode 'monte-carlo' - ``resolution`` seeded uniform samples in the bbox
    """

    mode: str = "tensor"
    resolution: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("tensor", "monte-carlo"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")

    def materialize(self, dom: Domain) -> QuadratureGrid:
        if self.mode == "tensor":
            return self._tensor(dom)
        return self._monte_carlo(dom)

    def _tensor(self, dom: Domain) -> QuadratureGrid:
        m = dom.dim
        lo, hi = dom.bbox
        n = self.resolution
        spacing = (hi - lo) / n
        axes = [lo[j] + (np.arange(n) + 0.5) * spacing[j] for j in range(m)]
        # Midpoints and sub-samples lie strictly inside the bbox, so the
        # indicator is called directly, without Domain.contains's box test.
        # They are held column-major: the built-in indicators work on whole
        # coordinate columns, several times faster than on strided ones.
        pts = np.empty((n ** m, m), order="F")
        for j, g in enumerate(np.meshgrid(*axes, indexing="ij")):
            pts[:, j] = g.ravel()
        mask = np.asarray(dom.inside(pts), dtype=bool).reshape([n] * m)

        # The cut cells are those within one axis step of an indicator
        # change; the False padding makes inside cells on the grid edge cut
        # cells too (the domain can only reach the bbox face there, part of
        # its boundary).
        padded = np.pad(mask, 1)
        cut = np.zeros_like(mask)
        for j in range(m):
            for start in (0, 2):  # the neighbour below, then above, on axis j
                window = [slice(1, n + 1)] * m
                window[j] = slice(start, start + n)
                cut |= padded[tuple(window)] != mask
        mask, cut = mask.ravel(), cut.ravel()

        # Each cut cell is sub-sampled at the midpoints of its 4^m
        # sub-cells, at offsets of (-3, -1, 1, 3) eighths of the cell per
        # axis.  Its weight is the inside share of the cell and its point
        # the centroid of the inside sub-samples.  The offset sums are
        # small integers, so they are exact in any summation order, and a
        # cell wholly inside keeps its midpoint bit for bit.  The cells go
        # in blocks whose sub-samples fit in cache.
        eighths = np.stack(np.meshgrid(*[[-3.0, -1.0, 1.0, 3.0]] * m,
                                       indexing="ij"), axis=-1).reshape(-1, m)
        idx = np.flatnonzero(cut)
        count = np.empty(idx.size)
        offset = np.empty((idx.size, m))
        step = max(1, _SUBSAMPLE_BLOCK // eighths.shape[0])
        for start in range(0, idx.size, step):
            cells = idx[start:start + step]
            sub = np.empty((cells.size * eighths.shape[0], m), order="F")
            for j in range(m):
                sub[:, j] = (pts[cells, j, None]
                             + eighths[:, j] * (spacing[j] / 8.0)).ravel()
            hit = np.asarray(dom.inside(sub), dtype=float).reshape(cells.size, -1)
            count[start:start + step] = np.sum(hit, axis=1)
            offset[start:start + step] = hit @ eighths
        pts[idx] += offset / (8.0 * np.maximum(count, 1.0))[:, None] * spacing

        cell = float(np.prod(spacing))
        weights = np.where(mask, cell, 0.0)
        weights[idx] = cell * (count / eighths.shape[0])
        keep = weights > 0
        if not np.any(keep):
            raise EmptyDomain("no interior quadrature points")
        return QuadratureGrid(
            points=np.ascontiguousarray(pts[keep]),
            weights=weights[keep],
            spacing=spacing,
            boundary_adjacent=cut[keep],
        )

    def _monte_carlo(self, dom: Domain) -> QuadratureGrid:
        rng = np.random.default_rng(self.seed)
        lo, hi = dom.bbox
        pts = lo + (hi - lo) * rng.random((self.resolution, dom.dim))
        mask = dom.contains(pts)
        if not np.any(mask):
            raise EmptyDomain("no interior quadrature points")
        box_vol = float(np.prod(hi - lo))
        w = box_vol / self.resolution
        pts_in = pts[mask]
        # collar test at the typical inter-sample distance
        h = (box_vol / self.resolution) ** (1.0 / dom.dim)
        adjacent = np.zeros(pts_in.shape[0], dtype=bool)
        for j in range(dom.dim):
            for sgn in (-1.0, 1.0):
                shifted = pts_in.copy()
                shifted[:, j] += sgn * h
                adjacent |= ~dom.contains(shifted)
        return QuadratureGrid(
            points=pts_in,
            weights=np.full(pts_in.shape[0], w),
            spacing=None,
            boundary_adjacent=adjacent,
        )


# ---------------------------------------------------------------------------
# Built-in implicit domains
# ---------------------------------------------------------------------------

def box_domain(lo, hi) -> Domain:
    """Axis-aligned box; boundary normal points along the nearest face."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = lo.size

    def inside(x):
        return np.all((x > lo) & (x < hi), axis=1)

    def normal(x):
        x = np.atleast_2d(x)
        j = np.argmin(np.concatenate([x - lo, hi - x], axis=1), axis=1)
        out = np.zeros_like(x)
        out[np.arange(x.shape[0]), j % m] = np.where(j < m, -1.0, 1.0)
        return out

    return Domain(dim=m, bbox=np.stack([lo, hi]), inside=inside,
                  boundary_normal=normal)


def annulus_domain(r_inner: float = 0.0, r_outer: float = 1.0) -> Domain:
    """Planar annulus r_inner < |x| < r_outer; r_inner = 0 gives the
    punctured disk."""
    if not 0.0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")

    def inside(x):
        r2 = np.sum(x * x, axis=1)
        return (r2 < r_outer ** 2) & (r2 > r_inner ** 2)

    def normal(x):
        x = np.atleast_2d(x)
        r = np.sqrt(np.sum(x * x, axis=1))
        r = np.where(r == 0, 1.0, r)
        unit = x / r[:, None]
        if r_inner == 0.0:  # the puncture is not a hypersurface
            return unit
        # outward on the rim, inward-pointing (toward the hole) on the inner circle
        to_rim = r_outer - r
        to_hole = r - r_inner
        sign = np.where(to_rim <= to_hole, 1.0, -1.0)
        return unit * sign[:, None]

    b = r_outer
    return Domain(dim=2, bbox=np.array([[-b, -b], [b, b]]), inside=inside,
                  boundary_normal=normal)


def pie_slice_domain(theta0: float, radius: float = 1.0) -> Domain:
    """Planar sector r < radius, |atan2(x2, x1)| < theta0."""
    if not 0.0 < theta0 < np.pi:
        raise ValueError("need 0 < theta0 < pi")

    def inside(x):
        r2 = np.sum(x * x, axis=1)
        phi = np.arctan2(x[:, 1], x[:, 0])
        return (r2 < radius ** 2) & (np.abs(phi) < theta0) & (r2 > 0)

    def normal(x):
        x = np.atleast_2d(x)
        r = np.sqrt(np.sum(x * x, axis=1))
        r = np.where(r == 0, 1.0, r)
        phi = np.arctan2(x[:, 1], x[:, 0])
        out = np.empty_like(x)
        # distance to the rim vs to either straight edge
        d_rim = radius - r
        d_upper = r * np.abs(theta0 - phi)
        d_lower = r * np.abs(phi + theta0)
        on_rim = (d_rim <= d_upper) & (d_rim <= d_lower)
        upper = (~on_rim) & (d_upper <= d_lower)
        out[on_rim] = x[on_rim] / r[on_rim, None]
        # edge at angle +theta0 has outward normal (-sin t0, cos t0); at
        # -theta0 it is (-sin t0, -cos t0)
        out[upper] = np.array([-np.sin(theta0), np.cos(theta0)])
        lower = ~(on_rim | upper)
        out[lower] = np.array([-np.sin(theta0), -np.cos(theta0)])
        return out

    x1_lo = min(0.0, radius * np.cos(theta0))
    x2_hi = radius * (np.sin(theta0) if theta0 <= np.pi / 2 else 1.0)
    bbox = np.array([[x1_lo, -x2_hi], [radius, x2_hi]])
    return Domain(dim=2, bbox=bbox, inside=inside, boundary_normal=normal)


def paraboloid_domain(m: int = 2, flatness: float = 1.0, height: float = 1.0) -> Domain:
    """Solid region (|x'|^2 / 2)^flatness < x_1 < height with x' the last
    m-1 coordinates; flatness 1 is the round paraboloid."""
    if m < 2:
        raise ValueError("paraboloid domain needs m >= 2")
    if flatness < 1.0:
        raise ValueError("flatness must be >= 1")
    # widest section solves (w^2 / 2)^flatness = height
    half_width = np.sqrt(2.0) * height ** (1.0 / (2.0 * flatness))

    def inside(x):
        q = 0.5 * np.sum(x[:, 1:] ** 2, axis=1)
        lhs = q ** flatness if flatness != 1.0 else q
        return (lhs < x[:, 0]) & (x[:, 0] < height)

    def normal(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        q = 0.5 * np.sum(x[:, 1:] ** 2, axis=1)
        lhs = q ** flatness if flatness != 1.0 else q
        # nearer to the cap x_1 = height or to the bowl?
        d_cap = np.abs(height - x[:, 0])
        d_bowl = np.abs(x[:, 0] - lhs)
        on_cap = d_cap <= d_bowl
        out[on_cap, 0] = 1.0
        bowl = ~on_cap
        if np.any(bowl):
            # gradient of (q^flatness - x_1), outward points to smaller x_1
            grad = np.empty((int(np.sum(bowl)), x.shape[1]))
            grad[:, 0] = -1.0
            qb = q[bowl]
            fac = flatness * np.where(qb > 0, qb, 1.0) ** (flatness - 1.0)
            grad[:, 1:] = fac[:, None] * x[bowl][:, 1:]
            grad /= np.linalg.norm(grad, axis=1)[:, None]
            out[bowl] = grad
        return out

    lo = np.concatenate([[0.0], -half_width * np.ones(m - 1)])
    hi = np.concatenate([[height], half_width * np.ones(m - 1)])
    return Domain(dim=m, bbox=np.stack([lo, hi]), inside=inside,
                  boundary_normal=normal)


def interval_domain(a: float = 0.0, b: float = 1.0) -> Domain:
    """One-dimensional source segment (a, b)."""

    def inside(x):
        return (x[:, 0] > a) & (x[:, 0] < b)

    def normal(x):
        x = np.atleast_2d(x)
        return np.where(x - a < b - x, -1.0, 1.0)

    return Domain(dim=1, bbox=np.array([[a], [b]]), inside=inside,
                  boundary_normal=normal)

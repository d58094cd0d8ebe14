"""Surplus bundles: the objective s(x, y) and its derivatives.

A bundle carries vectorized evaluators for s, s_y, grad_x s_y and s_yy,
under one contract: each takes an (N, m) array of source points and a
target coordinate y that is a scalar or an (N,) array, and returns a
float64 ndarray of shape (N,), or (N, m) for grad_x s_y.  Callers use the
results as they are.  Built-in families (bilinear, circular-arc,
polynomial) supply exact derivatives and broadcast a scalar y; any bundle
is checked against the contract and probed for finite-difference
consistency when a model is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import Domain, TargetInterval


@dataclass(frozen=True)
class SurplusBundle:
    """``sy_free_of_y`` declares that s_y does not depend on y, so s_yy = 0
    (model assembly checks both): a model then keeps one slice for every y,
    the split solve inverts all nodes on one knot set and reduces every band
    from one ranking of s_y, and the map searches k and roots with s_yy = 0."""
    s: Callable
    s_y: Callable
    grad_x_s_y: Callable
    s_yy: Callable
    name: str = "custom"
    sy_free_of_y: bool = False

    def check_consistency(self, dom: Domain, target: TargetInterval) -> dict:
        """Check the evaluator contract, then probe the declared
        derivatives against central differences.

        Each evaluator is called with a scalar y and with one y per row; a
        result that is not a float64 ndarray of the contract's shape raises
        ValueError naming the evaluator.  Steps are 1e-5 of the box scale
        (1e-4 for the second y-derivative, where roundoff dominates at
        smaller steps).  Errors are relative to the larger of |exact| and
        the sampled magnitude of s_y.  Raises ValueError when any probe
        exceeds 1e-5, or when s_y declared free of y differs bitwise between
        two y values or has an s_yy that is not exactly 0 at a probe.
        """
        rng = np.random.default_rng(0)
        x = dom.sample_interior(100, seed=0)
        scale = max(dom.scale, target.length)
        h = 1e-5 * scale
        h2 = 1e-4 * scale
        pad = max(h, h2)
        ys = target.y_lo + pad + (target.length - 2 * pad) * rng.random(100)
        for name in ("s", "s_y", "grad_x_s_y", "s_yy"):
            shape, label = ((x.shape, "(N, m)") if name == "grad_x_s_y"
                            else (x.shape[:1], "(N,)"))
            for y in (float(ys[0]), ys):
                out = getattr(self, name)(x, y)
                if not (isinstance(out, np.ndarray) and out.shape == shape
                        and out.dtype == np.float64):
                    raise ValueError(
                        f"surplus bundle {self.name!r}: {name} must return a "
                        f"float64 ndarray of shape {label}, got "
                        f"{getattr(out, 'dtype', type(out).__name__)} "
                        f"of shape {np.shape(out)}")

        sy, syy = self.s_y(x, ys), self.s_yy(x, ys)
        if self.sy_free_of_y and not np.array_equal(sy, self.s_y(x, ys[::-1])):
            raise ValueError(f"surplus bundle {self.name!r} declares s_y free "
                             f"of y, but s_y differs between two y values")
        if self.sy_free_of_y and np.any(syy != 0):
            raise ValueError(f"surplus bundle {self.name!r} declares s_y free "
                             f"of y, but s_yy is not 0")
        ref = max(1.0, float(np.max(np.abs(sy))))

        fd_sy = (self.s(x, ys + h) - self.s(x, ys - h)) / (2 * h)
        err_sy = np.max(np.abs(fd_sy - sy)) / max(ref, float(np.max(np.abs(sy))))

        fd_syy = (self.s_y(x, ys + h2) - self.s_y(x, ys - h2)) / (2 * h2)
        err_syy = np.max(np.abs(fd_syy - syy)) / max(ref, float(np.max(np.abs(syy))))

        grad = self.grad_x_s_y(x, ys)
        err_grad = 0.0
        for j in range(dom.dim):
            xp = x.copy()
            xm = x.copy()
            xp[:, j] += h
            xm[:, j] -= h
            fd_j = (self.s_y(xp, ys) - self.s_y(xm, ys)) / (2 * h)
            denom = max(ref, float(np.max(np.abs(grad[:, j]))))
            err_grad = max(err_grad, float(np.max(np.abs(fd_j - grad[:, j]))) / denom)

        report = {"s_y": float(err_sy), "grad_x_s_y": float(err_grad),
                  "s_yy": float(err_syy)}
        worst = max(report.values())
        if worst > 1e-5:
            raise ValueError(
                f"surplus bundle {self.name!r} fails finite-difference "
                f"consistency: {report} (tol 1e-05)")
        return report


def bilinear_surplus(direction: Sequence[float]) -> SurplusBundle:
    """s(x, y) = y * (x . e) for a fixed unit direction e.

    This is the inner-product objective with targets on the segment
    {y e : y in Y}; s_y depends on x only, so the bundle is of index form
    with index x . e, and declares ``sy_free_of_y``.
    """
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)

    def s(x, y):
        return (x @ e) * y

    def s_y(x, y):
        del y
        return x @ e

    def grad(x, y):
        return np.tile(e, (x.shape[0], 1))

    def s_yy(x, y):
        return np.zeros(x.shape[0])

    return SurplusBundle(s=s, s_y=s_y, grad_x_s_y=grad, s_yy=s_yy,
                         name="bilinear", sy_free_of_y=True)


def arc_surplus() -> SurplusBundle:
    """s(x, t) = x1 cos t + x2 sin t: inner product against the unit
    circle parameterized by angle; the target lives on a circular arc.
    A scalar t takes one cosine and one sine, which broadcast over rows."""

    def s(x, t):
        return x[:, 0] * np.cos(t) + x[:, 1] * np.sin(t)

    def s_y(x, t):
        return -x[:, 0] * np.sin(t) + x[:, 1] * np.cos(t)

    def grad(x, t):  # free of x: a scalar t gives one row, tiled
        g = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        return g if g.ndim == 2 else np.tile(g, (x.shape[0], 1))

    def s_yy(x, t):
        return -s(x, t)

    return SurplusBundle(s=s, s_y=s_y, grad_x_s_y=grad, s_yy=s_yy,
                         name="arc")


def polynomial_surplus(terms: Sequence, dim: int) -> SurplusBundle:
    """Surplus from a coefficient table: s = sum c * prod x_j^a_j * y^p.

    Each term is a (coeff, x_powers, y_power) triple; every power must be a
    non-negative integer.  All derivatives are exact power-shift
    manipulations of the table.  A scalar y is raised to a power as a 0-d
    array, whose power matches the per-row one bit for bit (a Python
    float's power can differ in the last bit).
    """
    table = []
    for c, xp, yp in terms:
        if len(xp) != dim:
            raise ValueError(f"x_powers {tuple(xp)} does not match dim {dim}")
        powers = (*xp, yp)
        if any(p < 0 or p != int(p) for p in powers):
            raise ValueError(f"powers must be non-negative integers, "
                             f"got {powers}")
        table.append((float(c), tuple(int(a) for a in xp), int(yp)))

    def _eval(x, y, table):
        y = np.asarray(y, dtype=float)
        out = np.zeros(x.shape[0])
        for c, xp, yp in table:
            v = c
            for j, a in enumerate(xp):
                if a:
                    v = v * x[:, j] ** a
            if yp:
                v = v * y ** yp
            out += v
        return out

    def _dy(table):
        return tuple((c * p, xp, p - 1) for c, xp, p in table if p)

    def _dx(table, j):
        return tuple((c * xp[j], xp[:j] + (xp[j] - 1,) + xp[j + 1:], p)
                     for c, xp, p in table if xp[j])

    table_sy = _dy(table)
    table_syy = _dy(table_sy)
    tables_grad = [_dx(table_sy, j) for j in range(dim)]

    def s(x, y):
        return _eval(x, y, table)

    def s_y(x, y):
        return _eval(x, y, table_sy)

    def grad(x, y):
        return np.stack([_eval(x, y, tables_grad[j]) for j in range(dim)], axis=1)

    def s_yy(x, y):
        return _eval(x, y, table_syy)

    return SurplusBundle(s=s, s_y=s_y, grad_x_s_y=grad, s_yy=s_yy,
                         name="polynomial")

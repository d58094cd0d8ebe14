"""Surplus bundles: the objective s(x, y) and its derivatives.

A bundle carries vectorized evaluators for s, s_y, grad_x s_y and s_yy.
Every evaluator takes an (N, m) array of source points and a target
coordinate y that may be a scalar or an (N,) array; results broadcast
accordingly.  Built-in families (bilinear, circular-arc, polynomial)
supply exact derivatives; arbitrary bundles are accepted but are probed
for finite-difference consistency when a model is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import Domain, TargetInterval


@dataclass(frozen=True)
class SurplusBundle:
    s: Callable
    s_y: Callable
    grad_x_s_y: Callable
    s_yy: Callable
    name: str = "custom"

    def check_consistency(self, dom: Domain, target: TargetInterval,
                          n_probes: int = 100, seed: int = 0) -> dict:
        """Probe the declared derivatives against central differences.

        Steps are 1e-5 of the box scale (1e-4 for the second y-derivative,
        where roundoff dominates at smaller steps).  Errors are relative to
        the larger of |exact| and the sampled magnitude of s_y.
        Raises ValueError when any probe exceeds 1e-5.
        """
        rng = np.random.default_rng(seed)
        x = dom.sample_interior(n_probes, seed=seed)
        scale = max(dom.scale, target.length)
        h = 1e-5 * scale
        h2 = 1e-4 * scale
        pad = max(h, h2)
        ys = target.y_lo + pad + (target.length - 2 * pad) * rng.random(n_probes)

        sy = self.s_y(x, ys)
        ref = max(1.0, float(np.max(np.abs(sy))))

        fd_sy = (self.s(x, ys + h) - self.s(x, ys - h)) / (2 * h)
        err_sy = np.max(np.abs(fd_sy - sy)) / max(ref, float(np.max(np.abs(sy))))

        syy = self.s_yy(x, ys)
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


def _as_scalar_or_rows(y, n):
    """Broadcast y to shape (n,) when it is a scalar."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        return np.full(n, float(y))
    return y


def bilinear_surplus(direction: Sequence[float]) -> SurplusBundle:
    """s(x, y) = y * (x . e) for a fixed unit direction e.

    This is the inner-product objective with targets on the segment
    {y e : y in Y}; s_y depends on x only, so the bundle is of index form
    with index x . e.
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
                         name="bilinear")


def arc_surplus() -> SurplusBundle:
    """s(x, t) = x1 cos t + x2 sin t: inner product against the unit
    circle parameterized by angle; the target lives on a circular arc."""

    def s(x, t):
        t = _as_scalar_or_rows(t, x.shape[0])
        return x[:, 0] * np.cos(t) + x[:, 1] * np.sin(t)

    def s_y(x, t):
        t = _as_scalar_or_rows(t, x.shape[0])
        return -x[:, 0] * np.sin(t) + x[:, 1] * np.cos(t)

    def grad(x, t):
        t = _as_scalar_or_rows(t, x.shape[0])
        return np.stack([-np.sin(t), np.cos(t)], axis=1)

    def s_yy(x, t):
        t = _as_scalar_or_rows(t, x.shape[0])
        return -(x[:, 0] * np.cos(t) + x[:, 1] * np.sin(t))

    return SurplusBundle(s=s, s_y=s_y, grad_x_s_y=grad, s_yy=s_yy,
                         name="arc")


@dataclass(frozen=True)
class PolyTerm:
    coeff: float
    x_powers: tuple  # length m, non-negative integers
    y_power: int


def polynomial_surplus(terms: Sequence, dim: int) -> SurplusBundle:
    """Surplus from a coefficient table: s = sum c * prod x_j^a_j * y^p.

    Terms may be PolyTerm instances, (coeff, x_powers, y_power) tuples or
    {"coeff":, "x_powers":, "y_power":} dicts.  All derivatives are exact
    power-shift manipulations of the table.
    """
    parsed = []
    for t in terms:
        if isinstance(t, PolyTerm):
            c, xp, yp = t.coeff, t.x_powers, t.y_power
        elif isinstance(t, dict):
            c, xp, yp = t["coeff"], t["x_powers"], t["y_power"]
        else:
            c, xp, yp = t
        xp = tuple(int(a) for a in xp)
        if len(xp) != dim:
            raise ValueError(f"x_powers {xp} does not match dim {dim}")
        if min(xp) < 0 or yp < 0:
            raise ValueError("powers must be non-negative")
        parsed.append(PolyTerm(float(c), xp, int(yp)))
    parsed = tuple(parsed)

    def _eval(x, y, table):
        y = _as_scalar_or_rows(y, x.shape[0])
        out = np.zeros(x.shape[0])
        for term in table:
            v = np.full(x.shape[0], term.coeff)
            for j, a in enumerate(term.x_powers):
                if a:
                    v = v * x[:, j] ** a
            if term.y_power:
                v = v * y ** term.y_power
            out += v
        return out

    def _dy(table):
        return tuple(PolyTerm(t.coeff * t.y_power, t.x_powers, t.y_power - 1)
                     for t in table if t.y_power >= 1)

    def _dx(table, j):
        out = []
        for t in table:
            a = t.x_powers[j]
            if a >= 1:
                xp = list(t.x_powers)
                xp[j] = a - 1
                out.append(PolyTerm(t.coeff * a, tuple(xp), t.y_power))
        return tuple(out)

    table_sy = _dy(parsed)
    table_syy = _dy(table_sy)
    tables_grad = [_dx(table_sy, j) for j in range(dim)]

    def s(x, y):
        return _eval(x, y, parsed)

    def s_y(x, y):
        return _eval(x, y, table_sy)

    def grad(x, y):
        return np.stack([_eval(x, y, tables_grad[j]) for j in range(dim)], axis=1)

    def s_yy(x, y):
        return _eval(x, y, table_syy)

    return SurplusBundle(s=s, s_y=s_y, grad_x_s_y=grad, s_yy=s_yy,
                         name="polynomial")

"""The by-splitting map: the tests' independent reference for the split.

F(x) roots psi_x(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y), re-solving the
proportional-splitting equation at x.  It ranks the whole grid afresh at
every scan node and never reads the solved curve's levels, so it checks
the library's by-level map (which roots s_y(x, y) - k(y) on the solved
curve) and its unique-splitting criterion (which reads the sign of
h_k (s_y - k) off the curve) from outside.  The two maps agree exactly
when the model is nested.
"""

import logging

import numpy as np

from nestor.errors import NestorError
from nestor.levelsets import sublevel_mass
from nestor.model import Model, target_cdf
from nestor.nestedness import count_sign_changes, effective_deadband
from nestor.solver import SplitCurve

logger = logging.getLogger(__name__)


class NonNested(NestorError):
    """A splitting equation has several roots; carries the witnesses."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses if witnesses is not None else []


def splitting_profile(model: Model, x: np.ndarray,
                      y_scan: np.ndarray) -> np.ndarray:
    """psi_x(y) = mu[{s_y(., y) <= s_y(x, y)}] - G(y) sampled on y_scan,
    one row per probe point, for the by-splitting map; it ranks the grid
    afresh at every scan node, so it does not read the solved curve (the
    unique-splitting criterion does, and the tests use this profile as its
    independent reference).

    Masses here are binary (sorted cumulative lookup, O(N log N) per scan
    node); their jitter is far below the sign deadbands used on psi.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pts = model.grid.points
    psi = np.empty((x.shape[0], y_scan.size))
    for j, yj in enumerate(y_scan):
        sy = np.asarray(model.surplus.s_y(pts, float(yj)), dtype=float)
        order = np.argsort(sy, kind="stable")
        sy_sorted = sy[order]
        cum = np.concatenate([[0.0], np.cumsum(model.point_mass[order])])
        kv = np.asarray(model.surplus.s_y(x, float(yj)), dtype=float)
        idx = np.searchsorted(sy_sorted, kv, side="right")
        psi[:, j] = cum[idx] - target_cdf(model, float(yj))
    return psi


def map_by_splitting(model: Model, curve: SplitCurve, x: np.ndarray):
    """Map source points by rooting psi, scanned on 65 uniform nodes,
    raising NonNested when psi changes sign more than once.  Points beyond
    the extreme level sets clamp to the interval ends.  Roots are resolved
    to 1e-8 of the target length."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    y_scan = model.target.interior_grid(65, clustered=False)
    psi = splitting_profile(model, x, y_scan)
    mass_noise = effective_deadband(model)
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

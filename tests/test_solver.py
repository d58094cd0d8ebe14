import logging
import re
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestor import levelsets, solver
from nestor import scenarios as sc
from nestor.errors import BracketFailure, EmptyBand, ZeroSpeed
from nestor.geometry import Quadrature, TargetInterval, interval_domain
from nestor.levelsets import (grad_h, level_set, sublevel_mass,
                              surface_integral)
from nestor.model import Model, target_cdf
from nestor.nestedness import nestedness_report
from nestor.solver import (SplitCurve, balance_residual, interpolation_error,
                           map_gradient, optimal_map, pushforward_distance,
                           solve_split_curve, source_payoff)
from nestor.surplus import bilinear_surplus
from splitting_reference import NonNested, map_by_splitting


def test_split_curve_identity(uni1d):
    c = uni1d.curve
    assert np.max(np.abs(c.k_plus - c.y_grid)) < 2e-6
    assert np.all(c.k_plus >= c.k_minus)
    assert not c.plateau_flags.any()
    inner = (c.y_grid > 0.05) & (c.y_grid < 0.95)
    assert np.max(np.abs(c.kprime[inner] - 1.0)) < 1e-3


def test_split_curve_paraboloid(par2):
    c = par2.curve
    mask = (c.y_grid >= 0.02) & (c.y_grid <= 0.98)
    assert np.max(np.abs(c.k_plus - c.y_grid ** (2 / 3))[mask]) <= 5e-3
    i = int(np.argmin(np.abs(c.y_grid - 0.5)))
    assert abs(c.kprime[i] - (2 / 3) * c.y_grid[i] ** (-1 / 3)) <= 1e-2


def test_nodes_satisfy_mass_tolerance(par2):
    c = par2.curve
    for i in range(0, c.y_grid.size, 32):
        y = float(c.y_grid[i])
        h = (sublevel_mass(par2.model, y, float(c.k_plus[i]))
             - target_cdf(par2.model, y))
        assert abs(h) <= 1e-6 + 1e-12


def test_kprime_matches_grad_h_formula(par2):
    c = par2.curve
    keep = (~c.tangential_flags) & (c.y_grid > 0.05) & (c.y_grid < 0.95)
    idx = np.nonzero(keep)[0][::8]
    for i in idx:
        gh = grad_h(par2.model, float(c.y_grid[i]), float(c.k_plus[i]))
        assert abs(c.kprime[i] + gh.h_y / gh.h_k) <= 1e-6


@pytest.mark.parametrize("name", ["par2", "pie_nested", "par3", "uni1d"])
def test_curve_keeps_node_level_set_reductions(name, request):
    # each node's h_k, h_y and s_yy range are those of a fresh auto sample
    # of X(y, k_plus), and NaN exactly where that sample is empty
    solved = request.getfixturevalue(name)
    model, c = solved.model, solved.curve
    n_empty = 0
    for i, y in enumerate(c.y_grid):
        y, k = float(y), float(c.k_plus[i])
        try:
            gh = grad_h(model, y, k)
            ls = level_set(model, y, k)
        except EmptyBand:
            n_empty += 1
            assert c.tangential_flags[i]
            assert np.all(np.isnan([c.h_k[i], c.h_y[i], c.syy_min[i],
                                    c.syy_max[i], *c.x_syy_max[i]]))
            continue
        assert c.h_k[i] == gh.h_k and c.h_y[i] == gh.h_y
        assert c.syy_min[i] == np.min(ls.syy)
        assert c.syy_max[i] == np.max(ls.syy)
        assert np.array_equal(c.x_syy_max[i], ls.points[np.argmax(ls.syy)])
        if not c.tangential_flags[i]:
            assert c.kprime[i] == -gh.h_y / gh.h_k
    assert n_empty < c.y_grid.size // 4


@pytest.mark.parametrize("name", ["par2", "par3"])
def test_curve_keeps_default_band_area(name, request):
    # curve.area is the sum the default band sample gives surface_integral,
    # bit for bit, and NaN where that sample is empty
    solved = request.getfixturevalue(name)
    model, c = solved.model, solved.curve
    for i, y in enumerate(c.y_grid):
        try:
            area = surface_integral(model, float(y), float(c.k_plus[i])).value
        except EmptyBand:
            assert np.isnan(c.area[i])
            continue
        assert c.area[i] == area
    analytic = SplitCurve.from_function(model.target, c.y_grid, lambda y: y)
    assert np.all(np.isnan(analytic.area))


def _balance_integral_residual(model, curve, y):
    """The balance residual as the direct integral over a fresh sample:
    g(y) - integral (k' - s_yy) f / |grad_x s_y| dH^{m-1}."""
    ls = level_set(model, y, curve.k_at(y))
    kp = curve.kprime_at(y)
    return float(model.g_at(y)[0]) \
        - float(np.sum(ls.measure * ls.f * (kp - ls.syy) / ls.gnorm))


def test_balance_residual_equals_direct_integral(par2, pie_nested, uni1d):
    for solved in (par2, pie_nested, uni1d):
        model, c = solved.model, solved.curve
        for y in c.y_grid:
            y = float(y)
            try:
                ref = _balance_integral_residual(model, c, y)
            except EmptyBand:
                assert np.isnan(balance_residual(model, c, y))
                continue
            assert abs(balance_residual(model, c, y) - ref) <= 1e-12


@pytest.mark.parametrize("name", ["par2", "par3"])
def test_balance_residual_reads_the_curve(name, request, monkeypatch):
    # the residual is arithmetic on the solve's stored h_y and h_k: it takes
    # no level-set sample and builds no surplus slice
    solved = request.getfixturevalue(name)
    model, curve = solved.model, solved.curve

    def no_sample(*args, **kwargs):
        raise AssertionError("balance_residual sampled the surplus")

    monkeypatch.setattr(solver, "level_set", no_sample)
    monkeypatch.setattr(levelsets, "level_set", no_sample)
    monkeypatch.setattr(levelsets, "grad_h", no_sample)
    monkeypatch.setattr(Model, "slice_at", no_sample)
    res = balance_residual(model, curve, curve.y_grid)
    scalar = [balance_residual(model, curve, float(y)) for y in curve.y_grid]
    assert np.array_equal(res, scalar, equal_nan=True)
    expected = -(curve.h_y + curve.kprime_at(curve.y_grid) * curve.h_k)
    assert np.array_equal(res, expected, equal_nan=True)


def test_too_few_nodes_are_a_value_error(par2):
    # from n_nodes through the library solve, and from a given y grid
    import nestor
    for call in (lambda: nestor.solve(par2.model, y_nodes=2),
                 lambda: nestor.solve(par2.model, y_nodes=1),
                 lambda: solve_split_curve(par2.model, y_grid=[0.3, 0.6])):
        with pytest.raises(ValueError, match="needs at least 3 nodes"):
            call()


def test_bracket_failure_when_mass_cannot_reach_target():
    model = Model(interval_domain(), TargetInterval(0, 1),
                  bilinear_surplus([1.0]))
    with pytest.raises(BracketFailure):
        levelsets._invert_sublevel(model, 0.5, 1.5, 1.5)
    with pytest.raises(BracketFailure):
        levelsets._invert_sublevel(model, 0.5, -0.5, -0.5)


def test_target_payoff_examples(uni1d, par2):
    c = uni1d.curve
    assert abs(c.v_at(0.5) - 0.125) < 1e-5
    assert abs(c.v_at(uni1d.model.target.y_lo)) == 0.0
    v = par2.curve.v_values
    ref = 0.6 * par2.curve.y_grid ** (5 / 3)
    diff = v - ref
    mask = (par2.curve.y_grid > 0.02) & (par2.curve.y_grid < 0.98)
    assert np.max(diff[mask]) - np.min(diff[mask]) <= 1e-2
    const = SplitCurve.from_function(uni1d.model.target,
                                     uni1d.curve.y_grid, lambda y: 2.0 + 0 * y)
    assert abs(const.v_at(0.75) - 2.0 * 0.75) < 1e-12


def test_optimal_map_examples(uni1d, par2, ball):
    xs = np.linspace(0.05, 0.95, 19)[:, None]
    # accuracy floor is the mass tolerance of the split solve (1e-6)
    assert np.max(np.abs(optimal_map(uni1d.model, uni1d.curve, xs)
                         - xs[:, 0])) < 3e-6
    f_val = optimal_map(par2.model, par2.curve, np.array([0.49, 0.1]))
    assert abs(f_val - 0.49 ** 1.5) <= 5e-3
    with pytest.raises(NonNested) as err:
        pts = ball.model.domain.sample_interior(40, seed=11)
        map_by_splitting(ball.model, ball.curve, pts)
    assert len(err.value.witnesses) > 0
    x_w, roots = err.value.witnesses[0]
    assert len(roots) > 1


def test_map_endpoint_clamping(par2):
    c = par2.curve
    lo = optimal_map(par2.model, c, np.array([1e-9, 0.0]))
    hi = optimal_map(par2.model, c, np.array([1.0 - 1e-12, 0.0]))
    assert 0.0 <= lo <= c.y_grid[1]
    assert c.y_grid[-2] <= hi <= 1.0


def test_map_methods_agree(par2, uni1d):
    for solved in (par2, uni1d):
        pts = solved.model.domain.sample_interior(40, seed=5, margin=0.02)
        by_level = optimal_map(solved.model, solved.curve, pts)
        by_split = map_by_splitting(solved.model, solved.curve, pts)
        assert np.max(np.abs(by_level - by_split)) <= 1e-4


def test_source_payoff_examples(uni1d, par2, ball):
    u, ay = source_payoff(par2.model, par2.curve, np.array([0.64, 0.0]))
    assert abs(u - 0.4 * 0.64 ** 2.5) <= 1e-2
    assert abs(ay - 0.64 ** 1.5) <= 1e-3
    xs = np.linspace(0.1, 0.9, 9)[:, None]
    u1, _ = source_payoff(uni1d.model, uni1d.curve, xs)
    assert np.max(np.abs(u1 - 0.5 * xs[:, 0] ** 2)) < 1e-4
    # explicit zero target payoff turns u into the radius
    pts = ball.model.domain.sample_interior(50, seed=2, margin=0.02)
    zero = SplitCurve.from_function(ball.model.target, ball.curve.y_grid,
                                    lambda y: np.zeros_like(np.asarray(y)))
    u0, _ = source_payoff(ball.model, zero, pts)
    assert np.max(np.abs(u0 - np.linalg.norm(pts, axis=1))) < 1e-6


def test_envelope_argmax_matches_map(par2):
    pts = par2.model.domain.sample_interior(60, seed=9, margin=0.02)
    _, ay = source_payoff(par2.model, par2.curve, pts)
    f_val = optimal_map(par2.model, par2.curve, pts)
    assert np.max(np.abs(ay - f_val)) <= 1e-9


def _dense_bisection_map(model, curve, x):
    """Reference by-level map: the first downcrossing of
    phi = s_y(x, .) - k on a grid four times denser than the curve nodes,
    bisected 60 times; NaN where phi does not cross downward there."""
    ys = np.linspace(curve.y_grid[0], curve.y_grid[-1], 4 * curve.y_grid.size)
    phi = np.stack([model.surplus.s_y(x, float(y)) - curve.k_at(float(y))
                    for y in ys], axis=1)
    down = (phi[:, :-1] > 0) & (phi[:, 1:] <= 0)
    rows = np.nonzero(down.any(axis=1))[0]
    j = np.argmax(down[rows], axis=1)
    a, b = ys[j], ys[j + 1]
    for _ in range(60):
        mid = 0.5 * (a + b)
        pos = model.surplus.s_y(x[rows], mid) - curve.k_at(mid) > 0
        a, b = np.where(pos, mid, a), np.where(pos, b, mid)
    out = np.full(x.shape[0], np.nan)
    out[rows] = 0.5 * (a + b)
    return out


@pytest.mark.parametrize("name", ["par2", "par3", "uni1d", "pie_nested"])
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), n=st.integers(1, 40))
def test_root_solve_map_and_payoff(request, name, seed, n):
    solved = request.getfixturevalue(name)
    model, c = solved.model, solved.curve
    x = model.domain.sample_interior(n, seed=seed, margin=0.02)
    y_tol = 1e-8 * (c.y_hi - c.y_lo)
    f_val = optimal_map(model, c, x)
    ref = _dense_bisection_map(model, c, x)
    crossed = np.isfinite(ref)
    assert np.count_nonzero(crossed) >= 0.9 * n
    assert np.max(np.abs(f_val - ref)[crossed], initial=0.0) <= y_tol
    u, argmax = source_payoff(model, c, x)
    # nested models: the sup of s - v sits on the map's root
    assert np.max(np.abs(argmax - f_val)[crossed], initial=0.0) <= 0.1 * y_tol
    node_vals = np.stack([model.surplus.s(x, float(y)) for y in c.y_grid],
                         axis=1) - c.v_at(c.y_grid)
    assert np.all(u >= np.max(node_vals, axis=1))
    on_graph = np.asarray(model.surplus.s(x, f_val)) - c.v_at(f_val)
    assert np.max(np.abs(u - on_graph)) <= 1e-12 * model.surplus_scale


def _dense_scans(model, curve, x):
    """Reference by-level map and source payoff with the points x nodes
    matrices the streamed scans replace: the first downcrossing bracket
    (else the first sign change) of the sampled phi = s_y - k, and
    np.argmax of the sampled s - v, in the same row blocks and with the
    same root and candidate arithmetic, on every row; also the rows whose
    sampled phi changes sign exactly once, downward."""
    def matrix(evaluate, xb, shift):
        out = np.empty((xb.shape[0], curve.y_grid.size))
        for j, yj in enumerate(curve.y_grid):
            out[:, j] = evaluate(xb, float(yj)) - shift[j]
        return out

    ys, chunk = curve.y_grid, solver._CHUNK
    y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
    ends = np.concatenate([[curve.y_lo], ys, [curve.y_hi]])
    f_val, u_val, y_star = (np.empty(x.shape[0]) for _ in range(3))
    settled = np.empty(x.shape[0], dtype=bool)
    for start in range(0, x.shape[0], chunk):
        xb = x[start:start + chunk]
        phi = matrix(model.surplus.s_y, xb, curve.k_plus)
        pos = phi > 0
        down = pos[:, :-1] & ~pos[:, 1:]
        anyc = pos[:, :-1] != pos[:, 1:]
        settled[start:start + chunk] = (np.sum(anyc, axis=1) == 1) \
            & down.any(axis=1)
        idx = np.where(down.any(axis=1), np.argmax(down, axis=1),
                       np.argmax(anyc, axis=1))
        f_val[start:start + chunk] = np.where(pos.all(axis=1), curve.y_hi,
                                              curve.y_lo)
        rows = np.nonzero(anyc.any(axis=1))[0]
        j = idx[rows]
        f_val[start + rows] = solver._level_root(
            model, curve, xb[rows], ys[j], ys[j + 1], phi[rows, j],
            phi[rows, j + 1], y_tol)

        cols = np.arange(xb.shape[0])
        vals = matrix(model.surplus.s, xb, curve.v_values)
        best = np.argmax(vals, axis=1)
        a, node, b = ends[best], ends[best + 1], ends[best + 2]
        fa, fb = (model.surplus.s_y(xb, e) - curve.k_at(e) for e in (a, b))
        cand_y = np.stack([node, node, a, b])
        rows = np.nonzero((fa > 0) != (fb > 0))[0]
        cand_y[0, rows] = solver._level_root(model, curve, xb[rows], a[rows],
                                             b[rows], fa[rows], fb[rows], y_tol)
        cand_u = (model.surplus.s(np.tile(xb, (4, 1)), cand_y.ravel())
                  - curve.v_at(cand_y.ravel())).reshape(4, -1)
        cand_u[1] = vals[cols, best]
        pick = np.argmax(cand_u, axis=0)
        u_val[start:start + chunk] = cand_u[pick, cols]
        y_star[start:start + chunk] = cand_y[pick, cols]
    return f_val, u_val, y_star, settled


def _row_kinds(model, curve, x):
    """Which sign patterns the rows of phi = s_y - k show on the nodes."""
    phi = np.stack([model.surplus.s_y(x, float(y)) - k
                    for y, k in zip(curve.y_grid, curve.k_plus)], axis=1)
    pos = phi > 0
    flips = np.sum(pos[:, :-1] != pos[:, 1:], axis=1)
    down = np.any(pos[:, :-1] & ~pos[:, 1:], axis=1)
    return {"down": np.any(down), "up only": np.any((flips > 0) & ~down),
            "all positive": np.any(pos.all(axis=1)),
            "all negative": np.any(~pos.any(axis=1)),
            "several": np.any(flips > 1)}


@pytest.mark.parametrize("name", ["par2", "par3", "pie_nested", "pie_wide",
                                  "ball"])
def test_streamed_scans_match_dense_reference(request, name):
    solved = request.getfixturevalue(name)
    model, c = solved.model, solved.curve
    # one block and 17 rows, inside the domain and far outside it
    inner = model.domain.sample_interior(solver._CHUNK + 17, seed=3)
    scale = model.domain.scale
    x = np.concatenate([inner, inner[:200] + 3 * scale, inner[:200] - 3 * scale])
    k_lo, k_hi = float(np.min(c.k_plus)), float(np.max(c.k_plus))
    mid, amp = 0.5 * (k_lo + k_hi), 0.5 * (k_hi - k_lo)
    curves = {
        "solved": c,
        # falling levels: phi crosses upward only
        "reversed": SplitCurve.from_function(
            model.target, c.y_grid, lambda y: c.k_at(c.y_lo + c.y_hi - y)),
        # oscillating levels: several sign changes per row
        "wiggly": SplitCurve.from_function(
            model.target, c.y_grid,
            lambda y: mid + 0.6 * amp * np.sin(
                5 * np.pi * (y - c.y_lo) / (c.y_hi - c.y_lo))),
        # shifted levels: rows that stay on one side at every node
        "raised": SplitCurve.from_function(
            model.target, c.y_grid, lambda y: c.k_at(y) + amp),
        "lowered": SplitCurve.from_function(
            model.target, c.y_grid, lambda y: c.k_at(y) - amp),
    }
    seen = dict.fromkeys(["down", "up only", "all positive", "all negative",
                          "several", "settled", "scanned"], False)
    for curve in curves.values():
        f_val = optimal_map(model, curve, x)
        u_val, y_star = source_payoff(model, curve, x)
        f_ref, u_ref, y_ref, settled = _dense_scans(model, curve, x)
        y_tol = 1e-8 * (curve.y_hi - curve.y_lo)
        # the walk settles exactly the rows with a single downward sign
        # change; the payoff reads those off F and scans s - v on the rest
        assert np.array_equal(
            solver._map_by_level(model, curve, x, y_tol)[1], settled)
        assert np.array_equal(f_val, f_ref)
        assert np.array_equal(u_val[~settled], u_ref[~settled])
        assert np.array_equal(y_star[~settled], y_ref[~settled])
        # settled rows agree to rounding wherever the reference lands on a
        # root of phi; elsewhere its sup is the lower one
        tol = 1e-15 * np.maximum(1.0, np.abs(u_ref))
        assert np.all((u_val >= u_ref - tol)[settled])
        on_root = settled & (np.abs(model.surplus.s_y(x, y_ref)
                                    - curve.k_at(y_ref)) <= 1e-9)
        assert np.all((np.abs(u_val - u_ref) <= tol)[on_root])
        assert np.max(np.abs(y_star - y_ref)[on_root], initial=0.0) <= 1e-12
        for kind, present in _row_kinds(model, curve, x).items():
            seen[kind] |= bool(present)
        seen["settled"] |= bool(settled.any())
        seen["scanned"] |= bool((~settled).any())
    assert all(seen.values()), seen


def test_scan_root_past_the_last_node(par3, caplog):
    # row 764 of the dense-reference sample under its lowered curve: the
    # payoff's scan brackets its root on [y_n-2, y_hi], across the last
    # node, beyond which k is held constant; with the end node's slope in
    # phi' there the Newton steps crept and hit the step cap, and u fell
    # 1.9e-14 short of s(x, F) - v(F)
    model, c = par3.model, par3.curve
    k_lo, k_hi = float(np.min(c.k_plus)), float(np.max(c.k_plus))
    lowered = SplitCurve.from_function(
        model.target, c.y_grid, lambda y: c.k_at(y) - 0.5 * (k_hi - k_lo))
    x = model.domain.sample_interior(solver._CHUNK + 17, seed=3)[764:765]
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        f_val = optimal_map(model, lowered, x)
        _, u_scan, _, _ = _dense_scans(model, lowered, x)
    assert "step cap" not in caplog.text
    on_graph = model.surplus.s(x, f_val) - lowered.v_at(f_val)
    assert np.max(np.abs(u_scan - on_graph)) <= 1e-15


def test_payoff_evaluates_s_once_at_the_map(par2, monkeypatch):
    # every interior row of par2 is settled by the map's node walk, so the
    # payoff evaluates s once, on all rows at F, and scans no s - v
    model, c = par2.model, par2.curve
    x = model.domain.sample_interior(2000, seed=5, margin=0.01)
    calls, s = [], model.surplus.s

    def counting(xs, y):
        calls.append((xs.copy(), np.array(y, dtype=float)))
        return s(xs, y)

    monkeypatch.setattr(model, "surplus", replace(model.surplus, s=counting))
    _, y_star = source_payoff(model, c, x)
    f_val = optimal_map(model, c, x)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], x) and np.array_equal(calls[0][1], f_val)
    assert np.array_equal(y_star, f_val)


def test_one_walk_gives_the_map_and_the_payoff(ball):
    # on the non-nested ball the payoff's scan moves y* off F on some rows;
    # F must still be the map's value there, bit for bit
    model, c = ball.model, ball.curve
    x = model.domain.sample_interior(2000, seed=5, margin=0.01)
    f_val, u_val, y_star = solver.map_and_payoff(model, c, x)
    u_ref, y_ref = source_payoff(model, c, x)
    assert np.array_equal(f_val, optimal_map(model, c, x))
    assert np.array_equal(u_val, u_ref) and np.array_equal(y_star, y_ref)
    assert np.any(y_star != f_val)


def test_payoff_tie_keeps_the_first_node():
    # s = x1 (y^2/2 - y^4) - v with v = 0 peaks at y = -1/2 and y = 1/2,
    # nodes 2 and 6, with bit-equal values: the first node wins, as with
    # np.argmax, so the payoff lands at y = -1/2
    from nestor.geometry import box_domain
    from nestor.surplus import polynomial_surplus
    model = Model(box_domain([0, 0], [1, 1]), TargetInterval(-1, 1),
                  polynomial_surplus([(0.5, (1, 0), 2), (-1.0, (1, 0), 4)], 2),
                  quadrature=Quadrature("tensor", 16))
    curve = SplitCurve.from_function(model.target, np.linspace(-1, 1, 9),
                                     lambda y: np.zeros_like(y))
    x = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    vals = np.stack([model.surplus.s(x, float(y)) for y in curve.y_grid], axis=1)
    assert np.array_equal(vals[:, 2], vals[:, 6])
    assert np.all(np.argmax(vals, axis=1) == 2)
    u_val, y_star = source_payoff(model, curve, x)
    _, u_ref, y_ref, _ = _dense_scans(model, curve, x)
    assert np.array_equal(u_val, u_ref) and np.array_equal(y_star, y_ref)
    # the Newton root next to the node ties with it and is preferred
    assert np.max(np.abs(y_star + 0.5)) <= 1e-8
    assert np.all(u_val >= vals[:, 2])


def test_map_on_staircase_curve(uni1d):
    # PCHIP through a staircase has k' = 0 at every node and flat steps, so
    # the Newton solve meets zero slopes, roots on bracket ends and points
    # that leave the bracket; every x must still land on a root of x = k(F)
    stairs = SplitCurve.from_function(uni1d.model.target, np.linspace(0, 1, 9),
                                      lambda y: np.floor(4 * y + 0.5) / 4)
    xs = np.linspace(0.01, 0.99, 99)[:, None]
    f_val = optimal_map(uni1d.model, stairs, xs)
    assert np.max(np.abs(stairs.k_at(f_val) - xs[:, 0])) <= 1e-12


def test_map_and_payoff_memory_is_bounded(par2):
    # the node scans run in row blocks: the whole batch x 257 matrix of s
    # would take 206 MB here
    x = par2.model.domain.sample_interior(100_000, seed=21, margin=0.01)
    tracemalloc.start()
    try:
        optimal_map(par2.model, par2.curve, x)
        source_payoff(par2.model, par2.curve, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _general_path(model):
    """The same model with the surplus's ``sy_free_of_y`` cleared, so the
    solve inverts each node on its own k window and the map walks the
    nodes."""
    return Model(model.domain, model.target,
                 replace(model.surplus, sy_free_of_y=False), model.densities,
                 model.quadrature)


@pytest.mark.parametrize("name", ["par2", "par3", "par4", "flat3"])
def test_one_slice_matches_the_general_path(request, name):
    if name == "par4":  # a Monte Carlo grid, whose knots are jumps
        model = sc.build("paraboloid-segment", m=4, resolution=20_000).model
        curve = solve_split_curve(model)
    else:
        solved = request.getfixturevalue(name)
        model, curve = solved.model, solved.curve
    general = _general_path(model)
    ref = solve_split_curve(general, y_grid=curve.y_grid)
    assert np.max(np.abs(curve.k_minus - ref.k_minus)) <= 1e-11
    assert np.max(np.abs(curve.k_plus - ref.k_plus)) <= 1e-11
    assert np.array_equal(curve.tangential_flags, ref.tangential_flags)
    # every grid point, and two points past the box that clamp to the ends
    lo, hi = model.domain.bbox
    x = np.concatenate([model.grid.points, [2 * lo - hi, 2 * hi - lo]])
    fast, walk = (solver.map_and_payoff(m, curve, x) for m in (model, general))
    for a, b in zip(fast, walk):
        assert np.array_equal(a, b)
    assert fast[0][-2] == curve.y_lo and fast[0][-1] == curve.y_hi
    report = nestedness_report(model, curve)
    report_ref = nestedness_report(general, ref)
    for crit in ("sublevel_monotone", "dynamic", "unique_splitting"):
        assert getattr(report, crit).status == getattr(report_ref, crit).status
    assert report.verdict == report_ref.verdict


def test_map_searches_only_a_nondecreasing_curve(par2):
    # k dips below y^(2/3) around y = 0.5, so s_y - k changes sign three
    # times on some rows; the search would take a wrong bracket there
    nodes = []  # s_y calls at one y: the bracket's (the roots pass arrays)
    bundle = par2.model.surplus

    def s_y(x, y):
        if np.ndim(y) == 0:
            nodes.append(y)
        return bundle.s_y(x, y)

    model = Model(par2.model.domain, par2.model.target,
                  replace(bundle, s_y=s_y), par2.model.densities,
                  par2.model.quadrature)
    dip = SplitCurve.from_function(
        model.target, par2.curve.y_grid,
        lambda y: y ** (2 / 3) - 0.1 * np.exp(-((y - 0.5) / 0.05) ** 2))
    assert np.any(np.diff(dip.k_plus) < 0)
    x = model.grid.points
    blocks = -(-x.shape[0] // solver._CHUNK)
    y_tol = 1e-8 * model.target.length
    nodes.clear()
    solver._map_by_level(model, par2.curve, x, y_tol)
    assert len(nodes) == blocks  # the search: s_y once per block
    nodes.clear()
    f, settled, _ = solver._map_by_level(model, dip, x, y_tol)
    assert len(nodes) == blocks * dip.y_grid.size  # the walk: at every node
    f_walk, settled_walk, _ = solver._map_by_level(_general_path(par2.model),
                                                   dip, x, y_tol)
    assert np.array_equal(f, f_walk)
    assert np.array_equal(settled, settled_walk)
    assert not settled.all()


def test_debug_records(par2, monkeypatch, caplog):
    model, c = par2.model, par2.curve
    # s_y = x . e is free of y: every node is inverted on one knot set
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        solve_split_curve(model)
    assert ("split curve: s_y is free of y, so all 65 nodes are inverted on "
            "one knot set" in caplog.text)
    caplog.clear()
    pts = model.domain.sample_interior(40, seed=5, margin=0.02)
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        optimal_map(model, c, pts)
        source_payoff(model, c, pts)
    assert "cap" not in caplog.text
    monkeypatch.setattr(solver, "_ROOT_ITERS", 1)
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        optimal_map(model, c, pts)
    assert "rows hit the 1-step cap" in caplog.text
    assert all(r.levelno == logging.DEBUG and r.name == "nestor.solver"
               for r in caplog.records)


def test_splitting_reference_debug_records(par2, caplog):
    # two probes whose 65-node scan brackets lose their sign change under
    # the smooth sublevel masses
    probes = par2.model.domain.sample_interior(100, seed=0,
                                               margin=0.02)[[3, 17]]
    with caplog.at_level(logging.DEBUG, logger="splitting_reference"):
        map_by_splitting(par2.model, par2.curve, probes)
    assert "widened to" in caplog.text
    assert all(r.levelno == logging.DEBUG and r.name == "splitting_reference"
               for r in caplog.records)


def test_split_curve_debug_records(caplog):
    # a source with a gap in x1 gives a mass plateau at y = 0.5; pie-slice
    # at theta0 = 1.2 has tangential end nodes and two empty level sets
    from nestor.geometry import Domain

    def inside(x):
        return (x[:, 0] > 0) & (x[:, 0] < 1) & (np.abs(x[:, 0] - 0.5) > 0.1)

    gap = Model(Domain(dim=1, bbox=np.array([[0.0], [1.0]]), inside=inside),
                TargetInterval(0, 1), bilinear_surplus([1.0]))
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        solve_split_curve(gap, y_grid=np.array([0.25, 0.5, 0.75]))
    assert "1 of 3 nodes plateau at y = [0.5]" in caplog.text
    assert "0 of 3 nodes with an empty level set at y = []" in caplog.text
    caplog.clear()
    pie = sc.build("pie-slice", theta0=1.2, resolution=96).model
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        c = solve_split_curve(pie, n_nodes=65)
    n_tan = int(np.sum(c.tangential_flags))
    assert n_tan > 2
    assert f"{n_tan} of 65 nodes tangential at y = [-1.19965, " in caplog.text
    assert ("2 of 65 nodes with an empty level set at y = [-1.19965, 1.19965]"
            in caplog.text)
    # the arc surplus's s_y moves with y: each node is inverted on its own
    # k window
    assert re.search(r"split curve: 65 nodes inverted on a k window \(median "
                     r"0\.1\d+ of the ramps sorted\), 0 on the full knots",
                     caplog.text)
    # the planar solve's one contour pass reports its segments
    assert re.search(r"split curve: \d+ contour segments over 65 nodes, "
                     r"[1-9]\d* of them clipped; 2 nodes with an empty contour "
                     r"at y = \[-1\.19965, 1\.19965\]", caplog.text)
    # the boundary normals: one oracle pass, read by the band samples
    assert re.search(r"split curve: boundary normals taken once, on "
                     rf"{np.sum(pie.grid.boundary_adjacent)} boundary-adjacent "
                     r"rows, and read at [1-9]\d* band samples", caplog.text)
    assert len(caplog.records) == 6
    assert all(r.levelno == logging.DEBUG and r.name == "nestor.solver"
               for r in caplog.records)


def test_contour_clip_does_not_scale_with_nodes(par2, monkeypatch):
    # the clip bisects every node's boundary segments in one pass, so a
    # planar solve makes as many Domain.contains calls at 129 nodes as at 65
    from nestor.geometry import Domain

    model = par2.model
    model.certificate  # its compass search calls contains too
    calls = [0]
    contains = Domain.contains

    def counting(self, x):
        calls[0] += 1
        return contains(self, x)

    monkeypatch.setattr(Domain, "contains", counting)
    counts = []
    for n in (65, 129):
        calls[0] = 0
        solve_split_curve(model, n_nodes=n)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def test_solve_takes_syy_on_band_samples_only(par3, monkeypatch):
    # s_yy is evaluated on each node's band samples, not on the grid: over
    # a 257-node m = 3 solve under a quarter of nodes x grid points pass
    # through the bundle's s_yy, and the curve is the fixture's bit for bit
    model = par3.model
    evaluated = [0]
    s_yy = model.surplus.s_yy

    def counting(x, y):
        evaluated[0] += np.asarray(x).shape[0]
        return s_yy(x, y)

    monkeypatch.setattr(model, "surplus", replace(model.surplus, s_yy=counting))
    curve = solve_split_curve(model, n_nodes=257)
    assert 0 < evaluated[0] < 0.25 * curve.y_grid.size * model.grid.n_points
    for name in ("k_plus", "h_k", "h_y", "syy_max", "area"):
        assert np.array_equal(getattr(curve, name), getattr(par3.curve, name),
                              equal_nan=True)


@pytest.mark.parametrize("name", ["par2", "par3", "pie"])
def test_one_boundary_normal_pass_per_solve(request, name, monkeypatch, caplog):
    # the oracle runs once, on the boundary-adjacent rows, and each node's
    # band reads it by quadrature row: the transversality is a per-node
    # recomputation from a fresh band and the oracle, bit for bit
    if name == "pie":
        model, y_grid = sc.build("pie-slice", theta0=1.2, resolution=96).model, None
    else:
        solved = request.getfixturevalue(name)
        model, y_grid = solved.model, solved.curve.y_grid
    normal = model.domain.boundary_normal
    calls = []

    def counting(x):
        calls.append(np.asarray(x).shape[0])
        return normal(x)

    monkeypatch.setattr(model, "domain",
                        replace(model.domain, boundary_normal=counting))
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        curve = solve_split_curve(model, y_grid=y_grid)
    assert calls == [np.sum(model.grid.boundary_adjacent)]
    if y_grid is not None:
        assert np.array_equal(curve.transversality, solved.curve.transversality,
                              equal_nan=True)
    read = 0
    for i, y in enumerate(curve.y_grid):
        try:
            band = level_set(model, y, curve.k_plus[i], "band")
        except EmptyBand:
            assert np.isnan(curve.transversality[i])
            continue
        assert np.array_equal(model.grid.points[band.rows], band.points)
        b = band.boundary
        read += np.sum(b)
        if not np.any(b):
            assert np.isnan(curve.transversality[i])
            continue
        n_level = band.grad[b] / band.gnorm[b][:, None]
        dots = np.sum(np.atleast_2d(normal(band.points[b])) * n_level, axis=1)
        assert curve.transversality[i] == np.min(1.0 - dots ** 2)
    assert np.any(np.isfinite(curve.transversality))
    assert (f"boundary normals taken once, on {calls[0]} boundary-adjacent "
            f"rows, and read at {read} band samples") in caplog.text


def test_map_gradient_examples(uni1d, par2):
    df = map_gradient(par2.model, par2.curve, np.array([0.25, 0.0]))
    assert np.linalg.norm(df - np.array([0.75, 0.0])) <= 1e-2 * 0.75
    d1 = map_gradient(uni1d.model, uni1d.curve, np.array([0.5]))
    assert abs(d1[0] - 1.0) < 1e-3
    flat = SplitCurve.from_function(par2.model.target, par2.curve.y_grid,
                                    lambda y: np.full_like(y, 0.5))
    with pytest.raises(ZeroSpeed):
        # constant level curve: k' = 0 = s_yy, the denominator vanishes
        map_gradient(par2.model, flat, np.array([0.5, 0.0]))


def test_map_gradient_matches_finite_differences(par2):
    pts = par2.model.domain.sample_interior(50, seed=13, margin=0.03)
    grads = map_gradient(par2.model, par2.curve, pts)
    h = 1e-5
    fd = np.empty_like(grads)
    for j in range(2):
        xp = pts.copy()
        xm = pts.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd[:, j] = (optimal_map(par2.model, par2.curve, xp)
                    - optimal_map(par2.model, par2.curve, xm)) / (2 * h)
    rel = np.linalg.norm(grads - fd, axis=1) / np.linalg.norm(grads, axis=1)
    assert np.max(rel) <= 1e-2


def test_balance_residual_examples(uni1d, par2):
    # 0.5 reads the node nearest it, y_grid[128] = 0.49999999999999994
    assert par2.curve.nearest_nodes(0.5) == 128
    assert abs(balance_residual(uni1d.model, uni1d.curve, 0.5)) < 1e-6
    assert abs(balance_residual(par2.model, par2.curve, 0.5)) <= 0.02
    bumped = replace(par2.curve, k_plus=1.01 * par2.curve.k_plus)
    analytic = SplitCurve.from_function(uni1d.model.target, uni1d.curve.y_grid,
                                        lambda y: y)
    assert np.isnan(balance_residual(uni1d.model, analytic, 0.5))
    good = abs(balance_residual(par2.model, par2.curve, 0.5))
    bad = abs(balance_residual(par2.model, bumped, 0.5))
    assert bad > 5 * good


def test_interpolation_error(par2):
    y = par2.model.target.interior_grid(65)
    line = SplitCurve.from_function(par2.model.target, y, lambda t: 2 * t - 1)
    assert interpolation_error(line) <= 1e-12
    # a node bumped off the line sits 1e-3 from the PCHIP of the others
    bump = np.where(np.arange(y.size) == 10, 1e-3, 0.0)
    bumped = SplitCurve.from_function(par2.model.target, y,
                                      lambda t: 2 * t - 1 + bump)
    assert interpolation_error(bumped) >= 1e-3 - 1e-12
    err = interpolation_error(par2.curve)
    assert np.isfinite(err) and err <= 5e-3  # the err_k tolerance


@pytest.mark.parametrize("f_vals, radius, expected", [
    # atoms: the CDF jumps 0.75 at 0.25, read after the jump (0.75 - 0.25)
    pytest.param([0.25, 0.25, 0.25, 0.75], 0.0, 0.5, id="atoms"),
    # each quarter of the mass spread over its quarter of (0, 1): uniform
    pytest.param([0.125, 0.375, 0.625, 0.875], 0.125, 0.0, id="cells"),
    # spread over half its quarter: 1/16 short at the first knot
    pytest.param([0.125, 0.375, 0.625, 0.875], 0.0625, 0.0625, id="narrow"),
    # ramps over (0, 0.5), then an atom of 0.5 at 0.875, read before the
    # jump (0.875 - 0.5)
    pytest.param([0.125, 0.375, 0.875, 0.875], [0.125, 0.125, 0.0, 0.0],
                 0.375, id="mixed"),
])
def test_weighted_ks_distance_spreads_cells(f_vals, radius, expected):
    from nestor.scenarios import build
    model = build("uniform-1d", resolution=64).model
    got = solver.weighted_ks_distance(model, np.array(f_vals),
                                      np.array([0.25] * 4), radius)
    assert got == pytest.approx(expected, rel=1e-6, abs=1e-15)


def test_weighted_ks_distance_matches_direct_sum():
    # the sorted sweep against the law's CDF summed point by point at
    # every knot, on both sides, with a third of the points atoms
    from nestor.model import target_cdf
    from nestor.scenarios import build
    model = build("uniform-1d", target="linear", resolution=64).model
    rng = np.random.default_rng(3)
    f_vals = rng.random(60)
    weights = rng.random(60) + 0.1
    radius = np.where(np.arange(60) % 3 == 0, 0.0, 0.2 * rng.random(60))
    w = weights / np.sum(weights)
    atom = radius == 0
    gaps = []
    for t in np.concatenate([f_vals - radius, f_vals + radius]):
        ramps = np.clip((t - f_vals[~atom] + radius[~atom])
                        / (2 * radius[~atom]), 0.0, 1.0) @ w[~atom]
        g = target_cdf(model, np.clip(t, 0.0, 1.0))
        for side in (f_vals[atom] < t, f_vals[atom] <= t):
            gaps.append(abs(ramps + w[atom] @ side - g))
    got = solver.weighted_ks_distance(model, f_vals, weights, radius)
    assert got == pytest.approx(max(gaps), rel=1e-12, abs=1e-12)


def test_pushforward_examples(uni1d, par2, ball):
    assert pushforward_distance(uni1d.model, uni1d.curve) <= 1e-3
    assert pushforward_distance(par2.model, par2.curve) <= 0.01
    # non-nested: the by-level map forced through the analytic level curve
    # v' = 0 is the angle map, which still transports onto the target
    zero_curve = SplitCurve.from_function(
        ball.model.target, ball.curve.y_grid,
        lambda y: np.zeros_like(np.asarray(y)))
    assert pushforward_distance(ball.model, zero_curve) <= 0.02
    # ... but the proportional-splitting curve does not: the model is not
    # nested, so its candidate level sets overlap
    assert pushforward_distance(ball.model, ball.curve) > 0.1


def test_dual_feasibility(par2):
    model, curve = par2.model, par2.curve
    rng = np.random.default_rng(31)
    xs = model.domain.sample_interior(10_000, seed=17)
    ys = model.target.y_lo + model.target.length * rng.random(10_000)
    u, _ = source_payoff(model, curve, xs)
    gap = u + curve.v_at(ys) - np.asarray(model.surplus.s(xs, ys))
    scale = model.surplus_scale
    assert float(np.min(gap)) >= -1e-6 * scale
    f_val = optimal_map(model, curve, xs[:500])
    graph_gap = (u[:500] + curve.v_at(f_val)
                 - np.asarray(model.surplus.s(xs[:500], f_val)))
    assert float(np.max(np.abs(graph_gap))) <= 1e-4 * scale


def test_pipeline_on_uniform_1d(uni1d):
    model = uni1d.model
    curve = solve_split_curve(model, n_nodes=65)
    xs = np.array([[0.3], [0.6]])
    assert np.allclose(optimal_map(model, curve, xs), [0.3, 0.6], atol=1e-4)
    assert np.allclose(source_payoff(model, curve, xs)[0], [0.045, 0.18],
                       atol=1e-3)
    assert pushforward_distance(model, curve) <= 1e-3
    y = curve.y_grid
    inner = y[(y > 0.02) & (y < 0.98)]
    residuals = [balance_residual(model, curve, float(yi))
                 for yi in inner[:: max(1, inner.size // 32)]]
    assert np.max(np.abs(residuals)) < 0.05


def test_linear_target_density(uni1d_linear):
    c = uni1d_linear.curve
    inner = (c.y_grid > 0.1) & (c.y_grid < 0.95)
    assert np.max(np.abs(c.k_plus - c.y_grid ** 2)[inner]) < 1e-3
    xs = np.linspace(0.1, 0.9, 9)[:, None]
    f_val = optimal_map(uni1d_linear.model, c, xs)
    assert np.max(np.abs(f_val - np.sqrt(xs[:, 0]))) < 1e-3


def test_monte_carlo_mode_m4():
    # beyond m = 3 the default quadrature is seeded Monte Carlo; the same
    # pipeline runs end to end at reduced accuracy
    from nestor.geometry import box_domain
    model = Model(box_domain([0, 0, 0, 0], [1, 1, 1, 1]), TargetInterval(0, 1),
                  bilinear_surplus([1, 0, 0, 0]),
                  quadrature=Quadrature("monte-carlo", 60_000, seed=1))
    curve = solve_split_curve(model, n_nodes=17)
    inner = (curve.y_grid > 0.2) & (curve.y_grid < 0.8)
    assert np.max(np.abs(curve.k_plus - curve.y_grid)[inner]) < 0.02
    f_val = optimal_map(model, curve, np.array([0.5, 0.5, 0.5, 0.5]))
    assert abs(f_val - 0.5) < 0.02


def test_curved_surplus_end_to_end():
    # non-fixture model: s = x1 y + 0.35 x2 y^2 (s_yy != 0) with a linear
    # target density; every internal consistency loop must close
    from nestor.geometry import box_domain
    from nestor.model import DensityPair
    from nestor.surplus import polynomial_surplus
    bundle = polynomial_surplus([(1.0, (1, 0), 1), (0.35, (0, 1), 2)], 2)
    model = Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1), bundle,
                  DensityPair(g=lambda y: 0.5 + y),
                  quadrature=Quadrature("tensor", 192))
    curve = solve_split_curve(model, n_nodes=129)
    assert not curve.plateau_flags.any()

    pts = model.domain.sample_interior(60, seed=1, margin=0.03)
    bl = optimal_map(model, curve, pts)
    bs = map_by_splitting(model, curve, pts)
    assert np.max(np.abs(bl - bs)) <= 1e-4

    assert pushforward_distance(model, curve) <= 5e-3
    inner = (curve.y_grid > 0.1) & (curve.y_grid < 0.9) & ~curve.tangential_flags
    res = [abs(balance_residual(model, curve, float(y)))
           for y in curve.y_grid[inner][::8]]
    assert max(res) <= 0.02

    grads = map_gradient(model, curve, pts)
    h = 1e-5
    fd = np.empty_like(grads)
    for j in range(2):
        xp = pts.copy()
        xm = pts.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd[:, j] = (optimal_map(model, curve, xp)
                    - optimal_map(model, curve, xm)) / (2 * h)
    rel = np.linalg.norm(grads - fd, axis=1) / np.linalg.norm(grads, axis=1)
    assert np.max(rel) <= 1e-2

    rng = np.random.default_rng(2)
    xs = model.domain.sample_interior(4000, seed=3)
    ys = rng.random(4000)
    u, _ = source_payoff(model, curve, xs)
    slack = u + curve.v_at(ys) - np.asarray(model.surplus.s(xs, ys))
    assert float(np.min(slack)) >= -1e-6 * model.surplus_scale

    from nestor.nestedness import nestedness_report
    rep = nestedness_report(model, curve, n_probes=50)
    assert rep.verdict == "nested"
    assert rep.speed_limit > 0.1


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-2.0, 2.0), length=st.floats(0.25, 4.0))
def test_solve_is_invariant_under_affine_rescaling_of_y(a, length):
    # on y' = a + L y the surplus s'(x, y') = s(x, (y' - a) / L) has
    # s'_y' = s_y / L, so k' = k / L and F' = a + L F, and the flags and
    # the verdict carry over
    from nestor.geometry import box_domain
    from nestor.model import DensityPair
    from nestor.nestedness import nestedness_report
    from nestor.surplus import polynomial_surplus

    def model(lo, span, terms):
        return Model(box_domain([0, 0], [1, 1]), TargetInterval(lo, lo + span),
                     polynomial_surplus(terms, 2),
                     DensityPair(g=lambda y: 0.5 + (y - lo) / span),
                     quadrature=Quadrature("tensor", 48))

    b, c = 1.0 / length, 0.35 / length ** 2
    models = (model(0.0, 1.0, [(1.0, (1, 0), 1), (0.35, (0, 1), 2)]),
              model(a, length, [(b, (1, 0), 1), (-a * b, (1, 0), 0),
                                (c, (0, 1), 2), (-2 * a * c, (0, 1), 1),
                                (a * a * c, (0, 1), 0)]))
    base, scaled = (solve_split_curve(m, n_nodes=33) for m in models)
    assert np.max(np.abs(length * scaled.k_plus - base.k_plus)) <= 1e-9
    xs = models[0].domain.sample_interior(50, seed=5, margin=0.01)
    f_base = optimal_map(models[0], base, xs)
    f_scaled = optimal_map(models[1], scaled, xs)
    assert np.max(np.abs((f_scaled - a) / length - f_base)) <= 1e-9
    assert np.array_equal(scaled.tangential_flags, base.tangential_flags)
    assert np.array_equal(scaled.plateau_flags, base.plateau_flags)
    assert (nestedness_report(models[1], scaled).verdict
            == nestedness_report(models[0], base).verdict)


def test_kprime_diverges_where_level_sets_shrink(par2):
    # as the matched level sets shrink to a point at the lower end, the
    # curve slope must blow up (here like y^(-1/3)); no such growth at the
    # upper end where the sets stay long
    c = par2.curve
    low = (c.y_grid > 0.005) & (c.y_grid < 0.03)
    mid = (c.y_grid > 0.45) & (c.y_grid < 0.55)
    assert np.min(c.kprime[low]) > 2.0 * np.max(c.kprime[mid])
    assert np.max(c.kprime[mid]) < 1.0


def test_k_monotonicity_recorded(par2, ball):
    assert par2.curve.k_nondecreasing
    # the proportional-splitting curve of the disk is also monotone even
    # though the model is not nested; a fabricated wiggle is detected
    wiggly = SplitCurve.from_function(
        par2.model.target, par2.curve.y_grid,
        lambda y: y + 0.1 * np.sin(8 * np.pi * y))
    assert not wiggly.k_nondecreasing


@dataclass(frozen=True)
class _PermutedQuadrature(Quadrature):
    """A quadrature whose materialized points come out in ``order``."""

    order: tuple = ()

    def materialize(self, dom):
        grid = super().materialize(dom)
        p = np.asarray(self.order)
        return replace(grid, points=grid.points[p], weights=grid.weights[p],
                       boundary_adjacent=grid.boundary_adjacent[p])


@pytest.fixture(scope="module")
def quadrature_order_cases():
    from nestor.nestedness import nestedness_report
    from nestor.scenarios import build
    cases = {}
    for name, scenario, params in (
            ("par2", "paraboloid-segment", {"m": 2}),
            ("pie", "pie-slice", {"theta0": 1.2})):
        model = build(scenario, resolution=48, **params).model
        curve = solve_split_curve(model, n_nodes=33)
        cases[name] = (model, curve, nestedness_report(model, curve).verdict)
    return cases


@pytest.mark.parametrize("name", ["par2", "pie"])
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.large_base_example])
@given(data=st.data())
def test_solve_does_not_depend_on_quadrature_order(quadrature_order_cases,
                                                    name, data):
    # the quadrature is a set of weighted points: listing them in another
    # order must not move the split curve, its flags or the verdict
    from nestor.nestedness import nestedness_report
    model, curve, verdict = quadrature_order_cases[name]
    order = data.draw(st.permutations(range(model.grid.n_points)))
    quad = model.quadrature
    permuted = Model(model.domain, model.target, model.surplus,
                     model.densities,
                     _PermutedQuadrature(quad.mode, quad.resolution, quad.seed,
                                         order=tuple(order)))
    got = solve_split_curve(permuted, n_nodes=33)
    assert np.max(np.abs(got.k_plus - curve.k_plus)) <= 1e-12
    assert np.array_equal(got.tangential_flags, curve.tangential_flags)
    assert nestedness_report(permuted, got).verdict == verdict

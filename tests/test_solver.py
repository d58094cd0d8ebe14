import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestor import solver
from nestor.errors import BracketFailure, EmptyBand, NonNested, ZeroSpeed
from nestor.geometry import Quadrature, TargetInterval, interval_domain
from nestor.levelsets import (grad_h, level_set, sublevel_levels,
                              surface_integral)
from nestor.model import Model
from nestor.solver import (SplitCurve, balance_residual, map_gradient,
                           optimal_map, pushforward_distance,
                           solve_split_curve, source_payoff)
from nestor.surplus import bilinear_surplus


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
    from nestor.levelsets import split_function
    c = par2.curve
    for i in range(0, c.y_grid.size, 32):
        h = split_function(par2.model, float(c.y_grid[i]), float(c.k_plus[i]))
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
        off_node = 0.5 * (c.y_grid[:-1] + c.y_grid[1:])[::16]
        for y in np.concatenate([c.y_grid, off_node]):
            y = float(y)
            try:
                ref = _balance_integral_residual(model, c, y)
            except EmptyBand:
                with pytest.raises(EmptyBand):
                    balance_residual(model, c, y)
                continue
            assert abs(balance_residual(model, c, y) - ref) <= 1e-12


def test_bracket_failure_when_mass_cannot_reach_target():
    model = Model(interval_domain(), TargetInterval(0, 1),
                  bilinear_surplus([1.0]))
    with pytest.raises(BracketFailure):
        sublevel_levels(model, 0.5, 1.5, 1.5)
    with pytest.raises(BracketFailure):
        sublevel_levels(model, 0.5, -0.5, -0.5)


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
        optimal_map(ball.model, ball.curve, pts, method="by-splitting")
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
        by_split = optimal_map(solved.model, solved.curve, pts,
                               method="by-splitting")
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


def test_debug_records(par2, monkeypatch, caplog):
    model, c = par2.model, par2.curve
    pts = model.domain.sample_interior(40, seed=5, margin=0.02)
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        optimal_map(model, c, pts)
        source_payoff(model, c, pts)
    assert "cap" not in caplog.text
    monkeypatch.setattr(solver, "_ROOT_ITERS", 1)
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        optimal_map(model, c, pts)
    assert "rows hit the 1-step cap" in caplog.text
    caplog.clear()
    # two probes whose 65-node scan brackets lose their sign change under
    # the smooth sublevel masses
    probes = model.domain.sample_interior(100, seed=0, margin=0.02)[[15, 91]]
    with caplog.at_level(logging.DEBUG, logger="nestor.solver"):
        optimal_map(model, c, probes, method="by-splitting")
    assert "widened to" in caplog.text
    assert all(r.levelno == logging.DEBUG and r.name == "nestor.solver"
               for r in caplog.records)


def test_split_curve_debug_records(caplog):
    # a source with a gap in x1 gives a mass plateau at y = 0.5; pie-slice
    # at theta0 = 1.2 has tangential end nodes and two empty level sets
    from nestor import scenarios as sc
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
    assert len(caplog.records) == 3
    assert all(r.levelno == logging.DEBUG and r.name == "nestor.solver"
               for r in caplog.records)


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
    assert abs(balance_residual(uni1d.model, uni1d.curve, 0.5)) < 1e-6
    assert abs(balance_residual(par2.model, par2.curve, 0.5)) <= 0.02
    bumped = SplitCurve.from_function(
        par2.model.target, par2.curve.y_grid,
        lambda y: np.interp(y, par2.curve.y_grid, par2.curve.k_plus) * 1.01)
    good = abs(balance_residual(par2.model, par2.curve, 0.5))
    bad = abs(balance_residual(par2.model, bumped, 0.5))
    assert bad > 5 * good


@pytest.mark.parametrize("f_vals, expected", [
    # within 1e-7 of the target length: one atom at the mean, 0.75 + 5e-10
    pytest.param([0.25, 0.25, 0.75, 0.75 + 1e-9], 5e-10, id="merged"),
    # farther apart: the atom at 0.75 has mass midpoint 0.625, so 0.125
    pytest.param([0.25, 0.25, 0.75, 0.75 + 1e-6], 0.125, id="apart"),
    # each atom at the midpoint of its quarter of the mass
    pytest.param([0.125, 0.375, 0.625, 0.875], 0.0, id="midpoints"),
])
def test_weighted_ks_distance_merges_ties(f_vals, expected):
    from nestor.scenarios import build
    model = build("uniform-1d", resolution=64).model
    got = solver.weighted_ks_distance(model, np.array(f_vals),
                                      np.array([0.25] * 4))
    assert got == pytest.approx(expected, rel=1e-6, abs=1e-15)


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
    bs = optimal_map(model, curve, pts, method="by-splitting")
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

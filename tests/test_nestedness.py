import logging

import numpy as np
import pytest

from nestor.errors import EmptyBand, NoBoundaryOracle
from nestor.geometry import Quadrature, TargetInterval, box_domain
from nestor import build, levelsets
from nestor.levelsets import level_set, surface_integral
from nestor.model import Model, grad_norm
from nestor.nestedness import (check_sublevel_monotonicity,
                               count_sign_changes, dynamic_criterion,
                               effective_deadband, kprime_bound_gap,
                               nestedness_report, speed_limit,
                               transversality_diagnostic,
                               unique_splitting_check)
from nestor.solver import SplitCurve, solve_split_curve
from nestor.surplus import bilinear_surplus
from splitting_reference import map_by_splitting, splitting_profile


def test_monotonicity_criterion(par2, ball):
    ok = check_sublevel_monotonicity(par2.model, par2.curve)
    assert ok.status == "pass" and not ok.witnesses
    bad = check_sublevel_monotonicity(ball.model, ball.curve)
    assert bad.status == "fail"
    y0, y1, x_w, margin = bad.witnesses[0]
    assert y0 < y1 and margin > 0.01


@pytest.mark.parametrize("theta0", [1.5, 1.58, 1.6, 1.65, 2.0])
def test_sector_verdict_flips_past_a_right_angle(theta0):
    # the sector is nested up to the half-angle pi/2; at 1.58 only 64 of
    # the default grid's points cross upward, between two of 65 nodes
    scenario = build("pie-slice", theta0=theta0)
    curve = solve_split_curve(scenario.model)
    rep = nestedness_report(scenario.model, curve)
    assert rep.verdict == scenario.expected_verdict
    mass = rep.sublevel_monotone.details["upcrossing_mass"]
    assert (mass > 0) == (scenario.expected_verdict == "non-nested")


def test_monotonicity_reads_only_k(par2):
    model, y_grid = par2.model, par2.curve.y_grid
    exact = SplitCurve.from_function(model.target, y_grid,
                                     lambda y: y ** (2 / 3))
    assert check_sublevel_monotonicity(model, exact).status == "pass"
    # k dips around y = 0.5: points just above the falling k leave the
    # sublevel set there
    dip = SplitCurve.from_function(
        model.target, y_grid,
        lambda y: y ** (2 / 3) - 0.1 * np.exp(-((y - 0.5) / 0.05) ** 2))
    res = check_sublevel_monotonicity(model, dip)
    assert res.status == "fail" and res.details["n_upcrossing"] > 0
    falling = y_grid[np.flatnonzero(np.diff(dip.k_plus) < 0)]
    for y0, y1, _, margin in res.witnesses:
        j = int(np.searchsorted(y_grid, y0))
        assert y_grid[j] == y0 and y_grid[j + 1] == y1  # adjacent nodes
        assert y0 in falling and margin > 0


def test_monotonicity_debug_record(ball, caplog):
    with caplog.at_level(logging.DEBUG, logger="nestor.nestedness"):
        res = check_sublevel_monotonicity(ball.model, ball.curve)
    records = [r for r in caplog.records
               if r.getMessage().startswith("sublevel monotonicity:")]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    y0, y1 = res.witnesses[0][:2]
    assert (f"{res.details['n_upcrossing']} of {ball.model.grid.n_points} "
            f"points cross upward" in records[0].getMessage())
    assert f"({y0!r}, {y1!r})" in records[0].getMessage()


def test_dynamic_criterion(par2, ball, pie_wide, uni1d):
    good = dynamic_criterion(par2.model, par2.curve)
    assert good.status == "pass"
    assert good.details["min"] > 0.6  # k' >= 2/3, s_yy = 0
    bad = dynamic_criterion(ball.model, ball.curve)
    assert bad.status == "fail"
    assert bad.details["min"] < -0.5
    wide = dynamic_criterion(pie_wide.model, pie_wide.curve)
    assert wide.status == "fail"
    flat = dynamic_criterion(uni1d.model, uni1d.curve)
    assert flat.status == "pass"


def test_dynamic_criterion_skip_reasons(par2, pie_wide):
    for solved in (par2, pie_wide):
        c = solved.curve
        details = dynamic_criterion(solved.model, c).details
        assert details["skipped_tangential"] == int(np.sum(c.tangential_flags))
        assert details["skipped_tangential"] > 0
        assert details["skipped_empty"] == 0  # the solve flags empty sets
        assert details["skipped"] == details["skipped_tangential"]
    # an analytic curve carries no level-set sample: every node is empty
    analytic = SplitCurve.from_function(par2.model.target, par2.curve.y_grid,
                                        lambda y: y ** (2 / 3))
    res = dynamic_criterion(par2.model, analytic)
    assert res.status == "indeterminate"
    assert res.details["skipped_tangential"] == 0
    assert res.details["skipped_empty"] == res.details["skipped"] \
        == par2.curve.y_grid.size


def _resampled_speed_stats(model, curve, i):
    """(min, max, argmin point) of k' - s_yy over a fresh auto sample of
    the level set of node i."""
    ls = level_set(model, float(curve.y_grid[i]), float(curve.k_plus[i]))
    vals = float(curve.kprime[i]) - ls.syy
    j = int(np.argmin(vals))
    return float(vals[j]), float(np.max(vals)), ls.points[j]


def test_speed_criteria_match_resampled_reference(par2, pie_wide, ball, uni1d):
    # both criteria read every node
    for solved in (par2, pie_wide, ball, uni1d):
        model, c = solved.model, solved.curve
        stats = {}
        for i in range(c.y_grid.size):
            try:
                stats[i] = _resampled_speed_stats(model, c, i)
            except EmptyBand:
                continue
        dyn = dynamic_criterion(model, c)
        per_node, witnesses = [], []
        for i in np.flatnonzero(~c.tangential_flags):
            lo, hi, x_min = stats[i]
            per_node.append((float(c.y_grid[i]), lo, hi))
            if lo < -dyn.details["tol"]:
                witnesses.append((float(c.y_grid[i]), lo, x_min))
        assert dyn.details["per_node"] == per_node
        assert len(dyn.witnesses) == len(witnesses)
        for got, ref in zip(dyn.witnesses, witnesses):
            assert got[:2] == ref[:2] and np.array_equal(got[2], ref[2])

        # the speed limit, like the dynamic criterion, skips tangential nodes
        best = min((lo for i, (lo, _, _) in stats.items()
                    if not c.tangential_flags[i]), default=np.inf)
        assert speed_limit(model, c) == best


def _corner_probes(pie):
    """40 seeded probes near the outer corner of a pie slice."""
    rng = np.random.default_rng(4)
    r = 0.9 + 0.08 * rng.random(40)
    phi = pie.scenario.params["theta0"] * (0.8 + 0.19 * rng.random(40))
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def test_unique_splitting(par2, ball, pie_wide):
    ok = unique_splitting_check(par2.model, par2.curve, n_probes=100, seed=0)
    assert ok.status == "pass" and ok.details["n_single"] == 100
    bad = unique_splitting_check(ball.model, ball.curve, n_probes=100, seed=0)
    assert bad.status == "fail" and bad.details["n_multi"] >= 5
    x_w, roots = bad.witnesses[0]
    assert len(roots) > 1
    # probes near the wide-slice corner split several ways
    corner = unique_splitting_check(pie_wide.model, pie_wide.curve,
                                    x_probes=_corner_probes(pie_wide))
    assert corner.status == "fail"


def _mass_scan_reference(model, x_probes, scan_nodes=201):
    """(n_single, n_flat, n_multi), the roots of the first 20 multi-root
    probes and the scan step, from binary sublevel masses on the grid."""
    y_scan = model.target.interior_grid(scan_nodes, clustered=False)
    psi = splitting_profile(model, x_probes, y_scan)
    band = effective_deadband(model)
    counts = [0, 0, 0]
    roots = []
    for row in psi:
        n, brackets = count_sign_changes(row, band)
        counts[0 if n == 1 else 1 if n <= 0 else 2] += 1
        if n > 1 and len(roots) < 20:
            roots.append([0.5 * (y_scan[a] + y_scan[b]) for a, b in brackets])
    return tuple(counts), roots, float(y_scan[1] - y_scan[0])


def _check_against_mass_scan(model, curve, x_probes):
    res = unique_splitting_check(model, curve, x_probes=x_probes)
    counts, roots, step = _mass_scan_reference(model, x_probes)
    d = res.details
    assert (d["n_single"], d["n_flat"], d["n_multi"]) == counts
    assert len(res.witnesses) == len(roots)
    return res, roots, step


@pytest.mark.parametrize("name", ["par2", "par3", "ball", "pie_nested",
                                  "pie_wide", "uni1d"])
def test_unique_splitting_matches_mass_scan(name, request):
    # the curve scan counts the same roots per probe as ranking the grid
    # at every scan node; par3 (56^3, 257 nodes) carries plateau nodes
    solved = request.getfixturevalue(name)
    model, curve = solved.model, solved.curve
    probes = [model.domain.sample_interior(100, seed=0, margin=0.01)]
    if name == "pie_wide":
        probes.append(_corner_probes(solved))
    if name == "par3":
        assert np.sum(curve.plateau_flags) == 4
    for x_probes in probes:
        res, roots, step = _check_against_mass_scan(model, curve, x_probes)
        if name == "ball":
            assert res.witnesses
            for (_, got), want in zip(res.witnesses, roots):
                assert len(got) == len(want)
                assert np.max(np.abs(np.subtract(got, want))) \
                    <= step * (1 + 1e-9)


def test_unique_splitting_matches_mass_scan_at_plateau_nodes():
    # pie-slice theta0 = 1.70 at 192^2 with 129 nodes: both end nodes sit
    # on a mass plateau, and four probes split several ways
    from nestor import scenarios
    model = scenarios.build("pie-slice", theta0=1.70, resolution=192).model
    curve = solve_split_curve(model, n_nodes=129)
    assert np.sum(curve.plateau_flags) == 2
    probes = model.domain.sample_interior(100, seed=0, margin=0.01)
    res, _, _ = _check_against_mass_scan(model, curve, probes)
    assert res.status == "fail" and res.details["n_multi"] == 4


def test_unique_splitting_needs_level_set_data(par2):
    # an analytic curve carries no h_k: the criterion cannot read a sign,
    # so it is indeterminate rather than passing with every probe flat
    analytic = SplitCurve.from_function(par2.model.target, par2.curve.y_grid,
                                        lambda y: y ** (2 / 3))
    res = unique_splitting_check(par2.model, analytic)
    assert res.status == "indeterminate" and not res.witnesses
    assert res.details["n_flat"] == res.details["n_probes"] == 100


def test_probe_on_level_set_roots_there(par2):
    # a probe on X(y, k(y)) must split the population at that very y
    y_star = 0.42
    k_star = par2.curve.k_at(y_star)
    probe = np.array([[k_star, 0.3]])  # s_y = x1 on the bowl
    root = map_by_splitting(par2.model, par2.curve, probe)
    assert abs(root[0] - y_star) <= 1e-3


def test_transversality(par2):
    c = par2.curve
    val = c.transversality[c.nearest_nodes(0.5 ** 1.5)]
    assert abs(val - 0.5) < 0.02  # parabola normal vs level normal at k=0.5
    square = Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1),
                   bilinear_surplus([1, 0]),
                   quadrature=Quadrature("tensor", 128))
    sq_curve = solve_split_curve(square, n_nodes=33)
    assert sq_curve.transversality[sq_curve.nearest_nodes(0.5)] > 1.0 - 1e-9
    # near the face x1 = 0 the level set runs parallel to the boundary
    lo = sq_curve.transversality[0]
    assert lo < 0.05
    assert transversality_diagnostic(square, sq_curve) == lo


def test_transversality_needs_oracle(par2):
    from dataclasses import replace
    dom = par2.model.domain
    stripped = Model(replace(dom, boundary_normal=None),
                     par2.model.target, par2.model.surplus,
                     quadrature=Quadrature("tensor", 64))
    curve = solve_split_curve(stripped, n_nodes=17)
    with pytest.raises(NoBoundaryOracle):
        transversality_diagnostic(stripped, curve)


def _resampled_transversality(model, curve):
    """Per-node 1 - (n_X . n_level)^2 minimum over a fresh band sample at
    (y, k(y)), NaN where the band is empty or misses the boundary."""
    out = np.full(curve.y_grid.size, np.nan)
    for i, y in enumerate(curve.y_grid):
        try:
            ls = level_set(model, float(y), curve.k_at(float(y)), "band")
        except EmptyBand:
            continue
        mask = ls.boundary
        if not np.any(mask):
            continue
        n_x = np.atleast_2d(model.domain.boundary_normal(ls.points[mask]))
        n_level = ls.grad[mask] / ls.gnorm[mask][:, None]
        dots = np.sum(n_x * n_level, axis=1)
        out[i] = np.min(1.0 - dots ** 2)
    return out


def test_curve_transversality_matches_resampled_bands(par2):
    from nestor.scenarios import build
    cases = [(par2.model, par2.curve)]
    for name, params in (("paraboloid-segment", {"m": 3, "resolution": 24}),
                         ("pie-slice", {"theta0": 1.2, "resolution": 96})):
        model = build(name, **params).model
        cases.append((model, solve_split_curve(model, n_nodes=65)))
    for model, curve in cases:
        ref = _resampled_transversality(model, curve)
        assert np.array_equal(curve.transversality, ref, equal_nan=True)
        assert np.any(np.isfinite(ref))
    analytic = SplitCurve.from_function(par2.model.target, par2.curve.y_grid,
                                        lambda y: y ** (2 / 3))
    assert np.all(np.isnan(analytic.transversality))
    assert transversality_diagnostic(par2.model, analytic) == 1.0


@pytest.mark.parametrize("name", ["par2", "par3"])
def test_report_reads_the_solved_curve(name, request, monkeypatch):
    # the report takes no level-set sample and builds no surplus slice:
    # a band sample needs a slice, a contour needs _contour_segments
    solved = request.getfixturevalue(name)
    model, curve = solved.model, solved.curve

    def no_sample(*args, **kwargs):
        raise AssertionError("the nestedness report sampled the surplus")

    monkeypatch.setattr(levelsets, "level_set", no_sample)
    monkeypatch.setattr(levelsets, "_contour_segments", no_sample)
    monkeypatch.setattr(Model, "slice_at", no_sample)
    # nor does it rank the grid for the unique-splitting criterion
    monkeypatch.setattr(levelsets, "_mass_knots", no_sample)
    monkeypatch.setattr(levelsets, "sublevel_mass", no_sample)
    assert nestedness_report(model, curve).verdict == "nested"


def test_speed_limit(par2, uni1d, pie_wide):
    ell = speed_limit(par2.model, par2.curve)
    assert abs(ell - 2.0 / 3.0) <= 2e-2
    assert abs(speed_limit(uni1d.model, uni1d.curve) - 1.0) < 1e-3
    assert speed_limit(pie_wide.model, pie_wide.curve) < 0.0


def test_speed_limit_skips_tangential_nodes():
    # pie-slice theta0 = 1.2 at 64^2: the tangential node at y = 1.0695
    # carries a difference-quotient k' and reads -0.00179; the clean nodes'
    # least k' - s_yy is +3.86e-5
    from nestor import scenarios
    model = scenarios.build("pie-slice", theta0=1.2, resolution=64).model
    curve = solve_split_curve(model, n_nodes=257)
    speeds = curve.kprime - curve.syy_max
    clean = ~curve.tangential_flags & ~np.isnan(speeds)
    ell = speed_limit(model, curve)
    assert ell == np.min(speeds[clean])
    assert ell == pytest.approx(3.8593e-5, abs=1e-8)
    assert np.nanmin(speeds) == pytest.approx(-1.79e-3, abs=1e-5)


def test_lipschitz_bound_realized(par2):
    ell = speed_limit(par2.model, par2.curve)
    assert ell > 0
    sup_grad = 1.0  # |grad_x s_y| = 1 for the bilinear slope
    bound = sup_grad / ell * 1.1
    rng = np.random.default_rng(23)
    base = par2.model.domain.sample_interior(1000, seed=23, margin=0.03)
    step = 1e-3 * rng.standard_normal(base.shape)
    other = base + step
    keep = par2.model.domain.contains(other)
    from nestor.solver import optimal_map
    fa = optimal_map(par2.model, par2.curve, base[keep])
    fb = optimal_map(par2.model, par2.curve, other[keep])
    quotient = np.abs(fa - fb) / np.linalg.norm(step[keep], axis=1)
    assert float(np.max(quotient)) <= bound


def test_kprime_bound(par2):
    lhs, rhs = kprime_bound_gap(par2.model, par2.curve)
    assert np.all(lhs <= rhs * 1.1)


def _kprime_bound_resampled(model, curve, y_nodes):
    """The k' bound with A(y) from a fresh band sample at each node."""
    lhs, rhs = [], []
    pts = model.grid.points
    for y in y_nodes:
        y = float(y)
        syy = model.surplus.s_yy(pts, y)
        gnorm = grad_norm(model.surplus.grad_x_s_y(pts, y))
        i = int(np.argmin(np.abs(curve.y_grid - y)))
        area = surface_integral(model, y, float(curve.k_plus[i])).value
        lhs.append(abs(float(curve.kprime[i])))
        rhs.append(float(np.max(np.abs(syy))) + float(model.g_at(y)[0])
                   * float(np.max(gnorm / model.f_vals)) / area)
    return np.asarray(lhs), np.asarray(rhs)


@pytest.mark.parametrize("name", ["par2", "par3"])
def test_kprime_bound_reads_the_curve_area(name, request, monkeypatch):
    # the bound reads every non-tangential node, takes no level-set sample,
    # builds no surplus slice and matches a per-node resample bit for bit
    # (checked on every 10th)
    solved = request.getfixturevalue(name)
    model, curve = solved.model, solved.curve
    nodes = curve.y_grid[~curve.tangential_flags][:: 10]
    ref = _kprime_bound_resampled(model, curve, nodes)

    def no_sample(*args, **kwargs):
        raise AssertionError("kprime_bound_gap sampled a level set")

    monkeypatch.setattr(levelsets, "level_set", no_sample)
    monkeypatch.setattr(Model, "slice_at", no_sample)
    lhs, rhs = kprime_bound_gap(model, curve)
    assert lhs.size == rhs.size == int(np.sum(~curve.tangential_flags))
    assert np.array_equal(lhs[:: 10], ref[0]) and np.array_equal(rhs[:: 10], ref[1])


def test_verdicts(par2, ball, pie_nested, pie_wide, uni1d):
    assert nestedness_report(par2.model, par2.curve).verdict == "nested"
    assert nestedness_report(uni1d.model, uni1d.curve).verdict == "nested"
    rep = nestedness_report(ball.model, ball.curve)
    assert rep.verdict == "non-nested"
    assert rep.unique_splitting.witnesses  # definite witnesses carried
    assert nestedness_report(pie_nested.model,
                             pie_nested.curve).verdict == "nested"
    assert nestedness_report(pie_wide.model,
                             pie_wide.curve).verdict == "non-nested"


def test_report_serializes(par2):
    import json
    rep = nestedness_report(par2.model, par2.curve, n_probes=20)
    text = json.dumps(rep.to_dict())
    assert "verdict" in text

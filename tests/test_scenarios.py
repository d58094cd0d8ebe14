import numpy as np
import pytest

from nestor.errors import InsufficientRange, UnknownScenario
from nestor.scenarios import build, holder_probe, list_scenarios, \
    validate_analytic
from nestor.solver import SplitCurve, optimal_map


def test_registry():
    names = list_scenarios()
    assert names == ["ball-circle", "flat-paraboloid", "paraboloid-segment",
                     "pie-slice", "uniform-1d"]
    with pytest.raises(UnknownScenario):
        build("moebius-strip")
    # a model tolerance is a library constant, not a scenario parameter
    with pytest.raises(ValueError, match="takes no parameter "
                       "nondegeneracy_rel_threshold"):
        build("paraboloid-segment", nondegeneracy_rel_threshold=1.0)


def test_scenario_quadrature_table():
    from nestor.geometry import Quadrature
    from nestor.scenarios import _quad_for
    table = {1: ("tensor", 2048), 2: ("tensor", 128), 3: ("tensor", 56),
             4: ("monte-carlo", 200_000), 6: ("monte-carlo", 200_000)}
    for dim, (mode, res) in table.items():
        assert _quad_for(dim, None, 5) == Quadrature(mode, res, 5)
        assert _quad_for(dim, 48, 0) == Quadrature(mode, 48, 0)
    assert build("uniform-1d").model.quadrature == Quadrature("tensor", 2048)
    assert build("pie-slice", theta0=1.2, seed=3).model.quadrature \
        == Quadrature("tensor", 128, 3)


def test_expected_verdicts_recorded():
    assert build("pie-slice", theta0=1.2, resolution=64).expected_verdict == "nested"
    assert build("pie-slice", theta0=2.2, resolution=64).expected_verdict == "non-nested"
    assert build("ball-circle", resolution=64).expected_verdict == "non-nested"


def test_analytic_self_validation_cheap_scenarios():
    for name, kw in [("uniform-1d", {}),
                     ("uniform-1d", {"target": "linear"}),
                     ("ball-circle", {"r": 0.05}),
                     ("pie-slice", {"theta0": np.pi / 4, "resolution": 192}),
                     ("flat-paraboloid", {"flatness": 3.0, "resolution": 256})]:
        scenario = build(name, **kw)
        checks = validate_analytic(scenario)
        assert checks["map_pushforward_ks"] <= 0.01, (name, checks)
        assert checks["stability_min"] >= -1e-6
        assert checks["graph_equality_max"] <= 1e-9


def test_analytic_self_validation_heavy(par2, par3):
    for solved in (par2, par3):
        checks = validate_analytic(solved.scenario)
        assert checks["map_pushforward_ks"] <= 0.01
        assert checks["stability_min"] >= -1e-6


def test_solved_verdicts_match_expected(par2, ball, pie_nested, pie_wide):
    from nestor.nestedness import nestedness_report
    for solved in (par2, ball, pie_nested, pie_wide):
        rep = nestedness_report(solved.model, solved.curve)
        assert rep.verdict == solved.scenario.expected_verdict, solved.scenario.name


def test_flat_paraboloid_map(flat3):
    probes = flat3.model.domain.sample_interior(200, seed=4, margin=0.02)
    f_num = optimal_map(flat3.model, flat3.curve, probes)
    # exponent 1 + 1/(2 kappa) with the unit-height normalization
    f_ref = probes[:, 0] ** (1 + 1 / 6)
    assert np.max(np.abs(f_num - f_ref)) <= 5e-3


def test_holder_probe_examples(par2, par3, uni1d):
    assert abs(holder_probe(par2.model, curve=par2.curve) - 2 / 3) <= 0.05
    assert abs(holder_probe(par3.model, curve=par3.curve) - 0.5) <= 0.05
    assert abs(holder_probe(uni1d.model, curve=uni1d.curve) - 1.0) <= 0.05


def test_holder_insufficient_range(uni1d):
    # no node of [0.1, 0.9] falls in the fit window [0.005, 0.08]
    curve = SplitCurve.from_function(uni1d.model.target,
                                     np.linspace(0.1, 0.9, 9), lambda y: y)
    with pytest.raises(InsufficientRange):
        holder_probe(uni1d.model, curve=curve)


def test_flat_paraboloid_exponent_degrades(flat3):
    # k = y^(6/7): the split curve stays closer to linear than the round
    # bowl's y^(2/3)
    expo = holder_probe(flat3.model, curve=flat3.curve)
    assert abs(expo - 6 / 7) <= 0.05


def test_ball_circle_analytic_curve_is_flat(ball):
    scenario = ball.scenario
    ys = np.linspace(-3, 3, 11)
    assert np.allclose(scenario.analytic_k(ys), 0.0)
    assert np.allclose(scenario.analytic_v(ys), 0.0)


def test_shell_variant_also_non_nested():
    # inner radius > 0 keeps the density bounded and the analytic map
    # smooth on the shell, but the model stays non-nested
    from nestor.nestedness import nestedness_report
    from nestor.solver import solve_split_curve
    scenario = build("ball-circle", r=0.05, resolution=128)
    curve = solve_split_curve(scenario.model, n_nodes=65)
    rep = nestedness_report(scenario.model, curve)
    assert rep.verdict == "non-nested"
    assert rep.unique_splitting.details["n_multi"] >= 5


@pytest.mark.parametrize("name, params", [
    ("uniform-1d", {}), ("uniform-1d", {"target": "linear"}),
    *(("paraboloid-segment", {"m": m}) for m in (2, 3, 4)),
    *(("flat-paraboloid", {"flatness": kappa}) for kappa in (1.5, 2.0, 3.0)),
    *(("ball-circle", {"r": r}) for r in (0.0, 0.05)),
    *(("pie-slice", {"theta0": theta0}) for theta0 in (np.pi / 4, 1.2, 2.2))])
def test_closed_forms_satisfy_the_duality_identities(name, params):
    # on the graph of F the split level is s_y and u + v = s; v' = k
    resolution = 2000 if params.get("m") == 4 else 16
    scenario = build(name, resolution=resolution, **params)
    model = scenario.model
    x = model.domain.sample_interior(1000, seed=1)
    f = scenario.analytic_map(x)
    assert np.allclose(scenario.analytic_k(f), model.surplus.s_y(x, f),
                       rtol=0.0, atol=1e-12)
    assert np.allclose(scenario.analytic_u(x),
                       model.surplus.s(x, f) - scenario.analytic_v(f),
                       rtol=0.0, atol=1e-12)
    tgt = model.target
    ys = tgt.y_lo + tgt.length * np.linspace(0.01, 0.99, 99)
    h = 1e-5 * tgt.length
    dv = (scenario.analytic_v(ys + h) - scenario.analytic_v(ys - h)) / (2 * h)
    assert np.allclose(dv, scenario.analytic_k(ys), rtol=0.0, atol=1e-6)

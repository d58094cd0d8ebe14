import numpy as np
import pytest

from nestor.errors import NonMonotoneSign
from nestor.geometry import Quadrature, TargetInterval, box_domain
from nestor.levelsets import sublevel_mass
from nestor.model import Model
from nestor.pseudoindex import (canonical_index, detect_index_form,
                                reduce_and_solve_1d, verify_1d_ode)
from nestor.scenarios import build
from nestor.solver import optimal_map
from nestor.surplus import polynomial_surplus


def _unit_box(terms):
    """The unit box onto [0, 1] with a polynomial surplus, at 48^2."""
    return Model(box_domain([0.0, 0.0], [1.0, 1.0]), TargetInterval(0, 1),
                 polynomial_surplus(terms, 2),
                 quadrature=Quadrature("tensor", 48))


# s = alpha(x) + sigma(I(x), y) with I = x1 + x2, sigma = I y + I^2 y:
# supermodular by construction
_EXPLICIT_INDEX_FORM = [(1.0, (1, 0), 1), (1.0, (0, 1), 1),           # I*y
                        (1.0, (2, 0), 1), (2.0, (1, 1), 1),
                        (1.0, (0, 2), 1),                             # I^2 y
                        (0.5, (2, 0), 0)]                             # alpha

_DETECTOR_TABLE = {
    "par2": (lambda: build("paraboloid-segment", m=2).model, True),
    "par3": (lambda: build("paraboloid-segment", m=3).model, True),
    "par4-monte-carlo": (lambda: build("paraboloid-segment", m=4,
                                       resolution=20000).model, True),
    "flat-paraboloid": (lambda: build("flat-paraboloid").model, True),
    "uniform-1d": (lambda: build("uniform-1d").model, True),
    "explicit-index-form": (lambda: Model(
        box_domain([0.1, 0.1], [1, 1]), TargetInterval(0, 1),
        polynomial_surplus(_EXPLICIT_INDEX_FORM, 2),
        quadrature=Quadrature("tensor", 128)), True),
    "box-y-x1": (lambda: _unit_box([(1.0, (1, 0), 1)]), True),
    "ball-circle": (lambda: build("ball-circle").model, False),
    "pie-slice": (lambda: build("pie-slice").model, False),
    "pie-slice-1.2": (lambda: build("pie-slice", theta0=1.2).model, False),
    "pie-slice-1.58": (lambda: build("pie-slice", theta0=1.58).model, False),
    # s_y = x1 + 0.7 x2 y: the level sets turn with y
    "box-turning": (lambda: _unit_box([(1.0, (1, 0), 1),
                                       (0.35, (0, 1), 2)]), False),
}


@pytest.mark.parametrize("name", list(_DETECTOR_TABLE))
def test_detector_table(name):
    make, is_index = _DETECTOR_TABLE[name]
    model = make()
    det = detect_index_form(model, seed=0)
    assert det["is_index"] is is_index
    assert det["confidence"] == (1.0 if is_index else 0.0)
    if is_index:
        assert det["witnesses"] == []
        return
    assert 0 < len(det["witnesses"]) <= 10
    for x, y, sine in det["witnesses"]:
        assert model.domain.contains(x[None, :])[0]
        assert model.target.y_lo <= y <= model.target.y_hi
        assert sine > 1e-6


@pytest.mark.parametrize("m, resolution", [(2, 48), (3, 24), (4, 20000)])
def test_knot_cdf_matches_sublevel_mass(m, resolution):
    # the PCHIP's knots are the grid points where the CDF rises
    model = build("paraboloid-segment", m=m, resolution=resolution).model
    rearr = reduce_and_solve_1d(model)
    knots = rearr.index_cdf.x
    ref = sublevel_mass(model, model.target.mid, knots) / model.total_mass
    assert np.max(np.abs(rearr.cdf(knots) - ref)) <= 1e-12


def test_reduction_matches_direct_solve(par2):
    rearr = reduce_and_solve_1d(par2.model)
    ts = np.linspace(0.05, 0.95, 31)
    assert np.max(np.abs(np.asarray(rearr.map_1d(ts)) - ts ** 1.5)) <= 5e-3
    probes = par2.model.domain.sample_interior(100, seed=2, margin=0.02)
    full = optimal_map(par2.model, par2.curve, probes)
    reduced = np.asarray(rearr.map_full(probes))
    assert np.max(np.abs(full - reduced)) <= 1e-2


def test_reduction_uniform_to_linear(uni1d_linear):
    rearr = reduce_and_solve_1d(uni1d_linear.model)
    ts = np.linspace(0.05, 0.95, 31)
    assert np.max(np.abs(np.asarray(rearr.map_1d(ts)) - np.sqrt(ts))) <= 2e-3
    assert verify_1d_ode(rearr) <= 1e-3


def test_reduction_identity_when_marginals_match(uni1d):
    rearr = reduce_and_solve_1d(uni1d.model)
    ts = np.linspace(0.05, 0.95, 31)
    assert np.max(np.abs(np.asarray(rearr.map_1d(ts)) - ts)) <= 1e-3


def test_ode_residual_paraboloid(par2):
    rearr = reduce_and_solve_1d(par2.model)
    resid = verify_1d_ode(rearr)
    ts = np.linspace(0.05, 0.95, 31)
    sup_f1 = float(np.max(rearr.density(ts)))
    assert abs(sup_f1 - 1.5 * np.sqrt(0.95)) < 0.05  # density of the index
    assert resid <= 0.01 * sup_f1


def test_non_monotone_sign_detected():
    # s = x1 y^2 on a y-interval centred on 0: the canonical index
    # s_y(., 0) = 0 has no gradient
    vanishing = Model(box_domain([0.1, 0.1], [1, 1]), TargetInterval(-1, 1),
                      polynomial_surplus([(1.0, (1, 0), 2)], 2),
                      quadrature=Quadrature("tensor", 64))
    with pytest.raises(NonMonotoneSign, match="vanishes"):
        reduce_and_solve_1d(vanishing)
    # s = x1 (y - 0.3)^2: s_y = 2 x1 (y - 0.3) turns with y through 0.3,
    # so the mixed derivative of sigma(I, y) changes sign
    turning = Model(box_domain([0.1, 0.1], [1, 1]), TargetInterval(-1, 1),
                    polynomial_surplus([(1.0, (1, 0), 2), (-0.6, (1, 0), 1),
                                        (0.09, (1, 0), 0)], 2),
                    quadrature=Quadrature("tensor", 64))
    with pytest.raises(NonMonotoneSign, match="changes sign"):
        reduce_and_solve_1d(turning)


def test_canonical_index_is_midpoint_slope(par2):
    idx = canonical_index(par2.model)
    pts = par2.model.domain.sample_interior(20, seed=3)
    assert np.allclose(idx(pts), pts[:, 0])

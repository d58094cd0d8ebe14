import numpy as np
import pytest

from nestor.errors import InsufficientPairs, NonMonotoneSign
from nestor.geometry import Quadrature, TargetInterval, box_domain
from nestor.model import Model
from nestor.pseudoindex import (canonical_index, detect_index_form,
                                reduce_and_solve_1d, verify_1d_ode)
from nestor.solver import optimal_map
from nestor.surplus import polynomial_surplus


def test_detector_true_for_segment_target(par2):
    det = detect_index_form(par2.model, seed=0)
    assert det["is_index"] and det["confidence"] > 0.99
    assert det["n_pairs"] >= 100


def test_detector_false_for_arc_target(ball):
    det = detect_index_form(ball.model, seed=0)
    assert not det["is_index"]
    assert det["witnesses"], "expected failing pairs as witnesses"
    xa, xb, y1, gap = det["witnesses"][0]
    assert gap > 0


def test_detector_true_for_explicit_index_form():
    # s = alpha(x) + sigma(I(x), y) with I = x1 + x2, sigma = I y + I^2 y:
    # supermodular by construction
    terms = [(1.0, (1, 0), 1), (1.0, (0, 1), 1),          # I*y
             (1.0, (2, 0), 1), (2.0, (1, 1), 1), (1.0, (0, 2), 1),  # I^2 y
             (0.5, (2, 0), 0)]                             # alpha
    bundle = polynomial_surplus(terms, 2)
    model = Model(box_domain([0.1, 0.1], [1, 1]), TargetInterval(0, 1),
                  bundle, quadrature=Quadrature("tensor", 128))
    det = detect_index_form(model, seed=1)
    assert det["is_index"]


def test_insufficient_pairs(par2):
    with pytest.raises(InsufficientPairs):
        detect_index_form(par2.model, pair_probes=50)


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
                      quadrature=Quadrature("tensor", 64), validate=False)
    with pytest.raises(NonMonotoneSign, match="vanishes"):
        reduce_and_solve_1d(vanishing)
    # s = x1 (y - 0.3)^2: s_y = 2 x1 (y - 0.3) turns with y through 0.3,
    # so the mixed derivative of sigma(I, y) changes sign
    turning = Model(box_domain([0.1, 0.1], [1, 1]), TargetInterval(-1, 1),
                    polynomial_surplus([(1.0, (1, 0), 2), (-0.6, (1, 0), 1),
                                        (0.09, (1, 0), 0)], 2),
                    quadrature=Quadrature("tensor", 64), validate=False)
    with pytest.raises(NonMonotoneSign, match="changes sign"):
        reduce_and_solve_1d(turning)


def test_canonical_index_is_midpoint_slope(par2):
    idx = canonical_index(par2.model)
    pts = par2.model.domain.sample_interior(20, seed=3)
    assert np.allclose(idx(pts), pts[:, 0])

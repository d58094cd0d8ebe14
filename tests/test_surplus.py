import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestor.geometry import Quadrature, TargetInterval, box_domain
from nestor.model import Model
from nestor.surplus import (SurplusBundle, arc_surplus, bilinear_surplus,
                            polynomial_surplus)

DOM = box_domain([0.1, -1], [1, 1])
TGT = TargetInterval(0.0, 1.0)


@pytest.mark.parametrize("bundle", [
    bilinear_surplus([1, 0]),
    bilinear_surplus([0.6, 0.8]),
    arc_surplus(),
    polynomial_surplus([(1.0, (1, 0), 1), (0.5, (2, 1), 2), (-0.3, (0, 3), 1)], 2),
])
def test_finite_difference_consistency(bundle):
    report = bundle.check_consistency(DOM, TGT)
    assert max(report.values()) <= 1e-5


@st.composite
def _poly_tables(draw):
    """A random coefficient table: dim 1-3, powers 0-3, coefficients in
    [-3, 3]."""
    dim = draw(st.integers(1, 3))
    term = st.tuples(st.floats(-3.0, 3.0),
                     st.tuples(*[st.integers(0, 3)] * dim), st.integers(0, 3))
    return dim, draw(st.lists(term, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=_poly_tables())
def test_random_polynomial_tables_are_consistent(table):
    dim, terms = table
    box = box_domain([-1.0] * dim, [1.0] * dim)
    report = polynomial_surplus(terms, dim).check_consistency(box, TGT)
    assert max(report.values()) <= 1e-5


def test_inconsistent_bundle_is_caught():
    base = bilinear_surplus([1, 0])
    lying = SurplusBundle(s=base.s, s_y=lambda x, y: base.s_y(x, y) + 0.05,
                          grad_x_s_y=base.grad_x_s_y, s_yy=base.s_yy)
    with pytest.raises(ValueError):
        lying.check_consistency(DOM, TGT)


def test_polynomial_derivatives_are_exact():
    # s = 2 x1^2 y^3 - x2 y
    terms = [(2.0, (2, 0), 3), (-1.0, (0, 1), 1)]
    b = polynomial_surplus(terms, 2)
    x = np.array([[0.5, -0.25], [1.5, 2.0]])
    y = 0.7
    assert np.allclose(b.s(x, y), 2 * x[:, 0] ** 2 * y ** 3 - x[:, 1] * y)
    assert np.allclose(b.s_y(x, y), 6 * x[:, 0] ** 2 * y ** 2 - x[:, 1])
    assert np.allclose(b.grad_x_s_y(x, y),
                       np.stack([12 * x[:, 0] * y ** 2,
                                 -np.ones(2)], axis=1))
    assert np.allclose(b.s_yy(x, y), 12 * x[:, 0] ** 2 * y)


def test_polynomial_validates_terms():
    with pytest.raises(ValueError):
        polynomial_surplus([(1.0, (1,), 1)], 2)  # wrong arity
    with pytest.raises(ValueError):
        polynomial_surplus([(1.0, (-1, 0), 1)], 2)
    # powers that are not integers are not truncated
    for terms in ([(1.0, (1.5, 0), 1), (2.0, (0, 1), 2.7)],
                  [(2.0, (0, 1), 2.7)], [(1.0, (1, 0), -1)]):
        with pytest.raises(ValueError, match="non-negative integers"):
            polynomial_surplus(terms, 2)


_EVALUATORS = ("s", "s_y", "grad_x_s_y", "s_yy")


@pytest.mark.parametrize("bundle, dim", [
    pytest.param(bilinear_surplus([0.6, 0.8]), 2, id="bilinear-2d"),
    pytest.param(bilinear_surplus([1.0, -2.0, 0.5]), 3, id="bilinear-3d"),
    pytest.param(arc_surplus(), 2, id="arc"),
    pytest.param(polynomial_surplus(
        [(0.7, (0, 1), 0), (-1.3, (1, 0), 1), (0.4, (2, 1), 2),
         (1.1, (0, 3), 3), (-0.2, (1, 1), 4)], 2), 2, id="polynomial-2d"),
    pytest.param(polynomial_surplus(
        [(0.7, (0, 1, 1), 0), (-1.3, (1, 0, 0), 1), (0.4, (2, 0, 1), 2),
         (1.1, (0, 3, 0), 3), (-0.2, (1, 1, 1), 4)], 3), 3,
        id="polynomial-3d")])
def test_scalar_y_gives_the_bits_of_one_y_per_row(bundle, dim):
    x = np.random.default_rng(7).uniform(-1.5, 1.5, (1000, dim))
    for y in np.random.default_rng(8).uniform(-2.0, 2.0, 50):
        for name in _EVALUATORS:
            fn = getattr(bundle, name)
            rows = fn(x, np.full(x.shape[0], y))
            for scalar in (float(y), y):
                out = fn(x, scalar)
                assert out.shape == rows.shape, name
                assert out.tobytes() == rows.tobytes(), (name, y)


_ARC = arc_surplus()


@pytest.mark.parametrize("name, broken, shape", [
    pytest.param("s_y", lambda x, y: list(_ARC.s_y(x, y)), "(N,)",
                 id="s_y-list"),
    pytest.param("s_yy", lambda x, y: _ARC.s_yy(x, y).astype(np.float32),
                 "(N,)", id="s_yy-float32"),
    pytest.param("s", lambda x, y: _ARC.s(x, y)[:, None], "(N,)",
                 id="s-column"),
    pytest.param("grad_x_s_y", lambda x, y: _ARC.grad_x_s_y(x, y)[:, 0],
                 "(N, m)", id="grad_x_s_y-flat")])
def test_model_rejects_a_bundle_that_breaks_the_contract(name, broken, shape):
    bundle = replace(_ARC, name="broken", **{name: broken})
    message = (f"surplus bundle 'broken': {name} must return a float64 "
               f"ndarray of shape {shape}")
    with pytest.raises(ValueError, match=re.escape(message)):
        Model(DOM, TGT, bundle, quadrature=Quadrature("tensor", 16))


def test_row_wise_target_broadcast():
    b = arc_surplus()
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.array([0.0, np.pi / 2])
    assert np.allclose(b.s(x, t), [1.0, 1.0])
    assert np.allclose(b.s_y(x, t), [0.0, 0.0])


def test_y_free_sy_declaration_is_checked_at_assembly():
    assert bilinear_surplus([1, 0]).sy_free_of_y
    assert not arc_surplus().sy_free_of_y
    # s = x1 y^2 / 2: s_y = x1 y varies with y
    honest = polynomial_surplus([(0.5, (1, 0), 2)], 2)
    assert not honest.sy_free_of_y
    dishonest = replace(honest, name="wobbly", sy_free_of_y=True)
    quad = Quadrature("tensor", 16)
    Model(DOM, TGT, honest, quadrature=quad)
    with pytest.raises(ValueError, match="'wobbly' declares s_y free of y"):
        Model(DOM, TGT, dishonest, quadrature=quad)


def test_y_free_sy_needs_an_exactly_zero_syy():
    # the split solve and the map take s_yy = 0 where s_y is free of y
    # without calling it; s_yy = 1e-12 x1 is inside the finite-difference
    # tolerance, so only the exact test catches it
    bundle = bilinear_surplus([1, 0])
    wobbly = replace(bundle, name="wobbly", s_yy=lambda x, y: 1e-12 * x[:, 0])
    quad = Quadrature("tensor", 16)
    Model(DOM, TGT, bundle, quadrature=quad)
    Model(DOM, TGT, replace(wobbly, sy_free_of_y=False), quadrature=quad)
    with pytest.raises(ValueError, match=re.escape(
            "'wobbly' declares s_y free of y, but s_yy is not 0")):
        Model(DOM, TGT, wobbly, quadrature=quad)

"""The numpy PCHIP against SciPy's PchipInterpolator, which the package no
longer imports but the tests still have."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from nestor._pchip import Pchip


def _data():
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.uniform(0.1, 1.0, 40))
    flat = np.repeat(rng.standard_normal(10), 4)  # zero secants in runs
    zigzag = np.where(np.arange(40) % 2 == 0, 1.0, -1.0) * rng.uniform(1, 2, 40)
    return {
        "monotone": (x, np.cumsum(rng.random(40))),
        "random": (x, rng.standard_normal(40)),
        "flat runs": (x, flat),
        "secant sign changes": (x, zigzag),
        "n = 2": (np.array([0.5, 2.0]), np.array([1.0, -3.0])),
        # the three end-slope branches: three-point rule, capped at three
        # times the end secant, zeroed against it
        "n = 3": (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])),
        "n = 3, capped": (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -9.0])),
        "n = 3, zeroed": (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 11.0])),
    }


def _close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _check_against_scipy(x, y):
    ours, ref = Pchip(x, y), PchipInterpolator(x, y)
    t = np.concatenate([x, np.linspace(x[0], x[-1], 2001)])
    _close(ours(t), ref(t))
    _close(ours.slope(t), ref.derivative()(t))
    _close(ours.integral(t), ref.antiderivative()(t))
    value, slope = ours.value_and_slope(t)
    assert np.array_equal(value, ours(t)) and np.array_equal(slope, ours.slope(t))


@pytest.mark.parametrize("name", list(_data()))
def test_pchip_matches_scipy(name):
    _check_against_scipy(*_data()[name])


@pytest.mark.parametrize("name", ["par2", "par3"])
def test_pchip_matches_scipy_on_solved_curves(request, name):
    curve = request.getfixturevalue(name).curve
    _check_against_scipy(curve.y_grid, curve.k_plus)

"""The numpy PCHIP against SciPy's PchipInterpolator, which the package no
longer imports but the tests still have."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


_CURVES = _data()
# per t: its own interval, the ones below and above, and -1, n - 1 and n
# for n nodes (past both ends of the intervals 0 .. n - 2)
_HINTS = ["right", "below", "above", "-1", "n-1", "n"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hinted_lookups_equal_unhinted(data):
    x, y = _CURVES[data.draw(st.sampled_from(sorted(_CURVES)))]
    p, n = Pchip(x, y), x.size
    span = x[-1] - x[0]
    # nodes (both ends included) and points inside and outside [x0, xn]
    t = np.array(data.draw(st.lists(
        st.sampled_from(list(x)) | st.floats(x[0] - span, x[-1] + span),
        min_size=1, max_size=16)))
    right = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
    kinds = data.draw(st.lists(st.sampled_from(_HINTS), min_size=t.size,
                               max_size=t.size))
    pick = {"right": right, "below": right - 1, "above": right + 1,
            "-1": np.full(t.size, -1), "n-1": np.full(t.size, n - 1),
            "n": np.full(t.size, n)}
    hint = np.array([pick[kind][j] for j, kind in enumerate(kinds)])
    given_hint = hint.copy()
    assert np.array_equal(p.integral(t, hint), p.integral(t))
    for got, want in zip(p.value_and_slope(t, hint), p.value_and_slope(t)):
        assert np.array_equal(got, want)
    assert np.array_equal(hint, given_hint)  # the caller's hint is not written


def test_right_hints_skip_the_search(monkeypatch):
    x, y = _CURVES["random"]
    p = Pchip(x, y)
    t = np.concatenate([x[:-1], 0.5 * (x[:-1] + x[1:]), [x[0] - 1, x[-1] + 1]])
    hint = np.concatenate([np.arange(x.size - 1)] * 2 + [[0, x.size - 2]])
    want = (*p.value_and_slope(t), p.integral(t))
    assert p.integral(x[3:4], [2]) == p.integral(x[3:4])  # a wrong hint searched
    monkeypatch.setattr(np, "searchsorted", None)
    for got, w in zip((*p.value_and_slope(t, hint), p.integral(t, hint)), want):
        assert np.array_equal(got, w)

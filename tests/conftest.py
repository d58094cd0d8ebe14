"""Shared fixtures: the expensive solves are session-scoped so the whole
suite (acceptance included) pays for each one once."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from nestor import scenarios as sc
from nestor import solver as sv


@dataclass
class Solved:
    scenario: sc.Scenario
    curve: sv.SplitCurve
    build_seconds: float
    solve_seconds: float

    @property
    def model(self):
        return self.scenario.model


def _solve(name, n_nodes=257, **params):
    t0 = time.perf_counter()
    scenario = sc.build(name, **params)
    t1 = time.perf_counter()
    curve = sv.solve_split_curve(scenario.model, n_nodes=n_nodes)
    t2 = time.perf_counter()
    return Solved(scenario=scenario, curve=curve, build_seconds=t1 - t0,
                  solve_seconds=t2 - t1)


@pytest.fixture(scope="session")
def par2():
    """Paraboloid to segment, m = 2, default 128^2 grid."""
    return _solve("paraboloid-segment", m=2)


@pytest.fixture(scope="session")
def par3():
    """Paraboloid to segment, m = 3, default 56^3 grid."""
    return _solve("paraboloid-segment", m=3)


@pytest.fixture(scope="session")
def ball():
    """Punctured unit disk onto the punctured circle (r = 0)."""
    return _solve("ball-circle", r=0.0, n_nodes=129)


@pytest.fixture(scope="session")
def pie_nested():
    return _solve("pie-slice", theta0=np.pi / 4, resolution=192, n_nodes=129)


@pytest.fixture(scope="session")
def pie_wide():
    return _solve("pie-slice", theta0=3 * np.pi / 4, resolution=192,
                  n_nodes=129)


@pytest.fixture(scope="session")
def uni1d():
    return _solve("uniform-1d", n_nodes=129)


@pytest.fixture(scope="session")
def uni1d_linear():
    return _solve("uniform-1d", target="linear", n_nodes=129)


@pytest.fixture(scope="session")
def flat3():
    return _solve("flat-paraboloid", flatness=3.0, resolution=192,
                  n_nodes=129)

import numpy as np
import pytest

from nestor.errors import EmptyDomain
from nestor.geometry import (Domain, Quadrature, TargetInterval,
                             annulus_domain, box_domain, interval_domain,
                             paraboloid_domain, pie_slice_domain)


def test_bbox_must_have_positive_extent():
    with pytest.raises(ValueError):
        Domain(dim=2, bbox=np.array([[0.0, 0.0], [1.0, 0.0]]),
               inside=lambda x: np.ones(len(x), bool))


def test_contains_is_false_outside_bbox():
    dom = box_domain([0, 0], [1, 1])
    pts = np.array([[1.5, 0.5], [-0.1, 0.5], [0.5, 0.5]])
    assert dom.contains(pts).tolist() == [False, False, True]


def test_target_interval_orientation():
    with pytest.raises(ValueError):
        TargetInterval(1.0, 1.0)
    t = TargetInterval(0, 2)
    assert t.length == 2.0 and isinstance(t.y_lo, float)
    grid = t.interior_grid(33)
    assert grid[0] > 0 and grid[-1] < 2 and np.all(np.diff(grid) > 0)


def test_tensor_quadrature_volume_and_determinism():
    dom = paraboloid_domain(2)
    q = Quadrature("tensor", 128)
    g1 = q.materialize(dom)
    g2 = q.materialize(dom)
    assert np.array_equal(g1.points, g2.points)
    assert np.array_equal(g1.weights, g2.weights)
    exact = 4 * np.sqrt(2) / 3
    assert abs(g1.volume - exact) < 3e-3 * exact


def _midpoint_rule(dom, n):
    """The plain midpoint rule: every cell whose midpoint is inside, with
    the full cell weight, in x1-major cell order."""
    lo, hi = dom.bbox
    h = (hi - lo) / n
    axes = [lo[j] + (np.arange(n) + 0.5) * h[j] for j in range(dom.dim)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                   axis=1)
    pts = pts[dom.contains(pts)]
    return pts, np.full(pts.shape[0], float(np.prod(h)))


@pytest.mark.parametrize("m, exact", [(2, 4 * np.sqrt(2) / 3), (3, np.pi)],
                         ids=["par2", "par3"])
def test_cut_cells_converge_faster_than_midpoints(m, exact):
    dom = paraboloid_domain(m)
    errors = []
    for n in (32, 64, 128):
        cut = abs(Quadrature("tensor", n).materialize(dom).volume - exact)
        midpoint = abs(np.sum(_midpoint_rule(dom, n)[1]) - exact)
        assert cut < midpoint, n
        errors.append(cut)
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("dom", [paraboloid_domain(2), paraboloid_domain(3),
                                 pie_slice_domain(1.2), annulus_domain(0.3)],
                         ids=["par2", "par3", "pie", "annulus"])
def test_cut_cell_weights_and_flags(dom):
    n = 24
    grid = Quadrature("tensor", n).materialize(dom)
    lo = dom.bbox[0]
    cell = float(np.prod(grid.spacing))
    assert np.all(grid.weights > 0) and np.all(grid.weights <= cell)
    assert np.any(grid.weights < cell)
    # each point lies in its own cell, within 3/8 of a side of the midpoint
    index = np.floor((grid.points - lo) / grid.spacing)
    midpoints = lo + (index + 0.5) * grid.spacing
    assert np.all(np.abs(grid.points - midpoints)
                  <= 0.375 * grid.spacing * (1 + 1e-9))
    outside = ~dom.contains(midpoints)
    assert np.any(outside)
    assert np.all(grid.boundary_adjacent[outside])
    # a cell wholly inside keeps its midpoint and its full weight
    full = grid.weights == cell
    assert np.array_equal(grid.points[full], midpoints[full])


def test_face_aligned_box_is_the_midpoint_rule():
    inner = box_domain([0.25, 0.5, 0.0], [0.75, 1.0, 0.5])
    dom = Domain(dim=3, bbox=np.array([[0.0] * 3, [1.0] * 3]),
                 inside=inner.inside)
    for domain, n in ((box_domain([0, 0], [1, 2]), 16),
                      (box_domain([-1, 0, 0], [1, 1, 3]), 12), (dom, 8)):
        grid = Quadrature("tensor", n).materialize(domain)
        points, weights = _midpoint_rule(domain, n)
        assert np.array_equal(grid.points, points)
        assert np.array_equal(grid.weights, weights)


def test_monte_carlo_quadrature_seeded():
    dom = annulus_domain(0.2)
    q = Quadrature("monte-carlo", 20_000, seed=5)
    g1 = q.materialize(dom)
    g2 = Quadrature("monte-carlo", 20_000, seed=5).materialize(dom)
    g3 = Quadrature("monte-carlo", 20_000, seed=6).materialize(dom)
    assert np.array_equal(g1.points, g2.points)
    assert not np.array_equal(g1.points, g3.points)
    exact = np.pi * (1 - 0.04)
    assert abs(g1.volume - exact) < 0.05 * exact


def test_empty_domain_raises():
    dom = Domain(dim=1, bbox=np.array([[0.0], [1.0]]),
                 inside=lambda x: np.zeros(len(x), bool))
    with pytest.raises(EmptyDomain):
        Quadrature("tensor", 16).materialize(dom)


def test_boundary_adjacent_flags_square():
    dom = box_domain([0, 0], [1, 1])
    grid = Quadrature("tensor", 16).materialize(dom)
    adj = grid.boundary_adjacent
    pts = grid.points
    near_edge = np.min(np.minimum(pts, 1 - pts), axis=1) < 1.0 / 16
    assert np.array_equal(adj, near_edge)


def test_boundary_normals_are_unit():
    for dom in (paraboloid_domain(2), annulus_domain(0.3),
                pie_slice_domain(1.0), box_domain([0, 0], [2, 1]),
                interval_domain()):
        grid = Quadrature("tensor", 32).materialize(dom)
        pts = grid.points[grid.boundary_adjacent]
        normals = np.atleast_2d(dom.boundary_normal(pts))
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)


def test_sample_interior_margin():
    dom = paraboloid_domain(2)
    pts = dom.sample_interior(200, seed=1, margin=0.02)
    assert pts.shape == (200, 2)
    assert np.all(dom.contains(pts))
    # margin keeps samples a step away from the bowl
    assert np.all(pts[:, 0] - 0.5 * pts[:, 1] ** 2 > 1e-4)


def test_paraboloid_flatness_bbox_covers_bowl():
    dom = paraboloid_domain(2, flatness=3.0)
    # the widest section at x1 -> 1 has |x2| -> sqrt(2)
    x = np.array([[0.999, 1.40]])
    assert dom.contains(x)[0]

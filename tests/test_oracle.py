import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestor.oracle import (DiscreteInstance, cyclical_monotonicity_audit,
                           compare_with_map, plan_marginal_errors,
                           sample_instance, solve_transport)


def _instance(a, b, s_matrix):
    ns, nt = len(a), len(b)
    return DiscreteInstance(np.zeros((ns, 1)), np.asarray(a, dtype=float),
                            np.zeros(nt), np.asarray(b, dtype=float),
                            np.asarray(s_matrix, dtype=float))


def _enumerate_optimum(a, b, s_matrix):
    """Independent oracle: enumerate all basic solutions of the small
    transportation polytope (spanning trees of the bipartite graph)."""
    ns, nt = len(a), len(b)
    arcs = list(itertools.product(range(ns), range(nt)))
    best = -np.inf
    best_plan = None
    for basis in itertools.combinations(arcs, ns + nt - 1):
        mat = np.zeros((ns + nt, len(basis)))
        for p, (i, j) in enumerate(basis):
            mat[i, p] = 1.0
            mat[ns + j, p] = 1.0
        rhs = np.concatenate([a, b])
        sol, residual, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
        if rank < ns + nt - 1:
            continue
        if np.max(np.abs(mat @ sol - rhs)) > 1e-10 or np.min(sol) < -1e-12:
            continue
        value = sum(v * s_matrix[i][j] for v, (i, j) in zip(sol, basis))
        if value > best:
            best = value
            best_plan = dict(zip(basis, sol))
    return best, best_plan


def test_instance_validation():
    with pytest.raises(ValueError):
        _instance([0.6, 0.6], [0.5, 0.5], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        _instance([1.0, 0.0], [0.5, 0.5], [[0, 0], [0, 0]])


def test_identity_2x2():
    plan = solve_transport(_instance([.5, .5], [.5, .5], [[1, 0], [0, 1]]))
    assert abs(plan.objective - 1.0) <= 1e-12
    dense = plan.to_dense((2, 2))
    assert np.allclose(dense, np.diag([0.5, 0.5]))


def test_3x2_against_enumeration():
    a = [1 / 3, 1 / 3, 1 / 3]
    b = [0.5, 0.5]
    s_mat = [[2.0, 1.0], [1.0, 2.0], [0.0, 3.0]]
    best, best_plan = _enumerate_optimum(a, b, s_mat)
    assert abs(best - 13 / 6) < 1e-12  # frozen from the enumeration
    plan = solve_transport(_instance(a, b, s_mat))
    assert abs(plan.objective - best) <= 1e-12
    expected = np.array([[1 / 3, 0.0], [1 / 6, 1 / 6], [0.0, 1 / 3]])
    assert np.allclose(plan.to_dense((3, 2)), expected, atol=1e-12)


def test_monotone_assignment_for_supermodular_atoms():
    rng = np.random.default_rng(8)
    xs = np.sort(rng.random(30))
    ys = np.sort(rng.random(30))
    s_mat = xs[:, None] * ys[None, :]
    inst = DiscreteInstance(xs[:, None], np.full(30, 1 / 30), ys,
                            np.full(30, 1 / 30), s_mat)
    plan = solve_transport(inst)
    rows, cols, _ = plan.support
    order = np.argsort(xs[rows])
    assert np.all(np.diff(ys[cols][order]) >= 0)


def test_pivoting_reaches_sorted_optimum():
    # shuffled rows force pivots; the optimum must match the sorted case
    rng = np.random.default_rng(3)
    xs = rng.random(40)
    ys = np.sort(rng.random(25))
    a = np.full(40, 1 / 40)
    b = np.full(25, 1 / 25)
    s_shuffled = xs[:, None] * ys[None, :]
    plan = solve_transport(DiscreteInstance(xs[:, None], a, ys, b, s_shuffled))
    assert plan.n_pivots > 0
    order = np.argsort(xs)
    plan_sorted = solve_transport(
        DiscreteInstance(xs[order][:, None], a, ys, b, s_shuffled[order]))
    assert abs(plan.objective - plan_sorted.objective) < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_random_instances_duality_and_slackness(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        ns = int(rng.integers(2, 201))
        nt = int(rng.integers(2, 51))
        a = rng.random(ns) + 0.01
        a /= a.sum()
        b = rng.random(nt) + 0.01
        b /= b.sum()
        s_mat = rng.standard_normal((ns, nt))
        _assert_optimal(_instance(a, b, s_mat))


def _assert_optimal(inst):
    """Solve and check the optimality certificate to 1e-9: strong duality,
    dual feasibility, complementary slackness, marginals, basis size."""
    plan = solve_transport(inst)
    a, b = inst.source_weights, inst.target_weights
    s_mat = inst.surplus_matrix
    ns, nt = s_mat.shape
    # strong duality
    dual = plan.u @ a + plan.v @ b
    assert abs(plan.objective - dual) <= 1e-9
    # feasibility of the duals
    assert np.max(s_mat - plan.u[:, None] - plan.v[None, :]) <= 1e-9
    # complementary slackness on the support
    rows, cols, vals = plan.support
    slack = plan.u[rows] + plan.v[cols] - s_mat[rows, cols]
    assert np.max(np.abs(slack)) <= 1e-9
    # marginals and basis size
    err_a, err_b = plan_marginal_errors(inst, plan)
    assert max(err_a, err_b) <= 1e-9
    assert plan.rows.size <= ns + nt - 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nt=st.integers(2, 25), mult=st.integers(1, 4), levels=st.integers(0, 3),
       equal_weights=st.booleans(), seed=st.integers(0, 2**16))
def test_degenerate_instances_duality_and_slackness(nt, mult, levels,
                                                     equal_weights, seed):
    # tied surpluses (a few integer levels; levels = 0 is a constant matrix)
    # and equal weights with ns a multiple of nt, whose northwest-corner
    # partial sums coincide and leave zero-valued basic arcs
    rng = np.random.default_rng(seed)
    ns = mult * nt
    s_mat = rng.integers(0, levels + 1, (ns, nt)).astype(float)
    if equal_weights:
        a, b = np.full(ns, 1 / ns), np.full(nt, 1 / nt)
    else:
        a, b = rng.random(ns) + 0.01, rng.random(nt) + 0.01
        a, b = a / a.sum(), b / b.sum()
    _assert_optimal(_instance(a, b, s_mat))


def test_cyclical_monotonicity_and_negative_control():
    rng = np.random.default_rng(12)
    a = np.full(20, 1 / 20)
    b = np.full(20, 1 / 20)
    s_mat = rng.standard_normal((20, 20))
    inst = _instance(a, b, s_mat)
    plan = solve_transport(inst)
    assert cyclical_monotonicity_audit(plan, s_mat) <= 1e-9
    # the independent coupling is feasible but not optimal
    from nestor.oracle import DiscretePlan
    rows, cols = np.divmod(np.arange(400), 20)
    sloppy = DiscretePlan(rows=rows, cols=cols,
                          values=np.full(400, 1 / 400), u=plan.u, v=plan.v,
                          objective=float(np.sum(s_mat) / 400))
    assert cyclical_monotonicity_audit(sloppy, s_mat) > 0.1


def test_sample_instance(par2):
    inst = sample_instance(par2.model, 400, 40, seed=7)
    assert abs(inst.source_weights.sum() - 1) < 1e-12
    assert abs(inst.target_weights.sum() - 1) < 1e-12
    assert np.all(par2.model.domain.contains(inst.source_points))
    assert np.all(np.diff(inst.target_points) > 0)
    again = sample_instance(par2.model, 400, 40, seed=7)
    assert np.array_equal(inst.source_points, again.source_points)
    single = sample_instance(par2.model, 16, 1, seed=0)
    assert single.target_weights.tolist() == [1.0]


def test_sample_instance_square_cells():
    from nestor.geometry import Quadrature, TargetInterval, box_domain
    from nestor.model import Model
    from nestor.surplus import bilinear_surplus
    sq = Model(box_domain([0, 0], [1, 1]), TargetInterval(0, 1),
               bilinear_surplus([1, 0]), quadrature=Quadrature("tensor", 64))
    inst = sample_instance(sq, 4, 4, seed=2)
    assert np.allclose(inst.source_weights, 0.25)
    centers = (np.round(inst.source_points * 64 - 0.5) + 0.5) / 64
    assert np.allclose(inst.source_points, centers)  # atoms on cell centers


def test_compare_with_map_paraboloid(par2):
    inst = sample_instance(par2.model, 400, 40, seed=7)
    plan = solve_transport(inst)
    gaps = compare_with_map(par2.model, par2.curve, inst, plan)
    assert abs(gaps["surplus_gap"]) <= 5e-3
    assert gaps["dual_gap"] <= 2e-2


def test_degenerate_single_target(par2):
    inst = sample_instance(par2.model, 50, 1, seed=1)
    plan = solve_transport(inst)
    assert abs(plan.objective
               - np.sum(inst.source_weights * inst.surplus_matrix[:, 0])) <= 1e-12
    rows, cols, vals = plan.support
    assert np.all(cols == 0)


def test_serialization_roundtrip():
    inst = _instance([0.5, 0.5], [0.25, 0.75], [[1.0, 2.0], [3.0, 4.0]])
    clone = DiscreteInstance.from_dict(inst.to_dict())
    assert np.array_equal(clone.surplus_matrix, inst.surplus_matrix)
    plan = solve_transport(inst)
    d = plan.to_dict()
    assert d["objective"] == plan.objective


def test_oracle_convergence_in_source_atoms(par2):
    gaps = {}
    for n_src in (100, 400, 1600):
        inst = sample_instance(par2.model, n_src, 40, seed=7)
        plan = solve_transport(inst)
        gaps[n_src] = abs(compare_with_map(par2.model, par2.curve, inst,
                                           plan)["surplus_gap"])
    assert gaps[1600] <= gaps[100] / 2  # factor >= 2 from 100 to 1600


def test_compare_1d_uniform_100x100(uni1d):
    inst = sample_instance(uni1d.model, 100, 100, seed=3)
    plan = solve_transport(inst)
    gaps = compare_with_map(uni1d.model, uni1d.curve, inst, plan)
    assert abs(gaps["surplus_gap"]) <= 1e-3
    assert gaps["dual_gap"] <= 1e-2

import dataclasses
import itertools
import logging
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestor.errors import NestorError, PivotBudgetExceeded
from nestor.oracle import (DiscreteInstance, _align_shift, _northwest_corner,
                           cyclical_monotonicity_audit, compare_with_map,
                           plan_marginal_errors, sample_instance,
                           solve_transport)


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
    # a 4x3 surplus matrix with 5 or 3 source weights, or with 3 source
    # points beside 4 weights: 5 weights used to hang the simplex
    s43 = np.zeros((4, 3))
    b = np.full(3, 1 / 3)
    for a in (np.full(5, 0.2), np.full(3, 1 / 3)):
        with pytest.raises(ValueError, match="surplus matrix"):
            _instance(a, b, s43)
    with pytest.raises(ValueError, match="surplus matrix"):
        DiscreteInstance(np.zeros((3, 1)), np.full(4, 0.25), np.zeros(3), b,
                         s43)
    # non-finite atoms: a NaN surplus used to solve to a 0-pivot plan with
    # objective nan, and NaN weights passed both weight checks
    ok = _instance([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    for name, value in (("surplus_matrix", [[0.0, np.nan], [1.0, 0.0]]),
                        ("source_weights", [np.nan, np.nan]),
                        ("target_weights", [0.5, np.nan]),
                        ("source_points", [[np.inf], [0.0]]),
                        ("target_points", [0.0, -np.inf])):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dataclasses.replace(ok, **{name: np.asarray(value)})


def test_identity_2x2():
    plan = solve_transport(_instance([.5, .5], [.5, .5], [[1, 0], [0, 1]]))
    assert abs(plan.objective - 1.0) <= 1e-12
    dense = np.zeros((2, 2))
    dense[plan.rows, plan.cols] = plan.values
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
    dense = np.zeros((3, 2))
    dense[plan.rows, plan.cols] = plan.values
    assert np.allclose(dense, expected, atol=1e-12)


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
    dual feasibility, complementary slackness, marginals, basis size;
    returns the plan."""
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
    return plan


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ns=st.integers(1, 4), nt=st.integers(1, 3), levels=st.integers(0, 3),
       equal_weights=st.booleans(), seed=st.integers(0, 2**16))
def test_tiny_instances_match_enumeration(ns, nt, levels, equal_weights,
                                          seed):
    # levels = 0 draws continuous surpluses; 1-3 draw tied integer levels
    rng = np.random.default_rng(seed)
    if levels:
        s_mat = rng.integers(0, levels + 1, (ns, nt)).astype(float)
    else:
        s_mat = rng.standard_normal((ns, nt))
    if equal_weights:
        a, b = np.full(ns, 1 / ns), np.full(nt, 1 / nt)
    else:
        a, b = rng.random(ns) + 0.01, rng.random(nt) + 0.01
        a, b = a / a.sum(), b / b.sum()
    best, _ = _enumerate_optimum(a, b, s_mat)
    plan = _assert_optimal(_instance(a, b, s_mat))
    assert abs(plan.objective - best) <= 1e-12


def _shuffled(inst, seed):
    rng = np.random.default_rng(seed)
    ns, nt = inst.shape
    return _permuted(inst, rng.permutation(ns), rng.permutation(nt))


def _permuted(inst, r, c):
    return DiscreteInstance(inst.source_points[r], inst.source_weights[r],
                            inst.target_points[c], inst.target_weights[c],
                            inst.surplus_matrix[np.ix_(r, c)])


def test_shuffled_par2_1000x100_is_optimal(par2):
    inst = _shuffled(sample_instance(par2.model, 1000, 100, seed=7), seed=4)
    plan = _assert_optimal(inst)
    assert plan.n_pivots > 0


@pytest.fixture(scope="module")
def par2_atoms():
    from nestor.scenarios import build
    model = build("paraboloid-segment", m=2, resolution=96).model
    inst = sample_instance(model, 200, 20, seed=7)
    plan = solve_transport(inst)
    assert plan.n_pivots == 0
    return inst, plan.objective


@settings(max_examples=25, deadline=None, derandomize=True)
@given(r=st.permutations(range(200)), c=st.permutations(range(20)))
def test_objective_does_not_depend_on_atom_order(par2_atoms, r, c):
    # the sorted par2 atoms solve with no pivot; any reordering of the
    # same atoms must reach the same optimum
    inst, objective = par2_atoms
    plan = _assert_optimal(_permuted(inst, np.asarray(r), np.asarray(c)))
    assert abs(plan.objective - objective) <= 1e-12


def test_unpivoted_plan_is_the_northwest_corner(par2):
    # s = x1 y is supermodular, so on the atoms stably sorted by x1 the
    # northwest corner is the optimal monotone coupling: the simplex runs
    # no pivot, and its plan is that basis in its order with the duals
    # propagated from u_0 = 0 along its arcs.  The atoms as sampled (cut
    # cell centroids leave them out of x1 order) pivot to the same
    # objective, with u_i + v_j = S_ij on their basis.
    sampled = sample_instance(par2.model, 400, 40, seed=7)
    inst = _permuted(sampled,
                     np.argsort(sampled.source_points[:, 0], kind="stable"),
                     np.arange(40))
    plan = solve_transport(inst)
    assert plan.n_pivots == 0
    s_mat = inst.surplus_matrix
    ns, nt = s_mat.shape
    rows, cols, vals = _northwest_corner(inst.source_weights,
                                         inst.target_weights)
    adj = [[] for _ in range(ns + nt)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append((ns + j, i, j))
        adj[ns + j].append((i, i, j))
    pot = np.full(ns + nt, np.nan)
    pot[0] = 0.0
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for other, i, j in adj[node]:
            if np.isnan(pot[other]):
                pot[other] = s_mat[i, j] - pot[node]
                queue.append(other)
    values = np.maximum(vals, 0.0)
    expected = {"rows": rows.tolist(), "cols": cols.tolist(),
                "values": values.tolist(), "u": pot[:ns].tolist(),
                "v": pot[ns:].tolist(),
                "objective": float(np.sum(values * s_mat[rows, cols])),
                "n_pivots": 0}
    assert plan.to_dict() == expected

    pivoted = solve_transport(sampled)
    assert pivoted.n_pivots > 0
    assert abs(pivoted.objective - expected["objective"]) <= 1e-9
    basis = sampled.surplus_matrix[pivoted.rows, pivoted.cols]
    assert np.max(np.abs(pivoted.u[pivoted.rows] + pivoted.v[pivoted.cols]
                         - basis)) <= 1e-9


def test_pivot_budget(par2):
    inst = _shuffled(sample_instance(par2.model, 60, 12, seed=7), seed=1)
    with pytest.raises(PivotBudgetExceeded, match="budget of 0 pivots"):
        solve_transport(inst, max_pivots=0)
    assert issubclass(PivotBudgetExceeded, NestorError)
    plan = solve_transport(inst)
    with pytest.raises(PivotBudgetExceeded):
        solve_transport(inst, max_pivots=plan.n_pivots - 1)
    assert solve_transport(inst, max_pivots=plan.n_pivots).n_pivots \
        == plan.n_pivots


def test_debug_records(par2, caplog, monkeypatch):
    from nestor import oracle
    shift = oracle._shift_subtree
    went = []

    def counted_shift(*args):
        went.append(shift(*args))
        return went[-1]

    monkeypatch.setattr(oracle, "_shift_subtree", counted_shift)
    inst = _shuffled(sample_instance(par2.model, 200, 20, seed=7), seed=2)
    with caplog.at_level(logging.DEBUG, logger="nestor.oracle"):
        plan = solve_transport(inst)
    found = re.search(r"(\d+) pivots, (\d+) degenerate; largest drift of "
                      r"the kept reduced benefits (\S+)", caplog.text)
    assert found and int(found[1]) == plan.n_pivots > 0
    assert 0 <= int(found[2]) <= plan.n_pivots
    # the end-of-solve refresh measures a roundoff drift, well below tol
    assert 0 < float(found[3]) <= 1e-11 * np.max(np.abs(inst.surplus_matrix))
    # the stem lies inside the cut-off subtree
    moved = re.search(r"mean stem (\S+) nodes, mean cut-off subtree (\S+) "
                      r"nodes", caplog.text)
    assert moved and 1 <= float(moved[1]) <= float(moved[2])
    # dense passes on both sides, counted as the shifts report them
    dense = re.search(r"dense dual shifts: (\d+) row passes, (\d+) column "
                      r"passes", caplog.text)
    assert dense and len(went) == plan.n_pivots
    assert [int(n) for n in dense.groups()] == np.sum(went, axis=0).tolist()
    assert all(0 < int(n) < plan.n_pivots for n in dense.groups())
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="nestor.oracle"):
        _assert_optimal(_two_level_instance(400, 100, seed=1))
    assert "Bland's rule after 40 degenerate pivots in a row" in caplog.text
    assert all(r.levelno == logging.DEBUG and r.name == "nestor.oracle"
               for r in caplog.records)


def test_align_shift_is_the_exact_minimizer():
    from scipy.optimize import minimize_scalar
    rng = np.random.default_rng(5)

    def gap(du, dv, c):
        return max(float(np.max(np.abs(du - c))),
                   float(np.max(np.abs(dv + c))))

    for _ in range(20):
        scale = 10.0 ** rng.integers(-6, 2)
        du = scale * rng.standard_normal(int(rng.integers(1, 50)))
        dv = rng.standard_normal(int(rng.integers(1, 50))) + rng.normal()
        best = gap(du, dv, _align_shift(du, dv))
        lim = float(np.max(np.abs(np.concatenate([du, dv])))) + 1.0
        for c in rng.uniform(-lim, lim, 1000):
            assert best <= gap(du, dv, c)
        # the bounded search the closed form replaced
        searched = minimize_scalar(lambda c: gap(du, dv, c),
                                   bounds=(-lim, lim), method="bounded",
                                   options={"xatol": 1e-12})
        assert best <= gap(du, dv, searched.x)


# ---------------------------------------------------------------------------
# the basis tree: a re-hanging reference and the preorder invariants
# ---------------------------------------------------------------------------

class _RehangTree:
    """Reference basis tree: parent and depth per node, and a breadth-first
    re-hang of the whole cut-off subtree at each pivot."""

    def __init__(self, ns, nt, rows, cols):
        self.ns = ns
        self.arcs = list(zip(rows.tolist(), cols.tolist()))
        self.adj = [{} for _ in range(ns + nt)]
        for p, (i, j) in enumerate(self.arcs):
            self.adj[i][ns + j] = p
            self.adj[ns + j][i] = p
        self.parent = [-1] * (ns + nt)
        self.depth = [0] * (ns + nt)
        self.parent_arc = [-1] * (ns + nt)
        self._hang(0)

    def _hang(self, top):
        parent, depth, parent_arc = self.parent, self.depth, self.parent_arc
        order = [top]
        for node in order:
            up = parent[node]
            below = depth[node] + 1
            for other, p in self.adj[node].items():
                if other != up:
                    parent[other] = node
                    depth[other] = below
                    parent_arc[other] = p
                    order.append(other)
        return order

    def cycle(self, i_in, j_in):
        ns, parent, depth = self.ns, self.parent, self.depth
        x, y = i_in, ns + j_in
        up_x, up_y = [], []
        while x != y:
            if depth[x] >= depth[y]:
                up_x.append(x)
                x = parent[x]
            else:
                up_y.append(y)
                y = parent[y]
        parent_arc = self.parent_arc
        return ([(parent_arc[node], node < ns, True) for node in up_x]
                + [(parent_arc[node], node >= ns, False)
                   for node in reversed(up_y)])

    def replace(self, p, i_in, j_in, entering_below):
        ns = self.ns
        i, j = self.arcs[p]
        child, up = (i, ns + j) if self.parent[i] == ns + j else (ns + j, i)
        del self.adj[child][up]
        del self.adj[up][child]
        t_in = ns + j_in
        self.adj[i_in][t_in] = p
        self.adj[t_in][i_in] = p
        self.arcs[p] = (i_in, j_in)
        other = t_in if entering_below == i_in else i_in
        self.parent[entering_below] = other
        self.depth[entering_below] = self.depth[other] + 1
        self.parent_arc[entering_below] = p
        return self._hang(entering_below)

    def duals(self, s_matrix):
        pot = [0.0] * len(self.parent)
        for node in sorted(range(1, len(pot)), key=self.depth.__getitem__):
            i, j = self.arcs[self.parent_arc[node]]
            pot[node] = s_matrix[i, j] - pot[self.parent[node]]
        return np.array(pot[:self.ns]), np.array(pot[self.ns:])


def _rehang_solve(inst):
    """The pivot loop of solve_transport on the re-hanging tree, with the
    subtree's rows and columns shifted through Python lists."""
    from nestor.oracle import _BLAND_AFTER, DiscretePlan
    s_mat = np.asarray(inst.surplus_matrix, dtype=float)
    ns, nt = s_mat.shape
    tol = 1e-11 * max(1.0, float(np.max(np.abs(s_mat))))
    rows, cols, vals = _northwest_corner(inst.source_weights,
                                         inst.target_weights)
    tree = _RehangTree(ns, nt, rows, cols)
    gamma = vals.tolist()
    u, v = tree.duals(s_mat)
    reduced = s_mat - u[:, None] - v[None, :]
    exact = True
    stall = n_piv = 0
    while True:
        if stall < _BLAND_AFTER:
            flat = int(np.argmax(reduced))
        else:
            flat = int(np.argmax(reduced > tol))
        i_in, j_in = divmod(flat, nt)
        r = float(reduced[i_in, j_in])
        if not r > tol:
            if exact:
                break
            u, v = tree.duals(s_mat)
            reduced, exact = s_mat - u[:, None] - v[None, :], True
            continue
        cycle = tree.cycle(i_in, j_in)
        theta = np.inf
        p_out = None
        for p, loses, source_side in cycle:
            if loses:
                val = gamma[p]
                if val < theta - 1e-15 or (p_out is not None
                                           and abs(val - theta) <= 1e-15
                                           and tree.arcs[p] < tree.arcs[p_out]):
                    theta, p_out, i_in_cut_off = val, p, source_side
        theta = max(theta, 0.0)
        for p, loses, _ in cycle:
            gamma[p] = max(gamma[p] - theta if loses else gamma[p] + theta, 0.0)
        gamma[p_out] = theta
        subtree = tree.replace(p_out, i_in, j_in,
                               i_in if i_in_cut_off else ns + j_in)
        shift = r if i_in_cut_off else -r
        sub_rows = [node for node in subtree if node < ns]
        sub_cols = [node - ns for node in subtree if node >= ns]
        if sub_rows:
            reduced[sub_rows] -= shift
        if sub_cols:
            reduced[:, sub_cols] += shift
        exact = False
        n_piv += 1
        stall = stall + 1 if theta <= 1e-15 else 0
    rows = np.array([i for i, _ in tree.arcs], dtype=np.int64)
    cols = np.array([j for _, j in tree.arcs], dtype=np.int64)
    values = np.array([max(g, 0.0) for g in gamma], dtype=float)
    objective = float(np.sum(values * s_mat[rows, cols]))
    return DiscretePlan(rows=rows, cols=cols, values=values, u=u, v=v,
                        objective=objective, n_pivots=n_piv)


def _assert_same_as_rehang(inst):
    plan = solve_transport(inst)
    assert plan.to_dict() == _rehang_solve(inst).to_dict()
    return plan


def _random_instance(ns, nt, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random(ns) + 0.01, rng.random(nt) + 0.01
    return _instance(a / a.sum(), b / b.sum(), rng.standard_normal((ns, nt)))


def _two_level_instance(ns, nt, seed):
    # equal weights and two surplus levels: runs of degenerate pivots
    rng = np.random.default_rng(seed)
    return _instance(np.full(ns, 1 / ns), np.full(nt, 1 / nt),
                     rng.integers(0, 2, (ns, nt)).astype(float))


def test_preorder_tree_matches_rehang_reference(par2, caplog):
    atoms = sample_instance(par2.model, 500, 50, seed=7)
    for seed in (1, 2):
        with caplog.at_level(logging.DEBUG, logger="nestor.oracle"):
            plan = _assert_same_as_rehang(_shuffled(atoms, seed))
        assert plan.n_pivots > 1000
        # the reference gathers every shift; these pivots also ran dense ones
        dense = re.search(r"dense dual shifts: (\d+) row passes, (\d+) "
                          r"column passes", caplog.text)
        assert dense and all(0 < int(n) < plan.n_pivots
                             for n in dense.groups())
        caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="nestor.oracle"):
        plan = _assert_same_as_rehang(_two_level_instance(400, 100, seed=1))
    assert plan.n_pivots > 0
    assert "Bland's rule after" in caplog.text
    for ns, nt in ((1, 1), (1, 7), (9, 1)):  # single source, single target
        _assert_same_as_rehang(_random_instance(ns, nt, seed=ns + nt))
    _assert_same_as_rehang(_shuffled(sample_instance(par2.model, 50, 1,
                                                     seed=1), seed=3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ns=st.integers(2, 60), nt=st.integers(1, 20),
       seed=st.integers(0, 2**16))
def test_preorder_tree_matches_rehang_reference_on_random_instances(ns, nt,
                                                                    seed):
    _assert_same_as_rehang(_random_instance(ns, nt, seed))


def test_dense_and_gathered_dual_shifts_agree():
    # _shift_subtree against the gathered shift of the reference, with as
    # many rows (columns) as the cut-off allows and one more; the block of
    # the subtree's rows by its columns moves twice, and R holds +-0
    from nestor.oracle import _DENSE_COLS, _DENSE_ROWS, _shift_subtree
    rng = np.random.default_rng(9)
    ns, nt = 40, 12
    base = rng.standard_normal((ns, nt))
    base[rng.random((ns, nt)) < 0.2] = 0.0
    base[rng.random((ns, nt)) < 0.2] = -0.0
    sides, zero_flips = set(), 0
    row_cut, col_cut = int(_DENSE_ROWS * ns), int(_DENSE_COLS * nt)
    for n_rows in (0, 1, row_cut, row_cut + 1, ns):
        for n_cols in (0, 1, col_cut, col_cut + 1, nt):
            for shift in (0.75, -0.75, 2.0 ** -60):
                rows = rng.choice(ns, n_rows, replace=False)
                cols = rng.choice(nt, n_cols, replace=False)
                subtree = rng.permutation(np.concatenate([rows, ns + cols]))
                gathered = base.copy()
                gathered[rows] -= shift
                gathered[:, cols] += shift
                shifted = base.copy()
                went = _shift_subtree(shifted, subtree.astype(np.intp), shift)
                assert went == (n_rows > _DENSE_ROWS * ns,
                                n_cols > _DENSE_COLS * nt)
                sides.add(went)
                assert np.array_equal(shifted, gathered)
                # the same bits, but where a dense pass turned -0 into +0
                bits = shifted.view(np.int64) != gathered.view(np.int64)
                assert np.all(gathered[bits] == 0.0)
                zero_flips += int(np.count_nonzero(bits))
    assert len(sides) == 4 and zero_flips > 0


def test_basis_tree_invariants_after_every_pivot(par2, monkeypatch):
    from nestor import oracle
    replace = oracle._RootedTree.replace
    n_checked = []

    def checked_replace(tree, *args):
        block = replace(tree, *args)
        n = len(tree.parent)
        order, pos = tree.order, tree.pos
        assert sorted(order.tolist()) == list(range(n))
        assert np.array_equal(pos[order], np.arange(n))
        # breadth first from source 0 over the basis arcs
        adj = [[] for _ in range(n)]
        for p, (i, j) in enumerate(tree.arcs):
            adj[i].append((tree.ns + j, p))
            adj[tree.ns + j].append((i, p))
        parent, parent_arc = [-1] * n, [-1] * n
        queue, seen = deque([0]), {0}
        while queue:
            node = queue.popleft()
            for other, p in adj[node]:
                if other not in seen:
                    seen.add(other)
                    parent[other], parent_arc[other] = node, p
                    queue.append(other)
        assert len(seen) == n
        assert tree.parent == parent and tree.parent_arc == parent_arc
        below = [{node} for node in range(n)]
        for node in range(n):
            up = parent[node]
            while up != -1:
                below[up].add(node)
                up = parent[up]
        for node in range(n):
            start = int(pos[node])
            piece = order[start:start + tree.size[node]].tolist()
            assert piece[0] == node and set(piece) == below[node]
            assert tree.size[node] == len(below[node])
        assert sorted(block.tolist()) == sorted(below[args[3]])
        n_checked.append(1)
        return block

    monkeypatch.setattr(oracle._RootedTree, "replace", checked_replace)
    cases = [_shuffled(sample_instance(par2.model, 60, 12, seed=7), seed=1),
             _random_instance(40, 15, seed=4),
             _two_level_instance(80, 20, seed=2),
             _random_instance(12, 1, seed=5), _random_instance(1, 9, seed=6)]
    for k, inst in enumerate(cases):
        plan = solve_transport(inst)
        assert sum(n_checked) == plan.n_pivots
        assert plan.n_pivots > 0 or k >= 3
        n_checked.clear()

"""Exact finite Kantorovich oracle.

Atoms sampled from a model are matched by a transportation (network)
simplex that MAXIMIZES the sampled surplus.  The optimal basis is a
spanning tree of the bipartite supply/demand graph; its duals (u_i, v_j)
satisfy complementary slackness exactly and strong duality to roundoff,
which is what makes the oracle an independent check of the level-set
solver: the two approaches share no code path beyond the surplus
evaluator.

No external LP dependency.  The basis tree is rooted at source 0 with a
parent per node, a preorder of the nodes and a subtree size per node, so
every subtree is one slice of the preorder; the dense reduced benefits
S - u - v are kept across pivots.  A pivot finds its cycle by climbing
from both ends of the entering arc, re-links only the stem (the path from
the entering endpoint up to the leaving arc), moves the cut-off subtree's
slice to its new place in the preorder, and shifts that subtree's duals
(its rows and columns of the reduced benefits, in one dense pass when they
are many).  Pricing is Dantzig's with a Bland fallback during degenerate
stalls (which restores the finite-termination guarantee).  Intended for
desk-scale instances (thousands of source atoms, hundreds of targets).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import PivotBudgetExceeded
from .model import Model, target_quantile
from .solver import map_and_payoff

logger = logging.getLogger(__name__)
_BLAND_AFTER = 40  # degenerate pivots in a row before Bland's rule
# dense dual shift past these shares of R's rows (columns): at 500x50 on a
# 2-vCPU x86-64 it takes 18 (15) us, as gathering 250 rows (12 columns) does
_DENSE_ROWS, _DENSE_COLS = 0.5, 0.25


@dataclass(frozen=True)
class DiscreteInstance:
    source_points: np.ndarray   # (ns, m)
    source_weights: np.ndarray  # (ns,), positive, sums to 1
    target_points: np.ndarray   # (nt,)
    target_weights: np.ndarray  # (nt,), positive, sums to 1
    surplus_matrix: np.ndarray  # (ns, nt)

    def __post_init__(self):
        for field in fields(self):
            if not np.all(np.isfinite(getattr(self, field.name))):
                raise ValueError(f"{field.name} must be finite")
        a = np.asarray(self.source_weights, dtype=float)
        b = np.asarray(self.target_weights, dtype=float)
        if np.any(a <= 0) or np.any(b <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(a.sum() - 1.0) > 1e-12 or abs(b.sum() - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to one (1e-12)")
        ns, nt = a.size, b.size
        if (np.shape(self.surplus_matrix) != (ns, nt)
                or len(self.source_points) != ns
                or len(self.target_points) != nt):
            raise ValueError(f"{ns} source and {nt} target weights need a "
                             f"({ns}, {nt}) surplus matrix and as many points")

    @property
    def shape(self):
        return self.surplus_matrix.shape


@dataclass
class DiscretePlan:
    """Optimal basic plan: sparse coupling entries plus exact duals."""

    rows: np.ndarray       # basis arc source indices
    cols: np.ndarray       # basis arc target indices
    values: np.ndarray     # coupling mass on each basis arc (>= 0)
    u: np.ndarray          # source duals
    v: np.ndarray          # target duals
    objective: float
    n_pivots: int = 0

    @property
    def support(self):
        keep = self.values > 0
        return self.rows[keep], self.cols[keep], self.values[keep]

    def to_dict(self) -> dict:
        """The fields as JSON-ready lists and scalars."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist()
                for f in fields(self)}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_instance(model: Model, n_source: int, n_target: int,
                    seed: int = 0) -> DiscreteInstance:
    """Stratified source atoms (one draw per equal-mass stratum of the
    f-weighted quadrature points) and g-quantile-midpoint target atoms;
    deterministic per seed."""
    rng = np.random.default_rng(seed)
    w = model.point_mass / model.total_mass
    cum = np.cumsum(w)
    cum[-1] = 1.0
    u = (np.arange(n_source) + rng.random(n_source)) / n_source
    idx = np.searchsorted(cum, u, side="left")
    xs = model.grid.points[idx]
    a = np.full(n_source, 1.0 / n_source)

    q = (np.arange(n_target) + 0.5) / n_target
    ys = np.asarray(target_quantile(model, q), dtype=float)
    b = np.full(n_target, 1.0 / n_target)

    s_mat = np.stack([model.surplus.s(xs, float(y)) for y in ys], axis=1)
    return DiscreteInstance(source_points=xs, source_weights=a,
                            target_points=ys, target_weights=b,
                            surplus_matrix=s_mat)


# ---------------------------------------------------------------------------
# transportation simplex
# ---------------------------------------------------------------------------

def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution; always ns + nt - 1 arcs (degenerate
    zero arcs included when a supply and a demand exhaust together)."""
    ns, nt = a.size, b.size
    rows, cols, vals = [], [], []
    a_rem = a.copy()
    b_rem = b.copy()
    i = j = 0
    while True:
        move = min(a_rem[i], b_rem[j])
        rows.append(i)
        cols.append(j)
        vals.append(move)
        a_rem[i] -= move
        b_rem[j] -= move
        if i == ns - 1 and j == nt - 1:
            break
        # advance exactly one index; ties advance the row and leave a
        # degenerate zero arc in the next cell
        if a_rem[i] <= b_rem[j] and i < ns - 1:
            i += 1
        else:
            j += 1
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=float))


class _RootedTree:
    """Spanning tree of basis arcs on nodes [0..ns) + [ns..ns+nt), rooted
    at source 0.

    ``arcs[p]`` is the arc in basis position p; ``parent`` and
    ``parent_arc`` (a basis position) hang every node below the root,
    whose parent is -1.  ``order`` lists the nodes in preorder (parents
    before children, each subtree contiguous), ``pos`` is its inverse and
    ``size[n]`` counts the nodes below and at n, so the subtree of n is
    ``order[pos[n]:pos[n] + size[n]]``.  ``stem_nodes`` and ``cut_nodes``
    total the stems walked and the subtrees moved by ``replace``.
    """

    def __init__(self, ns, nt, rows, cols):
        self.ns = ns
        n = ns + nt
        self.arcs = list(zip(rows.tolist(), cols.tolist()))
        adj = [[] for _ in range(n)]
        for p, (i, j) in enumerate(self.arcs):
            adj[i].append((ns + j, p))
            adj[ns + j].append((i, p))
        parent = self.parent = [-1] * n
        parent_arc = self.parent_arc = [-1] * n
        order, stack = [], [0]
        while stack:  # depth first, so every subtree is contiguous
            node = stack.pop()
            order.append(node)
            for other, p in adj[node]:
                if other != parent[node]:
                    parent[other] = node
                    parent_arc[other] = p
                    stack.append(other)
        size = self.size = [1] * n
        for node in reversed(order[1:]):
            size[parent[node]] += size[node]
        self.order = np.array(order, dtype=np.intp)
        self.pos = np.empty(n, dtype=np.intp)
        self.pos[self.order] = np.arange(n)
        self.stem_nodes = self.cut_nodes = 0

    def cycle(self, i_in, j_in):
        """The tree path from source i_in to target j_in, as the two lists
        of nodes climbed from i_in and from ns + j_in until they meet; each
        node stands for its parent arc.  The walks climb from the end with
        the smaller subtree, which cannot be an ancestor of the other.  As
        the entering arc (i_in, j_in) gains mass, the arcs at even places
        of either list (sources on i_in's side, targets on j_in's) lose."""
        ns, parent, size = self.ns, self.parent, self.size
        x, y = i_in, ns + j_in
        up_x, up_y = [], []
        while x != y:
            if size[x] < size[y]:
                up_x.append(x)
                x = parent[x]
            else:
                up_y.append(y)
                y = parent[y]
        return up_x, up_y

    def replace(self, p, i_in, j_in, entering_below, up_x, up_y):
        """Put (i_in, j_in) in basis position p, cutting the arc there, and
        re-hang the cut-off subtree from its entering endpoint
        ``entering_below``; returns the subtree's nodes in their new
        preorder.  ``up_x, up_y`` are the paths of ``cycle(i_in, j_in)``.

        Only the stem, the path w0 = entering_below, ..., wk up to the
        cut, changes parents.  The new preorder of the subtree is w0's old
        subtree, then for each wi the parts of its old subtree before and
        after w(i-1)'s; that block moves to sit right after its new
        parent.  Sizes change on the stem (wi keeps all but w(i-1)'s old
        subtree) and on the rest of the two cycle paths."""
        ns, parent, parent_arc, size = (self.ns, self.parent,
                                        self.parent_arc, self.size)
        order, pos = self.order, self.pos
        i, j = self.arcs[p]
        top = i if parent[i] == ns + j else ns + j
        self.arcs[p] = (i_in, j_in)
        path, other, new_up = ((up_x, up_y, ns + j_in)
                               if entering_below == i_in
                               else (up_y, up_x, i_in))
        total = size[top]
        stem = path[:path.index(top) + 1]

        at = pos[stem].tolist()
        pieces = [order[at[0]:at[0] + size[entering_below]]]
        for k in range(1, len(stem)):
            cut = at[k - 1]
            pieces += [order[at[k]:cut],
                       order[cut + size[stem[k - 1]]:at[k] + size[stem[k]]]]
        block = np.concatenate(pieces)

        for node in path[len(stem):]:
            size[node] -= total
        for node in other:
            size[node] += total
        for k in range(len(stem) - 1, 0, -1):
            parent[stem[k]] = stem[k - 1]
            parent_arc[stem[k]] = parent_arc[stem[k - 1]]
            size[stem[k]] = total - size[stem[k - 1]]
        parent[entering_below] = new_up
        parent_arc[entering_below] = p
        size[entering_below] = total

        # rotate the block out of its old place to just after new_up
        start, after = at[-1], int(pos[new_up]) + 1
        if after <= start:
            lo, hi = after, start + total
            order[lo + total:hi] = order[lo:start]
            order[lo:lo + total] = block
        else:
            lo, hi = start, after
            order[lo:hi - total] = order[start + total:hi]
            order[hi - total:hi] = block
        pos[order[lo:hi]] = np.arange(lo, hi)
        self.stem_nodes += len(stem)
        self.cut_nodes += total
        return block

    def duals(self, s_matrix):
        """u_i + v_j = S_ij on every basis arc, anchored at u_0 = 0: one
        pass down the preorder, each node from its parent."""
        pot = [0.0] * len(self.parent)
        parent, parent_arc, arcs = self.parent, self.parent_arc, self.arcs
        for node in self.order[1:].tolist():
            i, j = arcs[parent_arc[node]]
            pot[node] = s_matrix[i, j] - pot[parent[node]]
        return np.array(pot[:self.ns]), np.array(pot[self.ns:])


def _shift_subtree(reduced, subtree, shift):
    """Shift ``subtree``'s duals by +shift (sources) and -shift (targets):
    its rows of ``reduced`` by -shift, then its columns by +shift, a side
    past its _DENSE share in one pass by a vector zero off the subtree
    (x - 0 = x + 0 = x; -0 may turn +0).  Returns which sides went dense."""
    ns, nt = reduced.shape
    rows, cols = subtree[subtree < ns], subtree[subtree >= ns] - ns
    dense_rows = rows.size > _DENSE_ROWS * ns
    if dense_rows:
        reduced -= shift * np.bincount(rows, minlength=ns)[:, None]
    else:
        reduced[rows] -= shift
    dense_cols = cols.size > _DENSE_COLS * nt
    if dense_cols:
        reduced += shift * np.bincount(cols, minlength=nt)
    else:
        reduced[:, cols] += shift
    return dense_rows, dense_cols


def solve_transport(inst: DiscreteInstance,
                    max_pivots: int = None) -> DiscretePlan:
    """Maximize sum gamma_ij S_ij over the transportation polytope.

    Dantzig pricing (largest reduced benefit) with a switch to Bland's
    smallest-index rule during runs of degenerate pivots, which prevents
    cycling; terminates at reduced benefits <= tol everywhere, with
    tol = 1e-11 max(1, max |S|).

    The basis is a tree rooted at source 0, kept in preorder with
    subtree sizes.  The reduced benefits R = S - u - v are kept across
    pivots: a pivot climbs the cycle from both ends, moves mass around it
    unless theta = 0, cuts the leaving arc and re-hangs the cut-off
    subtree under the entering arc by reversing only its stem.  The
    entering arc's reduced benefit r is then zeroed by shifting the
    subtree's duals (its rows of R move by -r, its columns by +r, or the
    reverse when the entering target is in the subtree), a side that spans
    a large share of R in one dense pass.
    At the end the duals are recomputed from the tree and R afresh, so
    rounding drift cannot hide an improving arc; pivoting resumes if one
    remains.  Raises PivotBudgetExceeded when it needs more than
    ``max_pivots`` pivots.
    """
    s_mat = np.asarray(inst.surplus_matrix, dtype=float)
    ns, nt = s_mat.shape
    a = np.asarray(inst.source_weights, dtype=float)
    b = np.asarray(inst.target_weights, dtype=float)
    tol = 1e-11 * max(1.0, float(np.max(np.abs(s_mat))))
    if max_pivots is None:
        max_pivots = 200 * (ns + nt) + 10_000

    rows, cols, vals = _northwest_corner(a, b)
    tree = _RootedTree(ns, nt, rows, cols)
    gamma = vals.tolist()  # mass per basis position
    u, v = tree.duals(s_mat)
    reduced = s_mat - u[:, None] - v[None, :]
    exact = True  # reduced was just computed from the tree's duals
    drift = 0.0
    stall = n_piv = n_degenerate = n_dense_rows = n_dense_cols = 0
    parent_arc, arcs = tree.parent_arc, tree.arcs
    while True:
        if stall < _BLAND_AFTER:
            flat = int(np.argmax(reduced))
        else:  # Bland: first improving arc in lexicographic order
            flat = int(np.argmax(reduced > tol))
        i_in, j_in = divmod(flat, nt)
        r = float(reduced[i_in, j_in])
        if not r > tol:
            if exact:
                break
            u, v = tree.duals(s_mat)
            fresh = s_mat - u[:, None] - v[None, :]
            reduced -= fresh
            drift = max(drift, float(np.max(np.abs(reduced, out=reduced))))
            reduced, exact = fresh, True
            continue
        if n_piv >= max_pivots:
            raise PivotBudgetExceeded(
                f"transportation simplex on {ns}x{nt} atoms exceeded its "
                f"budget of {max_pivots} pivots")

        up_x, up_y = tree.cycle(i_in, j_in)
        theta = np.inf
        p_out = None
        # the losing arcs in walk order: up from i_in, then down to j_in
        for source_side, losers in ((True, up_x[::2]),
                                    (False, up_y[::2][::-1])):
            for node in losers:
                p = parent_arc[node]
                val = gamma[p]
                if val < theta - 1e-15 or (p_out is not None
                                           and abs(val - theta) <= 1e-15
                                           and arcs[p] < arcs[p_out]):
                    # cutting an arc on i_in's side cuts i_in off the root
                    theta, p_out, i_in_cut_off = val, p, source_side
        if theta > 0.0:  # gamma >= 0, so a degenerate pivot moves nothing
            for path in (up_x, up_y):
                for k, node in enumerate(path):
                    p = parent_arc[node]
                    gamma[p] = max(gamma[p] + (theta if k % 2 else -theta), 0.0)
            gamma[p_out] = theta
        subtree = tree.replace(p_out, i_in, j_in,
                               i_in if i_in_cut_off else ns + j_in, up_x, up_y)

        dense = _shift_subtree(reduced, subtree, r if i_in_cut_off else -r)
        n_dense_rows += dense[0]
        n_dense_cols += dense[1]
        exact = False

        n_piv += 1
        if theta <= 1e-15:
            n_degenerate += 1
            stall += 1
            if stall == _BLAND_AFTER:
                logger.debug("pivot %d: Bland's rule after %d degenerate "
                             "pivots in a row", n_piv, stall)
        else:
            stall = 0

    per_pivot = max(n_piv, 1)
    logger.debug("%dx%d transportation simplex: %d pivots, %d degenerate; "
                 "largest drift of the kept reduced benefits %.3g (per "
                 "pivot: mean stem %.1f nodes, mean cut-off subtree %.1f "
                 "nodes); dense dual shifts: %d row passes, %d column passes",
                 ns, nt, n_piv, n_degenerate, drift,
                 tree.stem_nodes / per_pivot, tree.cut_nodes / per_pivot,
                 n_dense_rows, n_dense_cols)
    rows = np.array([i for i, _ in tree.arcs], dtype=np.int64)
    cols = np.array([j for _, j in tree.arcs], dtype=np.int64)
    values = np.array([max(g, 0.0) for g in gamma], dtype=float)
    objective = float(np.sum(values * s_mat[rows, cols]))
    return DiscretePlan(rows=rows, cols=cols, values=values, u=u, v=v,
                        objective=objective, n_pivots=n_piv)


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------

def _align_shift(du: np.ndarray, dv: np.ndarray) -> float:
    """Additive shift c minimizing max(|du - c|_inf, |dv + c|_inf); duals
    are unique only up to (u + c, v - c).  The objective is the larger
    distance from c to the ends of the range of (du, -dv), so the midpoint
    of that range is its exact minimizer."""
    lo = min(float(np.min(du)), -float(np.max(dv)))
    hi = max(float(np.max(du)), -float(np.min(dv)))
    return (lo + hi) / 2


def compare_with_map(model: Model, curve, inst: DiscreteInstance,
                     plan: DiscretePlan) -> dict:
    """Quantify agreement between the oracle plan and the level-set solve.

    surplus_gap: relative difference between the LP optimum and the
    f-weighted surplus of the graph plan (id, F).
    dual_gap: max deviation between oracle duals and (u, v) on the atoms
    after the optimal additive shift.
    """
    f_vals, u_num, _ = map_and_payoff(model, curve, inst.source_points)
    s_graph = model.surplus.s(inst.source_points, f_vals)
    graph_value = float(np.sum(inst.source_weights * s_graph))
    surplus_gap = (plan.objective - graph_value) / max(abs(plan.objective), 1e-300)

    v_num = curve.v_at(inst.target_points)
    du = plan.u - u_num
    dv = plan.v - v_num
    c = _align_shift(du, dv)
    dual_gap = max(float(np.max(np.abs(du - c))), float(np.max(np.abs(dv + c))))
    return {"surplus_gap": float(surplus_gap), "dual_gap": dual_gap,
            "objective": plan.objective, "graph_value": graph_value}


def cyclical_monotonicity_audit(plan: DiscretePlan,
                                s_matrix: np.ndarray) -> float:
    """Worst surplus improvement over cyclic reassignments of support
    pairs (all of them, or 4000 random ones when there are more) and of
    4000 random support triples, drawn with seed 0; an optimal plan admits
    none (<= 0 up to roundoff)."""
    rows, cols, _ = plan.support
    n = rows.size
    rng = np.random.default_rng(0)
    worst = -np.inf

    if n >= 2:
        if n * (n - 1) // 2 <= 4000:
            ii, kk = np.triu_indices(n, k=1)
        else:
            ii = rng.integers(0, n, 4000)
            kk = rng.integers(0, n, 4000)
            keep = ii != kk
            ii, kk = ii[keep], kk[keep]
        gain = (s_matrix[rows[ii], cols[kk]] + s_matrix[rows[kk], cols[ii]]
                - s_matrix[rows[ii], cols[ii]] - s_matrix[rows[kk], cols[kk]])
        if gain.size:
            worst = max(worst, float(np.max(gain)))

    if n >= 3:
        ii = rng.integers(0, n, (4000, 3))
        ok = (ii[:, 0] != ii[:, 1]) & (ii[:, 1] != ii[:, 2]) & (ii[:, 0] != ii[:, 2])
        ii = ii[ok]
        base = (s_matrix[rows[ii[:, 0]], cols[ii[:, 0]]]
                + s_matrix[rows[ii[:, 1]], cols[ii[:, 1]]]
                + s_matrix[rows[ii[:, 2]], cols[ii[:, 2]]])
        rot1 = (s_matrix[rows[ii[:, 0]], cols[ii[:, 1]]]
                + s_matrix[rows[ii[:, 1]], cols[ii[:, 2]]]
                + s_matrix[rows[ii[:, 2]], cols[ii[:, 0]]])
        rot2 = (s_matrix[rows[ii[:, 0]], cols[ii[:, 2]]]
                + s_matrix[rows[ii[:, 2]], cols[ii[:, 1]]]
                + s_matrix[rows[ii[:, 1]], cols[ii[:, 0]]])
        if ii.size:
            worst = max(worst, float(np.max(rot1 - base)),
                        float(np.max(rot2 - base)))
    return worst


def plan_marginal_errors(inst: DiscreteInstance, plan: DiscretePlan):
    """(max source marginal error, max target marginal error)."""
    ns, nt = inst.shape
    row_sum = np.zeros(ns)
    col_sum = np.zeros(nt)
    np.add.at(row_sum, plan.rows, plan.values)
    np.add.at(col_sum, plan.cols, plan.values)
    return (float(np.max(np.abs(row_sum - inst.source_weights))),
            float(np.max(np.abs(col_sum - inst.target_weights))))

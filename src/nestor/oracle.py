"""Exact finite Kantorovich oracle.

Atoms sampled from a model are matched by a transportation (network)
simplex that MAXIMIZES the sampled surplus.  The optimal basis is a
spanning tree of the bipartite supply/demand graph; its duals (u_i, v_j)
satisfy complementary slackness exactly and strong duality to roundoff,
which is what makes the oracle an independent check of the level-set
solver: the two approaches share no code path beyond the surplus
evaluator.

No external LP dependency.  The basis tree is rooted at source 0 with a
parent and a depth per node, and the dense reduced benefits S - u - v are
kept across pivots: a pivot finds its cycle by climbing from both ends of
the entering arc, re-hangs only the subtree cut off by the leaving arc,
and shifts that subtree's duals (its rows and columns of the reduced
benefits).  Pricing is Dantzig's with a Bland fallback during degenerate
stalls (which restores the finite-termination guarantee).  Intended for
desk-scale instances (thousands of source atoms, hundreds of targets).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import PivotBudgetExceeded
from .model import Model, target_quantile

logger = logging.getLogger(__name__)
_BLAND_AFTER = 40  # degenerate pivots in a row before Bland's rule


@dataclass(frozen=True)
class DiscreteInstance:
    source_points: np.ndarray   # (ns, m)
    source_weights: np.ndarray  # (ns,), positive, sums to 1
    target_points: np.ndarray   # (nt,)
    target_weights: np.ndarray  # (nt,), positive, sums to 1
    surplus_matrix: np.ndarray  # (ns, nt)

    def __post_init__(self):
        a = np.asarray(self.source_weights, dtype=float)
        b = np.asarray(self.target_weights, dtype=float)
        if np.any(a <= 0) or np.any(b <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(a.sum() - 1.0) > 1e-12 or abs(b.sum() - 1.0) > 1e-12:
            raise ValueError("atom weights must sum to one (1e-12)")

    @property
    def shape(self):
        return self.surplus_matrix.shape

    def to_dict(self) -> dict:
        return {"source_points": self.source_points.tolist(),
                "source_weights": self.source_weights.tolist(),
                "target_points": self.target_points.tolist(),
                "target_weights": self.target_weights.tolist(),
                "surplus_matrix": self.surplus_matrix.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteInstance":
        return cls(*(np.asarray(d[k], dtype=float) for k in
                     ("source_points", "source_weights", "target_points",
                      "target_weights", "surplus_matrix")))


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

    def to_dense(self, shape) -> np.ndarray:
        out = np.zeros(shape)
        out[self.rows, self.cols] = self.values
        return out

    @property
    def support(self):
        keep = self.values > 0
        return self.rows[keep], self.cols[keep], self.values[keep]

    def to_dict(self) -> dict:
        return {"rows": self.rows.tolist(), "cols": self.cols.tolist(),
                "values": self.values.tolist(), "u": self.u.tolist(),
                "v": self.v.tolist(), "objective": self.objective,
                "n_pivots": self.n_pivots}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_instance(model: Model, n_source: int, n_target: int,
                    seed: int = 0) -> DiscreteInstance:
    """Stratified source atoms (one draw per equal-mass stratum of the
    f-weighted quadrature points) and g-quantile-midpoint target atoms;
    deterministic per seed."""
    rng = np.random.default_rng(seed)
    w = model.point_mass / np.sum(model.point_mass)
    cum = np.cumsum(w)
    cum[-1] = 1.0
    u = (np.arange(n_source) + rng.random(n_source)) / n_source
    idx = np.searchsorted(cum, u, side="left")
    xs = model.grid.points[idx]
    a = np.full(n_source, 1.0 / n_source)

    q = (np.arange(n_target) + 0.5) / n_target
    ys = np.asarray(target_quantile(model, q), dtype=float)
    b = np.full(n_target, 1.0 / n_target)

    s_mat = np.stack(
        [np.asarray(model.surplus.s(xs, float(y)), dtype=float) for y in ys],
        axis=1)
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

    ``arcs[p]`` is the arc in basis position p; ``adj[node]`` maps each
    tree neighbour to the position of the arc joining them; ``parent``,
    ``depth`` and ``parent_arc`` (a basis position) hang every node below
    the root, whose parent is -1.
    """

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
        """Hang every node below ``top``, whose own links are already set;
        returns the nodes of its subtree, parents before children."""
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
        """Arcs on the tree path from source i_in to target j_in, in walk
        order, as (basis position, loses, on_source_side); ``loses`` means
        the arc gives up mass as the entering arc (i_in, j_in) gains, and
        ``on_source_side`` that it lies between i_in and the meeting point.
        The two walks climb by depth until they meet."""
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
        # walking from i_in, an arc left from a source loses mass and one
        # left from a target gains; on the target side the walk runs down
        parent_arc = self.parent_arc
        return ([(parent_arc[node], node < ns, True) for node in up_x]
                + [(parent_arc[node], node >= ns, False)
                   for node in reversed(up_y)])

    def replace(self, p, i_in, j_in, entering_below):
        """Put (i_in, j_in) in basis position p, cutting the arc there, and
        re-hang the cut-off subtree from its entering endpoint
        ``entering_below``; returns the subtree's nodes."""
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
        """u_i + v_j = S_ij on every basis arc, anchored at u_0 = 0: one
        pass down the tree, each node from its parent."""
        pot = [0.0] * len(self.parent)
        for node in sorted(range(1, len(pot)), key=self.depth.__getitem__):
            i, j = self.arcs[self.parent_arc[node]]
            pot[node] = s_matrix[i, j] - pot[self.parent[node]]
        return np.array(pot[:self.ns]), np.array(pot[self.ns:])


def solve_transport(inst: DiscreteInstance,
                    max_pivots: int = None) -> DiscretePlan:
    """Maximize sum gamma_ij S_ij over the transportation polytope.

    Dantzig pricing (largest reduced benefit) with a switch to Bland's
    smallest-index rule during runs of degenerate pivots, which prevents
    cycling; terminates at reduced benefits <= tol everywhere, with
    tol = 1e-11 max(1, max |S|).

    The basis is a tree rooted at source 0.  The reduced benefits
    R = S - u - v are kept across pivots: a pivot walks the cycle up by
    depth, cuts the leaving arc and re-hangs only the cut-off subtree
    under the entering arc, whose reduced benefit r is then zeroed by
    shifting the subtree's duals (its rows of R move by -r, its columns
    by +r, or the reverse when the entering target is in the subtree).
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
    stall = n_piv = n_degenerate = 0
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

        cycle = tree.cycle(i_in, j_in)
        theta = np.inf
        p_out = None
        for p, loses, source_side in cycle:
            if loses:
                val = gamma[p]
                if val < theta - 1e-15 or (p_out is not None
                                           and abs(val - theta) <= 1e-15
                                           and tree.arcs[p] < tree.arcs[p_out]):
                    # cutting an arc on i_in's side cuts i_in off the root
                    theta, p_out, i_in_cut_off = val, p, source_side
        theta = max(theta, 0.0)
        for p, loses, _ in cycle:
            gamma[p] = max(gamma[p] - theta if loses else gamma[p] + theta, 0.0)
        gamma[p_out] = theta
        subtree = tree.replace(p_out, i_in, j_in,
                               i_in if i_in_cut_off else ns + j_in)

        # the subtree's duals shift by +shift (sources) and -shift (targets)
        shift = r if i_in_cut_off else -r
        sub_rows = [node for node in subtree if node < ns]
        sub_cols = [node - ns for node in subtree if node >= ns]
        if sub_rows:
            reduced[sub_rows] -= shift
        if sub_cols:
            reduced[:, sub_cols] += shift
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

    logger.debug("%dx%d transportation simplex: %d pivots, %d degenerate; "
                 "largest drift of the kept reduced benefits %.3g",
                 ns, nt, n_piv, n_degenerate, drift)
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
    from .solver import optimal_map, source_payoff
    f_vals = optimal_map(model, curve, inst.source_points)
    f_vals = np.atleast_1d(f_vals)
    s_graph = np.asarray(model.surplus.s(inst.source_points, f_vals), dtype=float)
    graph_value = float(np.sum(inst.source_weights * s_graph))
    surplus_gap = (plan.objective - graph_value) / max(abs(plan.objective), 1e-300)

    u_num, _ = source_payoff(model, curve, inst.source_points)
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

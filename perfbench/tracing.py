"""Span tracing of nestor's public functions, from outside the library.

A Tracer replaces each traced public function, wherever a nestor module
holds a reference to it, with a wrapper that records a span
``[name, start, end, parent]`` in memory.  Wrapping every reference
matters because modules import names from each other: ``solver`` calls
the ``sublevel_mass``, ``grad_h`` and ``is_tangential`` it took from
``levelsets``, and patching only ``levelsets`` would miss those calls.

Nothing in ``src/`` changes; ``uninstall`` restores every reference.
Counts that are not times (rows through the surplus evaluators, pivots,
slice keys, skipped nodes) are recorded as notes tagged with the root
span they happened under.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time

import numpy as np

# (module, attribute, span name, observer); module-level functions are
# rebound in every nestor module that holds them, methods on their class.
_FUNCTIONS = [
    ("nestor.scenarios", "build", "scenarios.build", None),
    ("nestor.model", "certify_nondegeneracy", "model.certificate", None),
    ("nestor.levelsets", "sublevel_mass", "levelsets.sublevel_mass", None),
    ("nestor.levelsets", "grad_h", "levelsets.grad_h", None),
    ("nestor.levelsets", "is_tangential", "levelsets.is_tangential", None),
    ("nestor.levelsets", "surface_integral", "levelsets.surface_integral",
     None),
    ("nestor.solver", "solve_split_curve", "solver.solve_split_curve",
     lambda args, kw, out: [("solver.nodes", out.y_grid.size)]),
    ("nestor.solver", "balance_residual", "solver.balance_residual", None),
    ("nestor.solver", "optimal_map", "solver.optimal_map",
     lambda args, kw, out: [("solver.optimal_map.points", _rows(args[2]))]),
    ("nestor.solver", "source_payoff", "solver.source_payoff",
     lambda args, kw, out: [("solver.source_payoff.points",
                             _rows(args[2]))]),
    ("nestor.solver", "map_gradient", "solver.map_gradient", None),
    ("nestor.solver", "pushforward_distance", "solver.pushforward_distance",
     None),
    ("nestor.nestedness", "check_sublevel_monotonicity",
     "nestedness.check_sublevel_monotonicity", None),
    ("nestor.nestedness", "dynamic_criterion", "nestedness.dynamic_criterion",
     lambda args, kw, out: [("nestedness.dynamic.skipped",
                             out.details["skipped"])]),
    ("nestor.nestedness", "unique_splitting_check",
     "nestedness.unique_splitting_check", None),
    ("nestor.nestedness", "transversality_diagnostic",
     "nestedness.transversality_diagnostic", None),
    ("nestor.nestedness", "speed_limit", "nestedness.speed_limit", None),
    ("nestor.nestedness", "nestedness_report", "nestedness.nestedness_report",
     None),
    ("nestor.oracle", "sample_instance", "oracle.sample_instance", None),
    ("nestor.oracle", "solve_transport", "oracle.solve_transport",
     lambda args, kw, out: [("oracle.pivots", out.n_pivots)]),
    ("nestor.oracle", "compare_with_map", "oracle.compare_with_map", None),
    ("nestor.oracle", "cyclical_monotonicity_audit", "oracle.audit", None),
    ("nestor.cli", "run", "cli.run", None),
]

_METHODS = [
    ("nestor.geometry", "Quadrature", "materialize", "geometry.quadrature",
     None),
    ("nestor.geometry", "Domain", "contains", "geometry.contains", None),
    ("nestor.model", "Model", "slice_at", "model.slice_at",
     lambda args, kw, out: [("model.slice_at.y", float(args[1]))]),
]

# surplus factories: the bundles they return count the rows they evaluate
_SURPLUS_FACTORIES = ("bilinear_surplus", "arc_surplus", "polynomial_surplus")
_SURPLUS_FIELDS = ("s", "s_y", "grad_x_s_y", "s_yy")


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    """In-memory spans and notes; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.notes: list = []   # (root index, key, value)
        self._stack: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _note(self, key, value):
        self.notes.append((self._stack[0] if self._stack else -1, key, value))

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span; yields its index."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if observe is not None:
                for key, value in observe(args, kwargs, out):
                    self._note(key, value)
            return out

        return traced

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            self._note("surplus.points", _rows(x))
            return fn(x, *args, **kwargs)
        return counted

    def _surplus_factory(self, factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            bundle = factory(*args, **kwargs)
            return dataclasses.replace(bundle, **{
                f: self._count_rows(getattr(bundle, f))
                for f in _SURPLUS_FIELDS})
        return build

    # -- patching --------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nestor"
                                   or mod_name.startswith("nestor.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import nestor.cli  # noqa: F401  (loads every module that is patched)
        for mod_name, attr, name, observe in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind_everywhere(original,
                                    self._wrap(name, original, observe))
        for mod_name, cls_name, attr, name, observe in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = vars(cls)[attr]
            setattr(cls, attr, self._wrap(name, original, observe))
            self._undo.append((cls, attr, original))
        for attr in _SURPLUS_FACTORIES:
            original = getattr(sys.modules["nestor.surplus"], attr)
            self._rebind_everywhere(original, self._surplus_factory(original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def under(self, root: int) -> np.ndarray:
        """Mask of the spans that are ``root`` or descend from it."""
        inside = np.zeros(len(self.spans), dtype=bool)
        for i, (_, _, _, parent) in enumerate(self.spans):
            inside[i] = i == root or (parent >= 0 and inside[parent])
        return inside

    def aggregate(self, root: int) -> dict:
        """Per span name under ``root``: calls, total and self seconds."""
        inside = self.under(root)
        dur = np.array([end - start for _, start, end, _ in self.spans])
        child = np.zeros(len(self.spans))
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict = {}
        for i in np.nonzero(inside)[0]:
            row = out.setdefault(self.spans[i][0],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def calls_within(self, root: int, name: str, ancestor: str) -> int:
        """Spans called ``name`` under ``root`` with an ``ancestor`` span."""
        inside = self.under(root)
        has_anc = np.zeros(len(self.spans), dtype=bool)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                has_anc[i] = has_anc[parent] or self.spans[parent][0] == ancestor
        return int(sum(1 for i in np.nonzero(inside & has_anc)[0]
                       if self.spans[i][0] == name))

    def note_values(self, root: int, key: str) -> list:
        return [v for r, k, v in self.notes if r == root and k == key]

    def write(self, path):
        """Spans as CSV: index, name, start, end (s from the first span),
        parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent}\n")

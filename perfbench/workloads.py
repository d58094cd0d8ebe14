"""The three nestor benchmark workloads.

Each workload builds its model (set-up), prepares seeded inputs outside
the timed region, runs nestor in the timed region, and then checks the
outputs against the closed forms of the paraboloid-to-segment scenario
(map F = x1^((m+1)/2), level curve k = y^(2/(m+1))) and against the
acceptance tolerances.  Inputs that nestor receives from the benchmark
are arrays generated here from the seed; nestor is never handed the seed
of a workload's random draw except through the CLI's own ``seed`` field.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from nestor import cli, levelsets, nestedness, oracle, scenarios, solver
from nestor.errors import EmptyBand

SCENARIO = "paraboloid-segment"

# Pinned in tests/test_acceptance.py (map, level curve, balance residual,
# strong duality, oracle gaps) and tests/test_oracle.py (dual
# feasibility, marginals, cyclical monotonicity).  Never loosened here.
TOL = {
    "err_map_m2": 5e-3,
    "err_map_m3": 2e-2,
    "err_k": 5e-3,
    "balance_residual_max": 0.02,
    "strong_duality_gap": 1e-9,
    "dual_gap": 2e-2,
    "surplus_gap": 5e-3,
    "dual_infeasibility": 1e-9,
    "marginal_error": 1e-9,
    "cyclical_monotonicity": 1e-9,
}

# Oracle atoms come from nestor's stratified sampler with the seed the CLI
# uses by default; the benchmark seed drives the permutation of them.
ORACLE_SAMPLE_SEED = 7


def gate(name, value, tol):
    """A numeric gate: |value| <= tol."""
    value = float(value)
    return {"name": name, "value": value, "tol": tol,
            "ok": bool(np.isfinite(value) and abs(value) <= tol)}


def gate_equal(name, value, want):
    return {"name": name, "value": value, "want": want, "ok": value == want}


def tol_used(gates) -> float:
    """Largest share of its tolerance that any numeric gate used."""
    return max(abs(g["value"]) / g["tol"] for g in gates if "tol" in g)


def err_k(y, k, m) -> float:
    mask = (y >= 0.02) & (y <= 0.98)
    return float(np.max(np.abs(k - y ** (2.0 / (m + 1)))[mask]))


def _surface_probe(model, nodes, estimator) -> float:
    """Seconds per direct surface_integral call over the solved nodes."""
    calls = 0
    spent = 0.0
    for y, k in zip(*nodes):
        t0 = time.perf_counter()
        try:
            levelsets.surface_integral(model, float(y), float(k),
                                       estimator=estimator)
        except EmptyBand:
            continue
        spent += time.perf_counter() - t0
        calls += 1
    return spent / calls


class Workload:
    name = ""
    m = 2
    builds_own_model = False  # True when run() builds the model itself
    min_repetitions = 1

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = Path(workdir)
        self.params = dict(self.SIZES[size])

    @property
    def scenario_params(self) -> dict:
        """Keyword arguments of scenarios.build for this size."""
        out = {"m": self.m}
        if "resolution" in self.params:
            out["resolution"] = self.params["resolution"]
        return out

    def setup(self):
        """Build the scenario and its non-degeneracy certificate."""
        model = scenarios.build(SCENARIO, **self.scenario_params).model
        model.certificate
        return model

    def prepare(self, model):
        """Seeded inputs, made outside the timed region."""

    def run(self, model) -> dict:
        raise NotImplementedError

    def check(self, raw) -> dict:
        """Accuracy values, gates, and extras for the report."""
        raise NotImplementedError

    def probes(self, model, outcome) -> dict:
        """Direct per-call layer timings made after a traced run."""
        return {}


class Par2Cli(Workload):
    """``nestor solve`` in-process on the m = 2 paraboloid, oracle on."""

    name = "par2-cli"
    m = 2
    builds_own_model = True
    # the artifact digests need a second repetition to agree with
    min_repetitions = 2
    SIZES = {
        "full": {},
        "tiny": {"resolution": 48, "y_nodes": 33, "map_samples": 50,
                 "oracle": {"n_source": 40, "n_target": 8},
                 "tolerances": {"nestedness_probes": 10, "scan_nodes": 41}},
    }

    def prepare(self, model):
        config = {"scenario": SCENARIO, "params": {"m": self.m},
                  "seed": self.seed, "outputs": {"oracle": True}}
        extra = dict(self.params)
        if "resolution" in extra:
            config["quadrature"] = {"resolution": extra.pop("resolution")}
        config.update(extra)
        self.config_path = self.workdir / f"par2-cli-{self.size}-config.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")

    def run(self, model) -> dict:
        out_dir = tempfile.mkdtemp(prefix="par2-cli-", dir=self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve", "--config", str(self.config_path),
                                 "--out", out_dir])
        except BaseException:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise
        return {"exit_code": code, "out_dir": Path(out_dir)}

    def check(self, raw) -> dict:
        out_dir = raw["out_dir"]
        try:
            summary = json.loads((out_dir / "summary.json").read_text())
            maps = np.loadtxt(out_dir / "map.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            curve = np.loadtxt(out_dir / "curve.csv", delimiter=",",
                               skiprows=1, ndmin=2)
            files = sorted(p for p in out_dir.iterdir() if p.is_file())
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files}
            artifact_bytes = sum(p.stat().st_size for p in files)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        orc = summary["oracle"]
        acc = {
            "err_map": float(np.max(np.abs(maps[:, 2]
                                           - maps[:, 0] ** ((self.m + 1) / 2)))),
            "err_k": err_k(curve[:, 0], curve[:, 1], self.m),
            "balance_residual_max": summary["balance_residual_max"],
            "pushforward_ks": summary["pushforward_distance"],
            "dual_gap": orc["dual_gap"],
            "strong_duality_gap": abs(orc["strong_duality_gap"]),
        }
        gates = [
            gate_equal("exit_code", raw["exit_code"], 0),
            gate("err_map", acc["err_map"], TOL["err_map_m2"]),
            gate("err_k", acc["err_k"], TOL["err_k"]),
            gate("balance_residual_max", acc["balance_residual_max"],
                 TOL["balance_residual_max"]),
            gate("strong_duality_gap", acc["strong_duality_gap"],
                 TOL["strong_duality_gap"]),
            gate("dual_gap", acc["dual_gap"], TOL["dual_gap"]),
            gate("surplus_gap", orc["surplus_gap"], TOL["surplus_gap"]),
            gate("cyclical_monotonicity",
                 max(orc["cyclical_monotonicity_worst"], 0.0),
                 TOL["cyclical_monotonicity"]),
            gate_equal("verdict", summary.get("nestedness_verdict"), "nested"),
        ]
        return {"accuracy": acc, "gates": gates, "digests": digests,
                "nodes": (curve[:, 0], curve[:, 1]),
                "extra": {"artifact_bytes": artifact_bytes,
                          "oracle_pivots": orc["n_pivots"]}}

    def probes(self, model, outcome) -> dict:
        return {"levelsets.contour2d.s_per_call":
                _surface_probe(model, outcome["nodes"], "contour2d")}


def paraboloid_points(m: int, n: int, rng, margin: float = 0.01):
    """n uniform points of the solid paraboloid |x'|^2/2 < x1 < 1 whose
    2m-point stencil at distance margin x (bbox scale) stays inside."""
    half = np.sqrt(2.0)
    lo = np.array([0.0] + [-half] * (m - 1))
    hi = np.array([1.0] + [half] * (m - 1))
    delta = margin * float(np.max(hi - lo))

    def inside(x):
        return ((0.5 * np.sum(x[:, 1:] ** 2, axis=1) < x[:, 0])
                & (x[:, 0] < 1.0))

    chunks = []
    kept = 0
    while kept < n:
        cand = lo + (hi - lo) * rng.random((2 * n, m))
        keep = inside(cand)
        for j in range(m):
            for sgn in (-1.0, 1.0):
                shifted = cand.copy()
                shifted[:, j] += sgn * delta
                keep &= inside(shifted)
        chunks.append(cand[keep])
        kept += int(np.sum(keep))
    return np.concatenate(chunks)[:n]


class Par3Library(Workload):
    """The library quickstart on the m = 3 paraboloid."""

    name = "par3-library"
    m = 3
    SIZES = {
        "full": {"batch": 200_000},
        "tiny": {"resolution": 16, "y_nodes": 33, "batch": 2_000},
    }

    def prepare(self, model):
        rng = np.random.default_rng(self.seed)
        self.batch = paraboloid_points(self.m, self.params["batch"], rng)

    def run(self, model) -> dict:
        curve = solver.solve_split_curve(
            model, n_nodes=self.params.get("y_nodes", 257))
        t0 = time.perf_counter()
        f_vals = solver.optimal_map(model, curve, self.batch)
        u_vals, _ = solver.source_payoff(model, curve, self.batch)
        map_s = time.perf_counter() - t0
        y = curve.y_grid
        clean = (y >= 0.05) & (y <= 0.95) & ~curve.tangential_flags
        residuals = [solver.balance_residual(model, curve, float(yi))
                     for yi in y[clean]]
        report = nestedness.nestedness_report(model, curve)
        ks = solver.pushforward_distance(model, curve)
        return {"curve": curve, "f": f_vals, "u": u_vals, "map_s": map_s,
                "residuals": residuals, "verdict": report.verdict, "ks": ks}

    def check(self, raw) -> dict:
        curve = raw["curve"]
        acc = {
            "err_map": float(np.max(np.abs(
                raw["f"] - self.batch[:, 0] ** ((self.m + 1) / 2)))),
            "err_k": err_k(curve.y_grid, curve.k_plus, self.m),
            "balance_residual_max": float(np.max(np.abs(raw["residuals"]))),
            "pushforward_ks": raw["ks"],
        }
        gates = [
            gate("err_map", acc["err_map"], TOL["err_map_m3"]),
            gate("err_k", acc["err_k"], TOL["err_k"]),
            gate("balance_residual_max", acc["balance_residual_max"],
                 TOL["balance_residual_max"]),
            gate_equal("verdict", raw["verdict"], "nested"),
            gate_equal("payoff_finite", bool(np.all(np.isfinite(raw["u"]))),
                       True),
        ]
        return {"accuracy": acc, "gates": gates,
                "nodes": (curve.y_grid, curve.k_plus),
                "extra": {"map_points_per_s": self.batch.shape[0]
                          / raw["map_s"]}}

    def probes(self, model, outcome) -> dict:
        return {"levelsets.band.s_per_call":
                _surface_probe(model, outcome["nodes"], "band")}


class OracleShuffled(Workload):
    """The transportation simplex on seeded permutations of par2 atoms.

    A repetition solves several permutations of the same atoms, so that
    the pivot count of one lucky or unlucky ordering does not set the
    time of a whole run."""

    name = "oracle-shuffled"
    m = 2
    SIZES = {
        "full": {"shape": (500, 50), "orderings": 4},
        "tiny": {"resolution": 48, "shape": (60, 12), "orderings": 2},
    }

    def prepare(self, model):
        ns, nt = self.params["shape"]
        rng = np.random.default_rng(self.seed)
        self.orderings = [(rng.permutation(ns), rng.permutation(nt))
                          for _ in range(self.params["orderings"])]
        y_grid = model.target.interior_grid(257)
        p = 2.0 / (self.m + 1)
        self.curve = solver.SplitCurve.from_function(
            model.target, y_grid, lambda y: y ** p,
            lambda y: p * y ** (p - 1.0))

    def run(self, model) -> list:
        ns, nt = self.params["shape"]
        atoms = oracle.sample_instance(model, ns, nt, seed=ORACLE_SAMPLE_SEED)
        solved = []
        for r, c in self.orderings:
            inst = oracle.DiscreteInstance(
                atoms.source_points[r], atoms.source_weights[r],
                atoms.target_points[c], atoms.target_weights[c],
                atoms.surplus_matrix[np.ix_(r, c)])
            plan = oracle.solve_transport(inst)
            gaps = oracle.compare_with_map(model, self.curve, inst, plan)
            audit = oracle.cyclical_monotonicity_audit(plan,
                                                       inst.surplus_matrix)
            solved.append({"inst": inst, "plan": plan, "gaps": gaps,
                           "audit": audit})
        return solved

    def check(self, raw) -> dict:
        """Every ordering is gated; the figures are the worst over them."""
        found = []
        for one in raw:
            inst, plan, gaps = one["inst"], one["plan"], one["gaps"]
            found.append({
                "strong_duality_gap": abs(
                    plan.objective - plan.u @ inst.source_weights
                    - plan.v @ inst.target_weights),
                "dual_infeasibility": max(float(np.max(
                    inst.surplus_matrix - plan.u[:, None]
                    - plan.v[None, :])), 0.0),
                "marginal_error": max(oracle.plan_marginal_errors(inst, plan)),
                "dual_gap": gaps["dual_gap"],
                "surplus_gap": gaps["surplus_gap"],
                "cyclical_monotonicity": max(one["audit"], 0.0),
            })
        # largest magnitude over the orderings; a NaN counts as the
        # largest, so that it reaches its gate and fails there
        worst = {name: max((float(f[name]) for f in found),
                           key=lambda v: np.inf if np.isnan(v) else abs(v))
                 for name in found[0]}
        acc = {"dual_gap": worst["dual_gap"],
               "strong_duality_gap": worst["strong_duality_gap"]}
        gates = [gate(name, value, TOL[name]) for name, value in worst.items()]
        return {"accuracy": acc, "gates": gates,
                "extra": {"oracle_pivots": sum(one["plan"].n_pivots
                                               for one in raw)}}


WORKLOADS = {w.name: w for w in (Par2Cli, Par3Library, OracleShuffled)}

"""Self-test of the benchmark at the tiny size.

Every workload, untraced and traced, must print the metrics that
BENCHMARK.json names, with their units, plus the report's named figures,
and must gate its outputs.  Run with ``python3 -m pytest perfbench``.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# solve_s and setup_s are corrected for the host's speed; the wall-clock
# figures are reported beside them
NAMED = {
    "par2-cli": {"setup_s", "solve_s", "setup_wall_s", "solve_wall_s",
                 "peak_rss_mb", "tol_used", "err_map", "err_k",
                 "balance_residual_max", "pushforward_ks",
                 "dual_gap", "strong_duality_gap", "failed_frac"},
    "par3-library": {"setup_s", "solve_s", "setup_wall_s", "solve_wall_s",
                     "peak_rss_mb", "tol_used", "map_points_per_s",
                     "err_map", "err_k", "balance_residual_max",
                     "pushforward_ks", "failed_frac"},
    "oracle-shuffled": {"setup_s", "solve_s", "setup_wall_s",
                        "solve_wall_s", "peak_rss_mb", "tol_used",
                        "dual_gap", "strong_duality_gap", "failed_frac"},
}

GATES = {
    "par2-cli": {"exit_code", "err_map", "err_k", "balance_residual_max",
                 "strong_duality_gap", "dual_gap", "surplus_gap",
                 "cyclical_monotonicity", "verdict", "artifact_digests_agree"},
    "par3-library": {"err_map", "err_k", "balance_residual_max", "verdict",
                     "payoff_finite"},
    "oracle-shuffled": {"strong_duality_gap", "dual_infeasibility",
                        "marginal_error", "dual_gap", "surplus_gap",
                        "cyclical_monotonicity"},
}


def _run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-2])["report"], \
        json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_reports_every_metric_and_gates(workload, trace):
    code, report, result = _run(workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["attempted"] >= (2 if workload == "par2-cli" else 1)
    assert result["correct"] == (result["failed"] == 0) == (code == 0)

    assert set(report["metrics"]) == NAMED[workload]
    assert all(m["unit"] for m in report["metrics"].values())
    assert {g["name"] for g in report["gates"]} == GATES[workload]
    assert report["seed"] == 3
    assert {"nproc", "python", "numpy", "scipy", "blas"} <= \
        set(report["environment"])
    if workload == "par2-cli":
        assert {"curve.csv", "map.csv", "summary.json"} <= \
            set(report["artifact_digests"])
    if trace:
        layer = result["metrics"]
        assert layer["trace.solve_s"]["value"] > 0
        assert layer["scenarios.build_s"]["value"] > 0


def test_gate_rejects_a_corrupted_result(tmp_path):
    work = workloads.OracleShuffled("tiny", 0, tmp_path)
    model = work.setup()
    work.prepare(model)
    raw = work.run(model)
    before = {g["name"]: g["ok"] for g in work.check(raw)["gates"]}
    assert before["strong_duality_gap"] and before["dual_infeasibility"]

    raw[-1]["plan"].u[0] -= 1e-6
    after = {g["name"]: g["ok"] for g in work.check(raw)["gates"]}
    assert not after["strong_duality_gap"]
    assert not after["dual_infeasibility"]


def test_gate_never_passes_a_non_finite_value():
    assert not workloads.gate("err_k", float("nan"), 5e-3)["ok"]
    assert not workloads.gate("err_k", 6e-3, 5e-3)["ok"]
    assert workloads.gate("err_k", -4e-3, 5e-3)["ok"]


def test_sampler_samples_during_the_body_and_stops_after_it():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * hostspeed.INTERVAL_S:
            sum(range(1_000))
        wall_s = time.perf_counter() - t0
    assert len(sampler.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0.0 < sampler.spent_s < wall_s
    assert sampler.corrected(wall_s) > 0.0

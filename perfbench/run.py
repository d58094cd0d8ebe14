"""nestor benchmark: time to a solve that meets the acceptance tolerances.

    python3 perfbench/run.py --workload par2-cli --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    par2-cli         ``nestor solve`` in-process on the m = 2 paraboloid
                     with the oracle cross-check on
    par3-library     the library quickstart on the m = 3 paraboloid with
                     a 200k-point map batch
    oracle-shuffled  the transportation simplex on four seeded orderings of
                     500 x 50 par2 atoms

One run is one fresh process with one closed-loop client.  It times the
set-up in separate fresh processes, warms up on a tiny size, then
repeats the workload (as often as ``--seconds`` allows, at least once,
and twice on par2-cli) and gates every repetition on the acceptance
tolerances.  Times are corrected for the shared host's speed drift
against a reference kernel (see hostspeed.py); the wall seconds are
reported beside them.  ``--trace 1`` adds one traced repetition, with
spans around nestor's public functions, and reports per-layer figures
instead of the end-to-end ones.

The last line of stdout is the result object; the line before it is a
report with every figure, its unit, the gates, the environment and the
artifact digests.  The exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5

END_TO_END = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("tol_used", "ratio")]

PER_LAYER = [
    ("scenarios.build_s", "s"), ("geometry.quadrature_s", "s"),
    ("model.certificate_s", "s"),
    ("model.slice_at.calls", "count"), ("model.slice_at.self_s", "s"),
    ("model.slice_at.reuse_ratio", "ratio"),
    ("surplus.points_evaluated", "count"),
    ("levelsets.sublevel_mass.calls", "count"),
    ("levelsets.sublevel_mass.self_s", "s"),
    ("levelsets.sublevel_mass.per_node", "calls/node"),
    ("levelsets.grad_h.calls", "count"), ("levelsets.grad_h.self_s", "s"),
    ("levelsets.is_tangential.calls", "count"),
    ("levelsets.is_tangential.self_s", "s"),
    ("levelsets.surface_integral.calls", "count"),
    ("levelsets.surface_integral.self_s", "s"),
    ("levelsets.contour2d.s_per_call", "s"),
    ("levelsets.band.s_per_call", "s"),
    ("geometry.contains.calls", "count"), ("geometry.contains.self_s", "s"),
    ("solver.solve_split_curve.s", "s"),
    ("solver.solve_split_curve.self_s", "s"), ("solver.nodes", "count"),
    ("solver.balance_residual.calls", "count"),
    ("solver.balance_residual.self_s", "s"),
    ("solver.optimal_map.points_per_s", "points/s"),
    ("solver.source_payoff.points_per_s", "points/s"),
    ("solver.map_gradient.s", "s"), ("solver.pushforward_distance.s", "s"),
    ("nestedness.check_sublevel_monotonicity.s", "s"),
    ("nestedness.dynamic_criterion.s", "s"),
    ("nestedness.unique_splitting_check.s", "s"),
    ("nestedness.transversality_diagnostic.s", "s"),
    ("nestedness.speed_limit.s", "s"),
    ("nestedness.dynamic.skipped", "count"),
    ("oracle.sample_instance.s", "s"), ("oracle.solve_transport.s", "s"),
    ("oracle.pivots", "count"), ("oracle.s_per_pivot", "s"),
    ("oracle.compare_with_map.s", "s"), ("oracle.audit.s", "s"),
    ("cli.run.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("trace.solve_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["par2-cli", "par3-library", "oracle-shuffled"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs every step on toy grids (for tests)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy without the dict mode
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def time_setup(workload) -> tuple:
    """One set-up in a fresh interpreter; returns its wall seconds and
    the host slowdown read right after it."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           json.dumps(workload.scenario_params)]
    if workload.name == "par2-cli":
        cmd.append("--cli")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=150, check=True)
    wall_s, slowdown = done.stdout.split()[-2:]
    return float(wall_s), float(slowdown)


def ready(workload):
    """Prepare the workload's inputs; returns the model it runs on, or None
    when the workload builds its own."""
    model = None if workload.builds_own_model else workload.setup()
    workload.prepare(model)
    return model


def run_once(workload, model, tracer=None) -> dict:
    """One gated repetition; the timed region is workload.run only.

    Untraced, the host speed is sampled during the timed region and
    ``solve_s`` is the corrected time; traced, it is the wall time (the
    sampler would add its kernel to the self time of whatever span it
    interrupts)."""
    # the last repetition's cyclic garbage is collected here, outside the
    # timed region, rather than by a collection this repetition would pay for
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            with hostspeed.Sampler() as sampler:
                t0 = time.perf_counter()
                raw = workload.run(model)
                wall_s = time.perf_counter() - t0
            timing = {"solve_s": sampler.corrected(wall_s),
                      "wall_s": wall_s, "slowdown": sampler.slowdown,
                      "root": None}
        else:
            with tracer.root("bench.solve") as root:
                raw = workload.run(model)
            wall_s = time.perf_counter() - t0
            timing = {"solve_s": wall_s, "wall_s": wall_s, "root": root}
        outcome = workload.check(raw)
    except Exception:
        traceback.print_exc()
        wall_s = time.perf_counter() - t0
        return {"solve_s": wall_s, "wall_s": wall_s, "ok": False,
                "error": traceback.format_exc(limit=3), "root": None}
    outcome.update(timing, ok=all(g["ok"] for g in outcome["gates"]))
    return outcome


def measure(workload, model, seconds: float) -> list:
    """Closed loop: repeat until the next repetition would overrun."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_once(workload, model))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if (len(records) >= workload.min_repetitions
                and elapsed + typical > seconds):
            return records


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nestor").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(workload, records) -> dict:
    """Artifact digests must agree across the repetitions of this run and
    with any earlier run of the same sources, workload, size and seed."""
    runs = [r["digests"] for r in records if "digests" in r]
    if not runs:
        return {}
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{source_digest()}:{workload.name}:{workload.size}:{workload.seed}"
    reference = known.get(key, runs[0])
    agree = all(d == reference for d in runs)
    for r in records:
        if "digests" in r:
            r["gates"].append({"name": "artifact_digests_agree",
                               "value": r["digests"] == reference,
                               "want": True,
                               "ok": r["digests"] == reference})
            r["ok"] = r["ok"] and r["digests"] == reference
    if agree and key not in known:
        known[key] = reference
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return reference


def traced_run(workload, untraced_wall_s: float) -> tuple:
    """One traced set-up and repetition; returns (record, layer figures)."""
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup") as setup_root:
            model = workload.setup()
        record = run_once(workload, model, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload.name}-{workload.size}"
                 f"-seed{workload.seed}.csv")
    figures = {name: 0.0 for name, _ in PER_LAYER}
    setup = tracer.aggregate(setup_root)
    figures["scenarios.build_s"] = setup["scenarios.build"]["total_s"]
    figures["geometry.quadrature_s"] = setup["geometry.quadrature"]["total_s"]
    figures["model.certificate_s"] = setup["model.certificate"]["total_s"]
    root = record["root"]
    if root is None:
        return record, figures
    spans = tracer.aggregate(root)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    for layer in ("levelsets.sublevel_mass", "levelsets.grad_h",
                  "levelsets.is_tangential", "levelsets.surface_integral",
                  "geometry.contains", "model.slice_at",
                  "solver.balance_residual"):
        figures[f"{layer}.calls"] = spans.get(layer, {}).get("calls", 0)
        figures[f"{layer}.self_s"] = spans.get(layer, {}).get("self_s", 0.0)
    keys = tracer.note_values(root, "model.slice_at.y")
    if keys:
        figures["model.slice_at.reuse_ratio"] = 1.0 - len(set(keys)) / len(keys)
    figures["surplus.points_evaluated"] = sum(
        tracer.note_values(root, "surplus.points"))
    nodes = sum(tracer.note_values(root, "solver.nodes"))
    figures["solver.nodes"] = nodes
    if nodes:
        figures["levelsets.sublevel_mass.per_node"] = tracer.calls_within(
            root, "levelsets.sublevel_mass", "solver.solve_split_curve") / nodes
    figures["solver.solve_split_curve.s"] = total("solver.solve_split_curve")
    figures["solver.solve_split_curve.self_s"] = spans.get(
        "solver.solve_split_curve", {}).get("self_s", 0.0)
    for fn in ("optimal_map", "source_payoff"):
        points = sum(tracer.note_values(root, f"solver.{fn}.points"))
        if points:
            figures[f"solver.{fn}.points_per_s"] = points / total(f"solver.{fn}")
    for fn in ("map_gradient", "pushforward_distance"):
        figures[f"solver.{fn}.s"] = total(f"solver.{fn}")
    for fn in ("check_sublevel_monotonicity", "dynamic_criterion",
               "unique_splitting_check", "transversality_diagnostic",
               "speed_limit"):
        figures[f"nestedness.{fn}.s"] = total(f"nestedness.{fn}")
    figures["nestedness.dynamic.skipped"] = sum(
        tracer.note_values(root, "nestedness.dynamic.skipped"))
    for fn in ("sample_instance", "solve_transport", "compare_with_map",
               "audit"):
        figures[f"oracle.{fn}.s"] = total(f"oracle.{fn}")
    pivots = sum(tracer.note_values(root, "oracle.pivots"))
    figures["oracle.pivots"] = pivots
    if pivots:
        figures["oracle.s_per_pivot"] = total("oracle.solve_transport") / pivots
    figures["cli.run.self_s"] = spans.get("cli.run", {}).get("self_s", 0.0)
    figures["cli.artifact_bytes"] = record.get("extra", {}).get(
        "artifact_bytes", 0)
    figures.update(workload.probes(model, record))
    figures["trace.solve_s"] = record["wall_s"]
    figures["trace.overhead_s"] = record["wall_s"] - untraced_wall_s
    figures["trace.unattributed_s"] = spans["bench.solve"]["self_s"]
    return record, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nestor" / "__init__.py").is_file():
        print(f"error: nestor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment()
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed, OUT)

    setup_samples = [time_setup(workload) for _ in range(SETUP_REPEATS)]

    warm = workloads.WORKLOADS[args.workload]("tiny", args.seed, OUT)
    warm.check(warm.run(ready(warm)))

    model = ready(workload)
    records = measure(workload, model, args.seconds)
    solve_s = statistics.median(r["solve_s"] for r in records)
    wall_s = statistics.median(r["wall_s"] for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if args.trace:
        traced, layer = traced_run(workload, wall_s)
        records.append(traced)
    digests = check_digests(workload, records)

    failed = sum(not r["ok"] for r in records)
    graded = [r for r in records if "gates" in r]
    used = max((workloads.tol_used(r["gates"]) for r in graded),
               default=None)
    e2e = {"solve_s": solve_s,
           "setup_s": statistics.median(w / f for w, f in setup_samples),
           "peak_rss_mb": peak_rss_mb, "tol_used": used}

    last = graded[-1] if graded else {}
    named = {name: {"value": value, "unit": "1"}
             for name, value in last.get("accuracy", {}).items()}
    if "map_points_per_s" in last.get("extra", {}):
        named["map_points_per_s"] = {
            "value": statistics.median(r["extra"]["map_points_per_s"]
                                       for r in graded),
            "unit": "points/s"}
    named["failed_frac"] = {"value": failed / len(records), "unit": "ratio"}
    named["solve_wall_s"] = {"value": wall_s, "unit": "s"}
    named["setup_wall_s"] = {
        "value": statistics.median(w for w, _ in setup_samples), "unit": "s"}
    for name, unit in END_TO_END:
        named[name] = {"value": e2e[name], "unit": unit}

    report = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "setup_samples": [{"wall_s": w, "slowdown": f}
                          for w, f in setup_samples],
        "repetitions": [{"solve_s": r["solve_s"], "wall_s": r["wall_s"],
                         "slowdown": r.get("slowdown"), "ok": r["ok"],
                         **({"error": r["error"]} if "error" in r else {})}
                        for r in records],
        "metrics": named,
        "gates": last.get("gates", []),
        "oracle_pivots": last.get("extra", {}).get("oracle_pivots"),
        "artifact_digests": digests,
    }
    print(json.dumps({"report": report}, sort_keys=True))

    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).

Tolerances are pinned here and nowhere else; the heavy solves come from
the session fixtures so the suite pays for each one once.
"""

import time

import numpy as np
import pytest

from nestor import nestedness as nd
from nestor import pseudoindex as pix
from nestor import scenarios as sc
from nestor import solver as sv
from nestor.levelsets import grad_h
from nestor.oracle import (DiscreteInstance, compare_with_map,
                           sample_instance, solve_transport)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_paraboloid_m2(par2):
    model, curve = par2.model, par2.curve
    t0 = time.perf_counter()
    probes = model.domain.sample_interior(500, seed=42, margin=0.01)
    f_num = sv.optimal_map(model, curve, probes)
    map_seconds = time.perf_counter() - t0
    err_f = float(np.max(np.abs(f_num - probes[:, 0] ** 1.5)))

    mask = (curve.y_grid >= 0.02) & (curve.y_grid <= 0.98)
    err_k = float(np.max(np.abs(curve.k_plus - curve.y_grid ** (2 / 3))[mask]))

    v_ref = 0.6 * curve.y_grid ** (5 / 3)
    diff = (curve.v_values - v_ref)[mask]
    err_v = float(np.max(diff) - np.min(diff)) / 2  # best additive shift

    runtime = par2.build_seconds + par2.solve_seconds + map_seconds
    ok = err_f <= 5e-3 and err_k <= 5e-3 and err_v <= 1e-2 and runtime <= 60
    _report(1, ok, f"|F-x1^1.5|={err_f:.2e} (<=5e-3), |k-y^(2/3)|={err_k:.2e}"
            f" (<=5e-3), |v-shift|={err_v:.2e} (<=1e-2), "
            f"runtime={runtime:.1f}s (<=60)")


def test_criterion_02_paraboloid_m3(par3):
    model, curve = par3.model, par3.curve
    t0 = time.perf_counter()
    probes = model.domain.sample_interior(500, seed=43, margin=0.01)
    f_num = sv.optimal_map(model, curve, probes)
    map_seconds = time.perf_counter() - t0
    err_f = float(np.max(np.abs(f_num - probes[:, 0] ** 2)))
    runtime = par3.build_seconds + par3.solve_seconds + map_seconds
    ok = err_f <= 2e-2 and runtime <= 300
    _report(2, ok, f"|F-x1^2|={err_f:.2e} (<=2e-2), "
            f"runtime={runtime:.1f}s (<=300)")


def test_criterion_03_balance_residual(par2, par3):
    worst = {}
    for name, solved in (("m=2", par2), ("m=3", par3)):
        curve = solved.curve
        mask = ((curve.y_grid >= 0.05) & (curve.y_grid <= 0.95)
                & ~curve.tangential_flags)
        vals = [abs(sv.balance_residual(solved.model, curve, float(y)))
                for y in curve.y_grid[mask]]
        worst[name] = max(vals)
    ok = all(v <= 0.02 for v in worst.values())
    _report(3, ok, "max |g - balance integral|: "
            + ", ".join(f"{k}: {v:.4f}" for k, v in worst.items())
            + " (<=0.02)")


def test_criterion_04_derivative_formula(par2):
    model, curve = par2.model, par2.curve
    keep = np.nonzero((curve.y_grid >= 0.05) & (curve.y_grid <= 0.95)
                      & ~curve.tangential_flags)[0]
    idx = keep[np.linspace(0, keep.size - 1, 50).astype(int)]
    formula_gap = 0.0
    for i in idx:
        gh = grad_h(model, float(curve.y_grid[i]), float(curve.k_plus[i]))
        formula_gap = max(formula_gap,
                          abs(curve.kprime[i] + gh.h_y / gh.h_k))
    fd = np.gradient(curve.k_plus, curve.y_grid)
    fd_gap = float(np.max(np.abs(curve.kprime - fd)[idx]))
    ok = formula_gap <= 1e-2 and fd_gap <= 1e-2
    _report(4, ok, f"|k' + h_y/h_k|={formula_gap:.2e} (<=1e-2), "
            f"|k' - FD(k)|={fd_gap:.2e} (<=1e-2) at 50 nodes")


def test_criterion_05_oracle_equivalence(par2):
    inst = sample_instance(par2.model, 400, 40, seed=7)
    plan = solve_transport(inst)
    gaps = compare_with_map(par2.model, par2.curve, inst, plan)

    rng = np.random.default_rng(99)
    worst_duality = 0.0
    for _ in range(100):
        ns = int(rng.integers(2, 201))
        nt = int(rng.integers(2, 51))
        a = rng.random(ns) + 0.01
        a /= a.sum()
        b = rng.random(nt) + 0.01
        b /= b.sum()
        s_mat = rng.standard_normal((ns, nt))
        p = solve_transport(DiscreteInstance(np.zeros((ns, 1)), a,
                                             np.zeros(nt), b, s_mat))
        worst_duality = max(worst_duality,
                            abs(p.objective - p.u @ a - p.v @ b))
    ok = (abs(gaps["surplus_gap"]) <= 5e-3 and gaps["dual_gap"] <= 2e-2
          and worst_duality <= 1e-9)
    _report(5, ok, f"surplus_gap={gaps['surplus_gap']:+.2e} (<=5e-3), "
            f"dual_gap={gaps['dual_gap']:.2e} (<=2e-2), "
            f"strong duality worst={worst_duality:.1e} (<=1e-9, 100 instances)")


def test_criterion_06_nestedness_verdicts(par2, ball):
    rep_par = nd.nestedness_report(par2.model, par2.curve)
    all_three = (rep_par.sublevel_monotone.passed and rep_par.dynamic.passed
                 and rep_par.unique_splitting.passed)
    rep_ball = nd.nestedness_report(ball.model, ball.curve)
    ball_ok = (rep_ball.verdict == "non-nested"
               and len(rep_ball.unique_splitting.witnesses) > 0)

    cache = {}

    def pie_verdict(theta0):
        if theta0 not in cache:
            scenario = sc.build("pie-slice", theta0=theta0, resolution=192)
            curve = sv.solve_split_curve(scenario.model, n_nodes=129)
            cache[theta0] = nd.nestedness_report(scenario.model,
                                                 curve).verdict
        return cache[theta0]

    lo, hi = 1.2, 2.0
    assert pie_verdict(lo) == "nested" and pie_verdict(hi) == "non-nested"
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if pie_verdict(mid) == "nested":
            lo = mid
        else:
            hi = mid
    flip_ok = lo <= np.pi / 2 <= hi
    ok = all_three and rep_par.verdict == "nested" and ball_ok and flip_ok
    _report(6, ok, f"paraboloid nested (3/3: {all_three}), ball non-nested "
            f"with {len(rep_ball.unique_splitting.witnesses)} splitting "
            f"witnesses, pie flip in [{lo:.3f}, {hi:.3f}] "
            f"(pi/2={np.pi / 2:.3f}, width<=0.1)")


def test_criterion_07_holder_exponents(par2, par3):
    e2 = sc.holder_probe(par2.model, curve=par2.curve)
    e3 = sc.holder_probe(par3.model, curve=par3.curve)
    ok = abs(e2 - 2 / 3) <= 0.05 and abs(e3 - 0.5) <= 0.05
    _report(7, ok, f"fitted exponents m=2: {e2:.3f} (2/3 +- 0.05), "
            f"m=3: {e3:.3f} (0.5 +- 0.05)")


def test_criterion_08_dual_feasibility(par2, par3, uni1d, pie_nested, flat3):
    worst = {}
    for name, solved in (("par2", par2), ("par3", par3), ("1d", uni1d),
                         ("pie", pie_nested), ("flat", flat3)):
        model, curve = solved.model, solved.curve
        rng = np.random.default_rng(7)
        xs = model.domain.sample_interior(10_000, seed=5)
        ys = model.target.y_lo + model.target.length * rng.random(10_000)
        u_vals, _ = sv.source_payoff(model, curve, xs)
        slack = u_vals + curve.v_at(ys) - np.asarray(model.surplus.s(xs, ys))
        f_val = sv.optimal_map(model, curve, xs[:500])
        graph = (u_vals[:500] + curve.v_at(f_val)
                 - np.asarray(model.surplus.s(xs[:500], f_val)))
        scale = model.surplus_scale
        worst[name] = (float(np.min(slack)) / scale,
                       float(np.max(np.abs(graph))) / scale)
    ok = all(lo >= -1e-6 and eq <= 1e-4 for lo, eq in worst.values())
    _report(8, ok, "min slack / graph gap per fixture (x scale): "
            + ", ".join(f"{k}: {lo:.1e}/{eq:.1e}" for k, (lo, eq)
                        in worst.items())
            + " (>= -1e-6, <= 1e-4)")


def test_criterion_09_kprime_bound(par2, par3, uni1d, pie_nested, flat3):
    gaps = {}
    for name, solved in (("par2", par2), ("par3", par3), ("1d", uni1d),
                         ("pie", pie_nested), ("flat", flat3)):
        lhs, rhs = nd.kprime_bound_gap(solved.model, solved.curve)
        gaps[name] = float(np.max(lhs / rhs))
    ok = all(v <= 1.1 for v in gaps.values())
    _report(9, ok, "max |k'| / bound: "
            + ", ".join(f"{k}: {v:.3f}" for k, v in gaps.items())
            + " (<= 1.1)")


def test_criterion_10_pseudo_index_pipeline(par2, ball):
    det_seg = pix.detect_index_form(par2.model, seed=0)
    det_arc = pix.detect_index_form(ball.model, seed=0)
    rearr = pix.reduce_and_solve_1d(par2.model)
    probes = par2.model.domain.sample_interior(100, seed=2, margin=0.02)
    full = sv.optimal_map(par2.model, par2.curve, probes)
    sup_gap = float(np.max(np.abs(full - np.asarray(rearr.map_full(probes)))))
    resid = pix.verify_1d_ode(rearr)
    sup_f1 = float(np.max(rearr.density(np.linspace(0.05, 0.95, 61))))
    ok = (det_seg["is_index"] and not det_arc["is_index"]
          and sup_gap <= 1e-2 and resid <= 0.01 * sup_f1)
    _report(10, ok, f"detector segment={det_seg['is_index']}/"
            f"arc={det_arc['is_index']} (want True/False), "
            f"reduced-vs-full sup gap={sup_gap:.2e} (<=1e-2), "
            f"ODE residual={resid:.2e} (<= 1% of sup f1={sup_f1:.2f})")


def test_criterion_11_map_gradient_identity(par2):
    model, curve = par2.model, par2.curve
    probes = model.domain.sample_interior(100, seed=3, margin=0.03)
    grads = sv.map_gradient(model, curve, probes)
    h = 1e-5
    fd = np.empty_like(grads)
    for j in range(2):
        xp = probes.copy()
        xm = probes.copy()
        xp[:, j] += h
        xm[:, j] -= h
        fd[:, j] = (sv.optimal_map(model, curve, xp)
                    - sv.optimal_map(model, curve, xm)) / (2 * h)
    rel = float(np.max(np.linalg.norm(grads - fd, axis=1)
                       / np.linalg.norm(grads, axis=1)))

    ell = nd.speed_limit(model, curve)
    sup_grad = 1.0  # |grad_x s_y| = 1 for the bilinear slope
    bound = sup_grad / ell * 1.1
    rng = np.random.default_rng(77)
    base = model.domain.sample_interior(1000, seed=6, margin=0.03)
    step = 1e-3 * rng.standard_normal(base.shape)
    keep = model.domain.contains(base + step)
    fa = sv.optimal_map(model, curve, base[keep])
    fb = sv.optimal_map(model, curve, (base + step)[keep])
    lip = float(np.max(np.abs(fa - fb)
                       / np.linalg.norm(step[keep], axis=1)))
    ok = rel <= 1e-2 and ell > 0 and lip <= bound
    _report(11, ok, f"DF vs FD rel err={rel:.2e} (<=1e-2), sampled "
            f"Lipschitz={lip:.3f} <= bound {bound:.3f} (ell={ell:.3f})")

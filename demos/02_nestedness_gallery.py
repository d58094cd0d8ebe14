"""Nestedness verdicts across the built-in fixtures.

Nested problems admit a continuous optimal map built level set by level
set; non-nested ones make the construction self-contradictory (some point
would be assigned two targets).  Three criteria decide the verdict;
all three read the solved curve, so they are not independent of the
solve (the tests cross-check the split against a map that ranks the
grid afresh).  This gallery shows them agreeing on fixtures whose status
is known, including the sector family whose verdict flips at half-angle
pi/2.
"""

import numpy as np

from nestor import build, nestedness_report, solve_split_curve


def run(name, **params):
    scenario = build(name, resolution=192, **params)
    curve = solve_split_curve(scenario.model, n_nodes=129)
    rep = nestedness_report(scenario.model, curve)
    label = name + (f"({', '.join(f'{k}={v:.3g}' for k, v in params.items())})"
                    if params else "")
    dyn_min = rep.dynamic.details["min"]
    n_multi = rep.unique_splitting.details["n_multi"]
    print(f"{label:34s} verdict={rep.verdict:11s} expected={scenario.expected_verdict:11s} "
          f"speed_min={dyn_min:+.3f} multi_split_probes={n_multi:3d} "
          f"ell={rep.speed_limit:+.3f}")
    return rep


print("fixture                            verdicts and witnesses")
print("-" * 100)
run("pie-slice", theta0=np.pi / 4)
run("pie-slice", theta0=1.45)
run("pie-slice", theta0=1.70)
run("pie-slice", theta0=3 * np.pi / 4)
rep = run("ball-circle", r=0.05)
run("uniform-1d")

print("\nwitnesses from the punctured ball (probe -> candidate splits):")
for x_w, roots in rep.unique_splitting.witnesses[:5]:
    roots_txt = ", ".join(f"{r:+.3f}" for r in roots)
    print(f"  x=({x_w[0]:+.3f}, {x_w[1]:+.3f})  splits at [{roots_txt}]")

# the quadrature point with the largest phi = s_y - k just after it
# leaves the sublevel set, between two consecutive curve nodes y < y'
print("\nworst inclusion violation (sublevel sets must grow with y):")
w = rep.sublevel_monotone.witnesses[0]
print(f"  y={w[0]:+.3f} < y'={w[1]:+.3f}, x=({w[2][0]:+.3f}, {w[2][1]:+.3f}), "
      f"margin={w[3]:.3f}")

"""Endpoint behaviour of the split curve: boundary regularity probes.

Near the lower end of the target interval the matched level sets shrink
to a point and k' blows up; the growth k(y) ~ y^alpha measures how much
smoothness the target-side potential can have at the boundary.  For the
round bowl in R^m the exponent is 2/(m+1); flattening the bowl pushes it
toward 1 while the map exponent 1 + 1/(2 kappa) loses its derivative
bound, showing that boundary regularity hinges on uniform convexity.
"""

import numpy as np

from nestor import build, holder_probe, optimal_map, solve_split_curve

print("round bowls: fitted exponent of k(y) near y = 0 vs 2/(m+1)")
for m in (2, 3):
    scenario = build("paraboloid-segment", m=m)
    curve = solve_split_curve(scenario.model)
    expo = holder_probe(scenario.model, curve=curve)
    print(f"  m={m}: fitted {expo:.4f}   expected {2 / (m + 1):.4f}")

one = build("uniform-1d")
c1 = solve_split_curve(one.model, n_nodes=129)
print(f"  1-d control (smooth k): fitted "
      f"{holder_probe(one.model, curve=c1):.4f}  expected 1.0000")

print("\nflattened bowls (x2^2/2)^kappa < x1: map exponent 1 + 1/(2 kappa)")
for kappa in (1.0, 2.0, 3.0, 5.0):
    scenario = build("flat-paraboloid", flatness=kappa, resolution=192)
    curve = solve_split_curve(scenario.model, n_nodes=129)
    expo = holder_probe(scenario.model, curve=curve)
    p_map = 1 + 1 / (2 * kappa)
    probes = scenario.model.domain.sample_interior(100, seed=2, margin=0.02)
    err = np.max(np.abs(optimal_map(scenario.model, curve, probes)
                        - probes[:, 0] ** p_map))
    print(f"  kappa={kappa:.1f}: k-exponent {expo:.4f} "
          f"(ref {2 * kappa / (2 * kappa + 1):.4f}), map exponent {p_map:.3f}, "
          f"map error {err:.1e}")
print("\nas kappa grows the map exponent tends to 1: no uniform C^1 bound "
      "at the boundary without convexity.")

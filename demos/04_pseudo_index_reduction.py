"""Index-form detection and reduction to a scalar rearrangement.

When the surplus decomposes as alpha(x) + sigma(I(x), y) the whole
multi-dimensional problem collapses: push the source density through the
canonical index I = s_y(., y_mid), then match quantiles with the target
(increasingly: sigma's mixed derivative at y_mid is |grad_x s_y|^2 > 0).
Detection tests gradient alignment: the level sets of s_y(., y) stay put
exactly when grad_x s_y(x, y) stays parallel to grad_x s_y(x, y_mid), so
an interior probe where the sine of their angle is not at roundoff level
witnesses that the level sets move.
"""

import numpy as np

from nestor import (build, detect_index_form, optimal_map,
                    reduce_and_solve_1d, solve_split_curve, verify_1d_ode)

print("detection")
print("-" * 72)
segment = build("paraboloid-segment", m=2)
det = detect_index_form(segment.model, seed=0)
print(f"bilinear surplus, segment target: is_index={det['is_index']} "
      f"(confidence {det['confidence']:.3f})")

arc = build("ball-circle", r=0.05)
det_arc = detect_index_form(arc.model, seed=0)
print(f"bilinear surplus, circular-arc target: is_index={det_arc['is_index']} "
      f"(confidence {det_arc['confidence']:.3f})")
x, y1, sine = det_arc["witnesses"][0]
print(f"  witness at x=({x[0]:+.3f}, {x[1]:+.3f}), y={y1:+.2f}: "
      f"grad_x s_y turns by sin {sine:.3f} from y_mid")

print("\nreduction of the segment problem")
print("-" * 72)
rearr = reduce_and_solve_1d(segment.model)
ts = np.linspace(0.05, 0.95, 10)
print("index t, scalar map F1(t), closed form t^(3/2):")
for t in ts[::3]:
    print(f"  t={t:.2f}  F1={float(rearr.map_1d(t)):.6f}  "
          f"ref={t ** 1.5:.6f}")

curve = solve_split_curve(segment.model)
probes = segment.model.domain.sample_interior(200, seed=5, margin=0.02)
full = optimal_map(segment.model, curve, probes)
reduced = np.asarray(rearr.map_full(probes))
print(f"\nsup |reduced - full solve| over 200 probes: "
      f"{np.max(np.abs(full - reduced)):.2e}")
print(f"scalar mass-balance residual max: {verify_1d_ode(rearr):.2e} "
      f"(f1 = F1' * g(F1) should hold)")

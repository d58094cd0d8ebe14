"""nestor: multi- to one-dimensional optimal transport.

Given a surplus s(x, y) on X x Y with X in R^m and Y an interval, nestor
constructs the level curve k(y) splitting the source mass proportionately
to the target, the optimal map F built one level set at a time, and the
dual potentials (u, v); diagnoses whether the construction is valid
(nestedness); and cross-checks everything against analytic fixtures and
an exact discrete LP oracle.
"""

from .errors import (BracketFailure, ConfigError, Degenerate, EmptyBand,
                     EmptyDomain, InsufficientRange, NestorError,
                     NoBoundaryOracle, NonMonotoneSign, OutOfRange,
                     PivotBudgetExceeded, UnknownScenario, ZeroSpeed)
from .geometry import (Domain, Quadrature, TargetInterval, annulus_domain,
                       box_domain, interval_domain, paraboloid_domain,
                       pie_slice_domain)
from .levelsets import (GradH, LevelSet, SurfaceIntegralResult, grad_h,
                        is_tangential, level_set, sublevel_mass,
                        surface_integral)
from .model import (DensityPair, Model, NondegeneracyCertificate,
                    certify_nondegeneracy, target_cdf, target_quantile)
from .nestedness import (NestednessReport, check_sublevel_monotonicity,
                         dynamic_criterion, nestedness_report, speed_limit,
                         transversality_diagnostic, unique_splitting_check)
from .oracle import (DiscreteInstance, DiscretePlan,
                     cyclical_monotonicity_audit, compare_with_map,
                     sample_instance, solve_transport)
from .pipeline import Run, solve
from .pseudoindex import (Rearrangement1D, detect_index_form,
                          reduce_and_solve_1d, verify_1d_ode)
from .scenarios import Scenario, build, holder_probe, list_scenarios
from .solver import (SplitCurve, balance_residual, interpolation_error,
                     map_and_payoff, map_gradient, optimal_map,
                     pushforward_distance, solve_split_curve, source_payoff)
from .surplus import SurplusBundle, arc_surplus, bilinear_surplus, \
    polynomial_surplus

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""stochheat: a numerical laboratory for stochastic heat equations.

Forward SPDE solvers with multiplicative Brownian noise, exact Bernoulli-tree
expectations, parabolic frequency functions, quantitative unique-continuation
constants, measurable-time observability machinery, and HUM-style control
synthesis for the backward equation.
"""

from .errors import (ConfigurationError, DomainError, GeometryError,
                     NumericalError, ResourceError, ShapeError, StochHeatError)
from .geometry import (Ball, CutoffFunction, HeatKernelWeight, SpatialGrid,
                       ball_chain, build_cutoff, build_grid)
from .noise import (BernoulliTree, PathEnsemble, TimeMesh, build_tree,
                    path_increments, sample_ensemble)
from .forward import (CoefficientField, Ensemble, SecondMomentEnsemble,
                      energy_trace, exp_transform_oracle, solve_forward,
                      solve_forward_moments)
from .frequency import (FrequencyTrace, LocalizedFields, compute_hdn,
                        frequency_bound_check, hprime_identity_residual,
                        localized_fields)
from .ucp import (UcpConstants, amplitude_profile, compute_constants,
                  propagate_vanishing, quantitative_ucp_check, select_lambda,
                  three_ball_check)
from .observability import (DensitySequence, MeasurableTimeSet,
                            ObservabilityConstants, density_sequence,
                            energy_estimate_check, epsilon_sequence,
                            telescoping_check)
from .control import (BackwardPair, ControlField, dual_control,
                      duality_check, gramian_apply, gramian_matrix,
                      solve_backward_tree, solve_dual_forward,
                      synthesize_approx_control, synthesize_null_control)

__version__ = "0.1.0"

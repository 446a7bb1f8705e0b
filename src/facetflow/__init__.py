"""Numerical toolkit for very singular anisotropic diffusion on the torus.

The package discretizes graph evolutions u_t + F(grad u, div dW(grad u)) = 0
with a positively one-homogeneous density W: periodic grids and calculus
(`grid`), anisotropy models and their mollifications (`anisotropy`),
Legendre transforms and barrier constructions (`conjugate`), facet pairs
and support-function certificates (`facets`), the singular resolvent and
difference-quotient curvature (`resolvent`), explicit evolution schemes
(`evolution`), and a scenario runner (`cli`).
"""

from .grid import (Grid, GridFunction, GridVectorField, GridMismatchError,
                   gradient_fd, divergence_fd, gradient_centered,
                   erode, dilate, mollify, lipschitz_constant,
                   torus_distance)
from .anisotropy import (AnisotropyModel, EuclideanAnisotropy,
                         EllipticAnisotropy, PowerFourAnisotropy,
                         MollifiedAnisotropy, SingularGradientError,
                         wulff_membership, subdifferential_contains,
                         k_operator, make_anisotropy)
from .conjugate import (SampledConvexFunction, legendre_transform,
                        BarrierFamily, build_barrier, beta_Aq,
                        choose_parameters, BarrierConstructionError,
                        ParameterError)
from .facets import (PairOfSets, PairDisjointError, SeparationError,
                     rho_neighborhood, signed_distance, mask_distance,
                     pair_of, pair_leq, pair_reverse, pair_nbhd,
                     smooth_pair_between, SupportFunctionCertificate,
                     support_from_smooth_pair, admissibility_check,
                     ordered_support_function)
from .resolvent import (ResolventConfig, ResolventReport, ConvergenceError,
                        total_variation_energy, resolve_singular,
                        resolvent_bruteforce, curvature_dq, essinf_ball,
                        esssup_ball, facet_interior, monotonicity_check)
from .evolution import (SpeedLaw, StabilityError, tv_flow, EvolutionConfig,
                        EvolutionTrace, evolve, stable_dt, step_explicit,
                        sample_state, comparison_harness, lipschitz_monitor,
                        m_refinement_study, conventional_test_residual,
                        faceted_test_residual)

__version__ = "0.1.0"

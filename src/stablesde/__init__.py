"""Numerical laboratory for stability of alpha-stable-driven SDEs."""

from .coefficients import (CoefficientPair, PerturbationFamily, make_family,
                           make_pair)
from .errors import (AssumptionViolation, ConstructionError, DomainError,
                     NumericError)
from .measures import (DensityModel, distance_B, distance_B_sup, distance_S,
                       distance_S_sup, frozen_density)
from .mollifier import (Mollifier, SmoothedDistance, build_mollifier,
                        certify_derivative_bound, certify_komatsu,
                        certify_mollifier_shape, certify_sandwich,
                        derivative_bound_rhs, komatsu_identity_residual)
from .quadrature import QuadratureSpec
from .rates import (ConvergenceReport, RateBoundSpec, SweepResult,
                    convergence_experiment, run_sweep, tail_bound,
                    theoretical_bound)
from .report import CheckRow, Report, validate_report
from .rng import RngStream
from .simulate import (LegEnsemble, MomentCurve, SimConfig, TailEstimate,
                       distance_moment_curve, simulate_coupled,
                       tail_probability, uniform_lp_check, wilson_interval)
from .stable import (StableLaw, density_envelope, density_grid,
                     density_total_mass, envelope_comparability_check,
                     generator_apply, make_stable_law, sample_increments,
                     stable_density, stable_tail_mass)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Generalized low-rank matrix sensing: estimation and inference on the
rank-k factor space modulo orthogonal rotations."""

__version__ = "0.1.0"

from .errors import (CapabilityError, ConfigurationError, DegenerateFactorError,
                     DegenerateHessianError, DivergenceError, HarnessAbort,
                     InitializationError, OutOfInjectivityError, QsenseError)
from .model import (DataGeneratingProcess, Dataset, GaussianNLL, Logistic,
                    LossModel, ProblemConstants, empirical_loss, evaluate_loss,
                    euclidean_gradient, hessian_bilinear, hessian_operator,
                    population_curvature, predict, simulate, third_derivative)
from .geometry import (AlignmentResult, HorizontalBasis, align,
                       horizontal_basis, horizontal_project, horizontal_dim,
                       injectivity_radius, log_map, quotient_distance,
                       rotate_basis, skew_basis, vertical_project)
from .estimator import (FitConfig, FitResult, MinimizerCertificate, fit,
                        minimizer_certificate, spectral_init)
from .inference import (ConfidenceReport, CovarianceEstimate, InvarianceAudit,
                        RestrictedRepresentation, asymptotic_covariance,
                        invariance_audit, represent, restricted_hessian,
                        restricted_population_hessian, restricted_representation,
                        restricted_score, standardize, wald_intervals)
from .diagnostics import (AssumptionReport, EmpiricalAggregates,
                          TaylorResidualReport, TheoryCertificate,
                          assumption_report, hessian_lipschitz_probe,
                          noise_aggregates, restricted_eigenvalue_estimate,
                          taylor_residual_check, theory_constants)
from .harness import (ExperimentConfig, NormalityReport, RateReport,
                      normality_experiment, rate_experiment, run_replications)

"""Generalized low-rank matrix sensing: estimation and inference on the
rank-k factor space modulo orthogonal rotations."""

__version__ = "0.1.0"

from .errors import (ConfigurationError, DegenerateFactorError,
                     DegenerateHessianError, DivergenceError, HarnessAbort,
                     InitializationError, OutOfInjectivityError, QsenseError)
from .model import (DataGeneratingProcess, Dataset, GaussianNLL, Logistic,
                    LossModel, ProblemConstants, empirical_loss,
                    euclidean_gradient, hessian_bilinear, hessian_operator,
                    population_curvature, simulate, third_derivative)
from .geometry import (AlignmentResult, HorizontalBasis, align,
                       horizontal_basis, horizontal_project, horizontal_dim,
                       injectivity_radius, rotate_basis, skew_basis,
                       vertical_project)
from .estimator import FitConfig, FitResult, fit, spectral_init
from .inference import (ConfidenceReport, CovarianceEstimate, InvarianceAudit,
                        RestrictedRepresentation, asymptotic_covariance,
                        invariance_audit, represent, restricted_hessian,
                        restricted_population_hessian, restricted_representation,
                        wald_intervals)
from .diagnostics import (AssumptionReport, TaylorResidualReport,
                          TheoryCertificate, assumption_report,
                          taylor_residual_check, theory_constants)
from .harness import (ExperimentConfig, NormalityReport, RateReport,
                      normality_experiment, rate_experiment, run_replications)

"""Certificates and runtime checks backing the statistical guarantees.

Everything here is simulation-side: it assumes access to the ground truth
(and often the data generating process) and sets a concrete instance
against the guarantees: the closed-form constants of the convergence
theorem, the quadratic remainder of the local expansion, and the standing
moment assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, inference
from .jsonable import JsonFields
from .model import predictions, simulate

# Largest relative Frobenius gap between the restricted score covariance and
# curvature that the Bartlett check accepts.
BARTLETT_TOL = 0.1


# ---------------------------------------------------------------------------
# Theory certificate
# ---------------------------------------------------------------------------

@dataclass
class TheoryCertificate(JsonFields):
    """Closed-form constants of the convergence guarantee, evaluated verbatim.

    ``lambda_min_population`` is mu0 lambda0 sigma_min^2 (the proof-side
    convention); ``lambda_min_population_isotropic`` is 2 mu0 lambda0
    sigma_min^2, the value realized by the closed-form isotropic-design
    curvature.  Both are reported because the curvature floor enters the
    two statements with different factor conventions.
    """

    constants: object
    delta: float
    K: float
    n_required: float
    radius_required: float
    lambda_min_population: float
    lambda_min_population_isotropic: float

    def rate_bound(self, n):
        c = self.constants
        return math.sqrt(512.0 * c.d * c.k**2 * c.sigma_max**2 * c.sigma_eps**2
                         * c.X_max**2 * math.log(8.0 * c.d * c.k / self.delta)
                         / (n * c.mu0**2 * c.lambda0**2 * c.sigma_min**4))

    def lambda_min_lower_bound(self, n):
        c = self.constants
        dev = math.sqrt(160.0 * c.d**2 * c.k**6 * c.X_max**4 * c.sigma_max**4
                        * c.sigma_eps**2
                        * math.log(6.0 * c.d**2 * c.k**2 / self.delta) / n)
        return self.lambda_min_population - dev


def theory_constants(constants, delta):
    """Evaluate the guarantee constants exactly as stated.

    K is the curvature-Lipschitz certificate; n_required and radius_required
    are the sample-size and locality conditions under which the distance
    bound ``rate_bound(n)`` holds with probability 1 - delta.
    """
    constants.validate()
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    c = constants
    lip = c.K_ell + c.mu_max + 15.0 * c.sigma_eps
    K = 160.0 * c.X_max**4 * c.sigma_max**5 * c.d**4 * c.k**2.5 * lip
    n_required = (640.0 * c.d**2 * c.k**6 * c.X_max**4 * c.sigma_max**4
                  * c.sigma_eps**2 * math.log(12.0 * c.d**2 * c.k**2 / delta)
                  / (c.mu0 * c.lambda0 * c.sigma_min**2))
    radius_required = min(
        c.sigma_min,
        c.mu0 * c.lambda0 * c.sigma_min**3
        / (320.0 * c.X_max**4 * c.sigma_max**5 * c.d**4 * c.k**2.5 * lip))
    lam_pop = c.mu0 * c.lambda0 * c.sigma_min**2
    return TheoryCertificate(constants=constants, delta=delta, K=K,
                             n_required=n_required,
                             radius_required=radius_required,
                             lambda_min_population=lam_pop,
                             lambda_min_population_isotropic=2.0 * lam_pop)


# ---------------------------------------------------------------------------
# Quadratic remainder of the local expansion
# ---------------------------------------------------------------------------

@dataclass
class TaylorResidualReport(JsonFields):
    distance: float
    lhs: float
    remainder: float
    ratio: float | None
    certificate_rhs: float | None
    grad_at_estimate_norm: float


def taylor_residual_check(rep, sbar, certificate_k=None):
    """First-order expansion residual of the represented gradient.

    Reads the score and aligned chord of ``rep``, a
    ``restricted_representation`` whose basis is anchored at the truth, and
    applies its curvature to the chord's coordinates (``curvature_times``;
    the full curvature is never built).  ``sbar`` is Sbar at the estimate
    (``FitResult.sbar`` for a fitted one, or
    ``rep.route.derivative_pass(theta0)[1]``); Sbar depends on the factor
    only through theta theta^T, so ``sbar`` times the aligned estimate is
    the gradient there, with no pass over the data.
    ``lhs`` is the norm of score + curvature x coordinate-error at the
    truth; ``remainder`` additionally subtracts the represented gradient at
    the aligned estimate, so it measures the genuine quadratic remainder
    even when the estimate is not a minimizer (at a minimizer the two
    coincide, since the gradient vanishes there).  ``ratio`` is remainder /
    distance^2 and should stay below certificate K / 2.  Raises
    OutOfInjectivityError when the distance is not below the injectivity
    radius, where the chord is no chart of the quotient.
    """
    theta_star, distance = rep.basis.anchor, rep.distance
    geometry.check_within_radius(theta_star, distance)
    first_order = rep.score + rep.curvature_times(
        inference.represent(rep.chord, rep.basis))
    grad_at = inference.represent(sbar @ (theta_star + rep.chord), rep.basis)
    lhs = float(np.linalg.norm(first_order))
    remainder = float(np.linalg.norm(grad_at - first_order))
    # below float resolution the squared distance is pure rounding noise
    ratio = None if distance < 1e-12 else remainder / distance**2
    rhs = None if certificate_k is None else 0.5 * certificate_k * distance**2
    return TaylorResidualReport(distance=distance, lhs=lhs,
                                remainder=remainder, ratio=ratio,
                                certificate_rhs=rhs,
                                grad_at_estimate_norm=float(np.linalg.norm(grad_at)))


# ---------------------------------------------------------------------------
# Standing assumption checks
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport(JsonFields):
    score_mean: float
    score_mean_se: float
    score_mean_pass: bool
    min_conditional_curvature: float
    curvature_pass: bool
    bartlett_gap: float
    bartlett_ratio: float
    bartlett_pass: bool

    def all_pass(self):
        return self.score_mean_pass and self.curvature_pass and self.bartlett_pass

    def to_json_dict(self):
        return {**super().to_json_dict(), "all_pass": self.all_pass()}


def assumption_report(dgp, theta_star, loss, n_mc):
    """Monte Carlo check of the three standing moment assumptions.

    On ``n_mc`` >= 2 draws, checks that
    1. the score has zero conditional mean at the truth (checked through
       the unconditional mean against 4 standard errors),
    2. the conditional curvature stays positive across design draws,
    3. the covariance of the restricted per-sample score matches the
       restricted expected curvature (relative Frobenius gap below
       ``BARTLETT_TOL``); ``bartlett_ratio`` is the trace ratio, which
       localizes a pure scale mismatch.
    """
    if n_mc < 2:
        # the score's standard error divides by n_mc - 1
        raise ValueError("Monte Carlo budget n_mc must be >= 2")
    theta_star = np.asarray(theta_star, dtype=float)
    basis = geometry.horizontal_basis(theta_star)
    data = simulate(dgp, n_mc)
    z = predictions(data, theta_star)
    scores_scalar = loss.d1(z, data.y)
    score_mean = float(np.mean(scores_scalar))
    score_se = float(np.std(scores_scalar, ddof=1) / np.sqrt(n_mc))
    score_pass = abs(score_mean) <= 4.0 * max(score_se, 1e-300)

    cond_curv = loss.d2(z, data.y)
    min_curv = float(np.min(cond_curv))
    curvature_pass = min_curv > 0.0

    G = inference.per_sample_scores(data, theta_star, basis, loss)
    centered = G - G.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / n_mc
    H = inference.restricted_hessian(data, theta_star, basis, loss)
    gap = float(np.linalg.norm(cov - H) / np.linalg.norm(H))
    ratio = float(np.trace(cov) / np.trace(H))
    return AssumptionReport(
        score_mean=score_mean, score_mean_se=score_se,
        score_mean_pass=score_pass,
        min_conditional_curvature=min_curv, curvature_pass=curvature_pass,
        bartlett_gap=gap, bartlett_ratio=ratio,
        bartlett_pass=gap <= BARTLETT_TOL)

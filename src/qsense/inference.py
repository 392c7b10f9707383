"""Horizontal-basis representations, asymptotic covariance, and Wald intervals.

All inference happens in the coordinates of an orthonormal horizontal basis
at the (aligned) truth: estimates and scores become vectors, curvature
becomes a symmetric matrix whose inverse is the asymptotic covariance of
sqrt(n) times the coordinate error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import geometry
from .errors import DegenerateHessianError
from .jsonable import JsonFields
from .model import (Dataset, pair_adjoint, pair_coordinates,
                    population_curvature, predictions)

# Absolute eigenvalue floor below which restricted curvature is treated as
# singular (the vertical-direction pathology).
EIG_FLOOR = 1e-10


def represent(M, basis):
    """Coordinates <M, e_i> of a matrix in the horizontal basis."""
    M = np.asarray(M, dtype=float)
    if M.shape != basis.anchor.shape:
        raise ValueError("matrix shape does not match the basis anchor")
    return np.einsum("mik,ik->m", basis.elements, M)


def reconstruct(coords, basis):
    """Matrix sum_i coords_i e_i (the basis-projection of a represented matrix)."""
    return np.einsum("m,mik->ik", np.asarray(coords, dtype=float),
                     basis.elements)


def _derivative_pass(dataset, z, loss):
    """(d1, d2, Sbar) at the predictions z, with Sbar = pair_adjoint(X, d1) / n.

    Sbar theta is the Euclidean gradient at the factor theta behind z, and
    ``_restricted_terms`` builds the restricted gradient and curvature from
    the same three, so one pass serves both.
    """
    d1, d2 = loss.d1_d2(z, dataset.y)
    return d1, d2, pair_adjoint(dataset.X, d1) / dataset.n


def _restricted_terms(dataset, theta, E, loss, terms=None):
    """Restricted gradient and curvature at theta along a (m, d, k) stack E.

    With A = pair_coordinates(X, theta, E) and ``terms`` = (d1, d2, Sbar)
    from ``_derivative_pass`` at theta (computed when not supplied), returns
    g = A^T d1 / n and H = A^T diag(d2) A / n + <E, Sbar E>.  In an
    orthonormal horizontal basis g represents the gradient and H the
    curvature.
    """
    theta = np.asarray(theta, dtype=float)
    if terms is None:
        terms = _derivative_pass(dataset, predictions(dataset, theta), loss)
    d1, d2, Sbar = terms
    n = dataset.n
    A = pair_coordinates(dataset.X, theta, E)
    m = E.shape[0]
    H = ((A * d2[:, None]).T @ A / n
         + E.reshape(m, -1) @ (Sbar @ E).reshape(m, -1).T)
    return A.T @ d1 / n, 0.5 * (H + H.T)


def restricted_score(dataset, theta_star, basis, loss):
    """Representation of the empirical-loss gradient at theta_star."""
    return _restricted_terms(dataset, theta_star, basis.elements, loss)[0]


def restricted_hessian(dataset, theta_star, basis, loss):
    """Empirical curvature matrix H_ij = <e_i, hess e_j> in the basis."""
    return _restricted_terms(dataset, theta_star, basis.elements, loss)[1]


def per_sample_scores(dataset, theta_star, basis, loss):
    """(n, d') matrix whose rows represent each sample's loss gradient."""
    theta_star = np.asarray(theta_star, dtype=float)
    z = predictions(dataset, theta_star)
    A = pair_coordinates(dataset.X, theta_star, basis.elements)
    return A * loss.d1(z, dataset.y)[:, None]


def restricted_population_hessian(dgp, theta_star, basis, loss, n_mc=None):
    """H*: ``population_curvature`` on the basis elements.

    Exact wherever ``has_closed_form`` holds, otherwise (or when n_mc is
    passed) a Monte Carlo average over n_mc design draws.  Its inverse and
    root come from ``asymptotic_covariance``.
    """
    return population_curvature(dgp, theta_star, basis.elements, loss, n_mc)


@dataclass
class RestrictedRepresentation(JsonFields):
    """Everything inference needs, in one basis: coordinates and curvature.

    ``phi0`` represents the estimate after aligning it onto the basis anchor
    (equivalently: the anchor's coordinates plus the represented aligned
    chord), so it does not depend on which orbit representative the
    optimizer happened to return.
    """

    basis: object = field(repr=False)
    phi_star: np.ndarray
    phi0: np.ndarray
    score: np.ndarray
    hessian: np.ndarray

    def to_json_dict(self):
        # the basis is identified by its tag and a digest of the anchor's
        # little-endian float64 bytes, stable across processes and machines
        anchor = np.ascontiguousarray(self.basis.anchor, dtype="<f8")
        digest = hashlib.sha256(repr(anchor.shape).encode() + anchor.tobytes())
        return {"basis_tag": self.basis.tag,
                "basis_anchor_hash": digest.hexdigest()[:16],
                **super().to_json_dict()}


def restricted_representation(dataset, theta_star, theta0, basis, loss):
    """Bundle phi*, phi0, the restricted score and curvature at the truth."""
    theta_star = np.asarray(theta_star, dtype=float)
    chord = geometry.log_map(theta_star, theta0)
    phi_star = represent(theta_star, basis)
    score, hessian = _restricted_terms(dataset, theta_star, basis.elements,
                                       loss)
    return RestrictedRepresentation(
        basis=basis,
        phi_star=phi_star,
        phi0=phi_star + represent(chord, basis),
        score=score,
        hessian=hessian)


@dataclass
class CovarianceEstimate:
    inverse_hessian: np.ndarray
    root: np.ndarray
    condition_number: float
    residual: float
    sandwich: np.ndarray | None = None


def asymptotic_covariance(hstar, scores=None):
    """Inverse and symmetric square root of H from one eigendecomposition.

    The inverse is the asymptotic covariance of sqrt(n) times the
    coordinate error, and the root whitens that error.  Raises
    DegenerateHessianError when the smallest eigenvalue is at or below the
    floor, which is what happens if a loss-invariant (vertical) direction
    leaks into the basis.  ``scores`` is an optional (n, d') matrix of
    per-sample score representations for the sandwich Hinv Cov(score) Hinv
    (useful under misspecification).
    """
    hstar = np.asarray(hstar, dtype=float)
    lam, V = np.linalg.eigh(0.5 * (hstar + hstar.T))
    if lam[0] <= EIG_FLOOR:
        raise DegenerateHessianError(
            f"restricted curvature has minimum eigenvalue {lam[0]:.3e}; "
            "a rotation-invariant direction is present in the basis")
    inv = (V / lam[None, :]) @ V.T
    inv = 0.5 * (inv + inv.T)
    residual = float(np.linalg.norm(hstar @ inv - np.eye(len(lam))))
    sandwich = None
    if scores is not None:
        scores = np.asarray(scores, dtype=float)
        centered = scores - scores.mean(axis=0, keepdims=True)
        cov = centered.T @ centered / scores.shape[0]
        sandwich = inv @ cov @ inv
    return CovarianceEstimate(inverse_hessian=inv,
                              root=(V * np.sqrt(lam)[None, :]) @ V.T,
                              condition_number=float(lam[-1] / lam[0]),
                              residual=residual,
                              sandwich=sandwich)


def standardize(phi0, phi_star, hstar, n):
    """Whitened coordinate error sqrt(n) H^(1/2) (phi0 - phi_star)."""
    root = asymptotic_covariance(hstar).root
    diff = np.asarray(phi0, dtype=float) - np.asarray(phi_star, dtype=float)
    return np.sqrt(n) * (root @ diff)


@dataclass
class ConfidenceReport(JsonFields):
    level: float
    z_crit: float
    lower: np.ndarray
    upper: np.ndarray
    half_width: np.ndarray
    standardized: np.ndarray | None = None
    covers: np.ndarray | None = None

    def to_json_dict(self):
        # standardized and covers exist only when the truth was supplied
        return {k: v for k, v in super().to_json_dict().items()
                if v is not None}


def wald_intervals(phi0, hstar, n, alpha, phi_star=None):
    """Per-coordinate (1 - alpha) intervals phi0_i +/- z sqrt(Hinv_ii / n).

    With ``phi_star`` supplied, also records the whitened error vector and
    the per-coordinate coverage indicators.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    phi0 = np.asarray(phi0, dtype=float)
    cov = asymptotic_covariance(hstar)
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    half = z_crit * np.sqrt(np.diag(cov.inverse_hessian) / n)
    report = ConfidenceReport(level=1.0 - alpha, z_crit=z_crit,
                              lower=phi0 - half, upper=phi0 + half,
                              half_width=half)
    if phi_star is not None:
        phi_star = np.asarray(phi_star, dtype=float)
        report.standardized = standardize(phi0, phi_star, hstar, n)
        report.covers = (report.lower <= phi_star) & (phi_star <= report.upper)
    return report


# ---------------------------------------------------------------------------
# Rotation invariance audit
# ---------------------------------------------------------------------------

def _single_sample_objects(data, theta, basis, loss):
    """Score, curvature and population curvature of a 1-sample dataset."""
    a = pair_coordinates(data.X, theta, basis.elements)[0]
    mu1 = loss.d2(predictions(data, theta), data.y)[0]
    # the conditional mean kills the score term of the population curvature
    return (*_restricted_terms(data, theta, basis.elements, loss),
            mu1 * np.outer(a, a))


@dataclass
class InvarianceAudit(JsonFields):
    discrepancies: dict
    max_discrepancy: float


def invariance_audit(theta_star, U, sample, loss, basis=None):
    """Check that representations do not depend on the orbit representative.

    Computes phi/score/curvature objects in a basis at theta_star and again
    in the pushed-forward basis at theta_star U (with the estimate point, a
    deterministic offset of theta_star, rotated the same way) and reports
    the largest absolute discrepancy.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    U = np.asarray(U, dtype=float)
    X, y = sample
    data = Dataset(X=np.asarray(X, dtype=float)[None], y=[y])
    probe = np.ones_like(theta_star)
    probe[0, 0] += 1.0
    probe /= np.linalg.norm(probe)
    theta0 = theta_star + 0.1 * np.linalg.norm(theta_star) * probe
    if basis is None:
        basis = geometry.horizontal_basis(theta_star)
    rotated = geometry.rotate_basis(basis, U)

    phi_star = represent(theta_star, basis)
    phi0 = represent(theta0, basis)
    score, hess, hess_pop = _single_sample_objects(data, theta_star, basis,
                                                   loss)

    phi_star_r = represent(theta_star @ U, rotated)
    phi0_r = represent(theta0 @ U, rotated)
    score_r, hess_r, hess_pop_r = _single_sample_objects(
        data, theta_star @ U, rotated, loss)

    disc = {
        "phi_star": float(np.max(np.abs(phi_star - phi_star_r))),
        "phi0": float(np.max(np.abs(phi0 - phi0_r))),
        "score": float(np.max(np.abs(score - score_r))),
        "hessian": float(np.max(np.abs(hess - hess_r))),
        "population_hessian": float(np.max(np.abs(hess_pop - hess_pop_r))),
    }
    return InvarianceAudit(discrepancies=disc,
                           max_discrepancy=max(disc.values()))

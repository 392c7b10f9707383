"""Horizontal-basis representations, asymptotic covariance, and Wald intervals.

All inference happens in the coordinates of an orthonormal horizontal basis
at the (aligned) truth: estimates and scores become vectors, curvature
becomes a symmetric matrix whose inverse is the asymptotic covariance of
sqrt(n) times the coordinate error.

The score, the curvature-vector product and the curvature matrix at the
truth read the data through ``model.StackRoute``, as the fit does: the
p + 1 square-root rows of the dataset for the Gaussian loss
(``Dataset.compressed``), the design U otherwise.  ``per_sample_scores``
stays on U, since it needs every sample.  H*
(``restricted_population_hessian``) is exact and reads no data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from . import geometry
from .errors import DegenerateHessianError
from .jsonable import JsonFields
from .model import (Dataset, StackRoute, pair_coordinates,
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


def _restricted_gradient(terms, theta, E):
    """g_j = <Sbar theta, E_j> from a derivative pass ``terms`` at theta.

    This equals A^T ell' / n with A = pair_coordinates(U, theta, E), at
    the cost of one small matrix product instead of a pass over the design.
    """
    return np.einsum("mik,ik->m", E, terms[1] @ theta)


def _restricted_terms(route, theta, E, terms=None):
    """Restricted gradient and curvature at theta along a (m, d, k) stack E.

    With ``terms`` = (d2, Sbar) = ``route.derivative_pass(theta)`` (computed
    when not supplied), returns g = ``_restricted_gradient`` and
    H = ``route.curvature(theta, E, d2)`` + <E, Sbar E>, with the design
    part A^T diag(d2) A / n for A = pair_coordinates(U, theta, E) on the
    route's rows.  In an orthonormal horizontal basis g represents the
    gradient and H the curvature.  H costs a pass over the rows with m
    columns (in L2-sized row blocks), one product H v two single passes
    (``RestrictedRepresentation.curvature_times``).
    """
    theta = np.asarray(theta, dtype=float)
    if terms is None:
        terms = route.derivative_pass(theta)
    d2, Sbar = terms
    m = E.shape[0]
    H = (route.curvature(theta, E, d2)
         + E.reshape(m, -1) @ (Sbar @ E).reshape(m, -1).T)
    return _restricted_gradient(terms, theta, E), 0.5 * (H + H.T)


def restricted_hessian(dataset, theta_star, basis, loss):
    """Empirical curvature matrix H_ij = <e_i, hess e_j> in the basis."""
    return _restricted_terms(StackRoute(dataset, loss), theta_star,
                             basis.elements)[1]


def per_sample_scores(dataset, theta_star, basis, loss):
    """(n, d') matrix whose rows represent each sample's loss gradient."""
    theta_star = np.asarray(theta_star, dtype=float)
    z = predictions(dataset, theta_star)
    A = pair_coordinates(dataset.U, theta_star, basis.elements)
    return A * loss.d1(z, dataset.y)[:, None]


def restricted_population_hessian(dgp, theta_star, basis, loss):
    """H*: ``population_curvature`` on the basis elements, exact for every
    design and loss the package draws.  Its inverse and root come from
    ``asymptotic_covariance``, which rejects the non-finite H of a truth
    too large to square.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return population_curvature(dgp, theta_star, basis.elements, loss)


@dataclass
class RestrictedRepresentation(JsonFields):
    """Everything inference needs, in one basis: coordinates and curvature.

    ``phi0`` represents the estimate after aligning it onto the basis anchor
    (equivalently: the anchor's coordinates plus the represented aligned
    chord), so it does not depend on which orbit representative the
    optimizer happened to return.  ``chord`` is that aligned chord and
    ``distance`` its norm, the quotient distance.  ``score`` is the
    restricted gradient at the truth.  The restricted curvature there is
    computed on demand: ``curvature_times(v)`` applies it to one vector
    (two passes over the route's rows), and ``hessian``, the full matrix,
    is built when first read.
    """

    basis: object = field(repr=False)
    phi_star: np.ndarray
    phi0: np.ndarray
    score: np.ndarray
    chord: np.ndarray = field(repr=False)
    distance: float = field(repr=False)
    # the data route and its derivative pass at the truth, for the curvature
    route: object = field(repr=False)
    terms: tuple = field(repr=False)

    def curvature_times(self, v):
        """H v: the curvature operator on sum_j v_j e_j, represented."""
        E = self.basis.elements
        V = (v @ E.reshape(len(E), -1)).reshape(E.shape[1:])
        return represent(self.route.curvature_apply(self.basis.anchor, V,
                                                    self.terms), self.basis)

    @cached_property
    def hessian(self):
        return _restricted_terms(self.route, self.basis.anchor,
                                 self.basis.elements, self.terms)[1]

    def to_json_dict(self):
        # the basis is identified by its tag and a digest of the anchor's
        # little-endian float64 bytes, stable across processes and machines
        anchor = np.ascontiguousarray(self.basis.anchor, dtype="<f8")
        digest = hashlib.sha256(repr(anchor.shape).encode() + anchor.tobytes())
        return {"basis_tag": self.basis.tag,
                "basis_anchor_hash": digest.hexdigest()[:16],
                **super().to_json_dict(),
                "hessian": self.hessian.tolist()}


def restricted_representation(dataset, theta_star, theta0, basis, loss):
    """Bundle phi*, phi0 and the restricted score at the truth.

    ``basis`` must be anchored at theta_star.  theta0 is aligned onto
    theta_star once; the representation is defined at any distance, but
    the aligned chord is a chart of the quotient only below the injectivity
    radius, which ``diagnostics.taylor_residual_check`` enforces.  One
    derivative pass at the truth, through ``StackRoute(dataset, loss)``,
    gives the score and, on demand, the curvature (see
    ``RestrictedRepresentation``).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if not np.array_equal(basis.anchor, theta_star):
        raise ValueError("basis must be anchored at theta_star")
    al = geometry.align(theta0, theta_star)
    chord = al.aligned - theta_star
    phi_star = represent(theta_star, basis)
    route = StackRoute(dataset, loss)
    terms = route.derivative_pass(theta_star)
    return RestrictedRepresentation(
        basis=basis,
        phi_star=phi_star,
        phi0=phi_star + represent(chord, basis),
        score=_restricted_gradient(terms, theta_star, basis.elements),
        chord=chord,
        distance=al.distance,
        route=route,
        terms=terms)


@dataclass
class CovarianceEstimate:
    inverse_hessian: np.ndarray
    root: np.ndarray
    condition_number: float


def asymptotic_covariance(hstar):
    """Inverse and symmetric square root of H from one eigendecomposition.

    The inverse is the asymptotic covariance of sqrt(n) times the
    coordinate error, and the root whitens that error.  Raises
    DegenerateHessianError when the smallest eigenvalue is at or below the
    floor, which is what happens if a loss-invariant (vertical) direction
    leaks into the basis, and when H is not finite.
    """
    hstar = np.asarray(hstar, dtype=float)
    if not np.all(np.isfinite(hstar)):
        raise DegenerateHessianError(
            "restricted curvature is not finite; the truth or the loss scale "
            "is out of floating-point range")
    lam, V = np.linalg.eigh(0.5 * (hstar + hstar.T))
    if lam[0] <= EIG_FLOOR:
        raise DegenerateHessianError(
            f"restricted curvature has minimum eigenvalue {lam[0]:.3e}; "
            "a rotation-invariant direction is present in the basis")
    inv = (V / lam[None, :]) @ V.T
    return CovarianceEstimate(inverse_hessian=0.5 * (inv + inv.T),
                              root=(V * np.sqrt(lam)[None, :]) @ V.T,
                              condition_number=float(lam[-1] / lam[0]))


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


def wald_intervals(phi0, cov, n, alpha, phi_star=None):
    """Per-coordinate (1 - alpha) intervals phi0_i +/- z sqrt(Hinv_ii / n).

    ``cov`` is the ``asymptotic_covariance`` of H.  With ``phi_star``
    supplied, also records the whitened error sqrt(n) H^(1/2) (phi0 -
    phi_star) and the coverage indicators |phi0_i - phi_star_i| <= half
    width.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    phi0 = np.asarray(phi0, dtype=float)
    z_crit = float(ndtri(1.0 - alpha / 2.0))
    half = z_crit * np.sqrt(np.diag(cov.inverse_hessian) / n)
    report = ConfidenceReport(level=1.0 - alpha, z_crit=z_crit,
                              lower=phi0 - half, upper=phi0 + half,
                              half_width=half)
    if phi_star is not None:
        diff = phi0 - np.asarray(phi_star, dtype=float)
        report.standardized = np.sqrt(n) * (cov.root @ diff)
        report.covers = np.abs(diff) <= half
    return report


# ---------------------------------------------------------------------------
# Rotation invariance audit
# ---------------------------------------------------------------------------

def _single_sample_objects(data, theta, basis, loss):
    """Score, curvature and population curvature of a 1-sample dataset."""
    a = pair_coordinates(data.U, theta, basis.elements)[0]
    mu1 = loss.d2(predictions(data, theta), data.y)[0]
    # the conditional mean kills the score term of the population curvature
    return (*_restricted_terms(StackRoute(data, loss), theta, basis.elements),
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

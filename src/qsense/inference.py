"""Horizontal-basis representations, asymptotic covariance, and Wald intervals.

All inference happens in the coordinates of an orthonormal horizontal basis
at the (aligned) truth: estimates and scores become vectors, curvature
becomes a symmetric matrix whose inverse is the asymptotic covariance of
sqrt(n) times the coordinate error.  Every call reads that point from the
basis (``HorizontalBasis.anchor``), never from a second argument.

The score, the curvature-vector product and the curvature matrix at the
truth read the data through ``model.StackRoute``, as the fit does: the
p + 1 square-root rows of the dataset for the Gaussian loss
(``Dataset.compressed``), the design U otherwise.  From one derivative
pass (ell'', Sbar) at the truth the score is Sbar theta* represented in
the basis (``restricted_representation``), and the curvature matrix is
``restricted_hessian``: ``StackRoute.curvature``, the matrix of
``StackRoute.curvature_apply`` on the basis.  ``per_sample_scores`` stays
on U, since it needs every sample.  H* (``restricted_population_hessian``)
is exact and reads no data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import geometry
from .errors import DegenerateHessianError
from .jsonable import JsonFields
from .model import (Dataset, StackRoute, pair_coordinates,
                    population_curvature, predictions)

# Eigenvalue floor, relative to the largest eigenvalue, at or below which
# restricted curvature is treated as singular.
EIG_FLOOR = 1e-10


def represent(M, basis):
    """Coordinates <M, e_i> of a matrix in the horizontal basis."""
    M = np.asarray(M, dtype=float)
    if M.shape != basis.anchor.shape:
        raise ValueError("matrix shape does not match the basis anchor")
    return np.einsum("mik,ik->m", basis.elements, M)


def restricted_hessian(dataset, basis, loss):
    """Empirical curvature matrix H_ij = <e_i, hess e_j> at the basis anchor."""
    route = StackRoute(dataset, loss)
    return route.curvature(basis.anchor, basis.elements,
                           route.derivative_pass(basis.anchor))


def per_sample_scores(dataset, basis, loss):
    """(n, d') matrix whose rows represent each sample's loss gradient at
    the basis anchor."""
    z = predictions(dataset, basis.anchor)
    A = pair_coordinates(dataset.U, basis.anchor, basis.elements)
    return A * loss.d1(z, dataset.y)[:, None]


def restricted_population_hessian(dgp, basis, loss):
    """H*: ``population_curvature`` at the basis anchor on the basis
    elements, exact for every design and loss the package draws; only the
    design of ``dgp`` is read.  Its inverse and root come from
    ``asymptotic_covariance``, which rejects the non-finite H of a truth
    too large to square.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return population_curvature(dgp, basis.anchor, basis.elements, loss)


@dataclass
class RestrictedRepresentation:
    """An estimate in one basis: coordinates, score and curvature product.

    ``phi0`` represents the estimate after aligning it onto the basis anchor
    (equivalently: the anchor's coordinates plus the represented aligned
    chord), so it does not depend on which orbit representative the
    optimizer happened to return.  ``chord`` is that aligned chord and
    ``distance`` its norm, the quotient distance.  ``score`` is the
    restricted gradient at the truth.  ``curvature_times(v)`` applies the
    restricted curvature there to one vector (two passes over the route's
    rows); the full matrix is ``restricted_hessian``.
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


def restricted_representation(dataset, theta0, basis, loss):
    """Bundle phi*, phi0 and the restricted score at the truth.

    The truth theta* is the basis anchor.  theta0 is aligned onto it once;
    the representation is defined at any distance, but the aligned chord is
    a chart of the quotient only below the injectivity radius, which
    ``diagnostics.taylor_residual_check`` enforces.  One derivative pass at
    the truth, through ``StackRoute(dataset, loss)``, gives the score and
    the curvature product (see ``RestrictedRepresentation``).
    """
    theta_star = basis.anchor
    al = geometry.align(theta0, theta_star)
    chord = al.aligned - theta_star
    phi_star = represent(theta_star, basis)
    route = StackRoute(dataset, loss)
    terms = route.derivative_pass(theta_star)
    return RestrictedRepresentation(
        basis=basis,
        phi_star=phi_star,
        phi0=phi_star + represent(chord, basis),
        score=represent(terms[1] @ theta_star, basis),
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
    DegenerateHessianError when H is not finite, and when its smallest
    eigenvalue is at or below EIG_FLOOR times its largest: the loss is
    numerically flat along a direction of the basis, as along a vertical
    direction.  The floor is relative, so the loss's scale, which
    multiplies H, does not move it.
    """
    hstar = np.asarray(hstar, dtype=float)
    if not np.all(np.isfinite(hstar)):
        raise DegenerateHessianError(
            "restricted curvature is not finite; the truth or the loss scale "
            "is out of floating-point range")
    lam, V = np.linalg.eigh(0.5 * (hstar + hstar.T))
    if lam[0] <= EIG_FLOOR * lam[-1]:
        raise DegenerateHessianError(
            f"restricted curvature has minimum eigenvalue {lam[0]:.3e}, at "
            f"or below {EIG_FLOOR:.0e} times its maximum {lam[-1]:.3e}; the "
            "loss is numerically flat along a direction of the basis")
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

    ``phi0`` is one estimate (m,) or a block of them (R, m), one per row;
    ``cov`` is the ``asymptotic_covariance`` of H.  With ``phi_star``
    supplied, also records the whitened error sqrt(n) H^(1/2) (phi0 -
    phi_star) and the coverage indicators |phi0_i - phi_star_i| <= half
    width, in the shape of ``phi0``.  A row of a block reads the same bits
    as that estimate alone.
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
        # a matrix-vector product per row: a block's rows match single calls
        report.standardized = np.sqrt(n) * (cov.root @ diff[..., None])[..., 0]
        report.covers = np.abs(diff) <= half
    return report


# ---------------------------------------------------------------------------
# Rotation invariance audit
# ---------------------------------------------------------------------------

def _single_sample_objects(data, basis, loss):
    """Score, curvature and population curvature of a 1-sample dataset at
    the basis anchor."""
    theta = basis.anchor
    route = StackRoute(data, loss)
    d2, Sbar, phi = route.derivative_pass(theta)
    # the conditional mean kills the score term of the population curvature
    return (represent(Sbar @ theta, basis),
            route.curvature(theta, basis.elements, (d2, Sbar, phi)),
            route.curvature(theta, basis.elements, (d2, 0.0 * Sbar, phi)))


@dataclass
class InvarianceAudit(JsonFields):
    discrepancies: dict
    max_discrepancy: float


def invariance_audit(basis, rotation, sample, loss):
    """Check that representations do not depend on the orbit representative.

    Computes phi/score/curvature objects in ``basis``, at its anchor
    theta_star, and again in the pushed-forward basis at theta_star @
    rotation (with the estimate point, a deterministic offset of
    theta_star, rotated the same way) and reports the largest absolute
    discrepancy.
    """
    theta_star = basis.anchor
    rotation = np.asarray(rotation, dtype=float)
    X, y = sample
    data = Dataset(X=np.asarray(X, dtype=float)[None], y=[y])
    probe = np.ones_like(theta_star)
    probe[0, 0] += 1.0
    probe /= np.linalg.norm(probe)
    theta0 = theta_star + 0.1 * np.linalg.norm(theta_star) * probe
    rotated = geometry.rotate_basis(basis, rotation)

    phi_star = represent(theta_star, basis)
    phi0 = represent(theta0, basis)
    score, hess, hess_pop = _single_sample_objects(data, basis, loss)

    phi_star_r = represent(rotated.anchor, rotated)
    phi0_r = represent(theta0 @ rotation, rotated)
    score_r, hess_r, hess_pop_r = _single_sample_objects(data, rotated, loss)

    disc = {
        "phi_star": float(np.max(np.abs(phi_star - phi_star_r))),
        "phi0": float(np.max(np.abs(phi0 - phi0_r))),
        "score": float(np.max(np.abs(score - score_r))),
        "hessian": float(np.max(np.abs(hess - hess_r))),
        "population_hessian": float(np.max(np.abs(hess_pop - hess_pop_r))),
    }
    return InvarianceAudit(discrepancies=disc,
                           max_discrepancy=max(disc.values()))

"""Geometry of the rank-k factor space modulo right-multiplication by O(k).

The loss depends on theta only through theta theta^T, so factors that differ
by an orthogonal k x k rotation are indistinguishable.  Directions of the
form theta A with A skew-symmetric ("vertical") are collapsed by that
symmetry; their Frobenius-orthogonal complement ("horizontal") is where
estimation error lives.  This module provides the skew basis, the two
projections, orthonormal horizontal bases, Procrustes alignment and the
quotient distance it induces, and the injectivity radius (the smallest
singular value of the anchor factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFactorError, OutOfInjectivityError
from .jsonable import JsonFields

# Relative singular-value cutoff below which a factor is treated as rank
# deficient by the projection solvers.
RANK_RTOL = 1e-10

# Gram-Schmidt drop tolerance for horizontal basis construction.
GS_DROP_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class HorizontalBasis(JsonFields):
    """Orthonormal basis of the horizontal space at ``anchor``.

    ``elements`` is (m, d, k) with m = d k - k (k - 1) / 2; each element is
    Frobenius-orthogonal to every vertical direction at the anchor.
    ``tag`` records the deterministic construction used.
    """

    anchor: np.ndarray
    elements: np.ndarray
    tag: str = "lex"

    @property
    def m(self):
        return self.elements.shape[0]


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Optimal rotation of theta_a onto theta_b and the residual distance."""

    rotation: np.ndarray
    distance: float
    aligned: np.ndarray
    degenerate: bool = False


def horizontal_dim(d, k):
    """Dimension of the horizontal space: d k - k (k - 1) / 2."""
    return d * k - (k * (k - 1)) // 2


def skew_basis(k):
    """Canonical orthonormal skew basis (E_ij - E_ji) / sqrt(2), i < j, as an
    (m, k, k) array, m = k (k - 1) / 2, in lexicographic order of (i, j)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    m = (k * (k - 1)) // 2
    elements = np.zeros((m, k, k))
    idx = 0
    s = 1.0 / np.sqrt(2.0)
    for i in range(k):
        for j in range(i + 1, k):
            elements[idx, i, j] = s
            elements[idx, j, i] = -s
            idx += 1
    return elements


def _check_full_rank(theta):
    sv = np.linalg.svd(theta, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        # an all-zero factor has no ratio to report
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
        raise DegenerateFactorError(
            f"factor is numerically rank deficient (sv ratio {ratio:.2e})")
    return sv


def vertical_project(theta, Z):
    """Orthogonal projection of Z onto the vertical space {theta A, A skew}.

    Z is one d x k matrix or an (m, d, k) stack, projected slice by slice.
    The minimizing skew A solves M A + A M = theta^T Z - Z^T theta with
    M = theta^T theta; solved in the eigenbasis of M, where the entrywise
    denominators lambda_i + lambda_j are bounded below by twice the squared
    smallest singular value of theta.
    """
    theta = np.asarray(theta, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim not in (2, 3) or Z.shape[-2:] != theta.shape:
        raise ValueError("Z must match the factor shape")
    _check_full_rank(theta)
    k = theta.shape[1]
    if k == 1:
        return np.zeros_like(Z)
    M = theta.T @ theta
    lam, Q = np.linalg.eigh(M)
    S = theta.T @ Z
    S = S - np.swapaxes(S, -1, -2)
    St = Q.T @ S @ Q
    At = St / (lam[:, None] + lam[None, :])
    A = Q @ At @ Q.T
    return theta @ A


def horizontal_project(theta, Z):
    """Projection onto the orthogonal complement of the vertical space."""
    Z = np.asarray(Z, dtype=float)
    return Z - vertical_project(theta, Z)


def horizontal_basis(theta, order="lex"):
    """Deterministic orthonormal basis of the horizontal space at theta.

    Projects the canonical d x k unit matrices (in lexicographic or reverse
    lexicographic order) onto the horizontal space in one call and
    orthonormalizes them in that order by two-pass Gram-Schmidt, dropping
    directions with residual norm below ``GS_DROP_TOL``.
    """
    theta = np.asarray(theta, dtype=float)
    d, k = theta.shape
    target = horizontal_dim(d, k)
    units = np.eye(d * k)
    if order == "revlex":
        units = units[::-1]
    elif order != "lex":
        raise ValueError(f"unknown basis order {order!r}")
    projected = horizontal_project(theta, units.reshape(d * k, d, k))
    kept = np.empty((d * k, d * k))
    m = 0
    for v in projected.reshape(d * k, d * k):
        # two orthogonalization passes keep the Gram matrix at ~1e-15
        for _ in range(2):
            v = v - kept[:m].T @ (kept[:m] @ v)
        norm = np.linalg.norm(v)
        if norm > GS_DROP_TOL:
            kept[m] = v / norm
            m += 1
    if m != target:
        raise DegenerateFactorError(
            f"horizontal basis construction found {m} directions, "
            f"expected {target}")
    return HorizontalBasis(anchor=theta, elements=kept[:m].reshape(m, d, k),
                           tag=order)


def newton_basis(theta):
    """An orthonormal (m, d, k) basis of the horizontal space at theta.

    The last m columns of one complete QR factorization of the vertical
    directions theta A, A in ``skew_basis(k)``.  It spans the space
    ``horizontal_basis`` spans, in other coordinates, at a tenth of the
    cost; the fit's Newton step does not depend on the basis, while the
    reported coordinates are those of ``horizontal_basis``.  Raises
    DegenerateFactorError at a rank-deficient theta, or when a diagonal
    entry of R falls below ``GS_DROP_TOL`` relative to theta's scale.
    """
    theta = np.asarray(theta, dtype=float)
    d, k = theta.shape
    sv = _check_full_rank(theta)
    vertical = (theta @ skew_basis(k)).reshape(-1, d * k)
    Q, R = np.linalg.qr(vertical.T, mode="complete")
    if np.any(np.abs(np.diagonal(R)) < GS_DROP_TOL * sv[0]):
        raise DegenerateFactorError(
            "vertical directions are numerically dependent")
    return Q[:, vertical.shape[0]:].T.reshape(-1, d, k)


def rotate_basis(basis, U):
    """Push a horizontal basis at theta forward to one at theta U."""
    U = np.asarray(U, dtype=float)
    k = basis.anchor.shape[1]
    if U.shape != (k, k) or np.linalg.norm(U.T @ U - np.eye(k)) > 1e-10:
        raise ValueError("U must be a k x k orthogonal matrix")
    return HorizontalBasis(anchor=basis.anchor @ U,
                           elements=basis.elements @ U,
                           tag=basis.tag + "@rot")


def align(theta_a, theta_b):
    """Orthogonal Procrustes: the U in O(k) minimizing ||theta_a U - theta_b||_F.

    U = P Q^T from the SVD theta_a^T theta_b = P S Q^T.  Reflections are
    allowed.  A rank-deficient cross product makes the minimizer non-unique;
    the SVD's completion is returned with ``degenerate`` set.
    """
    theta_a = np.asarray(theta_a, dtype=float)
    theta_b = np.asarray(theta_b, dtype=float)
    if theta_a.shape != theta_b.shape:
        raise ValueError("factors must have matching shapes")
    C = theta_a.T @ theta_b
    P, sv, Qt = np.linalg.svd(C)
    U = P @ Qt
    aligned = theta_a @ U
    distance = float(np.linalg.norm(aligned - theta_b))
    scale = max(float(sv[0]), 1.0e-300)
    degenerate = bool(sv[-1] <= 1e-12 * scale)
    return AlignmentResult(rotation=U, distance=distance, aligned=aligned,
                           degenerate=degenerate)


def injectivity_radius(theta):
    """Smallest singular value of theta: the radius of the aligned-chord chart."""
    theta = np.asarray(theta, dtype=float)
    sv = np.linalg.svd(theta, compute_uv=False)
    return float(sv[-1])


def check_within_radius(theta_star, distance):
    """Raise OutOfInjectivityError unless ``distance`` is below the
    injectivity radius at theta_star, where the aligned chord is a chart."""
    radius = injectivity_radius(theta_star)
    if distance >= radius:
        raise OutOfInjectivityError(
            f"distance {distance:.6g} is not below the injectivity "
            f"radius {radius:.6g}")


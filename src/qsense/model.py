"""Measurement model and analytic derivatives for generalized low-rank sensing.

The observation model is ``y_i ~ noise(z_i)`` with ``z_i = <X_i, theta theta^T>``,
where ``X_i`` is a d x d measurement matrix, ``theta`` is a d x k factor and
``<.,.>`` is the Frobenius inner product.  The empirical objective is the mean
of a scalar loss ``ell(z_i, y_i)``; everything downstream (gradient, curvature,
third derivative) is computed from the analytic derivatives of ``ell`` in its
first argument.

The loss reads each X_i only through <X_i, M> with M symmetric, so a
``Dataset`` stores the design as U, the (n, p) matrix whose rows are
u_i = svec(sym X_i), p = d (d + 1) / 2 (21 numbers at d = 6, where X_i
has 36): u_ii = X_ii, u_ij = (X_ij + X_ji) / sqrt 2 for i < j, and
<X_i, M> = u_i^T svec(M).  Every design map is one BLAS call on U
(``design_forward``, ``design_adjoint``); the stack X is derived from U
when read, symmetric, and never stored.

The fit and the inference at the truth read the data through
``StackRoute``, one BLAS call on the rows per operation.  The Gaussian loss
reads the data only through the row means of u u^T, u y and y^2, so there
the route reads ``Dataset.compressed``: p + 1 square-root rows with the
n rows' means, built once per dataset, after which every loss value,
derivative and curvature costs O(p^2), whatever n is.  Under Gaussian
noise and a Gaussian design the harness need not draw the n samples at
all: ``draw_statistics`` draws such p + 1 rows directly, by Bartlett's
decomposition of the Wishart law.  The public derivative functions below
(``empirical_loss``, ``euclidean_gradient``, ``hessian_operator``,
``hessian_bilinear``, ``third_derivative``) read the derived X: they are
the finite-difference oracles the route is checked against.

The population curvature H* (``population_curvature``) is exact, without
design draws, for every design and loss: Stein's identity, second moments,
or a Fourier trapezoid rule whose step and range follow from the truth.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.linalg import lstsq
from scipy.special import expit, spherical_jn

from .errors import ConfigurationError, DegenerateHessianError
from .jsonable import JsonFields


# ---------------------------------------------------------------------------
# Loss families
# ---------------------------------------------------------------------------

class LossModel:
    """Scalar loss ell(z, y) with analytic derivatives in z.

    Subclasses implement ``value``, ``d1``, ``d2``, ``d3`` (all vectorized
    over z and y), and may override ``d1_d2`` to share work between the
    first two.  ell'' must not depend on y: it is then its own conditional
    mean given z, which is how the population curvature reads it, with no
    target at hand.
    """

    def value(self, z, y):
        raise NotImplementedError

    def d1(self, z, y):
        raise NotImplementedError

    def d2(self, z, y):
        raise NotImplementedError

    def d3(self, z, y):
        raise NotImplementedError

    def d1_d2(self, z, y):
        """(d1(z, y), d2(z, y)) in one call."""
        return self.d1(z, y), self.d2(z, y)

    def validate_targets(self, y):
        """Raise ValueError if the targets are outside the loss's domain."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")


class GaussianNLL(LossModel):
    """Gaussian negative log-likelihood, ell(z, y) = (z - y)^2 / (2 sigma^2).

    The 1/(2 sigma^2) scaling makes ell'(z*, y) = -eps / sigma^2 for additive
    noise eps, so the score covariance equals the expected curvature exactly
    when the noise scale matches ``sigma``.
    """

    def __init__(self, sigma=1.0):
        self.sigma = float(sigma)
        # float division rounds to 0 or inf where ** would raise
        positive = self.sigma > 0.0
        self._inv_var = 1.0 / self.sigma / self.sigma if positive else 0.0
        if not 0.0 < self._inv_var < math.inf:
            raise ValueError(f"sigma must be positive with 1/sigma^2 finite "
                             f"and positive, got {sigma!r}")

    def value(self, z, y):
        r = np.asarray(z, dtype=float) - y
        return 0.5 * self._inv_var * r * r

    def d1(self, z, y):
        return (np.asarray(z, dtype=float) - y) * self._inv_var

    def d2(self, z, y):
        return np.full_like(np.asarray(z, dtype=float), self._inv_var)

    def d3(self, z, y):
        return np.zeros_like(np.asarray(z, dtype=float))

    def __repr__(self):
        return f"GaussianNLL(sigma={self.sigma})"


class Logistic(LossModel):
    """Logistic loss ell(z, y) = log(1 + e^z) - y z for binary targets."""

    def value(self, z, y):
        # log(1 + e^z) = max(z, 0) + log1p(e^-|z|): one exp and one log1p,
        # neither of which can overflow
        z = np.asarray(z, dtype=float)
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z

    def d1(self, z, y):
        return expit(z) - y

    def d2(self, z, y):
        s = expit(z)
        return s * (1.0 - s)

    def d1_d2(self, z, y):
        s = expit(z)
        return s - y, s * (1.0 - s)

    def d3(self, z, y):
        s = expit(z)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    def validate_targets(self, y):
        super().validate_targets(y)
        y = np.asarray(y, dtype=float)
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic loss requires targets in {0, 1}")

    def __repr__(self):
        return "Logistic()"


# ---------------------------------------------------------------------------
# Problem constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemConstants(JsonFields):
    """Bounds describing one sensing problem, used by the theory certificates.

    Conventions: X_max, sigma_eps, sigma_max, mu_max, K_ell are all >= 1 and
    mu0, lambda0 lie in (0, 1]; constants are clamped to those ranges when
    estimated automatically.
    """

    d: int
    k: int
    X_max: float
    sigma_min: float
    sigma_max: float
    sigma_eps: float
    mu_max: float
    K_ell: float
    mu0: float
    lambda0: float

    def validate(self):
        if self.d < 1 or self.k < 1 or self.k > self.d:
            raise ValueError("need d >= k >= 1")
        if not (0 < self.sigma_min <= self.sigma_max):
            raise ValueError("need 0 < sigma_min <= sigma_max")
        for name in ("X_max", "sigma_eps", "sigma_max", "mu_max", "K_ell"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be at least 1")
        for name in ("mu0", "lambda0"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        return self


# ---------------------------------------------------------------------------
# Half-vectorized coordinates
# ---------------------------------------------------------------------------
# The loss reads a measurement X only through <X, M> for symmetric M, so a
# sample enters only through u = svec(sym X): u_ii = X_ii and
# u_ij = (X_ij + X_ji) / sqrt 2 for i < j, the upper triangle row by row.
# Then <X, M> = u^T svec(M), an isometry of the symmetric matrices onto
# R^p, p = d (d + 1) / 2 (Vandenberghe and Boyd, SIAM Rev. 1996).

@functools.cache
def _svec_basis(d):
    """(K, K^T) for the (p, d^2) matrix K with svec(M) = K vec(M).

    Row (i, i) of K is vec(e_i e_i^T), row (i, j), i < j, is
    vec(e_i e_j^T + e_j e_i^T) / sqrt 2: K K^T = I_p, K^T svec(M) = vec(M)
    for symmetric M, and K vec(M) = svec(sym M) for any M.
    """
    rows, cols = np.triu_indices(d)
    K = np.zeros((rows.size, d, d))
    scale = np.where(rows == cols, 1.0, math.sqrt(0.5))
    K[np.arange(rows.size), rows, cols] = scale
    K[np.arange(rows.size), cols, rows] = scale
    K = K.reshape(rows.size, d * d)
    Kt = np.ascontiguousarray(K.T)
    K.flags.writeable = Kt.flags.writeable = False
    return K, Kt


@functools.cache
def _svec_order(p):
    """The d with d (d + 1) / 2 = p; ValueError if p is no such number."""
    d = (math.isqrt(8 * p + 1) - 1) // 2
    if p < 1 or d * (d + 1) // 2 != p:
        raise ValueError(f"{p} coordinates are no half-vectorized matrix")
    return d


def svec(M):
    """svec(sym M) of a d x d matrix (result (p,)) or a (..., d, d) stack."""
    d = M.shape[-1]
    return np.dot(M.reshape(M.shape[:-2] + (d * d,)), _svec_basis(d)[1])


def smat(v):
    """The symmetric matrix (or (..., d, d) stack) whose svec is v."""
    d = _svec_order(v.shape[-1])
    return np.dot(v, _svec_basis(d)[0]).reshape(v.shape[:-1] + (d, d))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """n measurement pairs: the (n, p) design U and the targets y (n,).

    Row i of U is svec(sym X_i), everything the loss reads of X_i.
    ``Dataset(X=X, y=y, k=k)`` folds an (n, d, d) stack of any matrices
    into U; ``Dataset(U=U, y=y, k=k)`` takes U as it is.  ``X`` is the
    symmetric stack sym X_i, derived from U on every read and never stored.
    k is the target rank.  ``samples`` is the number of samples the rows
    stand for: the row count unless given.  ``draw_statistics`` and
    ``compressed`` return p + 1 rows that the Gaussian loss reads as n
    samples, with ``samples`` n.
    """

    U: np.ndarray
    y: np.ndarray
    k: int | None = None
    samples: int | None = None

    def __init__(self, X=None, y=None, k=None, *, U=None, samples=None):
        if (X is None) == (U is None):
            raise ValueError("a dataset takes exactly one of X and U")
        if X is not None:
            X = np.asarray(X, dtype=float)
            if X.ndim != 3 or X.shape[1] != X.shape[2]:
                raise ValueError(f"X must be (n, d, d), got {X.shape}")
            if not np.all(np.isfinite(X)):
                raise ValueError("dataset entries must be finite")
            U = svec(X)
        U = np.asarray(U, dtype=float)
        if U.ndim != 2:
            raise ValueError(f"U must be (n, p), got {U.shape}")
        _svec_order(U.shape[1])
        y = np.asarray(y, dtype=float)
        if y.shape != (U.shape[0],):
            raise ValueError("y must have one entry per measurement matrix")
        if U.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        samples = U.shape[0] if samples is None else samples
        if samples < 1:
            raise ValueError("a dataset stands for at least one sample")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def d(self):
        return _svec_order(self.U.shape[1])

    @property
    def X(self):
        return smat(self.U)

    @cached_property
    def compressed(self):
        """p + 1 square-root rows that the Gaussian loss reads as these n.

        The form ``draw_statistics`` draws (``_square_root_rows``), with
        L = chol(U^T U) and m_hat the least-squares fit of y on U.  The
        dataset itself when it has at most p + 1 rows, U^T U is rank
        deficient by the solve's rank (a Cholesky factor can exist there,
        with pivots at rounding level), or a sum overflows.
        """
        n, p = self.U.shape
        if n <= p + 1:
            return self
        with np.errstate(over="ignore", invalid="ignore"):
            gram, xy = self.U.T @ self.U, self.U.T @ self.y
            if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(xy))):
                return self
            m_hat, rank = _least_squares(gram, xy)
            if rank < p:
                return self
            try:
                L = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                return self
            r = self.U @ m_hat - self.y
            top, tail = L.T @ m_hat, math.sqrt(float(r @ r))
        if not (math.isfinite(tail) and np.all(np.isfinite(top))):
            return self
        return _square_root_rows(L, top, tail, n, self.k, self.samples)

    def to_json(self):
        return json.dumps({
            "d": self.d,
            "k": self.k,
            "n": self.samples,
            "samples": [{"X": Xi.tolist(), "y": float(yi)}
                        for Xi, yi in zip(self.X, self.y)],
        })

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("dataset must be a JSON object")
        d, k, samples = obj.get("d"), obj.get("k"), obj.get("samples")
        for key, value in (("d", d), ("k", 1 if k is None else k)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dataset key {key!r} must be an integer")
        if not isinstance(samples, list) or not all(
                isinstance(s, dict) and "X" in s and "y" in s for s in samples):
            raise ValueError("dataset key 'samples' must be a list of "
                             "objects with 'X' and 'y'")
        n = obj.get("n")  # a file without "n" stands for its rows
        if "n" in obj and not (type(n) is int and n >= 1):
            raise ValueError("dataset key 'n' must be an integer >= 1")
        try:
            X = np.array([s["X"] for s in samples], dtype=float)
            y = np.array([s["y"] for s in samples], dtype=float)
        except TypeError:
            raise ValueError("dataset samples must hold numbers") from None
        if X.shape[1:] != (d, d):
            raise ValueError("sample matrices do not match declared dimension")
        return cls(X=X, y=y, k=k, samples=n)


# ---------------------------------------------------------------------------
# Design maps
# ---------------------------------------------------------------------------
# U is the only stored form of the design.  Every derivative, curvature and
# the fit are built from the maps below, each one BLAS call on U.

def design_forward(U, M):
    """<X_i, M> = u_i^T svec(M) for every sample, M symmetric.

    M is one d x d matrix (result (n,)) or an (m, d, d) stack (result
    (n, m)); a non-symmetric M is read as sym M.
    """
    # svec(M) of one matrix is 1-D, which .T leaves as it is
    return U @ svec(M).T


def design_adjoint(U, w):
    """sum_i w_i sym X_i = smat(U^T w), the adjoint of the forward map."""
    return smat(U.T @ w)


def _pair(A, B):
    """A B^T + B A^T, batched over a leading axis of either argument.

    <X, _pair(A, B)> = <(X + X^T) A, B>, the tangent coordinate of X along B
    at the factor A.
    """
    AB = A @ np.swapaxes(B, -1, -2)
    return AB + np.swapaxes(AB, -1, -2)


def pair_adjoint(U, w):
    """Matrix sum_i w_i (X_i + X_i^T), the adjoint of the tangent coordinates."""
    return 2.0 * design_adjoint(U, w)


def pair_coordinates(U, theta, directions):
    """(n, m) matrix of <X_i, theta D_j^T + D_j theta^T> for a (m, d, k) stack.

    Entry (i, j) is the first-order change of the prediction z_i along D_j.
    """
    return design_forward(U, _pair(theta, directions))


# ---------------------------------------------------------------------------
# The data route
# ---------------------------------------------------------------------------
# The fit and the inference at the truth reach the data through three
# operations: the loss at a factor, the derivative pass (ell'', Sbar), and
# the design part of the curvature on pair matrices.  StackRoute computes
# them from the rows, for any loss.

# Rows per block of StackRoute.curvature.  At d = 6, k = 2 (p = 21, m = 11)
# a block is 2048 * 21 * 8 = 344 KB of U and two (11, 2048) temporaries of
# 180 KB, 0.7 MB in all, inside a 2 MiB L2.  All 16000 rows of a criterion-5
# logistic replicate at once are 2.7 MB of U and two 1.4 MB temporaries,
# read from L3.
_CURVATURE_ROWS = 2048


def _least_squares(A, b):
    """(x, rank): the minimum-norm least-squares solution of A x = b, by
    LAPACK gelsy with numpy's rank cut, p eps for A with p columns.  A and
    b must be finite."""
    x, _, rank, _ = lstsq(A, b, cond=A.shape[1] * np.finfo(float).eps,
                          lapack_driver="gelsy", check_finite=False)
    return x, rank


@dataclass(frozen=True, eq=False)
class Iterate:
    """A factor, its prediction vector ``state`` and the loss ``f`` there."""

    theta: np.ndarray
    state: np.ndarray
    f: float


class StackRoute:
    """The data operations on the rows of a dataset, for any loss.

    The Gaussian loss reads the rows only through their means of u u^T,
    u y and y^2, so under it the route reads the dataset's p + 1
    square-root rows (``Dataset.compressed``), which have the same means.
    The state of a factor is its prediction vector z on the rows read.  The
    restricted curvature is built here alone, for the fit and the inference
    alike: as a matrix on a stack of directions (``curvature``) and as the
    operator it represents (``curvature_apply``).
    """

    def __init__(self, dataset, loss):
        if isinstance(loss, GaussianNLL):
            dataset = dataset.compressed
        self.U, self.y, self.n, self.loss = dataset.U, dataset.y, dataset.n, loss

    def spectral(self):
        """The matrix whose best rank-k part starts a fit.

        (1/n) sum_i y_i sym X_i in general.  The Gaussian loss is
        (m - m_hat)^T Sigma_hat (m - m_hat) / (2 sigma^2) plus a constant in
        m = svec(theta theta^T), for m_hat the least-squares fit of y on U
        and Sigma_hat = U^T U / n, so given more than p rows its matrix is
        smat(m_hat): the best rank-k part (Eckart and Young, Psychometrika
        1936) misses the minimizer by O(|Sigma_hat - I| dist(m_hat, rank k)),
        where the backprojection smat(Sigma_hat m_hat) misses it by
        O(|Sigma_hat - I| |M|).  On the square-root rows [R; 0] of
        ``Dataset.compressed`` and ``draw_statistics``, R invertible, m_hat
        is one square solve; a rank-deficient U gives the minimum-norm
        m_hat.  With at most p rows every least-squares m_hat interpolates
        the targets, a start that can lead the descent to another
        minimizer; there the matrix is the backprojection.
        """
        p = self.U.shape[1]
        if not (isinstance(self.loss, GaussianNLL) and self.n > p):
            return design_adjoint(self.U, self.y) / self.n
        if self.n == p + 1 and not self.U[p].any():
            # square-root rows [R; 0]: m_hat solves R m = y[:p]
            try:
                return smat(np.linalg.solve(self.U[:p], self.y[:p]))
            except np.linalg.LinAlgError:
                pass
        return smat(_least_squares(self.U, self.y)[0])

    def state(self, theta):
        return design_forward(self.U, theta @ theta.T)

    def at(self, theta, state=None):
        """The Iterate at theta."""
        # non-finite values are handled by the divergence/backtracking logic
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.state(theta) if state is None else state
            return Iterate(theta, z, float(np.mean(self.loss.value(z, self.y))))

    def rounding(self, point):
        """df, the first-order rounding error of ``point.f``.

        z_i = u_i^T m, m = svec(theta theta^T), is computed with an error
        of about eps a_i, a = |U| |m|, which moves ell(z_i, y_i) by
        |ell'| eps a_i; evaluating ell adds about eps |ell|.  df is their
        mean, as the loss is.
        """
        a = np.abs(self.U) @ np.abs(svec(point.theta @ point.theta.T))
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = self.loss.d1(point.state, self.y)
            ell = np.abs(self.loss.value(point.state, self.y))
            return np.finfo(float).eps * float(np.mean(np.abs(d1) * a + ell))

    def ray(self, theta, state, tau):
        """(f'(tau), f''(tau)) for f(tau) the loss at theta sqrt(tau)."""
        d1, d2 = self.loss.d1_d2(tau * state, self.y)
        return (float(d1 @ state) / self.n,
                float(d2 @ (state * state)) / self.n)

    def derivative_pass(self, theta, state=None):
        """(ell''(z), Sbar, phi): Sbar = pair_adjoint(U, ell'(z)) / n and the
        dispersion phi = mean(ell'^2) / mean(ell''), 0 where ell'' is."""
        z = self.state(theta) if state is None else state
        d1, d2 = self.loss.d1_d2(z, self.y)
        total = float(np.sum(d2))
        phi = float(d1 @ d1) / total if total > 0.0 else 0.0
        return d2, pair_adjoint(self.U, d1) / self.n, phi

    def curvature(self, theta, E, terms):
        """The restricted curvature H_ij = <E_i, hess E_j> on a stack E.

        With ``terms`` = (d2, Sbar, _) = ``derivative_pass(theta)``, H is the
        matrix of ``curvature_apply`` on E: A^T diag(d2) A / n for
        A = pair_coordinates(U, theta, E), plus <E_i, Sbar E_j>, symmetrized.
        The design part is summed over blocks of _CURVATURE_ROWS rows: with
        the (m, p) pair coordinates C = svec(theta E_j^T + E_j theta^T),
        built once, a block adds A_b^T diag(d2_b) A_b for A_b^T = C U_b^T.
        Each block's operands stay in a core's L2 cache, where A for all n
        rows would not.
        """
        d2, Sbar, _ = terms
        C = svec(_pair(theta, E))
        m = len(C)
        H = np.zeros((m, m))
        for start in range(0, self.n, _CURVATURE_ROWS):
            rows = slice(start, start + _CURVATURE_ROWS)
            At = C @ self.U[rows].T
            H += (At * d2[rows]) @ At.T
        H = H / self.n + E.reshape(m, -1) @ (Sbar @ E).reshape(m, -1).T
        return 0.5 * (H + H.T)

    def curvature_apply(self, theta, Z, terms):
        """The curvature operator at theta applied to Z, in two passes.

        With ``terms`` = (d2, Sbar, _) = ``derivative_pass(theta)``, this is
        pair_adjoint(U, d2 a) theta / n + Sbar Z for
        a_i = <X_i, theta Z^T + Z theta^T>.
        """
        d2, Sbar, _ = terms
        a = design_forward(self.U, _pair(theta, Z))
        return pair_adjoint(self.U, d2 * a) @ theta / self.n + Sbar @ Z


# ---------------------------------------------------------------------------
# Core predictions and derivatives
# ---------------------------------------------------------------------------
# The derivative functions below are the oracles the route is checked
# against.  Their predictions come from ``predictions``, the forward map the
# data are simulated with, so a noiseless truth is an exact zero of the
# gradient; every other contraction reads the derived stack X, not U.

def predictions(dataset, theta):
    """Vector of <X_i, theta theta^T> for every sample."""
    theta = np.asarray(theta, dtype=float)
    if dataset.d != theta.shape[0]:
        raise ValueError("dataset and factor dimensions disagree")
    return design_forward(dataset.U, theta @ theta.T)


def _stack_forward(X, M):
    """<X_i, M> for every matrix of an (n, d, d) stack X."""
    return X.reshape(len(X), -1) @ M.ravel()


def _stack_pair_adjoint(X, w):
    """sum_i w_i (X_i + X_i^T) for an (n, d, d) stack X."""
    S = np.tensordot(w, X, axes=1)
    return S + S.T


def empirical_loss(dataset, theta, loss):
    """Mean loss over the dataset at the factor theta."""
    loss.validate_targets(dataset.y)
    z = predictions(dataset, theta)
    return float(np.mean(loss.value(z, dataset.y)))


def euclidean_gradient(dataset, theta, loss):
    """Gradient of the empirical loss with respect to theta.

    Equals (1/n) sum_i ell'(z_i, y_i) (X_i + X_i^T) theta, the Riesz
    representative of the first derivative under the Frobenius inner product.
    """
    theta = np.asarray(theta, dtype=float)
    w = loss.d1(predictions(dataset, theta), dataset.y)
    return _stack_pair_adjoint(dataset.X, w) @ theta / dataset.n


def hessian_bilinear(dataset, theta, Z, W, loss):
    """Second derivative of the empirical loss as a bilinear form on (Z, W)."""
    W = np.asarray(W, dtype=float)
    if W.shape != np.shape(theta):
        raise ValueError("Z and W must match the factor shape")
    return float(np.sum(hessian_operator(dataset, theta, Z, loss) * W))


def hessian_operator(dataset, theta, Z, loss):
    """Riesz representative of the curvature form: <result, W> = bilinear(Z, W).

    (1/n) sum_i [ell''_i a_i (X_i + X_i^T) theta + ell'_i (X_i + X_i^T) Z]
    with a_i = <X_i, theta Z^T + Z theta^T>.
    """
    theta = np.asarray(theta, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != theta.shape:
        raise ValueError("Z must match the factor shape")
    z = predictions(dataset, theta)
    X = dataset.X
    a = _stack_forward(X, _pair(theta, Z))
    return (_stack_pair_adjoint(X, loss.d2(z, dataset.y) * a) @ theta
            + _stack_pair_adjoint(X, loss.d1(z, dataset.y)) @ Z) / dataset.n


def third_derivative(dataset, theta, Z, W, V, loss):
    """Third derivative of the empirical loss, a symmetric trilinear form."""
    if np.shape(W) != np.shape(theta):
        raise ValueError("all directions must match the factor shape")
    R = third_derivative_operator(dataset, theta, Z, V, loss)
    return float(np.sum(R * W))


def third_derivative_operator(dataset, theta, V, W, loss):
    """Matrix R with <R, U> = third_derivative(dataset, theta, V, U, W, loss).

    This is the derivative of the curvature operator in direction W, applied
    to V.
    """
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if V.shape != theta.shape or W.shape != theta.shape:
        raise ValueError("all directions must match the factor shape")
    z = predictions(dataset, theta)
    d2 = loss.d2(z, dataset.y)
    d3 = loss.d3(z, dataset.y)
    X = dataset.X
    aV = _stack_forward(X, _pair(theta, V))
    aW = _stack_forward(X, _pair(theta, W))
    cVW = _stack_forward(X, _pair(V, W))
    R = (_stack_pair_adjoint(X, d3 * aV * aW + d2 * cVW) @ theta
         + _stack_pair_adjoint(X, d2 * aW) @ V
         + _stack_pair_adjoint(X, d2 * aV) @ W)
    return R / dataset.n


# ---------------------------------------------------------------------------
# Data generating processes
# ---------------------------------------------------------------------------

DESIGNS = ("gaussian", "symmetric", "bounded")
NOISES = ("gaussian", "bernoulli")

# Bounded design draws entries uniform on [-sqrt(3), sqrt(3)]: unit variance,
# hard entry bound sqrt(3).
BOUNDED_XMAX = float(np.sqrt(3.0))


def sample_design(design, rng, n, d):
    """The (n, p) design U of n measurement matrices of the named design.

    Under ``gaussian`` and ``symmetric`` ((G + G^T) / 2) alike,
    u = svec(sym X) ~ N(0, I_p), drawn as one (n, p) block.  ``bounded``
    draws the d^2 uniform entries of each X, row by row, and folds them.
    """
    if design in ("gaussian", "symmetric"):
        return rng.standard_normal((n, d * (d + 1) // 2))
    if design == "bounded":
        return svec(rng.uniform(-BOUNDED_XMAX, BOUNDED_XMAX, size=(n, d, d)))
    raise ConfigurationError(f"unknown design {design!r}")


@dataclass(frozen=True, eq=False)
class DataGeneratingProcess:
    """Sampler for (X, y) pairs around a ground-truth factor.

    ``noise`` is either "gaussian" (y = z* + sigma * eps) or "bernoulli"
    (y ~ Bernoulli(sigmoid(z*))).  ``seed`` may be an int or a tuple of ints;
    tuples give independent streams for e.g. per-replicate simulation.
    """

    theta_star: np.ndarray
    design: str = "gaussian"
    noise: str = "gaussian"
    sigma: float = 1.0
    seed: int | tuple = 0

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta_star must be a d x k matrix")
        object.__setattr__(self, "theta_star", theta)
        if self.design not in DESIGNS:
            raise ConfigurationError(f"unknown design {self.design!r}")
        if self.noise not in NOISES:
            raise ConfigurationError(f"unknown noise model {self.noise!r}")
        if self.noise == "gaussian" and self.sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")

    @property
    def d(self):
        return self.theta_star.shape[0]

    @property
    def k(self):
        return self.theta_star.shape[1]

    def rng(self, *extra):
        seed = (tuple(self.seed) if isinstance(self.seed, (tuple, list))
                else (int(self.seed),))
        ss = np.random.SeedSequence(seed + tuple(extra))
        return np.random.Generator(np.random.SFC64(ss))


def simulate(dgp, n):
    """Draw a Dataset of n samples.  Bit-identical for equal (seed, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = dgp.rng()
    U = sample_design(dgp.design, rng, n, dgp.d)
    z = design_forward(U, dgp.theta_star @ dgp.theta_star.T)
    if dgp.noise == "gaussian":
        y = z + dgp.sigma * rng.standard_normal(n)
    else:
        y = (rng.random(n) < expit(z)).astype(float)
    return Dataset(U=U, y=y, k=dgp.k)


def draw_statistics(dgp, n):
    """A Dataset of p + 1 rows that the Gaussian loss reads as n samples.

    For Gaussian noise under the ``gaussian`` or ``symmetric`` design,
    where u ~ N(0, I_p), with p = d (d + 1) / 2, m* = svec(M*) and
    s = dgp.sigma (Bartlett's decomposition; Odell and Feiveson, JASA 1966):
    W = n Sigma_hat = L L^T ~ Wishart(n, I_p) for L lower triangular with
    L_ii = sqrt(chi^2_{n-i}), i = 0 ... p - 1, and N(0, 1) entries below
    the diagonal.  Writing the design as U = Q L^T, with Q (n x p)
    orthonormal, Haar-distributed and independent of L, and
    xi = Q^T eps ~ N(0, I_p):

        n b = W m* + s L xi,   L^T m_hat = L^T m* + s xi,
        |y - U m_hat|^2 = s^2 chi^2_{n-p}, independent of both,

    for m_hat the least-squares fit.  The result is their square-root
    form (``_square_root_rows``), with top L^T m* + s xi and tail
    s sqrt(chi^2_{n-p}).

    The stream is drawn in that order: the p diagonal chi^2, the
    p (p - 1) / 2 entries below it row by row, xi, the residual's chi^2.
    Bit-identical for equal (seed, n).
    """
    if dgp.design == "bounded" or dgp.noise != "gaussian":
        raise ConfigurationError("statistics are drawn only for gaussian "
                                 "noise under a gaussian design")
    p = dgp.d * (dgp.d + 1) // 2
    if n <= p:
        raise ValueError("drawing the statistics needs n > d (d + 1) / 2")
    rng = dgp.rng()
    L = np.diag(np.sqrt(rng.chisquare(n - np.arange(p))))
    L[np.tri(p, k=-1, dtype=bool)] = rng.standard_normal(p * (p - 1) // 2)
    xi = rng.standard_normal(p)
    chi2 = float(rng.chisquare(n - p))
    m_star = svec(dgp.theta_star @ dgp.theta_star.T)
    return _square_root_rows(L, L.T @ m_star + dgp.sigma * xi,
                             dgp.sigma * math.sqrt(chi2), n, dgp.k, n)


def _square_root_rows(L, top, tail, n, k, samples):
    """The rows c [L^T; 0] and targets c [top; tail], c = sqrt((p + 1) / n),
    standing for ``samples`` samples.

    The square-root form of n samples (U, y) with U^T U = n Sigma_hat =
    L L^T, L lower triangular, least-squares fit m_hat, top = L^T m_hat and
    tail = |y - U m_hat|.  Its row means are those of the n samples,
    U^T U / (p + 1) = Sigma_hat, U^T y / (p + 1) = b and, for every m,

        mean (U m - y)^2 = (m - m_hat)^T Sigma_hat (m - m_hat)
                           + |y - U m_hat|^2 / n,

    so the Gaussian loss at any factor, its derivatives and its curvature
    are the n-sample ones.
    """
    p = L.shape[0]
    c = math.sqrt((p + 1) / n)
    y = c * np.append(top, tail)
    U = np.zeros((p + 1, p))
    U[:p] = c * L.T
    return Dataset(U=U, y=y, k=k, samples=samples)


def _stein_moments(loss, s):
    """(E[ell''(s u)], E[ell''(s u) u^2]) for u ~ N(0, 1).

    Both are 1/sigma^2 for the Gaussian loss; other losses are integrated
    adaptively on each half-line.
    """
    if isinstance(loss, GaussianNLL):
        return loss._inv_var, loss._inv_var
    moments = []
    for power in (0, 2):
        def integrand(u):
            return loss.d2(s * u, None) * u**power * math.exp(-0.5 * u * u)
        halves = (quad(integrand, a, b, epsabs=0.0, epsrel=1e-12)[0]
                  for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
        moments.append(sum(halves) / math.sqrt(2.0 * math.pi))
    return tuple(moments)


# Most points the Fourier rule of _bounded_logistic_moments may take.  It
# holds about nine (points, d^2) float arrays at once (v, f0, f1, f2, and
# the products over the other coordinates with their prefix and suffix
# factors): at d = 6 and this cap each is 16384 * 36 * 8 = 4.7 MB, about
# 42 MB in all.  A truth of the criteria's scale, |vec M*|_1 about 8, takes
# 112 points, 32 KB per array, inside a core's L2.  The cap admits
# |vec M*|_1 up to (2 pi 16384 / 13 - 40) / sqrt 3 = 4,550; a truth entry
# of 1e3 at d = 3 would take 3.6 million points, 0.26 GB per array.
_FOURIER_POINTS = 16384


def _bounded_logistic_moments(w, refine=1):
    """G = E[ell''(w^T x) x x^T] for the logistic loss, x uniform on [-a, a]^p.

    a = BOUNDED_XMAX.  With ghat(t) = pi t / sinh(pi t), the Fourier
    transform of ell'', and the uniform law's phi0(u) = E[cos ux],
    phi1(u) = E[x sin ux], phi2(u) = E[x^2 cos ux] (spherical Bessel
    functions of a u, which do not cancel digits at small a u), G_kl is
    (1/pi) int_0^inf ghat(t) f_kl(t) dt for f_kk = phi2(t w_k) prod_{j != k}
    phi0(t w_j) and f_kl = -phi1(t w_k) phi1(t w_l) prod_{j != k, l}
    phi0(t w_j).  phi0 has zeros, so the products leave factors out.
    Raises DegenerateHessianError, before any array is built, when the rule
    would take more than _FOURIER_POINTS points.
    """
    a = BOUNDED_XMAX
    # the trapezoid rule aliases the law of w^T x, on [-a |w|_1, a |w|_1],
    # against ell'' ~ e^-|z| at period 2 pi / h: an error of about e^-40;
    # ghat falls to 1.5e-16 at t = 13
    span = (a * float(np.abs(w).sum()) + 40.0) * refine
    points = 13.0 * span / (2.0 * math.pi)
    if not points <= _FOURIER_POINTS:
        raise DegenerateHessianError(
            f"the bounded-design curvature needs a Fourier grid of "
            f"{points:.3g} points, above the {_FOURIER_POINTS} allowed; the "
            f"truth is too large for the bounded design")
    h = 2.0 * math.pi / span
    t = h * np.arange(math.ceil(13.0 / h) + 1)
    weight = h / np.pi * np.append(0.5, np.pi * t[1:] / np.sinh(np.pi * t[1:]))
    v = a * np.outer(t, w)
    f0 = spherical_jn(0, v)
    f1 = a * spherical_jn(1, v)
    f2 = a * a * (f0 - 2.0 * spherical_jn(2, v)) / 3.0
    ones = np.ones((t.size, 1))
    G = np.empty((w.size, w.size))
    for k in range(w.size):
        rest = f0.copy()
        rest[:, k] = 1.0
        # products over j != k, l: prefix times suffix
        rest = (np.cumprod(np.hstack([ones, rest[:, :-1]]), axis=1)
                * np.cumprod(np.hstack([ones, rest[:, :0:-1]]), axis=1)[:, ::-1])
        G[k] = -(weight * f1[:, k]) @ (f1 * rest)
        G[k, k] = (weight * f2[:, k]) @ rest[:, k]
    return G


def population_curvature(dgp, theta_star, directions, loss):
    """Population curvature E[ell''(z*) a_i a_j] on a (m, d, k) direction stack.

    a_i = <X, C_i> with C_i = theta D_i^T + D_i theta^T, exact on every
    design for the Gaussian loss and on the two Gaussian designs for any
    loss (Stein's identity): with s^2 = ||M*||_F^2, b_i = <C_i, M*> and
    u ~ N(0, 1),

        H = E[ell''(s u)] (C C^T - b b^T / s^2) + E[ell''(s u) u^2] b b^T / s^2,

    which is C C^T / sigma^2 for the Gaussian loss.  The logistic loss under
    the bounded design gives C G C^T, G = ``_bounded_logistic_moments`` at
    vec(M*); any other loss there raises ConfigurationError.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    C = _pair(theta_star, np.asarray(directions, dtype=float))
    C = C.reshape(C.shape[0], -1)
    M = theta_star @ theta_star.T
    if dgp.design != "bounded" or isinstance(loss, GaussianNLL):
        # a = b z* / s^2 + r, with r independent of z* ~ N(0, s^2)
        s2 = float(np.sum(M * M))
        mean, tail = _stein_moments(loss, math.sqrt(s2))
        H = mean * (C @ C.T)
        if s2 > 0.0:
            b = C @ M.ravel()
            H += (tail - mean) / s2 * np.outer(b, b)
    elif isinstance(loss, Logistic):
        H = C @ _bounded_logistic_moments(M.ravel()) @ C.T
    else:
        raise ConfigurationError(
            f"no population curvature for {loss!r} under the bounded design")
    return 0.5 * (H + H.T)

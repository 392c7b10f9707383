"""Measurement model and analytic derivatives for generalized low-rank sensing.

The observation model is ``y_i ~ noise(z_i)`` with ``z_i = <X_i, theta theta^T>``,
where ``X_i`` is a d x d measurement matrix, ``theta`` is a d x k factor and
``<.,.>`` is the Frobenius inner product.  The empirical objective is the mean
of a scalar loss ``ell(z_i, y_i)``; everything downstream (gradient, curvature,
third derivative) is computed from the analytic derivatives of ``ell`` in its
first argument.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError
from .jsonable import JsonFields


# ---------------------------------------------------------------------------
# Loss families
# ---------------------------------------------------------------------------

class LossModel:
    """Scalar loss ell(z, y) with analytic derivatives in z.

    Subclasses implement ``value``, ``d1``, ``d2``, ``d3`` (all vectorized
    over z and y) and expose two floats used by the theory certificates:

    - ``k_lipschitz``: Lipschitz constant of ell' and ell'' in z,
    - ``mu0``: lower bound on the conditional mean of ell'' at well-specified
      data (strong-convexity floor).
    """

    k_lipschitz: float = 1.0
    mu0: float = 1.0

    def value(self, z, y):
        raise NotImplementedError

    def d1(self, z, y):
        raise NotImplementedError

    def d2(self, z, y):
        raise NotImplementedError

    def d3(self, z, y):
        raise NotImplementedError

    def validate_targets(self, y):
        """Raise ValueError if the targets are outside the loss's domain."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")

    def conditional_moments(self, z):
        """Conditional means of (ell', ell'', ell''') given z under matched noise.

        "Matched" means the target is drawn from the noise model whose negative
        log-likelihood this loss is; the first moment is then identically zero.
        """
        raise NotImplementedError


class GaussianNLL(LossModel):
    """Gaussian negative log-likelihood, ell(z, y) = (z - y)^2 / (2 sigma^2).

    The 1/(2 sigma^2) scaling makes ell'(z*, y) = -eps / sigma^2 for additive
    noise eps, so the score covariance equals the expected curvature exactly
    when the noise scale matches ``sigma``.
    """

    def __init__(self, sigma=1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self._inv_var = 1.0 / self.sigma**2
        self.k_lipschitz = max(1.0, self._inv_var)
        self.mu0 = min(1.0, self._inv_var)

    def value(self, z, y):
        r = np.asarray(z, dtype=float) - y
        return 0.5 * self._inv_var * r * r

    def d1(self, z, y):
        return (np.asarray(z, dtype=float) - y) * self._inv_var

    def d2(self, z, y):
        return np.full_like(np.asarray(z, dtype=float), self._inv_var)

    def d3(self, z, y):
        return np.zeros_like(np.asarray(z, dtype=float))

    def conditional_moments(self, z):
        z = np.asarray(z, dtype=float)
        return (np.zeros_like(z),
                np.full_like(z, self._inv_var),
                np.zeros_like(z))

    def __repr__(self):
        return f"GaussianNLL(sigma={self.sigma})"


class Logistic(LossModel):
    """Logistic loss ell(z, y) = log(1 + e^z) - y z for binary targets."""

    # ell' is 1/4-Lipschitz and ell'' is 1/(6 sqrt 3)-Lipschitz; clamp to the
    # >= 1 convention used by the certificates.
    k_lipschitz = 1.0
    mu0 = 1e-6  # no global curvature floor; refine per problem via constants

    def value(self, z, y):
        z = np.asarray(z, dtype=float)
        return np.logaddexp(0.0, z) - y * z

    def d1(self, z, y):
        return expit(z) - y

    def d2(self, z, y):
        s = expit(z)
        return s * (1.0 - s)

    def d3(self, z, y):
        s = expit(z)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    def validate_targets(self, y):
        super().validate_targets(y)
        y = np.asarray(y, dtype=float)
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic loss requires targets in {0, 1}")

    def conditional_moments(self, z):
        s = expit(z)
        d2 = s * (1.0 - s)
        return (np.zeros_like(d2), d2, d2 * (1.0 - 2.0 * s))

    def __repr__(self):
        return "Logistic()"


def evaluate_loss(loss, z, y):
    """Return (value, d1, d2, d3) of the loss at a scalar (z, y)."""
    if not (np.isfinite(z) and np.isfinite(y)):
        raise ValueError("z and y must be finite")
    loss.validate_targets(np.asarray([y]))
    return (float(loss.value(z, y)), float(loss.d1(z, y)),
            float(loss.d2(z, y)), float(loss.d3(z, y)))


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

    @classmethod
    def from_json_dict(cls, obj):
        return cls(d=int(obj["d"]), k=int(obj["k"]),
                   X_max=float(obj["X_max"]),
                   sigma_min=float(obj["sigma_min"]),
                   sigma_max=float(obj["sigma_max"]),
                   sigma_eps=float(obj["sigma_eps"]),
                   mu_max=float(obj["mu_max"]),
                   K_ell=float(obj["K_ell"]),
                   mu0=float(obj["mu0"]),
                   lambda0=float(obj["lambda0"]))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    """n measurement pairs: X is (n, d, d), y is (n,).  k is the target rank."""

    X: np.ndarray
    y: np.ndarray
    k: int | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 3 or X.shape[1] != X.shape[2]:
            raise ValueError(f"X must be (n, d, d), got {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one entry per measurement matrix")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @functools.cached_property
    def F(self):
        """Symmetrized design X_i + X_i^T, computed on first use."""
        return self.X + self.X.transpose(0, 2, 1)

    def to_json(self):
        return json.dumps({
            "d": self.d,
            "k": self.k,
            "samples": [{"X": Xi.tolist(), "y": float(yi)}
                        for Xi, yi in zip(self.X, self.y)],
        })

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        d = int(obj["d"])
        X = np.array([s["X"] for s in obj["samples"]], dtype=float)
        y = np.array([s["y"] for s in obj["samples"]], dtype=float)
        if X.shape[1:] != (d, d):
            raise ValueError("sample matrices do not match declared dimension")
        k = obj.get("k")
        return cls(X=X, y=y, k=None if k is None else int(k))


# ---------------------------------------------------------------------------
# Design maps
# ---------------------------------------------------------------------------
# Every derivative, curvature and the fit are built from three maps of a
# stack of d x d matrices, each one BLAS call on the stack viewed as 2-D.

def design_forward(X, M):
    """Vector of <X_i, M> for every matrix of the (n, d, d) stack X."""
    return X.reshape(X.shape[0], -1) @ np.ravel(M)


def design_adjoint(F, w):
    """Matrix sum_i w_i F_i: the adjoint of the forward map on the stack F."""
    n, d, _ = F.shape
    return (F.reshape(n, d * d).T @ w).reshape(d, d)


def pair_products(F, theta):
    """(n, d, k) stack of F_i theta."""
    n, d, _ = F.shape
    return (F.reshape(n * d, d) @ theta).reshape(n, d, -1)


def pair_coordinates(F, theta, directions):
    """(n, m) matrix of <F_i theta, D_j> for a (m, d, k) stack of directions.

    With F_i = X_i + X_i^T this is <X_i, theta D_j^T + D_j theta^T>, the
    first-order change of the prediction z_i along D_j.
    """
    B = pair_products(F, theta)
    return B.reshape(B.shape[0], -1) @ directions.reshape(len(directions), -1).T


def _pair(A, B):
    """A B^T + B A^T, so that <X, _pair(A, B)> = <(X + X^T) A, B>."""
    return A @ B.T + B @ A.T


# ---------------------------------------------------------------------------
# Core predictions and derivatives
# ---------------------------------------------------------------------------

def predict(X, theta):
    """Frobenius inner product <X, theta theta^T>."""
    X = np.asarray(X, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if X.shape != (theta.shape[0], theta.shape[0]):
        raise ValueError(
            f"shape mismatch: X is {X.shape}, theta is {theta.shape}")
    return float(design_forward(X[None], theta @ theta.T)[0])


def predictions(dataset, theta):
    """Vector of <X_i, theta theta^T> for every sample."""
    theta = np.asarray(theta, dtype=float)
    if dataset.d != theta.shape[0]:
        raise ValueError("dataset and factor dimensions disagree")
    return design_forward(dataset.X, theta @ theta.T)


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
    z = predictions(dataset, theta)
    w = loss.d1(z, dataset.y)
    return design_adjoint(dataset.F, w) @ theta / dataset.n


def hessian_bilinear(dataset, theta, Z, W, loss):
    """Second derivative of the empirical loss as a bilinear form on (Z, W)."""
    W = np.asarray(W, dtype=float)
    if W.shape != np.shape(theta):
        raise ValueError("Z and W must match the factor shape")
    return float(np.sum(hessian_operator(dataset, theta, Z, loss) * W))


def hessian_operator(dataset, theta, Z, loss):
    """Riesz representative of the curvature form: <result, W> = bilinear(Z, W)."""
    theta = np.asarray(theta, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != theta.shape:
        raise ValueError("Z must match the factor shape")
    z = predictions(dataset, theta)
    d1 = loss.d1(z, dataset.y)
    d2 = loss.d2(z, dataset.y)
    aZ = design_forward(dataset.X, _pair(theta, Z))
    F = dataset.F
    return (design_adjoint(F, d2 * aZ) @ theta
            + design_adjoint(F, d1) @ Z) / dataset.n


def third_derivative(dataset, theta, Z, W, V, loss):
    """Third derivative of the empirical loss, a symmetric trilinear form."""
    if np.shape(W) != np.shape(theta):
        raise ValueError("all directions must match the factor shape")
    R = third_derivative_operator(dataset, theta, Z, V, loss)
    return float(np.sum(R * W))


def third_derivative_operator(dataset, theta, V, W, loss):
    """Matrix R with <R, U> = third_derivative(dataset, theta, V, U, W, loss).

    This is the derivative of the curvature operator in direction W, applied
    to V; used by the curvature-Lipschitz probe.
    """
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if V.shape != theta.shape or W.shape != theta.shape:
        raise ValueError("all directions must match the factor shape")
    z = predictions(dataset, theta)
    d2 = loss.d2(z, dataset.y)
    d3 = loss.d3(z, dataset.y)
    X, F = dataset.X, dataset.F
    aV = design_forward(X, _pair(theta, V))
    aW = design_forward(X, _pair(theta, W))
    cVW = design_forward(X, _pair(V, W))
    R = (design_adjoint(F, d3 * aV * aW + d2 * cVW) @ theta
         + design_adjoint(F, d2 * aW) @ V
         + design_adjoint(F, d2 * aV) @ W)
    return R / dataset.n


# ---------------------------------------------------------------------------
# Data generating processes
# ---------------------------------------------------------------------------

# Designs with iid zero-mean unit-variance entries satisfy
# E[<X, A><X, B>] = <A, B> for arbitrary A, B, which gives the closed-form
# population curvature below.  The symmetrized design satisfies the identity
# only for symmetric arguments, so it is excluded from the closed-form route.
ISOTROPIC_DESIGNS = ("gaussian", "bounded")
DESIGNS = ("gaussian", "symmetric", "bounded")
NOISES = ("gaussian", "bernoulli")

# Bounded design draws entries uniform on [-sqrt(3), sqrt(3)]: unit variance,
# hard entry bound sqrt(3).
BOUNDED_XMAX = float(np.sqrt(3.0))


def sample_design(design, rng, n, d):
    """Draw n measurement matrices of the named design."""
    if callable(design):
        return np.asarray(design(rng, n, d), dtype=float)
    if design == "gaussian":
        return rng.standard_normal((n, d, d))
    if design == "symmetric":
        G = rng.standard_normal((n, d, d))
        return 0.5 * (G + G.transpose(0, 2, 1))
    if design == "bounded":
        return rng.uniform(-BOUNDED_XMAX, BOUNDED_XMAX, size=(n, d, d))
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
        if not callable(self.design) and self.design not in DESIGNS:
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
        return np.random.Generator(np.random.Philox(ss))


def simulate(dgp, n):
    """Draw a Dataset of n samples.  Bit-identical for equal (seed, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = dgp.rng()
    X = sample_design(dgp.design, rng, n, dgp.d)
    z = design_forward(X, dgp.theta_star @ dgp.theta_star.T)
    if dgp.noise == "gaussian":
        y = z + dgp.sigma * rng.standard_normal(n)
    else:
        y = (rng.random(n) < expit(z)).astype(float)
    return Dataset(X=X, y=y, k=dgp.k)


def matched_loss(dgp, sigma=None):
    """The loss whose score has zero conditional mean under this process."""
    if dgp.noise == "gaussian":
        return GaussianNLL(sigma=dgp.sigma if sigma is None else sigma)
    return Logistic()


def has_closed_form(design, loss):
    """Whether the population curvature has a closed form for this pair.

    It does for isotropic entrywise-iid designs with a constant conditional
    curvature (GaussianNLL).
    """
    return design in ISOTROPIC_DESIGNS and isinstance(loss, GaussianNLL)


def population_curvature(dgp, theta_star, directions, loss, n_mc=None,
                         batch=65536, return_se=False):
    """Population curvature E[mu'(z*) a_i a_j] on a (m, d, k) direction stack.

    a_i = <X, theta D_i^T + D_i theta^T> and mu' is the conditional mean of
    ell'' given z*.  When ``has_closed_form`` holds and ``n_mc`` is None
    this is ``<C_i, C_j> / sigma^2`` with C_i = theta D_i^T + D_i theta^T;
    otherwise it is a Monte Carlo average over ``n_mc`` fresh design draws,
    taken ``batch`` draws at a time.  With ``return_se`` the entrywise
    Monte Carlo standard errors (zero for the closed form) come back too.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    D = np.asarray(directions, dtype=float)
    m = D.shape[0]
    se = np.zeros((m, m))
    if has_closed_form(dgp.design, loss) and n_mc is None:
        C = (theta_star @ D.transpose(0, 2, 1) + D @ theta_star.T).reshape(m, -1)
        H = C @ C.T / loss.sigma**2
    elif n_mc is None:
        raise ConfigurationError(
            "no closed form for this design/loss; supply a Monte Carlo "
            "budget n_mc")
    else:
        rng = dgp.rng(0x9E5)
        M = theta_star @ theta_star.T
        H = np.zeros((m, m))
        H2 = np.zeros((m, m))
        remaining = int(n_mc)
        while remaining > 0:
            nb = min(batch, remaining)
            X = sample_design(dgp.design, rng, nb, dgp.d)
            mu1 = loss.conditional_moments(design_forward(X, M))[1]
            A = pair_coordinates(X + X.transpose(0, 2, 1), theta_star, D)
            H += (A * mu1[:, None]).T @ A
            if return_se:
                A2 = A * A
                H2 += (A2 * (mu1 * mu1)[:, None]).T @ A2
            remaining -= nb
        H /= n_mc
        if return_se:
            var = np.maximum(H2 / n_mc - H * H, 0.0) * n_mc / (n_mc - 1)
            se = np.sqrt(var / n_mc)
    H = 0.5 * (H + H.T)
    return (H, se) if return_se else H


def population_hessian_bilinear(dgp, theta_star, Z, W, loss,
                                n_mc=None, return_se=False):
    """Population curvature form E[ell''(z*, y) a(Z) a(W)] at the truth.

    The (Z, W) entry of ``population_curvature``: closed form where it
    exists, otherwise a Monte Carlo estimate over ``n_mc`` design draws.
    """
    H, se = population_curvature(dgp, theta_star, np.stack([Z, W]), loss,
                                 n_mc=n_mc, return_se=True)
    value = float(H[0, 1])
    return (value, float(se[0, 1])) if return_se else value

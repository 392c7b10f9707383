import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

import qsense as q
import qsense.model as model
from qsense.errors import ConfigurationError
from qsense.harness import ExperimentConfig, make_truth
from qsense.model import (Dataset, LossModel, StackRoute,
                          _bounded_logistic_moments, _pair, _stein_moments,
                          design_adjoint, design_forward, draw_statistics,
                          pair_adjoint, pair_coordinates, population_curvature,
                          predictions, sample_design, smat, svec,
                          third_derivative_operator)

from helpers import (dense_curvature, fd_gradient, fd_hessian_bilinear,
                     fd_third, full_rows_route, random_instance,
                     random_orthogonal, random_theta, rel_err,
                     sampled_curvature)


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def _predict_one(X, theta):
    """The prediction <X, theta theta^T> for one measurement matrix X."""
    return predictions(Dataset(X=np.asarray(X)[None], y=[0.0]), theta)[0]


def test_predict_identity_rank_one():
    assert _predict_one(np.eye(2), np.array([[1.0], [0.0]])) == pytest.approx(1.0)


def test_predict_zero_factor():
    X = np.random.default_rng(0).standard_normal((3, 3))
    assert _predict_one(X, np.zeros((3, 2))) == 0.0


def test_predict_matches_double_sum():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 4))
    theta = rng.standard_normal((4, 2))
    M = theta @ theta.T
    expected = sum(X[i, j] * M[i, j] for i in range(4) for j in range(4))
    assert _predict_one(X, theta) == pytest.approx(expected, rel=1e-12)


def test_predict_shape_mismatch():
    with pytest.raises(ValueError, match="dimensions disagree"):
        _predict_one(np.eye(3), np.ones((2, 1)))


# ---------------------------------------------------------------------------
# loss families
# ---------------------------------------------------------------------------

def test_gaussian_zero_residual():
    loss = q.GaussianNLL(1.0)
    assert (loss.value(0.7, 0.7), loss.d1(0.7, 0.7), loss.d2(0.7, 0.7),
            loss.d3(0.7, 0.7)) == (0.0, 0.0, 1.0, 0.0)


def test_logistic_at_origin():
    loss = q.Logistic()
    assert loss.value(0.0, 1.0) == pytest.approx(math.log(2.0))
    assert loss.d1(0.0, 1.0) == pytest.approx(-0.5)
    assert loss.d2(0.0, 1.0) == pytest.approx(0.25)
    assert loss.d3(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_logistic_derivatives_match_finite_differences():
    loss = q.Logistic()
    z, y, h = 1.5, 0.0, 1e-5
    fd1 = (loss.value(z + h, y) - loss.value(z - h, y)) / (2 * h)
    fd2 = (loss.d1(z + h, y) - loss.d1(z - h, y)) / (2 * h)
    fd3 = (loss.d2(z + h, y) - loss.d2(z - h, y)) / (2 * h)
    assert abs(loss.d1(z, y) - fd1) < 1e-8
    assert abs(loss.d2(z, y) - fd2) < 1e-8
    assert abs(loss.d3(z, y) - fd3) < 1e-8


def test_logistic_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        q.Logistic().validate_targets(np.array([0.5]))


def test_logistic_curvature_bounded():
    z = np.linspace(-30, 30, 1001)
    d2 = q.Logistic().d2(z, np.zeros_like(z))
    assert np.all(d2 > 0)
    assert np.all(d2 <= 0.25 + 1e-15)


@pytest.mark.parametrize("loss", [q.GaussianNLL(0.7), q.Logistic()])
def test_d1_d2_is_exactly_d1_and_d2(loss):
    # |z| = 800 saturates expit to exactly 0 and 1
    z = np.array([-800.0, -37.5, -1.0, 0.0, 0.3, 2.5, 40.0, 800.0])
    for y in (np.zeros_like(z), np.ones_like(z)):
        d1, d2 = loss.d1_d2(z, y)
        assert np.array_equal(d1, loss.d1(z, y))
        assert np.array_equal(d2, loss.d2(z, y))


@settings(max_examples=200, deadline=None)
@given(z=st.floats(-800.0, 800.0), y=st.sampled_from([0.0, 1.0]))
def test_logistic_value_matches_logaddexp(z, y):
    value = q.Logistic().value(np.array([z]), y)[0]
    reference = np.logaddexp(0.0, z) - y * z
    assert abs(value - reference) <= 4.4e-16 * max(1.0, abs(z))


def test_logistic_value_keeps_logaddexp_non_finite_results():
    # the fit's backtracking reads a non-finite loss as a rejected step
    z = np.array([np.inf, -np.inf, np.nan, 0.0, 745.0, -745.0])
    for y in (0.0, 1.0):
        with np.errstate(invalid="ignore"):
            value = q.Logistic().value(z, y)
            reference = np.logaddexp(0.0, z) - y * z
        assert np.array_equal(value, reference, equal_nan=True)


# ---------------------------------------------------------------------------
# empirical loss
# ---------------------------------------------------------------------------

def test_empirical_loss_zero_at_exact_fit():
    rng = np.random.default_rng(2)
    theta = random_theta(rng, 3, 2)
    X = rng.standard_normal((5, 3, 3))
    y = np.einsum("nij,ij->n", X, theta @ theta.T)
    data = Dataset(X=X, y=y, k=2)
    assert q.empirical_loss(data, theta, q.GaussianNLL(1.0)) == pytest.approx(0.0, abs=1e-24)


def test_empirical_loss_single_logistic_sample():
    data = Dataset(X=np.zeros((1, 2, 2)), y=np.array([1.0]), k=1)
    theta = np.array([[1.0], [0.0]])
    assert q.empirical_loss(data, theta, q.Logistic()) == pytest.approx(math.log(2.0))


def test_empirical_loss_is_mean_of_per_sample_values():
    rng = np.random.default_rng(3)
    data, theta, loss = random_instance(rng, 3, 1, 3)
    z = predictions(data, theta)
    per_sample = [loss.value(zi, yi) for zi, yi in zip(z, data.y)]
    assert q.empirical_loss(data, theta, loss) == pytest.approx(np.mean(per_sample), rel=1e-12)


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((0, 2, 2)), y=np.zeros(0))


# ---------------------------------------------------------------------------
# gradient / curvature / third derivative
# ---------------------------------------------------------------------------

def test_gradient_zero_at_zero_residuals():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 4, 2)
    X = rng.standard_normal((6, 4, 4))
    y = np.einsum("nij,ij->n", X, theta @ theta.T)
    data = Dataset(X=X, y=y, k=2)
    G = q.euclidean_gradient(data, theta, q.GaussianNLL(1.0))
    assert np.allclose(G, 0.0, atol=1e-12)


def test_gradient_explicit_rank_one_case():
    data = Dataset(X=np.eye(2)[None], y=np.array([0.0]), k=1)
    theta = np.array([[1.0], [0.0]])
    G = q.euclidean_gradient(data, theta, q.GaussianNLL(1.0))
    assert np.allclose(G, np.array([[2.0], [0.0]]))
    fd = fd_gradient(data, theta, q.GaussianNLL(1.0))
    assert rel_err(G, fd) < 1e-8


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    data, theta, loss = random_instance(rng, 5, 2, 12)
    G = q.euclidean_gradient(data, theta, loss)
    assert rel_err(G, fd_gradient(data, theta, loss)) < 1e-6


def test_hessian_bilinear_zero_direction():
    rng = np.random.default_rng(6)
    data, theta, loss = random_instance(rng, 3, 2, 5)
    W = rng.standard_normal(theta.shape)
    assert q.hessian_bilinear(data, theta, np.zeros_like(theta), W, loss) == 0.0


def test_hessian_bilinear_symmetric():
    rng = np.random.default_rng(7)
    data, theta, loss = random_instance(rng, 4, 2, 8)
    Z = rng.standard_normal(theta.shape)
    W = rng.standard_normal(theta.shape)
    a = q.hessian_bilinear(data, theta, Z, W, loss)
    b = q.hessian_bilinear(data, theta, W, Z, loss)
    assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(a)))


def test_hessian_bilinear_matches_finite_differences():
    rng = np.random.default_rng(8)
    data, theta, loss = random_instance(rng, 4, 2, 10)
    Z = rng.standard_normal(theta.shape)
    W = rng.standard_normal(theta.shape)
    a = q.hessian_bilinear(data, theta, Z, W, loss)
    fd = fd_hessian_bilinear(data, theta, Z, W, loss)
    assert abs(a - fd) <= 1e-5 * max(1.0, abs(a))


def test_hessian_operator_contracts_to_bilinear():
    rng = np.random.default_rng(9)
    data, theta, loss = random_instance(rng, 5, 3, 7)
    Z = rng.standard_normal(theta.shape)
    HZ = q.hessian_operator(data, theta, Z, loss)
    for _ in range(4):
        W = rng.standard_normal(theta.shape)
        assert float(np.sum(HZ * W)) == pytest.approx(
            q.hessian_bilinear(data, theta, Z, W, loss), abs=1e-12 * max(1.0, np.linalg.norm(HZ)))


def test_hessian_operator_zero_direction():
    rng = np.random.default_rng(10)
    data, theta, loss = random_instance(rng, 3, 1, 4)
    assert np.allclose(q.hessian_operator(data, theta, np.zeros_like(theta), loss), 0.0)


def test_hessian_operator_hand_case():
    # single identity measurement, rank-one factor e1
    theta = np.array([[1.0], [0.0]])
    Z = np.array([[0.0], [1.0]])
    loss = q.GaussianNLL(1.0)
    # y = 1: zero residual, and <(X + X^T) theta, Z> = 0, so the operator vanishes
    data1 = Dataset(X=np.eye(2)[None], y=np.array([1.0]), k=1)
    assert np.allclose(q.hessian_operator(data1, theta, Z, loss), 0.0)
    # y = 0: unit residual leaves only the first-derivative term, (X+X^T) Z = 2 e2
    data0 = Dataset(X=np.eye(2)[None], y=np.array([0.0]), k=1)
    HZ = q.hessian_operator(data0, theta, Z, loss)
    assert np.allclose(HZ, np.array([[0.0], [2.0]]))
    W = np.random.default_rng(11).standard_normal((2, 1))
    assert float(np.sum(HZ * W)) == pytest.approx(
        q.hessian_bilinear(data0, theta, Z, W, loss), abs=1e-12)


def test_third_derivative_vanishes_on_zero_argument():
    rng = np.random.default_rng(12)
    data, theta, loss = random_instance(rng, 3, 2, 5)
    Z = rng.standard_normal(theta.shape)
    W = rng.standard_normal(theta.shape)
    assert q.third_derivative(data, theta, Z, W, np.zeros_like(theta), loss) == 0.0


def test_third_derivative_gaussian_drops_d3_term():
    # for the Gaussian loss the pure third-derivative weight is zero, so the
    # value must equal the three curvature cross terms computed by hand
    rng = np.random.default_rng(13)
    data, theta, loss = random_instance(rng, 3, 2, 6, "gaussian")
    Z, W, V = (rng.standard_normal(theta.shape) for _ in range(3))
    F = data.X + data.X.transpose(0, 2, 1)
    B = np.einsum("nij,jk->nik", F, theta)
    z = predictions(data, theta)
    d2 = loss.d2(z, data.y)
    aZ = np.einsum("nik,ik->n", B, Z)
    aW = np.einsum("nik,ik->n", B, W)
    aV = np.einsum("nik,ik->n", B, V)
    cZW = np.einsum("nij,jk,ik->n", F, Z, W)
    cZV = np.einsum("nij,jk,ik->n", F, Z, V)
    cWV = np.einsum("nij,jk,ik->n", F, W, V)
    manual = float(np.mean(d2 * (cZW * aV + cZV * aW + cWV * aZ)))
    assert q.third_derivative(data, theta, Z, W, V, loss) == pytest.approx(manual, rel=1e-12)


def test_third_derivative_matches_finite_differences():
    rng = np.random.default_rng(14)
    data, theta, loss = random_instance(rng, 4, 2, 8, "logistic")
    Z, W, V = (rng.standard_normal(theta.shape) for _ in range(3))
    t = q.third_derivative(data, theta, Z, W, V, loss)
    fd = fd_third(data, theta, Z, W, V, loss)
    assert abs(t - fd) <= 1e-4 * max(1.0, abs(t))


def test_third_derivative_fully_symmetric():
    from itertools import permutations

    rng = np.random.default_rng(15)
    data, theta, loss = random_instance(rng, 3, 2, 5, "logistic")
    dirs = [rng.standard_normal(theta.shape) for _ in range(3)]
    vals = [q.third_derivative(data, theta, *(dirs[i] for i in p), loss)
            for p in permutations(range(3))]
    assert max(vals) - min(vals) < 1e-10 * max(1.0, abs(vals[0]))


def test_third_derivative_operator_contracts():
    rng = np.random.default_rng(16)
    data, theta, loss = random_instance(rng, 4, 2, 6, "logistic")
    V, W, U = (rng.standard_normal(theta.shape) for _ in range(3))
    R = third_derivative_operator(data, theta, V, W, loss)
    assert float(np.sum(R * U)) == pytest.approx(
        q.third_derivative(data, theta, V, U, W, loss), rel=1e-10)


# ---------------------------------------------------------------------------
# design maps
# ---------------------------------------------------------------------------

def test_design_maps_agree_with_hand_built_sums():
    rng = np.random.default_rng(19)
    n, d, k, m = 7, 4, 2, 5
    X = rng.standard_normal((n, d, d))
    U = Dataset(X=X, y=np.zeros(n)).U
    theta = rng.standard_normal((d, k))
    D = rng.standard_normal((m, d, k))
    Z = rng.standard_normal((d, k))
    w = rng.standard_normal(n)
    A = pair_coordinates(U, theta, D)
    assert A.shape == (n, m)
    hand = np.array([[np.sum((Xi + Xi.T) @ theta * Dj) for Dj in D]
                     for Xi in X])
    assert np.allclose(A, hand, rtol=1e-12, atol=1e-12)
    # the pair adjoint is the adjoint of the tangent coordinates, and the
    # hand-built sum_i w_i (X_i + X_i^T)
    lhs = np.sum(pair_adjoint(U, w) @ theta * Z)
    assert lhs == pytest.approx(w @ pair_coordinates(U, theta, Z[None])[:, 0],
                                rel=1e-12)
    hand = sum(wi * (Xi + Xi.T) for wi, Xi in zip(w, X))
    assert rel_err(pair_adjoint(U, w), hand) <= 1e-14
    # the design adjoint is the adjoint of the forward map
    M = rng.standard_normal((d, d))
    M = M + M.T
    assert np.sum(design_adjoint(U, w) * M) == pytest.approx(
        w @ design_forward(U, M), rel=1e-12)
    # a stack of matrices maps like a loop over them
    M = rng.standard_normal((m, d, d))
    stacked = design_forward(U, M)
    assert stacked.shape == (n, m)
    for j in range(m):
        assert np.allclose(stacked[:, j], design_forward(U, M[j]),
                           rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# half-vectorized coordinates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 5, 6])
def test_svec_is_an_isometry_that_reads_only_sym_x(d):
    rng = np.random.default_rng(40 + d)
    p = d * (d + 1) // 2
    X = rng.standard_normal((9, d, d))
    u = Dataset(X=X, y=np.zeros(9)).U
    assert u.shape == (9, p)
    rows, cols = np.triu_indices(d)
    off = rows != cols
    assert np.array_equal(u[:, ~off], X[:, rows[~off], cols[~off]])
    upper, lower = X[:, rows[off], cols[off]], X[:, cols[off], rows[off]]
    assert np.all(np.abs(u[:, off] - (upper + lower) / np.sqrt(2.0))
                  <= 4.5e-16 * (np.abs(upper) + np.abs(lower)))
    # <X, M> = u^T svec(M) for symmetric M, and X non-symmetric
    M = rng.standard_normal((d, d))
    M = M + M.T
    assert np.allclose(u @ svec(M), np.einsum("nij,ij->n", X, M),
                       rtol=1e-13, atol=1e-13)
    # smat inverts svec on the symmetric matrices; the derived stack is sym X
    assert rel_err(smat(svec(M)), M) <= 1e-15
    assert rel_err(Dataset(X=X, y=np.zeros(9)).X,
                   0.5 * (X + X.transpose(0, 2, 1))) <= 1e-15
    N = rng.standard_normal((d, d))
    assert np.linalg.norm(svec(N + N.T)) == pytest.approx(
        np.linalg.norm(N + N.T), rel=1e-14)


def test_gaussian_and_symmetric_designs_draw_the_same_u():
    theta = random_theta(np.random.default_rng(44), 4, 2)
    for noise in ("gaussian", "bernoulli"):
        a, b = (q.simulate(_dgp(theta, seed=45, design=design, noise=noise),
                           60) for design in ("gaussian", "symmetric"))
        assert a.U.tobytes() == b.U.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
    u = sample_design("symmetric", np.random.default_rng(46), 200_000, 3)
    assert u.shape == (200_000, 6)
    assert np.allclose(np.cov(u, rowvar=False), np.eye(6), atol=0.02)


def test_folded_bounded_design_has_unit_variance_and_its_bounds():
    n, d = 200_000, 3
    u = sample_design("bounded", np.random.default_rng(47), n, d)
    # the d^2 uniform entries of each X, row by row, folded
    X = np.random.default_rng(47).uniform(-np.sqrt(3.0), np.sqrt(3.0),
                                          size=(n, d, d))
    assert rel_err(u, Dataset(X=X, y=np.zeros(n)).U) <= 1e-15
    diag = np.triu_indices(d)[0] == np.triu_indices(d)[1]
    assert np.max(np.abs(u[:, diag])) <= np.sqrt(3.0)
    assert np.max(np.abs(u[:, ~diag])) <= np.sqrt(6.0)
    # Var u_ij = 1: the standard error of the sample variance is about
    # sqrt((E u^4 - 1) / n) <= 2e-3
    assert np.allclose(u.var(axis=0), 1.0, atol=0.01)
    assert np.allclose(u.mean(axis=0), 0.0, atol=0.01)


# ---------------------------------------------------------------------------
# the data route
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_compressed_and_full_row_routes_agree(seed):
    # the Gaussian loss reads p + 1 square-root rows, whose moments are the
    # n rows'; every operation on them matches the one on all n rows
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, min(d, 3) + 1))
    n = 4 * d * d + int(rng.integers(0, 600))
    data, theta, loss = random_instance(rng, d, k, n, "gaussian")
    root, rows = StackRoute(data, loss), full_rows_route(data, loss)
    p = data.U.shape[1]
    assert (root.n, rows.n) == (p + 1, n)
    # the loss and its change: each side's own resolution is about eps f
    cand = theta + 0.3 * rng.standard_normal((d, k))
    start, start_r = rows.at(theta), root.at(theta)
    assert abs(start_r.f - start.f) <= 1e-12 * start.f
    change_x = rows.at(cand).f - start.f
    change_r = root.at(cand).f - start_r.f
    assert abs(change_r - change_x) <= 1e-10 * abs(change_x) + 1e-14 * start.f
    # Sbar theta, the restricted curvature on a horizontal basis and H v
    terms_x = rows.derivative_pass(theta)
    terms_r = root.derivative_pass(theta)
    assert rel_err(terms_x[1] @ theta, terms_r[1] @ theta) <= 1e-10
    E = q.horizontal_basis(theta).elements
    assert rel_err(rows.curvature(theta, E, terms_x),
                   root.curvature(theta, E, terms_r)) <= 1e-10
    V = rng.standard_normal((d, k))
    assert rel_err(rows.curvature_apply(theta, V, terms_x),
                   root.curvature_apply(theta, V, terms_r)) <= 1e-10
    # the gradient at a perturbed point and the curvature, against the
    # oracles on the derived X
    far = theta + 0.1 * rng.standard_normal((d, k))
    assert rel_err(q.euclidean_gradient(data, far, loss),
                   root.derivative_pass(far)[1] @ far) <= 1e-10
    assert rel_err(q.hessian_operator(data, theta, V, loss),
                   root.curvature_apply(theta, V, terms_r)) <= 1e-10
    # and the starts: the spectral matrix, smat of the least-squares fit of
    # y on U, and the ray's derivatives
    m_hat = np.linalg.lstsq(data.U, data.y, rcond=None)[0]
    assert rel_err(smat(m_hat), root.spectral()) <= 1e-10
    assert rel_err(smat(m_hat), rows.spectral()) <= 1e-10
    for tau in (0.5, 1.0, 2.0):
        assert rel_err(rows.ray(theta, start.state, tau),
                       root.ray(theta, start_r.state, tau)) <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_gaussian_spectral_is_the_minimum_norm_fit_on_a_rank_deficient_design(
        seed):
    # 80 rows in a rank-10 subspace of the p = 21 coordinates: Sigma_hat is
    # singular up to rounding, and the start is smat of the minimum-norm
    # least-squares fit (a rank cut at eps instead of p eps misses it on 3
    # of these 10 designs)
    rng = np.random.default_rng([51, seed])
    U = rng.standard_normal((80, 10)) @ rng.standard_normal((10, 21))
    y = U @ rng.standard_normal(21) + 0.1 * rng.standard_normal(80)
    data = Dataset(U=U, y=y, k=2)
    m_hat = np.linalg.lstsq(U, y, rcond=None)[0]
    route = StackRoute(data, q.GaussianNLL(0.1))
    assert route.n == 80
    assert rel_err(smat(m_hat), route.spectral()) <= 1e-10


def test_compressed_rows_carry_the_moments_and_the_residual():
    # the square-root form draw_statistics draws: c L^T above a zero row,
    # the residual's square root as the last target
    rng = np.random.default_rng(56)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, sigma=0.3, seed=57), 300)
    n, p = data.U.shape
    root = data.compressed
    assert data.compressed is root and root.compressed is root
    assert root.U.shape == (p + 1, p) and root.k == data.k
    assert not root.U[-1].any()
    assert np.array_equal(root.U[:p], np.triu(root.U[:p]))
    assert rel_err(root.U.T @ root.U / (p + 1),
                   data.U.T @ data.U / n) <= 1e-14
    assert rel_err(root.U.T @ root.y / (p + 1),
                   data.U.T @ data.y / n) <= 1e-12
    m_hat = np.linalg.lstsq(data.U, data.y, rcond=None)[0]
    rss = float(np.sum((data.U @ m_hat - data.y) ** 2))
    assert root.y[-1] == pytest.approx(math.sqrt((p + 1) / n * rss), rel=1e-10)
    # p + 1 rows or fewer are read as they are
    few = Dataset(U=data.U[:p + 1], y=data.y[:p + 1], k=2)
    assert few.compressed is few


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="no extended precision to compare with")
@pytest.mark.parametrize("sigma", [0.01, 1e-6])
def test_rounding_bounds_the_loss_and_gradient_errors(sigma):
    # at a fitted factor, where the last steps are judged by the loss's
    # error (the route bounds no gradient error): the same sum in extended
    # precision, from the same rows and m
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=sigma, n=8000,
                           replications=1, seed=2024)
    data = q.simulate(cfg.make_dgp(make_truth(cfg), 1, 0), cfg.n)
    loss = cfg.make_loss()
    route = StackRoute(data, loss)
    theta = q.fit(data, loss, cfg.fit_config(0)).theta0
    point = route.at(theta)
    U, y = route.U.astype(np.longdouble), route.y.astype(np.longdouble)
    m = model.svec(theta @ theta.T).astype(np.longdouble)
    r = U @ m - y
    f = np.mean(r * r) * np.longdouble(loss._inv_var) / 2
    assert abs(float(f - np.longdouble(point.f))) <= route.rounding(point)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_compression_keeps_the_rows_where_a_singular_gram_has_a_cholesky(
        seed):
    # 80 rows of rank p - 1 = 20: U^T U is singular, but its Cholesky
    # factor exists with a pivot at rounding level (about 1e-8 of the
    # largest); rows compressed from it would start the fit elsewhere than
    # the minimum-norm least-squares fit
    rng = np.random.default_rng([55, seed])
    U = rng.standard_normal((80, 20)) @ rng.standard_normal((20, 21))
    y = U @ rng.standard_normal(21) + 0.1 * rng.standard_normal(80)
    L = np.linalg.cholesky(U.T @ U)
    assert np.min(np.diag(L)) <= 1e-6 * np.max(np.diag(L))
    data = Dataset(U=U, y=y, k=2)
    assert data.compressed is data
    route = StackRoute(data, q.GaussianNLL(0.1))
    assert route.n == 80
    m_hat = np.linalg.lstsq(U, y, rcond=None)[0]
    assert rel_err(smat(m_hat), route.spectral()) <= 1e-10


@pytest.mark.parametrize("loss_kind", ["gaussian", "logistic"])
def test_stack_route_matches_the_oracles_on_the_derived_stack(loss_kind):
    rng = np.random.default_rng(50)
    data, theta, loss = random_instance(rng, 5, 2, 90, loss_kind)
    # on all n rows; the square-root rows are checked against these above
    stack = full_rows_route(data, loss)
    X = data.X
    terms = stack.derivative_pass(theta)
    assert rel_err(terms[1] @ theta,
                   q.euclidean_gradient(data, theta, loss)) <= 1e-10
    V = rng.standard_normal(theta.shape)
    assert rel_err(stack.curvature_apply(theta, V, terms),
                   q.hessian_operator(data, theta, V, loss)) <= 1e-10
    # the restricted curvature: <E_i, hess E_j> from the oracle
    E = q.horizontal_basis(theta).elements
    oracle = np.array([[q.hessian_bilinear(data, theta, Ei, Ej, loss)
                        for Ej in E] for Ei in E])
    assert rel_err(stack.curvature(theta, E, terms), oracle) <= 1e-10
    # the backprojection, or for the Gaussian loss the least-squares fit
    spectral = np.tensordot(data.y, X, axes=1) / data.n
    if loss_kind == "gaussian":
        spectral = smat(np.linalg.lstsq(data.U, data.y, rcond=None)[0])
    assert rel_err(stack.spectral(), spectral) <= 1e-10
    assert rel_err(stack.state(theta),
                   np.einsum("nij,ij->n", X, theta @ theta.T)) <= 1e-10


_BLOCK = model._CURVATURE_ROWS


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               3 * _BLOCK + 17])
@pytest.mark.parametrize("loss_kind", ["logistic", "gaussian"])
def test_stack_curvature_matches_the_dense_build_across_row_blocks(loss_kind,
                                                                   n):
    # the Gaussian loss reads p + 1 square-root rows in a fit; its route on
    # all n rows is built here
    rng = np.random.default_rng([53, n])
    data, theta, loss = random_instance(rng, 6, 2, n, loss_kind)
    stack = full_rows_route(data, loss)
    assert stack.n == n
    E = q.horizontal_basis(theta).elements
    terms = stack.derivative_pass(theta)
    assert rel_err(stack.curvature(theta, E, terms),
                   dense_curvature(stack, theta, E, terms)) <= 1e-12


def test_stack_curvature_holds_one_row_block_at_a_time():
    # criterion-5 logistic scale: the (n, m) pair coordinates of all rows
    # would take n m 8 bytes (1.4 MB), two of them the dense build
    n = 16_000
    rng = np.random.default_rng(54)
    theta = random_theta(rng, 6, 2)
    data = Dataset(U=rng.standard_normal((n, 21)),
                   y=(rng.random(n) < 0.5).astype(float), k=2)
    stack = StackRoute(data, q.Logistic())
    E = q.horizontal_basis(theta).elements
    terms = stack.derivative_pass(theta)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        stack.curvature(theta, E, terms)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < n * len(E) * 8


# ---------------------------------------------------------------------------
# population curvature
# ---------------------------------------------------------------------------

def _dgp(theta, seed=0, design="gaussian", noise="gaussian", sigma=1.0):
    return q.DataGeneratingProcess(theta_star=theta, design=design,
                                   noise=noise, sigma=sigma, seed=seed)


def test_population_hessian_annihilates_verticals():
    rng = np.random.default_rng(17)
    theta = random_theta(rng, 4, 2)
    A = q.skew_basis(2)[0]
    Z = theta @ A
    val = population_curvature(_dgp(theta), theta, np.stack([Z, Z]),
                               q.GaussianNLL(1.0))[0, 1]
    assert abs(val) < 1e-10


def test_population_hessian_explicit_value():
    theta = np.array([[1.0], [0.0]])
    Z = np.array([[0.0], [1.0]])
    val = population_curvature(_dgp(theta), theta, np.stack([Z, Z]),
                               q.GaussianNLL(1.0))[0, 1]
    assert val == pytest.approx(2.0)


def test_population_hessian_monte_carlo_matches_closed_form():
    rng = np.random.default_rng(18)
    theta = random_theta(rng, 3, 2)
    Z = rng.standard_normal(theta.shape)
    W = rng.standard_normal(theta.shape)
    loss = q.GaussianNLL(1.0)
    dgp = _dgp(theta, seed=42)
    exact = population_curvature(dgp, theta, np.stack([Z, W]), loss)
    mc, se = sampled_curvature(dgp, theta, np.stack([Z, W]), loss, 200_000)
    assert abs(mc[0, 1] - exact[0, 1]) <= 3.0 * se[0, 1]


def test_population_hessian_rejects_other_losses_on_bounded_design():
    rng = np.random.default_rng(19)
    theta = random_theta(rng, 3, 1)
    dgp = _dgp(theta, design="bounded", noise="bernoulli")
    with pytest.raises(ConfigurationError):
        population_curvature(dgp, theta, np.stack([theta, theta]),
                             LossModel())


@pytest.mark.parametrize("scale", [1.0, 5.0])
def test_bounded_logistic_quadrature_converges(scale):
    # the step follows |w|_1; halving it must not move H* (the trapezoid
    # rule converges geometrically for this integrand)
    cfg = ExperimentConfig(d=6, k=2, loss="logistic", design="bounded",
                           n=16000, seed=2024)
    theta = scale * make_truth(cfg)
    E = q.horizontal_basis(theta).elements
    C = _pair(theta, E).reshape(len(E), -1)
    w = (theta @ theta.T).ravel()
    H = population_curvature(cfg.make_dgp(theta), theta, E, q.Logistic())
    G = _bounded_logistic_moments(w, refine=2)
    assert rel_err(H, C @ G @ C.T) <= 1e-12


@pytest.mark.parametrize("s", [0.05, 0.5, 1.6, 5.0, 13.5, 30.0])
def test_logistic_stein_moments_match_monte_carlo(s):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        mean, tail = _stein_moments(q.Logistic(), s)
    rng = np.random.default_rng(int(10 * s))
    sums = np.zeros((2, 2))
    draws = 4_000_000
    for _ in range(4):
        u = rng.standard_normal(draws // 4)
        curv = q.Logistic().d2(s * u, None)
        for row, values in enumerate((curv, curv * u * u)):
            sums[row] += values.sum(), (values * values).sum()
    mc = sums[:, 0] / draws
    se = np.sqrt((sums[:, 1] / draws - mc * mc) / draws)
    assert np.all(np.abs(np.array([mean, tail]) - mc) <= 4.0 * se)


@pytest.mark.parametrize("design", ["gaussian", "symmetric", "bounded"])
def test_logistic_exact_population_curvature_matches_monte_carlo(design):
    rng = np.random.default_rng(23)
    theta = random_theta(rng, 4, 2)
    E = q.horizontal_basis(theta).elements
    dgp = _dgp(theta, seed=24, design=design, noise="bernoulli")
    exact = population_curvature(dgp, theta, E, q.Logistic())
    mc, se = sampled_curvature(dgp, theta, E, q.Logistic(), 200_000)
    assert np.all(np.abs(exact - mc) <= 4.0 * se)


@pytest.mark.parametrize("design", ["gaussian", "symmetric", "bounded"])
def test_gaussian_exact_population_curvature_is_closed_form(design):
    rng = np.random.default_rng(25)
    theta = random_theta(rng, 4, 2)
    E = q.horizontal_basis(theta).elements
    C = np.array([(theta @ D.T + D @ theta.T).ravel() for D in E])
    H = population_curvature(_dgp(theta, design=design), theta, E,
                             q.GaussianNLL(0.3))
    assert np.allclose(H, C @ C.T / 0.3**2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("loss", [q.GaussianNLL(1.0), q.Logistic()])
def test_population_hessian_vanishes_at_zero_truth(loss):
    theta = np.zeros((3, 2))
    Z = np.ones((3, 2))
    assert population_curvature(_dgp(theta), theta, np.stack([Z, Z]),
                                loss)[0, 1] == 0.0


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_deterministic():
    rng = np.random.default_rng(20)
    theta = random_theta(rng, 3, 2)
    dgp = _dgp(theta, seed=123)
    a = q.simulate(dgp, 50)
    b = q.simulate(dgp, 50)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_simulate_noiseless_measurements_exact():
    rng = np.random.default_rng(21)
    theta = random_theta(rng, 3, 1)
    data = q.simulate(_dgp(theta, sigma=0.0), 40)
    z = predictions(data, theta)
    assert np.array_equal(data.y, z)


def test_simulate_rejects_nonpositive_n():
    theta = np.ones((2, 1))
    with pytest.raises(ValueError):
        q.simulate(_dgp(theta), 0)


# ---------------------------------------------------------------------------
# drawn statistics
# ---------------------------------------------------------------------------

def test_anchored_loss_equals_the_empirical_loss():
    # two (p + 1)-row square-root forms of a simulated dataset, R of the QR
    # of [U y] and the Cholesky form the route reads, give the n-sample
    # loss as a row mean
    rng = np.random.default_rng(30)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, sigma=0.3, seed=31), 300)
    p = data.U.shape[1]
    R = np.linalg.qr(np.column_stack([data.U, data.y]), mode="r")
    R *= math.sqrt((p + 1) / data.n)
    root = Dataset(U=R[:, :p], y=R[:, p], k=2)
    loss = q.GaussianNLL(0.3)
    routes = (StackRoute(root, loss), StackRoute(data, loss))
    assert [route.n for route in routes] == [p + 1, p + 1]
    for _ in range(20):
        at = theta + rng.standard_normal(theta.shape) * rng.choice([0.01, 1.0])
        true = q.empirical_loss(data, at, loss)
        for route in routes:
            assert abs(route.at(at).f - true) <= 1e-12 * true


def test_drawn_statistics_satisfy_the_normal_equations():
    # p + 1 rows: c L^T above a zero row, y[-1] the residual's square root
    rng = np.random.default_rng(32)
    theta = random_theta(rng, 3, 2)
    p = 6
    for sigma in (0.0, 0.1, 2.0):
        data = draw_statistics(_dgp(theta, sigma=sigma, seed=33), 200)
        assert data.U.shape == (p + 1, p) and data.y.shape == (p + 1,)
        assert (data.d, data.k) == (3, 2)
        assert not data.U[-1].any()
        assert np.array_equal(data.U[:p], np.triu(data.U[:p]))
        assert (data.y[-1] == 0.0) == (sigma == 0)
        # the top block's exact solve is the least-squares fit m_hat
        gram, xy = data.U.T @ data.U / data.n, data.U.T @ data.y / data.n
        m_hat = np.linalg.solve(data.U[:p], data.y[:p])
        assert np.linalg.norm(gram @ m_hat - xy) <= 1e-12 * np.linalg.norm(xy)
    again = draw_statistics(_dgp(theta, sigma=2.0, seed=33), 200)
    assert again.U.tobytes() == data.U.tobytes()
    assert again.y.tobytes() == data.y.tobytes()


def test_datasets_carry_the_samples_they_stand_for():
    # p + 1 = 22 rows at d = 6, drawn or compressed, stand for all n samples
    rng = np.random.default_rng(34)
    dgp = _dgp(random_theta(rng, 6, 2), sigma=0.5, seed=35)
    drawn = draw_statistics(dgp, 8000)
    assert (drawn.n, drawn.samples) == (22, 8000)
    rows = q.simulate(dgp, 100)
    assert (rows.n, rows.samples) == (100, 100)
    compressed = rows.compressed
    assert compressed is not rows
    assert (compressed.n, compressed.samples) == (22, 100)


def test_drawn_statistics_follow_the_documented_stream_order():
    # the p diagonal chi^2, the entries below the diagonal row by row, xi,
    # then the residual's chi^2, all from one dgp.rng() stream
    theta = np.array([[0.9, 0.1], [-0.4, 0.7], [0.2, -0.3]])
    dgp = _dgp(theta, sigma=0.7, seed=37)
    n, p = 40, 6
    rng = dgp.rng()
    chi2 = rng.chisquare(n - np.arange(p))
    below = iter(rng.standard_normal(p * (p - 1) // 2))
    xi = rng.standard_normal(p)
    resid_chi2 = float(rng.chisquare(n - p))
    L = np.diag(np.sqrt(chi2))
    for i in range(p):
        for j in range(i):
            L[i, j] = next(below)
    c = math.sqrt((p + 1) / n)
    m_star = svec(theta @ theta.T)
    data = draw_statistics(dgp, n)
    assert data.U.tobytes() == np.vstack([c * L.T, np.zeros(p)]).tobytes()
    assert data.y.tobytes() == (c * np.append(
        L.T @ m_star + dgp.sigma * xi,
        dgp.sigma * math.sqrt(resid_chi2))).tobytes()


def test_drawn_statistics_are_fit_as_they_are():
    # a drawn design is a dataset like any other: the Gaussian loss reads
    # its p + 1 rows as they are, and the logistic loss rejects its targets
    rng = np.random.default_rng(35)
    theta = random_theta(rng, 3, 2)
    data = draw_statistics(_dgp(theta, sigma=0.1, seed=36), 20)
    loss = q.GaussianNLL(0.1)
    assert data.compressed is data
    assert q.fit(data, loss).converged
    with pytest.raises(ValueError, match="targets"):
        q.fit(data, q.Logistic())


def _moment_check(draws, mean, var):
    """|sample mean - mean| and |sample variance - var| in standard errors."""
    N = draws.shape[0]
    centered = draws - draws.mean(axis=0)
    s2 = np.mean(centered**2, axis=0) * N / (N - 1)
    m4 = np.mean(centered**4, axis=0)
    return (np.abs(draws.mean(axis=0) - mean) / np.sqrt(var / N),
            np.abs(s2 - var) / np.sqrt((m4 - s2**2) / N))


def test_drawn_statistics_follow_the_wishart_and_chi_square_laws():
    # n Sigma_hat ~ Wishart(n, I_p), p = d (d + 1) / 2; n b = U^T y has mean
    # n m* and per-sample covariance (|m*|^2 + sigma^2) I + m* m*^T
    # (Isserlis); the residual is sigma^2 chi^2_{n - p}
    theta = np.array([[0.9, 0.1], [-0.4, 0.7]])
    sigma, n, N = 0.5, 24, 4000
    p = 3
    m_star = svec(theta @ theta.T)
    draws = [draw_statistics(_dgp(theta, sigma=sigma, seed=(34, i)), n)
             for i in range(N)]
    upper = np.triu_indices(p)
    gram = np.array([(s.U.T @ s.U / s.n)[upper] for s in draws])
    xy = np.array([s.U.T @ s.y / s.n for s in draws])
    resid = np.array([n / (p + 1) * s.y[-1] ** 2 for s in draws])
    diag = (upper[0] == upper[1]).astype(float)
    checks = [
        _moment_check(gram, diag, (1.0 + diag) / n),
        _moment_check(xy, m_star, (m_star @ m_star + sigma**2 + m_star**2) / n),
        _moment_check(resid[:, None], sigma**2 * (n - p),
                      2.0 * sigma**4 * (n - p)),
    ]
    for mean_se, var_se in checks:
        assert np.all(mean_se <= 5.0) and np.all(var_se <= 5.0)


def test_statistics_are_drawn_only_for_gaussian_design_and_noise():
    theta = np.ones((2, 1))
    for design, noise in (("bounded", "gaussian"), ("gaussian", "bernoulli")):
        dgp = q.DataGeneratingProcess(theta_star=theta, design=design,
                                      noise=noise, seed=0)
        with pytest.raises(ConfigurationError):
            draw_statistics(dgp, 100)
    with pytest.raises(ValueError, match="n > d"):
        draw_statistics(_dgp(theta), 3)  # p = 3 at d = 2


def test_score_mean_law_of_large_numbers():
    # well-specified noise: the mean score at the truth shrinks like 1/sqrt(n)
    rng = np.random.default_rng(22)
    theta = random_theta(rng, 3, 2)
    n = 100_000
    data = q.simulate(_dgp(theta, seed=77, sigma=1.0), n)
    loss = q.GaussianNLL(1.0)
    eps = loss.d1(predictions(data, theta), data.y)
    sigma_eps = 1.0
    assert abs(float(np.mean(eps))) <= 4.0 * sigma_eps / math.sqrt(n)


def test_bounded_design_respects_entry_bound():
    rng = np.random.default_rng(27)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, design="bounded"), 500)
    assert np.max(np.abs(data.X)) <= np.sqrt(3.0)


def test_bernoulli_simulation_targets_binary():
    rng = np.random.default_rng(23)
    theta = random_theta(rng, 3, 1)
    data = q.simulate(_dgp(theta, noise="bernoulli"), 200)
    assert set(np.unique(data.y)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_loss_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    data, theta, loss = random_instance(rng, 4, k, 6)
    U = random_orthogonal(rng, k)
    a = q.empirical_loss(data, theta, loss)
    b = q.empirical_loss(data, theta @ U, loss)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_gradient_has_no_vertical_component():
    rng = np.random.default_rng(24)
    data, theta, loss = random_instance(rng, 5, 3, 10)
    G = q.euclidean_gradient(data, theta, loss)
    for A in q.skew_basis(3):
        assert abs(float(np.sum(G * (theta @ A)))) < 1e-10


def test_gradient_vertical_degeneracy_at_noiseless_minimum():
    rng = np.random.default_rng(25)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, sigma=0.0), 30)
    G = q.euclidean_gradient(data, theta, q.GaussianNLL(1.0))
    for A in q.skew_basis(2):
        assert abs(float(np.sum(G * (theta @ A)))) < 1e-12


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------

def test_dataset_json_round_trip():
    rng = np.random.default_rng(26)
    data, _, _ = random_instance(rng, 3, 2, 4)
    text = data.to_json()
    back = Dataset.from_json(text)
    # the file holds sym X, whose off-diagonal entries are u_ij / sqrt 2:
    # folding them back costs a rounding or two
    assert np.allclose(back.U, data.U, rtol=1e-15, atol=0.0)
    assert np.array_equal(back.y, data.y)
    assert back.k == data.k
    obj = json.loads(text)
    assert obj["d"] == 3 and obj["k"] == 2 and len(obj["samples"]) == 4
    X = np.array([s["X"] for s in obj["samples"]])
    assert np.array_equal(X, X.transpose(0, 2, 1))


def test_dataset_takes_exactly_one_design_of_a_valid_shape():
    with pytest.raises(ValueError, match="exactly one"):
        Dataset(y=np.zeros(2))
    with pytest.raises(ValueError, match="exactly one"):
        Dataset(X=np.zeros((2, 2, 2)), U=np.zeros((2, 3)), y=np.zeros(2))
    with pytest.raises(ValueError, match="no half-vectorized"):
        Dataset(U=np.zeros((2, 4)), y=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        Dataset(X=np.full((1, 2, 2), np.inf), y=np.zeros(1))
    data = Dataset(U=np.arange(6.0)[None], y=np.zeros(1))
    assert (data.n, data.d) == (1, 3)
    assert np.array_equal(data.X[0], data.X[0].T)


def test_non_symmetric_data_fit_like_their_symmetrized_twin():
    rng = np.random.default_rng(48)
    for loss_kind in ("gaussian", "logistic"):
        # random_instance draws non-symmetric X; the twin holds sym X
        data, _, loss = random_instance(rng, 4, 2, 400, loss_kind)
        twin = Dataset(X=data.X, y=data.y, k=2)
        assert rel_err(twin.U, data.U) <= 1e-15
        a, b = q.fit(data, loss), q.fit(twin, loss)
        assert a.converged and b.converged
        assert q.align(a.theta0, b.theta0).distance <= \
            1e-10 * np.linalg.norm(a.theta0)

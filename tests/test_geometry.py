import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsense as q
from qsense.errors import DegenerateFactorError, OutOfInjectivityError
from qsense.geometry import GS_DROP_TOL, check_within_radius, newton_basis

from helpers import random_orthogonal, random_theta


# ---------------------------------------------------------------------------
# skew basis
# ---------------------------------------------------------------------------

def test_skew_basis_trivial_for_k1():
    assert q.skew_basis(1).shape == (0, 1, 1)


def test_skew_basis_k2():
    B = q.skew_basis(2)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(B[0], np.array([[0.0, s], [-s, 0.0]]))


def test_skew_basis_k4_orthonormal():
    B = q.skew_basis(4)
    assert B.shape[0] == 6
    flat = B.reshape(6, -1)
    gram = flat @ flat.T
    assert np.allclose(gram, np.eye(6), atol=1e-12)
    for A in B:
        assert np.max(np.abs(A + A.T)) < 1e-14


def test_skew_basis_rejects_bad_k():
    with pytest.raises(ValueError):
        q.skew_basis(0)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_vertical_projection_trivial_for_k1():
    rng = np.random.default_rng(0)
    theta = random_theta(rng, 4, 1)
    Z = rng.standard_normal((4, 1))
    assert np.allclose(q.vertical_project(theta, Z), 0.0)


def test_vertical_projection_fixes_its_range():
    rng = np.random.default_rng(1)
    theta = random_theta(rng, 5, 3)
    A0 = np.einsum("m,mij->ij", rng.standard_normal(3), q.skew_basis(3))
    Z = theta @ A0
    assert np.linalg.norm(q.vertical_project(theta, Z) - Z) < 1e-10


def test_vertical_projection_matches_least_squares_oracle():
    # brute force: solve the normal equations over the skew-basis coordinates
    rng = np.random.default_rng(2)
    theta = random_theta(rng, 5, 3)
    Z = rng.standard_normal((5, 3))
    span = np.array([theta @ A for A in q.skew_basis(3)])
    flat = span.reshape(span.shape[0], -1)
    G = flat @ flat.T
    b = flat @ Z.ravel()
    coef = np.linalg.solve(G, b)
    oracle = np.einsum("m,mij->ij", coef, span)
    assert np.linalg.norm(q.vertical_project(theta, Z) - oracle) < 1e-8


def test_vertical_projection_rejects_rank_deficiency():
    theta = np.zeros((4, 2))
    theta[:, 0] = [1.0, 0.0, 0.0, 0.0]
    theta[:, 1] = [1e-13, 0.0, 0.0, 0.0]
    with pytest.raises(DegenerateFactorError):
        q.vertical_project(theta, np.ones((4, 2)))


def test_zero_factor_is_rank_deficient_without_warnings():
    # an all-zero factor has no singular-value ratio to divide out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFactorError) as err:
            q.horizontal_basis(np.zeros((3, 2)))
    assert "nan" not in str(err.value)


def test_horizontal_projection_identity_for_k1():
    rng = np.random.default_rng(3)
    theta = random_theta(rng, 3, 1)
    Z = rng.standard_normal((3, 1))
    assert np.array_equal(q.horizontal_project(theta, Z), Z)


def test_horizontal_projection_kills_verticals():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 4, 2)
    Z = theta @ q.skew_basis(2)[0]
    assert np.linalg.norm(q.horizontal_project(theta, Z)) < 1e-10


def test_horizontal_projection_orthogonal_to_vertical_span():
    rng = np.random.default_rng(5)
    theta = random_theta(rng, 5, 3)
    Z = rng.standard_normal((5, 3))
    P = q.horizontal_project(theta, Z)
    for A in q.skew_basis(3):
        assert abs(float(np.sum(P * (theta @ A)))) < 1e-10


def test_projection_complementarity_idempotence_annihilation():
    rng = np.random.default_rng(6)
    theta = random_theta(rng, 6, 3)
    for _ in range(5):
        Z = rng.standard_normal((6, 3))
        V = q.vertical_project(theta, Z)
        H = q.horizontal_project(theta, Z)
        assert np.linalg.norm(V + H - Z) < 1e-10
        assert np.linalg.norm(q.vertical_project(theta, V) - V) < 1e-10
        assert np.linalg.norm(q.horizontal_project(theta, H) - H) < 1e-10
        assert np.linalg.norm(q.vertical_project(theta, H)) < 1e-10
        assert np.linalg.norm(q.horizontal_project(theta, V)) < 1e-10


def test_horizontal_projection_self_adjoint():
    rng = np.random.default_rng(7)
    theta = random_theta(rng, 5, 2)
    for _ in range(5):
        Z = rng.standard_normal((5, 2))
        W = rng.standard_normal((5, 2))
        a = float(np.sum(q.horizontal_project(theta, Z) * W))
        b = float(np.sum(Z * q.horizontal_project(theta, W)))
        assert abs(a - b) < 1e-10


def test_projection_equivariance_under_rotation():
    rng = np.random.default_rng(8)
    theta = random_theta(rng, 5, 3)
    U = random_orthogonal(rng, 3)
    Z = rng.standard_normal((5, 3))
    left = q.horizontal_project(theta @ U, Z @ U)
    right = q.horizontal_project(theta, Z) @ U
    assert np.linalg.norm(left - right) < 1e-10


def test_vertical_span_dimension():
    rng = np.random.default_rng(9)
    d, k = 6, 3
    theta = random_theta(rng, d, k)
    span = np.array([theta @ A for A in q.skew_basis(k)])
    rank = np.linalg.matrix_rank(span.reshape(span.shape[0], -1))
    assert rank == k * (k - 1) // 2
    assert q.horizontal_dim(d, k) + k * (k - 1) // 2 == d * k


# ---------------------------------------------------------------------------
# horizontal bases
# ---------------------------------------------------------------------------

def test_horizontal_basis_d2_k1_is_canonical():
    theta = np.array([[1.0], [2.0]])
    B = q.horizontal_basis(theta)
    assert B.m == 2
    assert np.allclose(B.elements[0], [[1.0], [0.0]])
    assert np.allclose(B.elements[1], [[0.0], [1.0]])


def test_horizontal_basis_counts():
    rng = np.random.default_rng(10)
    B = q.horizontal_basis(random_theta(rng, 3, 2))
    assert B.m == 5


def test_horizontal_basis_orthonormal_and_horizontal():
    rng = np.random.default_rng(11)
    theta = random_theta(rng, 6, 3)
    B = q.horizontal_basis(theta)
    assert B.m == 15
    flat = B.elements.reshape(15, -1)
    assert np.max(np.abs(flat @ flat.T - np.eye(15))) < 1e-10
    for e in B.elements:
        assert np.linalg.norm(q.vertical_project(theta, e)) < 1e-10


def test_horizontal_basis_deterministic():
    rng = np.random.default_rng(12)
    theta = random_theta(rng, 5, 2)
    a = q.horizontal_basis(theta)
    b = q.horizontal_basis(theta)
    assert np.array_equal(a.elements, b.elements)


def test_horizontal_basis_json_export():
    rng = np.random.default_rng(100)
    theta = random_theta(rng, 3, 2)
    basis = q.horizontal_basis(theta)
    blob = basis.to_json_dict()
    assert blob["tag"] == "lex"
    assert np.array_equal(np.array(blob["anchor"]), theta)
    assert np.array_equal(np.array(blob["elements"]), basis.elements)


def _per_unit_mgs_basis(theta, order):
    """The horizontal basis built one unit matrix at a time: each projected
    on its own, then orthonormalized by two-pass modified Gram-Schmidt."""
    d, k = theta.shape
    units = [(i, j) for i in range(d) for j in range(k)]
    if order == "revlex":
        units = units[::-1]
    kept = []
    for i, j in units:
        E = np.zeros((d, k))
        E[i, j] = 1.0
        v = q.horizontal_project(theta, E)
        for _ in range(2):
            for u in kept:
                v = v - np.sum(u * v) * u
        if np.linalg.norm(v) > GS_DROP_TOL:
            kept.append(v / np.linalg.norm(v))
    return np.array(kept)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_horizontal_basis_matches_per_unit_gram_schmidt(k, order):
    rng = np.random.default_rng(17 + k)
    for d in (k, k + 1, 6):
        theta = random_theta(rng, d, k)
        B = q.horizontal_basis(theta, order=order)
        reference = _per_unit_mgs_basis(theta, order)
        assert B.elements.shape == reference.shape
        assert np.max(np.abs(B.elements - reference)) < 1e-12


def test_vertical_projection_of_a_stack_matches_each_slice():
    rng = np.random.default_rng(18)
    theta = random_theta(rng, 5, 3)
    Z = rng.standard_normal((4, 5, 3))
    stacked = q.vertical_project(theta, Z)
    for Zi, Vi in zip(Z, stacked):
        assert np.max(np.abs(q.vertical_project(theta, Zi) - Vi)) < 1e-12


@pytest.mark.parametrize("d, k", [(6, 1), (6, 2), (5, 3), (3, 3)])
def test_newton_basis_spans_the_horizontal_space(d, k):
    rng = np.random.default_rng(102)
    theta = random_theta(rng, d, k)
    m = q.horizontal_dim(d, k)
    E = newton_basis(theta).reshape(m, -1)
    F = q.horizontal_basis(theta).elements.reshape(m, -1)
    assert np.max(np.abs(E @ E.T - np.eye(m))) < 1e-12
    assert np.max(np.abs(E.T @ E - F.T @ F)) < 1e-12


def test_newton_basis_rejects_a_zero_column():
    rng = np.random.default_rng(103)
    theta = random_theta(rng, 4, 2)
    theta[:, 1] = 0.0
    with pytest.raises(DegenerateFactorError):
        newton_basis(theta)


def test_horizontal_basis_full_rank_square_case():
    # k = d: the horizontal space is the symmetric-coefficient sector,
    # dimension k (k + 1) / 2
    rng = np.random.default_rng(101)
    theta = random_theta(rng, 3, 3)
    B = q.horizontal_basis(theta)
    assert B.m == 6 == q.horizontal_dim(3, 3)


def test_rotate_basis_identity():
    rng = np.random.default_rng(13)
    B = q.horizontal_basis(random_theta(rng, 4, 2))
    R = q.rotate_basis(B, np.eye(2))
    assert np.allclose(R.elements, B.elements)
    assert np.allclose(R.anchor, B.anchor)


def test_rotate_basis_sign_flip_k1():
    rng = np.random.default_rng(14)
    theta = random_theta(rng, 3, 1)
    B = q.horizontal_basis(theta)
    R = q.rotate_basis(B, np.array([[-1.0]]))
    assert np.allclose(R.elements, -B.elements)
    assert np.allclose(R.anchor, -theta)


def test_rotate_basis_preserves_horizontality():
    rng = np.random.default_rng(15)
    theta = random_theta(rng, 5, 3)
    B = q.horizontal_basis(theta)
    U = random_orthogonal(rng, 3)
    R = q.rotate_basis(B, U)
    for e in R.elements:
        assert np.linalg.norm(q.vertical_project(theta @ U, e)) < 1e-10
    flat = R.elements.reshape(R.m, -1)
    assert np.max(np.abs(flat @ flat.T - np.eye(R.m))) < 1e-10


def test_rotate_basis_rejects_non_orthogonal():
    rng = np.random.default_rng(16)
    B = q.horizontal_basis(random_theta(rng, 3, 2))
    with pytest.raises(ValueError):
        q.rotate_basis(B, np.array([[1.0, 0.5], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# alignment and distance
# ---------------------------------------------------------------------------

def test_align_identical_factors():
    rng = np.random.default_rng(17)
    theta = random_theta(rng, 4, 2)
    res = q.align(theta, theta)
    assert np.allclose(res.rotation, np.eye(2), atol=1e-12)
    assert res.distance == pytest.approx(0.0, abs=1e-12)


def test_align_same_orbit():
    rng = np.random.default_rng(18)
    theta = random_theta(rng, 4, 3)
    U0 = random_orthogonal(rng, 3)
    res = q.align(theta, theta @ U0)
    assert res.distance < 1e-10


def test_align_matches_angle_grid_brute_force():
    # O(2) = rotations x reflection; scan angles at 1e-3 resolution
    rng = np.random.default_rng(19)
    theta_a = random_theta(rng, 4, 2)
    theta_b = random_theta(rng, 4, 2)
    angles = np.arange(0.0, 2.0 * np.pi, 1e-3)
    c, s = np.cos(angles), np.sin(angles)
    rot = np.stack([np.stack([c, -s], axis=-1),
                    np.stack([s, c], axis=-1)], axis=-2)
    refl = rot @ np.diag([1.0, -1.0])
    best = np.inf
    for Us in (rot, refl):
        resid = np.einsum("ij,ajk->aik", theta_a, Us) - theta_b[None]
        best = min(best, float(np.sqrt(np.min(np.sum(resid**2, axis=(1, 2))))))
    assert q.align(theta_a, theta_b).distance <= best + 1e-5
    assert abs(q.align(theta_a, theta_b).distance - best) < 1e-5


def test_align_beats_random_rotations():
    rng = np.random.default_rng(20)
    theta_a = random_theta(rng, 5, 3)
    theta_b = random_theta(rng, 5, 3)
    opt = q.align(theta_a, theta_b).distance
    for _ in range(200):
        U = random_orthogonal(rng, 3)
        assert np.linalg.norm(theta_a @ U - theta_b) >= opt - 1e-10


def test_align_flags_degenerate_cross_product():
    theta_a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    theta_b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # orthogonal columns
    assert q.align(theta_a, theta_b).degenerate


def test_quotient_distance_symmetry_and_orbit_zero():
    rng = np.random.default_rng(21)
    theta = random_theta(rng, 4, 2)
    U0 = random_orthogonal(rng, 2)
    assert q.align(theta, theta @ U0).distance < 1e-10
    for _ in range(5):
        a = random_theta(rng, 4, 2)
        b = random_theta(rng, 4, 2)
        assert abs(q.align(a, b).distance - q.align(b, a).distance) < 1e-10


def test_quotient_distance_triangle_inequality():
    rng = np.random.default_rng(22)
    for _ in range(10):
        a, b, c = (random_theta(rng, 4, 2) + 0.3 * rng.standard_normal((4, 2))
                   for _ in range(3))
        assert q.align(a, c).distance <= (q.align(a, b).distance
                                          + q.align(b, c).distance + 1e-10)


# ---------------------------------------------------------------------------
# aligned chord and injectivity radius
# ---------------------------------------------------------------------------

def test_log_map_zero_on_orbit():
    rng = np.random.default_rng(23)
    theta = random_theta(rng, 4, 2)
    U0 = random_orthogonal(rng, 2)
    v = q.align(theta @ U0, theta).aligned - theta
    assert np.linalg.norm(v) < 1e-10


def test_log_map_sign_alignment_k1():
    rng = np.random.default_rng(24)
    theta = random_theta(rng, 4, 1)
    delta = rng.standard_normal((4, 1))
    delta *= 0.3 * np.linalg.norm(theta) / np.linalg.norm(delta)
    theta0 = -theta + delta
    # column oracle: the aligning sign is sign(theta0^T theta) = -1 here
    assert float((theta0.T @ theta)[0, 0]) < 0
    v = q.align(theta0, theta).aligned - theta
    assert np.allclose(v, -delta, atol=1e-12)


def test_log_map_norm_equals_distance():
    rng = np.random.default_rng(25)
    theta = random_theta(rng, 5, 2)
    for _ in range(5):
        theta0 = theta + 0.2 * rng.standard_normal((5, 2))
        v = q.align(theta0, theta).aligned - theta
        assert np.linalg.norm(v) == pytest.approx(
            q.align(theta, theta0).distance, abs=1e-10)


def test_log_map_rejects_points_beyond_radius():
    rng = np.random.default_rng(26)
    theta = random_theta(rng, 4, 2)
    far = random_theta(rng, 4, 2) * 15.0
    with pytest.raises(OutOfInjectivityError):
        check_within_radius(theta, q.align(far, theta).distance)


def test_injectivity_radius_construction():
    rng = np.random.default_rng(27)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    theta = Q @ np.diag([2.0, 1.0])
    assert q.injectivity_radius(theta) == pytest.approx(1.0)


def test_injectivity_radius_k1_is_norm():
    rng = np.random.default_rng(28)
    theta = rng.standard_normal((5, 1))
    assert q.injectivity_radius(theta) == pytest.approx(np.linalg.norm(theta))


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
def test_injectivity_radius_scales_linearly(scale, seed):
    theta = random_theta(np.random.default_rng(seed), 4, 2)
    assert q.injectivity_radius(scale * theta) == pytest.approx(
        scale * q.injectivity_radius(theta), rel=1e-12)


# ---------------------------------------------------------------------------
# the pair-map singular value inequality
# ---------------------------------------------------------------------------

def test_symmetrized_pair_norm_lower_bound():
    # for unit horizontal Z: ||theta Z^T + Z theta^T||_F^2 >= 2 sigma_k(theta)^2
    rng = np.random.default_rng(29)
    for trial in range(50):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(d, 4)))
        theta = random_theta(rng, d, k, smin=0.5, smax=2.0)
        smin = q.injectivity_radius(theta)
        Z = q.horizontal_project(theta, rng.standard_normal((d, k)))
        Z /= np.linalg.norm(Z)
        val = np.linalg.norm(theta @ Z.T + Z @ theta.T) ** 2
        assert val >= 2.0 * smin**2 - 1e-10

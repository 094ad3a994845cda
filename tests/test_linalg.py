"""Subspace-primitive tests with independent oracles.

Oracles kept separate from the implementation: classical Gram-Schmidt for
orthonormalization, 2x2 trace/determinant closed forms for eigenvalues,
and plane trigonometry for principal angles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisypca.errors import RankDeficient, ValidationError
from noisypca.linalg import (
    BasisMatrix,
    incoherence,
    orthonormalize,
    subspace_error,
    symmetric_eig,
    top_r_eigvecs,
)

from oracles import davis_kahan_bound, orthogonal_complement


def gram_schmidt_oracle(m):
    """Classical Gram-Schmidt, the independent orthonormalization route."""
    cols = []
    for j in range(m.shape[1]):
        v = m[:, j].astype(float)
        for u in cols:
            v = v - (u @ v) * u
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def eig2_oracle(mat):
    """Eigenvalues of a symmetric 2x2 via trace/determinant, descending."""
    a, b, c = mat[0, 0], mat[0, 1], mat[1, 1]
    mid = (a + c) / 2.0
    rad = np.sqrt(((a - c) / 2.0) ** 2 + b**2)
    return mid + rad, mid - rad


def random_basis(n, r, seed):
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((n, r)))


def random_rotation(r, seed):
    rng = np.random.default_rng(seed)
    q, rmat = np.linalg.qr(rng.standard_normal((r, r)))
    return q * np.sign(np.diag(rmat))


# --- orthonormalize -------------------------------------------------------

def test_orthonormalize_identity_columns_unchanged():
    m = np.eye(5)[:, :3]
    basis = orthonormalize(m)
    np.testing.assert_allclose(basis.entries, m, atol=1e-14)


def test_orthonormalize_axis_scaling():
    m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    basis = orthonormalize(m)
    np.testing.assert_allclose(basis.entries, np.eye(3)[:, :2], atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_orthonormalize_random_matches_gram_schmidt_span(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((100, 5))
    basis = orthonormalize(m)
    assert np.max(np.abs(basis.entries.T @ basis.entries - np.eye(5))) <= 1e-10
    oracle = BasisMatrix(gram_schmidt_oracle(m))
    assert subspace_error(basis, oracle) <= 1e-10


def test_orthonormalize_rank_deficient_raises():
    m = np.ones((4, 2))
    with pytest.raises(RankDeficient):
        orthonormalize(m)


# --- subspace_error -------------------------------------------------------

def test_subspace_error_identical_basis():
    p = random_basis(30, 4, 0)
    assert subspace_error(p, p) <= 1e-12


def test_subspace_error_one_orthogonal_direction():
    eye = np.eye(6)
    phat = BasisMatrix(eye[:, :3])
    p = BasisMatrix(eye[:, [0, 1, 3]])
    assert subspace_error(phat, p) == pytest.approx(1.0, abs=1e-12)


def test_subspace_error_plane_trigonometry():
    theta = 0.3
    phat = BasisMatrix(np.array([1.0, 0.0]))
    p = BasisMatrix(np.array([np.cos(theta), np.sin(theta)]))
    assert subspace_error(phat, p) == pytest.approx(np.sin(theta), abs=1e-12)
    assert subspace_error(phat, p) == pytest.approx(0.29552020666, abs=1e-9)


def test_subspace_error_dimension_mismatch():
    with pytest.raises(ValidationError, match="^ambient dims differ: 5 vs 6$"):
        subspace_error(random_basis(5, 2, 0), random_basis(6, 2, 0))


@pytest.mark.parametrize("seed", range(8))
def test_subspace_error_symmetric_and_bounded(seed):
    a = random_basis(40, 6, seed)
    b = random_basis(40, 6, seed + 100)
    err_ab = subspace_error(a, b)
    err_ba = subspace_error(b, a)
    assert abs(err_ab - err_ba) <= 1e-10
    assert -1e-12 <= err_ab <= 1 + 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_subspace_error_rotation_invariant(seed):
    a = random_basis(30, 5, seed)
    b = random_basis(30, 5, seed + 50)
    rot = random_rotation(5, seed)
    a_rot = BasisMatrix(a.entries @ rot)
    assert subspace_error(a_rot, b) == pytest.approx(subspace_error(a, b), abs=1e-10)


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 40),
    r_frac=st.floats(0.0, 1.0),
    seeds=st.tuples(*[st.integers(0, 2**32 - 1)] * 3),
)
def test_subspace_error_symmetric_and_rotation_invariant_property(n, r_frac, seeds):
    r = 1 + int(r_frac * (n - 1))
    a = random_basis(n, r, seeds[0])
    b = random_basis(n, r, seeds[1])
    rot = random_rotation(r, seeds[2])
    err = subspace_error(a, b)
    assert -1e-12 <= err <= 1 + 1e-12
    assert abs(subspace_error(b, a) - err) <= 1e-10
    assert abs(subspace_error(BasisMatrix(a.entries @ rot), b) - err) <= 1e-10
    assert abs(subspace_error(a, BasisMatrix(b.entries @ rot)) - err) <= 1e-10


# --- symmetric_eig --------------------------------------------------------

def test_symmetric_eig_diagonal():
    w, _ = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [3.0, 2.0, 1.0], atol=1e-14)


def test_symmetric_eig_2x2_closed_form():
    mat = np.array([[2.0, 0.1], [0.1, 0.5]])
    hi, lo = eig2_oracle(mat)
    w, _ = symmetric_eig(mat)
    np.testing.assert_allclose(w, [hi, lo], atol=1e-12)
    # Frozen oracle values.
    assert hi == pytest.approx(2.0066372975, abs=1e-9)
    assert lo == pytest.approx(0.4933627025, abs=1e-9)


def test_symmetric_eig_zero_matrix():
    w, _ = symmetric_eig(np.zeros((4, 4)))
    np.testing.assert_allclose(w, 0.0, atol=0.0)


def test_symmetric_eig_rejects_asymmetric():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="^input fails symmetry tolerance$"):
        symmetric_eig(mat)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_symmetric_eig_rejects_nonfinite(value):
    # A symmetric NaN passes the symmetry test (nan > tol is False), and inf - inf is NaN.
    mat = np.eye(3)
    mat[0, 1] = mat[1, 0] = value
    with pytest.raises(ValidationError, match=f"^input has a non-finite entry: max \\|S\\| = {value}$"):
        symmetric_eig(mat)


@pytest.mark.parametrize("seed", range(5))
def test_symmetric_eig_reconstruction(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((20, 20))
    s = (m + m.T) / 2
    w, v = symmetric_eig(s)
    resid = np.max(np.abs((v * w) @ v.T - s))
    snorm = np.linalg.norm(s, 2)
    assert resid <= 1e-8 * max(1.0, snorm)
    assert np.all(np.diff(w) <= 0)
    assert np.max(np.abs(v.T @ v - np.eye(20))) <= 1e-10


# --- top_r_eigvecs --------------------------------------------------------

def test_top_r_eigvecs_diagonal():
    basis = top_r_eigvecs(np.diag([5.0, 4.0, 1.0]), 2)
    expected = BasisMatrix(np.eye(3)[:, :2])
    assert subspace_error(basis, expected) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_top_r_eigvecs_construct_then_recover(seed):
    p = random_basis(50, 2, seed)
    s = (p.entries * [10.0, 9.0]) @ p.entries.T
    recovered = top_r_eigvecs(s, 2)
    assert subspace_error(recovered, p) <= 1e-8


def test_top_r_eigvecs_degenerate_spectrum():
    basis = top_r_eigvecs(np.eye(4), 1)
    assert basis.r == 1
    assert np.linalg.norm(basis.entries) == pytest.approx(1.0, abs=1e-12)


def test_top_r_eigvecs_invalid_rank():
    with pytest.raises(ValidationError, match="^need 1 <= r <= n, got r=0, n=3$"):
        top_r_eigvecs(np.eye(3), 0)
    with pytest.raises(ValidationError, match="^need 1 <= r <= n, got r=4, n=3$"):
        top_r_eigvecs(np.eye(3), 4)


@pytest.mark.parametrize("seed", range(3))
def test_top_r_eigvecs_sign_and_order_invariance(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((30, 30))
    s = (m + m.T) / 2
    basis = top_r_eigvecs(s, 4)
    # Flipping signs or relabeling tied directions cannot move the subspace.
    flipped = BasisMatrix(basis.entries * np.array([1.0, -1.0, 1.0, -1.0]))
    shuffled = BasisMatrix(flipped.entries[:, [2, 0, 3, 1]])
    assert subspace_error(shuffled, basis) <= 1e-8


# --- orthogonal_complement ------------------------------------------------

def test_complement_single_axis():
    p = BasisMatrix(np.array([1.0, 0.0]))
    comp = orthogonal_complement(p)
    assert subspace_error(comp, BasisMatrix(np.array([0.0, 1.0]))) <= 1e-12


def test_complement_identity_columns():
    n, r = 7, 3
    p = BasisMatrix(np.eye(n)[:, :r])
    comp = orthogonal_complement(p)
    expected = BasisMatrix(np.eye(n)[:, r:])
    assert comp.r == n - r
    assert subspace_error(comp, expected) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_complement_completeness_identity(seed):
    p = random_basis(50, 5, seed)
    comp = orthogonal_complement(p)
    assert comp.r == 45
    assert np.max(np.abs(comp.entries.T @ p.entries)) <= 1e-10
    ident = p.entries @ p.entries.T + comp.entries @ comp.entries.T
    assert np.max(np.abs(ident - np.eye(50))) <= 1e-10


def test_complement_of_full_basis_raises():
    with pytest.raises(ValidationError, match="^basis already spans the full space$"):
        orthogonal_complement(BasisMatrix(np.eye(3)))


# --- top-r PCA under the Davis-Kahan sin-theta bound ------------------------

def test_davis_kahan_zero_perturbation():
    d0 = np.diag([3.0, 1.0, 0.5])
    p = BasisMatrix(np.eye(3)[:, :1])
    assert davis_kahan_bound(d0, d0, p) == pytest.approx(0.0, abs=1e-14)
    assert subspace_error(top_r_eigvecs(d0, 1), p) == pytest.approx(0.0, abs=1e-14)


def test_davis_kahan_2x2_oracle():
    d0 = np.diag([2.0, 0.0])
    d = np.array([[2.0, 0.1], [0.1, 0.5]])
    p = BasisMatrix(np.array([1.0, 0.0]))
    hi, _ = eig2_oracle(d - d0)
    expected = 0.1 / (2.0 - 0.0 - hi)
    got = davis_kahan_bound(d, d0, p)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.0675335, abs=1e-6)
    # The bound must dominate the true rotation of the top eigenvector.
    true_se = subspace_error(top_r_eigvecs(d, 1), p)
    assert true_se == pytest.approx(0.0662272, abs=1e-6)
    assert true_se <= got


def test_davis_kahan_infeasible_gap():
    d0 = np.diag([1.0, 0.0])
    d = d0 + np.array([[0.0, 2.0], [2.0, 0.0]])
    p = BasisMatrix(np.array([1.0, 0.0]))
    assert davis_kahan_bound(d, d0, p) == np.inf
    # The bound is vacuous, but the error stays the plane angle of the top
    # eigenvector of [[a, b], [b, c]]: tan(2 theta) = 2b / (a - c) = 4.
    true_se = subspace_error(top_r_eigvecs(d, 1), p)
    assert true_se == pytest.approx(np.sin(np.arctan(4.0) / 2), abs=1e-12)


def test_davis_kahan_dimension_mismatch():
    with pytest.raises(ValidationError, match="^D, D0 and P must share the ambient dimension$"):
        davis_kahan_bound(np.eye(3), np.eye(3), BasisMatrix(np.array([1.0, 0.0])))
    with pytest.raises(ValidationError, match="^ambient dims differ: 3 vs 2$"):
        subspace_error(top_r_eigvecs(np.eye(3), 1), BasisMatrix(np.array([1.0, 0.0])))


@pytest.mark.parametrize("seed", range(10))
def test_davis_kahan_dominates_true_error(seed):
    rng = np.random.default_rng(seed)
    n, r = 20, 3
    p = orthonormalize(rng.standard_normal((n, r)))
    d0 = (p.entries * [5.0, 4.0, 3.0]) @ p.entries.T
    noise = rng.standard_normal((n, n)) * 0.05
    d = d0 + (noise + noise.T) / 2
    bound = davis_kahan_bound(d, d0, p)
    actual = subspace_error(top_r_eigvecs(d, r), p)
    assert actual <= bound + 1e-12


# --- incoherence ----------------------------------------------------------

def test_incoherence_spike():
    n = 16
    p = BasisMatrix(np.eye(n)[:, :1])
    assert incoherence(p) == pytest.approx(np.sqrt(n), abs=1e-12)


def test_incoherence_dense_vector():
    n = 25
    p = BasisMatrix(np.full((n, 1), 1.0 / np.sqrt(n)))
    assert incoherence(p) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_incoherence_direct_formula_and_bounds(seed):
    p = random_basis(100, 5, seed)
    direct = np.sqrt(100 / 5 * max(np.sum(row**2) for row in p.entries))
    mu = incoherence(p)
    assert mu == pytest.approx(direct, abs=1e-12)
    assert 1.0 - 1e-12 <= mu <= np.sqrt(100) + 1e-12


# --- BasisMatrix invariants -----------------------------------------------

def test_basis_matrix_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        BasisMatrix(np.array([[1.0, 0.9], [0.0, 0.1]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_basis_matrix_rejects_nonfinite(value):
    with pytest.raises(ValueError):
        BasisMatrix(np.full((4, 2), value))
    entries = np.eye(4)[:, :2]
    entries[1, 0] = value
    with pytest.raises(ValueError):
        BasisMatrix(entries)


def test_basis_matrix_rejects_wide():
    with pytest.raises(ValidationError, match="^need 1 <= r <= n, got r=3, n=2$"):
        BasisMatrix(np.eye(2, 3))

"""Estimator tests: the engine's covariance against a brute-force oracle, top-r PCA, rank rules."""

import numpy as np
import pytest

from noisypca.errors import ValidationError
from noisypca.estimator import estimate_rank_eigengap, estimate_rank_threshold
from noisypca.experiments import _covariance
from noisypca.linalg import BasisMatrix, subspace_error, top_r_eigvecs
from noisypca.model import SignalModel, make_random_basis, signal_coefficients

from oracles import column_covariance, covariance_oracle


def engine_covariance(y):
    """The engine's D of the columns y = C x with C = I and no SDDN blocks (`experiments._covariance`)."""
    no_blocks = (np.zeros(0, int), np.zeros(0, int), np.zeros((0, 0), int), np.zeros((0, 0, 1)))
    return _covariance(np.eye(len(y)), y, no_blocks)[0]


def test_sample_covariance_two_axis_columns():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(engine_covariance(y), 0.5 * np.eye(2), atol=1e-15)


def test_sample_covariance_single_column():
    y = np.array([[1.0], [2.0], [-1.0]])
    np.testing.assert_allclose(engine_covariance(y), y @ y.T, atol=1e-15)


def test_sample_covariance_matches_brute_force():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((6, 40))
    d = engine_covariance(y)
    np.testing.assert_allclose(d, covariance_oracle(y), atol=1e-12)
    assert np.array_equal(d, d.T)


def test_pca_estimate_noiseless_recovery():
    rng = np.random.default_rng(1)
    p = make_random_basis(30, 4, rng)
    model = SignalModel(p, np.full(4, 12.0))
    l = p.entries @ signal_coefficients(model, rng, 50)
    phat = top_r_eigvecs(column_covariance(l), 4)
    assert subspace_error(phat, p) <= 1e-8


def test_pca_estimate_repeated_vector():
    y = np.array([[3.0], [4.0]]) @ np.ones((1, 7))
    phat = top_r_eigvecs(column_covariance(y), 1)
    expected = BasisMatrix(np.array([0.6, 0.8]))
    assert subspace_error(phat, expected) <= 1e-12


@pytest.mark.parametrize("gamma", [0.1, 3.7, -2.0])
def test_pca_estimate_scale_equivariant(gamma):
    rng = np.random.default_rng(2)
    y = rng.standard_normal((10, 60))
    p = make_random_basis(10, 2, rng)
    base = subspace_error(top_r_eigvecs(column_covariance(y), 2), p)
    scaled = subspace_error(top_r_eigvecs(column_covariance(gamma * y), 2), p)
    assert scaled == pytest.approx(base, abs=1e-10)


def test_rank_threshold_example():
    w = np.array([12.3, 11.8, 0.4, 0.1])
    assert estimate_rank_threshold(w, 12.0) == 2


def test_rank_threshold_no_detection():
    w = np.array([1.0, 0.5, 0.2])
    assert estimate_rank_threshold(w, 12.0) == 0


def test_rank_threshold_monotone_in_lambda():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12))
    w = np.linalg.eigvalsh(m @ m.T / 12)[::-1]
    estimates = [estimate_rank_threshold(w, lam) for lam in np.linspace(0.01, 30.0, 40)]
    assert all(a >= b for a, b in zip(estimates, estimates[1:]))


def test_rank_eigengap_example():
    w = np.array([10.2, 9.8, 9.5, 0.3, 0.2, 0.1, 0.05, 0.01, 0.0, 0.0])
    assert estimate_rank_eigengap(w) == 3


def test_rank_eigengap_single_spike():
    w = np.array([5.0, 0.0, 0.0, 0.0])
    assert estimate_rank_eigengap(w) == 1


def test_rank_eigengap_tie_breaks_low():
    w = np.array([9.0, 6.0, 3.0, 0.0, 0.0, 0.0])
    assert estimate_rank_eigengap(w) == 1


def test_rank_eigengap_respects_max_rank():
    # The search stops at max_rank = floor(n/2) = 3: the largest gap, at
    # j = 4, lies in the noise tail and is ignored.
    w = np.array([10.0, 9.0, 8.6, 8.5, 0.0, 0.0])
    assert estimate_rank_eigengap(w) == 1
    with pytest.raises(ValidationError, match="^need 1 <= max_rank < n, got 0$"):
        estimate_rank_eigengap(np.array([5.0]))


def test_rank_rules_on_sampled_model():
    # Well-separated model: both estimators recover r on every seed.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = make_random_basis(50, 3, rng)
        model = SignalModel(p, np.full(3, 12.0))
        l = p.entries @ signal_coefficients(model, rng, 2000)
        y = l + 0.1 * rng.standard_normal((50, 2000))
        w = np.linalg.eigvalsh(column_covariance(y))[::-1]
        assert estimate_rank_threshold(w, 12.0) == 3
        assert estimate_rank_eigengap(w) == 3


def test_pca_estimate_invalid_rank():
    with pytest.raises(ValidationError, match="^need 1 <= r <= n, got r=0, n=3$"):
        top_r_eigvecs(column_covariance(np.eye(3)), 0)

"""Estimator tests: covariance against a brute-force oracle, rank rules."""

import numpy as np
import pytest

from noisypca.errors import ValidationError
from noisypca.estimator import (
    DataBatch,
    estimate_rank_eigengap,
    estimate_rank_threshold,
    pca_estimate,
    sample_covariance,
)
from noisypca.linalg import BasisMatrix, subspace_error
from noisypca.model import SignalModel, make_random_basis, sample_signal


def covariance_oracle(y):
    """Entrywise double-loop accumulation of (1/alpha) sum y_t y_t'."""
    n, alpha = y.shape
    d = np.zeros((n, n))
    for t in range(alpha):
        for i in range(n):
            for j in range(n):
                d[i, j] += y[i, t] * y[j, t]
    return d / alpha


def test_sample_covariance_two_axis_columns():
    batch = DataBatch(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(sample_covariance(batch), 0.5 * np.eye(2), atol=1e-15)


def test_sample_covariance_single_column():
    y = np.array([[1.0], [2.0], [-1.0]])
    np.testing.assert_allclose(sample_covariance(DataBatch(y)), y @ y.T, atol=1e-15)


def test_sample_covariance_matches_brute_force():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((6, 40))
    d = sample_covariance(DataBatch(y))
    np.testing.assert_allclose(d, covariance_oracle(y), atol=1e-12)
    assert np.array_equal(d, d.T)


def test_empty_batch_rejected():
    with pytest.raises(ValidationError, match="^batch has no columns$"):
        DataBatch(np.zeros((4, 0)))


def test_pca_estimate_noiseless_recovery():
    rng = np.random.default_rng(1)
    p = make_random_basis(30, 4, rng)
    model = SignalModel(p, np.full(4, 12.0))
    l, _ = sample_signal(model, rng, 50)
    phat = pca_estimate(DataBatch(l), 4)
    assert subspace_error(phat, p) <= 1e-8


def test_pca_estimate_repeated_vector():
    y = np.array([[3.0], [4.0]]) @ np.ones((1, 7))
    phat = pca_estimate(DataBatch(y), 1)
    expected = BasisMatrix(np.array([0.6, 0.8]))
    assert subspace_error(phat, expected) <= 1e-12


@pytest.mark.parametrize("gamma", [0.1, 3.7, -2.0])
def test_pca_estimate_scale_equivariant(gamma):
    rng = np.random.default_rng(2)
    y = rng.standard_normal((10, 60))
    p = make_random_basis(10, 2, rng)
    base = subspace_error(pca_estimate(DataBatch(y), 2), p)
    scaled = subspace_error(pca_estimate(DataBatch(gamma * y), 2), p)
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
    assert estimate_rank_eigengap(w, max_rank=3) == 1


def test_rank_eigengap_respects_max_rank():
    w = np.array([10.0, 9.9, 9.8, 9.7, 0.0, 0.0])
    assert estimate_rank_eigengap(w, max_rank=2) in (1, 2)
    with pytest.raises(ValidationError, match="^need 1 <= max_rank < n, got 6$"):
        estimate_rank_eigengap(w, max_rank=6)


def test_rank_rules_on_sampled_model():
    # Well-separated model: both estimators recover r on every seed.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = make_random_basis(50, 3, rng)
        model = SignalModel(p, np.full(3, 12.0))
        l, _ = sample_signal(model, rng, 2000)
        y = l + 0.1 * rng.standard_normal((50, 2000))
        w = np.linalg.eigvalsh(sample_covariance(DataBatch(y)))[::-1]
        assert estimate_rank_threshold(w, 12.0) == 3
        assert estimate_rank_eigengap(w) == 3


def test_pca_estimate_invalid_rank():
    with pytest.raises(ValidationError, match="^need 1 <= r <= n, got r=0, n=3$"):
        pca_estimate(DataBatch(np.eye(3)), 0)

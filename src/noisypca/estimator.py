"""PCA estimators: sample covariance, top-r subspace, and automatic rank rules."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import top_r_eigvecs


@dataclass(frozen=True)
class DataBatch:
    """Observed columns y_1..y_alpha stacked as an (n, alpha) matrix."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValidationError("columns must be an (n, alpha) matrix")
        if cols.shape[1] < 1:
            raise ValidationError("batch has no columns")
        object.__setattr__(self, "columns", cols)

    @property
    def n(self):
        return self.columns.shape[0]

    @property
    def alpha(self):
        return self.columns.shape[1]


def sample_covariance(batch):
    """D = (1/alpha) sum_t y_t y_t', symmetrized against round-off.

    Accumulation is a fixed-order matrix product, so the result is
    deterministic for a fixed input.
    """
    y = batch.columns
    d = y @ y.T / batch.alpha
    return (d + d.T) / 2.0


def pca_estimate(batch, r):
    """Top-r eigenvectors of the sample covariance; ValidationError unless 1 <= r <= n."""
    return top_r_eigvecs(sample_covariance(batch), r)


def estimate_rank_threshold(w, lambda_minus):
    """Number of sample eigenvalues w (descending) that clear 0.5 * lambda_minus.

    Returns 0 when no eigenvalue clears the threshold (no subspace
    detected). Non-increasing in lambda_minus.
    """
    if lambda_minus <= 0:
        raise ValidationError("lambda_minus must be positive")
    return int(np.count_nonzero(np.asarray(w, dtype=float) >= 0.5 * lambda_minus))


def estimate_rank_eigengap(w, max_rank=None):
    """Index of the largest gap between consecutive eigenvalues w (descending).

    Ties are broken low. The search runs over j = 1..max_rank (default
    floor(n/2) for n eigenvalues); gaps in the noise tail past max_rank are
    ignored.
    """
    w = np.asarray(w, dtype=float)
    n = len(w)
    if max_rank is None:
        max_rank = n // 2
    if not 1 <= max_rank < n:
        raise ValidationError(f"need 1 <= max_rank < n, got {max_rank}")
    gaps = w[:max_rank] - w[1 : max_rank + 1]
    return int(np.argmax(gaps)) + 1

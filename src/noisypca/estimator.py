"""Automatic rank rules on a descending sample spectrum.

The top-r estimate itself is `linalg.top_r_eigvecs` of the sample
covariance D, which the experiments form from coefficient moments.
"""

import numpy as np

from .errors import ValidationError


def estimate_rank_threshold(w, lambda_minus):
    """Number of sample eigenvalues w (descending) that clear 0.5 * lambda_minus.

    Returns 0 when no eigenvalue clears the threshold (no subspace
    detected). Non-increasing in lambda_minus.
    """
    if lambda_minus <= 0:
        raise ValidationError("lambda_minus must be positive")
    return int(np.count_nonzero(np.asarray(w, dtype=float) >= 0.5 * lambda_minus))


def estimate_rank_eigengap(w):
    """Index of the largest gap between consecutive eigenvalues w (descending).

    Ties are broken low. The search runs over j = 1..max_rank, max_rank =
    floor(n/2) for n eigenvalues; gaps in the noise tail past it are ignored.
    """
    w = np.asarray(w, dtype=float)
    max_rank = len(w) // 2
    if max_rank < 1:
        raise ValidationError(f"need 1 <= max_rank < n, got {max_rank}")
    gaps = w[:max_rank] - w[1 : max_rank + 1]
    return int(np.argmax(gaps)) + 1

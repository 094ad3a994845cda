"""Dense forms that tests compare against and the package never builds.

`orthogonal_complement` builds the n x (n - r) complement of a basis from
a full SVD, and `noise_covariance` forms the n x n Sigma_v; the package
works in span([P B]) and needs neither. `column_covariance` is the sample
covariance of explicit n x alpha columns, which the package forms from
coefficient moments instead, and `covariance_oracle` is the same sum
accumulated entry by entry. `davis_kahan_bound` is the sin-theta bound
that `top_r_eigvecs` and `subspace_error` are checked against on perturbed
matrices.
"""

import numpy as np

from noisypca.errors import ValidationError
from noisypca.linalg import BasisMatrix


def orthogonal_complement(p):
    """Basis P_perp with P P' + P_perp P_perp' = I.

    Raises ValidationError when r == n.
    """
    if p.r >= p.n:
        raise ValidationError("basis already spans the full space")
    u, _, _ = np.linalg.svd(p.entries, full_matrices=True)
    comp = u[:, p.r:]
    # Deterministic sign convention: largest-magnitude entry positive.
    lead = comp[np.argmax(np.abs(comp), axis=0), np.arange(comp.shape[1])]
    signs = np.sign(lead)
    signs[signs == 0] = 1.0
    return BasisMatrix(comp * signs)


def noise_covariance(noise):
    """Exact Sigma_v = B diag(sigma_i^2) B' of an UncorrNoiseModel."""
    b = noise.B.entries
    return (b * noise.sigma2) @ b.T


def column_covariance(y):
    """D = (1/alpha) sum_t y_t y_t' of the n x alpha columns y, symmetrized against round-off."""
    d = y @ y.T / y.shape[1]
    return (d + d.T) / 2.0


def covariance_oracle(y):
    """Entrywise triple-loop accumulation of (1/alpha) sum y_t y_t'."""
    n, alpha = y.shape
    d = np.zeros((n, n))
    for t in range(alpha):
        for i in range(n):
            for j in range(n):
                d[i, j] += y[i, t] * y[j, t]
    return d / alpha


def davis_kahan_bound(d, d0, p):
    """Computable sin-theta bound on the subspace error of top-r PCA.

    Returns ||(D - D0) P||_2 / (lambda_r(D0) - lambda_{r+1}(D0)
    - lambda_max(D - D0)), valid whenever the denominator is positive;
    returns inf otherwise. The caller is responsible for P spanning the
    top-r eigenspace of D0.
    """
    d = np.asarray(d, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if d.shape != d0.shape or d.shape[0] != p.n:
        raise ValidationError("D, D0 and P must share the ambient dimension")
    delta = d - d0
    numerator = np.linalg.norm(delta @ p.entries, 2)
    w0 = np.linalg.eigvalsh(d0)[::-1]
    lam_r = w0[p.r - 1]
    lam_r1 = w0[p.r] if p.r < p.n else -np.inf
    gap = lam_r - lam_r1 - np.max(np.linalg.eigvalsh(delta))
    if gap <= 0:
        return float("inf")
    return float(numerator / gap)

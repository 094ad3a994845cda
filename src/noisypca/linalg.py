"""Dense subspace primitives.

Orthonormal bases, subspace recovery error (sine of the largest principal
angle), symmetric eigendecomposition and row-incoherence. All operations
are pure functions on immutable inputs and are safe to call concurrently.
"""

import numpy as np

from .errors import RankDeficient, ValidationError

# Tolerances at double-precision comfort margin.
ORTHONORMALITY_TOL = 1e-10
RANK_TOL = 1e-12


class BasisMatrix:
    """Tall matrix with orthonormal columns spanning an r-dim subspace of R^n.

    Parameters
    ----------
    entries : (n, r) array_like
        Columns must be orthonormal to within 1e-10 in max norm; a 1-d
        array is treated as a single column.

    Attributes
    ----------
    entries : (n, r) ndarray
    n, r : int
        Ambient and subspace dimensions, 1 <= r <= n.
    """

    __slots__ = ("entries", "n", "r")

    def __init__(self, entries):
        entries = np.atleast_1d(np.asarray(entries, dtype=float))
        if entries.ndim == 1:
            entries = entries[:, None]
        if entries.ndim != 2:
            raise ValidationError("basis entries must be a vector or a 2-d matrix")
        n, r = entries.shape
        if not 1 <= r <= n:
            raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
        gram_defect = np.max(np.abs(entries.T @ entries - np.eye(r)))
        if not gram_defect <= ORTHONORMALITY_TOL:  # NaN entries fail too
            raise ValidationError(
                f"columns not orthonormal: max |P'P - I| = {gram_defect:.3e}"
            )
        self.entries = entries
        self.n = n
        self.r = r

    def __repr__(self):
        return f"BasisMatrix(n={self.n}, r={self.r})"


def orthonormalize(m):
    """Orthonormal basis for the column space of a full-column-rank matrix.

    Uses a QR factorization with the sign convention diag(R) >= 0, so an
    input that is already orthonormal (up to column scaling) is returned
    with unchanged column directions.

    Parameters
    ----------
    m : (n, r) array_like
        Must have numerical rank r (smallest singular value greater than
        1e-12 times the largest).

    Returns
    -------
    BasisMatrix

    Raises
    ------
    RankDeficient
        If the input does not have full numerical column rank.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] <= RANK_TOL * svals[0]:
        raise RankDeficient(
            f"singular values span {svals[0]:.3e}..{svals[-1]:.3e}"
        )
    q, rmat = np.linalg.qr(m)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    return BasisMatrix(q * signs)


def subspace_error(phat, p):
    """sin of the largest principal angle: || (I - Phat Phat') P ||_2.

    Symmetric in its arguments whenever both bases have the same dimension.
    Value lies in [0, 1] up to floating-point slack.
    """
    if phat.n != p.n:
        raise ValidationError(f"ambient dims differ: {phat.n} vs {p.n}")
    a = phat.entries
    b = p.entries
    residual = b - a @ (a.T @ b)
    return float(np.linalg.norm(residual, 2))


def symmetric_eig(s):
    """(eigenvalues, eigenvectors) of a symmetric matrix, eigenvalues descending.

    Both are arrays: w of shape (n,) and v of shape (n, n) with S = V diag(w) V'.
    Eigenvector signs and the ordering of exactly tied eigenvalues are
    unconstrained. Raises ValidationError if S has a non-finite entry or
    max |S - S'| exceeds 1e-10 times max |S|.
    """
    s = np.asarray(s, dtype=float)
    smax = np.max(np.abs(s)) if s.size else 0.0
    if not np.isfinite(smax):  # NaN would pass the symmetry test: nan > tol is False
        raise ValidationError(f"input has a non-finite entry: max |S| = {smax}")
    if np.max(np.abs(s - s.T)) > 1e-10 * smax:
        raise ValidationError("input fails symmetry tolerance")
    w, v = np.linalg.eigh(s)
    return w[::-1], v[:, ::-1]


def top_r_eigvecs(s, r):
    """Basis for the invariant subspace of the r largest eigenvalues of S.

    When eigenvalue r ties eigenvalue r+1 exactly, any valid invariant
    subspace may be returned.
    """
    n = np.shape(s)[0]
    if not 1 <= r <= n:
        raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
    # Only the r returned columns are checked for orthonormality.
    return BasisMatrix(symmetric_eig(s)[1][:, :r])


def incoherence(p):
    """Row-denseness parameter mu = sqrt(n/r * max_i ||row_i(P)||_2^2).

    mu = 1 for a maximally dense basis and sqrt(n) for a standard basis
    vector; always in [1, sqrt(n)].
    """
    row_sq = np.sum(p.entries**2, axis=1)
    return float(np.sqrt(p.n / p.r * np.max(row_sq)))

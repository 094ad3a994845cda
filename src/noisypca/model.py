"""Generative data model and its exact second-order spectra.

Observation columns are y_t = l_t + w_t + v_t where l_t = P a_t is the
signal (zero-mean coefficients with diagonal covariance Lambda), v_t is
uncorrelated possibly non-isotropic noise with covariance Sigma_v, and
w_t = M_t l_t is sparse data-dependent noise supported on a moving index
block T_t. The trials draw coefficients (a_t, and c_t with v_t = B c_t)
and the per-block SDDN factors G = M_t P in r coordinates, never M_t or
the n x alpha columns; the nb dwell blocks and factors are one record of
arrays (lo, hi, T, G), G of shape (nb, s, r). Missing data is G = -P_T,
and refinement's e_t = I_T B_T^{-1} I_T'(I - Phat Phat') l_t is
G = B_T^{-1}(P_T - Phat_T Phat'P).
Model descriptions are immutable; sampling takes an explicit numpy
Generator so there is no hidden global state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import BasisMatrix, orthonormalize

# Stream labels for substream derivation; every sampled quantity in an
# experiment gets its own independent stream.
STREAM_MODEL = 0
STREAM_SIGNAL = 1
STREAM_NOISE = 2
STREAM_SDDN = 3
STREAM_AUX = 4

SIGNAL_DISTRIBUTIONS = ("bounded_uniform", "gaussian")


def substream(master_seed, *key):
    """Independent, reproducible Generator for (master_seed, key...)."""
    key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=key))


def make_random_basis(n, r, rng):
    """Random basis: orthonormalized n x r matrix of iid standard normals."""
    if r > n:
        raise ValidationError(f"r={r} exceeds n={n}")
    return orthonormalize(rng.standard_normal((n, r)))


@dataclass(frozen=True)
class SignalModel:
    """Signal process l_t = P a_t with Var((a_t)_j) = lambdas[j].

    bounded_uniform draws coefficient j from uniform(-sqrt(3 lambda_j),
    +sqrt(3 lambda_j)), so the variance is exactly lambda_j and the
    boundedness constant eta is exactly 3. gaussian draws N(0, lambda_j).
    """

    P: BasisMatrix
    lambdas: np.ndarray
    distribution: str = "bounded_uniform"

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.ndim != 1 or lam.size != self.P.r:
            raise ValidationError("lambdas must be a length-r sequence")
        if not np.all((lam > 0) & (lam < np.inf)) or np.any(np.diff(lam) > 0):
            raise ValidationError("lambdas must be finite, positive and non-increasing")
        if self.distribution not in SIGNAL_DISTRIBUTIONS:
            raise ValidationError(f"unknown signal distribution {self.distribution!r}")
        if not np.isfinite(self.eta * self.lambda_plus):  # the coefficients' squares reach eta * lambda
            raise ValidationError(f"eta * lambdas must be finite, got {self.eta:g} * {self.lambda_plus:g}")

    @property
    def r(self):
        return self.P.r

    @property
    def lambda_minus(self):
        return float(self.lambdas[-1])

    @property
    def lambda_plus(self):
        return float(self.lambdas[0])

    @property
    def f(self):
        return self.lambda_plus / self.lambda_minus

    @property
    def eta(self):
        # Boundedness constant max_j max_t (a_t)_j^2 / lambda_j; the
        # sub-gaussian analysis has no eta, constants fold into c.
        return 3.0 if self.distribution == "bounded_uniform" else 1.0


def _fill_coefficients(distribution, scale, rng, shape, out):
    """Draws into out (a new array of shape when None), row i times scale[i]; returns out."""
    out = np.empty(shape) if out is None else out
    if distribution == "bounded_uniform":
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
    else:
        rng.standard_normal(out=out)
    out *= scale[:, None]
    return out


def signal_coefficients(model, rng, count=1, out=None):
    """Draw the (r, count) signal coefficients a, into out when given; columns are independent draws.

    A bounded-uniform row j is sqrt(3 lambda_j) (-1 + 2U), U from `Generator.random`: uniform(-1, 1)
    computes low + (high - low) U and 2U is exact, so doubling and subtracting 1 gives its doubles.
    """
    scale = np.sqrt(3.0 * model.lambdas if model.distribution == "bounded_uniform" else model.lambdas)
    return _fill_coefficients(model.distribution, scale, rng, (model.r, count), out)


@dataclass(frozen=True)
class UncorrNoiseModel:
    """Uncorrelated noise v_t = B c_t with per-coordinate amplitudes q_i.

    B is an n x r_v basis; B=None gives full-dimension noise, B = I (r_v =
    n). Coordinate i of c_t is uniform(-q_i, q_i) (variance q_i^2/3) or
    N(0, q_i^2) depending on the distribution tag, so the implied
    covariance is B diag(sigma_i^2) B'.
    """

    n: int
    scales: np.ndarray
    distribution: str = "bounded_uniform"
    B: BasisMatrix | None = None

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float)
        object.__setattr__(self, "scales", scales)
        if scales.ndim != 1 or not np.all((scales >= 0) & (scales < np.inf)):
            raise ValidationError("scales must be a 1-d finite non-negative sequence")
        if self.B is None:
            object.__setattr__(self, "B", BasisMatrix(np.eye(self.n)))
        if self.B.n != self.n or scales.size != self.B.r:
            raise ValidationError("B and scales dimensions inconsistent")
        if self.distribution not in SIGNAL_DISTRIBUTIONS:
            raise ValidationError(f"unknown noise distribution {self.distribution!r}")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.lambda_v_plus):
                raise ValidationError(f"noise variances sigma^2 must be finite, got max scale {np.max(scales):g}")

    @property
    def r_v(self):
        return self.B.r

    @property
    def sigma2(self):
        """Per-coordinate variances of c_t."""
        s2 = self.scales**2
        return s2 / 3.0 if self.distribution == "bounded_uniform" else s2

    @property
    def lambda_v_plus(self):
        return float(np.max(self.sigma2))


def noise_coefficients(model, rng, count=1, out=None):
    """Draw the (r_v, count) noise coefficients c, into out when given; v = B c.

    A bounded-uniform row i is q_i (-1 + 2U), the doubles of uniform(-1, 1) (`signal_coefficients`).
    """
    return _fill_coefficients(model.distribution, model.scales, rng, (model.r_v, count), out)


def profile_scales(r_v, base, slope):
    """Linear amplitude profile q_i = base + slope * i / r_v, i = 1..r_v."""
    i = np.arange(1, r_v + 1, dtype=float)
    scales = base + slope * i / r_v
    if np.any(scales < 0):
        raise ValidationError(f"amplitude profile goes negative: noise_scale_base={base}, noise_scale_slope={slope}")
    return scales


@dataclass(frozen=True)
class SddnModel:
    """Sparse data-dependent noise w_t = I_{T_t} M_{s,t} (q/||M_{s,t}P||) l_t.

    T_t is an s-long block of consecutive indices that dwells for
    rho * ceil(b0 * alpha / rho) frames and then advances by s
    (wrapping modulo n): a 1-d object moving every so often. q in [0, 1)
    is the exact noise-to-signal amplitude enforced per frame; b0 is the
    target per-row occupancy fraction. M_{s,t} is s x n with iid N(0,1)
    entries, drawn once per dwell block: the frames sharing T_t share
    M_{s,t}. The model asks only that M_t be unknown and time-varying with
    ||M_{s,t}P|| <= q, so this stays inside it.
    """

    s: int
    b0: float
    rho: int = 1
    q: float = 0.0

    def __post_init__(self):
        if self.s < 1:
            raise ValidationError(f"sddn_s must be >= 1, got {self.s}")
        if not 0 < self.b0 <= 1:
            raise ValidationError(f"sddn_b0 must lie in (0, 1], got {self.b0}")
        if self.rho < 1:
            raise ValidationError(f"sddn_rho must be >= 1, got {self.rho}")
        if not 0 <= self.q < 1:
            raise ValidationError(f"sddn_q must lie in [0, 1), got {self.q}")


def support_blocks(n, model, alpha):
    """The moving-block support schedule as its dwell blocks: ((lo, hi, T), counts).

    Block j holds frames [j dwell, min((j + 1) dwell, alpha)) on the rows T[j] = (j s + 0..s-1) mod n,
    dwell = rho ceil(b0 alpha / rho), and s = n is one block; counts[i] is how many frames occupy
    row i. The occupancy max(counts)/alpha is checked against b0 + s/alpha: combinations that cannot
    honor it (b0 much smaller than s/n with alpha spanning many sweeps) raise ValidationError.
    """
    s = model.s
    if s > n:
        raise ValidationError(f"support size {s} exceeds dimension {n}")
    dwell = max(model.rho * int(np.ceil(model.b0 * alpha / model.rho)), 1) if s < n else alpha
    lo = np.arange(0, alpha, dwell)
    hi = np.minimum(lo + dwell, alpha)
    rows = (np.arange(len(lo))[:, None] * s + np.arange(s)) % n
    counts = np.bincount(rows.ravel(), np.repeat(hi - lo, s), n)
    occupancy = float(np.max(counts) / alpha)
    if occupancy > model.b0 + s / alpha + 1e-12:
        raise ValidationError(
            f"realized occupancy {occupancy:.4f} exceeds b0 + s/alpha "
            f"= {model.b0 + s / alpha:.4f}; shrink alpha or raise b0"
        )
    return (lo, hi, rows), counts


def support_sequence(n, model, alpha):
    """The support schedule T_1..T_alpha as an (alpha, s) index array: `support_blocks`, frame by frame."""
    (lo, hi, rows), _ = support_blocks(n, model, alpha)
    return np.repeat(rows, hi - lo, axis=0)


def row_occupancy(supports, n):
    """Max over rows of the fraction of frames in which the row is occupied."""
    supports = np.asarray(supports)
    alpha = supports.shape[0]
    counts = np.bincount(supports.ravel(), minlength=n)
    return float(np.max(counts) / alpha)


def sample_sddn_batch(model, r, blocks, rng):
    """SDDN factors for a whole batch, one dependency matrix per dwell block.

    For the nb dwell blocks (lo, hi, T) (`support_blocks`) returns (lo, hi, T, G)
    with the (nb, s, r) factors G = q M P / ||M P||, so that w_t = I_T G a_t for
    the frames of a block (w_t = M_t l_t with l_t = P a_t and ||G|| = q). M has
    iid N(0,1) entries, so each row of M P is N(0, P'P) = N(0, I_r): one draw of
    nb s x r normals from rng has exactly the law of M P, and M is never formed.
    """
    lo, hi, rows = blocks
    while True:
        g = rng.standard_normal((len(lo), model.s, r))
        norm = np.linalg.norm(g, 2, axis=(1, 2))
        if not np.any(norm <= 0.0):  # ||M P|| = 0 has probability zero; redraw the batch.
            return lo, hi, rows, (model.q / norm)[:, None, None] * g


def refine_blocks(p, phat, blocks):
    """Refinement error on the dwell blocks (lo, hi, T): G = B_T^{-1} (P_T - Phat_T Phat'P).

    I_T G a_t is the error I_T B_T^{-1} I_T' (I - Phat Phat') P a_t, B_T = I -
    Phat_T Phat_T'; one batched solve gives the (nb, s, r) factors G, returned
    as (lo, hi, T, G). p and phat are arrays in any coordinates that keep
    Phat'P (a cell's frame does). Raises ValidationError when an
    eigenvalue of some B_T, all in (0, 1], is below 1e-8.
    """
    lo, hi, rows = blocks
    ht = phat[rows]
    b_mat = np.eye(rows.shape[1]) - ht @ ht.swapaxes(1, 2)
    bad = np.flatnonzero(np.linalg.eigvalsh(b_mat)[:, 0] < 1e-8)
    if bad.size:
        raise ValidationError(f"masked Gram matrix near-singular on frames [{lo[bad[0]]}, {hi[bad[0]]})")
    return lo, hi, rows, np.linalg.solve(b_mat, p[rows] - ht @ (phat.T @ p))


@dataclass(frozen=True)
class DerivedSpectra:
    """Scalar spectra of one (signal, uncorrelated-noise) model pair.

    lambda_minus/lambda_plus/f describe the signal covariance restricted
    to its subspace; the four noise quantities of Sigma_v = B S B'
    (S = diag(sigma^2)) are, with W = P'B and Q of `derived_spectra`,
    lambda_v_plus   = ||Sigma_v||_2 = max(S),
    lambda_vP_minus = lambda_min(P' Sigma_v P) = lambda_min(W S W'),
    lambda_vrest_plus = lambda_max(Sigma_v - P P' Sigma_v P P')
                      = max(lambda_max(Q'(B S B' - P W S W' P')Q), 0),
    lambda_vPPperp  = ||P_perp' Sigma_v P||_2 = ||(B - P W) S W'||_2,
    and g = max(lambda_v_plus/lambda_minus,
                sqrt(lambda_v_plus * f / lambda_minus)).
    """

    lambda_minus: float
    lambda_plus: float
    f: float
    lambda_v_plus: float = 0.0
    lambda_vP_minus: float = 0.0
    lambda_vrest_plus: float = 0.0
    lambda_vPPperp: float = 0.0

    def __post_init__(self):
        if self.lambda_minus <= 0 or self.lambda_plus < self.lambda_minus:
            raise ValidationError("need 0 < lambda_minus <= lambda_plus")

    @property
    def g(self):
        ratio = self.lambda_v_plus / self.lambda_minus
        return max(ratio, np.sqrt(ratio * self.f))


def derived_spectra(signal, noise=None):
    """Exact model spectra from the signal and (optional) noise model, never from samples.

    The (W, Q) forms of `DerivedSpectra` never form Sigma_v. Q of the
    Householder QR [P B] = Q R spans a space that contains range([P B]),
    also when [P B] is rank-deficient or r + r_v >= n (Halko, Martinsson
    and Tropp, arXiv:0909.4061); Sigma_v is 0 outside it, hence the clamp,
    and Q'P, Q'B are R's column blocks. noise=None means Sigma_v = 0.
    """
    lam_minus = signal.lambda_minus
    lam_plus = signal.lambda_plus
    if noise is None or noise.lambda_v_plus == 0.0:
        return DerivedSpectra(lam_minus, lam_plus, lam_plus / lam_minus)
    pe, s2, b = signal.P.entries, noise.sigma2, noise.B.entries
    w = pe.T @ b
    pvp = (w * s2) @ w.T
    rr = np.linalg.qr(np.hstack([pe, b]), mode="r")  # Q'[P B] = R
    qp, qb = rr[:, :pe.shape[1]], rr[:, pe.shape[1]:]
    rest = (qb * s2) @ qb.T - qp @ pvp @ qp.T
    cross = ((b - pe @ w) * s2) @ w.T
    lam_vp_minus = max(float(np.min(np.linalg.eigvalsh(pvp))), 0.0)
    lam_vrest = max(float(np.max(np.linalg.eigvalsh(rest))), 0.0)
    lam_cross = float(np.linalg.norm(cross, 2))
    return DerivedSpectra(
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        f=lam_plus / lam_minus,
        lambda_v_plus=noise.lambda_v_plus,
        lambda_vP_minus=lam_vp_minus,
        lambda_vrest_plus=lam_vrest,
        lambda_vPPperp=lam_cross,
    )

"""Generative-model tests: sampling laws, support process, exact spectra."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisypca.config import parse_config
from noisypca.errors import ValidationError
from noisypca.experiments import realize_model
from noisypca.linalg import BasisMatrix, incoherence
from noisypca.model import (
    SIGNAL_DISTRIBUTIONS,
    DerivedSpectra,
    SddnModel,
    SignalModel,
    UncorrNoiseModel,
    derived_spectra,
    make_random_basis,
    noise_coefficients,
    profile_scales,
    refine_blocks,
    row_occupancy,
    sample_sddn_batch,
    sample_signal,
    sample_uncorr_noise,
    signal_coefficients,
    substream,
    support_blocks,
    support_sequence,
)

from oracles import noise_covariance, orthogonal_complement


def brute_occupancy(supports, n, alpha):
    counts = {i: 0 for i in range(n)}
    for t in range(alpha):
        for i in supports[t]:
            counts[int(i)] += 1
    return max(counts.values()) / alpha


# --- random bases and rng streams -----------------------------------------

def test_make_random_basis_full_rank_is_orthogonal():
    basis = make_random_basis(3, 3, np.random.default_rng(0))
    np.testing.assert_allclose(basis.entries @ basis.entries.T, np.eye(3), atol=1e-12)


def test_make_random_basis_deterministic():
    a = make_random_basis(100, 5, np.random.default_rng(7))
    b = make_random_basis(100, 5, np.random.default_rng(7))
    assert np.array_equal(a.entries, b.entries)


def test_make_random_basis_rejects_wide():
    with pytest.raises(ValidationError, match="^r=5 exceeds n=4$"):
        make_random_basis(4, 5, np.random.default_rng(0))


def test_random_basis_typically_dense():
    mus = [
        incoherence(make_random_basis(100, 5, np.random.default_rng(seed)))
        for seed in range(100)
    ]
    assert sum(mu < 3.0 for mu in mus) >= 98


def test_substreams_reproducible_and_distinct():
    a = substream(0, 1, 2, 3).standard_normal(8)
    b = substream(0, 1, 2, 3).standard_normal(8)
    c = substream(0, 1, 2, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- signal sampling --------------------------------------------------------

@pytest.fixture
def basis100():
    return make_random_basis(100, 5, np.random.default_rng(11))


def test_bounded_signal_amplitude_and_variance(basis100):
    model = SignalModel(basis100, np.full(5, 12.0), "bounded_uniform")
    _, a = sample_signal(model, np.random.default_rng(0), 100_000)
    assert np.max(np.abs(a)) <= 6.0
    np.testing.assert_allclose(a.var(axis=1), 12.0, rtol=0.03)
    assert np.max(np.abs(a.mean(axis=1))) < 0.1


def test_gaussian_signal_variance(basis100):
    model = SignalModel(basis100, np.full(5, 100.0), "gaussian")
    l, a = sample_signal(model, np.random.default_rng(1), 100_000)
    np.testing.assert_allclose(a.var(axis=1), 100.0, rtol=0.03)
    np.testing.assert_allclose(l, basis100.entries @ a, atol=1e-12)


def test_signal_eta_by_distribution(basis100):
    lam = np.full(5, 2.0)
    assert SignalModel(basis100, lam, "bounded_uniform").eta == 3.0
    assert SignalModel(basis100, lam, "gaussian").eta == 1.0


def test_signal_model_validation(basis100):
    with pytest.raises(ValidationError):
        SignalModel(basis100, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))  # increasing
    with pytest.raises(ValidationError):
        SignalModel(basis100, np.full(5, -1.0))
    with pytest.raises(ValidationError):
        SignalModel(basis100, np.full(5, 1.0), "cauchy")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            SignalModel(basis100, np.array([bad, 1.0, 1.0, 1.0, 1.0]))


def test_uncorr_noise_model_validation():
    with pytest.raises(ValidationError):
        UncorrNoiseModel(n=3, scales=np.array([1.0, -1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            UncorrNoiseModel(n=3, scales=np.array([1.0, bad, 1.0]))


def test_full_dimension_noise_is_the_identity_basis():
    # B=None is full-dimension noise, held as B = I (r_v = n); the B = None
    # forms that B = I replaced are the oracle: Sigma_v = diag(sigma^2) to the
    # byte, and v = c from the same stream.
    n = 7
    scales = profile_scales(n, 0.9, -0.4)
    for distribution in SIGNAL_DISTRIBUTIONS:
        model = UncorrNoiseModel(n=n, scales=scales, distribution=distribution, B=None)
        assert np.array_equal(model.B.entries, np.eye(n)) and model.r_v == n
        assert noise_covariance(model).tobytes() == np.diag(model.sigma2).tobytes()
        v = sample_uncorr_noise(model, np.random.default_rng(3), 50)
        assert np.array_equal(v, noise_coefficients(model, np.random.default_rng(3), 50))
    with pytest.raises(ValidationError):
        UncorrNoiseModel(n=n, scales=scales[:-1])


# --- uncorrelated noise ------------------------------------------------------

def test_uncorr_noise_amplitude_bound():
    r_v = 5
    scales = profile_scales(r_v, 1.1, -0.1)
    b = make_random_basis(40, r_v, np.random.default_rng(3))
    model = UncorrNoiseModel(n=40, scales=scales, distribution="bounded_uniform", B=b)
    v = sample_uncorr_noise(model, np.random.default_rng(4), 20_000)
    c = b.entries.T @ v  # recover coefficients via orthonormality
    assert np.all(np.abs(c) <= scales[:, None] + 1e-12)


def test_uncorr_noise_gaussian_profile_variance():
    scales = profile_scales(4, 0.9, -0.4)
    model = UncorrNoiseModel(n=4, scales=scales, distribution="gaussian", B=None)
    v = sample_uncorr_noise(model, np.random.default_rng(5), 200_000)
    np.testing.assert_allclose(v.var(axis=1), scales**2, rtol=0.03)


def test_uncorr_noise_zero_scales():
    model = UncorrNoiseModel(n=6, scales=np.zeros(6), distribution="bounded_uniform")
    v = sample_uncorr_noise(model, np.random.default_rng(6), 10)
    assert np.all(v == 0.0)


def test_uncorr_noise_sample_covariance_converges():
    n, r_v, alpha = 50, 5, 100_000
    b = make_random_basis(n, r_v, np.random.default_rng(8))
    model = UncorrNoiseModel(n=n, scales=profile_scales(r_v, 1.1, -0.1), B=b)
    v = sample_uncorr_noise(model, np.random.default_rng(9), alpha)
    dev = np.linalg.norm(v @ v.T / alpha - noise_covariance(model), 2)
    assert dev <= 0.05 * model.lambda_v_plus


# --- coefficient draws ---------------------------------------------------------

def _old_coefficients(distribution, scale, rng, shape):
    """The draw as a new array, scaled copy of uniform(-1, 1) or of N(0, 1): the oracle."""
    if distribution == "bounded_uniform":
        return rng.uniform(-1.0, 1.0, size=shape) * scale[:, None]
    return rng.standard_normal(shape) * scale[:, None]


@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("distribution", SIGNAL_DISTRIBUTIONS)
@pytest.mark.parametrize("kind", ["signal", "noise"])
def test_coefficients_equal_the_scaled_copy_draws(basis100, kind, distribution, offset):
    # -1 + 2U in place gives uniform(-1, 1)'s doubles from the same stream,
    # in a new array and in a row block out= of a larger C array (x[:r], or
    # a trailing block like x[r:]); the rows outside the block are untouched.
    count = 1001
    if kind == "signal":
        model = SignalModel(basis100, np.array([9.0, 4.0, 4.0, 2.0, 0.5]), distribution)
        draw, rows = signal_coefficients, model.r
        scale = np.sqrt((3.0 if distribution == "bounded_uniform" else 1.0) * model.lambdas)
    else:
        b = make_random_basis(100, 6, np.random.default_rng(3))
        model = UncorrNoiseModel(n=100, scales=profile_scales(6, 1.1, -0.4), distribution=distribution, B=b)
        draw, rows, scale = noise_coefficients, model.r_v, model.scales
    want = _old_coefficients(distribution, scale, np.random.default_rng(12), (rows, count))
    assert np.array_equal(draw(model, np.random.default_rng(12), count), want)
    x = np.random.default_rng(13).standard_normal((rows + 3, count))
    others = np.delete(x, np.s_[offset : offset + rows], axis=0)
    got = draw(model, np.random.default_rng(12), count, out=x[offset : offset + rows])
    assert np.shares_memory(got, x)
    assert np.array_equal(x[offset : offset + rows], want)
    assert np.array_equal(np.delete(x, np.s_[offset : offset + rows], axis=0), others)


def test_signal_noise_cross_covariance_decays(basis100):
    sig = SignalModel(basis100, np.full(5, 12.0))
    noise = UncorrNoiseModel(
        n=100, scales=profile_scales(5, 1.1, -0.1),
        B=make_random_basis(100, 5, np.random.default_rng(12)),
    )
    meds = []
    for alpha in (500, 2000):
        norms = []
        for trial in range(20):
            rng_l = substream(1, 10, alpha, trial)
            rng_v = substream(2, 20, alpha, trial)
            l, _ = sample_signal(sig, rng_l, alpha)
            v = sample_uncorr_noise(noise, rng_v, alpha)
            norms.append(np.linalg.norm(l @ v.T / alpha, 2))
        meds.append(np.median(norms))
    assert meds[1] < meds[0]


# --- support process ---------------------------------------------------------

def dwell_blocks(supports):
    """Dwell blocks (lo, hi, T) of an (alpha, s) schedule, row by row: frames [lo[i], hi[i]) share T[i]."""
    lo = np.r_[0, np.flatnonzero(np.any(supports[1:] != supports[:-1], axis=1)) + 1]
    return lo, np.r_[lo[1:], len(supports)], supports[lo]


def test_support_sequence_dwell_rule_enumeration():
    model = SddnModel(s=2, b0=0.5, rho=1, q=0.0)
    supports = support_sequence(10, model, 4)
    assert supports.tolist() == [[0, 1], [0, 1], [2, 3], [2, 3]]
    assert row_occupancy(supports, 10) <= 0.5


def test_support_sequence_never_moves_when_b0_one():
    model = SddnModel(s=3, b0=1.0, rho=1, q=0.0)
    supports = support_sequence(12, model, 50)
    assert np.all(supports == supports[0])
    assert row_occupancy(supports, 12) == 1.0


def test_support_sequence_moving_object_occupancy():
    model = SddnModel(s=5, b0=0.05, rho=1, q=0.0)
    supports = support_sequence(100, model, 3000)
    occ = row_occupancy(supports, 100)
    assert occ <= 0.0517
    assert occ == pytest.approx(brute_occupancy(supports, 100, 3000), abs=1e-12)


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(1, 120),
    s_frac=st.floats(0.0, 1.0),
    b0=st.floats(0.001, 1.0),
    rho_frac=st.floats(0.0, 1.0),
    alpha=st.integers(1, 3000),
)
def test_support_sequence_occupancy_within_cap(n, s_frac, b0, rho_frac, alpha):
    # Occupancy never exceeds b0 + s/alpha; a schedule that raises instead is
    # one whose block comes back to rows it has already covered.
    s = 1 + int(s_frac * (n - 1))
    rho = 1 + int(rho_frac * (s - 1))
    model = SddnModel(s=s, b0=b0, rho=rho, q=0.0)
    try:
        supports = support_sequence(n, model, alpha)
    except ValidationError as err:
        if not str(err).startswith("realized occupancy"):
            raise
        dwell = rho * math.ceil(b0 * alpha / rho)
        assert math.ceil(alpha / dwell) * s > n
        return
    assert supports.shape == (alpha, s)
    occupied = np.zeros((alpha, n), dtype=bool)
    occupied[np.arange(alpha)[:, None], supports] = True
    assert occupied.mean(axis=0).max() <= b0 + s / alpha + 1e-12
    # `experiments._block_moments` relies on it: every dwell block has the
    # first one's length, except the last, which may be shorter.
    (lo, hi, _), _ = support_blocks(n, model, alpha)
    assert np.all(hi[:-1] - lo[:-1] == hi[0] - lo[0]) and hi[-1] - lo[-1] <= hi[0] - lo[0]


def _reference_support_sequence(n, model, alpha):
    """The schedule frame by frame: frame t lies in dwell block t // dwell, which starts at row (t // dwell) s mod n."""
    dwell = max(model.rho * int(np.ceil(model.b0 * alpha / model.rho)), 1)
    starts = (np.arange(alpha) // dwell) * model.s % n
    return (starts[:, None] + np.arange(model.s)[None, :]) % n


@pytest.mark.parametrize(
    "n, s, b0, rho, alpha",
    [
        (100, 5, 0.05, 1, 1),  # one frame
        (100, 5, 0.05, 1, 7),
        (100, 5, 0.05, 1, 500),
        (100, 5, 0.05, 1, 2010),  # alpha not a multiple of dwell (101)
        (100, 5, 0.05, 1, 20000),
        (10, 4, 0.3, 1, 3),  # the third block wraps around n: rows 8, 9, 0, 1
        (12, 12, 1.0, 1, 50),  # s = n
        (12, 12, 0.5, 1, 20),  # s = n over two dwells (10): still one block
        (60, 6, 0.1, 4, 250),  # rho > 1: dwell a multiple of rho
        (60, 6, 0.1, 4, 2),  # rho > 1 and alpha < dwell (4)
    ],
)
def test_support_sequence_matches_frame_by_frame_reference(n, s, b0, rho, alpha):
    model = SddnModel(s=s, b0=b0, rho=rho, q=0.0)
    supports = support_sequence(n, model, alpha)
    expected = _reference_support_sequence(n, model, alpha)
    assert supports.dtype == expected.dtype
    assert supports.shape == (alpha, s)
    np.testing.assert_array_equal(supports, expected)
    # The schedule's dwell blocks and per-row counts, built without the alpha x s array.
    blocks, counts = support_blocks(n, model, alpha)
    for part, want in zip(blocks, dwell_blocks(expected)):
        assert part.dtype == want.dtype
        np.testing.assert_array_equal(part, want)
    np.testing.assert_array_equal(counts, np.bincount(expected.ravel(), minlength=n))
    if s == n:
        assert blocks[0].tolist() == [0] and blocks[1].tolist() == [alpha]


def test_support_sequence_rejects_oversized_block():
    for build in (support_blocks, support_sequence):
        with pytest.raises(ValidationError, match="^support size 5 exceeds dimension 4$"):
            build(4, SddnModel(s=5, b0=0.5, q=0.0), 10)


def test_support_sequence_rejects_unsatisfiable_occupancy():
    # b0 far below s/n with alpha spanning many sweeps cannot honor b0 + s/alpha.
    for build in (support_blocks, support_sequence):
        with pytest.raises(ValidationError, match=r"^realized occupancy [0-9.]+ exceeds b0 \+ s/alpha"):
            build(10, SddnModel(s=5, b0=0.01, q=0.0), 1000)


def test_row_occupancy_edge_cases():
    const = np.tile([[1, 2]], (8, 1))
    assert row_occupancy(const, 5) == 1.0
    disjoint = np.array([[0], [1], [2], [3]])
    assert row_occupancy(disjoint, 4) == 0.25


# --- sparse data-dependent noise ---------------------------------------------

def _sddn_columns(n, blocks, a):
    """The n x alpha columns w of the record (lo, hi, T, G): w[T[i], lo[i]:hi[i]] = G[i] a[:, lo[i]:hi[i]]."""
    w = np.zeros((n, a.shape[1]))
    for lo, hi, rows, g in zip(*blocks):
        w[rows, lo:hi] = g @ a[:, lo:hi]
    return w


def _block_moments(n, blocks, lambdas, alpha):
    """(P' mean_m', mean_mlm) of per-block factors.

    Every frame of a block (lo, hi, T, G) adds G' = (scale M P)' on the
    columns T of P' mean_m' and G Lambda G' on the (T, T) block of mean_mlm.
    """
    pm, mlm = np.zeros((len(lambdas), n)), np.zeros((n, n))
    for lo, hi, rows, g in zip(*blocks):
        pm[:, rows] += (hi - lo) * g.T
        mlm[np.ix_(rows, rows)] += (hi - lo) * ((g * lambdas) @ g.T)
    return pm / alpha, mlm / alpha


def test_sddn_zero_amplitude(basis100):
    model = SddnModel(s=5, b0=0.05, q=0.0)
    supports = np.array([[3, 4, 5, 6, 7]])
    blocks = sample_sddn_batch(model, basis100.r, dwell_blocks(supports), np.random.default_rng(0))
    assert [part.shape for part in blocks] == [(1,), (1,), (1, 5), (1, 5, 5)]
    [(lo, hi, rows, g)] = zip(*blocks)
    assert (lo, hi) == (0, 1)
    assert list(rows) == [3, 4, 5, 6, 7]
    assert np.all(g == 0.0)
    assert np.all(_sddn_columns(100, blocks, np.ones((5, 1))) == 0.0)


def test_sddn_support_and_normalization(basis100):
    model = SddnModel(s=5, b0=0.05, q=0.001)
    sig = SignalModel(basis100, np.full(5, 12.0))
    supports = support_sequence(100, model, 40)
    _, a = sample_signal(sig, np.random.default_rng(1), 40)
    blocks = sample_sddn_batch(model, basis100.r, dwell_blocks(supports), np.random.default_rng(2))
    # The blocks tile the frames; each covers frames that share its rows,
    # and its factor G = scale M P has spectral norm exactly q.
    lo, hi = blocks[:2]
    assert lo[0] == 0 and np.array_equal(lo[1:], hi[:-1]) and hi[-1] == 40
    for lo, hi, rows, g in zip(*blocks):
        assert np.all(supports[lo:hi] == rows)
        assert np.linalg.norm(g, 2) == pytest.approx(model.q, abs=1e-12)
    # Off-support rows are exactly zero.
    w = _sddn_columns(100, blocks, a)
    for t in range(40):
        mask = np.ones(100, dtype=bool)
        mask[supports[t]] = False
        assert np.all(w[mask, t] == 0.0)
    # A single frame is one block of its own.
    [g1] = sample_sddn_batch(model, basis100.r, dwell_blocks(supports[:1]), np.random.default_rng(3))[3]
    assert np.linalg.norm(g1, 2) == pytest.approx(model.q, abs=1e-12)


def test_sddn_norm_product_bound(basis100):
    eta, r, lam_plus = 3.0, 5, 12.0
    model = SddnModel(s=5, b0=0.05, q=0.001)
    sig = SignalModel(basis100, np.full(r, lam_plus))
    supports = support_sequence(100, model, 200)
    l, a = sample_signal(sig, np.random.default_rng(4), 200)
    blocks = sample_sddn_batch(model, basis100.r, dwell_blocks(supports), np.random.default_rng(5))
    w = _sddn_columns(100, blocks, a)
    cap = model.q * np.sqrt(eta * r * lam_plus)
    assert np.all(np.linalg.norm(w, axis=0) <= cap + 1e-12)
    assert np.all(np.linalg.norm(w, axis=0) <= model.q * np.linalg.norm(l, axis=0) + 1e-12)


def _reference_sddn_batch(model, p, supports, l_cols, rng, lambdas=None, moments=False):
    """An independent sampler of the same draws, kept as the reference.

    It walks the frames one at a time, draws the s x r normals Z = M P when
    the support moves, normalizes by an SVD, forms the s x n matrix M = Z P'
    (M P = Z, as P'P = I), M l_t over all n coordinates, and scatters the
    moments mean_m and mean_mlm frame by frame with np.add.at. Returns (w,
    moments or None).
    """
    n, alpha = l_cols.shape
    pe = p.entries
    w = np.zeros((n, alpha))
    mean_m = np.zeros((n, n)) if moments else None
    mean_mlm = np.zeros((n, n)) if moments else None
    for t in range(alpha):
        sup = supports[t]
        if t == 0 or np.any(sup != supports[t - 1]):
            norm = 0.0
            while norm == 0.0:
                z = rng.standard_normal((model.s, pe.shape[1]))
                norm = np.linalg.svd(z, compute_uv=False)[0]
            scaled = model.q / norm * (z @ pe.T)
        w[sup, t] = scaled @ l_cols[:, t]
        if moments:
            np.add.at(mean_m, sup, scaled)
            h = scaled @ pe
            np.add.at(mean_mlm, (sup[:, None], sup[None, :]), (h * lambdas) @ h.T)
    if moments:
        return w, SimpleNamespace(mean_m=mean_m / alpha, mean_mlm=mean_mlm / alpha)
    return w, None


def _moving_block(n, s, dwell, alpha):
    """Blocks of s rows that dwell `dwell` frames, advance by s and wrap mod n."""
    starts = (np.arange(alpha) // dwell) * s % n
    return (starts[:, None] + np.arange(s)[None, :]) % n


def assert_rel_close(actual, expected, rel=1e-12):
    """Entrywise agreement to rel times the largest entry of `expected`."""
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * np.max(np.abs(expected)))


@pytest.mark.parametrize("moments", [False, True])
@pytest.mark.parametrize(
    "n,r,s,dwell,alpha",
    [
        (13, 6, 3, 4, 50),  # s < r
        (13, 4, 4, 4, 50),  # s = r
        (13, 2, 5, 4, 50),  # s > r
        (13, 3, 5, 4, 50),
        (13, 3, 5, 20, 50),  # long blocks, the last one cut short by alpha
        (9, 3, 2, 1, 30),  # one frame per block
    ],
)
def test_sddn_matches_reference(n, r, s, dwell, alpha, moments):
    # With moments, the factors also carry the reference's frame-by-frame
    # moments, which the concentration trials take from them.
    sig = SignalModel(make_random_basis(n, r, np.random.default_rng(n + r)), np.linspace(12.0, 8.0, r))
    model = SddnModel(s=s, b0=0.5, q=0.3)
    supports = _moving_block(n, s, dwell, alpha)
    assert supports.max() < n and np.any(supports[:, 0] > n - s)  # some blocks wrap
    l, a = sample_signal(sig, np.random.default_rng(7), alpha)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    blocks = sample_sddn_batch(model, r, dwell_blocks(supports), rng)
    w_ref, mom_ref = _reference_sddn_batch(
        model, sig.P, supports, l, ref_rng, lambdas=sig.lambdas, moments=moments
    )
    # Same draws: both generators end in the same state.
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert_rel_close(_sddn_columns(n, blocks, a), w_ref)
    if moments:
        pm, mlm = _block_moments(n, blocks, sig.lambdas, alpha)
        assert_rel_close(pm, sig.P.entries.T @ mom_ref.mean_m.T)
        assert_rel_close(mlm, mom_ref.mean_mlm)
    else:
        assert mom_ref is None


class _RecordingRng:
    """Generator stub that records its standard_normal draws.

    With zero_draw set, that draw (counted from 0) is returned with
    z[zero_at] zeroed (all of it by default).
    """

    def __init__(self, seed, zero_draw=None, zero_at=...):
        self.rng = np.random.default_rng(seed)
        self.zero_draw, self.zero_at = zero_draw, zero_at
        self.draws = []

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        if len(self.draws) == self.zero_draw:
            z[self.zero_at] = 0.0
        self.draws.append(z.copy())
        return z


@pytest.mark.parametrize("dwell", [6, 20, 7])
def test_sddn_draws_one_piece_at_a_time(dwell):
    # One (nb, s, r) draw for the nb dwell blocks, nb s r floats whatever
    # alpha and n: it is the stream of nb consecutive (s, r) draws, in block order.
    n, r, s, alpha = 13, 3, 5, 50
    supports = _moving_block(n, s, dwell, alpha)
    rng = _RecordingRng(3)
    sample_sddn_batch(SddnModel(s=s, b0=0.5, q=0.3), r, dwell_blocks(supports), rng)
    nb = -(-alpha // dwell)
    assert [z.shape for z in rng.draws] == [(nb, s, r)]
    stream = np.random.default_rng(3)
    for z in rng.draws[0]:
        np.testing.assert_array_equal(z, stream.standard_normal((s, r)))


@pytest.mark.parametrize("dwell", [1, 6])
def test_sddn_one_dependency_matrix_per_dwell_block(dwell):
    n, r, s, alpha = 13, 3, 5, 50
    sig = SignalModel(make_random_basis(n, r, np.random.default_rng(1)), np.linspace(12.0, 8.0, r))
    model = SddnModel(s=s, b0=0.5, q=0.3)
    supports = _moving_block(n, s, dwell, alpha)
    assert np.any(supports[:, 0] > n - s)  # some blocks wrap
    _, a = sample_signal(sig, np.random.default_rng(2), alpha)
    rng = _RecordingRng(3)
    blocks = sample_sddn_batch(model, r, dwell_blocks(supports), rng)
    starts = np.arange(0, alpha, dwell)
    assert [z.shape for z in rng.draws] == [(len(starts), s, r)]
    assert np.array_equal(blocks[0], starts)
    w = _sddn_columns(n, blocks, a)
    pe = sig.P.entries
    mean_m, mean_mlm = np.zeros((n, n)), np.zeros((n, n))
    for z, (lo, hi, rows, g) in zip(rng.draws[0], zip(*blocks)):
        assert hi == min(lo + dwell, alpha)
        assert np.array_equal(rows, supports[lo])
        scaled = model.q * z @ pe.T / np.linalg.norm(z, 2)  # the s x n M with M P = q Z / ||Z||
        assert_rel_close(g, scaled @ pe)
        block = w[rows, lo:hi]
        assert np.linalg.matrix_rank(block) <= min(s, r)
        if hi - lo >= r:
            # The block is G a[:, lo:hi] for one s x r matrix G = scale M P.
            g_fit = np.linalg.lstsq(a[:, lo:hi].T, block.T, rcond=None)[0].T
            assert_rel_close(g_fit @ a[:, lo:hi], block)
            assert np.linalg.norm(g_fit, 2) == pytest.approx(model.q, rel=1e-12)
        for t in range(lo, hi):  # brute force, frame by frame
            m_t = np.zeros((n, n))
            m_t[rows] = scaled
            assert_rel_close(w[:, t], m_t @ pe @ a[:, t])
            mean_m += m_t
            mean_mlm += m_t @ pe @ np.diag(sig.lambdas) @ pe.T @ m_t.T
    pm, mlm = _block_moments(n, blocks, sig.lambdas, alpha)
    assert_rel_close(pm, pe.T @ mean_m.T / alpha)
    assert_rel_close(mlm, mean_mlm / alpha)


@pytest.mark.parametrize("zero_norm", [0.0, -1e-18])
def test_sddn_zero_norm_frame_is_redrawn(monkeypatch, zero_norm):
    # An all-zero block in the draw is M P = 0 for that block, so the
    # whole batch is redrawn: every block's G comes from the second draw.
    # zero_norm stands in for the value a norm routine may round the zero
    # matrix's norm to; a negative one must still read as norm 0.
    norm = np.linalg.norm

    def rounding_norm(x, *args, **kwargs):
        values = norm(x, *args, **kwargs)
        if np.ndim(x) == 3:  # the sampler's batched norm, one value per block
            values[~np.any(x, axis=(1, 2))] = zero_norm
        return values

    monkeypatch.setattr(np.linalg, "norm", rounding_norm)
    r, s = 4, 3
    model = SddnModel(s=s, b0=0.5, q=0.2)
    supports = np.array([[0, 1, 2], [5, 6, 7], [5, 6, 7], [10, 11, 12]])
    rng = _RecordingRng(3, zero_draw=0, zero_at=1)  # the first draw's second block
    blocks = sample_sddn_batch(model, r, dwell_blocks(supports), rng)
    assert [z.shape for z in rng.draws] == [(3, s, r)] * 2
    assert np.all(rng.draws[0][1] == 0.0) and np.any(rng.draws[0][[0, 2]])
    lo, hi, _, _ = blocks
    assert list(zip(lo, hi)) == [(0, 1), (1, 3), (3, 4)]
    # Disjoint supports: block i's factor comes from block i of the second draw.
    for (lo, _, rows, g), z in zip(zip(*blocks), rng.draws[1]):
        assert np.array_equal(rows, supports[lo])
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, model.q * z / np.linalg.norm(z, 2), rtol=1e-12)
        assert np.linalg.norm(g, 2) == pytest.approx(model.q, rel=1e-12)


def _oracle_sddn_factors(q, s, p, count, rng, absolute=False):
    """q M P / ||M P|| for count explicit s x n matrices M of iid N(0,1) entries (|N(0,1)| if absolute)."""
    m = rng.standard_normal((count, s, p.shape[0]))
    mp = (np.abs(m) if absolute else m) @ p
    return q * mp / np.linalg.norm(mp, 2, axis=(1, 2))[:, None, None]


def _mean_cov_z(a, b):
    """|z| of the differences of the sample means, and of the sample covariances, of the rows of a and b."""
    def stats(x):
        c = x - x.mean(0)
        prods = (c[:, :, None] * c[:, None, :]).reshape(len(x), -1)
        root = np.sqrt(len(x))
        return x.mean(0), x.std(0) / root, prods.mean(0), prods.std(0) / root

    ma, sma, ca, sca = stats(a)
    mb, smb, cb, scb = stats(b)
    return np.abs(ma - mb) / np.hypot(sma, smb), np.abs(ca - cb) / np.hypot(sca, scb)


def test_sddn_factors_have_the_law_of_the_n_coordinate_draw():
    # The sampler draws M P directly as s x r normals; the oracle forms the
    # s x n Gaussian M and reduces it by a random orthonormal n x r P. Over
    # 4000 draws each, vec(G/q) has the same mean and covariance (|z| <= 5)
    # and ||G e_1|| the same distribution (two-sample Kolmogorov-Smirnov at
    # level 0.001). The same mean test tells the |N(0,1)| law apart.
    n, r, s, count, q = 40, 3, 2, 4000, 0.3
    p = make_random_basis(n, r, np.random.default_rng(0)).entries
    lo = np.arange(count)
    blocks = (lo, lo + 1, np.zeros((count, s), dtype=int))
    g = sample_sddn_batch(SddnModel(s=s, b0=0.5, q=q), r, blocks, np.random.default_rng(100))[3] / q
    ref = _oracle_sddn_factors(q, s, p, count, np.random.default_rng(200)) / q
    z_mean, z_cov = _mean_cov_z(g.reshape(count, -1), ref.reshape(count, -1))
    assert z_mean.max() <= 5.0 and z_cov.max() <= 5.0
    col, ref_col = np.sort(np.linalg.norm(g[:, :, 0], axis=1)), np.sort(np.linalg.norm(ref[:, :, 0], axis=1))
    pooled = np.concatenate([col, ref_col])
    ks = np.max(np.abs(np.searchsorted(col, pooled, "right") - np.searchsorted(ref_col, pooled, "right"))) / count
    assert ks <= 1.949 * np.sqrt(2.0 / count)
    half = _oracle_sddn_factors(q, s, p, count, np.random.default_rng(200), absolute=True) / q
    assert _mean_cov_z(half.reshape(count, -1), ref.reshape(count, -1))[0].max() > 5.0


def test_sddn_factors_do_not_depend_on_n():
    # The sampler reads neither P nor n: one seed gives the same factors of
    # a schedule whatever dimension its support rows live in.
    model = SddnModel(s=4, b0=0.1, q=0.3)
    factors = []
    for n in (40, 1000, 100000):
        blocks, _ = support_blocks(n, model, 200)
        lo, hi, _, g = sample_sddn_batch(model, 3, blocks, np.random.default_rng(9))
        assert g.shape == (10, 4, 3)
        factors.append((lo, hi, g))
    for lo, hi, g in factors[1:]:
        for got, want in zip((lo, hi, g), factors[0]):
            np.testing.assert_array_equal(got, want)


def _missing_blocks(p, supports):
    """Missing data as SDDN blocks in full coordinates: G = -P_T erases the support rows of P a."""
    lo, hi, rows = dwell_blocks(supports)
    return lo, hi, rows, -p.entries[rows]


def test_apply_missing_cases():
    # Missing data is SDDN with G = -P_T: with P = I the coefficients are
    # the columns, and each column is erased on its own support only.
    p = BasisMatrix(np.eye(3))

    def erased(l, supports):
        return l + _sddn_columns(3, _missing_blocks(p, supports), l)

    l = np.array([[1.0], [2.0], [3.0]])
    empty = np.empty((1, 0), dtype=int)
    np.testing.assert_array_equal(erased(l, empty), l)
    np.testing.assert_array_equal(erased(l, np.array([[0, 1, 2]])), np.zeros((3, 1)))
    np.testing.assert_array_equal(erased(l, np.array([[1]])), [[1.0], [0.0], [3.0]])
    two = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    np.testing.assert_array_equal(
        erased(two, np.array([[0], [2]])), [[0.0, 4.0], [2.0, 5.0], [3.0, 0.0]]
    )



def _tilted(p, rng, angle=0.3):
    """A basis at a small angle from p: every column rotated toward the complement."""
    comp = orthogonal_complement(p).entries[:, : p.r]
    return BasisMatrix(np.cos(angle) * p.entries + np.sin(angle) * comp)


def test_refine_blocks_match_error_columns():
    # The blocks give the refinement error e = I_T B_T^{-1} I_T' (I - Phat
    # Phat') P a column by column, also on a block that wraps modulo n.
    n, r, s = 30, 3, 4
    rng = np.random.default_rng(3)
    p = make_random_basis(n, r, rng)
    phat = _tilted(p, rng)
    starts = np.repeat([0, 8, 28, 8], [5, 3, 4, 2])
    supports = (starts[:, None] + np.arange(s)[None, :]) % n
    a = rng.standard_normal((r, len(supports)))
    resid = p.entries @ a - phat.entries @ (phat.entries.T @ (p.entries @ a))
    expected = np.zeros_like(resid)
    for t, rows in enumerate(supports):
        ht = phat.entries[rows]
        expected[rows, t] = np.linalg.solve(np.eye(s) - ht @ ht.T, resid[rows, t])
    blocks = refine_blocks(p.entries, phat.entries, dwell_blocks(supports))
    assert list(zip(*blocks[:2])) == [(0, 5), (5, 8), (8, 12), (12, 14)]
    assert blocks[3].shape == (4, s, r)
    np.testing.assert_allclose(_sddn_columns(n, blocks, a), expected, rtol=0, atol=1e-13)


def test_refine_blocks_support_degenerate():
    # Phat holds e_4, so the block on row 4 (frames 2 and 3) has B_T = 1 - 1
    # = 0. The message names frames, which mean the same in any coordinates.
    n = 10
    p = make_random_basis(n, 2, np.random.default_rng(0))
    phat = BasisMatrix(np.eye(n)[:, [4, 7]])
    supports = np.array([[2], [2], [4], [4], [5]])
    with pytest.raises(ValidationError, match=r"frames \[2, 4\)"):
        refine_blocks(p.entries, phat.entries, dwell_blocks(supports))
    refine_blocks(p.entries, phat.entries, dwell_blocks(supports[:2]))  # the other rows are fine

# --- derived spectra ----------------------------------------------------------

def test_derived_spectra_isotropic(basis100):
    sig = SignalModel(basis100, np.full(5, 12.0))
    sigma = 0.7
    noise = UncorrNoiseModel(n=100, scales=np.full(100, sigma), distribution="gaussian")
    spec = derived_spectra(sig, noise)
    assert spec.lambda_vPPperp == pytest.approx(0.0, abs=1e-10)
    assert spec.lambda_vrest_plus == pytest.approx(sigma**2, abs=1e-10)
    assert spec.lambda_vP_minus == pytest.approx(sigma**2, abs=1e-10)
    assert spec.lambda_v_plus == pytest.approx(sigma**2, abs=1e-12)


def test_derived_spectra_adversarial_direction(basis100):
    lam_minus = 12.0
    sig = SignalModel(basis100, np.full(5, lam_minus))
    u = orthogonal_complement(basis100).entries[:, :1]
    amp = np.sqrt(1.2 * lam_minus)
    noise = UncorrNoiseModel(n=100, scales=np.array([amp]), distribution="gaussian",
                             B=BasisMatrix(u))
    spec = derived_spectra(sig, noise)
    assert spec.lambda_vP_minus == pytest.approx(0.0, abs=1e-10)
    assert spec.lambda_vrest_plus == pytest.approx(1.2 * lam_minus, rel=1e-10)
    assert spec.lambda_vPPperp == pytest.approx(0.0, abs=1e-9)


def test_derived_spectra_zero_noise(basis100):
    sig = SignalModel(basis100, np.full(5, 12.0))
    spec = derived_spectra(sig, None)
    assert spec.lambda_v_plus == 0.0
    assert spec.lambda_vP_minus == 0.0
    assert spec.lambda_vrest_plus == 0.0
    assert spec.lambda_vPPperp == 0.0
    assert spec.g == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_derived_spectra_ordering_chain(seed):
    rng = np.random.default_rng(seed)
    n, r, r_v = 30, 3, 4
    sig = SignalModel(make_random_basis(n, r, rng), np.array([5.0, 4.0, 3.0]))
    noise = UncorrNoiseModel(
        n=n, scales=rng.uniform(0.1, 2.0, r_v), B=make_random_basis(n, r_v, rng)
    )
    spec = derived_spectra(sig, noise)
    tol = 1e-10 * max(1.0, spec.lambda_v_plus)
    assert spec.lambda_vPPperp <= spec.lambda_vrest_plus + tol
    assert spec.lambda_vrest_plus <= spec.lambda_v_plus + tol
    assert spec.lambda_vP_minus <= spec.lambda_v_plus + tol
    assert spec.f >= 1.0
    ratio = spec.lambda_v_plus / spec.lambda_minus
    assert spec.g == pytest.approx(max(ratio, np.sqrt(ratio * spec.f)), rel=1e-12)


def test_signal_noise_eigenvalues_no_noise(basis100):
    # Without noise the spectra are the signal's alone.
    sig = SignalModel(basis100, np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    spec = derived_spectra(sig, None)
    assert (spec.lambda_minus, spec.lambda_plus, spec.f) == (1.0, 5.0, 5.0)
    assert spec.lambda_v_plus == spec.lambda_vP_minus == 0.0
    assert spec.lambda_vrest_plus == spec.lambda_vPPperp == 0.0


def test_derived_spectra_validation():
    with pytest.raises(ValidationError):
        DerivedSpectra(lambda_minus=0.0, lambda_plus=1.0, f=1.0)
    with pytest.raises(ValidationError):
        DerivedSpectra(lambda_minus=2.0, lambda_plus=1.0, f=0.5)


# The n x n formulas `derived_spectra` used before it moved into span([P B]);
# kept here as the oracle.

def nxn_noise_spectra(signal, noise):
    """(lambda_vP_minus, lambda_vrest_plus, lambda_vPPperp) from the n x n Sigma_v."""
    sigma_v = noise_covariance(noise)
    pe = signal.P.entries
    pvp = pe.T @ sigma_v @ pe
    return (
        max(float(np.min(np.linalg.eigvalsh(pvp))), 0.0),
        max(float(np.max(np.linalg.eigvalsh(sigma_v - pe @ pvp @ pe.T))), 0.0),
        float(np.linalg.norm(sigma_v @ pe - pe @ pvp, 2)),
    )


def _spectra_case(kind, seed):
    """(signal, noise) of one oracle case; P and B are columns of one random orthogonal U."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        n = int(rng.integers(2, 40))
        r, r_v = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
    else:
        n, r, r_v = {"r_plus_rv_ge_n": (6, 3, 5), "full_dimension": (12, 3, 12)}.get(kind, (30, 4, 6))
    u = make_random_basis(n, n, rng).entries
    p = u[:, :r]
    if kind == "shared_column":  # B's first column is P's, so [P B] has rank r + r_v - 1
        b = u[:, [0, *range(r, r + r_v - 1)]]
    elif kind == "orthogonal":
        b = u[:, r:r + r_v]
    else:
        b = make_random_basis(n, r_v, rng).entries
    scales = rng.uniform(0.1, 2.0, r_v)
    if kind == "zero_scales":
        scales[::2] = 0.0
    signal = SignalModel(BasisMatrix(p), np.sort(rng.uniform(1.0, 10.0, r))[::-1])
    basis = None if kind == "full_dimension" else BasisMatrix(b)
    return signal, UncorrNoiseModel(n=n, scales=scales, distribution="gaussian", B=basis)


SPECTRA_CASES = [("random", s) for s in range(8)] + [
    (kind, s) for kind in ("r_plus_rv_ge_n", "shared_column", "orthogonal", "zero_scales",
                           "full_dimension") for s in range(3)
]


@pytest.mark.parametrize("kind,seed", SPECTRA_CASES, ids=[f"{k}-{s}" for k, s in SPECTRA_CASES])
def test_span_spectra_match_nxn_oracle(kind, seed):
    signal, noise = _spectra_case(kind, seed)
    spec = derived_spectra(signal, noise)
    floor = 1e-14 * noise.lambda_v_plus  # for the quantities that are exactly 0
    got = [spec.lambda_vP_minus, spec.lambda_vrest_plus, spec.lambda_vPPperp]
    np.testing.assert_allclose(got, nxn_noise_spectra(signal, noise), rtol=1e-12, atol=floor)
    assert spec.lambda_v_plus == noise.lambda_v_plus
    if kind == "orthogonal":  # P' Sigma_v P = 0 and Sigma_v P = 0
        assert spec.lambda_vP_minus <= floor and spec.lambda_vPPperp <= floor


def test_realize_model_forms_no_nxn_noise_covariance_with_a_basis():
    # fig1b's noise has a basis B (r_v = 5 of n = 1000): its spectra are
    # read in span([P B]), and the package has no n x n Sigma_v to form.
    cfg = parse_config("fig1b")[0]
    model = realize_model(cfg)
    assert model.noise.B is not None and model.spectra.lambda_vrest_plus > 0

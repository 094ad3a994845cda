"""Experiment-engine tests: determinism, parallel equivalence, small runs."""

import functools
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_all_start_methods, get_context
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisypca.bounds import BoundInputs, sddn_bound, sddn_required_alpha
from noisypca.config import ExperimentConfig, parse_config
from noisypca.errors import InfeasibleModel, ValidationError
from noisypca.estimator import DataBatch, estimate_rank_eigengap, estimate_rank_threshold, pca_estimate, sample_covariance
import noisypca.experiments as experiments
from noisypca.experiments import (
    Cell,
    GridResult,
    _adversarial_measure,
    _adversarial_model,
    _block_moments,
    _cell,
    _covariance,
    _pca_se,
    _rank_measure,
    _tilted_basis,
    _trial,
    adversarial_experiment,
    bound_tightness,
    concentration_check,
    missing_data_experiment,
    phase_transition,
    rank_estimation,
    realize_model,
    refinement_loop,
    success_epsilon,
)
import noisypca.linalg as linalg
from noisypca.linalg import BasisMatrix, orthonormalize, subspace_error, top_r_eigvecs
from noisypca.model import (
    STREAM_AUX,
    STREAM_NOISE,
    STREAM_SDDN,
    STREAM_SIGNAL,
    SddnModel,
    SignalModel,
    UncorrNoiseModel,
    make_random_basis,
    noise_coefficients,
    refine_blocks,
    sample_sddn_batch,
    sample_signal,
    sample_uncorr_noise,
    signal_coefficients,
    substream,
    support_blocks,
    support_sequence,
)
from oracles import noise_covariance, orthogonal_complement
from test_model import _reference_sddn_batch, dwell_blocks


def small_cfg(**overrides):
    base = dict(
        n=40,
        r=3,
        signal_distribution="bounded_uniform",
        signal_lambdas=(12.0,),
        noise_rv="r",
        noise_distribution="bounded_uniform",
        noise_scale_base=1.1,
        noise_scale_slope=-0.1,
        sddn_enabled=True,
        sddn_s=2,
        sddn_b0=0.05,
        sddn_rho=1,
        sddn_q=0.001,
        alpha_grid=(300, 900),
        n_trials=4,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _frame_size(frame):
    """k = |U| + the columns of rest: D is k x k in the frame (U, rest)."""
    return len(frame[0]) + frame[1].shape[1]


def _is_identity(frame, n):
    rows, rest = frame
    return np.array_equal(rows, np.arange(n)) and rest.shape == (n, 0)


def _reference_columns(cfg, model, alpha, trial, supports, missing=False):
    """(y, a, v, w, sddn moments) of one trial as explicit n x alpha columns.

    The column form is the oracle of the moment form: the same substreams
    drawn through `sample_signal`, `sample_uncorr_noise` and the reference
    SDDN sampler, or for missing data l with its support rows erased.
    v, w and the moments are None where the trial has no such part.
    """
    n, r, seed = model.n, model.r, cfg.master_seed
    l, a = sample_signal(model.signal, substream(seed, STREAM_SIGNAL, n, r, alpha, trial), alpha)
    y = l.copy()
    if missing:
        y[supports.T, np.arange(alpha)[None, :]] = 0.0
        return y, a, None, None, None
    v = w = moments = None
    if model.noise is not None:
        v = sample_uncorr_noise(model.noise, substream(seed, STREAM_NOISE, n, r, alpha, trial), alpha)
        y += v
    if model.sddn is not None:
        w, moments = _reference_sddn_batch(
            model.sddn, model.signal.P, supports, l, substream(seed, STREAM_SDDN, n, r, alpha, trial),
            lambdas=model.signal.lambdas, moments=True,
        )
        y += w
    return y, a, v, w, moments


def _supports(model, alpha):
    """The support schedule of (model, alpha), or None without SDDN."""
    return None if model.sddn is None else support_sequence(model.n, model.sddn, alpha)


def _moment_parts(cfg, cell, trial, missing=False):
    """(C, x, blocks) of one trial in the cell's coordinates, as `_covariance` takes them.

    x = [a; c] and the SDDN factors are drawn here from the trial's
    substreams, apart from `_trial`, which hands on only the moments of x.
    Missing data is G = -P_T; with a noise-free model C is P in the cell's
    coordinates, so P_T is C[T].
    """
    model, alpha = cell.model, cell.alpha
    n, r, seed = model.n, model.r, cfg.master_seed
    x = signal_coefficients(model.signal, substream(seed, STREAM_SIGNAL, n, r, alpha, trial), alpha)
    if missing:
        lo, hi, t = cell.blocks
        return cell.c, x, (lo, hi, t, -cell.c[t])
    if model.noise is not None:
        c = noise_coefficients(model.noise, substream(seed, STREAM_NOISE, n, r, alpha, trial), alpha)
        x = np.concatenate([x, c])
    blocks = (*cell.blocks, np.zeros((0, 0, r)))
    if model.sddn is not None:
        rng = substream(seed, STREAM_SDDN, n, r, alpha, trial)
        blocks = sample_sddn_batch(model.sddn, r, cell.blocks, rng)
    return cell.c, x, blocks


# --- subspace estimate from the sample covariance ------------------------------

@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(2, 60),
    r_frac=st.floats(0.0, 1.0),
    alpha_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pca_se_gram_path_matches_pca_estimate(n, r_frac, alpha_frac, seed):
    # r <= alpha < n: the n x n covariance gives the estimate of the
    # alpha x alpha Gram matrix y'y/alpha, whose top-r eigenvectors V map
    # back as the columns of yV scaled to unit norm.
    r = 1 + int(r_frac * (n - 2))
    alpha = r + int(alpha_frac * (n - 1 - r))
    rng = np.random.default_rng(seed)
    # Singular values in [1, 10] over a 1e-3 tail: a clear top-r gap.
    left = make_random_basis(n, r, rng).entries
    right = make_random_basis(alpha, r, rng).entries
    y = (left * rng.uniform(1.0, 10.0, r)) @ right.T + 1e-3 * rng.standard_normal((n, alpha))
    u = y @ top_r_eigvecs(y.T @ y / alpha, r).entries
    reference = BasisMatrix(u / np.linalg.norm(u, axis=0))
    assert subspace_error(reference, pca_estimate(DataBatch(y), r)) <= 1e-10
    se = _pca_se(sample_covariance(DataBatch(y)), reference)
    assert se <= 1e-10


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(2, 40),
    r_frac=st.floats(0.0, 1.0),
    alpha_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pca_se_fewer_columns_than_rank_falls_back(n, r_frac, alpha_frac, seed):
    # alpha < r: the n x n covariance is decomposed, its top-alpha estimate
    # is the span of the columns, and the r-dim estimate contains it.
    r = 2 + int(r_frac * (n - 2))
    alpha = 1 + int(alpha_frac * (r - 2))
    y = np.random.default_rng(seed).standard_normal((n, alpha))
    d = sample_covariance(DataBatch(y))
    assert _pca_se(d, orthonormalize(y)) <= 1e-10
    assert subspace_error(top_r_eigvecs(d, r), orthonormalize(y)) <= 1e-10


@pytest.mark.parametrize(
    "n, alpha",
    [pytest.param(40, alpha, id=str(alpha)) for alpha in (3, 12, 40, 90)]
    + [pytest.param(400, alpha, id=f"n400-{alpha}") for alpha in (30, 100, 600)],
)
def test_rank_measure_matches_full_covariance(n, alpha):
    # The spectrum of D in frame coordinates is padded with n - k zeros.
    # The frame (k = |U| + 6) is smaller than the identity wherever k < n:
    # at n = 40 for alpha = 3 and 12 (k = 12 and 30), at n = 400 for every
    # alpha (k = 36 and 46). n = 40 at alpha = 40 and 90 has the identity
    # frame and decomposes D itself.
    cfg = small_cfg(n=n, alpha_grid=(alpha,))
    model = realize_model(cfg)
    supports = _supports(model, alpha)
    cell = _cell(model, alpha)
    assert (not _is_identity(cell.frame, n)) == (n == 400 or alpha < 40)
    for trial in range(3):
        y = _reference_columns(cfg, model, alpha, trial, supports)[0]
        w = np.linalg.eigvalsh(sample_covariance(DataBatch(y)))[::-1]
        expected = (estimate_rank_threshold(w, model.signal.lambda_minus), estimate_rank_eigengap(w))
        assert _rank_measure(cfg, cell, trial) == expected



@pytest.mark.parametrize("case", ["rank", "se", "deviation", "missing", "refine"])
def test_rank_measure_decomposes_once(case, monkeypatch):
    # One eigh of D per trial, or per stage of a refine trajectory. For the
    # rank measure it gives both the spectrum for the rank rules and the
    # checked estimate. The SDDN norms and the frame take SVDs, not
    # eigensolves; a refine stage's one eigvalsh is `refine_blocks`' check of
    # its s x s matrices B_T.
    if case == "refine":
        cfg = replace(parse_config("refine")[0], n_trials=1)
    else:
        cfg = (missing_cfg if case == "missing" else small_cfg)(n=400, alpha_grid=(600,))
    stages = cfg.refine_stages if case == "refine" else 1
    cell = _cell(realize_model(cfg), cfg.alpha_grid[0])
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, *args, _f=solve, _n=name: calls.append((_n, np.shape(a))) or _f(a, *args)
        )
    getattr(experiments, f"_{case}_measure")(cfg, cell, 0)
    dim = len(cell.c)
    assert [shape for name, shape in calls if name == "eigh"] == [(dim, dim)] * stages
    checks = [shape for name, shape in calls if name == "eigvalsh"]
    assert len(checks) == (stages if case == "refine" else 0)
    assert all(shape[1:] == (cfg.sddn_s, cfg.sddn_s) for shape in checks)


@pytest.mark.parametrize("measure", ["_se_measure", "_rank_measure", "_deviation_measure"])
def test_measures_reject_non_symmetric_covariance(measure, monkeypatch):
    # Each decomposes D through the linalg solvers, which check its symmetry.
    cfg = small_cfg(alpha_grid=(300,))
    cell = _cell(realize_model(cfg), 300)
    d, *rest = _trial(cfg, cell, 0)
    d = d.copy()
    d[0, 1] += 1e-6 * np.max(np.abs(d))
    monkeypatch.setattr(experiments, "_trial", lambda *args: (d, *rest))
    with pytest.raises(ValidationError, match="^input fails symmetry tolerance$"):
        getattr(experiments, measure)(cfg, cell, 0)


def test_rank_measure_checks_only_the_columns_it_uses(monkeypatch):
    # The rank rules read D's whole spectrum, but only the top r eigenvectors
    # are used, so no basis wider than r is built and checked.
    cfg = small_cfg(alpha_grid=(300,))
    cell = _cell(realize_model(cfg), 300)
    widths = []

    def recording(entries):
        basis = BasisMatrix(entries)
        widths.append(basis.r)
        return basis

    for module in (linalg, experiments):
        monkeypatch.setattr(module, "BasisMatrix", recording)
    _rank_measure(cfg, cell, 0)
    assert len(cell.c) > cfg.r
    assert max(widths) == cfg.r

# --- estimate in an orthonormal frame of the exact range ----------------------

FRAME_CASES = ("sddn with B", "sddn, no noise", "missing data", "no sddn")


def _frame_trial(case, trial=0):
    """(model, columns, cell, D in frame coordinates) of one trial whose frame has k < alpha < n."""
    cfg, alpha, missing = {
        "sddn with B": (small_cfg(n=400), 600, False),
        "sddn, no noise": (small_cfg(n=400, noise_rv=None), 600, False),
        "missing data": (missing_cfg(n=400), 600, True),
        "no sddn": (small_cfg(n=400, sddn_enabled=False), 200, False),
    }[case]
    model = realize_model(cfg)
    y = _reference_columns(cfg, model, alpha, trial, _supports(model, alpha), missing)[0]
    cell = _cell(model, alpha)
    d = _covariance(*_moment_parts(cfg, cell, trial, missing))[0]
    return model, y, cell, d


def _dense_frame(n, frame):
    """The n x k matrix F = [E_U | rest] of a frame (U, rest)."""
    rows, rest = frame
    return np.hstack([np.eye(n)[:, rows], rest])


@pytest.mark.parametrize("case", FRAME_CASES)
def test_range_frame_holds_every_column(case):
    model, y, cell, _ = _frame_trial(case)
    frame = cell.frame
    assert _frame_size(frame) < model.n
    f = _dense_frame(model.n, frame)
    assert f.shape[1] < y.shape[1]
    assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-10
    assert np.linalg.norm(y - f @ (f.T @ y)) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("case", FRAME_CASES)
def test_pca_se_in_frame_matches_full_dimension(case):
    # se against F'P (`Cell.p`) in D's coordinates is the se of the estimate
    # F u against P; the n x n D and the n-row P are the oracle.
    model, y, cell, d_frame = _frame_trial(case)
    d = sample_covariance(DataBatch(y))
    f = _dense_frame(model.n, cell.frame)
    assert np.max(np.abs(cell.p.entries - f.T @ model.signal.P.entries)) <= 1e-14
    se_frame = _pca_se(d_frame, cell.p)
    se_full = _pca_se(d, model.signal.P)
    k = _frame_size(cell.frame)
    assert d_frame.shape == (k, k)
    assert se_frame == pytest.approx(se_full, rel=1e-12, abs=0.0)
    # The k x k spectrum padded with n - k zeros is that of the n x n D.
    padded = np.concatenate([np.linalg.eigvalsh(d_frame)[::-1], np.zeros(model.n - k)])
    assert np.max(np.abs(padded - np.linalg.eigvalsh(d)[::-1])) <= 1e-10 * np.linalg.norm(d, 2)


def test_range_frame_none_cases_keep_gram_shapes(monkeypatch):
    # Full-dimensional noise (B = I): the identity frame, and D is n x n
    # at any alpha (there is no alpha x alpha Gram matrix any more).
    cfg = small_cfg(n=400, noise_rv="n")
    model = realize_model(cfg)
    for alpha in (200, 600):
        cell = _cell(model, alpha)
        assert _is_identity(cell.frame, 400)
        assert _trial(cfg, cell, 0)[0].shape == (400, 400)
    # k >= n: the support rows cover all 40 coordinates, and the size check
    # alone says so.
    cfg = small_cfg(alpha_grid=(900,))
    model = realize_model(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "orthonormalize", None)
        cell = _cell(model, 900)
    assert _is_identity(cell.frame, 40)
    assert _trial(cfg, cell, 0)[0].shape == (40, 40)
    # alpha <= k < n: the frame is used whenever k < n, and D is k x k.
    cfg = small_cfg(n=400)
    model = realize_model(cfg)
    for alpha in (30, 36):
        cell = _cell(model, alpha)
        k = _frame_size(cell.frame)
        assert alpha <= k < 400
        assert _trial(cfg, cell, 0)[0].shape == (k, k)


def _wrapping_schedule(n, s, alpha, dwell):
    """Blocks of s rows that start at row n - 1, so the first wraps modulo n."""
    starts = (n - 1 + (np.arange(alpha) // dwell) * s) % n
    return (starts[:, None] + np.arange(s)[None, :]) % n


# (n, s, b0, alpha, seed) whose support schedules wrap past row n - 1 onto
# rows of the first dwell block, so that two dwell blocks share rows; each is
# run without noise, with r_v = r, with B = I and with r_v = 4. ww's norm is
# the largest over groups of blocks that share rows, so the seeds are ones
# where the sharing group holds it: dropping the wrapped block's share moves
# ||ww|| by rel 0.04 to 0.3.
SHARED_ROW_SCHEDULES = ((10, 3, 0.3, 10, 3), (11, 2, 0.18, 46, 3), (13, 5, 0.4, 17, 10))
SHARED_ROW_NOISE = (None, "r", "n", 4)
SHARED_ROW_CASES = {
    f"shared rows, n={n} s={s} b0={b0} alpha={alpha}, noise {noise}": (n, s, b0, alpha, seed, noise)
    for n, s, b0, alpha, seed in SHARED_ROW_SCHEDULES
    for noise in SHARED_ROW_NOISE
}


def _shared_row_cfg(n, s, b0, seed, noise):
    return small_cfg(
        n=n, noise_rv=noise, noise_scale_base=0.6, noise_scale_slope=0.5,
        sddn_s=s, sddn_b0=b0, sddn_q=0.3, master_seed=seed,
    )


def _shares_rows(cell):
    """Whether two dwell blocks of the cell share a row (one block's rows are distinct)."""
    t = cell.blocks[2]
    return len(np.unique(t)) < t.size


COVARIANCE_CASES = (
    "sddn with B", "sddn, B = None", "sddn, no noise", "missing data", "no sddn",
    "wrapping block", "wrapping block, frame", "frame, sddn with B", "frame, missing data",
    *SHARED_ROW_CASES,
)


@pytest.mark.parametrize("case", COVARIANCE_CASES)
def test_covariance_matches_explicit_columns(case, monkeypatch):
    # The moment form equals the sample covariance of the n x alpha columns:
    # D itself in the identity frame, F'DF in a smaller one, and then
    # F (F'DF) F' is D.
    cfg, alpha, missing, wrapping, has_frame = {
        # (config, alpha, missing data, wrapping schedule, frame smaller than the identity)
        "sddn with B": (small_cfg(), 300, False, False, False),
        "sddn, B = None": (small_cfg(noise_rv="n"), 300, False, False, False),
        "sddn, no noise": (small_cfg(noise_rv=None), 300, False, False, False),
        "missing data": (missing_cfg(), 300, True, False, False),
        "no sddn": (small_cfg(sddn_enabled=False), 300, False, False, True),
        "wrapping block": (small_cfg(n=41, sddn_s=3), 30, False, False, False),
        "wrapping block, frame": (small_cfg(n=400), 200, False, True, True),
        "frame, sddn with B": (small_cfg(n=400), 600, False, False, True),
        "frame, missing data": (missing_cfg(n=400), 600, True, False, True),
        **{
            name: (_shared_row_cfg(n, s, b0, seed, noise), alpha, False, False, False)
            for name, (n, s, b0, alpha, seed, noise) in SHARED_ROW_CASES.items()
        },
    }[case]
    model = realize_model(cfg)
    supports = _wrapping_schedule(model.n, cfg.sddn_s, alpha, 50) if wrapping else _supports(model, alpha)
    if wrapping:  # the cell takes its dwell blocks and row counts from support_blocks
        counts = np.bincount(supports.ravel(), minlength=model.n)
        monkeypatch.setattr(experiments, "support_blocks", lambda *args: (dwell_blocks(supports), counts))
    if "wrapping" in case:
        assert any(rows[0] > rows[-1] for rows in supports)
    y = _reference_columns(cfg, model, alpha, 0, supports, missing)[0]
    cell = _cell(model, alpha)
    assert _shares_rows(cell) or case not in SHARED_ROW_CASES
    d_ref = sample_covariance(DataBatch(y))
    tol = 1e-12 * np.linalg.norm(d_ref, 2)
    d = _covariance(*_moment_parts(cfg, cell, 0, missing))[0]
    assert np.array_equal(d, d.T)
    if not missing:  # the trial's D, from the same draws
        assert np.array_equal(_trial(cfg, cell, 0)[0], d)
    assert (not _is_identity(cell.frame, model.n)) == has_frame
    if not has_frame:
        assert d.shape == (model.n, model.n)
        assert np.max(np.abs(d - d_ref)) <= tol
    else:
        f = _dense_frame(model.n, cell.frame)
        assert np.max(np.abs(d - f.T @ d_ref @ f)) <= tol
        assert np.max(np.abs(f @ d @ f.T - d_ref)) <= tol


@pytest.mark.parametrize("measure", ["_se_measure", "_deviation_measure", "_rank_measure", "_missing_measure"])
def test_measures_hold_no_n_by_alpha_columns(measure):
    # A trial works on its coefficients and per-block moments: its traced
    # peak stays below half of one n x alpha float matrix.
    n, alpha = 100, 16000
    fig1a = dict(n=n, r=5, sddn_s=5, alpha_grid=(alpha,))
    cfg = missing_cfg(**fig1a) if measure == "_missing_measure" else small_cfg(**fig1a)
    cell = _cell(realize_model(cfg), alpha)
    run = getattr(experiments, measure)
    run(cfg, cell, 0)  # first-call allocations are not the trial's
    tracemalloc.start()
    try:
        run(cfg, cell, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * alpha * 8 / 2


def test_cell_holds_no_alpha_by_s_schedule():
    # The cell builds its dwell blocks and row counts from the schedule's
    # arithmetic: its traced peak stays below half of one alpha x s index array.
    model, alpha = realize_model(parse_config("fig2a")[0]), 200000
    _cell(model, alpha)  # first-call allocations are not the cell's
    tracemalloc.start()
    try:
        _cell(model, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < alpha * model.sddn.s * 8 / 2


def test_trials_stack_no_coefficient_copies(monkeypatch):
    # x = [a; c] of a noisy fig2a trial, and y of an adversarial chunk, are
    # drawn into their row blocks in place; the cells (whose C is stacked
    # once) are built before the patch.
    cfg = parse_config("fig2a")[0]
    cell = _cell(realize_model(cfg), 2000)
    adv_cfg, adv_cell = adversarial_cell(10, 3, 500, [2.0, 2.0, 1.0])

    def no_vstack(*args, **kwargs):
        raise AssertionError("np.vstack on the trial path")

    monkeypatch.setattr(np, "vstack", no_vstack)
    experiments._se_measure(cfg, cell, 0)
    experiments._deviation_measure(cfg, cell, 0)
    _adversarial_measure(adv_cfg, adv_cell, 0)


def test_se_trial_peaks_near_one_coefficient_array():
    # At r = 20 and alpha = 20000, x = [a; c] (r + r_v = 40 rows) is the
    # largest array of a fig2a trial; drawn in place it is the only one of
    # its size, where scaled copies and a stacked x peaked at twice its bytes.
    r, alpha = 20, 20000
    cfg = parse_config("fig2a")[0]
    cell = _cell(realize_model(cfg, r=r), alpha)
    x_bytes = cell.c.shape[1] * alpha * 8
    assert x_bytes == 40 * alpha * 8
    experiments._se_measure(cfg, cell, 0)  # first-call allocations are not the trial's
    tracemalloc.start()
    try:
        experiments._se_measure(cfg, cell, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x_bytes


@pytest.mark.parametrize(
    "rows,r,alpha,d",
    [(10, 5, 16000, 800), (40, 20, 20000, 1000), (105, 5, 4100, 205), (10, 5, 7068, 29), (200, 100, 1000, 1),
     (6, 3, 1001, 50), (6, 3, 40, 40)],
)
def test_block_moments_equal_per_block_products(rows, r, alpha, d):
    # One stacked product over the blocks of length d, plus the shorter last
    # one, gives the bits of one product per block, for K_a = a x' and for
    # K_aa = a a'. The deviation norms read K_aa off K_a's first r columns,
    # which agree with a a' to rounding.
    x = np.random.default_rng(alpha).standard_normal((rows, alpha))
    lo = np.arange(0, alpha, d)
    hi = np.minimum(lo + d, alpha)
    with experiments._one_blas_thread():
        k_a = np.array([x[:r, i:j] @ x[:, i:j].T for i, j in zip(lo, hi)])
        k_aa = np.array([x[:r, i:j] @ x[:r, i:j].T for i, j in zip(lo, hi)])
        assert np.array_equal(_block_moments(x, lo, hi, r), k_a)
        assert np.array_equal(_block_moments(x[:r], lo, hi, r), k_aa)
    assert np.max(np.abs(k_a[:, :, :r] - k_aa)) <= 1e-13 * np.max(np.abs(k_aa))
    assert _block_moments(x, lo[:0], hi[:0], r).shape == (0, r, rows)


def test_range_frame_rank_deficient_is_none():
    # P lies on the support rows (0-3 in all 10 frames), so C with those
    # rows zeroed is 0, and the frame is the identity.
    n, r = 20, 3
    p = BasisMatrix(np.eye(n)[:, :r])
    model = SimpleNamespace(n=n, noise=None, signal=SimpleNamespace(P=p), sddn=SddnModel(s=4, b0=1.0))
    cell = _cell(model, 10)
    assert cell.blocks[2].tolist() == [[0, 1, 2, 3]]
    assert _is_identity(cell.frame, n)


EXPERIMENT_OF_MEASURE = {
    "_se_measure": bound_tightness,
    "_deviation_measure": concentration_check,
    "_rank_measure": rank_estimation,
    "_missing_measure": missing_data_experiment,
}


@pytest.mark.parametrize("measure", list(EXPERIMENT_OF_MEASURE))
def test_one_support_schedule_per_trial(measure, monkeypatch):
    # The schedule is built once per cell and shared by all its trials.
    calls, measured = [], []

    def counted(*args):
        calls.append(args)
        return support_blocks(*args)

    def counted_measure(cfg, cell, trial, _run=getattr(experiments, measure)):
        measured.append(trial)
        return _run(cfg, cell, trial)

    monkeypatch.setattr(experiments, "support_blocks", counted)
    monkeypatch.setattr(experiments, measure, counted_measure)
    grid = (600, 1200)
    make_cfg = missing_cfg if measure == "_missing_measure" else small_cfg
    cfg = make_cfg(n=400, alpha_grid=grid)
    EXPERIMENT_OF_MEASURE[measure](replace(cfg, n_trials=3))
    assert len(measured) == 6
    assert [args[2] for args in calls] == list(grid)


# --- trials ------------------------------------------------------------------

def test_cell_without_sddn_has_an_empty_record():
    # nb = 0 blocks: the trial runs through the same block sums on empty
    # arrays, and D is C K C' / alpha.
    for cfg in (small_cfg(sddn_enabled=False), small_cfg(sddn_enabled=False, noise_rv="n")):
        cell = _cell(realize_model(cfg), 300)
        assert [part.shape for part in cell.blocks] == [(0,), (0,), (0, 0)]
        assert cell.b == 0.0
        c, x, blocks = _moment_parts(cfg, cell, 0)
        assert blocks[3].shape == (0, 0, cfg.r)
        d_ref = c @ (x @ x.T) @ c.T / 300
        d, k, gk, trial_blocks = _trial(cfg, cell, 0)
        assert np.max(np.abs(d - d_ref)) <= 1e-12 * np.linalg.norm(d_ref, 2)
        assert np.array_equal(k, x @ x.T) and gk.shape == (0, 0, len(x))
        assert trial_blocks[3].shape == (0, 0, cfg.r)
        assert experiments._deviation_measure(cfg, cell, 0)[1:3] == (0.0, 0.0)


def test_noiseless_trials_exact():
    cfg = small_cfg(noise_rv=None, sddn_enabled=False, alpha_grid=(50,))
    _, mean_se, _, _ = bound_tightness(cfg).rows[0]
    assert mean_se <= 1e-8
    _, _, p_thr, p_gap = rank_estimation(cfg).rows[0]
    assert p_thr == 1.0
    assert p_gap == 1.0


def test_concentration_check_records_five_deviations():
    cfg = small_cfg(alpha_grid=(300,), n_trials=1)
    res = concentration_check(cfg)
    assert [row[1] for row in res.rows] == ["aa", "lw", "ww", "lv", "vv"]
    assert all(row[2] >= 0 for row in res.rows)
    b = _cell(realize_model(cfg), 300).b
    assert 0 < b <= cfg.sddn_b0 + cfg.sddn_s / 300 + 1e-12


def test_single_coordinate_model_runs():
    # n = 1 leaves no room for an eigengap rank estimate; experiments that
    # do not report ranks must not compute one.
    res = bound_tightness(ExperimentConfig(n=1, r=1, alpha_grid=(10,), n_trials=1))
    assert len(res.rows) == 1


def test_trial_se_below_bound_small_model():
    cfg = small_cfg(alpha_grid=(2000,), n_trials=6)
    res = bound_tightness(cfg)
    _, mean, mx, bound = res.rows[0]
    assert np.isfinite(bound)
    assert mx <= bound


def test_sddn_population_terms_within_expected_perturbation():
    # The realized-dependency aggregates obey the Cauchy-Schwarz caps.
    cfg = small_cfg(noise_rv=None, alpha_grid=(600,), sddn_q=0.4, sddn_s=4, sddn_b0=0.2)
    model = realize_model(cfg)
    supports = support_sequence(model.n, model.sddn, 600)
    rng = substream(5, 3, 40, 3, 600, 0)
    blocks = sample_sddn_batch(model.sddn, model.r, dwell_blocks(supports), rng)
    # Every frame of a block (lo, hi, T, G) adds G' on the columns T of
    # P' mean_m' and G Lambda G' on the (T, T) block of mean_mlm.
    lambdas = model.signal.lambdas
    pm, mean_mlm = np.zeros((model.r, model.n)), np.zeros((model.n, model.n))
    for lo, hi, rows, g in zip(*blocks):
        pm[:, rows] += (hi - lo) / 600 * g.T
        mean_mlm[np.ix_(rows, rows)] += (hi - lo) / 600 * ((g * lambdas) @ g.T)
    b = cfg.sddn_b0 + cfg.sddn_s / 600
    cross = np.linalg.norm(lambdas[:, None] * pm, 2)  # ||P Lambda P' mean_m'||
    power = np.linalg.norm(mean_mlm, 2)
    assert cross <= np.sqrt(b) * cfg.sddn_q * 12.0 * (1 + 1e-9)
    assert power <= np.sqrt(b) * cfg.sddn_q**2 * 12.0 * (1 + 1e-9)
    # The population caps on ||E[D-D0] P|| and lambda_max(E[D-D0]), each
    # lam_vPPperp or lam_vrest^+ plus sqrt(b)(2q+q^2) lam^+.
    spec = model.spectra
    shift = np.sqrt(b) * (2 * cfg.sddn_q + cfg.sddn_q**2) * spec.lambda_plus
    num, den = spec.lambda_vPPperp + shift, spec.lambda_vrest_plus + shift
    assert 2 * cross + power <= num + den  # loose cross-check of the assembly


# --- grid experiments -----------------------------------------------------------

def test_bound_tightness_zero_noise_flat():
    cfg = small_cfg(noise_rv=None, sddn_enabled=False, alpha_grid=(60, 240))
    res = bound_tightness(cfg)
    assert all(row[1] <= 1e-8 for row in res.rows)


def test_bound_tightness_columns_and_rows():
    cfg = small_cfg()
    res = bound_tightness(cfg)
    assert res.columns == ("alpha", "mean_se", "max_se", "bound")
    assert [row[0] for row in res.rows] == [300, 900]
    for row in res.rows:
        assert row[2] >= row[1]  # max >= mean


def test_phase_transition_requires_single_axis():
    with pytest.raises(ValidationError):
        phase_transition(small_cfg(r_grid=(2, 3), n_grid=(40, 80)))
    with pytest.raises(ValidationError):
        phase_transition(small_cfg())


def test_phase_transition_probabilities_valid():
    cfg = small_cfg(r_grid=(2, 3), n_trials=6, alpha_grid=(200, 800, 3200))
    res = phase_transition(cfg)
    probs = res.column("probability")
    assert all(0.0 <= p <= 1.0 for p in probs)
    # Per-row monotone non-decreasing in alpha up to one inversion.
    for value in (2, 3):
        row = [p for v, a, p in res.rows if v == value]
        inversions = sum(1 for x, y in zip(row, row[1:]) if y < x)
        assert inversions <= 1


def test_phase_transition_fixed_epsilon_rule():
    cfg = small_cfg(epsilon=0.05, r_grid=(3,), alpha_grid=(200, 1600), n_trials=4)
    model = realize_model(cfg, cfg.n, 3)
    assert success_epsilon(cfg, model) == 0.05
    res = phase_transition(cfg)
    assert len(res.rows) == 2


def test_concentration_check_zero_component_terms():
    cfg = small_cfg(sddn_q=0.0, alpha_grid=(400,), n_trials=3)
    res = concentration_check(cfg)
    by_term = {row[1]: row[2] for row in res.rows}
    assert by_term["lw"] == 0.0
    assert by_term["ww"] == 0.0
    cfg2 = small_cfg(noise_rv=None, alpha_grid=(400,), n_trials=3)
    res2 = concentration_check(cfg2)
    by_term2 = {row[1]: row[2] for row in res2.rows}
    assert by_term2["lv"] == 0.0
    assert by_term2["vv"] == 0.0


def _reference_deviation_measure(cfg, model, alpha, trial):
    """The five deviation norms as n x n products over the alpha columns."""
    _, a_cols, v_cols, w_cols, moments = _reference_columns(cfg, model, alpha, trial, _supports(model, alpha))
    lambdas = model.signal.lambdas
    pe = model.signal.P.entries
    l_cols = pe @ a_cols
    dev_aa = np.linalg.norm(a_cols @ a_cols.T / alpha - np.diag(lambdas), 2)
    dev_lw = dev_ww = 0.0
    if w_cols is not None:
        sigma_l = (pe * lambdas) @ pe.T
        dev_lw = np.linalg.norm(l_cols @ w_cols.T / alpha - sigma_l @ moments.mean_m.T, 2)
        dev_ww = np.linalg.norm(w_cols @ w_cols.T / alpha - moments.mean_mlm, 2)
    dev_lv = dev_vv = 0.0
    if v_cols is not None:
        dev_lv = np.linalg.norm(l_cols @ v_cols.T / alpha, 2)
        dev_vv = np.linalg.norm(v_cols @ v_cols.T / alpha - noise_covariance(model.noise), 2)
    return (float(dev_aa), float(dev_lw), float(dev_ww), float(dev_lv), float(dev_vv))


@settings(derandomize=True, deadline=None)
@given(
    s=st.integers(1, 3),
    blocks=st.integers(3, 15),
    r_frac=st.floats(0.0, 1.0),
    lambdas=st.lists(st.floats(1.0, 20.0), min_size=4, max_size=4),
    noise=st.sampled_from([None, "r", "n", "int"]),
    rv_frac=st.floats(0.0, 1.0),
    sddn=st.booleans(),
    q=st.floats(0.01, 0.9),
    alpha_ratio=st.floats(0.05, 3.0),
    gaussian=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_deviation_measure_matches_full_dimension_reference(
    s, blocks, r_frac, lambdas, noise, rv_frac, sddn, q, alpha_ratio, gaussian, seed
):
    # The norms taken on signal and noise coefficients equal the n x n ones.
    # n = s * blocks with b0 = 1/blocks keeps every support schedule valid.
    n = s * blocks
    r = 1 + int(r_frac * (min(n, 4) - 1))
    noise_rv = 1 + int(rv_frac * (n - 2)) if noise == "int" else noise
    distribution = "gaussian" if gaussian else "bounded_uniform"
    cfg = small_cfg(
        n=n, r=r, signal_lambdas=tuple(sorted(lambdas[:r], reverse=True)),
        signal_distribution=distribution, noise_distribution=distribution,
        noise_rv=noise_rv, noise_scale_base=0.6, noise_scale_slope=0.5,
        sddn_enabled=sddn, sddn_s=s, sddn_b0=1.0 / blocks, sddn_q=q, master_seed=seed,
    )
    _check_deviation_measure(cfg, max(1, int(alpha_ratio * n)))


@pytest.mark.parametrize("case", SHARED_ROW_CASES)
def test_deviation_measure_matches_reference_on_shared_rows(case):
    # n = s * blocks never wraps; these schedules give two blocks common rows.
    n, s, b0, alpha, seed, noise = SHARED_ROW_CASES[case]
    cfg = _shared_row_cfg(n, s, b0, seed, noise)
    assert _shares_rows(_cell(realize_model(cfg), alpha))
    _check_deviation_measure(cfg, alpha)


def _check_deviation_measure(cfg, alpha):
    model = realize_model(cfg)
    got = experiments._deviation_measure(cfg, _cell(model, alpha), 0)
    want = _reference_deviation_measure(cfg, model, alpha, 0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_concentration_check_medians_decay():
    cfg = small_cfg(alpha_grid=(200, 800, 3200), n_trials=9)
    res = concentration_check(cfg)
    for term in ("aa", "lw", "lv", "vv"):
        meds = [row[2] for row in res.rows if row[1] == term]
        assert meds[0] > meds[1] > meds[2]


def test_rank_estimation_small_model():
    cfg = small_cfg(alpha_grid=(3000,), n_trials=5)
    res = rank_estimation(cfg)
    alpha, delta, p_thr, p_gap = res.rows[0]
    assert delta < 0.5
    assert p_thr == 1.0
    assert p_gap == 1.0


def test_rank_delta_dominates_empirical_deviation():
    # ||D - D0||_2 <= Delta * lambda^- with D0 = P (Lambda + P'Sigma_v P) P',
    # in at least 95% of trials at c = 1.
    from noisypca.bounds import rank_delta
    from noisypca.estimator import sample_covariance, DataBatch
    from noisypca.experiments import bound_inputs
    from noisypca.model import row_occupancy

    alpha, trials = 2000, 20
    cfg = small_cfg(alpha_grid=(alpha,), n_trials=trials)
    model = realize_model(cfg)
    pe = model.signal.P.entries
    middle = np.diag(model.signal.lambdas) + pe.T @ noise_covariance(model.noise) @ pe
    d0 = pe @ middle @ pe.T
    supports = support_sequence(model.n, model.sddn, alpha)
    delta = rank_delta(
        bound_inputs(cfg, model, alpha, row_occupancy(supports, model.n))
    )
    cap = delta * model.signal.lambda_minus
    hits = 0
    for trial in range(trials):
        y = _reference_columns(cfg, model, alpha, trial, supports)[0]
        d = sample_covariance(DataBatch(y))
        hits += np.linalg.norm(d - d0, 2) <= cap
    assert hits >= 0.95 * trials


# --- adversarial -----------------------------------------------------------------

def test_adversarial_population_eigenspace_is_orthogonal_to_p_r():
    # Top-r eigenspace of the population matrix swaps P_r for the noise
    # direction, giving subspace error exactly one.
    rng = np.random.default_rng(0)
    n, r = 30, 4
    p = make_random_basis(n, r, rng)
    lambdas = np.array([14.0, 13.5, 13.5, 12.0])
    u = orthogonal_complement(p).entries[:, :1]
    expected_d = (p.entries * lambdas) @ p.entries.T + 1.2 * 12.0 * (u @ u.T)
    phat = top_r_eigvecs(expected_d, r)
    assert subspace_error(phat, p) == pytest.approx(1.0, abs=1e-10)


def test_adversarial_weak_noise_keeps_signal_space():
    rng = np.random.default_rng(1)
    n, r = 30, 4
    p = make_random_basis(n, r, rng)
    lambdas = np.array([14.0, 13.5, 13.5, 12.0])
    u = orthogonal_complement(p).entries[:, :1]
    weak_d = (p.entries * lambdas) @ p.entries.T + 0.5 * 12.0 * (u @ u.T)
    phat = top_r_eigvecs(weak_d, r)
    assert subspace_error(phat, p) <= 1e-10


def adversarial_cfg(n, r, alpha, lambdas, distribution="gaussian"):
    """One-trial config of the adversarial example at (n, r, alpha, lambdas)."""
    return small_cfg(
        n=n, r=r, signal_distribution=distribution, signal_lambdas=tuple(lambdas),
        noise_rv=None, sddn_enabled=False, alpha_grid=(alpha,), n_trials=1,
    )


def adversarial_cell(n, r, alpha, lambdas, distribution="gaussian"):
    """(cfg, cell) of the adversarial example, its model realized once (`_adversarial_model`)."""
    cfg = adversarial_cfg(n, r, alpha, lambdas, distribution)
    return cfg, _cell(_adversarial_model(cfg), alpha)


def test_adversarial_sigma_rejects_bad_profile():
    for n, r, lambdas, message in (
        (30, 5, [14.0, 13.0, 13.0, 13.0, 12.0], r"^need lambda_\(r-1\) >= 1\.1 lambda\^-: 13\.0 < 13\.2"),
        # The basis spans R^n, so there is no complement direction u.
        (3, 3, [14.0, 13.5, 12.0], "^basis already spans the full space$"),
        (30, 1, [-12.0], "^lambdas must be finite, positive and non-increasing$"),
        (30, 2, [14.0, -12.0], "^lambdas must be finite, positive and non-increasing$"),
        (30, 3, [14.0, 20.0, 12.0], "^lambdas must be finite, positive and non-increasing$"),
    ):
        with pytest.raises(ValidationError, match=message):
            _adversarial_model(adversarial_cfg(n, r, 1000, lambdas))


def test_adversarial_sigma_takes_no_n_by_n_svd(monkeypatch):
    # r = n is caught with the complement's message before any trial, and a
    # trial takes no SVD at all: its n x r basis draw, which se and the
    # deviation do not depend on, is never orthonormalized.
    cfg, cell = adversarial_cell(30, 3, 1000, [14.0, 13.5, 12.0])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append((a.shape, kw)) or svd(a, **kw))
    with pytest.raises(ValidationError, match="^basis already spans the full space$"):
        _adversarial_model(adversarial_cfg(3, 3, 1000, [14.0, 13.5, 12.0]))
    _adversarial_measure(cfg, cell, 0)
    assert calls == []


def _reference_adversarial_sigma(n, r, alpha, lambdas, rng, distribution="gaussian"):
    """The adversarial trial on n-dimensional columns y = P a + u c."""
    lambdas = np.asarray(lambdas, dtype=float)
    lam_minus = lambdas[-1]
    p = make_random_basis(n, r, rng)
    u = orthogonal_complement(p).entries[:, :1]
    signal = SignalModel(p, lambdas, distribution)
    variance = 1.2 * lam_minus
    amp = np.sqrt(3.0 * variance) if distribution == "bounded_uniform" else np.sqrt(variance)
    noise = UncorrNoiseModel(n=n, scales=np.array([amp]), distribution=distribution, B=BasisMatrix(u))
    d = np.zeros((n, n))
    done = 0
    while done < alpha:
        count = min(experiments._ADVERSARIAL_CHUNK, alpha - done)
        l_cols, _ = sample_signal(signal, rng, count)
        y = l_cols + sample_uncorr_noise(noise, rng, count)
        d += y @ y.T
        done += count
    d = (d + d.T) / (2.0 * alpha)
    expected = (p.entries * lambdas) @ p.entries.T + noise_covariance(noise)
    se = subspace_error(top_r_eigvecs(d, r), p)
    deviation = float(np.linalg.norm(d - expected, 2) / lam_minus)
    return float(se), deviation


@pytest.mark.parametrize(
    "n, r, alpha, lambdas, distribution",
    [
        (30, 1, 5000, [12.0], "gaussian"),
        (30, 1, 5000, [12.0], "bounded_uniform"),
        (30, 3, 20_000, [14.0, 13.5, 12.0], "gaussian"),
        (40, 4, 20_000, [14.0, 13.5, 13.5, 12.0], "bounded_uniform"),
        # Two chunks: the second holds one column.
        (6, 2, experiments._ADVERSARIAL_CHUNK + 1, [14.0, 12.0], "gaussian"),
        (6, 3, experiments._ADVERSARIAL_CHUNK + 1, [14.0, 13.5, 12.0], "bounded_uniform"),
    ],
)
def test_adversarial_sigma_matches_reference(n, r, alpha, lambdas, distribution, monkeypatch):
    # The measure on a drawn generator, patched in as the trial's substream.
    cfg, cell = adversarial_cell(n, r, alpha, lambdas, distribution)
    rng, ref_rng, keys = np.random.default_rng(4), np.random.default_rng(4), []
    monkeypatch.setattr(experiments, "substream", lambda *key: keys.append(key) or rng)
    se, dev = _adversarial_measure(cfg, cell, 0)
    assert keys == [(cfg.master_seed, STREAM_AUX, n, r, alpha, 0)]
    ref_se, ref_dev = _reference_adversarial_sigma(n, r, alpha, lambdas, ref_rng, distribution)
    assert se == pytest.approx(ref_se, rel=1e-12)
    assert dev == pytest.approx(ref_dev, rel=1e-12)
    # Same draws in the same order: both generators end in the same state.
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_adversarial_sigma_small_run(monkeypatch):
    cfg, cell = adversarial_cell(30, 3, 120_000, [14.0, 13.5, 12.0])
    rng = np.random.default_rng(3)
    monkeypatch.setattr(experiments, "substream", lambda *key: rng)
    se, dev = _adversarial_measure(cfg, cell, 0)
    assert dev < 0.05
    assert se >= 1.0 - 11.1 * dev - 1e-9


def test_adversarial_experiment_rows():
    cfg = small_cfg(
        n=30, r=3, signal_distribution="gaussian",
        signal_lambdas=(14.0, 13.5, 12.0), noise_rv=None, sddn_enabled=False,
        alpha_grid=(50_000,), n_trials=2,
    )
    res = adversarial_experiment(cfg)
    assert res.columns == ("trial", "se", "deviation")
    assert len(res.rows) == 2
    assert res.rows[0][0] == 0 and res.rows[1][0] == 1


# --- refinement -------------------------------------------------------------------

def refinement_cfg(**overrides):
    # Contraction precondition 3 sqrt(b) f < 0.2 forces occupancy below
    # 0.0044, hence n well above 225 * s. The batch size is the one
    # sddn_required_alpha gives with eps_se = q/4 and constant 16.
    base = dict(
        n=240,
        r=3,
        signal_distribution="bounded_uniform",
        signal_lambdas=(12.0,),
        noise_rv=None,
        sddn_enabled=True,
        sddn_s=1,
        sddn_b0=1.0 / 240,
        sddn_rho=1,
        sddn_q=0.0,
        alpha_grid=(sddn_required_alpha(1.0, 1.0, 3, 240, 0.25, 16.0),),
        n_trials=1,
        master_seed=2,
        refine_q0=0.06,
        refine_stages=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _trajectory(result, trial):
    """The se column of one trial's rows of a refinement_loop result."""
    return [se for t, _, se, _ in result.rows if t == trial]


def test_refinement_zero_start_stays_exact():
    res = refinement_loop(refinement_cfg(refine_q0=0.0))
    assert all(row[2] <= 1e-8 for row in res.rows)


def test_refinement_single_stage_within_sddn_bound():
    cfg = refinement_cfg(refine_stages=1)
    res = refinement_loop(cfg)
    trial, stage, se, stage_bound = res.rows[0]
    model = realize_model(cfg)
    alpha = cfg.alpha_grid[0]
    supports = support_sequence(240, model.sddn, alpha)
    from noisypca.model import row_occupancy

    inputs = BoundInputs(
        spectra=model.spectra, r=3, r_v=0, n=240, alpha=alpha, eta=3.0,
        q=0.06, b=row_occupancy(supports, 240), c=1.0, regime="bounded",
    )
    report = sddn_bound(inputs)
    assert report.feasible
    assert se <= report.se_bound


def test_refinement_requires_small_occupancy():
    with pytest.raises(InfeasibleModel):
        refinement_loop(refinement_cfg(sddn_s=12, sddn_b0=0.1))


def test_refinement_trajectory_contracts():
    res = refinement_loop(refinement_cfg(n_trials=2))
    assert res.columns == ("trial", "stage", "se", "stage_bound")
    assert [row[:2] for row in res.rows] == [(t, k) for t in range(2) for k in range(1, 4)]
    ses = _trajectory(res, 1)
    bounds_col = [row[3] for row in res.rows if row[0] == 1]
    assert all(se <= b for se, b in zip(ses, bounds_col))
    assert ses[-1] <= ses[0]


def _refine_start(cfg, trial):
    """(model, alpha, start estimate) of a refinement trajectory."""
    model = realize_model(cfg)
    rng = substream(cfg.master_seed, STREAM_AUX, cfg.n, cfg.r, trial)
    phat = _tilted_basis(model.signal.P, cfg.refine_q0 / 1.2, rng)
    return model, cfg.alpha_grid[0], phat


def _stage_coefficients(cfg, model, alpha, trial, k):
    return signal_coefficients(
        model.signal, substream(cfg.master_seed, STREAM_SIGNAL, cfg.n, cfg.r, alpha, trial, k), alpha
    )


def _reference_refinement(cfg, trial):
    """se after each stage of one trajectory in n coordinates, with C = P and no frame.

    The stage loop as it ran before refinement became a trial measure in
    the cell's frame: D is the n x n covariance of each stage, and the
    estimate is carried as an n x r basis.
    """
    model, alpha, phat = _refine_start(cfg, trial)
    p = model.signal.P
    blocks = dwell_blocks(support_sequence(cfg.n, model.sddn, alpha))
    ses = []
    for k in range(1, cfg.refine_stages + 1):
        a = _stage_coefficients(cfg, model, alpha, trial, k)
        phat = top_r_eigvecs(_covariance(p.entries, a, refine_blocks(p.entries, phat.entries, blocks))[0], cfg.r)
        ses.append(subspace_error(phat, p))
    return ses


def test_refinement_matches_n_coordinate_loop():
    # The frame form against the n-coordinate loop on trials 0-2 of the
    # preset: stage 1 agrees to rel 1e-10; later stages have tiny errors
    # whose last digits move with rounding (rel 1e-6 at stage 4).
    cfg = replace(parse_config("refine")[0], n_trials=3)
    res = refinement_loop(cfg)
    for trial in range(3):
        got, want = _trajectory(res, trial), _reference_refinement(cfg, trial)
        assert got[0] == pytest.approx(want[0], rel=1e-10, abs=0.0), trial
        assert got == pytest.approx(want, rel=1e-4, abs=0.0), trial


def _reference_refine_columns(cfg, model, alpha, phat, trial, k=1):
    """The n x alpha columns l + e of refinement stage k, the column form.

    l = P a is drawn from the stage's substream through `sample_signal`, and
    e = I_T B_T^{-1} I_T' (I - Phat Phat') l is solved block by block on the
    columns, as the stage did before it was built from moments.
    """
    n, r = model.n, model.r
    l, _ = sample_signal(model.signal, substream(cfg.master_seed, STREAM_SIGNAL, n, r, alpha, trial, k), alpha)
    resid = l - phat.entries @ (phat.entries.T @ l)
    e = np.zeros_like(l)
    for lo, hi, rows in zip(*dwell_blocks(support_sequence(n, model.sddn, alpha))):
        ht = phat.entries[rows]
        e[rows, lo:hi] = np.linalg.solve(np.eye(len(rows)) - ht @ ht.T, resid[rows, lo:hi])
    return DataBatch(l + e)


@pytest.mark.parametrize("trial", range(3))
def test_refinement_stage_matches_column_form(trial):
    # Stage 1 of the preset: D from the signal coefficients and the
    # refine_blocks factors equals the sample covariance of l + e, both in
    # n coordinates and in the cell's frame F (F'DF from C = F'P and F'Phat,
    # the path refinement_loop takes), and the reported se is that of PCA on
    # the columns.
    cfg = replace(parse_config("refine")[0], refine_stages=1, n_trials=trial + 1)
    model, alpha, phat = _refine_start(cfg, trial)
    p = model.signal.P
    columns = _reference_refine_columns(cfg, model, alpha, phat, trial)
    d_ref = sample_covariance(columns)
    a = _stage_coefficients(cfg, model, alpha, trial, 1)
    blocks = dwell_blocks(support_sequence(cfg.n, model.sddn, alpha))
    d = _covariance(p.entries, a, refine_blocks(p.entries, phat.entries, blocks))[0]
    assert np.max(np.abs(d - d_ref)) <= 1e-12 * np.linalg.norm(d_ref, 2)
    cell = _cell(model, alpha)
    rows, rest = cell.frame
    f = np.hstack([np.eye(cfg.n)[:, rows], rest])
    np.testing.assert_allclose(cell.c, f.T @ p.entries, rtol=0.0, atol=1e-14)
    d_frame = _covariance(cell.c, a, refine_blocks(cell.c, f.T @ phat.entries, cell.blocks))[0]
    assert np.max(np.abs(d_frame - f.T @ d_ref @ f)) <= 1e-12 * np.linalg.norm(d_ref, 2)
    se_ref = subspace_error(pca_estimate(columns, cfg.r), p)
    assert _trajectory(refinement_loop(cfg), trial) == [pytest.approx(se_ref, rel=1e-12, abs=0.0)]


def test_refinement_holds_no_n_by_alpha_columns():
    # A preset-sized trajectory works on the signal coefficients and the
    # per-block factors: its traced peak stays below half of one n x alpha
    # float matrix.
    cfg = replace(parse_config("refine")[0], refine_stages=1, n_trials=1)
    alpha = cfg.alpha_grid[0]
    refinement_loop(cfg)  # first-call allocations are not the stage's
    tracemalloc.start()
    try:
        refinement_loop(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.n * alpha * 8 / 2

# --- missing data -----------------------------------------------------------------

def missing_cfg(**overrides):
    base = dict(
        n=60,
        r=3,
        signal_distribution="bounded_uniform",
        signal_lambdas=(12.0,),
        noise_rv=None,
        sddn_enabled=True,
        sddn_s=3,
        sddn_b0=0.05,
        sddn_rho=1,
        sddn_q=0.0,
        alpha_grid=(2000,),
        n_trials=4,
        master_seed=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_missing_data_within_bound():
    res = missing_data_experiment(missing_cfg())
    alpha, mean, mx, bound = res.rows[0]
    assert mx <= bound
    assert mean <= mx


def test_missing_data_refuses_when_q_exceeds_one():
    with pytest.raises(InfeasibleModel, match=r">= 1: basis too sparse or too many missing rows$"):
        missing_data_experiment(missing_cfg(sddn_s=50))


@pytest.mark.parametrize("measure", list(EXPERIMENT_OF_MEASURE))
def test_bad_bound_inputs_fail_before_any_trial(measure, monkeypatch):
    # At alpha = 1 every support row is in the one frame, so b = 1: the
    # bound inputs reject it before the good alpha's trials run.
    calls = []
    monkeypatch.setattr(experiments, measure, lambda *args: calls.append(args))
    make_cfg = missing_cfg if measure == "_missing_measure" else small_cfg
    with pytest.raises(ValidationError, match=r"b must lie in \[0, 1\)"):
        EXPERIMENT_OF_MEASURE[measure](make_cfg(alpha_grid=(300, 1)))
    assert calls == []


def test_bad_phase_transition_cell_fails_before_any_trial(monkeypatch):
    # At n = 10 the support block sweeps the rows every 5 dwells, so the last
    # cell (n = 10, alpha = 300) exceeds the occupancy cap b0 + s/alpha; every
    # cell is built before the first trial runs.
    calls = []
    monkeypatch.setattr(experiments, "_se_measure", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match="exceeds b0"):
        phase_transition(small_cfg(n_grid=(40, 10), alpha_grid=(10, 300)))
    assert calls == []


def test_missing_noise_check_runs_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_missing_measure", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match="sddn_bound expects a noise-free Sigma_v"):
        missing_data_experiment(missing_cfg(noise_rv="r", noise_scale_base=1.0))
    assert calls == []


# --- determinism and CSV ----------------------------------------------------------

def test_grid_result_csv_format():
    res = GridResult(("alpha", "x"), [(10, 0.5), (20, float("inf"))])
    data = res.to_csv_bytes().decode()
    lines = data.strip().split("\n")
    assert lines[0] == "alpha,x"
    assert lines[1] == "10,0.5"
    assert lines[2] == "20,inf"
    long_float = GridResult(("v",), [(0.1 + 0.2,)]).to_csv_bytes().decode()
    assert "0.30000000000000004" in long_float


def test_bound_tightness_bytes_deterministic():
    cfg = small_cfg()
    a = bound_tightness(cfg).to_csv_bytes()
    b = bound_tightness(cfg).to_csv_bytes()
    assert a == b


def test_trial_experiments_worker_count_invariant():
    adversarial_cfg = small_cfg(
        n=30, r=3, signal_distribution="gaussian",
        signal_lambdas=(14.0, 13.5, 12.0), noise_rv=None, sddn_enabled=False,
        alpha_grid=(20_000,), n_trials=3,
    )
    cases = [
        (bound_tightness, small_cfg()),
        (concentration_check, small_cfg(n_trials=3)),
        (rank_estimation, small_cfg(n_trials=3)),
        (missing_data_experiment, missing_cfg(alpha_grid=(500, 1000), n_trials=3)),
        (adversarial_experiment, adversarial_cfg),
    ]
    for experiment, cfg in cases:
        serial = experiment(cfg, workers=1).to_csv_bytes()
        parallel = experiment(cfg, workers=2).to_csv_bytes()
        assert serial == parallel, experiment.__name__


def test_phase_transition_worker_count_invariant():
    cfg = small_cfg(r_grid=(2, 3), alpha_grid=(200, 800), n_trials=4)
    serial = phase_transition(cfg, workers=1).to_csv_bytes()
    parallel = phase_transition(cfg, workers=3).to_csv_bytes()
    assert serial == parallel


def _blas_threads_measure(cfg, cell, trial):
    return experiments.blas_threads()


def _failing_measure(cfg, cell, trial):
    raise ValidationError("measure failed")


def _cell_measure(cfg, cell, trial):
    return cell.alpha, trial


def test_run_trials_runs_at_one_blas_thread_and_restores_the_count():
    # One list per cell in trial order, also when a worker's interleaved
    # share takes trials of several cells.
    cells = [Cell(None, alpha) for alpha in (100, 200, 300)]
    for workers in (1, 2, 4):
        got = experiments._run_trials(small_cfg(n_trials=3), cells, _cell_measure, workers)
        assert got == [[(cell.alpha, t) for t in range(3)] for cell in cells]
    previous = experiments.blas_threads()
    if previous is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    cfg, cells = small_cfg(n_trials=3), [Cell(None, 100)]
    experiments._set_blas_threads(2)
    try:
        for workers in (1, 2):
            assert experiments._run_trials(cfg, cells, _blas_threads_measure, workers) == [[1, 1, 1]]
            assert experiments.blas_threads() == 2
        with pytest.raises(ValidationError, match="^measure failed$"):
            experiments._run_trials(cfg, cells, _failing_measure)
        assert experiments.blas_threads() == 2
    finally:
        experiments._set_blas_threads(previous)


def _worker_threads_measure(cfg, cell, trial):
    a = np.random.default_rng(trial).standard_normal((200, 200))
    np.linalg.eigh(a + a.T)
    return experiments.blas_threads(), len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")
def test_pool_workers_run_on_one_thread(monkeypatch):
    # A forked worker inherits the count of 1; setting it again would restart
    # OpenBLAS's thread server, a second thread that spins beside the trials.
    if experiments.blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    got = experiments._run_trials(small_cfg(n_trials=4), [Cell(None, 100)], _worker_threads_measure, 2)
    assert got == [[(1, 1)] * 4]


def test_set_blas_threads_calls_the_setter_only_to_change_the_count(monkeypatch):
    count, calls = [1], []

    def put(c):
        calls.append(c)
        count[0] = c

    monkeypatch.setattr(experiments, "_openblas", lambda: (lambda: count[0], put))
    experiments._set_blas_threads(1)
    assert calls == []
    experiments._set_blas_threads(2)
    experiments._set_blas_threads(2)
    assert calls == [2]
    with experiments._one_blas_thread():
        assert count == [1]
    assert calls == [2, 1, 2]


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and starts no process.

    It runs the initializer in the calling process, as each worker does.
    """

    sizes = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers, trials, cells, cpus, size",
    [
        (64, 2, 1, 8, 2),  # capped by the run's 2 trials
        (64, 3, 3, 8, 8),  # capped by the usable CPUs
        (3, 4, 2, 8, 3),  # the requested count
        (4, 3, 1, 1, None),  # one usable CPU: runs in the calling process
        (64, 1, 1, 8, None),  # one trial: runs in the calling process
    ],
)
def test_run_trials_caps_the_pool(workers, trials, cells, cpus, size, monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(experiments, "_WORKER", None)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    cells = [Cell(None, 100 * (i + 1)) for i in range(cells)]
    got = experiments._run_trials(small_cfg(n_trials=trials), cells, _cell_measure, workers)
    assert got == [[(cell.alpha, t) for t in range(trials)] for cell in cells]
    assert _RecordingPool.sizes == ([] if size is None else [size])


def _raise_on_pickle(self, protocol):
    raise AssertionError("a Cell was pickled")


@pytest.mark.skipif("fork" not in get_all_start_methods(), reason="no fork start method")
def test_forked_pool_pickles_no_cell(monkeypatch):
    # Forked workers hold the task table in their forked memory: only share
    # numbers and results cross the pipes.
    cfg = small_cfg(r_grid=(2, 3), alpha_grid=(200, 800), n_trials=3)
    cells = [_cell(realize_model(cfg, r=r), alpha) for r in cfg.r_grid for alpha in cfg.alpha_grid]
    serial = experiments._run_trials(cfg, cells, experiments._se_measure)
    monkeypatch.setattr(Cell, "__reduce_ex__", _raise_on_pickle)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=get_context("fork"))
    )
    assert experiments._run_trials(cfg, cells, experiments._se_measure, 2) == serial


def test_spawned_pool_equals_serial(monkeypatch):
    # Workers started by spawn (or forkserver) unpickle the task table once,
    # through the initializer, and set their own BLAS count.
    cfg = small_cfg(r_grid=(2, 3), alpha_grid=(200, 800), n_trials=3)
    cells = [_cell(realize_model(cfg, r=r), alpha) for r in cfg.r_grid for alpha in cfg.alpha_grid]
    serial = experiments._run_trials(cfg, cells, experiments._se_measure)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(
        experiments, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=get_context("spawn"))
    )
    assert experiments._run_trials(cfg, cells, experiments._se_measure, 2) == serial


def test_pooled_measure_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    previous = experiments.blas_threads()
    cfg, cells = small_cfg(n_trials=3), [Cell(None, 100)]
    experiments._set_blas_threads(2)
    try:
        with pytest.raises(ValidationError, match="measure failed"):
            experiments._run_trials(cfg, cells, _failing_measure, 2)
        assert experiments.blas_threads() == (None if previous is None else 2)
    finally:
        experiments._set_blas_threads(previous)


def test_usable_cpus_is_positive():
    assert experiments._usable_cpus() >= 1


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        small_cfg(alpha_grid=())
    with pytest.raises(ValidationError):
        small_cfg(n_trials=0)
    # SddnModel holds the one check on q and b0, and the model is built before any trial.
    with pytest.raises(ValidationError, match=r"^sddn_q must lie in \[0, 1\), got 1.2$"):
        realize_model(small_cfg(sddn_q=1.2))
    with pytest.raises(ValidationError, match=r"^sddn_q must lie in \[0, 1\), got 1.2$"):
        bound_tightness(small_cfg(sddn_q=1.2))
    realize_model(small_cfg(sddn_enabled=False, sddn_q=1.5))  # no SDDN: q is not read
    with pytest.raises(ValidationError, match="^need 1 <= r <= n, got r=50, n=40$"):
        small_cfg(r=50)
    with pytest.raises(ValidationError):
        bound_tightness(small_cfg(), workers=0)
    for c in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            small_cfg(c=c)
    with pytest.raises(ValidationError):
        small_cfg(master_seed=-1)
    # An integer noise_rv is checked against each grid n as the model is drawn.
    with pytest.raises(ValidationError, match="noise_rv=50 exceeds n=40"):
        realize_model(small_cfg(noise_rv=50))
    with pytest.raises(ValidationError, match="noise_rv=50 exceeds n=45"):
        phase_transition(small_cfg(noise_rv=50, n_grid=(60, 45)))
    for bad in (dict(r_grid=(0,)), dict(n_grid=(2, -3)), dict(noise_rv=0), dict(noise_rv=-1),
                dict(epsilon=float("nan")), dict(epsilon=0.0), dict(epsilon=float("inf")),
                # q0 / 1.2 is a sine; stages >= 1.
                dict(refine_q0=2.0), dict(refine_q0=float("nan")), dict(refine_q0=-0.5),
                dict(refine_q0=float("inf")), dict(refine_stages=0), dict(refine_stages=-1)):
        with pytest.raises(ValidationError):
            small_cfg(**bad)
    for good in (dict(refine_q0=0.0), dict(refine_q0=1.2), dict(refine_stages=1)):
        small_cfg(**good)

"""Seeded Monte Carlo experiment engine.

Experiments provided:

bound_tightness        mean/max subspace error vs. the closed-form bound
                       over an alpha grid
phase_transition       empirical success probability P(se <= eps) over an
                       (r or n) x alpha grid
concentration_check    empirical medians of the five batch deviation norms
                       against their high-probability bounds
rank_estimation        fraction of trials in which each automatic rank
                       estimator returns the true r
adversarial_experiment worst-case noise covariance aligned with a
                       complement direction; large error despite small
                       sample deviation
refinement_loop        staged re-estimation where each pass shrinks the
                       effective noise-to-signal ratio geometrically
missing_data_experiment PCA on columns with erased blocks vs. the
                       incoherence-based bound

Every experiment that runs trials runs them through one sweep, `_sweep`,
and one runner, `_run_trials`, which applies the experiment's measure to
each (grid cell, trial). The sweep builds each cell (`Cell`) once, so all
its trials share its schedule, range frame and C, then each cell's bound,
then makes one runner call. Each (grid point, trial) owns an independent
RNG substream, aggregation is order-independent, and every trial runs at
one BLAS thread in whichever process runs it (the CLI runs its whole
command so), so the CSV bytes are a pure function of (config,
master_seed): identical across reruns, for any worker count and any
OPENBLAS_NUM_THREADS, as long as numpy's bundled OpenBLAS is found.
"""

import contextlib
import ctypes
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import (
    BoundInputs,
    concentration_bounds,
    general_bound,
    missing_q,
    rank_delta,
    sddn_bound,
    success_floor,
)
from .config import with_overrides  # unused here: bench/checks.py imports it from this module
from .errors import InfeasibleModel, RankDeficient, ValidationError
from .estimator import estimate_rank_eigengap, estimate_rank_threshold
from .linalg import (
    BasisMatrix,
    incoherence,
    orthonormalize,
    subspace_error,
    symmetric_eig,
    top_r_eigvecs,
)
from .model import (
    STREAM_AUX,
    STREAM_MODEL,
    STREAM_NOISE,
    STREAM_SDDN,
    STREAM_SIGNAL,
    SddnModel,
    SignalModel,
    UncorrNoiseModel,
    derived_spectra,
    make_random_basis,
    noise_coefficients,
    profile_scales,
    refine_blocks,
    sample_sddn_batch,
    signal_coefficients,
    substream,
    support_blocks,
)

DEVIATION_TERMS = ("aa", "lw", "ww", "lv", "vv")


@dataclass(frozen=True)
class ModelRealization:
    """One drawn model: fixed across trials and across the alpha grid."""

    n: int
    r: int
    signal: SignalModel
    noise: object  # UncorrNoiseModel | None
    sddn: object  # SddnModel | None
    spectra: object  # DerivedSpectra


def realize_model(cfg, n=None, r=None):
    """Draw (P, B) for the given grid point from the master seed.

    The realization depends only on (master_seed, n, r), so every alpha
    and every trial of one experiment sees the same subspaces.
    """
    n = cfg.n if n is None else n
    r = cfg.r if r is None else r
    rng = substream(cfg.master_seed, STREAM_MODEL, n, r)
    p = make_random_basis(n, r, rng)
    signal = SignalModel(p, cfg.lambdas_for(r), cfg.signal_distribution)
    r_v = cfg.rv_for(n, r)
    noise = None
    if r_v is not None:
        b = None if r_v == n else make_random_basis(n, r_v, rng)
        scales = profile_scales(r_v, cfg.noise_scale_base, cfg.noise_scale_slope)
        noise = UncorrNoiseModel(n=n, scales=scales, distribution=cfg.noise_distribution, B=b)
    return ModelRealization(n, r, signal, noise, _sddn_model(cfg), derived_spectra(signal, noise))


def _sddn_model(cfg):
    """cfg's SddnModel, None without SDDN: the one check of the sddn_* values, before any trial."""
    return SddnModel(s=cfg.sddn_s, b0=cfg.sddn_b0, rho=cfg.sddn_rho, q=cfg.sddn_q) if cfg.sddn_enabled else None


def bound_inputs(cfg, model, alpha, b):
    """BoundInputs of (model, alpha) at occupancy b; the regime is bounded only if the signal and any noise are."""
    noise_bounded = model.noise is None or model.noise.distribution == "bounded_uniform"
    regime = "bounded" if model.signal.distribution == "bounded_uniform" and noise_bounded else "subgaussian"
    return BoundInputs(
        spectra=model.spectra,
        r=model.r,
        r_v=model.noise.r_v if model.noise is not None else 0,
        n=model.n,
        alpha=alpha,
        eta=model.signal.eta,
        q=model.sddn.q if model.sddn is not None else 0.0,
        b=b,
        c=cfg.c,
        regime=regime,
    )


# ---------------------------------------------------------------------------
# Grid cells, built once per (model, alpha), and trial measures: one per kind
# of experiment, each a pure function of (cfg, cell, trial) that reduces one
# trial to what is reported
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """A grid cell (model, alpha) and what all its trials share (`_cell`).

    Every cell has its dwell blocks as one array record (empty without SDDN)
    and a frame (the identity where no smaller one applies).
    """

    model: object  # ModelRealization
    alpha: int
    blocks: object = None  # the schedule's dwell blocks (lo, hi, T), T (nb, s) in D's coordinates
    frame: object = None  # (U, rest): D is F'DF with F = [E_U | rest]
    c: object = None  # C = [P B] in D's coordinates
    b: float = 0.0  # realized per-row occupancy, 0 without SDDN
    p: object = None  # F'P, C's first r columns: a BasisMatrix, as P lies in the frame (`_pca_se`)


def _cell(model, alpha):
    """The cell of (model, alpha): schedule, frame and C, built once.

    Off the support rows T a column is y = C x with x = [a; c] and C = [P B]
    (P alone without noise, [P I] for full-dimensional noise), and the SDDN
    term (or, for missing data, the erased entries) lies on the rows T. So
    every column lies in span{e_i : i in U} + span(C), with U the distinct
    support rows, and in the orthonormal frame F = [E_U | rest], rest =
    orth(C_U) with C_U = C with rows U zeroed. D is k x k in frame
    coordinates: C becomes F'C = [C[U]; rest'C] and T its positions in U
    (rest is zero on U). Where it gains nothing or does not exist (k >= n,
    as for full-dimensional noise, or a rank-deficient C_U), the frame is the
    identity: U is all n rows and rest is n x 0. The size is checked before
    C_U is orthonormalized. Without SDDN the blocks are the empty record.
    """
    n, c = model.n, model.signal.P.entries
    if model.noise is not None:
        c = np.hstack([c, model.noise.B.entries])
    blocks, rows, b = (np.zeros(0, int), np.zeros(0, int), np.zeros((0, 0), int)), [], 0.0
    if model.sddn is not None:
        blocks, counts = support_blocks(n, model.sddn, alpha)
        b, rows = float(np.max(counts) / alpha), np.flatnonzero(counts)
    frame = np.arange(n), np.zeros((n, 0))
    if len(rows) + c.shape[1] < n:
        c_u = c.copy()
        c_u[rows] = 0.0
        with contextlib.suppress(RankDeficient):
            frame = rows, orthonormalize(c_u).entries
    lo, hi, t = blocks
    c = _in_frame(frame, c)
    p = BasisMatrix(c[:, : model.signal.P.r])
    return Cell(model, alpha, (lo, hi, np.searchsorted(frame[0], t)), frame, c, b, p)


def _in_frame(frame, x):
    """F'x = [x[U]; rest'x] for the n-row x and the frame (U, rest) of a cell (`_cell`)."""
    return np.vstack([x[frame[0]], frame[1].T @ x])


def _signal(cfg, model, alpha, *key, out=None):
    """The r x alpha signal coefficients a of a trial or of a refine stage (key = trial, stage), into out."""
    rng = substream(cfg.master_seed, STREAM_SIGNAL, model.n, model.r, alpha, *key)
    return signal_coefficients(model.signal, rng, alpha, out=out)


def _trial(cfg, cell, trial):
    """(D, K, G K_a, blocks) of one trial, D in the cell's coordinates (`_covariance`).

    The coefficients x = [a; c] (l = P a, v = B c; no c rows without noise)
    are drawn in place into one array, and blocks are the cell's dwell
    blocks with their factors G, the record (lo, hi, T, G), empty (nb = 0)
    without SDDN; each from its own substream. The columns are y = C x plus
    the block terms.
    """
    model, alpha = cell.model, cell.alpha
    n, r = model.n, model.r
    seed = cfg.master_seed
    x = np.empty((cell.c.shape[1], alpha))
    _signal(cfg, model, alpha, trial, out=x[:r])
    if model.noise is not None:
        noise_coefficients(model.noise, substream(seed, STREAM_NOISE, n, r, alpha, trial), alpha, out=x[r:])
    blocks = (*cell.blocks, np.zeros((0, 0, r)))
    if model.sddn is not None:
        blocks = sample_sddn_batch(model.sddn, r, cell.blocks, substream(seed, STREAM_SDDN, n, r, alpha, trial))
    return (*_covariance(cell.c, x, blocks), blocks)


def _covariance(c, x, blocks):
    """(D, K, G K_a): the sample covariance D of the columns y = C x + block terms, without forming them.

    D is the `_moment_covariance` of K = x x' and the (nb, s, len(x)) stack
    G K_a over the record (lo, hi, T, G); K and G K_a are returned with D.
    """
    lo, hi, t, g = blocks
    k, gk = x @ x.T, g @ _block_moments(x, lo, hi, g.shape[2])
    return _moment_covariance(c, k, gk, t, g, x.shape[1]), k, gk


def _moment_covariance(c, k, gk, t, g, alpha):
    """D from the moments K and G K_a of alpha columns y = C x + block terms, the blocks' rows T and factors G.

    In block i, column t is y_t = C x_t + I_T[i] G[i] a_t, with a_t the
    first r = G.shape[2] rows of x_t. So, with K = x x', K_a = a x' over
    the block and K_aa its first r columns,

        alpha D = C K C' + sum_blk (R + R' + I_T G K_aa G' I_T'),  R = I_T G K_a C',

    formed as H C' + C H' + W with H = C K / 2 + sum_blk I_T G K_a (so the
    B-part of C is multiplied once, not per block) and W the (T, T) sums,
    each scattered by one `np.add.at` in block order. C and T are in D's
    coordinates: in a cell's frame (`_cell`), D is F'DF. D is linear in
    (K, G K_a), so on moments less their means it is D less its mean
    (`_deviation_measure`).
    """
    r = g.shape[2]
    h = c @ k / 2.0
    np.add.at(h, t, gk)
    w = np.zeros((c.shape[0], c.shape[0]))
    np.add.at(w, (t[:, :, None], t[:, None, :]), gk[:, :, :r] @ g.swapaxes(1, 2))
    d = h @ c.T + w / 2.0
    return (d + d.T) / alpha


def _block_moments(x, lo, hi, r):
    """The (nb, r, len(x)) stack of x[:r, i:j] x[:, i:j]' over the dwell blocks [i, j) of (lo, hi).

    Every block of a `support_blocks` schedule has the first one's length d, except possibly a
    shorter last one (s = n gives one block, no SDDN none): one stacked matmul takes the full ones.
    """
    d = hi[0] - lo[0] if len(lo) else 0
    full = np.count_nonzero(hi - lo == d)
    xb = x[:, : full * d].reshape(len(x), full, d).swapaxes(0, 1)
    k = xb[:, :r] @ xb.swapaxes(1, 2)
    if full < len(lo):
        k = np.concatenate([k, (x[:r, lo[-1] :] @ x[:, lo[-1] :].T)[None]])
    return k


def _checked_se(se):
    se = float(se)
    if not 0.0 <= se <= 1.0 + 1e-12:
        raise ValidationError(f"subspace error {se} outside [0, 1]")
    return se


def _pca_se(d, p):
    """se of the top-r PCA estimate from the sample covariance D against the basis p, both in D's coordinates.

    In a cell's frame F (`_cell`), D is F'DF, k x k, and p is F'P (`Cell.p`):
    F is orthonormal and holds P and the estimate F u, so ||(I - uu')F'P||
    is the n-dimensional se ||(I - Fuu'F')P||.
    """
    return _checked_se(subspace_error(top_r_eigvecs(d, p.r), p))


def _se_measure(cfg, cell, trial):
    """Subspace error of one trial (bound tightness, phase transition)."""
    return _pca_se(_trial(cfg, cell, trial)[0], cell.p)


def _deviation_measure(cfg, cell, trial):
    """The five batch deviation norms (aa, lw, ww, lv, vv) of one trial, read off one moment covariance.

    The block terms w = I_T G a lie in D's coordinates, so z = [x; w] is
    C x + block terms with C = [I; 0] and T shifted by len(x). On the moments
    less their means, K - alpha diag(Lambda, sigma^2) and G K_a less
    (hi - lo) G Lambda on its first r columns, `_moment_covariance` gives
    z z'/alpha less its mean. Its blocks a a', w a', w w', a c' and c c'
    are the five deviations: l = P a and v = B c with orthonormal P and B,
    ||P X|| = ||X||, and D's frame holds w, so the norms are those of the
    n-dimensional ones. A block that is empty (no noise) has norm 0.
    """
    model, alpha = cell.model, cell.alpha
    d, k, gk, (lo, hi, t, g) = _trial(cfg, cell, trial)
    # Not reported, but every trial's estimate is checked.
    _pca_se(d, cell.p)
    r, m = model.r, len(k)
    gk[:, :, :r] -= (hi - lo)[:, None, None] * (g * model.signal.lambdas)
    k = k - alpha * np.diag(_variances(model))
    z = _moment_covariance(np.eye(m + len(cell.c), m), k, gk, t + m, g, alpha)
    blocks = z[:r, :r], z[m:, :r], z[m:, m:], z[:r, r:m], z[r:m, r:m]
    return tuple(float(np.linalg.norm(block, 2)) for block in blocks)


def _variances(model):
    """diag E[x x'] of a trial's coefficients x = [a; c]: Lambda, then sigma^2 with noise."""
    return np.append(model.signal.lambdas, () if model.noise is None else model.noise.sigma2)


def _rank_measure(cfg, cell, trial):
    """(threshold, eigengap) rank estimates of one trial.

    D is k x k (k the frame size or n) and lacks the n - k zero eigenvalues
    of the n x n covariance; they are padded on. One `linalg.symmetric_eig`
    gives the spectrum and, as its first r eigenvectors, the top-r estimate,
    whose se is checked as `_pca_se` does; only those r columns are checked for orthonormality.
    """
    model = cell.model
    w, v = symmetric_eig(_trial(cfg, cell, trial)[0])
    _checked_se(subspace_error(BasisMatrix(v[:, : model.r]), cell.p))
    w = np.concatenate([w, np.zeros(model.n - len(w))])
    return estimate_rank_threshold(w, model.signal.lambda_minus), estimate_rank_eigengap(w)


def _missing_measure(cfg, cell, trial):
    """Subspace error of one trial with the support entries erased: G = -P_T, in D's coordinates."""
    p, (lo, hi, t) = cell.p, cell.blocks
    d = _covariance(p.entries, _signal(cfg, cell.model, cell.alpha, trial), (lo, hi, t, -p.entries[t]))[0]
    return _pca_se(d, p)


def _refine_measure(cfg, cell, trial):
    """se after each stage of one refinement trajectory (`refinement_loop`), in D's coordinates.

    P lies in the frame, so C = F'P (`Cell.p`; model noise plays no part)
    and Phat'P = (F'Phat)'C: the start, tilted from P by q0 / 1.2, enters
    as F'Phat_0, and each stage's estimate is D's top-r eigenvectors u.
    """
    model, fp = cell.model, cell.p
    p, c = model.signal.P, fp.entries
    start = _tilted_basis(p, cfg.refine_q0 / 1.2, substream(cfg.master_seed, STREAM_AUX, p.n, p.r, trial))
    phat, ses = _in_frame(cell.frame, start.entries), []
    for k in range(1, cfg.refine_stages + 1):
        d = _covariance(c, _signal(cfg, model, cell.alpha, trial, k), refine_blocks(c, phat, cell.blocks))[0]
        u = top_r_eigvecs(d, p.r)
        phat = u.entries
        ses.append(_checked_se(subspace_error(u, fp)))
    return ses


# Samples accumulated per block of the covariance. The chunking fixes the
# shapes of the rng draws, so changing it changes the adversarial stream.
_ADVERSARIAL_CHUNK = 100000


def _adversarial_measure(cfg, cell, trial):
    """(se, deviation) of one adversarial trial (`_adversarial_model`), deviation = ||D - E[D]||_2 / lam^-.

    The trial's substream is keyed by the configured n. It first gives the
    n x r normal draw of the n-dimensional trial's basis, which se and the
    deviation do not depend on, so it is drawn only to keep the stream.
    Then y = [a; c] is drawn chunk by chunk and y y' summed into D.
    """
    model, alpha = cell.model, cell.alpha
    signal, noise, r = model.signal, model.noise, model.r
    rng = substream(cfg.master_seed, STREAM_AUX, cfg.n, r, alpha, trial)
    rng.standard_normal((cfg.n, r))
    d = np.zeros((r + 1, r + 1))
    for start in range(0, alpha, _ADVERSARIAL_CHUNK):
        y = np.empty((r + 1, min(_ADVERSARIAL_CHUNK, alpha - start)))
        signal_coefficients(signal, rng, y.shape[1], out=y[:r])
        noise_coefficients(noise, rng, y.shape[1], out=y[r:])
        d += y @ y.T
    d = (d + d.T) / (2.0 * alpha)
    deviation = np.linalg.norm(d - np.diag(_variances(model)), 2) / signal.lambda_minus
    return _pca_se(d, cell.p), float(deviation)


# ---------------------------------------------------------------------------
# BLAS threads: trials run in parallel through processes, one thread each
# ---------------------------------------------------------------------------

@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads():
    """The BLAS thread count in effect, or None when it cannot be read or set."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def _set_blas_threads(count):
    """Set the BLAS thread count unless it is in effect: the setter restarts the thread
    server OpenBLAS stops at fork, which then spins beside the trials. No-op without the library."""
    lib = _openblas()
    if lib is not None and lib[0]() != count:
        lib[1](count)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body at one BLAS thread, then restore the caller's count."""
    previous = blas_threads()
    _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(previous)


# ---------------------------------------------------------------------------
# Trial runner (deterministic for any worker count)
# ---------------------------------------------------------------------------

def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_trials(cfg, cells, measure, workers=1):
    """measure(cfg, cell, trial) for every trial of every grid cell.

    cells is the experiment's whole grid as `Cell`s, each built once by the
    caller and shared by all its trials. Returns one list per cell, in trial
    order.
    The trials run in a process pool of min(workers, trials of the run,
    usable CPUs) processes, or in the calling process when that is 1: a
    pool starts all its processes at the first task, so more would only
    idle. Each worker gets the measure and the whole task table once,
    through the pool initializer (`_start_worker`): a forked worker has them
    in its forked memory, one started by spawn or forkserver unpickles them
    once, and only share numbers and results cross the pipes. There are
    size shares, share k the tasks k, k + size, ... (`_run_share`): the
    tasks are cell-major and a trial costs more at larger alpha, so
    interleaving balances the shares. Each trial draws only from its own
    substreams, so the results do not depend on the worker count. Every
    trial runs at one BLAS thread, so they do not depend on the caller's
    thread count either; the caller's count is restored on return.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    n = cfg.n_trials
    tasks = [(cfg, cell, t) for cell in cells for t in range(n)]
    size = min(workers, len(tasks), _usable_cpus())
    with _one_blas_thread():
        if size <= 1:
            results = list(map(measure, *zip(*tasks)))
        else:
            results = [None] * len(tasks)
            with ProcessPoolExecutor(
                max_workers=size, initializer=_start_worker, initargs=(measure, tasks)
            ) as pool:
                for k, share in enumerate(pool.map(_run_share, range(size), [size] * size)):
                    results[k::size] = share
    return [results[i : i + n] for i in range(0, len(results), n)]


# (measure, tasks) of the run in a pool worker, set once by `_start_worker`.
_WORKER = None


def _start_worker(measure, tasks):
    """Pool initializer: keep the run's measure and task table, at one BLAS thread (a forked worker inherits it)."""
    global _WORKER
    _set_blas_threads(1)
    _WORKER = measure, tasks


def _run_share(k, size):
    """The results of tasks k, k + size, ... of the run's table, in a pool worker (`_start_worker`)."""
    measure, tasks = _WORKER
    return [measure(*task) for task in tasks[k::size]]


def _sweep(cfg, models, measure, bound, workers):
    """(cell, bound(cell), trial results) for each (model, alpha) of the grid, models outermost.

    Every cell is built first, then every bound, and then one `_run_trials`
    call runs the whole grid: a bad alpha or model fails before any trial.
    """
    cells = [_cell(model, alpha) for model in models for alpha in cfg.alpha_grid]
    bounds = [bound(cell) for cell in cells]
    return list(zip(cells, bounds, _run_trials(cfg, cells, measure, workers)))


def _on_inputs(cfg, bound):
    """The sweep bound bound(inputs) on a cell's `BoundInputs`, at its realized occupancy b."""
    return lambda cell: bound(bound_inputs(cfg, cell.model, cell.alpha, cell.b))


# ---------------------------------------------------------------------------
# Grid results and CSV emission
# ---------------------------------------------------------------------------

def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


@dataclass
class GridResult:
    """Aggregated experiment output: named columns plus one row per grid cell."""

    columns: tuple
    rows: list

    def to_csv_bytes(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return ("\n".join(lines) + "\n").encode("ascii")

    def write(self, path=None):
        data = self.to_csv_bytes()
        if path is None or path == "-":
            sys.stdout.write(data.decode("ascii"))
        else:
            with open(path, "wb") as fh:
                fh.write(data)

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def bound_tightness(cfg, workers=1):
    """Mean/max subspace error and the c-calibrated bound per alpha."""
    se_bound = _on_inputs(cfg, lambda inputs: general_bound(inputs).se_bound)
    sweep = _sweep(cfg, [realize_model(cfg)], _se_measure, se_bound, workers)
    rows = [(cell.alpha, float(np.mean(ses)), float(np.max(ses)), bound) for cell, bound, ses in sweep]
    return GridResult(("alpha", "mean_se", "max_se", "bound"), rows)


def success_epsilon(cfg, model):
    """Error target for phase-transition success counting.

    A fixed cfg.epsilon is returned as it is; by default the target is 1.5
    times the population floor `bounds.success_floor`.
    """
    if cfg.epsilon is not None:
        return float(cfg.epsilon)
    sddn = model.sddn
    q, b0 = (sddn.q, sddn.b0) if sddn is not None else (0.0, 0.0)
    return 1.5 * success_floor(model.spectra, q, b0)


def phase_transition(cfg, workers=1):
    """Success probability P(se <= eps) over (r or n) x alpha."""
    if (cfg.r_grid is None) == (cfg.n_grid is None):
        raise ValidationError("set exactly one of r_grid / n_grid")
    axis_name = "r" if cfg.r_grid is not None else "n"
    values = cfg.r_grid if cfg.r_grid is not None else cfg.n_grid
    models = [realize_model(cfg, *((cfg.n, v) if axis_name == "r" else (v, cfg.r))) for v in values]
    sweep = _sweep(cfg, models, _se_measure, lambda cell: success_epsilon(cfg, cell.model), workers)
    rows = [(getattr(cell.model, axis_name), cell.alpha, float(np.mean([se <= eps for se in ses])))
            for cell, eps, ses in sweep]
    return GridResult((axis_name, "alpha", "probability"), rows)


def concentration_check(cfg, workers=1):
    """Median of each batch deviation norm against its concentration bound."""
    lemma_bounds = _on_inputs(cfg, concentration_bounds)
    sweep = _sweep(cfg, [realize_model(cfg)], _deviation_measure, lemma_bounds, workers)
    rows = [(cell.alpha, term, float(np.median([t[idx] for t in norms])), limits[term])
            for cell, limits, norms in sweep for idx, term in enumerate(DEVIATION_TERMS)]
    return GridResult(("alpha", "term_name", "empirical_median", "lemma_bound"), rows)


def rank_estimation(cfg, workers=1):
    """Fraction of trials in which each rank estimator recovers the true r."""
    if cfg.n < 2:  # the eigengap rule searches j = 1..floor(n/2)
        raise ValidationError(f"need 1 <= max_rank < n, got {cfg.n // 2}")
    rows = []
    sweep = _sweep(cfg, [realize_model(cfg)], _rank_measure, _on_inputs(cfg, rank_delta), workers)
    for cell, delta, ranks in sweep:
        p_thr = np.mean([thr == cfg.r for thr, _ in ranks])
        p_gap = np.mean([gap == cfg.r for _, gap in ranks])
        rows.append((cell.alpha, delta, float(p_thr), float(p_gap)))
    return GridResult(("alpha", "delta", "p_threshold", "p_gap"), rows)


def _adversarial_model(cfg):
    """The adversarial model, in the r + 1 coordinates of [P u]: P = [I; 0] and B = u = e_{r+1}.

    The noise along the complement direction u has variance 1.2 lam^-, so
    the population top-r eigenspace swaps a signal direction for u, and the
    sample one does too once the deviation is small: se approaches one.
    Requires r < n and lambda_{r-1} >= 1.1 lambda^-; n enters only through
    each trial's basis draw (`_adversarial_measure`).
    """
    r, lambdas, distribution = cfg.r, cfg.lambdas_for(cfg.r), cfg.signal_distribution
    lam_minus = lambdas[-1]
    if r >= 2 and lambdas[r - 2] < 1.1 * lam_minus:
        raise ValidationError(f"need lambda_(r-1) >= 1.1 lambda^-: {lambdas[r - 2]} < {1.1 * lam_minus}")
    if r >= cfg.n:
        raise ValidationError("basis already spans the full space")
    _sddn_model(cfg)  # this model has no SDDN, but the sddn_* values are checked as for every experiment
    coords = np.eye(r + 1)
    signal = SignalModel(BasisMatrix(coords[:, :r]), lambdas, distribution)
    variance = 1.2 * lam_minus
    amp = np.sqrt(3.0 * variance) if distribution == "bounded_uniform" else np.sqrt(variance)
    noise = UncorrNoiseModel(r + 1, [amp], distribution, BasisMatrix(coords[:, r]))
    return ModelRealization(r + 1, r, signal, noise, None, derived_spectra(signal, noise))


def adversarial_experiment(cfg, workers=1):
    """Per-trial (se, deviation) rows for the adversarial covariance."""
    if len(cfg.alpha_grid) != 1:
        raise ValidationError(f"adversarial takes one alpha, got alpha_grid={cfg.alpha_grid}")
    ((_, _, results),) = _sweep(cfg, [_adversarial_model(cfg)], _adversarial_measure, lambda cell: None, workers)
    rows = [(trial, se, dev) for trial, (se, dev) in enumerate(results)]
    return GridResult(("trial", "se", "deviation"), rows)


def _tilted_basis(p, target_se, rng):
    """Basis at exact subspace error target_se from p (rotate first column); target_se > 0 needs r < n."""
    if target_se <= 0:
        return p
    direction = rng.standard_normal(p.n)
    direction -= p.entries @ (p.entries.T @ direction)
    direction /= np.linalg.norm(direction)
    theta = np.arcsin(target_se)
    entries = p.entries.copy()
    entries[:, 0] = np.cos(theta) * entries[:, 0] + np.sin(theta) * direction
    return BasisMatrix(entries)


def refinement_loop(cfg, workers=1):
    """Staged subspace refinement under projection-induced sparse noise, one trajectory per trial.

    q0 and the stage count come from cfg's refine_* fields, the batch size
    from its one alpha. From an estimate with error q0/1.2, each stage
    re-estimates the subspace from l_t + e_t on a fresh batch and should
    contract the error by 0.3: se_k <= 0.25 * q0 * 0.3^(k-1). The error e_t
    = I_T B_T^{-1} I_T' (I - Phat Phat') l_t is SDDN with block factor G =
    B_T^{-1} (P_T - Phat_T Phat'P) (`refine_blocks`), and C = P. The
    contraction needs 3 sqrt(b) f < 0.2 for the cell's realized occupancy b.

    Returns a GridResult with columns (trial, stage, se, stage_bound).
    """
    if cfg.refine_stages is None or cfg.refine_q0 is None:
        raise ValidationError("refinement needs q0 and a stage count")
    if not cfg.sddn_enabled:
        raise ValidationError("refinement needs the sparse support model")
    if len(cfg.alpha_grid) != 1:
        raise ValidationError(f"refine takes one alpha, got alpha_grid={cfg.alpha_grid}")
    if cfg.refine_q0 > 0 and cfg.r == cfg.n:
        raise ValidationError(f"r = n = {cfg.n}: no direction outside span(P) to tilt the start toward")

    def stage_bounds(cell):
        if 3.0 * np.sqrt(cell.b) * cell.model.signal.f >= 0.2:
            raise InfeasibleModel(f"refinement contraction requires 3 sqrt(b) f < 0.2, got b = {cell.b:.6f}")
        return [0.25 * cfg.refine_q0 * 0.3**k for k in range(cfg.refine_stages)]

    ((_, bounds, results),) = _sweep(cfg, [realize_model(cfg)], _refine_measure, stage_bounds, workers)
    rows = [(trial, k + 1, se, bounds[k]) for trial, ses in enumerate(results) for k, se in enumerate(ses)]
    return GridResult(("trial", "stage", "se", "stage_bound"), rows)


def missing_data_experiment(cfg, workers=1):
    """PCA with erased entry blocks against the incoherence-based bound."""
    if not cfg.sddn_enabled:
        raise ValidationError("missing-data experiment needs the support model")
    model = realize_model(cfg)
    q = missing_q(incoherence(model.signal.P), model.r, cfg.sddn_s, model.n)
    se_bound = _on_inputs(cfg, lambda inputs: sddn_bound(replace(inputs, q=q)).se_bound)
    sweep = _sweep(cfg, [model], _missing_measure, se_bound, workers)
    rows = [(cell.alpha, float(np.mean(ses)), float(np.max(ses)), bound) for cell, bound, ses in sweep]
    return GridResult(("alpha", "mean_se", "max_se", "bound"), rows)

"""Output checks: properties the method must have, and numbers recomputed apart.

Every check takes parsed CSV rows and returns a list of error strings; an
empty list means the output passed. Nothing is compared against a stored
copy of an earlier CSV.
"""

import csv
import io
import math

REL_TOL = 1e-12
# Slack for "non-increasing" / "non-decreasing" comparisons, as in the
# acceptance suite's inversion count.
ORDER_SLACK = 1e-15


def read_csv(data):
    """(header, rows) of CSV bytes; numeric cells become floats."""
    reader = csv.reader(io.StringIO(data.decode("ascii")))
    header = next(reader)
    rows = []
    for raw in reader:
        row = []
        for cell in raw:
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows


def _close(got, want, rel=REL_TOL):
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= rel * max(abs(want), abs(got))


def same_table(a, b, rel=REL_TOL):
    """Errors unless two parsed CSVs agree cell by cell at relative tolerance rel."""
    (head_a, rows_a), (head_b, rows_b) = a, b
    if head_a != head_b:
        return [f"headers differ: {head_a} vs {head_b}"]
    if len(rows_a) != len(rows_b):
        return [f"row counts differ: {len(rows_a)} vs {len(rows_b)}"]
    errors = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for name, x, y in zip(head_a, ra, rb):
            if not _close(x, y, rel):
                errors.append(f"row {i} {name}: {x!r} vs {y!r}")
    return errors


def _inversions(values, direction):
    """Steps against `direction` (+1 non-decreasing, -1 non-increasing)."""
    return sum(1 for a, b in zip(values, values[1:]) if direction * (a - b) > ORDER_SLACK)


def _expect_header(header, want):
    return [] if header == list(want) else [f"header {header}, want {list(want)}"]


def check_tightness(table, expected_bounds):
    """bound-tightness: dominance, ranges, monotone mean, recomputed bounds.

    expected_bounds maps alpha to the bound recomputed by `expected_bound`.
    """
    header, rows = table
    errors = _expect_header(header, ("alpha", "mean_se", "max_se", "bound"))
    if errors:
        return errors
    if [row[0] for row in rows] != sorted(expected_bounds):
        return [f"alphas {[row[0] for row in rows]}, want {sorted(expected_bounds)}"]
    for alpha, mean_se, max_se, bound in rows:
        if not 0.0 <= mean_se <= max_se <= 1.0:
            errors.append(f"alpha {alpha:g}: need 0 <= mean_se {mean_se} <= max_se {max_se} <= 1")
        if not max_se <= bound:
            errors.append(f"alpha {alpha:g}: max_se {max_se} above bound {bound}")
        if not _close(bound, expected_bounds[alpha]):
            errors.append(f"alpha {alpha:g}: bound {bound!r}, recomputed {expected_bounds[alpha]!r}")
    if _inversions([row[1] for row in rows], -1) > 1:
        errors.append("mean_se rises with alpha more than once")
    return errors


def check_phase(table, axis="r"):
    """phase-transition: probabilities in [0, 1], rising in alpha, reaching 0.9."""
    header, rows = table
    errors = _expect_header(header, (axis, "alpha", "probability"))
    if errors:
        return errors
    by_value = {}
    for value, alpha, prob in rows:
        if not 0.0 <= prob <= 1.0:
            errors.append(f"{axis}={value:g} alpha={alpha:g}: probability {prob} outside [0, 1]")
        by_value.setdefault(value, []).append((alpha, prob))
    for value, cells in by_value.items():
        probs = [p for _, p in sorted(cells)]
        if _inversions(probs, +1) > 1:
            errors.append(f"{axis}={value:g}: probability falls with alpha more than once")
        if max(probs) < 0.9:
            errors.append(f"{axis}={value:g}: probability never reaches 0.9 (max {max(probs)})")
    return errors


def check_concentration(table):
    """concentration: medians below their lemma bounds, falling as 1/sqrt(alpha)."""
    header, rows = table
    errors = _expect_header(header, ("alpha", "term_name", "empirical_median", "lemma_bound"))
    if errors:
        return errors
    by_term = {}
    for alpha, term, median, bound in rows:
        if not median < bound:
            errors.append(f"{term} alpha={alpha:g}: median {median} not below bound {bound}")
        by_term.setdefault(term, []).append((alpha, median))
    for term, cells in by_term.items():
        cells.sort()
        medians = [m for _, m in cells]
        if not all(a > b for a, b in zip(medians, medians[1:])):
            errors.append(f"{term}: median does not fall with alpha: {medians}")
        rates = [m * math.sqrt(a) for a, m in cells]
        if min(rates) <= 0 or max(rates) / min(rates) >= 2.0:
            errors.append(f"{term}: sqrt(alpha)-rate spread {rates} not below 2")
    return errors


# ---------------------------------------------------------------------------
# The general bound, recomputed apart from noisypca.bounds
# ---------------------------------------------------------------------------

def occupancy(n, s, b0, rho, alpha):
    """Largest per-row occupancy of the dwell-then-advance support schedule."""
    dwell = max(rho * math.ceil(b0 * alpha / rho), 1)
    counts = [0] * n
    for t in range(alpha):
        start = (t // dwell) * s % n
        for k in range(s):
            counts[(start + k) % n] += 1
    return max(counts) / alpha


def expected_bound(cfg, p, b_basis, alpha):
    """General subspace-error bound for one alpha, from cfg and the drawn (P, B).

    P is n x r and B is n x r_v (None for full-dimension noise, no noise
    when cfg.noise_rv is None); the spectra come from numpy here, not from
    noisypca.model.derived_spectra.
    """
    import numpy as np

    n, r = p.shape
    lam = np.asarray(cfg.lambdas_for(r), dtype=float)
    lam_minus, lam_plus = float(lam.min()), float(lam.max())
    f = lam_plus / lam_minus
    r_v = cfg.rv_for(n, r)
    lv_plus = lv_p_minus = lv_rest = lv_cross = 0.0
    if r_v is not None:
        i = np.arange(1, r_v + 1, dtype=float)
        amp2 = (cfg.noise_scale_base + cfg.noise_scale_slope * i / r_v) ** 2
        sigma2 = amp2 / 3.0 if cfg.noise_distribution == "bounded_uniform" else amp2
        basis = np.eye(n) if b_basis is None else b_basis
        sigma_v = basis @ np.diag(sigma2) @ basis.T
        if sigma2.max() > 0:
            lv_plus = float(sigma2.max())
            inner = p.T @ sigma_v @ p
            lv_p_minus = max(float(np.linalg.eigvalsh(inner).min()), 0.0)
            lv_rest = max(float(np.linalg.eigvalsh(sigma_v - p @ inner @ p.T).max()), 0.0)
            perp = np.eye(n) - p @ p.T
            lv_cross = float(np.linalg.svd(perp @ sigma_v @ p, compute_uv=False)[0])
    ratio = lv_plus / lam_minus
    g = max(ratio, math.sqrt(ratio * f))
    bounded = cfg.signal_distribution == "bounded_uniform"
    eta = 3.0 if bounded else 1.0
    q = cfg.sddn_q if cfg.sddn_enabled else 0.0
    b = occupancy(n, cfg.sddn_s, cfg.sddn_b0, cfg.sddn_rho, alpha) if cfg.sddn_enabled else 0.0
    logn = math.log(n)
    c = cfg.c
    eps_den = c * eta * f * math.sqrt((r + logn) / alpha)
    if bounded:
        eps_bnd = c * math.sqrt(eta) * max(
            q * f * math.sqrt(r * logn / alpha),
            g * math.sqrt(max(r_v or 0, r) * logn / alpha),
        )
    else:
        eps_bnd = c * max(ratio, f) * math.sqrt(n / alpha)
    mixed = math.sqrt(b) * (2 * q + q * q) * f
    rest_gap = (lv_rest - lv_p_minus) / lam_minus
    slack = 1.0 - (rest_gap + 3 * math.sqrt(b) * q * f + eps_bnd + eps_den)
    if slack <= 0:
        return math.inf
    return (lv_cross / lam_minus + mixed + eps_bnd) / (1.0 - rest_gap - mixed - eps_bnd - eps_den)


def expected_bounds(config_path, seed):
    """{alpha: recomputed bound} for a bound-tightness config and seed.

    P and B come from noisypca.experiments.realize_model, the only part of
    the program this uses besides the config parser.
    """
    from noisypca.config import parse_config
    from noisypca.experiments import realize_model, with_overrides

    cfg, _ = parse_config(config_path)
    cfg = with_overrides(cfg, seed=seed)
    model = realize_model(cfg)
    b_basis = None
    if model.noise is not None and model.noise.B is not None:
        b_basis = model.noise.B.entries
    return {
        float(alpha): expected_bound(cfg, model.signal.P.entries, b_basis, alpha)
        for alpha in cfg.alpha_grid
    }

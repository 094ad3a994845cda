"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every run is fully seeded through the shipped
presets, so outcomes are reproducible bit for bit.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from noisypca.bounds import BoundInputs, general_bound, sddn_required_alpha
from noisypca.config import parse_config
from noisypca.experiments import (
    adversarial_experiment,
    bound_tightness,
    concentration_check,
    missing_data_experiment,
    phase_transition,
    rank_estimation,
    refinement_loop,
)
from noisypca.linalg import orthonormalize, subspace_error, symmetric_eig


def report(num, ok, detail):
    line = "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail)
    print(line, flush=True)
    assert ok, line


def count_inversions(values):
    return sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-15)


def first_alpha_at_090(rows, axis_value):
    for value, alpha, prob in rows:
        if value == axis_value and prob >= 0.9:
            return alpha
    return None


@pytest.fixture(scope="module")
def fig1a_run():
    cfg, _ = parse_config("fig1a")
    start = time.time()
    result = bound_tightness(cfg)
    return cfg, result, time.time() - start


def test_criterion_1_bound_tightness(fig1a_run):
    cfg, result, wall = fig1a_run
    mean = result.column("mean_se")
    mx = result.column("max_se")
    bound = result.column("bound")
    dominance = all(b >= m for b, m in zip(bound, mx))
    inv_mean = count_inversions(mean)
    inv_max = count_inversions(mx)
    ok = dominance and inv_mean <= 1 and inv_max <= 1 and wall < 300.0
    report(
        1,
        ok,
        "bound tightness: dominance=%s inversions(mean)=%d inversions(max)=%d wall=%.0fs"
        % (dominance, inv_mean, inv_max, wall),
    )


def test_criterion_2_rate_check():
    cfg, _ = parse_config("fig1a")
    cfg = dataclasses.replace(cfg, alpha_grid=(1000, 4000))
    result = bound_tightness(cfg)
    mean = result.column("mean_se")
    ratio = mean[1] / mean[0]
    ok = 0.35 <= ratio <= 0.65
    report(2, ok, "rate check: mean_se(4000)/mean_se(1000) = %.3f in [0.35, 0.65]" % ratio)


def test_criterion_3_phase_transition_in_r():
    cfg, _ = parse_config("fig2a")
    assert cfg.r_grid == (5, 10, 20) and cfg.n == 100
    start = time.time()
    result = phase_transition(cfg)
    wall = time.time() - start
    astar = {r: first_alpha_at_090(result.rows, r) for r in (5, 10, 20)}
    found = all(a is not None for a in astar.values())
    ratio = astar[20] / astar[5] if found else math.inf
    ok = found and ratio <= 6.0 and wall < 900.0
    report(
        3,
        ok,
        "phase transition in r: alpha* = %s, alpha*(20)/alpha*(5) = %.2f <= 6, wall=%.0fs"
        % (astar, ratio, wall),
    )


def test_criterion_4_phase_transition_in_n():
    cfg, _ = parse_config("fig2d")
    assert cfg.n_grid == (100, 200) and cfg.r == 1 and cfg.noise_rv == "n"
    assert cfg.signal_distribution == "gaussian"
    result = phase_transition(cfg)
    astar = {n: first_alpha_at_090(result.rows, n) for n in (100, 200)}
    found = all(a is not None for a in astar.values())
    ratio = astar[200] / astar[100] if found else math.inf
    ok = found and 1.4 <= ratio <= 3.0
    report(
        4,
        ok,
        "phase transition in n: alpha* = %s, alpha*(200)/alpha*(100) = %.2f in [1.4, 3.0]"
        % (astar, ratio),
    )


def test_criterion_5_rank_estimation():
    cfg, _ = parse_config("fig1a")
    cfg = dataclasses.replace(cfg, alpha_grid=(5000,))
    result = rank_estimation(cfg)
    alpha, delta, p_threshold, p_gap = result.rows[0]
    ok = delta < 0.5 and p_threshold >= 0.95 and p_gap >= 0.95
    report(
        5,
        ok,
        "rank estimation at alpha=5000: delta=%.3f < 0.5, threshold %.0f%%, eigengap %.0f%%"
        % (delta, 100 * p_threshold, 100 * p_gap),
    )


def test_criterion_6_adversarial_noise():
    cfg, _ = parse_config("adversarial")
    assert cfg.n_trials == 20
    result = adversarial_experiment(cfg)
    devs = result.column("deviation")
    ses = result.column("se")
    dev_ok = all(d < 0.01 for d in devs)
    se_ok = all(se >= 0.85 for se in ses)
    ok = dev_ok and se_ok
    report(
        6,
        ok,
        "adversarial noise: max deviation %.4f < 0.01, min se %.3f >= 0.85 over 20 trials"
        % (max(devs), min(ses)),
    )


def test_criterion_7_concentration_decay():
    cfg, _ = parse_config("fig1a")
    cfg = dataclasses.replace(cfg, alpha_grid=(500, 2000, 8000), n_trials=30)
    result = concentration_check(cfg)
    per_term = {}
    for alpha, term, med, bound in result.rows:
        per_term.setdefault(term, []).append((alpha, med))
    decreasing = {}
    spread = {}
    for term, vals in per_term.items():
        medians = [m for _, m in vals]
        decreasing[term] = all(a > b for a, b in zip(medians, medians[1:]))
        rates = [m * math.sqrt(a) for a, m in vals]
        spread[term] = max(rates) / min(rates)
    ok = all(decreasing.values()) and all(s < 2.0 for s in spread.values())
    report(
        7,
        ok,
        "concentration decay: all medians decreasing=%s, max sqrt(alpha)-rate spread %.2f < 2"
        % (all(decreasing.values()), max(spread.values())),
    )


def test_criterion_8_refinement_recursion():
    cfg, _ = parse_config("refine")
    assert cfg.refine_q0 == 0.06 and cfg.refine_stages == 4
    f = 1.0  # one signal variance
    assert cfg.alpha_grid == (sddn_required_alpha(1.0, f, cfg.r, cfg.n, 0.25, 16.0),)
    assert 3.0 * math.sqrt(cfg.sddn_b0) * f < 0.2
    trajectories = {}
    for trial, _, se, stage_bound in refinement_loop(cfg).rows:
        trajectories.setdefault(trial, []).append((se, stage_bound))
    assert sorted(trajectories) == list(range(cfg.n_trials))
    successes = sum(all(se <= bound for se, bound in rows) for rows in trajectories.values())
    worst = max(se / bound for rows in trajectories.values() for se, bound in rows)
    frac = successes / cfg.n_trials
    ok = frac >= 0.9
    report(
        8,
        ok,
        "refinement recursion: %d/%d trajectories within 0.25*q0*0.3^(k-1), worst ratio %.4g"
        % (successes, cfg.n_trials, worst),
    )


def test_criterion_9_missing_data():
    cfg, _ = parse_config("missing")
    assert cfg.n == 100 and cfg.r == 5 and cfg.sddn_s == 5
    assert cfg.alpha_grid == (3000,) and cfg.n_trials == 100
    result = missing_data_experiment(cfg)
    alpha, mean_se, max_se, bound = result.rows[0]
    ok = math.isfinite(bound) and max_se <= bound
    report(
        9,
        ok,
        "missing data: max se %.4f <= incoherence bound %.3f over 100 trials" % (max_se, bound),
    )


def test_criterion_10_property_suites():
    start = time.time()
    rng = np.random.default_rng(123)

    # Orthonormality / subspace-error / eigensolver invariants.
    core_ok = True
    for _ in range(20):
        n, r = 40, 4
        basis = orthonormalize(rng.standard_normal((n, r)))
        core_ok &= float(np.max(np.abs(basis.entries.T @ basis.entries - np.eye(r)))) <= 1e-10
        other = orthonormalize(rng.standard_normal((n, r)))
        se_ab = subspace_error(basis, other)
        core_ok &= abs(se_ab - subspace_error(other, basis)) <= 1e-10
        core_ok &= -1e-12 <= se_ab <= 1 + 1e-12
        m = rng.standard_normal((n, n))
        sym = (m + m.T) / 2
        w, v = symmetric_eig(sym)
        resid = np.max(np.abs((v * w) @ v.T - sym))
        core_ok &= resid <= 1e-8 * max(1.0, np.linalg.norm(sym, 2))

    # Specialization identities at 1e-12 (general evaluator vs the
    # independently coded restricted forms in test_bounds).
    from test_bounds import ddn_only_oracle, spectra, uncorr_only_oracle

    ident_ok = True
    for seed in range(30):
        srng = np.random.default_rng(seed)
        lv = srng.uniform(0.01, 1.5)
        lvp = srng.uniform(0, lv)
        lvrest = srng.uniform(lvp, lv)
        s = spectra(lam_plus=srng.uniform(12, 25), lv=lv, lvp=lvp, lvrest=lvrest,
                    lvppp=srng.uniform(0, lvrest))
        alpha = int(srng.integers(100, 20000))
        got = general_bound(BoundInputs(s, r=4, r_v=6, n=100, alpha=alpha, eta=1.0))
        want = uncorr_only_oracle(s, 4, 6, 100, alpha)
        if math.isfinite(want):
            ident_ok &= abs(got.se_bound - want) <= 1e-12
        s0 = spectra(lam_plus=srng.uniform(12, 25))
        q, b = srng.uniform(0, 0.4), srng.uniform(0, 0.4)
        got = general_bound(BoundInputs(s0, r=4, r_v=0, n=100, alpha=alpha, eta=1.0, q=q, b=b))
        want = ddn_only_oracle(s0, q, b, 4, 100, alpha)
        if math.isfinite(want):
            ident_ok &= abs(got.se_bound - want) <= 1e-12

    # Byte-determinism of CSV output for a fixed seed and any worker count.
    cfg, _ = parse_config("fig1a")
    cfg = dataclasses.replace(cfg, alpha_grid=(200, 400), n_trials=4)
    base = bound_tightness(cfg, workers=1).to_csv_bytes()
    det_ok = (
        base == bound_tightness(cfg, workers=1).to_csv_bytes()
        and base == bound_tightness(cfg, workers=2).to_csv_bytes()
    )

    wall = time.time() - start
    ok = core_ok and ident_ok and det_ok and wall < 60.0
    report(
        10,
        ok,
        "property suites: core invariants=%s, specialization identities=%s, "
        "csv determinism=%s, wall=%.1fs" % (core_ok, ident_ok, det_ok, wall),
    )


def test_criterion_11_phase_transition_in_log_n():
    # Noise in an r_v = r dimensional subspace needs alpha* growing only like
    # log n, for the bounded (fig2b) and the Gaussian (fig2c) model. The
    # threshold T = 2 is fixed from the theory before the run: log 400 /
    # log 100 = 1.30 and one grid step is x1.67, while a linear-in-n frontier
    # (criterion 4's regime) would give 4. The n = 200 and 400 cells run a
    # range frame, so their se is taken against F'P.
    details, ok = [], True
    for preset in ("fig2b", "fig2c"):
        cfg, _ = parse_config(preset)
        assert cfg.n_grid == (100, 200, 400) and cfg.noise_rv == "r"
        result = phase_transition(cfg)
        astar = {n: first_alpha_at_090(result.rows, n) for n in (100, 200, 400)}
        found = all(a is not None for a in astar.values())
        ratio = astar[400] / astar[100] if found else math.inf
        ok &= found and ratio <= 2.0
        details.append("%s alpha* = %s, alpha*(400)/alpha*(100) = %.2f" % (preset, astar, ratio))
    report(11, ok, "phase transition in log n: %s <= 2" % "; ".join(details))


def test_criterion_12_phase_transition_over_three_decades_of_n():
    # Criterion 11's models over n = 100 .. 102400, where no per-trial work
    # grows with n. The threshold T = 4.2 is fixed from the theory before the
    # run: log 102400 / log 100 = 2.51, times one grid step of x1.67 for
    # rounding to the grid, gives 4.2, while a linear-in-n frontier would give
    # 1024 and even a sqrt(n) one 32.
    grid = (100, 1600, 25600, 102400)
    details, ok = [], True
    for preset in ("fig2b", "fig2c"):
        cfg, _ = parse_config(preset)
        cfg = dataclasses.replace(cfg, n_grid=grid)
        result = phase_transition(cfg)
        astar = {n: first_alpha_at_090(result.rows, n) for n in grid}
        found = all(a is not None for a in astar.values())
        ratio = astar[102400] / astar[100] if found else math.inf
        ok &= found and ratio <= 4.2
        details.append("%s alpha* = %s, alpha*(102400)/alpha*(100) = %.2f" % (preset, astar, ratio))
    report(12, ok, "phase transition over three decades of n: %s <= 4.2" % "; ".join(details))

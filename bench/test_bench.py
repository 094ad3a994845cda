"""Tests of the benchmark itself: a tiny run of every workload, and each
output check rejecting a CSV corrupted in the way it guards against.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import child
import run

# Same presets, commands and workers as the real workloads, at a size
# that finishes in seconds.
TINY = {
    "tightness-n100": dict(alpha_grid="1000,4000", trials=1),
    "tightness-n1000": dict(alpha_grid="100,1000", trials=1),
    "phase-r-w2": dict(alpha_grid="6000,20000", trials=2, r_grid="5"),
    "concentration-n100": dict(alpha_grid="500,2000,8000", trials=3),
}
SEED = 3


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """{workload: (runner, untraced result, traced result, CSV bytes)}."""
    out = {}
    for name, sizes in TINY.items():
        workload = dataclasses.replace(run.WORKLOADS[name], **sizes)
        runner = run.Runner(name, SEED, tmp_path_factory.mktemp(name), workload)
        untraced = run.run_untraced(runner, 0)
        traced = run.run_traced(runner, 0)
        first_csv = min(runner.run_dir.glob("op*.csv"))  # the untraced operation's
        out[name] = (runner, untraced, traced, first_csv.read_bytes())
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes_checks(smoke, name):
    _, untraced, traced, _ = smoke[name]
    attempted, failed, errors, metrics = untraced
    assert (attempted, failed, errors) == (1, 0, [])
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    attempted, failed, errors, metrics = traced
    pooled = run.WORKLOADS[name].workers > 1
    assert (attempted, failed, errors) == (3 if pooled else 2, 0, [])
    assert set(metrics) == set(run.PER_LAYER) | {"bench.trace_overhead_s"}
    assert metrics["numpy.eig.calls"] > 0
    assert (metrics["experiments.pools.calls"] > 0) == pooled


def test_main_fails_without_a_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tightness-n100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


# --- bound-tightness ---------------------------------------------------------

def _tightness(smoke, name):
    runner, _, _, data = smoke[name]
    table = checks.read_csv(data)
    return table, checks.expected_bounds(str(runner.config), SEED)


def _finite_row(rows):
    return next(i for i, row in enumerate(rows) if math.isfinite(row[3]))


@pytest.mark.parametrize("name", ["tightness-n100", "tightness-n1000"])
def test_tightness_check_accepts_the_program_output(smoke, name):
    table, bounds = _tightness(smoke, name)
    assert checks.check_tightness(table, bounds) == []


def test_tightness_n1000_has_an_infeasible_row(smoke):
    table, bounds = _tightness(smoke, "tightness-n1000")
    assert math.isinf(table[1][0][3]) and math.isinf(bounds[100.0])


@pytest.mark.parametrize("corrupt", [
    "max_above_bound", "perturbed_bound", "finite_for_inf", "mean_above_max", "negative_mean",
])
def test_tightness_check_rejects(smoke, corrupt):
    name = "tightness-n1000" if corrupt == "finite_for_inf" else "tightness-n100"
    (header, rows), bounds = _tightness(smoke, name)
    rows = [list(row) for row in rows]
    i = _finite_row(rows)
    if corrupt == "max_above_bound":
        rows[i][2] = rows[i][3] * 1.01
    elif corrupt == "perturbed_bound":
        rows[i][3] *= 1 + 1e-9
    elif corrupt == "finite_for_inf":
        j = next(k for k, row in enumerate(rows) if math.isinf(row[3]))
        rows[j][3] = 1.0
    elif corrupt == "mean_above_max":
        rows[i][1] = rows[i][2] * 1.5
    else:
        rows[i][1] = -rows[i][1]
    assert checks.check_tightness((header, rows), bounds)


def test_tightness_check_allows_one_rise_of_mean_se_but_not_two():
    header = ["alpha", "mean_se", "max_se", "bound"]
    bounds = {a: 0.5 for a in (1.0, 2.0, 3.0, 4.0)}
    once = [[1.0, 0.1, 0.2, 0.5], [2.0, 0.2, 0.2, 0.5], [3.0, 0.1, 0.2, 0.5], [4.0, 0.05, 0.2, 0.5]]
    twice = [[1.0, 0.1, 0.2, 0.5], [2.0, 0.2, 0.2, 0.5], [3.0, 0.1, 0.2, 0.5], [4.0, 0.15, 0.2, 0.5]]
    assert checks.check_tightness((header, once), bounds) == []
    assert checks.check_tightness((header, twice), bounds)


def test_expected_bound_matches_the_package_formula():
    pytest.importorskip("noisypca")
    from noisypca.bounds import general_bound
    from noisypca.config import parse_config_text
    from noisypca.experiments import bound_inputs, realize_model
    from noisypca.model import row_occupancy, support_sequence

    text = run.WORKLOADS["tightness-n100"].config_text(run.SRC / "noisypca" / "presets")
    cfg, _ = parse_config_text(text)
    model = realize_model(cfg)
    for alpha in (29, 200, 1000, 7000):
        b = row_occupancy(support_sequence(model.n, model.sddn, alpha), model.n)
        want = general_bound(bound_inputs(cfg, model, alpha, b)).se_bound
        got = checks.expected_bound(cfg, model.signal.P.entries, model.noise.B.entries, alpha)
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-12 * want


# --- phase-transition --------------------------------------------------------

PHASE_HEADER = ["r", "alpha", "probability"]


def test_phase_check_accepts_the_program_output(smoke):
    assert checks.check_phase(checks.read_csv(smoke["phase-r-w2"][3])) == []


@pytest.mark.parametrize("probs", [
    [1.0, 0.5, 0.0, 1.0],   # falls with alpha twice
    [0.0, 0.5, 0.5, 0.75],  # never reaches 0.9
    [0.0, 0.5, 1.5, 1.0],   # outside [0, 1]
])
def test_phase_check_rejects(probs):
    rows = [[5.0, float(a), p] for a, p in zip((100, 200, 300, 400), probs)]
    assert checks.check_phase((PHASE_HEADER, rows))


def test_phase_check_allows_one_fall():
    rows = [[5.0, float(a), p] for a, p in zip((100, 200, 300, 400), [0.5, 0.25, 0.75, 1.0])]
    assert checks.check_phase((PHASE_HEADER, rows)) == []


# --- concentration -----------------------------------------------------------

@pytest.mark.parametrize("corrupt", ["above_bound", "rising", "wrong_rate"])
def test_concentration_check_rejects(smoke, corrupt):
    header, rows = checks.read_csv(smoke["concentration-n100"][3])
    assert checks.check_concentration((header, rows)) == []
    rows = [list(row) for row in rows]
    last = max(i for i, row in enumerate(rows) if row[1] == "aa")
    if corrupt == "above_bound":
        rows[last][2] = rows[last][3] * 1.01
    elif corrupt == "rising":
        first = min(i for i, row in enumerate(rows) if row[1] == "aa")
        rows[last][2] = rows[first][2] * 1.01
    else:
        rows[last][2] *= 0.3  # falls faster than 1/sqrt(alpha)
    assert checks.check_concentration((header, rows))


# --- traced run --------------------------------------------------------------

def test_same_table_tolerance():
    a = (["alpha", "x"], [[1.0, 0.1], [2.0, math.inf]])
    assert checks.same_table(a, (["alpha", "x"], [[1.0, 0.1 * (1 + 1e-14)], [2.0, math.inf]])) == []
    assert checks.same_table(a, (["alpha", "x"], [[1.0, 0.1 * (1 + 1e-10)], [2.0, math.inf]]))
    assert checks.same_table(a, (["alpha", "x"], [[1.0, 0.1], [2.0, 1e300]]))


def test_eig_check_flags_a_wrong_basis():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((30, 30))
    s = m @ m.T
    _, vecs = np.linalg.eigh(s)
    right = SimpleNamespace(entries=vecs[:, -3:])
    wrong = SimpleNamespace(entries=vecs[:, :3])
    assert child._eig_check([(s, 3, right)])[0] <= 1e-8
    assert child._eig_check([(s, 3, right), (s, 3, wrong)]) == (pytest.approx(1.0), 2)


def test_result_line_is_the_last_stdout_line(smoke, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "tightness-n100", smoke["tightness-n100"][0].workload)
    assert run.main(["--workload", "tightness-n100", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END

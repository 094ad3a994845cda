"""Config parsing and CLI behavior: strictness, presets, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisypca
from noisypca.bounds import rank_delta
from noisypca.cli import main
from noisypca.config import PRESETS, describe, parse_config, parse_config_text
from noisypca.errors import ConfigError, ValidationError
from test_golden import assert_csv_close

MINIMAL = """
[model]
n = 40
r = 3
signal_distribution = bounded_uniform
signal_lambdas = 12
noise_rv = r
noise_distribution = bounded_uniform
noise_scale_base = 1.1
noise_scale_slope = -0.1
sddn = on
sddn_s = 2
sddn_b0 = 0.05
sddn_rho = 1
sddn_q = 0.001

[experiment]
alpha_grid = 200,400
trials = 3
seed = 11
"""


# --- parsing -----------------------------------------------------------------

def test_parse_minimal_config():
    cfg, seed = parse_config_text(MINIMAL)
    assert cfg.n == 40 and cfg.r == 3
    assert cfg.alpha_grid == (200, 400)
    assert cfg.master_seed == 11 and seed == 11
    assert cfg.sddn_q == 0.001


def test_all_presets_parse():
    for name in PRESETS:
        cfg, _ = parse_config(name)
        assert cfg.n_trials >= 1


def test_fig1a_preset_has_reference_parameters():
    cfg, _ = parse_config("fig1a")
    assert cfg.n == 100 and cfg.r == 5
    assert cfg.noise_rv == "r"
    assert cfg.sddn_q == 0.001
    assert cfg.sddn_b0 == 0.05
    assert cfg.sddn_s == 5 and cfg.sddn_rho == 1
    assert cfg.signal_lambdas == (12.0,)
    assert cfg.signal_distribution == "bounded_uniform"
    assert cfg.c == 1.0
    assert min(cfg.alpha_grid) == 29 and max(cfg.alpha_grid) == 7000
    assert len(cfg.alpha_grid) == 12


def test_config_rejects_invalid_q():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("sddn_q = 0.001", "sddn_q = 1.5"))


def test_config_rejects_empty():
    with pytest.raises(ConfigError):
        parse_config_text("")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config_text(MINIMAL + "\nbogus = 1\n")


def test_config_rejects_missing_key():
    broken = MINIMAL.replace("sddn_s = 2\n", "")
    with pytest.raises(ConfigError, match="sddn_s"):
        parse_config_text(broken)


def test_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(MINIMAL + "\n[refine]\nq0 = 1\nq0 = 2\n")


def test_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text(MINIMAL + "\n[mystery]\nx = 1\n")


def test_config_unknown_path():
    with pytest.raises(ConfigError):
        parse_config("definitely-not-a-preset")


def test_logspace_grid_parses():
    cfg, _ = parse_config_text(MINIMAL.replace("alpha_grid = 200,400",
                                               "alpha_grid = logspace:29:7000:12"))
    assert len(cfg.alpha_grid) == 12
    assert cfg.alpha_grid[0] == 29 and cfg.alpha_grid[-1] == 7000


def test_describe_lists_every_field():
    cfg, _ = parse_config_text(MINIMAL)
    text = describe(cfg)
    for name in ("master_seed=11", "n=40", "sddn_q=0.001", "c=1.0"):
        assert name in text


# --- CLI behavior ---------------------------------------------------------------

def write_cfg(tmp_path, text=MINIMAL, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_bound_matches_library(tmp_path, capsys):
    path = write_cfg(tmp_path)
    rc = main(["bound", "--config", path, "--alpha", "400"])
    out = capsys.readouterr().out
    assert rc == 0
    # Without --out the key=value block is the whole of stdout, printed once.
    assert len(out.splitlines()) == 23
    values = dict(line.split("=", 1) for line in out.splitlines())
    from noisypca.bounds import general_bound
    from noisypca.config import parse_config_text
    from noisypca.experiments import bound_inputs, realize_model
    from noisypca.model import row_occupancy, support_sequence

    cfg, _ = parse_config_text(MINIMAL)
    model = realize_model(cfg)
    b = row_occupancy(support_sequence(40, model.sddn, 400), 40)
    inputs = bound_inputs(cfg, model, 400, b)
    report = general_bound(inputs)
    assert float(values["se_bound"]) == pytest.approx(report.se_bound, rel=1e-15)
    assert float(values["delta"]) == pytest.approx(rank_delta(inputs), rel=1e-15)
    assert int(values["feasible"]) == int(report.feasible)


def test_cli_bound_tightness_writes_csv(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out_csv = str(tmp_path / "out.csv")
    rc = main(["bound-tightness", "--config", path, "--out", out_csv])
    captured = capsys.readouterr()
    assert rc == 0
    with open(out_csv) as fh:
        header = fh.readline().strip()
    assert header == "alpha,mean_se,max_se,bound"
    assert "seed=11" in captured.err
    assert "# resolved config" in captured.err


def test_cli_seed_precedence_flag_over_config(tmp_path, capsys):
    path = write_cfg(tmp_path)
    rc = main(["bound-tightness", "--config", path, "--seed", "99"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "seed=99" in err


def test_cli_seed_env_fallback(tmp_path, capsys, monkeypatch):
    no_seed = MINIMAL.replace("seed = 11\n", "")
    path = write_cfg(tmp_path, no_seed)
    monkeypatch.setenv("NOISYPCA_SEED", "42")
    rc = main(["bound-tightness", "--config", path])
    err = capsys.readouterr().err
    assert rc == 0
    assert "seed=42" in err
    monkeypatch.delenv("NOISYPCA_SEED")
    rc = main(["bound-tightness", "--config", path])
    err = capsys.readouterr().err
    assert "seed=0" in err


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL + "\nbogus = 1\n")
    rc = main(["bound-tightness", "--config", path])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_cli_infeasible_exit_code(tmp_path, capsys):
    # Missing-data ratio q >= 1: block too large for the basis density.
    text = MINIMAL.replace("sddn_s = 2", "sddn_s = 30").replace(
        "noise_rv = r", "noise_rv = none"
    )
    text = "\n".join(
        line for line in text.splitlines()
        if not line.startswith(("noise_distribution", "noise_scale"))
    )
    path = write_cfg(tmp_path, text)
    rc = main(["missing", "--config", path])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_cli_trials_and_c_overrides(tmp_path, capsys):
    path = write_cfg(tmp_path)
    rc = main(["bound-tightness", "--config", path, "--trials", "2", "--c", "2.5"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "trials=2" in err
    assert "c=2.5" in err


# Root holding the package this process imported: src/ in a checkout, or
# site-packages for an installed copy. The child gets it as an absolute path
# so it runs the same code from any working directory.
SOURCE_ROOT = Path(noisypca.__file__).resolve().parent.parent


def _run_cli(args, cwd, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "noisypca.cli", *args],
        capture_output=True, cwd=cwd, env=env,
    )


def _assert_usage_error(proc):
    assert proc.returncode == 1, proc.stderr
    assert b"usage" in proc.stderr.lower()
    assert b"Traceback" not in proc.stderr
    assert b"ModuleNotFoundError" not in proc.stderr


def _read_csv_bytes(path, n_rows):
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode().splitlines()
    assert lines[0] == "alpha,mean_se,max_se,bound"
    assert len(lines) == 1 + n_rows
    return data


def test_cli_unknown_subcommand_exit_one(tmp_path):
    _assert_usage_error(_run_cli(["frobnicate"], str(tmp_path)))


def test_cli_no_subcommand_exit_one(tmp_path):
    _assert_usage_error(_run_cli([], str(tmp_path)))


def test_cli_bad_workers_exit_one(tmp_path):
    # --workers, --trials and --alpha must be >= 1; only the subcommands that
    # run trials take --workers and --trials, and only those that evaluate a
    # bound take --c (which must not be read as an abbreviated --config).
    for args in (
        ["bound-tightness", "--config", "fig1a", "--workers", "0"],
        ["missing", "--config", "missing", "--workers", "-3"],
        ["refine", "--config", "refine", "--workers", "2"],
        ["bound", "--config", "fig1a", "--workers", "2"],
        ["bound-tightness", "--config", "fig1a", "--trials", "0"],
        ["bound", "--config", "fig1a", "--alpha", "0"],
        ["bound", "--config", "fig1a", "--alpha", "-4"],
        ["phase-transition", "--config", "fig2a", "--c", "50"],
        ["adversarial", "--config", "adversarial", "--c", "2"],
        ["refine", "--config", "refine", "--c", "9"],
        ["bound", "--config", "fig1a", "--trials", "999"],
        ["refine", "--config", "refine", "--trials", "7"],
        # Seeds must be >= 0 and c finite and > 0.
        ["bound", "--config", "fig1a", "--seed", "-1"],
        ["bound-tightness", "--config", "fig1a", "--seed", "-5"],
        ["bound", "--config", "fig1a", "--c", "nan"],
        ["bound", "--config", "fig1a", "--c", "inf"],
        ["rank-estimation", "--config", "fig1a", "--c", "-inf"],
        ["missing", "--config", "missing", "--c", "0"],
    ):
        _assert_usage_error(_run_cli(args, str(tmp_path)))
    # The same values from a config file or NOISYPCA_SEED are config errors.
    no_seed = MINIMAL.replace("seed = 11\n", "")
    for text, env in (
        (MINIMAL.replace("seed = 11", "seed = -1"), {}),
        (MINIMAL + "c = nan\n", {}),
        (MINIMAL + "c = inf\n", {}),
        (no_seed, {"NOISYPCA_SEED": "-2"}),
        (no_seed, {"NOISYPCA_SEED": "abc"}),
    ):
        proc = _run_cli(["bound", "--config", write_cfg(tmp_path, text)], str(tmp_path), **env)
        assert proc.returncode == 1, proc.stderr
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr


def test_cli_byte_identical_reruns(tmp_path):
    path = write_cfg(tmp_path)
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    proc_a = _run_cli(["bound-tightness", "--config", path, "--seed", "42", "--out", out_a], str(tmp_path))
    assert proc_a.returncode == 0, proc_a.stderr
    proc_b = _run_cli(["bound-tightness", "--config", path, "--seed", "42", "--out", out_b], str(tmp_path))
    assert proc_b.returncode == 0, proc_b.stderr
    # MINIMAL has alpha_grid = 200,400: one row per grid value.
    assert _read_csv_bytes(out_a, 2) == _read_csv_bytes(out_b, 2)


def test_cli_worker_count_does_not_change_bytes(tmp_path):
    path = write_cfg(tmp_path)
    out_a = str(tmp_path / "w1.csv")
    out_b = str(tmp_path / "w2.csv")
    proc_a = _run_cli(["bound-tightness", "--config", path, "--workers", "1", "--out", out_a], str(tmp_path))
    assert proc_a.returncode == 0, proc_a.stderr
    proc_b = _run_cli(["bound-tightness", "--config", path, "--workers", "2", "--out", out_b], str(tmp_path))
    assert proc_b.returncode == 0, proc_b.stderr
    assert _read_csv_bytes(out_a, 2) == _read_csv_bytes(out_b, 2)


def test_cli_blas_thread_count_moves_only_ulps(tmp_path):
    # Bytes are identical for a fixed BLAS thread count; across thread counts
    # the floats agree to rel 1e-12.
    path = write_cfg(tmp_path)
    out_a = str(tmp_path / "inherited.csv")
    out_b = str(tmp_path / "one-thread.csv")
    proc_a = _run_cli(["bound-tightness", "--config", path, "--out", out_a], str(tmp_path))
    assert proc_a.returncode == 0, proc_a.stderr
    proc_b = _run_cli(["bound-tightness", "--config", path, "--out", out_b], str(tmp_path),
                      OPENBLAS_NUM_THREADS="1")
    assert proc_b.returncode == 0, proc_b.stderr
    assert_csv_close(_read_csv_bytes(out_b, 2), _read_csv_bytes(out_a, 2))


def test_cli_refine_subcommand(tmp_path, capsys):
    text = MINIMAL.replace("noise_rv = r", "noise_rv = none")
    text = "\n".join(
        line for line in text.splitlines()
        if not line.startswith(("noise_distribution", "noise_scale"))
    )
    # 3 sqrt(b0) f < 0.2 needs occupancy below 0.0044.
    text = text.replace("n = 40", "n = 240")
    text = text.replace("sddn_s = 2", "sddn_s = 1").replace("sddn_b0 = 0.05", "sddn_b0 = 0.004")
    text += "\n[refine]\nq0 = 0.05\nstages = 2\nalpha_constant = 8\n"
    path = write_cfg(tmp_path, text, "refine.cfg")
    rc = main(["refine", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "stage,se,stage_bound"
    assert len(out.strip().splitlines()) == 3

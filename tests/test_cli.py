"""Config parsing and CLI behavior: strictness, presets, exit codes, determinism."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisypca.errors
import noisypca.experiments
from noisypca.bounds import rank_delta
from noisypca.cli import main
import noisypca.config as config_module
from noisypca.config import PRESETS, describe, parse_config, parse_config_text, resolve_config_path
from noisypca.errors import ValidationError
from test_golden import CASES as golden_cases
from test_golden import case_config_text

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
    shipped = Path(config_module.__file__).parent / "presets"
    assert set(PRESETS) == {path.stem for path in shipped.glob("*.cfg")}
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


def test_config_rejects_invalid_q(tmp_path, capsys):
    # SddnModel holds the one check on q: the model is built before any trial.
    text = MINIMAL.replace("sddn_q = 0.001", "sddn_q = 1.5")
    cfg, _ = parse_config_text(text)
    with pytest.raises(ValidationError, match=r"^sddn_q must lie in \[0, 1\), got 1.5$"):
        noisypca.experiments.realize_model(cfg)
    assert main(["bound-tightness", "--config", write_cfg(tmp_path, text)]) == 1
    assert capsys.readouterr().err.endswith("\nerror: sddn_q must lie in [0, 1), got 1.5\n")


def test_config_rejects_empty():
    with pytest.raises(ValidationError, match="^<config>: empty config$"):
        parse_config_text("")


def test_config_rejects_unknown_key():
    with pytest.raises(ValidationError, match="bogus"):
        parse_config_text(MINIMAL + "\nbogus = 1\n")


def test_config_rejects_missing_key():
    broken = MINIMAL.replace("sddn_s = 2\n", "")
    with pytest.raises(ValidationError, match="sddn_s"):
        parse_config_text(broken)


def test_config_rejects_duplicate_key():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config_text(MINIMAL + "\n[refine]\nq0 = 1\nq0 = 2\n")


def test_config_rejects_unknown_section():
    with pytest.raises(ValidationError, match="mystery"):
        parse_config_text(MINIMAL + "\n[mystery]\nx = 1\n")


def test_config_unknown_path():
    with pytest.raises(ValidationError, match="'definitely-not-a-preset': no such file or preset"):
        parse_config("definitely-not-a-preset")


def test_logspace_grid_parses():
    cfg, _ = parse_config_text(MINIMAL.replace("alpha_grid = 200,400",
                                               "alpha_grid = logspace:29:7000:12"))
    assert len(cfg.alpha_grid) == 12
    assert cfg.alpha_grid[0] == 29 and cfg.alpha_grid[-1] == 7000
    # Rounding can merge points: the grid is the sorted distinct integers.
    for lo, hi, count in ((29, 7000, 12), (1, 10, 30), (5, 5, 3), (2, 9000, 200)):
        cfg, _ = parse_config_text(MINIMAL.replace("alpha_grid = 200,400",
                                                   f"alpha_grid = logspace:{lo}:{hi}:{count}"))
        expected = np.unique(np.rint(np.geomspace(lo, hi, count)).astype(int))
        assert cfg.alpha_grid == tuple(int(a) for a in expected)


@pytest.mark.parametrize("grid", ["logspace:1:inf:3", "logspace:1:1e400:3", "logspace:inf:inf:3"])
def test_logspace_rejects_infinite_bound(grid, tmp_path, capsys):
    text = MINIMAL.replace("alpha_grid = 200,400", f"alpha_grid = {grid}")
    with pytest.raises(ValidationError, match=r"0 < lo <= hi < inf"):
        parse_config_text(text)
    rc = main(["bound-tightness", "--config", write_cfg(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: alpha_grid logspace bounds must satisfy 0 < lo <= hi < inf\n"


@pytest.mark.parametrize("count", [0, -2])
def test_logspace_rejects_count_below_one(count, tmp_path, capsys):
    # lo and hi are valid here: the message names the count, not the bounds.
    text = MINIMAL.replace("alpha_grid = 200,400", f"alpha_grid = logspace:1:10:{count}")
    with pytest.raises(ValidationError, match=r"count must be >= 1"):
        parse_config_text(text)
    rc = main(["bound-tightness", "--config", write_cfg(tmp_path, text)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: alpha_grid logspace count must be >= 1, got {count}\n"


def test_describe_lists_every_field():
    cfg, _ = parse_config_text(MINIMAL)
    text = describe(cfg)
    for name in ("master_seed=11", "n=40", "sddn_q=0.001", "c=1.0"):
        assert name in text


def test_config_docstring_example_parses_and_names_every_key():
    example = config_module.__doc__.split("Format::", 1)[1].split("Unknown sections", 1)[0]
    parse_config_text(example)
    named = {line.split("=", 1)[0].strip() for line in example.splitlines() if "=" in line}
    assert named == {row[1] for row in config_module._KEYS}


# The parser as it was before the key table, kept as the reference for the
# table-driven one: same key sets, same reading order, same messages. The leaf
# converters (_as_int, _as_float, ...) are shared; their behaviour is unchanged.
_REFERENCE_SECTIONS = {
    "model": {
        "n", "r", "signal_distribution", "signal_lambdas", "noise_rv", "noise_distribution",
        "noise_scale_base", "noise_scale_slope", "sddn", "sddn_s", "sddn_b0", "sddn_rho", "sddn_q",
    },
    "experiment": {"alpha_grid", "trials", "seed", "c", "epsilon_rule", "r_grid", "n_grid"},
    "refine": {"q0", "stages"},
}


def _reference_parse_sections(text, source):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _REFERENCE_SECTIONS:
                raise ValidationError(f"{source}:{lineno}: unknown section [{current}]")
            if current in sections:
                raise ValidationError(f"{source}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected key = value")
        if current is None:
            raise ValidationError(f"{source}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _REFERENCE_SECTIONS[current]:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value
    if not sections:
        raise ValidationError(f"{source}: empty config")
    return sections


def _require(section, name, key):
    if key not in section:
        raise ValidationError(f"missing key {key!r} in [{name}]")
    return section[key]


def _reference_parse_config_text(text, source="<config>"):
    _as_int, _as_float, _as_flag = config_module._as_int, config_module._as_float, config_module._as_flag
    _float_list, _int_list = config_module._float_list, config_module._int_list
    sections = _reference_parse_sections(text, source)
    model = sections.get("model")
    if model is None:
        raise ValidationError(f"{source}: missing [model] section")
    experiment = sections.get("experiment")
    if experiment is None:
        raise ValidationError(f"{source}: missing [experiment] section")
    refine = sections.get("refine", {})

    rv_raw = _require(model, "model", "noise_rv")
    if rv_raw == "none":
        noise_rv = None
    elif rv_raw in ("r", "n"):
        noise_rv = rv_raw
    else:
        noise_rv = _as_int(rv_raw, "noise_rv")
    kwargs = {
        "n": _as_int(_require(model, "model", "n"), "n"),
        "r": _as_int(_require(model, "model", "r"), "r"),
        "signal_distribution": _require(model, "model", "signal_distribution"),
        "signal_lambdas": _float_list(_require(model, "model", "signal_lambdas"), "signal_lambdas"),
        "noise_rv": noise_rv,
    }
    if noise_rv is not None:
        kwargs["noise_distribution"] = _require(model, "model", "noise_distribution")
        kwargs["noise_scale_base"] = _as_float(_require(model, "model", "noise_scale_base"), "noise_scale_base")
        kwargs["noise_scale_slope"] = _as_float(_require(model, "model", "noise_scale_slope"), "noise_scale_slope")
    sddn_on = _as_flag(_require(model, "model", "sddn"), "sddn")
    kwargs["sddn_enabled"] = sddn_on
    if sddn_on:
        kwargs["sddn_s"] = _as_int(_require(model, "model", "sddn_s"), "sddn_s")
        kwargs["sddn_b0"] = _as_float(_require(model, "model", "sddn_b0"), "sddn_b0")
        kwargs["sddn_rho"] = _as_int(_require(model, "model", "sddn_rho"), "sddn_rho")
        kwargs["sddn_q"] = _as_float(_require(model, "model", "sddn_q"), "sddn_q")

    kwargs["alpha_grid"] = config_module._alpha_grid(_require(experiment, "experiment", "alpha_grid"), "alpha_grid")
    kwargs["n_trials"] = _as_int(_require(experiment, "experiment", "trials"), "trials")
    if "seed" in experiment:
        kwargs["master_seed"] = _as_int(experiment["seed"], "seed")
    else:
        kwargs["master_seed"] = None
    if "c" in experiment:
        kwargs["c"] = _as_float(experiment["c"], "c")
    if "r_grid" in experiment:
        kwargs["r_grid"] = _int_list(experiment["r_grid"], "r_grid")
    if "n_grid" in experiment:
        kwargs["n_grid"] = _int_list(experiment["n_grid"], "n_grid")
    if "epsilon_rule" in experiment:
        rule = experiment["epsilon_rule"]
        if rule == "floor":
            kwargs["epsilon"] = None
        elif rule.startswith("fixed:"):
            kwargs["epsilon"] = _as_float(rule.split(":", 1)[1], "epsilon_rule")
        else:
            raise ValidationError(f"epsilon_rule must be 'floor' or 'fixed:<value>', got {rule!r}")

    if refine:
        kwargs["refine_q0"] = _as_float(_require(refine, "refine", "q0"), "q0")
        kwargs["refine_stages"] = _as_int(_require(refine, "refine", "stages"), "stages")

    config_seed = kwargs.pop("master_seed")
    cfg = config_module.ExperimentConfig(master_seed=config_seed if config_seed is not None else 0, **kwargs)
    return cfg, config_seed


_FULL = MINIMAL + """c = 2.0
epsilon_rule = fixed:0.05
r_grid = 3
n_grid = 40

[refine]
q0 = 0.06
stages = 4
"""
_MALFORMED = ("", "x", "0", "-1", "2.5", "nan", "inf", "1,,2", "logspace:5:2:3", "fixed:", "none", "off")


def _differential_cases():
    bases = [
        _FULL,
        _FULL.replace("noise_rv = r", "noise_rv = none"),
        _FULL.replace("sddn = on", "sddn = off"),
        _FULL.replace("noise_rv = r", "noise_rv = 7").replace("epsilon_rule = fixed:0.05", "epsilon_rule = floor"),
    ]
    texts = [resolve_config_path(name)[0] for name in PRESETS] + [MINIMAL] + bases
    for base in bases:
        lines = base.splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            texts.append("\n".join(lines[:i] + lines[i + 1:]))
            if "=" in line:
                key = line.split("=", 1)[0].strip()
                texts += ["\n".join(lines[:i] + [f"{key} = {bad}"] + lines[i + 1:]) for bad in _MALFORMED]
    # Two faults at once: the first one in reading order must be the one reported.
    lines = _FULL.splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    for i in keyed:
        texts += ["\n".join(line for k, line in enumerate(lines) if k not in (i, j)) for j in keyed if j > i]
        texts += ["\n".join(f"{line.split('=')[0]}= x" if k in (i, j) else line for k, line in enumerate(lines))
                  for j in keyed if j > i]
    texts += [MINIMAL + "\n[refine]\n", MINIMAL + "\n[refine]\nq0 = 0.06\n",
              MINIMAL + "\n[refine]\nstages = 4\n",
              MINIMAL + "epsilon_rule = floor\n", MINIMAL + "epsilon_rule = fixed:0.05\n",
              MINIMAL + "q0 = 1\n", MINIMAL.replace("[experiment]", "[refine]"),
              MINIMAL.split("[experiment]")[0], "[experiment]" + MINIMAL.split("[experiment]")[1]]
    return texts


def _outcome(parse, text):
    try:
        cfg, seed = parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return repr(cfg), seed


def test_config_table_matches_reference_parser():
    texts = _differential_cases()
    outcomes = [_outcome(parse_config_text, text) for text in texts]
    mismatches = [
        (text, got, want)
        for text, got in zip(texts, outcomes)
        if got != (want := _outcome(_reference_parse_config_text, text))
    ]
    assert not mismatches, mismatches[:3]
    parsed = sum(isinstance(got[0], str) for got in outcomes)
    assert parsed >= 50 and len(texts) - parsed >= 500  # both paths well covered


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
    # The key=value lines are the header and the row of the CSV that --out - prints.
    assert main(["bound", "--config", path, "--alpha", "400", "--out", "-"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert list(zip(header.split(","), row.split(","))) == [tuple(line.split("=", 1)) for line in out.splitlines()]


def test_cli_bound_out_dash_prints_the_csv_alone(tmp_path, capsys):
    # `--out -` means stdout, as for every other command: the CSV once, not
    # the key=value block followed by the CSV.
    path = write_cfg(tmp_path)
    out_csv = tmp_path / "bound.csv"
    assert main(["bound", "--config", path, "--alpha", "400", "--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert main(["bound", "--config", path, "--alpha", "400", "--out", "-"]) == 0
    assert capsys.readouterr().out.encode("ascii") == out_csv.read_bytes()


def test_cli_bound_regime_needs_bounded_noise(tmp_path, capsys):
    # The bounded-regime eps_bnd assumes bounded noise as well as a bounded
    # signal, so fig1a's bounded signal with Gaussian noise is subgaussian.
    preset = resolve_config_path("fig1a")[0]
    for noise, regime in (("bounded_uniform", "bounded"), ("gaussian", "subgaussian")):
        text = preset.replace("noise_distribution = bounded_uniform", f"noise_distribution = {noise}")
        assert f"noise_distribution = {noise}" in text
        assert main(["bound", "--config", write_cfg(tmp_path, text), "--alpha", "1000"]) == 0
        values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert values["regime"] == regime, noise


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
    # A config without a seed runs at seed 0: the environment is no input,
    # so a NOISYPCA_SEED that was once read, valid or not, changes nothing.
    path = write_cfg(tmp_path, MINIMAL.replace("seed = 11\n", ""))
    for value in ("42", "-2", "abc"):
        monkeypatch.setenv("NOISYPCA_SEED", value)
        rc = main(["bound-tightness", "--config", path])
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "seed=0 " in err and "master_seed=0\n" in err, value


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


def test_cli_run_does_not_import_numpy_ma(tmp_path):
    # numpy.ma takes about 16 ms to import in a fresh interpreter, and
    # np.unique imports it: neither the config parser nor the trial path
    # may pull it in.
    script = (
        "import sys\n"
        "from noisypca.cli import main\n"
        "rc = main(['bound-tightness', '--config', 'fig1a', '--trials', '1', '--out', 'out.csv'])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SOURCE_ROOT), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0", b"False"]


def test_library_modules_import_without_the_engine(tmp_path):
    # The bounds, models and subspace primitives are usable alone: importing
    # them loads neither the Monte Carlo engine, the config layer nor the
    # process pool.
    script = (
        "import sys\n"
        "import noisypca.bounds, noisypca.model, noisypca.linalg\n"
        "print(*(name in sys.modules for name in\n"
        "        ('noisypca.experiments', 'noisypca.config', 'concurrent.futures.process')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SOURCE_ROOT), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"False", b"False", b"False"]


def test_cli_run_does_not_import_statistics(tmp_path):
    # The concentration medians come from numpy: a run does not import
    # statistics, nor the fractions module it pulls in.
    script = (
        "import sys\n"
        "from noisypca.cli import main\n"
        "rc = main(['concentration', '--config', 'fig1a', '--trials', '2', '--workers', '1', '--out', 'out.csv'])\n"
        "print(rc, 'statistics' in sys.modules, 'fractions' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SOURCE_ROOT), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0", b"False", b"False"]


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


def _main_exit_code(args):
    """Exit code of `noisypca.cli.main(args)` run in this process; usage errors raise SystemExit."""
    try:
        return main(args)
    except SystemExit as stop:
        return stop.code


def _record_trials(monkeypatch):
    """The list of trials run from now on: every trial measure of the engine appends to it instead."""
    calls = []
    for name in vars(noisypca.experiments):
        if name.endswith("_measure"):
            monkeypatch.setattr(noisypca.experiments, name, lambda *args, name=name: calls.append(name))
    return calls


def test_cli_bad_workers_exit_one(tmp_path, capsys, monkeypatch):
    # --workers, --trials and --alpha must be >= 1; only the subcommands that
    # run trials take --workers and --trials, and only those that evaluate a
    # bound take --c (which must not be read as an abbreviated --config). A
    # flag the subcommand does not take is a usage error; a bad value is the
    # `error:` line that the same value gets in a config file. No trial runs.
    with monkeypatch.context() as patch:
        calls = _record_trials(patch)
        usage = "usage"
        for args, message in (
            (["bound-tightness", "--config", "fig1a", "--workers", "0"], "error: workers must be >= 1, got 0"),
            (["missing", "--config", "missing", "--workers", "-3"], "error: workers must be >= 1, got -3"),
            (["refine", "--config", "refine", "--workers", "0"], "error: workers must be >= 1, got 0"),
            (["bound", "--config", "fig1a", "--workers", "2"], usage),
            (["bound-tightness", "--config", "fig1a", "--trials", "0"], "error: trials must be >= 1, got 0"),
            (["bound", "--config", "fig1a", "--alpha", "0"], "error: alpha_grid must be non-empty with entries >= 1"),
            (["bound", "--config", "fig1a", "--alpha", "-4"], "error: alpha_grid must be non-empty with entries >= 1"),
            (["phase-transition", "--config", "fig2a", "--c", "50"], usage),
            (["adversarial", "--config", "adversarial", "--c", "2"], usage),
            (["refine", "--config", "refine", "--c", "9"], usage),
            (["bound", "--config", "fig1a", "--trials", "999"], usage),
            (["refine", "--config", "refine", "--trials", "0"], "error: trials must be >= 1, got 0"),
            # Seeds must be >= 0 and c finite and > 0.
            (["bound", "--config", "fig1a", "--seed", "-1"], "error: seed must be >= 0, got -1"),
            (["bound-tightness", "--config", "fig1a", "--seed", "-5"], "error: seed must be >= 0, got -5"),
            (["bound", "--config", "fig1a", "--c", "nan"], "error: c must be finite and positive, got nan"),
            (["bound", "--config", "fig1a", "--c", "inf"], "error: c must be finite and positive, got inf"),
            # argparse reads `--c -inf` as --c without a value, so the row spells it `--c=-inf`.
            (["rank-estimation", "--config", "fig1a", "--c=-inf"], "error: c must be finite and positive, got -inf"),
            (["missing", "--config", "missing", "--c", "0"], "error: c must be finite and positive, got 0.0"),
        ):
            assert _main_exit_code(args) == 1, args
            err = capsys.readouterr().err
            (line,) = [line for line in err.splitlines() if "error:" in line]
            assert message in (err.lower() if message == usage else line) and "Traceback" not in err, args
            assert args[-1].rpartition("=")[2] in line, (args, line)
        assert calls == []
    # The same values from a config file are config errors.
    refine = case_config_text("refine", ("alpha_grid = 7068", "trials = 1"))
    for command, text, message in (
        ("bound", MINIMAL.replace("seed = 11", "seed = -1"), "error: seed must be >= 0, got -1\n"),
        ("bound", MINIMAL + "c = nan\n", "error: c must be finite and positive, got nan\n"),
        ("bound", MINIMAL + "c = inf\n", "error: c must be finite and positive, got inf\n"),
        # Grid entries and an integer noise_rv must be >= 1; a fixed epsilon
        # must be finite and > 0.
        ("bound", MINIMAL + "r_grid = 0\n", "error: r_grid must be non-empty with entries >= 1, got (0,)\n"),
        ("bound", MINIMAL.replace("noise_rv = r", "noise_rv = 0"), "error: noise_rv must be >= 1, got 0\n"),
        ("bound", MINIMAL.replace("noise_rv = r", "noise_rv = -1"), "error: noise_rv must be >= 1, got -1\n"),
        ("bound", MINIMAL + "epsilon_rule = fixed:nan\n",
         "error: fixed epsilon must be finite and positive, got nan\n"),
        # An integer noise_rv above n is reported under its own name.
        ("bound", MINIMAL.replace("noise_rv = r", "noise_rv = 50"), "error: noise_rv=50 exceeds n=40"),
        # A logspace grid names its count; a list of signal variances has one entry per direction.
        ("bound", MINIMAL.replace("alpha_grid = 200,400", "alpha_grid = logspace:1:2"),
         "error: alpha_grid logspace needs logspace:lo:hi:count\n"),
        ("bound", MINIMAL.replace("r = 3", "r = 5").replace("lambdas = 12", "lambdas = 12,11"),
         "error: signal_lambdas has 2 entries, need 5\n"),
        # Signal variances must be finite and > 0, noise amplitudes finite
        # and >= 0, also where the model is drawn for trials.
        ("bound", MINIMAL.replace("lambdas = 12", "lambdas = nan"), "error: lambdas must be"),
        ("bound", MINIMAL.replace("lambdas = 12", "lambdas = inf"), "error: lambdas must be"),
        ("bound", MINIMAL.replace("base = 1.1", "base = nan"), "error: scales must be"),
        ("bound", MINIMAL.replace("base = 1.1", "base = inf"), "error: scales must be"),
        ("bound-tightness", MINIMAL.replace("lambdas = 12", "lambdas = nan"), "error: lambdas must be"),
        # The sddn_* values and the noise amplitude profile are checked as the model is built,
        # also for adversarial, whose model has neither.
        ("bound-tightness", MINIMAL.replace("sddn_b0 = 0.05", "sddn_b0 = 0"),
         "error: sddn_b0 must lie in (0, 1], got 0.0\n"),
        ("bound", MINIMAL.replace("sddn_q = 0.001", "sddn_q = -0.5"), "error: sddn_q must lie in [0, 1), got -0.5\n"),
        ("bound", MINIMAL.replace("sddn_s = 2", "sddn_s = 0"), "error: sddn_s must be >= 1, got 0\n"),
        ("bound", MINIMAL.replace("sddn_rho = 1", "sddn_rho = 0"), "error: sddn_rho must be >= 1, got 0\n"),
        ("bound", MINIMAL.replace("noise_distribution = bounded_uniform", "noise_distribution = cauchy"),
         "error: unknown noise distribution 'cauchy'\n"),
        (
            "adversarial",
            case_config_text("adversarial", ("alpha_grid = 1000", "trials = 1")).replace(
                "sddn = off", "sddn = on\nsddn_s = 2\nsddn_b0 = 0.05\nsddn_rho = 1\nsddn_q = 1.5"),
            "error: sddn_q must lie in [0, 1), got 1.5\n",
        ),
        ("bound", MINIMAL.replace("slope = -0.1", "slope = -2"),
         "error: amplitude profile goes negative: noise_scale_base=1.1, noise_scale_slope=-2.0\n"),
        # Finite inputs whose moments overflow: sigma^2 = q^2/3, eta * lambda, and a
        # gaussian signal's sample covariance, where numpy warns of the overflow first.
        ("bound", MINIMAL.replace("base = 1.1", "base = 1e160"), "error: noise variances sigma^2 must be finite"),
        ("bound-tightness", MINIMAL.replace("slope = -0.1", "slope = 1e160"),
         "error: noise variances sigma^2 must be finite"),
        ("concentration", MINIMAL.replace("lambdas = 12", "lambdas = 1e308"), "error: eta * lambdas must be finite"),
        (
            "bound-tightness",
            MINIMAL.replace("lambdas = 12", "lambdas = 1e308").replace("signal_distribution = bounded_uniform",
                                                                        "signal_distribution = gaussian"),
            "error: input has a non-finite entry",
        ),
        # The CSV has no alpha column, so a second alpha would be dropped unseen.
        (
            "adversarial", case_config_text("adversarial", ("alpha_grid = 1000,2000", "trials = 1")),
            "error: adversarial takes one alpha",
        ),
        # [refine]: q0 / 1.2 is a sine, so q0 lies in [0, 1.2]; stages >= 1.
        ("refine", refine.replace("q0 = 0.06", "q0 = 2"), "error: refine q0"),
        ("refine", refine.replace("q0 = 0.06", "q0 = nan"), "error: refine q0"),
        ("refine", refine.replace("q0 = 0.06", "q0 = -0.5"), "error: refine q0"),
        ("refine", refine.replace("stages = 4", "stages = 0"), "error: refine stages"),
        # The batch size is the one alpha of alpha_grid; there is no second knob.
        ("refine", refine.replace("stages = 4", "stages = 4\nalpha_constant = 16"), "unknown key"),
        ("refine", refine.replace("alpha_grid = 7068", "alpha_grid = 7068,8000"), "error: refine takes one alpha"),
        # b is the occupancy at an alpha, not a config value, so its error names
        # the alpha: at alpha = 1 every support row is in the one frame.
        (
            "bound-tightness", case_config_text("fig1a", ("alpha_grid = 1", "trials = 1")),
            "error: b must lie in [0, 1), got 1.0 at alpha=1\n",
        ),
    ):
        overflows = "non-finite entry" in message
        with pytest.warns(RuntimeWarning) if overflows else contextlib.nullcontext():
            assert _main_exit_code([command, "--config", write_cfg(tmp_path, text)]) == 1, message
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "error", [c for c in vars(noisypca.errors).values() if isinstance(c, type) and issubclass(c, Exception)],
    ids=lambda c: c.__name__,
)
def test_cli_exit_code_per_error_class(error, monkeypatch, capsys):
    # InfeasibleModel exits 2 with `infeasible:`; every other package error exits 1 with `error:`.
    def fail(cfg, workers=1):
        raise error("the model says no")

    monkeypatch.setattr(noisypca.experiments, "bound_tightness", fail)
    code, prefix = (2, "infeasible") if error is noisypca.errors.InfeasibleModel else (1, "error")
    assert main(["bound-tightness", "--config", "fig1a"]) == code
    err = capsys.readouterr().err
    assert err.endswith(f"\n{prefix}: the model says no\n") and "Traceback" not in err, err
    assert issubclass(ValidationError, ValueError)  # library callers that catch ValueError keep working


@pytest.mark.parametrize("command", ["bound-tightness", "bound"])
def test_cli_bad_out_fails_before_the_run(command, tmp_path, capsys, monkeypatch):
    # An --out that cannot be written exits 1 with `error:` before any trial
    # runs: a missing directory, a directory, a read-only directory, or no path.
    calls = []
    monkeypatch.setattr(noisypca.experiments, "_run_trials", lambda *args, **kw: calls.append(args))
    read_only = tmp_path / "read-only"
    read_only.mkdir()
    monkeypatch.setattr(os, "access", lambda path, mode: os.path.abspath(path) != str(read_only))
    for out in (tmp_path / "missing" / "x.csv", tmp_path, read_only / "x.csv", ""):
        assert _main_exit_code([command, "--config", write_cfg(tmp_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: --out" in captured.err and "Traceback" not in captured.err, captured.err
        assert captured.out == ""
    assert calls == []
    assert not (read_only / "x.csv").exists()


def _with_lines(text, *pairs):
    """text with each (old, new) line pair replaced once."""
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "adversarial",
            _with_lines(case_config_text("adversarial", ("alpha_grid = 1000", "trials = 2")), ("n = 50", "n = 5")),
            "error: basis already spans the full space",
        ),
        (
            "adversarial",
            _with_lines(
                case_config_text("adversarial", ("alpha_grid = 1000", "trials = 2")),
                ("signal_lambdas = 14,13.5,13.5,13.5,12", "signal_lambdas = 14,13.5,13.5,13.5,13"),
            ),
            "error: need lambda_(r-1) >= 1.1 lambda^-",
        ),
        (
            "refine",
            _with_lines(case_config_text("refine", ("alpha_grid = 7068", "trials = 2")), ("r = 5", "r = 250")),
            "error: r = n = 250: no direction outside span(P) to tilt the start toward",
        ),
        (
            "rank-estimation",
            _with_lines(MINIMAL, ("n = 40\nr = 3", "n = 1\nr = 1"), ("sddn = on", "sddn = off"), ("200,400", "100")),
            "error: need 1 <= max_rank < n, got 0",
        ),
        (
            "refine",
            _with_lines(case_config_text("refine", ("alpha_grid = 7068", "trials = 2")),
                        ("[refine]\nq0 = 0.06\nstages = 4\n", "")),
            "error: refinement needs q0 and a stage count",
        ),
        (
            "refine",
            _with_lines(case_config_text("refine", ("alpha_grid = 7068", "trials = 2")), ("sddn = on", "sddn = off")),
            "error: refinement needs the sparse support model",
        ),
        (
            "missing",
            _with_lines(case_config_text("missing", ("alpha_grid = 3000", "trials = 2")), ("sddn = on", "sddn = off")),
            "error: missing-data experiment needs the support model",
        ),
    ],
    ids=[
        "adversarial-r-equals-n", "adversarial-flat-profile", "refine-r-equals-n", "rank-estimation-n1",
        "refine-no-section", "refine-sddn-off", "missing-sddn-off",
    ],
)
def test_cli_bad_model_fails_before_any_trial(command, text, message, tmp_path, capsys, monkeypatch):
    # A model the experiment cannot run exits 1 with its message before the
    # trial runner is entered, not from inside a trial in a pool worker.
    calls = []
    monkeypatch.setattr(noisypca.experiments, "_run_trials", lambda *args, **kw: calls.append(args))
    assert _main_exit_code([command, "--config", write_cfg(tmp_path, text), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert calls == []


def test_cli_failed_write_exits_one(tmp_path, capsys, monkeypatch):
    # An OSError from the final write is an `error:` with exit 1, and the
    # check before the run leaves an existing file untouched.
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    text = MINIMAL.replace("noise_rv = r", "noise_rv = 50")  # fails after the check
    assert _main_exit_code(["bound-tightness", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    assert "error: noise_rv=50" in capsys.readouterr().err
    assert out.read_text() == "kept\n"

    def full_disk(self, path=None):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(noisypca.experiments.GridResult, "write", full_disk)
    for command in ("bound-tightness", "bound"):
        assert _main_exit_code([command, "--config", write_cfg(tmp_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: [Errno 28] No space left on device" in err and "Traceback" not in err, err


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
    # refine's trajectories are trials too.
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"refine-w{workers}.csv"
        proc = _run_cli(["refine", "--config", "refine", "--trials", "2", "--workers", workers, "--out", str(out)],
                        str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0].count(b"\n") == 1 + 2 * 4
    assert outputs[0] == outputs[1]


def test_cli_blas_thread_count_does_not_change_bytes(tmp_path):
    # Every command runs at one BLAS thread whatever the caller's count, so
    # the bytes do not depend on OPENBLAS_NUM_THREADS. At the caller's count
    # the alpha = 1000 row of bound-tightness moved in the last digits, and
    # refine from stage 2 on (rel 1e-6 at stage 4); the concentration case
    # guards the per-block BLAS products of its moments, bound and fig1b's
    # n = 1000 realization the work done before any trial.
    for name in ("bound-tightness-fig1a", "concentration", "refine", "bound", "bound-tightness-fig1b"):
        preset, command, experiment, extra = golden_cases[name]
        path = write_cfg(tmp_path, case_config_text(preset, experiment), f"{name}.cfg")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-threads{threads}.csv"
            proc = _run_cli([command, "--config", path, "--out", str(out), *extra], str(tmp_path),
                            OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            assert b" blas_threads=1 " in proc.stderr, name
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") > 1, name
        assert outputs[0] == outputs[1], name


@pytest.mark.parametrize("command, module", [("bound", "noisypca.cli"), ("bound-tightness", "noisypca.experiments")])
def test_cli_runs_the_whole_command_at_one_blas_thread(command, module, tmp_path, capsys, monkeypatch):
    # The realization and the bounds, not only the trials, run at one thread.
    if noisypca.experiments.blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    seen = []

    def at_one_thread(name):
        function = getattr(sys.modules[module], name)

        def wrapped(*args, **kwargs):
            seen.append((name, noisypca.experiments.blas_threads()))
            return function(*args, **kwargs)

        monkeypatch.setattr(sys.modules[module], name, wrapped)

    at_one_thread("realize_model")
    at_one_thread("general_bound")
    previous = noisypca.experiments.blas_threads()
    noisypca.experiments._set_blas_threads(2)
    try:
        out = str(tmp_path / f"{command}.csv")
        assert main([command, "--config", write_cfg(tmp_path), "--out", out]) == 0
        assert noisypca.experiments.blas_threads() == 2
    finally:
        noisypca.experiments._set_blas_threads(previous)
    assert {name for name, _ in seen} == {"realize_model", "general_bound"}
    assert {threads for _, threads in seen} == {1}
    assert " blas_threads=1 " in capsys.readouterr().err


def test_cli_runs_unpinned_without_the_blas_library(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(noisypca.experiments, "_openblas", lambda: None)
    out = str(tmp_path / "unpinned.csv")
    assert main(["bound-tightness", "--config", write_cfg(tmp_path), "--out", out]) == 0
    assert " blas_threads=unpinned " in capsys.readouterr().err
    _read_csv_bytes(out, 2)


def _refine_text(noise=False):
    """MINIMAL made a refine config; with noise it keeps MINIMAL's noise_rv = r model."""
    text = MINIMAL
    if not noise:
        text = "\n".join(
            line for line in text.replace("noise_rv = r", "noise_rv = none").splitlines()
            if not line.startswith(("noise_distribution", "noise_scale"))
        )
    # 3 sqrt(b0) f < 0.2 needs occupancy below 0.0044.
    text = text.replace("n = 40", "n = 240")
    text = text.replace("sddn_s = 2", "sddn_s = 1").replace("sddn_b0 = 0.05", "sddn_b0 = 0.004")
    # sddn_required_alpha(1, 1, 3, 240, 0.25, 8): one batch size for every stage.
    text = text.replace("alpha_grid = 200,400", "alpha_grid = 2105")
    return text + "\n[refine]\nq0 = 0.05\nstages = 2\n"


def test_cli_refine_subcommand(tmp_path, capsys):
    path = write_cfg(tmp_path, _refine_text(), "refine.cfg")
    rc = main(["refine", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "trial,stage,se,stage_bound"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(t), str(k)] for t in range(3) for k in (1, 2)
    ]  # MINIMAL's 3 trials x 2 stages


def test_cli_refine_ignores_model_noise(tmp_path, capsys):
    # The stages see l_t + e_t alone: with noise_rv = r the cell's frame and
    # C gain noise columns, but refine runs on C = F'P and reports the se of
    # the noise-free config.
    rows = []
    for noise in (False, True):
        path = write_cfg(tmp_path, _refine_text(noise), f"refine-noise-{noise}.cfg")
        assert main(["refine", "--config", path]) == 0
        rows.append([line.split(",") for line in capsys.readouterr().out.splitlines()])
    quiet, noisy = rows
    assert noisy[0] == quiet[0] == ["trial", "stage", "se", "stage_bound"]
    assert [row[:2] for row in noisy] == [row[:2] for row in quiet]
    assert [float(row[2]) for row in noisy[1:]] == pytest.approx([float(row[2]) for row in quiet[1:]], rel=1e-8)


def test_cli_refine_infeasible_occupancy_exits_two(tmp_path, capsys, monkeypatch):
    # 3 sqrt(b0) = 0.199 passes, but the schedule realizes b = 0.004527 at
    # alpha = 7068: 3 sqrt(b) = 0.2019, so no trial may run.
    calls = []
    monkeypatch.setattr(noisypca.experiments, "_refine_measure", lambda *args: calls.append(args))
    text = case_config_text("refine", ("alpha_grid = 7068", "trials = 2"))
    path = write_cfg(tmp_path, text.replace("sddn_b0 = 0.004", "sddn_b0 = 0.0044"), "refine-b.cfg")
    assert main(["refine", "--config", path]) == 2
    captured = capsys.readouterr()
    assert "infeasible: refinement contraction requires 3 sqrt(b) f < 0.2, got b = 0.004527" in captured.err
    assert captured.out == "" and calls == []


def test_cli_refine_full_rank_start_exits_one(tmp_path, capsys):
    # With r = n there is no direction outside span(P) to tilt the start
    # estimate toward, so a start at q0 > 0 cannot be built. n = 250 keeps
    # the realized occupancy under the contraction cap, so the trial runs.
    text = (
        "[model]\nn = 250\nr = 250\nsignal_distribution = bounded_uniform\nsignal_lambdas = 12\n"
        "noise_rv = none\nsddn = on\nsddn_s = 1\nsddn_b0 = 0.004\nsddn_rho = 1\nsddn_q = 0\n"
        "[experiment]\nalpha_grid = 7068\ntrials = 1\nseed = 7\n"
        "[refine]\nq0 = 0.06\nstages = 1\n"
    )
    path = write_cfg(tmp_path, text, "refine-full-rank.cfg")
    rc = main(["refine", "--config", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "error: r = n = 250: no direction outside span(P)" in captured.err

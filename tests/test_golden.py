"""Golden CSVs: every subcommand on a shipped preset's model, at small size.

Each case runs one subcommand through `noisypca.cli.main` on a config made
of a preset's [model] (and [refine]) sections plus a small [experiment]
section, and compares the CSV with the file under tests/golden/: ints,
strings and `inf` exactly, other floats at rel 1e-12. The tolerance lets a
change move the last few ulps (BLAS thread count, summation order); a
larger difference is a behaviour change.

After a deliberate behaviour change, re-pin with

    PYTHONPATH=src python tests/test_golden.py

It prints one line per case: `same bytes`, `within rel 1e-12` (the pinned
bytes are kept) or `wrote <path>`, for a case whose fresh CSV fails that
comparison or has no file yet. On a clean tree every case reads `same
bytes`, so a byte-identity claim is checked by this one command: it exits
with status 1 when any case reads otherwise, 0 when all read `same bytes`.
A case within rel 1e-12 keeps its pinned bytes, so to re-pin it for byte
identity, delete its file under tests/golden/ first and run the command
again.
"""

import math
from pathlib import Path

import pytest

from noisypca.cli import main
from noisypca.config import resolve_config_path

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12

# name: (preset, subcommand, [experiment] lines, extra CLI args)
CASES = {
    "bound": ("fig1a", "bound", ("alpha_grid = 1000", "trials = 1"), ("--alpha", "1000")),
    "bound-tightness-fig1a": ("fig1a", "bound-tightness", ("alpha_grid = 29,1000", "trials = 3"), ()),
    "bound-tightness-fig1b": ("fig1b", "bound-tightness", ("alpha_grid = 29,300", "trials = 2"), ()),
    "phase-transition-fig2a": (
        "fig2a", "phase-transition",
        ("alpha_grid = 2000,6000", "trials = 3", "r_grid = 5,10", "epsilon_rule = floor"), (),
    ),
    "phase-transition-fig2a-workers2": (
        "fig2a", "phase-transition",
        ("alpha_grid = 2000,6000", "trials = 3", "r_grid = 5,10", "epsilon_rule = floor"),
        ("--workers", "2"),
    ),
    "phase-transition-fig2b": (
        "fig2b", "phase-transition",
        ("alpha_grid = 30,300", "trials = 3", "n_grid = 100,200", "epsilon_rule = fixed:0.02"), (),
    ),
    "phase-transition-fig2c": (
        "fig2c", "phase-transition",
        ("alpha_grid = 30,300", "trials = 3", "n_grid = 100,200", "epsilon_rule = fixed:0.02"), (),
    ),
    "phase-transition-fig2d": (
        "fig2d", "phase-transition",
        ("alpha_grid = 150,600", "trials = 3", "n_grid = 100,200", "epsilon_rule = floor"), (),
    ),
    "concentration": ("fig1a", "concentration", ("alpha_grid = 500,2000", "trials = 3"), ()),
    "rank-estimation": ("fig1a", "rank-estimation", ("alpha_grid = 1000,4000", "trials = 3"), ()),
    "adversarial": ("adversarial", "adversarial", ("alpha_grid = 20000", "trials = 3"), ()),
    # Two chunks of the covariance sum: the second holds one column.
    "adversarial-two-chunks": ("adversarial", "adversarial", ("alpha_grid = 100001", "trials = 2"), ()),
    "refine": ("refine", "refine", ("alpha_grid = 7068", "trials = 2"), ()),
    "missing": ("missing", "missing", ("alpha_grid = 1000,3000", "trials = 3"), ()),
    # alpha < n: fig1b decomposes the 110 x 110 D of its range frame, and
    # missing-small-alpha the n x n D (its support rows cover all n).
    "rank-estimation-fig1b": ("fig1b", "rank-estimation", ("alpha_grid = 100,300", "trials = 2"), ()),
    "missing-small-alpha": ("missing", "missing", ("alpha_grid = 60", "trials = 2"), ()),
}


def case_config_text(preset, experiment):
    """The preset's sections other than [experiment], then `experiment`."""
    kept, inside = [], True
    for line in resolve_config_path(preset)[0].splitlines():
        if line.strip().startswith("["):
            inside = line.strip() != "[experiment]"
        if inside:
            kept.append(line)
    return "\n".join(kept + ["", "[experiment]", "seed = 7", "c = 1.0", *experiment]) + "\n"


def run_case(name, directory):
    """CSV bytes of one case, run in-process through the CLI."""
    preset, command, experiment, extra = CASES[name]
    config = Path(directory) / f"{name}.cfg"
    config.write_text(case_config_text(preset, experiment), encoding="utf-8")
    out = Path(directory) / f"{name}.csv"
    rc = main([command, "--config", str(config), "--out", str(out), *extra])
    assert rc == 0, f"{name}: exit {rc}"
    return out.read_bytes()


def _cell(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def assert_csv_close(actual, expected, rel=REL):
    """Same header and shape; ints, strings and inf exact, floats at `rel`."""
    got = [line.split(",") for line in actual.decode("ascii").splitlines()]
    want = [line.split(",") for line in expected.decode("ascii").splitlines()]
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (row_got, row_want) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row_got) == len(row_want), f"row {i}"
        for a, b in zip(map(_cell, row_got), map(_cell, row_want)):
            exact = (
                isinstance(a, str) or isinstance(b, str)
                or (isinstance(a, int) and isinstance(b, int))
                or not (math.isfinite(a) and math.isfinite(b))
            )
            if exact:
                assert a == b, f"row {i}: {a!r} != {b!r}"
            else:
                assert a == pytest.approx(b, rel=rel, abs=0.0), f"row {i}: {a!r} != {b!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    assert_csv_close(run_case(name, tmp_path), (GOLDEN / f"{name}.csv").read_bytes())


if __name__ == "__main__":
    import contextlib
    import sys
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            path = GOLDEN / f"{case}.csv"
            with contextlib.redirect_stdout(sys.stderr):  # `bound` prints its values
                fresh = run_case(case, tmp)
            pinned = path.read_bytes() if path.exists() else None
            status = "same bytes" if fresh == pinned else None
            if status is None and pinned is not None:
                try:
                    assert_csv_close(fresh, pinned)
                    status = f"within rel {REL:g}"
                except AssertionError:
                    pass
            if status is None:
                path.write_bytes(fresh)
                status = f"wrote {path}"
            print(f"{case}: {status}")
            moved += status != "same bytes"
    sys.exit(1 if moved else 0)

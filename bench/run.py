"""noisypca benchmark: Monte Carlo workloads driven through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `noisypca.cli.main` call in a fresh interpreter
(`child.py`) on a config the benchmark writes from a shipped preset's
[model] section and its own [experiment] section, with --seed N. Every
operation of a run uses the same seed, so they repeat the same work and the
medians measure the machine, not the draw. Operations run one after
another until S seconds have passed; outputs are checked (`checks.py`).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
traced operations (see README.md). The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    preset: str
    command: str
    alpha_grid: str
    trials: int
    workers: int = 1
    r_grid: str = None

    def config_text(self, presets_dir):
        """The preset's [model] section plus this workload's [experiment]."""
        model = []
        inside = False
        for line in (presets_dir / f"{self.preset}.cfg").read_text(encoding="utf-8").splitlines():
            if line.strip().startswith("["):
                inside = line.strip() == "[model]"
            if inside:
                model.append(line)
        experiment = [
            "[experiment]",
            f"alpha_grid = {self.alpha_grid}",
            f"trials = {self.trials}",
            "c = 1.0",
            "epsilon_rule = floor",
        ]
        if self.r_grid is not None:
            experiment.append(f"r_grid = {self.r_grid}")
        return "\n".join(model + [""] + experiment) + "\n"


WORKLOADS = {
    # alpha >> n: the SDDN sampler dominates, the 100x100 eigensolves are small.
    "tightness-n100": Workload("fig1a", "bound-tightness", "1000,4000,16000", trials=3),
    # alpha <= n: three 1000x1000 eigensolves per trial dominate.
    "tightness-n1000": Workload("fig1b", "bound-tightness", "100,300,1000", trials=2),
    # The only workload through the process pool (one pool per grid cell).
    "phase-r-w2": Workload(
        "fig2a", "phase-transition", "2000,6000,20000", trials=2, workers=2, r_grid="5,10,20"
    ),
    # The SDDN sampler with moments=True and five spectral norms per trial.
    "concentration-n100": Workload("fig1a", "concentration", "500,2000,8000", trials=6),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (span names summed, field: 0 self seconds, 1 calls).
PER_LAYER = {
    "config.parse_config.s": (("config.parse_config",), 0),
    "experiments.realize_model.s": (("experiments.realize_model",), 0),
    "experiments.realize_model.calls": (("experiments.realize_model",), 1),
    "model.sample_sddn_batch.s": (("model.sample_sddn_batch",), 0),
    "model.sample_signal.s": (("model.sample_signal",), 0),
    "model.sample_uncorr_noise.s": (("model.sample_uncorr_noise",), 0),
    "model.support_sequence.s": (("model.support_sequence",), 0),
    "model.support_sequence.calls": (("model.support_sequence",), 1),
    "estimator.sample_covariance.s": (("estimator.sample_covariance",), 0),
    "estimator.estimate_rank_threshold.s": (("estimator.estimate_rank_threshold",), 0),
    "estimator.estimate_rank_eigengap.s": (("estimator.estimate_rank_eigengap",), 0),
    "linalg.top_r_eigvecs.s": (("linalg.top_r_eigvecs",), 0),
    "linalg.subspace_error.s": (("linalg.subspace_error",), 0),
    "numpy.eig.calls": (("numpy.eig",), 1),
    "numpy.eig.s": (("numpy.eig",), 0),
    "numpy.svd.calls": (("numpy.svd",), 1),
    "numpy.svd.s": (("numpy.svd",), 0),
    "numpy.norm2.s": (("numpy.norm2",), 0),
    "bounds.s": (None, 0),  # every bound evaluator, see layer_metrics
    "experiments.pools.calls": (("experiments.pool",), 1),
    # Parent-side runner time outside the traced stages: the pool's
    # lifetime when workers > 1, the per-trial glue of _trial otherwise.
    "experiments.pool.s": (("experiments._run_trials", "experiments.pool"), 0),
    "experiments.self.s": (tuple(f"experiments.{f}" for f in spans.EXPERIMENT_FUNCTIONS), 0),
}
POOL_METRICS = ("experiments.pools.calls", "experiments.pool.s")


class BenchError(Exception):
    """A child process died without writing its result."""


def layer_metrics(layers):
    """Per-layer metric values from one traced child's span totals."""
    out = {}
    for metric, (names, field) in PER_LAYER.items():
        if names is None:
            picked = [v for k, v in layers.items()
                      if k.startswith("bounds.") or k == "experiments.success_epsilon"]
        else:
            picked = [layers[k] for k in names if k in layers]
        out[metric] = sum(v[field] for v in picked)
    return out


class Runner:
    """Starts child operations for one workload and checks their outputs."""

    def __init__(self, name, seed, run_dir, workload=None):
        self.workload = workload or WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.config = run_dir / "workload.cfg"
        self.config.write_text(
            self.workload.config_text(SRC / "noisypca" / "presets"), encoding="utf-8"
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.count = 0
        self._checked = {}

    def child(self, workers=None, trace=False, setup_only=False):
        """Run one child; returns its result dict (and 'csv' bytes for an operation)."""
        self.count += 1
        tag = f"op{self.count:04d}"
        result_path = self.run_dir / f"{tag}.json"
        csv_path = self.run_dir / f"{tag}.csv"
        argv = [sys.executable, str(BENCH / "child.py"), str(result_path), None, str(self.config)]
        if trace:
            argv += ["--trace", str(self.run_dir / f"{tag}.trace.json")]
        if setup_only:
            argv.append("--setup-only")
        else:
            workers = self.workload.workers if workers is None else workers
            argv += [
                "--", self.workload.command, "--config", str(self.config),
                "--seed", str(self.seed), "--out", str(csv_path), "--workers", str(workers),
            ]
        argv[3] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        # Own session, so that a child killed on timeout takes its pool
        # workers with it.
        proc = subprocess.Popen(
            argv, env=self.env, cwd=self.run_dir, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{tag} killed after {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{tag} exited {proc.returncode}: {stderr.decode(errors='replace')[-2000:]}")
        out = json.loads(result_path.read_text(encoding="utf-8"))
        if not setup_only and out["rc"] == 0:
            out["csv"] = csv_path.read_bytes()
        return out

    def check(self, data):
        """Errors in one operation's CSV; identical CSVs are checked once."""
        if data not in self._checked:
            self._checked[data] = self._check(checks.read_csv(data))
        return self._checked[data]

    def _check(self, table):
        command = self.workload.command
        if command == "bound-tightness":
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            return checks.check_tightness(table, checks.expected_bounds(str(self.config), self.seed))
        if command == "phase-transition":
            return checks.check_phase(table)
        return checks.check_concentration(table)


def run_untraced(runner, seconds):
    """End-to-end metrics: medians over the operations of one run."""
    setups = [runner.child(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    samples = {"run_s": [], "cpu_s": [], "peak_rss_mb": []}
    outputs = set()
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while attempted == 0 or time.monotonic() < deadline:
        attempted += 1
        out = runner.child()
        setups.append(out["setup_s"])
        if out["rc"] != 0:
            failed += 1
            continue
        for key in samples:
            samples[key].append(out[key])
        outputs.add(out["csv"])
    # Checked after the timed loop, so the checker's own numpy work never
    # overlaps an operation.
    errors = [e for data in outputs for e in runner.check(data)]
    metrics = {key: statistics.median(values) for key, values in samples.items() if values}
    metrics["setup_s"] = statistics.median(setups)
    return attempted, failed, errors, metrics


def run_traced(runner, seconds):
    """Per-layer metrics: rounds of an untraced and a traced operation.

    For a pooled workload, spans from worker processes are lost, so each
    round adds a traced --workers 1 operation for the stage self times and
    takes only the pool metrics from the traced pooled one.
    """
    pooled = runner.workload.workers > 1
    per_round = []
    attempted = failed = 0
    errors = []
    deadline = time.monotonic() + seconds
    while attempted == 0 or time.monotonic() < deadline:
        plain = runner.child()
        traced = runner.child(trace=True)
        ops = [plain, traced]
        serial = runner.child(workers=1, trace=True) if pooled else traced
        if pooled:
            ops.append(serial)
        attempted += len(ops)
        bad = [op for op in ops if op["rc"] != 0]
        failed += len(bad)
        if bad:
            continue
        errors += runner.check(plain["csv"])
        for op in ops[1:]:
            errors += checks.same_table(checks.read_csv(plain["csv"]), checks.read_csv(op["csv"]))
        worst, count = serial["eig_check"]
        if count == 0 or worst > 1e-8:
            errors.append(f"top_r_eigvecs vs scipy eigh: {count} samples, worst se {worst}")
        values = layer_metrics(serial["layers"])
        pool_values = layer_metrics(traced["layers"])
        for metric in POOL_METRICS:
            values[metric] = pool_values[metric]
        values["bench.trace_overhead_s"] = traced["run_s"] - plain["run_s"]
        per_round.append(values)
    metrics = {}
    if per_round:
        for metric in per_round[0]:
            metrics[metric] = statistics.median([values[metric] for values in per_round])
    return attempted, failed, errors, metrics


def unit_of(metric):
    if metric in END_TO_END:
        return END_TO_END[metric]
    return "count" if metric.endswith(".calls") else "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "noisypca" / "__init__.py").is_file():
        sys.stderr.write(f"error: no noisypca source tree at {SRC}\n")
        return 2
    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir)
    try:
        # Untimed: compiles bytecode, fills the file cache, and takes the hit
        # that the first heavy process after idle time pays (about +40%
        # run_s on tightness-n100).
        runner.child()
        measure = run_traced if args.trace else run_untraced
        attempted, failed, errors, metrics = measure(runner, args.seconds)
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    for message in errors[:20]:
        sys.stderr.write(f"check failed: {message}\n")
    for metric, value in metrics.items():
        print(f"{args.workload} {metric} = {value:.6g} {unit_of(metric)}")
    print(f"{args.workload} attempted = {attempted} failed = {failed} correct = {not errors}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark operation in a fresh interpreter: one `noisypca` CLI run.

    python child.py RESULT_JSON SPAWN_T0 CONFIG -- [CLI ARGS...]
    python child.py RESULT_JSON SPAWN_T0 CONFIG --setup-only
    python child.py RESULT_JSON SPAWN_T0 CONFIG --trace TRACE_JSON -- [CLI ARGS...]

SPAWN_T0 is the parent's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` runs from interpreter start to `noisypca`
imported and CONFIG parsed. `run_s` and `cpu_s` cover the
`noisypca.cli.main` call (experiment and CSV write); `cpu_s` counts the
pool workers it joined. With --trace, the layer spans of `spans.py` are
recorded and a sample of `top_r_eigvecs` calls is checked against scipy
after the run.
"""

import json
import resource
import sys
import time
import traceback


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _eig_check(samples):
    """Largest subspace error of a sampled top-r basis against scipy's eigh."""
    import scipy.linalg

    worst = 0.0
    for matrix, r, basis in samples:
        n = matrix.shape[0]
        _, ref = scipy.linalg.eigh(matrix, subset_by_index=[n - r, n - 1])
        q = basis.entries
        residual = ref - q @ (q.T @ ref)
        worst = max(worst, float(scipy.linalg.svdvals(residual)[0]))
    return worst, len(samples)


def main(argv):
    result_path, spawn_t0, config_path = argv[0], float(argv[1]), argv[2]
    rest = argv[3:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]

    import noisypca.cli as cli

    tracer = samples = None
    if trace_path is not None:
        import noisypca.experiments as exp
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        samples = []
        traced_top_r = exp.top_r_eigvecs
        calls = [0]

        def sampled_top_r(s, r):
            basis = traced_top_r(s, r)
            if calls[0] % 5 == 0 and len(samples) < 3:
                samples.append((s, r, basis))
            calls[0] += 1
            return basis

        exp.top_r_eigvecs = sampled_top_r

    cli.parse_config(config_path)
    setup_end = _now()
    out = {"setup_s": setup_end - spawn_t0}
    if rest != ["--setup-only"]:
        cpu0 = _cpu()
        try:
            rc = cli.main(rest[1:])
        except Exception:  # a crash is a failed operation, not a dead benchmark
            out["error"] = traceback.format_exc()
            rc = -1
        out["run_s"] = _now() - setup_end
        out["cpu_s"] = _cpu() - cpu0
        out["rc"] = rc
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        out["peak_rss_mb"] = peak_kb / 1024.0
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["eig_check"] = _eig_check(samples)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

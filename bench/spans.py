"""Spans around calls into noisypca's layers, recorded from outside the package.

`install` replaces, in a child process that is about to run one experiment,
the public functions of `noisypca.model`, `estimator`, `linalg` and `bounds`
at the names `noisypca.experiments` calls them by, the experiment functions,
`realize_model`, `success_epsilon` and the trial runner `_run_trials`, the
config parser at the name `noisypca.cli` calls it by,
`numpy.linalg.eigh/eigvalsh/svd/norm`, and the process pool. Spans are kept
in memory; a layer's self time is its span's duration minus the time its
child spans cover.
"""

import functools
import inspect
import time

# Experiment functions the CLI calls as `exp.<name>`; their self time is
# the work done in experiments.py itself (trial loop, aggregation).
EXPERIMENT_FUNCTIONS = ("bound_tightness", "phase_transition", "concentration_check")


class Tracer:
    """Nested spans as [name, start, end, parent index] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def totals(self):
        """{span name: [self seconds, calls]} over all closed spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        out = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start - covered[index]
            entry[1] += 1
        return out


def _norm(tracer, fn):
    """Spectral norms (ord=2 of a matrix) get a span; other norms do not."""

    @functools.wraps(fn)
    def norm(x, ord=None, axis=None, keepdims=False):
        if ord == 2 and axis is None and getattr(x, "ndim", 0) == 2:
            index = tracer.begin("numpy.norm2")
            try:
                return fn(x, ord, axis, keepdims)
            finally:
                tracer.end(index)
        return fn(x, ord, axis, keepdims)

    return norm


def install(tracer):
    """Route noisypca's layer calls in this process through `tracer`."""
    import numpy as np

    import noisypca.bounds
    import noisypca.cli as cli
    import noisypca.estimator
    import noisypca.experiments as exp
    import noisypca.linalg
    import noisypca.model

    layers = {m.__name__: m.__name__.rsplit(".", 1)[1]
              for m in (noisypca.model, noisypca.estimator, noisypca.linalg, noisypca.bounds)}
    for name, obj in list(vars(exp).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ in layers:
            setattr(exp, name, tracer.wrap(f"{layers[obj.__module__]}.{name}", obj))
    for name in ("realize_model", "success_epsilon", "_run_trials") + EXPERIMENT_FUNCTIONS:
        setattr(exp, name, tracer.wrap(f"experiments.{name}", getattr(exp, name)))
    cli.parse_config = tracer.wrap("config.parse_config", cli.parse_config)

    np.linalg.eigh = tracer.wrap("numpy.eig", np.linalg.eigh)
    np.linalg.eigvalsh = tracer.wrap("numpy.eig", np.linalg.eigvalsh)
    np.linalg.svd = tracer.wrap("numpy.svd", np.linalg.svd)
    np.linalg.norm = _norm(tracer, np.linalg.norm)

    class TracedPool(exp.ProcessPoolExecutor):
        """Parent-side span from pool creation until its workers are joined."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.begin("experiments.pool")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

    exp.ProcessPoolExecutor = TracedPool

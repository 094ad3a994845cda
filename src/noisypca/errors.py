"""Exception types raised across the package: one class per way a failure is handled."""


class NoisyPcaError(Exception):
    """Base class for all package errors; the CLI exits 1 on it."""


class ValidationError(NoisyPcaError, ValueError):
    """A bad input: config, parameter, shape, rank, support schedule or example hypothesis."""


class RankDeficient(ValidationError):
    """Input matrix does not have full numerical column rank; a cell's frame falls back on it."""


class InfeasibleModel(NoisyPcaError):
    """The model violates a feasibility condition of a bound or corollary; the CLI exits 2 on it."""

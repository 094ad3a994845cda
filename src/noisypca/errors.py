"""Exception types raised across the package."""


class NoisyPcaError(Exception):
    """Base class for all package errors."""


class RankDeficient(NoisyPcaError):
    """Input matrix does not have full numerical column rank."""


class DimensionMismatch(NoisyPcaError):
    """Operands live in incompatible ambient dimensions."""


class NotSymmetric(NoisyPcaError):
    """Matrix fails the symmetry tolerance."""


class InvalidRank(NoisyPcaError):
    """Requested subspace dimension is out of range."""


class NoComplement(NoisyPcaError):
    """Orthogonal complement of a full-dimensional basis is empty."""


class InvalidSupport(NoisyPcaError):
    """Support process parameters are unsatisfiable."""


class EmptyBatch(NoisyPcaError):
    """Data batch contains no columns."""


class CorollaryInapplicable(NoisyPcaError):
    """Derived noise-to-signal ratio q >= 1; the closed-form bound does not apply."""


class InvalidExample(NoisyPcaError):
    """Adversarial construction hypothesis (lambda_{r-1} >= 1.1 lambda^-) violated."""


class SupportDegenerate(NoisyPcaError):
    """Support block too aligned with the estimated subspace; masked Gram matrix near-singular."""


class InfeasibleModel(NoisyPcaError):
    """Experiment requires a feasible bound condition that the model violates."""


class ConfigError(NoisyPcaError):
    """Config file missing, malformed, or containing unknown/missing keys."""


class ValidationError(NoisyPcaError):
    """Config or model parameter violates a type invariant."""

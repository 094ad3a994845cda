"""Closed-form finite-sample error bounds and feasibility conditions.

Every evaluator is pure arithmetic on BoundInputs. Notation (all ratios
relative to the smallest signal-subspace eigenvalue lambda^-):

    eps_den = c * eta * f * sqrt((r + log n) / alpha)
    eps_bnd = c * sqrt(eta) * max(q f sqrt(r log n / alpha),
                                  g sqrt(max(r_v, r) log n / alpha))   [bounded]
            = c * max(lambda_v^+/lambda^-, f) * sqrt(n / alpha)        [subgaussian]

with g = max(lambda_v^+/lambda^-, sqrt(lambda_v^+ f / lambda^-)).
Logs are natural. The unspecified concentration constant c is an input
everywhere, default 1.
"""

import math
from dataclasses import dataclass

from .errors import InfeasibleModel, ValidationError
from .model import DerivedSpectra

REGIMES = ("bounded", "subgaussian")


@dataclass(frozen=True)
class BoundInputs:
    """Everything a bound evaluator needs about one (model, alpha, c) triple."""

    spectra: DerivedSpectra
    r: int
    r_v: int
    n: int
    alpha: int
    eta: float = 3.0
    q: float = 0.0
    b: float = 0.0
    c: float = 1.0
    regime: str = "bounded"

    def __post_init__(self):
        if self.alpha < 1:
            raise ValidationError(f"alpha must be >= 1, got {self.alpha}")
        if not 0 <= self.q < 1:
            raise ValidationError(f"q must lie in [0, 1), got {self.q}")
        if not 0 <= self.b < 1:  # b is the occupancy at this alpha, not a config value
            raise ValidationError(f"b must lie in [0, 1), got {self.b} at alpha={self.alpha}")
        if self.eta < 1:
            raise ValidationError(f"eta must be >= 1, got {self.eta}")
        if not 0 < self.c < math.inf:
            raise ValidationError(f"c must be finite and positive, got {self.c}")
        if self.regime not in REGIMES:
            raise ValidationError(f"unknown regime {self.regime!r}")


@dataclass(frozen=True)
class BoundReport:
    """Assembled bound for one input triple.

    feasible <=> condition_slack > 0 <=> se_bound finite; se_bound is
    +inf when the feasibility condition fails.
    """

    eps_bnd: float
    eps_den: float
    condition_slack: float
    feasible: bool
    se_bound: float


def eps_den(inputs):
    """Denominator concentration term c * eta * f * sqrt((r + log n)/alpha)."""
    s = inputs.spectra
    return inputs.c * inputs.eta * s.f * math.sqrt(
        (inputs.r + math.log(inputs.n)) / inputs.alpha
    )


def _log_root(inputs, dim):
    """sqrt(dim * log n / alpha), the rate of every bounded-regime term."""
    return math.sqrt(dim * math.log(inputs.n) / inputs.alpha)


def eps_bnd(inputs):
    """Numerator concentration term for the selected regime."""
    s = inputs.spectra
    if inputs.regime == "subgaussian":
        return inputs.c * max(s.lambda_v_plus / s.lambda_minus, s.f) * math.sqrt(
            inputs.n / inputs.alpha
        )
    return inputs.c * math.sqrt(inputs.eta) * max(
        inputs.q * s.f * _log_root(inputs, inputs.r),
        s.g * _log_root(inputs, max(inputs.r_v, inputs.r)),
    )


def _sddn_terms(q, b, f):
    """(mixed, condition) = (sqrt(b)(2q+q^2) f, 3 sqrt(b) q f)."""
    root_b = math.sqrt(b)
    return root_b * (2 * q + q**2) * f, 3 * root_b * q * f


def _rest_gap(spectra):
    """(lam_vrest^+ - lam_vP^-)/lam^-: noise outside the subspace over the floor."""
    return (spectra.lambda_vrest_plus - spectra.lambda_vP_minus) / spectra.lambda_minus


def general_bound(inputs):
    """Full subspace-error bound under combined uncorrelated + data-dependent noise.

        se <= (lam_vPPperp/lam^- + sqrt(b)(2q+q^2) f + eps_bnd)
              / (1 - (lam_vrest^+ - lam_vP^-)/lam^- - sqrt(b)(2q+q^2) f
                   - eps_bnd - eps_den)

    feasible iff (lam_vrest^+ - lam_vP^-)/lam^- + 3 sqrt(b) q f
    + eps_bnd + eps_den < 1.
    """
    s = inputs.spectra
    eb = eps_bnd(inputs)
    ed = eps_den(inputs)
    mixed, condition = _sddn_terms(inputs.q, inputs.b, s.f)
    rest_gap = _rest_gap(s)
    slack = 1.0 - (rest_gap + condition + eb + ed)
    if slack <= 0:
        return BoundReport(eb, ed, slack, False, float("inf"))
    numerator = s.lambda_vPPperp / s.lambda_minus + mixed + eb
    denominator = 1.0 - rest_gap - mixed - eb - ed
    return BoundReport(eb, ed, slack, True, numerator / denominator)


def sddn_bound(inputs):
    """Bound for purely sparse data-dependent noise (Sigma_v = 0).

        se <= (3 sqrt(b) q f + eps_bnd) / (1 - (3 sqrt(b) q f + eps_bnd + eps_den))
    """
    s = inputs.spectra
    if s.lambda_v_plus != 0.0:
        raise ValidationError("sddn_bound expects a noise-free Sigma_v")
    eb = eps_bnd(inputs)
    ed = eps_den(inputs)
    _, condition = _sddn_terms(inputs.q, inputs.b, s.f)
    slack = 1.0 - (condition + eb + ed)
    if slack <= 0:
        return BoundReport(eb, ed, slack, False, float("inf"))
    return BoundReport(eb, ed, slack, True, (condition + eb) / slack)


def rank_delta(inputs):
    """Slack Delta = eps_den + eps_bnd + 3 sqrt(b) q f + lam_vrest^+/lam^-.

    Delta < 1/2 guarantees the threshold rank estimator; Delta also
    enters the eigengap-estimator condition.
    """
    s = inputs.spectra
    _, condition = _sddn_terms(inputs.q, inputs.b, s.f)
    return eps_den(inputs) + eps_bnd(inputs) + condition + (
        s.lambda_vrest_plus / s.lambda_minus
    )


def sddn_required_alpha(q, f, r, n, eps_se, constant=1.0):
    """Samples needed for error eps_se under pure sparse data-dependent noise.

        alpha_0 = ceil(C * max((q f / eps_se)^2 * r log n, f^2 (r + log n)))
    """
    if eps_se <= 0:
        raise ValidationError("eps_se must be positive")
    logn = math.log(n)
    first = (q * f / eps_se) ** 2 * r * logn
    second = f**2 * (r + logn)
    return int(math.ceil(constant * max(first, second)))


def missing_q(mu, r, s, n):
    """Noise-to-signal ratio induced by missing entries: q = sqrt(mu^2 r s / n).

    Raises InfeasibleModel when the formula gives q >= 1.
    """
    if mu < 1:
        raise ValidationError("incoherence mu is always >= 1")
    q = math.sqrt(mu**2 * r * s / n)
    if q >= 1:
        raise InfeasibleModel(
            f"q = {q:.3f} >= 1: basis too sparse or too many missing rows"
        )
    return q


def concentration_bounds(inputs):
    """High-probability bounds for the five batch deviation norms (absolute).

    Keys: aa (signal coefficient covariance), lw (signal/dependent-noise
    cross), ww (dependent-noise covariance), lv (signal/uncorrelated
    cross), vv (uncorrelated-noise covariance). Over lam^-, lw, lv and vv
    are the bounded-regime eps_bnd terms split by source, so none exceeds
    eps_bnd * lam^-.
    """
    s = inputs.spectra
    lam = s.lambda_minus
    root_eta = math.sqrt(inputs.eta)
    root_rlog = _log_root(inputs, inputs.r)
    root_maxlog = _log_root(inputs, max(inputs.r_v, inputs.r))
    ratio = s.lambda_v_plus / s.lambda_minus
    c = inputs.c
    return {
        "aa": eps_den(inputs) * lam,
        "lw": c * root_eta * inputs.q * s.f * root_rlog * lam,
        "ww": c * root_eta * inputs.q**2 * s.f * root_rlog * lam,
        "lv": c * root_eta * math.sqrt(ratio * s.f) * root_maxlog * lam,
        "vv": c * root_eta * ratio * _log_root(inputs, inputs.r_v) * lam,
    }


def success_floor(spectra, q, b0):
    """Population error floor sqrt(b0)(2q+q^2) f + (lam_vPPperp/lam^-) / (1 - rest gap).

    Phase-transition targets scale it; InfeasibleModel when the rest gap reaches 1.
    """
    rest = 1.0 - _rest_gap(spectra)
    if rest <= 0:
        raise InfeasibleModel("noise outside the subspace exceeds the signal floor")
    mixed, _ = _sddn_terms(q, b0, spectra.f)
    return mixed + (spectra.lambda_vPPperp / spectra.lambda_minus) / rest

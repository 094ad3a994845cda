"""Bound-evaluator tests.

The two restricted evaluators coded here (`uncorr_only_oracle`,
`ddn_only_oracle`) are independent implementations of the specialized
closed forms; the general evaluator must reduce to them exactly. All
arithmetic examples are frozen from direct formula evaluation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisypca.bounds import (
    BoundInputs,
    concentration_bounds,
    eps_bnd,
    eps_den,
    general_bound,
    missing_q,
    rank_delta,
    sddn_bound,
    sddn_required_alpha,
    success_floor,
)
from noisypca.errors import InfeasibleModel, ValidationError
from noisypca.model import DerivedSpectra


def spectra(lam_minus=12.0, lam_plus=12.0, lv=0.0, lvp=0.0, lvrest=0.0, lvppp=0.0):
    return DerivedSpectra(
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        f=lam_plus / lam_minus,
        lambda_v_plus=lv,
        lambda_vP_minus=lvp,
        lambda_vrest_plus=lvrest,
        lambda_vPPperp=lvppp,
    )


def uncorr_only_oracle(s, r, r_v, n, alpha, c=1.0):
    """Specialized bound for q = 0 (uncorrelated noise only), eta = 1."""
    g = max(s.lambda_v_plus / s.lambda_minus, math.sqrt(s.lambda_v_plus * s.f / s.lambda_minus))
    eb = c * g * math.sqrt(max(r_v, r) * math.log(n) / alpha)
    ed = c * s.f * math.sqrt((r + math.log(n)) / alpha)
    rest = (s.lambda_vrest_plus - s.lambda_vP_minus) / s.lambda_minus
    if rest + eb + ed >= 1:
        return math.inf
    return (s.lambda_vPPperp / s.lambda_minus + eb) / (1 - rest - eb - ed)


def ddn_only_oracle(s, q, b, r, n, alpha, c=1.0):
    """Specialized bound for Sigma_v = 0 (data-dependent noise only), eta = 1."""
    eb = c * q * s.f * math.sqrt(r * math.log(n) / alpha)
    ed = c * s.f * math.sqrt((r + math.log(n)) / alpha)
    mixed = math.sqrt(b) * (2 * q + q * q) * s.f
    if 3 * math.sqrt(b) * q * s.f + eb + ed >= 1:
        return math.inf
    return (mixed + eb) / (1 - mixed - eb - ed)


# --- eps terms ---------------------------------------------------------------

def test_eps_den_direct_formula():
    inp = BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=1000, eta=3.0)
    expected = 3.0 * math.sqrt((5 + math.log(100)) / 1000)
    assert eps_den(inp) == pytest.approx(expected, rel=1e-12)
    assert eps_den(inp) == pytest.approx(0.2940, abs=2e-4)


def test_eps_den_sqrt_scaling_in_alpha():
    a = eps_den(BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=1000))
    b = eps_den(BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=4000))
    assert b == pytest.approx(a / 2, rel=1e-12)


def test_eps_bnd_bounded_direct_formula():
    s = spectra(lv=1.1)
    inp = BoundInputs(s, r=5, r_v=5, n=100, alpha=1000, eta=3.0, q=0.001)
    root = math.sqrt(5 * math.log(100) / 1000)
    g = max(1.1 / 12, math.sqrt(1.1 / 12))
    expected = math.sqrt(3.0) * max(0.001 * root, g * root)
    assert eps_bnd(inp) == pytest.approx(expected, rel=1e-12)
    assert eps_bnd(inp) == pytest.approx(0.0795, abs=2e-4)
    assert g == pytest.approx(0.3028, abs=1e-4)


def test_eps_bnd_zero_noise_is_zero():
    inp = BoundInputs(spectra(), r=5, r_v=0, n=100, alpha=1000, q=0.0)
    assert eps_bnd(inp) == 0.0


def test_eps_bnd_subgaussian_direct_formula():
    s = spectra(lv=1.1)
    inp = BoundInputs(s, r=5, r_v=5, n=100, alpha=400, regime="subgaussian")
    assert eps_bnd(inp) == pytest.approx(0.5, rel=1e-12)


@settings(derandomize=True, deadline=None)
@given(
    lam_plus=st.floats(12.0, 30.0),
    lv=st.floats(0.0, 2.0),
    r_v=st.integers(0, 12),
    alpha=st.integers(50, 20000),
    q=st.floats(0.0, 0.5),
)
def test_concentration_terms_never_exceed_eps_bnd(lam_plus, lv, r_v, alpha, q):
    # lw, lv and vv over lam^- are the bounded-regime eps_bnd terms split by
    # source (q f, sqrt(ratio f), ratio); g covers the last two.
    inp = BoundInputs(spectra(lam_plus=lam_plus, lv=lv), r=5, r_v=r_v, n=100,
                      alpha=alpha, eta=3.0, q=q)
    limits = concentration_bounds(inp)
    split = max(limits[term] for term in ("lw", "lv", "vv")) / inp.spectra.lambda_minus
    assert split <= eps_bnd(inp) * (1 + 1e-12)


# --- specialization identities ------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_general_bound_reduces_to_uncorr_oracle(seed):
    rng = np.random.default_rng(seed)
    lv = rng.uniform(0.01, 2.0)
    lvp = rng.uniform(0, lv)
    lvrest = rng.uniform(lvp, lv)
    s = spectra(lam_plus=rng.uniform(12, 30), lv=lv, lvp=lvp, lvrest=lvrest,
                lvppp=rng.uniform(0, lvrest))
    r, r_v, n, alpha = 4, int(rng.integers(1, 12)), 100, int(rng.integers(50, 5000))
    inp = BoundInputs(s, r=r, r_v=r_v, n=n, alpha=alpha, eta=1.0, q=0.0, b=0.0)
    got = general_bound(inp)
    expected = uncorr_only_oracle(s, r, r_v, n, alpha)
    if math.isinf(expected):
        assert not got.feasible
    else:
        assert got.se_bound == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_general_bound_reduces_to_ddn_oracle(seed):
    rng = np.random.default_rng(seed)
    s = spectra(lam_plus=rng.uniform(12, 24))
    q = rng.uniform(0, 0.5)
    b = rng.uniform(0, 0.5)
    r, n, alpha = 5, 100, int(rng.integers(50, 5000))
    inp = BoundInputs(s, r=r, r_v=0, n=n, alpha=alpha, eta=1.0, q=q, b=b)
    got = general_bound(inp)
    expected = ddn_only_oracle(s, q, b, r, n, alpha)
    if math.isinf(expected):
        assert not got.feasible
    else:
        assert got.se_bound == pytest.approx(expected, abs=1e-12)


def test_general_bound_infeasible_at_tiny_alpha():
    inp = BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=2, eta=3.0)
    report = general_bound(inp)
    assert not report.feasible
    assert math.isinf(report.se_bound)
    assert report.condition_slack <= 0


# --- isotropic (spiked) noise: general_bound is eps_bnd/(1 - eps_bnd - eps_den) ---

def test_spiked_bound_zero_noise():
    inp = BoundInputs(spectra(), r=3, r_v=0, n=50, alpha=5000, eta=1.0)
    eb, ed = eps_bnd(inp), eps_den(inp)
    report = general_bound(inp)
    assert report.se_bound == pytest.approx(eb / (1.0 - eb - ed), abs=1e-15)
    assert report.se_bound == pytest.approx(0.0, abs=1e-15)


def test_spiked_bound_matches_general_under_isotropy():
    lv = 0.8
    s = spectra(lv=lv, lvp=lv, lvrest=lv)
    inp = BoundInputs(s, r=3, r_v=50, n=50, alpha=8000, eta=1.0)
    eb, ed = eps_bnd(inp), eps_den(inp)
    general = general_bound(inp)
    # The general ratio reduces to the spiked one once lam_vrest == lam_vP and lvppp = 0.
    assert general.se_bound == pytest.approx(eb / (1.0 - eb - ed), rel=1e-12)


def test_spiked_bound_cap_at_095():
    # Below the sample size at which eps_bnd + eps_den < 1 the isotropic
    # bound is infeasible, not capped.
    s = spectra(lv=1.0, lvp=1.0, lvrest=1.0)
    inp = BoundInputs(s, r=1, r_v=50, n=50, alpha=40, regime="subgaussian", eta=1.0)
    report = general_bound(inp)
    assert eps_bnd(inp) + eps_den(inp) >= 1.0
    assert not report.feasible and report.se_bound == math.inf


def test_spiked_bound_dominant_term_single_spike():
    # r = 1, f = 1, gaussian regime, noise level at the signal floor: the
    # bound is the sqrt(lambda_v/lambda) sqrt(n/alpha) rate up to a small
    # constant.
    lv = 12.0
    s = spectra(lv=lv, lvp=lv, lvrest=lv)
    inp = BoundInputs(s, r=1, r_v=100, n=100, alpha=40000, regime="subgaussian", eta=1.0)
    rate = math.sqrt(lv / 12.0) * math.sqrt(100 / 40000)
    eb, ed = eps_bnd(inp), eps_den(inp)
    report = general_bound(inp)
    assert report.se_bound == pytest.approx(eb / (1.0 - eb - ed), rel=1e-12)
    assert rate <= report.se_bound <= 2.5 * rate


# --- rank slack -----------------------------------------------------------------

def test_rank_delta_formula():
    s = spectra(lv=0.3888, lvrest=0.3867, lvp=0.0003)
    inp = BoundInputs(s, r=5, r_v=5, n=100, alpha=5000, eta=3.0, q=0.001, b=0.05)
    expected = (
        eps_den(inp)
        + eps_bnd(inp)
        + 3 * math.sqrt(0.05) * 0.001 * 1.0
        + 0.3867 / 12.0
    )
    assert rank_delta(inp) == pytest.approx(expected, rel=1e-12)
    assert rank_delta(inp) < 0.5


def test_rank_delta_vanishes_noiseless_large_alpha():
    inp = BoundInputs(spectra(), r=5, r_v=0, n=100, alpha=10**12, q=0.0, b=0.0)
    assert rank_delta(inp) == pytest.approx(0.0, abs=1e-4)


# --- sddn bound and sample complexity --------------------------------------------

def test_sddn_bound_no_occupancy():
    inp = BoundInputs(spectra(), r=5, r_v=0, n=100, alpha=2000, eta=3.0, q=0.1, b=0.0)
    report = sddn_bound(inp)
    eb, ed = eps_bnd(inp), eps_den(inp)
    assert report.se_bound == pytest.approx(eb / (1 - eb - ed), rel=1e-12)


def test_sddn_bound_small_noise_dominates_zero():
    inp = BoundInputs(spectra(), r=5, r_v=0, n=100, alpha=3000, eta=3.0, q=0.001, b=0.05)
    report = sddn_bound(inp)
    assert report.feasible
    assert 0 < report.se_bound < 0.5


def test_sddn_bound_infeasible_when_occupancy_term_large():
    s = spectra(lam_plus=120.0)  # f = 10
    inp = BoundInputs(s, r=5, r_v=0, n=100, alpha=10**9, q=0.5, b=0.5)
    report = sddn_bound(inp)
    assert not report.feasible


def test_sddn_bound_rejects_uncorrelated_noise():
    with pytest.raises(ValidationError):
        sddn_bound(BoundInputs(spectra(lv=0.5), r=5, r_v=5, n=100, alpha=100))


def test_sddn_required_alpha_arithmetic():
    assert sddn_required_alpha(q=0.1, f=1.0, r=5, n=100, eps_se=0.025, constant=1.0) == 369


def test_sddn_required_alpha_large_eps_limit():
    got = sddn_required_alpha(q=0.1, f=1.0, r=5, n=100, eps_se=1e9, constant=1.0)
    assert got == math.ceil(5 + math.log(100))


def test_sddn_required_alpha_constant_fraction_of_q():
    # eps_se proportional to q makes the requirement q-independent.
    a1 = sddn_required_alpha(q=0.1, f=1.0, r=5, n=100, eps_se=0.025, constant=1.0)
    a2 = sddn_required_alpha(q=0.4, f=1.0, r=5, n=100, eps_se=0.1, constant=1.0)
    assert a1 == a2


# --- missing data / expected perturbation ----------------------------------------

def test_missing_q_cases():
    assert missing_q(1.0, 5, 0, 100) == 0.0
    assert missing_q(1.0, 5, 5, 100) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(InfeasibleModel, match=r"^q = 10\.000 >= 1: basis too sparse or too many missing rows$"):
        missing_q(10.0, 5, 20, 100)


def test_success_floor_formula():
    s = spectra(lv=0.5, lvp=0.1, lvrest=0.4, lvppp=0.2)
    rest = 1.0 - (0.4 - 0.1) / 12.0
    expected = math.sqrt(0.05) * (2 * 0.01 + 0.01**2) * 1.0 + (0.2 / 12.0) / rest
    assert success_floor(s, q=0.01, b0=0.05) == pytest.approx(expected, rel=1e-12)
    assert success_floor(spectra(), q=0.0, b0=0.0) == 0.0
    with pytest.raises(InfeasibleModel):
        success_floor(spectra(lv=13.0, lvrest=13.0), q=0.0, b0=0.0)


# --- global properties ------------------------------------------------------------

def assert_monotone_nonincreasing_in_alpha(s, q, b):
    previous = math.inf
    for alpha in (50, 200, 800, 3200, 12800, 10**6):
        inp = BoundInputs(s, r=4, r_v=6, n=80, alpha=alpha, eta=3.0, q=q, b=b)
        report = general_bound(inp)
        value = report.se_bound
        assert value <= previous + 1e-12
        assert report.feasible == (report.condition_slack > 0)
        assert report.feasible == math.isfinite(value)
        previous = value


@pytest.mark.parametrize("seed", range(8))
def test_bounds_monotone_nonincreasing_in_alpha(seed):
    rng = np.random.default_rng(seed)
    lv = rng.uniform(0, 1.0)
    lvp = rng.uniform(0, lv) if lv else 0.0
    lvrest = rng.uniform(lvp, lv) if lv else 0.0
    s = spectra(lam_plus=rng.uniform(12, 20), lv=lv, lvp=lvp, lvrest=lvrest,
                lvppp=rng.uniform(0, lvrest) if lv else 0.0)
    assert_monotone_nonincreasing_in_alpha(s, q=rng.uniform(0, 0.3), b=rng.uniform(0, 0.3))


unit = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None)
@given(
    lam_plus=st.floats(12.0, 20.0),
    lv=unit,
    fractions=st.tuples(unit, unit, unit),
    q=st.floats(0.0, 0.3),
    b=st.floats(0.0, 0.3),
)
def test_bounds_monotone_nonincreasing_in_alpha_property(lam_plus, lv, fractions, q, b):
    # 0 <= lam_vP^- <= lam_vrest^+ <= lam_v^+ and lam_vPPperp <= lam_vrest^+.
    lvp = fractions[0] * lv
    lvrest = lvp + fractions[1] * (lv - lvp)
    s = spectra(lam_plus=lam_plus, lv=lv, lvp=lvp, lvrest=lvrest, lvppp=fractions[2] * lvrest)
    assert_monotone_nonincreasing_in_alpha(s, q, b)


def test_concentration_bounds_formulas():
    s = spectra(lv=0.39)
    inp = BoundInputs(s, r=5, r_v=5, n=100, alpha=2000, eta=3.0, q=0.001, b=0.05)
    limits = concentration_bounds(inp)
    logn = math.log(100)
    assert limits["aa"] == pytest.approx(3.0 * math.sqrt((5 + logn) / 2000) * 12.0, rel=1e-12)
    assert limits["lw"] == pytest.approx(
        math.sqrt(3.0) * 0.001 * math.sqrt(5 * logn / 2000) * 12.0, rel=1e-12
    )
    assert limits["ww"] == pytest.approx(limits["lw"] * 0.001, rel=1e-12)
    assert limits["lv"] == pytest.approx(
        math.sqrt(3.0) * math.sqrt(0.39 / 12.0) * math.sqrt(5 * logn / 2000) * 12.0,
        rel=1e-12,
    )
    assert limits["vv"] == pytest.approx(
        math.sqrt(3.0) * (0.39 / 12.0) * math.sqrt(5 * logn / 2000) * 12.0, rel=1e-12
    )


def test_bound_inputs_validation():
    with pytest.raises(ValidationError):
        BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=0)
    with pytest.raises(ValidationError):
        BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=10, q=1.0)
    with pytest.raises(ValidationError):
        BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=10, b=1.0)
    with pytest.raises(ValidationError):
        BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=10, regime="laplace")
    for c in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            BoundInputs(spectra(), r=5, r_v=5, n=100, alpha=10, c=c)

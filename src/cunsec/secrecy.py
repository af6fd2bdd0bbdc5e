"""Secrecy metrics: outage lower bound, positive-capacity probability, and
effective throughput for both power-constraint scenarios.

Every metric is one expectation of the hybrid-link CDF at sigma * snr_e over
the eavesdropper density, and that is how sop_lower, spsc and est evaluate
it: sop_lower_quadrature integrates cun_cdf.cdf_rf times the blocked-FSO CDF
over the eavesdropper SNR (cun_cdf._expect), with no series to try and
discard.  Its route is "expectation" when alpha_sr == alpha_sp (the RF CDF is
closed form) and "quadrature" otherwise (the RF CDF is itself an
expectation).

The paper's closed assemblies, sop_lower_scenario1/2, expand the same
expectation into the integral-term families (the I-terms for Scenario I, the
R-terms for Scenario II); each family member has a Mellin-Barnes closed form.
They require alpha_sr == alpha_sp and serve as the checked reproduction of
the paper, off the metric path.  The binomial series of the I3/I4 and R4/R8
families are asymptotic (their moments grow): an assembly returns its closed
form (route "closed") where they truncate below tolerance before their terms
turn up, and otherwise raises ConvergenceError naming the series.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gamma as _gamma, gammaincc

from .channels import FsoLinkParams, MalagaCdfEvaluator, RfChannelParams
from .cun_cdf import (_P2_MAX_RATIO, PowerConstraints, _binomial_series,
                      _equal_stretch, _expect, _p2_ratio, _p2_series,
                      _scenario1_coeff, cdf_rf, require_equal_alpha)
from . import specfun
from .errors import ConvergenceError, NumericalIntegrityError, ParameterError
from .specfun import (
    BivariateFoxHSpec,
    FoxHSpec,
    LineEvaluator,
    fox_h,
    fox_h_bivariate,
)

__all__ = [
    "SecrecyConfig",
    "SecrecyResult",
    "sop_lower_scenario1",
    "sop_lower_scenario2",
    "sop_lower",
    "spsc",
    "est",
]


@dataclass(frozen=True)
class SecrecyConfig:
    """Full scenario bundle: three RF links, the optical link, the power
    constraints, and the target secrecy rate in bits/s/Hz."""

    rf_sr: RfChannelParams
    rf_sp: RfChannelParams
    rf_se: RfChannelParams
    fso: FsoLinkParams
    pc: PowerConstraints
    target_rate: float = 0.05

    def __post_init__(self):
        if not np.isfinite(self.target_rate) or self.target_rate < 0:
            raise ParameterError("target_rate must be >= 0")

    @property
    def sigma(self):
        return 2.0 ** self.target_rate

    def with_target_rate(self, rate):
        return replace(self, target_rate=rate)


@dataclass
class SecrecyResult:
    value: float
    kind: str            # SOP_L | SPSC | EST
    scenario: str        # I | II
    diagnostics: dict = field(default_factory=dict)

    def __float__(self):
        return float(self.value)


def _clamp_unit(value, what):
    if value < -1e-9 or value > 1.0 + 1e-9:
        raise NumericalIntegrityError(f"{what} = {value} outside [0, 1]")
    return float(min(max(value, 0.0), 1.0))


def _f_e_norm(e):
    """Normalisation of the eavesdropper density in front of every term."""
    return e.alpha_tilde * e.delta ** e.mu / _gamma(e.mu)


# --------------------------------------------------------------------------
# closed-form building blocks
# --------------------------------------------------------------------------

def exp_moment(e, power):
    """int_0^inf x^power exp(-delta_e x^at_e) dx."""
    a = (power + 1.0) / e.alpha_tilde
    return _gamma(a) * e.delta ** (-a) / e.alpha_tilde


def exp_pair_moment(e, power, coeff, at_r):
    """int_0^inf x^power exp(-coeff x^at_r) exp(-delta_e x^at_e) dx.

    Elementary when the two stretch exponents match, univariate Fox H
    otherwise.
    """
    c0 = power + 1.0
    at_e = e.alpha_tilde
    if _equal_stretch(at_r, at_e):
        return _gamma(c0 / at_e) * (coeff + e.delta) ** (-c0 / at_e) / at_e
    spec = FoxHSpec(m=1, n=1,
                    upper=((1.0 - c0 / at_e, at_r / at_e),),
                    lower=((0.0, 1.0),))
    z = coeff * e.delta ** (-at_r / at_e)
    return e.delta ** (-c0 / at_e) / at_e * fox_h(spec, z)


def _g_weighted_moment(fso, m_o, power, weight, at, c_arg):
    """int_0^inf x^power exp(-weight x^at) G_cdfkernel(c_arg x) dx as a
    univariate Fox H with one stretched upper pair."""
    mu_fac = (power + 1.0) / at
    base = fso.cdf_kernel_spec(m_o).as_fox_h()
    spec = FoxHSpec(m=base.m, n=base.n + 1,
                    upper=((1.0 - mu_fac, 1.0 / at),) + base.upper,
                    lower=base.lower)
    z = c_arg * weight ** (-1.0 / at)
    return weight ** (-mu_fac) / at * fox_h(spec, z)


def g_exp_moment(cfg, m_o, power):
    """int_0^inf x^power exp(-delta_e x^at_e) G_cdfkernel(V sigma x / mu_s) dx."""
    e, fso = cfg.rf_se, cfg.fso
    return _g_weighted_moment(fso, m_o, power, e.delta, e.alpha_tilde,
                              fso.V * cfg.sigma / fso.mu_s)


def g_exp_pair_moment(cfg, m_o, power, coeff, at_r):
    """int_0^inf x^power exp(-coeff x^at_r) exp(-delta_e x^at_e)
    G_cdfkernel(V sigma x / mu_s) dx.

    When the stretch exponents match, the two exponentials merge and this
    is the univariate weighted moment; otherwise a bivariate Fox H (the
    same split as exp_pair_moment).
    """
    e, fso = cfg.rf_se, cfg.fso
    at_e = e.alpha_tilde
    c_arg = fso.V * cfg.sigma / fso.mu_s
    if _equal_stretch(at_r, at_e):
        return _g_weighted_moment(fso, m_o, power, coeff + e.delta, at_e, c_arg)
    xi9 = power + 1.0
    spec = BivariateFoxHSpec(
        joint=((1.0 - xi9 / at_e, at_r / at_e, 1.0 / at_e),),
        kernel1=FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),)),
        kernel2=fso.cdf_kernel_spec(m_o).as_fox_h(),
    )
    z1 = coeff * e.delta ** (-at_r / at_e)
    z2 = c_arg * e.delta ** (-1.0 / at_e)
    return e.delta ** (-xi9 / at_e) / at_e * fox_h_bivariate(spec, z1, z2)


# --------------------------------------------------------------------------
# Scenario I term families
# --------------------------------------------------------------------------

def im1_term(e):
    """Plain eavesdropper exponential moment (normalises the density)."""
    return exp_moment(e, e.theta)


def im2_term(cfg, m_o):
    return g_exp_moment(cfg, m_o, cfg.rf_se.theta)


def _pow_kernel_series(cfg, m_r, m_o):
    """I3 (m_o None) / I4 term int x^(theta_e + at*m_r) e^(-d_e x^at_e)
    (xi1 s^at x^at + d_p)^-xi2 [G(V s x / mu_s)] dx, expanded binomially in
    m2; None when the expansion ratio is >= 1 or the series diverges."""
    r, p, e = cfg.rf_sr, cfg.rf_sp, cfg.rf_se
    at = r.alpha_tilde
    xi2 = m_r + p.mu
    zr = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at / p.delta
    if zr >= 1.0:
        return None
    base_pow = e.theta + at * m_r
    if m_o is None:
        moment = lambda m2: exp_moment(e, base_pow + at * m2)
    else:
        moment = lambda m2: g_exp_moment(cfg, m_o, base_pow + at * m2)
    total, converged, _, _ = _binomial_series(xi2, zr, moment, 0)
    return total * p.delta ** (-xi2) if converged else None


def _pow_kernel_term(cfg, m_r, m_o):
    """I3/I4 term and its route: the series, else the expectation over the
    eavesdropper SNR of the defining integrand without its density."""
    val = _pow_kernel_series(cfg, m_r, m_o)
    if val is not None:
        return val, "series"
    r, p, e, fso = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso
    at = r.alpha_tilde
    xi1s = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at
    xi2 = m_r + p.mu
    kern = lambda x: 1.0
    if m_o is not None:
        c_arg = fso.V * cfg.sigma / fso.mu_s
        line = LineEvaluator(fso.cdf_kernel_spec(m_o), max(c_arg * e.avg_snr, 1e-6))

        def kern(x):
            out = np.zeros(x.shape)
            pos = x > 0
            out[pos] = line.eval_many(c_arg * x[pos])
            return out

    f = lambda x: x ** (at * m_r) * (xi1s * x ** at + p.delta) ** (-xi2) * kern(x)
    return _expect(e, f) / _f_e_norm(e), "quadrature"


def im3_term(cfg, m_r):
    return _pow_kernel_term(cfg, m_r, None)


def im4_term(cfg, m_r, m_o):
    return _pow_kernel_term(cfg, m_r, m_o)


# --------------------------------------------------------------------------
# Scenario II term families
# --------------------------------------------------------------------------

def _xi10(cfg):
    r = cfg.rf_sr
    return r.delta * cfg.pc.psi_t ** (-r.alpha_tilde) * cfg.sigma ** r.alpha_tilde


def r1_term(cfg):
    return im1_term(cfg.rf_se)


def r2_term(cfg, m_r):
    r, e = cfg.rf_sr, cfg.rf_se
    return exp_pair_moment(e, e.theta + r.alpha_tilde * m_r, _xi10(cfg),
                           r.alpha_tilde)


def r4_term(cfg, k):
    """Same kernel as r2 at the combined series power k = m_r + m4 + m5."""
    return r2_term(cfg, k)


def r5_term(cfg, m_o):
    return g_exp_moment(cfg, m_o, cfg.rf_se.theta)


def r6_term(cfg, m_r, m_o):
    r, e = cfg.rf_sr, cfg.rf_se
    return g_exp_pair_moment(cfg, m_o, e.theta + r.alpha_tilde * m_r,
                             _xi10(cfg), r.alpha_tilde)


def r8_term(cfg, k, m_o):
    return r6_term(cfg, k, m_o)


# --------------------------------------------------------------------------
# the expectation of every metric
# --------------------------------------------------------------------------

def sop_lower_quadrature(cfg):
    """The defining outage integral E[F_RF(sigma x) F_fso*(sigma x)] over the
    eavesdropper SNR x, by one probability-space expectation."""
    sig = cfg.sigma
    fso_cdf = MalagaCdfEvaluator(cfg.fso, snr_ref=sig * cfg.rf_se.avg_snr,
                                 blocked=True)
    return _expect(cfg.rf_se,
                   lambda x: cdf_rf(cfg, sig * x) * fso_cdf.eval_many(sig * x))


# --------------------------------------------------------------------------
# metric assemblies
# --------------------------------------------------------------------------

def sop_lower_scenario1(cfg):
    """Secrecy-outage lower bound for the interference-only constraint: the
    paper's closed assembly of the I-terms (alpha_sr == alpha_sp only).

    Raises ConvergenceError, with the (m_r, m_o) key of the first I3/I4
    binomial series that does not truncate (m_o None for I3); the
    elementary I3 series run before any I4 series (a Fox H call per term).

    The value is a difference of pieces (P_o, the I2 part and one I3/I4
    bracket per m_r), each computed to relative tolerance
    specfun._REL_TOL, so diagnostics["error_bound"] is that tolerance
    times the sum of their magnitudes: where the pieces cancel to a value
    below it, no digit of the value is certified.
    """
    if cfg.pc.scenario != "I":
        raise ParameterError("config is not Scenario I")
    r, p, e, fso = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso
    require_equal_alpha(r, p)
    at = r.alpha_tilde
    ce = _f_e_norm(e)
    P_o = fso.blockage_p
    m_os = range(1, fso.beta_o + 1)
    terms = {}
    for key in [(m_r, None) for m_r in range(r.mu)] + \
            [(m_r, m_o) for m_r in range(r.mu) for m_o in m_os]:
        terms[key] = _pow_kernel_series(cfg, *key)
        if terms[key] is None:
            raise ConvergenceError(
                f"I{3 if key[1] is None else 4} binomial series at "
                f"(m_r, m_o) = {key} does not truncate",
                diagnostics={"key": key})
    pieces = [P_o, (1.0 - P_o) * fso.K * ce * sum(
        fso.varsigma(m_o) * im2_term(cfg, m_o) for m_o in m_os)]
    for m_r in range(r.mu):
        d_mr = _scenario1_coeff(r, p, m_r) * cfg.pc.psi_q ** (-at * m_r)
        fso_part = sum(fso.varsigma(m_o) * terms[m_r, m_o] for m_o in m_os)
        pieces.append(-ce * d_mr * cfg.sigma ** (at * m_r) * (
            P_o * terms[m_r, None] + (1.0 - P_o) * fso.K * fso_part))
    bound = specfun._REL_TOL * sum(abs(x) for x in pieces)
    return SecrecyResult(_clamp_unit(sum(pieces), "SOP_L^I"), "SOP_L", "I",
                         {"route": "closed", "error_bound": bound})


def sop_lower_scenario2(cfg):
    """Secrecy-outage lower bound for the double power constraint: the
    paper's closed assembly of the R-terms (alpha_sr == alpha_sp only).

    Before any R5/R6 term, its P2 piece is summed as the quadruple series.
    Raises ConvergenceError when the series ratio is >= 0.8 or the first R4
    term ratio >= 0.9 (diagnostics "p2_series_ratio" and "r4_ratio"), or
    when an m5 sum stops unsettled ("p2_series_abort").
    """
    if cfg.pc.scenario != "II":
        raise ParameterError("config is not Scenario II")
    r, p, e, fso, pc = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso, cfg.pc
    require_equal_alpha(r, p)
    at = r.alpha_tilde
    sig = cfg.sigma
    ce = _f_e_norm(e)
    P_o = fso.blockage_p
    w = (pc.psi_q / pc.psi_t) ** at
    big_a = float(gammaincc(p.mu, p.delta * w))  # = Xi5_II = sum Xi1_II

    def fso_bracket(term_plain, term_mix):
        return P_o * ce * term_plain + (1.0 - P_o) * fso.K * ce * term_mix

    # P2 piece: the quadruple series, after a cheap asymptotic-growth
    # pre-check on the elementary family
    z5 = _p2_ratio(r, p, pc, sig)
    r4_at = functools.cache(lambda k: r4_term(cfg, k))
    ratios = {"p2_series_ratio": z5}
    if z5 < _P2_MAX_RATIO:
        ratios["r4_ratio"] = float(z5 * p.mu * r4_at(1) / max(r4_at(0), 1e-300))
    if z5 >= _P2_MAX_RATIO or ratios["r4_ratio"] >= 0.9:
        shown = ", ".join(f"{k} {v:.3f}" for k, v in ratios.items())
        raise ConvergenceError(
            f"P2 series cannot truncate: {shown} (limits {_P2_MAX_RATIO} "
            "and 0.9)", diagnostics=ratios)

    def bracket(k):
        r8_mix = sum(fso.varsigma(m_o) * r8_term(cfg, k, m_o)
                     for m_o in range(1, fso.beta_o + 1))
        return fso_bracket(r4_at(k), r8_mix)

    p2, info = _p2_series(r, p, pc, sig, bracket)
    if p2 is None:
        raise ConvergenceError(
            f"P2 m5 sum stopped at {info['abort']}",
            diagnostics={**ratios, "p2_series_abort": info["abort"]})
    diags = {"route": "closed"}
    diags.update((f"p2_terms[{m_r},{m3},{m4}]", n5)
                 for (m_r, m3, m4), n5 in info["terms"].items())

    # constant piece: 1 * F_fso* expectation
    r5_mix = sum(fso.varsigma(m_o) * r5_term(cfg, m_o)
                 for m_o in range(1, fso.beta_o + 1))
    total = P_o + (1.0 - P_o) * fso.K * ce * r5_mix

    # lambda1 tail piece (finite)
    for m_r in range(r.mu):
        b_mr = r.delta ** m_r * pc.psi_t ** (-at * m_r) / _gamma(m_r + 1.0)
        r6_mix = sum(fso.varsigma(m_o) * r6_term(cfg, m_r, m_o)
                     for m_o in range(1, fso.beta_o + 1))
        total -= (1.0 - big_a) * b_mr * sig ** (at * m_r) * \
            fso_bracket(r2_term(cfg, m_r), r6_mix)
    total -= p2
    return SecrecyResult(_clamp_unit(total, "SOP_L^II"), "SOP_L", "II", diags)


def sop_lower(cfg):
    """Secrecy-outage lower bound: one expectation of the hybrid CDF over
    the eavesdropper SNR, for either scenario."""
    scen = cfg.pc.scenario
    equal = _equal_stretch(cfg.rf_sr.alpha_tilde, cfg.rf_sp.alpha_tilde)
    route = "expectation" if equal else "quadrature"
    val = sop_lower_quadrature(cfg)
    return SecrecyResult(_clamp_unit(val, f"SOP_L^{scen}"), "SOP_L", scen,
                         {"route": route})


def spsc(cfg):
    """Probability of strictly positive secrecy capacity: the zero-rate
    complement of the outage bound, reusing the same code path."""
    base = sop_lower(cfg.with_target_rate(0.0))
    diags = dict(base.diagnostics)
    return SecrecyResult(1.0 - base.value, "SPSC", cfg.pc.scenario, diags)


def est(cfg):
    """Effective secrecy throughput: rate times outage-free probability."""
    base = sop_lower(cfg)
    diags = dict(base.diagnostics)
    value = cfg.target_rate * (1.0 - base.value)
    if value < 0 or value > cfg.target_rate:
        raise NumericalIntegrityError(f"EST {value} outside [0, {cfg.target_rate}]")
    return SecrecyResult(value, "EST", cfg.pc.scenario, diags)

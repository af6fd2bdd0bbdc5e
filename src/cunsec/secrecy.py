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
R-terms and the P2 terms for Scenario II); each family member has a
Mellin-Barnes closed form.  They require alpha_sr == alpha_sp (Scenario II
also alpha_se == alpha_sr) and serve as the checked reproduction of the
paper, off the metric path.  The paper expands the I3/I4 and P2 factors
(1 + z x^a~)^-n binomially in x; over x in (0, inf) that expansion is only
asymptotic, so each such term is instead one exact Mellin convolution
(_kernel_moment), and an assembly returns its closed value (route "closed")
with an error bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb

import numpy as np
from scipy.special import gamma as _gamma, gammaincc

from .channels import FsoLinkParams, MalagaCdfEvaluator, RfChannelParams
from .cun_cdf import (PowerConstraints, _equal_stretch, _expect,
                      _scenario1_coeff, cdf_rf, require_equal_alpha)
from . import specfun
from .errors import (NumericalIntegrityError, ParameterError,
                     UnsupportedParametersError)
from .specfun import BivariateFoxHSpec, FoxHSpec, fox_h, fox_h_bivariate

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

def _exp_weighted_moment(power, weight, at):
    """int_0^inf x^power exp(-weight x^at) dx."""
    a = (power + 1.0) / at
    return _gamma(a) * weight ** (-a) / at


def exp_moment(e, power):
    """int_0^inf x^power exp(-delta_e x^at_e) dx."""
    return _exp_weighted_moment(power, e.delta, e.alpha_tilde)


def exp_pair_moment(e, power, coeff, at_r):
    """int_0^inf x^power exp(-coeff x^at_r) exp(-delta_e x^at_e) dx.

    Elementary when the two stretch exponents match, univariate Fox H
    otherwise.
    """
    c0 = power + 1.0
    at_e = e.alpha_tilde
    if _equal_stretch(at_r, at_e):
        return _exp_weighted_moment(power, coeff + e.delta, at_e)
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


def _kernel_moment(cfg, power, weight, z, n, m_o):
    """int_0^inf x^power exp(-weight x^at_e) (1 + z x^at_r)^-n
    [G_cdfkernel(V sigma x / mu_s)] dx, with no G factor when m_o is None
    (at_r of S-R, at_e of S-E).

    (1 + y)^-n = H^{1,1}_{1,1}[y | (1 - n, 1); (0, 1)] / Gamma(n), so for
    n >= 1 the integral is a Mellin convolution: without G the univariate
    H^{1,2}_{2,1}, with G the bivariate H of g_exp_pair_moment with this
    kernel in place of e^-y.  Both are exact for every z > 0, where the
    binomial expansion of (1 + z x^at_r)^-n in x is only asymptotic.
    """
    e, fso = cfg.rf_se, cfg.fso
    at_e, at_r = e.alpha_tilde, cfg.rf_sr.alpha_tilde
    c_arg = fso.V * cfg.sigma / fso.mu_s
    if n == 0:
        if m_o is None:
            return _exp_weighted_moment(power, weight, at_e)
        return _g_weighted_moment(fso, m_o, power, weight, at_e, c_arg)
    c0 = power + 1.0
    joint = (1.0 - c0 / at_e, at_r / at_e)
    kernel = FoxHSpec(m=1, n=1, upper=((1.0 - n, 1.0),), lower=((0.0, 1.0),))
    z1 = z * weight ** (-at_r / at_e)
    pre = weight ** (-c0 / at_e) / (at_e * _gamma(n))
    if m_o is None:
        spec = FoxHSpec(m=1, n=2, upper=(joint,) + kernel.upper,
                        lower=kernel.lower)
        return pre * fox_h(spec, z1)
    spec = BivariateFoxHSpec(joint=(joint + (1.0 / at_e,),), kernel1=kernel,
                             kernel2=fso.cdf_kernel_spec(m_o).as_fox_h())
    return pre * fox_h_bivariate(spec, z1, c_arg * weight ** (-1.0 / at_e))


# --------------------------------------------------------------------------
# Scenario I term families
# --------------------------------------------------------------------------

def im1_term(e):
    """Plain eavesdropper exponential moment (normalises the density)."""
    return exp_moment(e, e.theta)


def im2_term(cfg, m_o):
    return g_exp_moment(cfg, m_o, cfg.rf_se.theta)


def _im34_term(cfg, m_r, m_o):
    """I3 (m_o None) / I4 term int x^(theta_e + at*m_r) e^(-d_e x^at_e)
    (xi1 s^at x^at + d_p)^-xi2 [G(V s x / mu_s)] dx, xi2 = m_r + mu_p, as
    d_p^-xi2 times the kernel moment at z = xi1 s^at / d_p; with its route,
    which is always "closed"."""
    r, p, e = cfg.rf_sr, cfg.rf_sp, cfg.rf_se
    at = r.alpha_tilde
    xi2 = m_r + p.mu
    zr = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at / p.delta
    val = _kernel_moment(cfg, e.theta + at * m_r, e.delta, zr, xi2, m_o)
    return p.delta ** (-xi2) * val, "closed"


def im3_term(cfg, m_r):
    return _im34_term(cfg, m_r, None)


def im4_term(cfg, m_r, m_o):
    return _im34_term(cfg, m_r, m_o)


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
    """The paper's R4: r2's kernel at the combined power k = m_r + m4 + m5
    of its P2 quadruple series (the assembly sums exact P2 terms instead)."""
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

def _closed_result(pieces, scen):
    """An assembly's value, the sum of its pieces, each computed to relative
    tolerance specfun._REL_TOL: diagnostics["error_bound"] is that tolerance
    times the sum of their magnitudes, so where the pieces cancel to a value
    below it, no digit of the value is certified."""
    bound = specfun._REL_TOL * sum(abs(x) for x in pieces)
    return SecrecyResult(_clamp_unit(sum(pieces), f"SOP_L^{scen}"), "SOP_L",
                         scen, {"route": "closed", "error_bound": bound})


def sop_lower_scenario1(cfg):
    """Secrecy-outage lower bound for the interference-only constraint: the
    paper's closed assembly of the I-terms (alpha_sr == alpha_sp only).

    Its pieces are P_o, the I2 part and one I3/I4 bracket per m_r
    (_closed_result).
    """
    if cfg.pc.scenario != "I":
        raise ParameterError("config is not Scenario I")
    r, p, e, fso = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso
    require_equal_alpha(r, p)
    at = r.alpha_tilde
    ce = _f_e_norm(e)
    P_o = fso.blockage_p
    m_os = range(1, fso.beta_o + 1)
    pieces = [P_o, (1.0 - P_o) * fso.K * ce * sum(
        fso.varsigma(m_o) * im2_term(cfg, m_o) for m_o in m_os)]
    for m_r in range(r.mu):
        d_mr = _scenario1_coeff(r, p, m_r) * cfg.pc.psi_q ** (-at * m_r)
        fso_part = sum(fso.varsigma(m_o) * im4_term(cfg, m_r, m_o)[0]
                       for m_o in m_os)
        pieces.append(-ce * d_mr * cfg.sigma ** (at * m_r) * (
            P_o * im3_term(cfg, m_r)[0] + (1.0 - P_o) * fso.K * fso_part))
    return _closed_result(pieces, "I")


def _p2_coefficients(r, p, c, kappa, big_a):
    """{(m, n): coefficient} of A - lambda2 as a sum of
    coefficient * X^m e^(-c kappa X) (1 + kappa X)^-n, X = (sigma x)^a~.

    With rho = kappa X, Q(mu_r, rho c) = e^(-rho c) sum_{k<mu_r} (rho c)^k/k!
    and Q(j + mu_r, c (1 + rho)) = e^(-c) e^(-rho c) sum_k c^k (1 + rho)^k/k!,
    A - lambda2 is A Q(mu_r, rho c) minus sum_{j<mu_p} sum_{k<j+mu_r}
    C(j + mu_r - 1, j) e^-c c^k/k! rho^mu_r e^(-rho c) (1 + rho)^-(mu_r+j-k)
    (cun_cdf.lambda2); terms of equal (m, n) are added up.
    """
    coef = {(k, 0): big_a * (c * kappa) ** k / _gamma(k + 1.0)
            for k in range(r.mu)}
    for j in range(p.mu):
        for k in range(j + r.mu):
            key = (r.mu, r.mu + j - k)
            coef[key] = coef.get(key, 0.0) - comb(j + r.mu - 1, j) \
                * np.exp(-c) * c ** k / _gamma(k + 1.0) * kappa ** r.mu
    return coef


def sop_lower_scenario2(cfg):
    """Secrecy-outage lower bound for the double power constraint: the
    paper's closed assembly (alpha_sr == alpha_sp == alpha_se only).

    With A = Q(mu_p, c), c = d_p (psi_q / psi_t)^a~, the RF CDF is
    1 - ((1 - A) - lambda1) - (A - lambda2).  The pieces are E[F_fso*]
    (R5), one R2/R6 bracket per m_r for the lambda1 part, and the P2 part
    E[(A - lambda2) F_fso*], one kernel moment per term of
    _p2_coefficients (_closed_result).  With alpha_se != alpha_sr a P2 term
    with the optical kernel would be a trivariate Fox H, so that raises
    UnsupportedParametersError before any Fox H call.
    """
    if cfg.pc.scenario != "II":
        raise ParameterError("config is not Scenario II")
    r, p, e, fso, pc = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso, cfg.pc
    require_equal_alpha(r, p)
    if not _equal_stretch(r.alpha_tilde, e.alpha_tilde):
        raise UnsupportedParametersError(
            "the Scenario II closed assembly requires alpha_se == alpha_sr "
            f"(got {e.alpha} and {r.alpha})")
    at = r.alpha_tilde
    sig = cfg.sigma
    ce = _f_e_norm(e)
    P_o = fso.blockage_p
    m_os = range(1, fso.beta_o + 1)
    c = p.delta * (pc.psi_q / pc.psi_t) ** at
    big_a = float(gammaincc(p.mu, c))

    def fso_bracket(term_plain, term_mix):
        return P_o * ce * term_plain + (1.0 - P_o) * fso.K * ce * term_mix

    # constant piece: 1 * F_fso* expectation
    pieces = [P_o, (1.0 - P_o) * fso.K * ce * sum(
        fso.varsigma(m_o) * r5_term(cfg, m_o) for m_o in m_os)]

    # lambda1 tail piece
    for m_r in range(r.mu):
        b_mr = r.delta ** m_r * pc.psi_t ** (-at * m_r) / _gamma(m_r + 1.0)
        r6_mix = sum(fso.varsigma(m_o) * r6_term(cfg, m_r, m_o) for m_o in m_os)
        pieces.append(-(1.0 - big_a) * b_mr * sig ** (at * m_r)
                      * fso_bracket(r2_term(cfg, m_r), r6_mix))

    # P2 piece
    kappa = r.delta / (p.delta * pc.psi_q ** at)
    weight, z = e.delta + c * kappa * sig ** at, kappa * sig ** at
    for (m, n), coef in _p2_coefficients(r, p, c, kappa, big_a).items():
        power = e.theta + at * m
        mix = sum(fso.varsigma(m_o) * _kernel_moment(cfg, power, weight, z, n, m_o)
                  for m_o in m_os)
        pieces.append(-coef * sig ** (at * m) * fso_bracket(
            _kernel_moment(cfg, power, weight, z, n, None), mix))
    return _closed_result(pieces, "II")


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

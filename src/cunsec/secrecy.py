"""Secrecy metrics: outage lower bound, positive-capacity probability, and
effective throughput for both power-constraint scenarios.

Every metric is one expectation of the hybrid-link CDF at sigma * snr_e over
the eavesdropper density, and that is how sop_lower, spsc and est evaluate
it: sop_lower_quadrature integrates cun_cdf.cdf_rf times the blocked-FSO CDF
over the eavesdropper SNR (cun_cdf._expect), with no series to try and
discard.  Its route is "expectation" when alpha_sr == alpha_sp (the RF CDF is
closed form) and "quadrature" otherwise (the RF CDF is itself an
expectation).

The paper's closed assembly, sop_lower_closed, expands the same
expectation into integral terms for both scenarios: Scenario I is Scenario
II with psi_t = inf.  It requires alpha_sr == alpha_sp, and also
alpha_se == alpha_sr where the transmit cap binds (c > 0 below).  It
serves as the checked reproduction of the paper, off the metric path.
Every term is one exact Mellin-Barnes integral, _kernel_moment:
int x^p e^(-w x^at_e) k(z x^at_r) [G(c x)] dx with k = 1 (z = 0) or one
of three Fox H kernels: e^-y (the R2/R6 kernel), (1 + y)^-n (the I3/I4
kernel) and the regularized gamma P(mu, y).  The paper-named terms
(im1_term ... r8_term) and the moments exp_pair_moment, g_exp_moment and
g_exp_pair_moment are one call of it each.  The assembly writes the RF CDF
as cun_cdf does, a sum of non-negative terms: two P(mu_r, .) terms and the
positive (1 + y)^-n terms of lambda2 (_lambda2_terms), with
c = d_p (psi_q / psi_t)^a~.  At c = 0 (Scenario I) both P terms vanish and
the rest is the negative-binomial form of I_p(mu_r, mu_p) for integer
mu_p.  Each term is (coef, power, weight, z, kernel), every coef positive,
and _assemble adds one P_o / G bracket per term; it returns the closed
value (route "closed") with an error bound relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import comb

import numpy as np
from scipy.special import gamma as _gamma, gammainc, gammaincc

from .channels import (FsoLinkParams, MalagaCdfEvaluator, RfChannelParams,
                       _alpha_mu_norm, _require_positive_finite)
from .cun_cdf import (PowerConstraints, _equal_stretch, _expect, cdf_rf,
                      require_equal_alpha)
from . import specfun
from .errors import (NumericalIntegrityError, ParameterError,
                     UnsupportedParametersError)
# _kernel_moment looks fox_h and fox_h_bivariate up in this module at each
# call, so that patching them here (tests, the benchmark tracer) reaches it
from .specfun import BivariateFoxHSpec, FoxHSpec, fox_h, fox_h_bivariate

__all__ = [
    "SecrecyConfig",
    "SecrecyResult",
    "sop_lower_closed",
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
        # 2^target_rate overflows from 1024 bit/s/Hz on
        _require_positive_finite(self, "sigma")

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


# --------------------------------------------------------------------------
# closed-form building blocks
# --------------------------------------------------------------------------

def _exp_weighted_moment(power, weight, at):
    """int_0^inf x^power exp(-weight x^at) dx."""
    a = (power + 1.0) / at
    return _gamma(a) * weight ** (-a) / at


# The Fox H kernels k(y) of _kernel_moment, each a spec and its normaliser:
# e^-y = H^{1,0}_{0,1}[y | -; (0, 1)], (1 + y)^-n =
# H^{1,1}_{1,1}[y | (1 - n, 1); (0, 1)] / Gamma(n), and the regularized gamma
# P(mu, y) = H^{1,1}_{1,2}[y | (1, 1); (mu, 1), (0, 1)] / Gamma(mu).
_EXP_KERNEL = (FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),)), 1.0)


def _binomial_kernel(n):
    return (FoxHSpec(m=1, n=1, upper=((1.0 - n, 1.0),), lower=((0.0, 1.0),)),
            _gamma(n))


def _gamma_p_kernel(mu):
    return (FoxHSpec(m=1, n=1, upper=((1.0, 1.0),),
                     lower=((mu, 1.0), (0.0, 1.0))), _gamma(mu))


def _kernel_moment(cfg, power, weight, optical=None, z=0.0,
                   kernel=_EXP_KERNEL):
    """int_0^inf x^power exp(-weight x^at_e) k(z x^at_r) [G(V sigma x / mu_s)]
    dx, the one integral behind every I- and R-term and every assembly term
    (at_r of S-R, at_e of S-E; optical is G's integrand, a FsoLinkParams
    kernel or mixture spec, and there is no G factor when it is None).

    k is one of the Fox H kernels above, given as (spec, norm); where
    at_r == at_e, e^-y merges into the weight.  At z = 0, k(0) = 1 is
    assumed (true of e^-y and (1 + y)^-n; P(mu, 0) = 0, so such a term is
    dropped by its caller): the integral is the exponential moment, or with
    G the next case with G as k at slope 1 and norm 1.  Otherwise it is one
    exact Mellin convolution (the binomial expansion of (1 + z x^at_r)^-n in
    x is only asymptotic): without G the univariate H of k's integrand
    times Gamma((c0 + at_r t)/at_e), c0 = power + 1, which is k's spec with
    one more n-group pair, and with G the bivariate H with joint triple
    (1 - c0/at_e, at_r/at_e, 1/at_e).
    """
    at_e, at_r = cfg.rf_se.alpha_tilde, cfg.rf_sr.alpha_tilde
    c0 = power + 1.0
    c_arg = cfg.fso.V * cfg.sigma / cfg.fso.mu_s
    if kernel is _EXP_KERNEL and _equal_stretch(at_r, at_e):
        weight, z = weight + z, 0.0
    joint = (1.0 - c0 / at_e, at_r / at_e)
    if z == 0:
        if optical is None:
            return _exp_weighted_moment(power, weight, at_e)
        spec = replace(optical, gammas=((joint[0], 1.0 / at_e),))
        return (weight ** (-c0 / at_e) / at_e
                * fox_h(spec, c_arg * weight ** (-1.0 / at_e)))
    k, norm = kernel
    z1 = z * weight ** (-at_r / at_e)
    pre = weight ** (-c0 / at_e) / (at_e * norm)
    if optical is None:
        return pre * fox_h(FoxHSpec(k.m, k.n + 1, (joint,) + k.upper, k.lower),
                           z1)
    spec = BivariateFoxHSpec(joint=(joint + (1.0 / at_e,),), kernel1=k,
                             kernel2=optical)
    return pre * fox_h_bivariate(spec, z1, c_arg * weight ** (-1.0 / at_e))


def exp_pair_moment(cfg, power, coeff):
    """int_0^inf x^power exp(-coeff x^at_r) exp(-delta_e x^at_e) dx."""
    return _kernel_moment(cfg, power, cfg.rf_se.delta, z=coeff)


def g_exp_moment(cfg, m_o, power):
    """int_0^inf x^power exp(-delta_e x^at_e) G_m_o(V sigma x / mu_s) dx."""
    return _kernel_moment(cfg, power, cfg.rf_se.delta,
                          cfg.fso.cdf_kernel_spec(m_o))


def g_exp_pair_moment(cfg, m_o, power, coeff):
    """int_0^inf x^power exp(-coeff x^at_r) exp(-delta_e x^at_e)
    G_m_o(V sigma x / mu_s) dx."""
    return _kernel_moment(cfg, power, cfg.rf_se.delta,
                          cfg.fso.cdf_kernel_spec(m_o), coeff)


# --------------------------------------------------------------------------
# Scenario I term families
# --------------------------------------------------------------------------

def im1_term(e):
    """Plain eavesdropper exponential moment (normalises the density)."""
    return _exp_weighted_moment(e.theta, e.delta, e.alpha_tilde)


def im2_term(cfg, m_o):
    return g_exp_moment(cfg, m_o, cfg.rf_se.theta)


def _zr(cfg):
    """z of the I3/I4 kernel, xi1 s^at / d_p: rho = z x^at in both RF CDFs
    (kappa s^at in Scenario II)."""
    r = cfg.rf_sr
    at = r.alpha_tilde
    return r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at / cfg.rf_sp.delta


def _im34_term(cfg, m_r, optical):
    """I3 (optical None) / I4 term int x^(theta_e + at*m_r) e^(-d_e x^at_e)
    (xi1 s^at x^at + d_p)^-xi2 [G(V s x / mu_s)] dx, xi2 = m_r + mu_p, as
    d_p^-xi2 times the kernel moment at z = _zr; with its route, which is
    always "closed"."""
    p, e = cfg.rf_sp, cfg.rf_se
    xi2 = m_r + p.mu
    val = _kernel_moment(cfg, e.theta + cfg.rf_sr.alpha_tilde * m_r, e.delta,
                         optical, _zr(cfg), _binomial_kernel(xi2))
    return p.delta ** (-xi2) * val, "closed"


def im3_term(cfg, m_r):
    return _im34_term(cfg, m_r, None)


def im4_term(cfg, m_r, m_o):
    return _im34_term(cfg, m_r, cfg.fso.cdf_kernel_spec(m_o))


# --------------------------------------------------------------------------
# Scenario II term families
# --------------------------------------------------------------------------

def _xi10(cfg):
    r = cfg.rf_sr
    return r.delta * cfg.pc.psi_t ** (-r.alpha_tilde) * cfg.sigma ** r.alpha_tilde


def r1_term(cfg):
    return im1_term(cfg.rf_se)


def r2_term(cfg, m_r):
    return exp_pair_moment(cfg, cfg.rf_se.theta + cfg.rf_sr.alpha_tilde * m_r,
                           _xi10(cfg))


def r4_term(cfg, k):
    """The paper's R4: r2's kernel at the combined power k = m_r + m4 + m5
    of its P2 quadruple series (the assembly sums the non-negative terms of
    lambda2 instead)."""
    return r2_term(cfg, k)


def r5_term(cfg, m_o):
    return g_exp_moment(cfg, m_o, cfg.rf_se.theta)


def r6_term(cfg, m_r, m_o):
    return g_exp_pair_moment(cfg, m_o,
                             cfg.rf_se.theta + cfg.rf_sr.alpha_tilde * m_r,
                             _xi10(cfg))


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

def _assemble(cfg, terms):
    """SOP_L as the sum of the paper's closed pieces, each computed to
    relative tolerance specfun._REL_TOL.

    For each RF term (coef, power, weight, z, kernel) the piece is
    coef E[k-term F_fso*] = coef c_e (P_o M + (1 - P_o) K M_mix), M the
    _kernel_moment without G and M_mix with the whole optical mixture (one
    optical Fox H).  Every coef, and so every piece, is non-negative, and
    diagnostics["error_bound"], the tolerance times the sum of the pieces'
    magnitudes, is the tolerance relative to the value.
    """
    fso, P_o, ce = cfg.fso, cfg.fso.blockage_p, _alpha_mu_norm(cfg.rf_se)
    optical, pieces = fso.cdf_mixture_spec(), []
    for coef, power, weight, z, kernel in terms:
        plain, mix = (_kernel_moment(cfg, power, weight, g, z, kernel)
                      for g in (None, optical))
        pieces.append(coef * (P_o * ce * plain + (1.0 - P_o) * fso.K * ce * mix))
    bound = specfun._REL_TOL * sum(abs(x) for x in pieces)
    scen = cfg.pc.scenario
    return SecrecyResult(_clamp_unit(sum(pieces), f"SOP_L^{scen}"), "SOP_L",
                         scen, {"route": "closed", "error_bound": bound})


def _lambda2_terms(cfg, c):
    """The (1 + y)^-n terms of cun_cdf.lambda2, c = d_p (psi_q / psi_t)^a~
    and rho = z x^a~ (_zr): from Q(j + mu_r, c (1 + rho)) = e^(-c)
    e^(-rho c) sum_{k<j+mu_r} c^k (1 + rho)^k / k!, the terms
    sum_{j<mu_p} sum_{k<j+mu_r} C(j + mu_r - 1, j) e^-c c^k/k! rho^mu_r
    e^(-rho c) (1 + rho)^-(mu_r+j-k), added up per n = mu_r + j - k, with
    the zero coefficients dropped.  At c = 0 (psi_t -> inf) only k = 0 is
    left: n = mu_r ... mu_r + mu_p - 1, in order."""
    r, p, e = cfg.rf_sr, cfg.rf_sp, cfg.rf_se
    z = _zr(cfg)
    coef = {}
    for j in range(p.mu):
        for k in range(j + r.mu):
            coef[r.mu + j - k] = coef.get(r.mu + j - k, 0.0) + comb(
                j + r.mu - 1, j) * np.exp(-c) * c ** k / _gamma(k + 1.0)
    return [(cn * z ** r.mu, e.theta + r.alpha_tilde * r.mu, e.delta + c * z,
             z, _binomial_kernel(n))
            for n, cn in coef.items() if cn != 0]


def sop_lower_closed(cfg):
    """Secrecy-outage lower bound: the paper's closed assembly, for either
    scenario (alpha_sr == alpha_sp only).

    With A = Q(mu_p, c), c = d_p (psi_q / psi_t)^a~, and rho = z x^a~
    (_zr), the RF CDF is lambda1 + lambda2 in the non-negative form of
    cun_cdf.lambda2: lambda1 = (1 - A) P(mu_r, xi10 x^a~), then
    A P(mu_r, rho c), then the (1 + y)^-n terms of _lambda2_terms
    (_assemble).  Scenario I is psi_t = inf: c = xi10 = 0, both P terms
    drop, and the rest is the negative-binomial form of
    I_{rho/(1+rho)}(mu_r, mu_p), one I3/I4 kernel term per j.  Where c > 0,
    _lambda2_terms merges e^(-c rho) into the x^at_e weight, so with
    alpha_se != alpha_sr such a term with the optical kernel would be a
    trivariate Fox H; that raises UnsupportedParametersError before any
    Fox H call.
    """
    r, p, e, pc = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.pc
    require_equal_alpha(r, p)
    c = p.delta * (pc.psi_q / pc.psi_t) ** r.alpha_tilde
    if c > 0 and not _equal_stretch(r.alpha_tilde, e.alpha_tilde):
        raise UnsupportedParametersError(
            "the closed assembly with a transmit cap requires "
            f"alpha_se == alpha_sr (got {e.alpha} and {r.alpha})")
    # P(mu_r, 0) = 0: a term whose z is 0 (c = 0, or z underflows) adds
    # nothing
    terms = [(coef, e.theta, e.delta, z, _gamma_p_kernel(r.mu))
             for coef, z in ((float(gammainc(p.mu, c)), _xi10(cfg)),
                             (float(gammaincc(p.mu, c)), c * _zr(cfg)))
             if z != 0]
    return _assemble(cfg, terms + _lambda2_terms(cfg, c))


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

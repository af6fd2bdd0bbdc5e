"""End-to-end SNR CDFs of the underlay hybrid link.

Scenario I: the secondary transmitter is limited only by the interference
ceiling at the primary user, so the RF SNR is psi_q * x_r / x_p.  Scenario II
adds a transmit-power cap, making it min(psi_q / x_p, psi_t) * x_r.  Hybrid
CDFs multiply the RF CDF with the blocked-FSO CDF (selection combining).

The Scenario II tail piece (lambda2) exists in two algebraically
equivalent forms: an exact finite expression built on the upper incomplete
gamma, and the quadruple series obtained by binomially expanding it (the
form the outage assembly integrates term by term).  The series only
converges for snr < psi_q * (phi_r / phi_p); outside that region the exact
form is used.  The series coefficients here were derived from scratch and
settled against the defining-integral quadrature oracle: the
gamma-dependent exponential carries delta_r * psi_t^-a~ and the m4 index
contributes psi_q^-a~ m4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as _icomb

import numpy as np
from scipy.integrate import quad
from scipy.special import binom, gamma as _gamma, gammaincc, gammaincinv

from .channels import alpha_mu_cdf, db_to_linear, fso_blocked_cdf
from .errors import ParameterError, UnsupportedParametersError
from .specfun import DEFAULT_POLICY

__all__ = [
    "PowerConstraints",
    "SeriesPolicy",
    "require_equal_alpha",
    "cdf_rf_scenario1",
    "cdf_hybrid_scenario1",
    "lambda1",
    "lambda2",
    "lambda2_exact",
    "cdf_rf_scenario2",
    "cdf_hybrid_scenario2",
]


@dataclass(frozen=True)
class PowerConstraints:
    """Interference ceiling psi_q (both scenarios) and transmit cap psi_t
    (Scenario II only), in dB over the receiver noise power."""

    psi_q_db: float
    psi_t_db: float | None = None
    scenario: str = "I"

    def __post_init__(self):
        if not np.isfinite(self.psi_q_db):
            raise ParameterError("psi_q_db must be finite")
        scen = str(self.scenario).upper()
        if scen in ("1", "I"):
            scen = "I"
        elif scen in ("2", "II"):
            scen = "II"
        else:
            raise ParameterError(f"scenario must be I or II, got {self.scenario!r}")
        object.__setattr__(self, "scenario", scen)
        if scen == "II" and self.psi_t_db is None:
            raise ParameterError("scenario II requires psi_t_db")
        if self.psi_t_db is not None and not np.isfinite(self.psi_t_db):
            raise ParameterError("psi_t_db must be finite")

    @property
    def psi_q(self):
        return float(db_to_linear(self.psi_q_db))

    @property
    def psi_t(self):
        if self.psi_t_db is None:
            raise ParameterError("psi_t_db not set")
        return float(db_to_linear(self.psi_t_db))


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the infinite series (m2 and m5 expansions)."""

    rel_tol: float = 1e-8
    max_terms: int = 200

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ParameterError("rel_tol must be in (0, 1)")
        if self.max_terms < 10:
            raise ParameterError("max_terms must be >= 10")


DEFAULT_SERIES = SeriesPolicy()


def require_equal_alpha(rf_sr, rf_sp):
    """The Scenario closed forms assume equal alpha/2 on the S-R and S-P links."""
    if abs(rf_sr.alpha_tilde - rf_sp.alpha_tilde) > 1e-12:
        raise UnsupportedParametersError(
            "closed forms require alpha_sr == alpha_sp "
            f"(got {rf_sr.alpha} and {rf_sp.alpha}); "
            "use the quadrature route for mixed non-linearities"
        )


# --------------------------------------------------------------------------
# Scenario I
# --------------------------------------------------------------------------

def cdf_rf_scenario1(rf_sr, rf_sp, pc, snr):
    """Closed-form CDF of psi_q * x_r / x_p."""
    require_equal_alpha(rf_sr, rf_sp)
    x = float(snr)
    if x < 0:
        raise ParameterError("snr must be >= 0")
    return float(min(max(1.0 - _scenario1_tail(rf_sr, rf_sp, pc, x), 0.0), 1.0))


def _scenario1_tail(rf_sr, rf_sp, pc, x):
    """1 - cdf_rf_scenario1 before clamping: the finite sum over m_r."""
    at = rf_sr.alpha_tilde
    psi_q = pc.psi_q
    xi1 = rf_sr.delta * psi_q ** (-at)
    tot = 0.0
    for m_r in range(rf_sr.mu):
        xi2 = m_r + rf_sp.mu
        tot += _gamma(xi2) / (_gamma(rf_sp.mu) * _gamma(m_r + 1.0)) \
            * rf_sr.delta ** m_r * rf_sp.delta ** rf_sp.mu \
            * (x / psi_q) ** (at * m_r) \
            * (xi1 * x ** at + rf_sp.delta) ** (-xi2)
    return tot


def _inv_cdf(ch, u):
    """alpha-mu SNR quantile: the inverse of alpha_mu_cdf."""
    return (gammaincinv(ch.mu, u) / ch.delta) ** (1.0 / ch.alpha_tilde)


def _expect(ch, f, u0=0.0):
    """int_{u0}^1 f(F_ch^-1(u)) du: the expectation of f over the alpha-mu
    SNR of ch, restricted to draws above its u0 quantile and integrated in
    probability space.  Every quadrature fallback runs through here."""
    val, _ = quad(lambda u: f(_inv_cdf(ch, u)), u0, 1.0, limit=300)
    return val


def cdf_rf_scenario1_quad(rf_sr, rf_sp, pc, snr):
    """Defining-integral route, valid for any non-linearity pair."""
    x = float(snr)
    if x == 0.0:
        return 0.0
    val = _expect(rf_sp, lambda y: alpha_mu_cdf(rf_sr, x * y / pc.psi_q))
    return float(min(max(val, 0.0), 1.0))


def cdf_hybrid_scenario1(cfg, snr, policy=DEFAULT_POLICY):
    """Selection-combining CDF: RF factor times blocked-FSO factor."""
    rf = cdf_rf_scenario1(cfg.rf_sr, cfg.rf_sp, cfg.pc, snr)
    return rf * fso_blocked_cdf(cfg.fso, snr, policy)


# --------------------------------------------------------------------------
# Scenario II
# --------------------------------------------------------------------------

def lambda1(rf_sr, rf_sp, pc, snr):
    """Pr{x_r <= snr/psi_t, psi_q/x_p >= psi_t}: expanded finite-sum form."""
    x = float(snr)
    if x < 0:
        raise ParameterError("snr must be >= 0")
    at_r = rf_sr.alpha_tilde
    at_p = rf_sp.alpha_tilde
    psi_q, psi_t = pc.psi_q, pc.psi_t
    up = rf_sp.delta * (psi_q / psi_t) ** at_p
    ur = rf_sr.delta * psi_t ** (-at_r) * x ** at_r
    s1 = s2 = s3 = 0.0
    tp = 1.0
    for m_p in range(rf_sp.mu):
        if m_p:
            tp = tp * up / m_p
        s1 += tp * np.exp(-up)
        tr = 1.0
        for m_r in range(rf_sr.mu):
            if m_r:
                tr = tr * ur / m_r
            s3 += tp * tr * np.exp(-(up + ur))
    tr = 1.0
    for m_r in range(rf_sr.mu):
        if m_r:
            tr = tr * ur / m_r
        s2 += tr * np.exp(-ur)
    return float(min(max(1.0 - s1 - s2 + s3, 0.0), 1.0))


def lambda2_exact(rf_sr, rf_sp, pc, snr):
    """Pr{x_r/x_p <= snr/psi_q, psi_q/x_p <= psi_t} via the upper incomplete
    gamma (valid everywhere; requires equal alpha/2)."""
    require_equal_alpha(rf_sr, rf_sp)
    x = float(snr)
    if x < 0:
        raise ParameterError("snr must be >= 0")
    w = (pc.psi_q / pc.psi_t) ** rf_sr.alpha_tilde
    p1 = float(gammaincc(rf_sp.mu, rf_sp.delta * w))
    return p1 - _lambda2_tail(rf_sr, rf_sp, pc, x)


def _lambda2_tail(rf_sr, rf_sp, pc, x):
    """The snr-dependent piece of lambda2_exact, lambda2 = P1 - tail, with
    P1 = Pr{psi_q/x_p <= psi_t}."""
    at = rf_sr.alpha_tilde
    psi_q, psi_t = pc.psi_q, pc.psi_t
    w = (psi_q / psi_t) ** at
    c = rf_sp.delta + rf_sr.delta * psi_q ** (-at) * x ** at
    tot = 0.0
    for m_r in range(rf_sr.mu):
        om = rf_sp.mu + m_r
        pref = rf_sp.delta ** rf_sp.mu * rf_sr.delta ** m_r \
            / (_gamma(rf_sp.mu) * _gamma(m_r + 1.0)) \
            * psi_q ** (-at * m_r) * x ** (at * m_r)
        tot += pref * float(gammaincc(om, c * w)) * _gamma(om) / c ** om
    return tot


def lambda2_series_radius(rf_sr, rf_sp, pc):
    """SNR below which the series expansion of lambda2 converges."""
    at = rf_sr.alpha_tilde
    return pc.psi_q * (rf_sp.delta / rf_sr.delta) ** (1.0 / at)


def lambda2(rf_sr, rf_sp, pc, snr, sp=DEFAULT_SERIES, on_divergence="exact"):
    """Quadruple-series form of the tail piece, with diagnostics.

    Falls back to the exact incomplete-gamma form outside the series region
    (on_divergence="exact", default) or raises (on_divergence="raise").
    Returns (value, diagnostics).
    """
    require_equal_alpha(rf_sr, rf_sp)
    x = float(snr)
    if x < 0:
        raise ParameterError("snr must be >= 0")
    at = rf_sr.alpha_tilde
    psi_q, psi_t = pc.psi_q, pc.psi_t
    z = rf_sr.delta * psi_q ** (-at) * x ** at / rf_sp.delta

    def _diverged(reason):
        if on_divergence == "raise":
            from .errors import ConvergenceError

            raise ConvergenceError(
                f"lambda2 series did not converge ({reason}); convergent for "
                f"snr < {lambda2_series_radius(rf_sr, rf_sp, pc):.4g}"
            )
        return lambda2_exact(rf_sr, rf_sp, pc, x), {
            "route": "exact", "series_ratio": z, "reason": reason}

    if z >= 0.8:
        return _diverged(f"series ratio {z:.3f} >= 0.8")
    w = (psi_q / psi_t) ** at
    p1 = float(gammaincc(rf_sp.mu, rf_sp.delta * w))
    expf = np.exp(-rf_sp.delta * w - rf_sr.delta * psi_t ** (-at) * x ** at)
    tot = 0.0
    terms_used = 0
    bound = 0.0
    for m_r in range(rf_sr.mu):
        om = rf_sp.mu + m_r
        base = rf_sp.delta ** rf_sp.mu * rf_sr.delta ** m_r \
            / (_gamma(rf_sp.mu) * _gamma(m_r + 1.0)) \
            * psi_q ** (-at * m_r) * x ** (at * m_r) * _gamma(om) \
            * rf_sp.delta ** (-om)
        for m3 in range(om):
            for m4 in range(m3 + 1):
                c34 = _icomb(m3, m4) / _gamma(m3 + 1.0) \
                    * (rf_sp.delta * w) ** (m3 - m4) \
                    * (rf_sr.delta * psi_t ** (-at) * x ** at) ** m4
                s5 = 0.0
                comp = 0.0
                small = 0
                term = 0.0
                for m5 in range(sp.max_terms):
                    term = float(binom(om + m5 - 1, m5)) * (-z) ** m5
                    t = s5 + (term - comp)
                    comp = (t - s5) - (term - comp)
                    s5 = t
                    terms_used += 1
                    if abs(term) <= sp.rel_tol * max(abs(s5), 1e-300):
                        small += 1
                        if small >= 3:
                            break
                    else:
                        small = 0
                if small < 3:
                    return _diverged(
                        f"m5 sum not stable within {sp.max_terms} terms")
                bound = max(bound, abs(term))
                tot += base * c34 * s5
    val = p1 - expf * tot
    return val, {"route": "series", "series_ratio": z, "terms": terms_used,
                 "truncation_bound": bound}


def cdf_rf_scenario2(rf_sr, rf_sp, pc, snr, sp=DEFAULT_SERIES):
    """CDF of min(psi_q/x_p, psi_t) * x_r."""
    l2, _ = lambda2(rf_sr, rf_sp, pc, snr, sp)
    val = lambda1(rf_sr, rf_sp, pc, snr) + l2
    return float(min(max(val, 0.0), 1.0))


def cdf_rf_scenario2_quad(rf_sr, rf_sp, pc, snr):
    """Defining-probability route (lambda1 product + lambda2 quadrature)."""
    x = float(snr)
    if x == 0.0:
        return 0.0
    l1 = alpha_mu_cdf(rf_sp, pc.psi_q / pc.psi_t) * alpha_mu_cdf(rf_sr, x / pc.psi_t)
    u0 = alpha_mu_cdf(rf_sp, pc.psi_q / pc.psi_t)
    l2 = _expect(rf_sp, lambda y: alpha_mu_cdf(rf_sr, x * y / pc.psi_q), u0)
    return float(min(max(l1 + l2, 0.0), 1.0))


def cdf_hybrid_scenario2(cfg, snr, sp=DEFAULT_SERIES, policy=DEFAULT_POLICY):
    """Selection-combining CDF for the double-constraint scenario."""
    rf = cdf_rf_scenario2(cfg.rf_sr, cfg.rf_sp, cfg.pc, snr, sp)
    return rf * fso_blocked_cdf(cfg.fso, snr, policy)


def cdf_rf(cfg, snr, sp=DEFAULT_SERIES):
    """Scenario-dispatching RF CDF (closed forms when in family, else quad)."""
    rf_sr, rf_sp, pc = cfg.rf_sr, cfg.rf_sp, cfg.pc
    equal = abs(rf_sr.alpha_tilde - rf_sp.alpha_tilde) <= 1e-12
    if pc.scenario == "I":
        if equal:
            return cdf_rf_scenario1(rf_sr, rf_sp, pc, snr)
        return cdf_rf_scenario1_quad(rf_sr, rf_sp, pc, snr)
    if equal:
        return cdf_rf_scenario2(rf_sr, rf_sp, pc, snr, sp)
    return cdf_rf_scenario2_quad(rf_sr, rf_sp, pc, snr)


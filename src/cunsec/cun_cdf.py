"""End-to-end SNR CDFs of the underlay hybrid link.

Scenario I: the secondary transmitter is limited only by the interference
ceiling at the primary user, so the RF SNR is psi_q * x_r / x_p.  Scenario II
adds a transmit-power cap, making it min(psi_q / x_p, psi_t) * x_r; Scenario I
is its psi_t = inf limit.  The hybrid CDF (cdf_hybrid) multiplies the RF CDF
of either scenario with the blocked-FSO CDF (selection combining).

Each RF CDF is written without cancellation.  On every alpha-mu link
G = delta x^a~ is Gamma(mu), so with equal alpha on S-R and S-P the
Scenario I CDF is a regularized incomplete beta, lambda1 is the product of
two regularized gammas, and lambda2 is a finite sum of non-negative
regularized-gamma terms; nothing is 1 minus a finite sum.  With
alpha_sr != alpha_sp the CDF of either scenario is lambda1 plus one
expectation over x_p (cdf_rf_quad through _expect), the package's one
quadrature rule, which also takes the secrecy metrics.

The paper writes lambda2 as P1 minus a quadruple series, from binomially
expanding the upper incomplete gamma of the tail; that series converges
only below an SNR radius and cancels where lambda2 is small, so the package
keeps the finite non-negative form under the paper's name.  The closed
outage assembly (secrecy.sop_lower_closed) integrates the same finite form
term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import (betainc, gammainc, gammaincc, gammainccinv,
                           gammaincinv)

from .channels import (_finite_snr, _require_positive_finite, alpha_mu_cdf,
                       db_to_linear, fso_blocked_cdf)
from . import specfun
from .errors import ConvergenceError, ParameterError, UnsupportedParametersError

__all__ = [
    "PowerConstraints",
    "require_equal_alpha",
    "cdf_rf_scenario1",
    "lambda1",
    "lambda2",
    "cdf_rf_scenario2",
    "cdf_hybrid",
]


@dataclass(frozen=True)
class PowerConstraints:
    """Interference ceiling psi_q (both scenarios) and transmit cap psi_t
    (Scenario II only), in dB over the receiver noise power.  Scenario I has
    no cap: psi_t is +inf there, which makes it the uncapped Scenario II."""

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
        _require_positive_finite(self, "psi_q")
        if scen == "II":
            _require_positive_finite(self, "psi_t")

    @property
    def psi_q(self):
        return float(db_to_linear(self.psi_q_db))

    @property
    def psi_t(self):
        if self.scenario == "I":
            return np.inf
        return float(db_to_linear(self.psi_t_db))


def _equal_stretch(at1, at2):
    """True when two stretch exponents alpha/2 agree, so that the RF CDF
    (S-R and S-P) or a moment's two exponentials (S-R and S-E) is closed."""
    return abs(at1 - at2) <= 1e-12


def require_equal_alpha(rf_sr, rf_sp):
    """The Scenario closed forms assume equal alpha/2 on the S-R and S-P links."""
    if not _equal_stretch(rf_sr.alpha_tilde, rf_sp.alpha_tilde):
        raise UnsupportedParametersError(
            "closed forms require alpha_sr == alpha_sp "
            f"(got {rf_sr.alpha} and {rf_sp.alpha}); "
            "use the quadrature route for mixed non-linearities"
        )


def _cdf_out(val, x):
    """val clamped to [0, 1] in the shape of x; a float for scalar x."""
    val = np.clip(val, 0.0, 1.0).reshape(x.shape)
    return val if val.ndim else float(val)


# --------------------------------------------------------------------------
# Scenario I
# --------------------------------------------------------------------------

def _scenario1_rho(rf_sr, rf_sp, pc, x):
    """rho = (d_r / d_p) (x / psi_q)^a~: psi_q x_r / x_p <= x exactly when
    G_r / G_p <= rho, with G = d x^a~ ~ Gamma(mu) on each link."""
    return rf_sr.delta / rf_sp.delta * (x / pc.psi_q) ** rf_sr.alpha_tilde


def cdf_rf_scenario1(rf_sr, rf_sp, pc, snr):
    """CDF of psi_q * x_r / x_p (snr scalar or array): G_r / (G_r + G_p) is
    Beta(mu_r, mu_p), so this is I_{rho/(1+rho)}(mu_r, mu_p), with no
    cancellation at small snr."""
    require_equal_alpha(rf_sr, rf_sp)
    x = _finite_snr(snr)
    rho = _scenario1_rho(rf_sr, rf_sp, pc, x)
    return _cdf_out(betainc(rf_sr.mu, rf_sp.mu, rho / (1.0 + rho)), x)


# Nested tanh-sinh rule on u = u0 + (1 - u0) * (1 + tanh(pi/2 sinh t)) / 2
# (Takahasi & Mori, Publ. RIMS 9, 1974): the trapezoid rule in t with step
# _TS_H0 / 2^k on |t| <= _TS_T.  At _TS_T the nodes lie within 1e-37 of the
# endpoints; halving the step keeps every node, so each level evaluates only
# its new ones and the difference of two levels is the error check.  The
# first _TS_FIRST levels (17 + 16 + 32 nodes) go to the integrand as one
# array: nearly every expectation of the package stops at level 2.
_TS_T = 4.0
_TS_H0 = 0.5
_TS_LEVELS = 8
_TS_FIRST = 3


def _ts_rule(k):
    """(t, w, dh, sum w) of the nodes new at level k (all nodes at level
    0): the abscissas t, the weights h w(t) and the distances dh to the
    nearer endpoint over 1 - u0, which depend only on the level."""
    n = int(_TS_T / _TS_H0) * 2 ** k      # the largest |j|
    h = _TS_H0 / 2 ** k
    t = (np.arange(-n, n + 1) if k == 0 else np.arange(1 - n, n, 2)) * h
    e = np.exp(np.pi * np.sinh(np.abs(t)))
    dh = 1.0 / (1.0 + e)
    w = h * np.pi * np.cosh(t) * dh * (e * dh)
    return t, w, dh, w.sum()


_TS_RULES = [_ts_rule(k) for k in range(_TS_LEVELS + 1)]


def _ts_levels(ch, f, u0, levels):
    """For each level k of levels, in order: h * sum of w(t) f(x(t)) over
    the nodes new at level k (all nodes at level 0), together with
    h * sum w(t) |f(x(t))|, h * sum w(t), and the number of nodes.  f is
    called once, on the nodes of every level in levels; the rule itself
    comes from _TS_RULES, so a call only places the quantiles."""
    rules = [_TS_RULES[k] for k in levels]
    t, dh = (np.concatenate([r[i] for r in rules]) for i in (0, 2))
    d = (1.0 - u0) * dh
    q = np.empty_like(t)
    low = t < 0
    q[low] = gammaincinv(ch.mu, u0 + d[low])
    q[~low] = gammainccinv(ch.mu, d[~low])
    vals = np.asarray(f((q / ch.delta) ** (1.0 / ch.alpha_tilde)), dtype=float)
    vals = np.broadcast_to(vals, vals.shape[:-1] + t.shape if vals.ndim else t.shape)
    out, a = [], 0
    for rt, wk, _, wsum in rules:
        v = vals[..., a:a + len(rt)]
        out.append(((v * wk).sum(-1), (np.abs(v) * wk).sum(-1), wsum,
                    len(rt)))
        a += len(rt)
    return out


def _expect(ch, f, u0=0.0):
    """int_{u0}^1 f(F_ch^-1(u)) du: the expectation of f over the alpha-mu
    SNR of ch, restricted to draws above its u0 quantile and integrated in
    probability space.  Every expectation of the package runs through here.

    f takes a 1-D array of n SNRs and returns an array of shape (..., n)
    (a constant broadcasts); the result has shape (...,).  The rule is the
    nested tanh-sinh rule above.  Each node is placed by its distance d to
    the nearer endpoint (gammaincinv(mu, u0 + d) below the midpoint,
    gammainccinv(mu, d) above it), so no node rounds to u = 1.  Dividing by
    the rule's own integral of 1 makes it exact for constants.  Returns once
    two successive levels pass the contours' stop test (specfun._settled:
    within max(_REL_TOL |value|, 1e-15 int|f|, tiny), every entry at once),
    so a value far below 1 is still certified to its leading digits.  Raises
    ConvergenceError with the last two estimates after _TS_LEVELS halvings.
    An empty interval (u0 >= 1) gives 0.0.

    The first call of f takes the nodes of levels 0 to _TS_FIRST - 1 at
    once; each later level is one call.  The sums and the stop test run
    level by level on slices of that call, so the value is the one a call
    per level gives.
    """
    if u0 >= 1.0:
        return 0.0
    first = _ts_levels(ch, f, u0, range(_TS_FIRST))
    num, l1, den, nodes = first[0]
    estimates = [(1.0 - u0) * num / den]
    for k in range(1, _TS_LEVELS + 1):
        n_new, l1_new, d_new, m = (first[k] if k < _TS_FIRST
                                   else _ts_levels(ch, f, u0, (k,))[0])
        num, l1, den = 0.5 * num + n_new, 0.5 * l1 + l1_new, 0.5 * den + d_new
        nodes += m
        val = (1.0 - u0) * num / den
        if specfun._settled(val, estimates[-1], (1.0 - u0) * l1 / den):
            return val if np.ndim(val) else float(val)
        estimates = [estimates[-1], val]
    raise ConvergenceError(
        f"tanh-sinh expectation did not settle in {_TS_LEVELS} halvings; "
        f"last estimates {estimates}",
        estimates=estimates,
        diagnostics={"levels": _TS_LEVELS, "nodes": nodes},
    )


# --------------------------------------------------------------------------
# Scenario II
# --------------------------------------------------------------------------

def lambda1(rf_sr, rf_sp, pc, snr):
    """Pr{x_r <= snr/psi_t, psi_q/x_p >= psi_t}: the product of the two
    independent alpha-mu CDFs (snr scalar, giving a float, or array)."""
    x = _finite_snr(snr)
    return _cdf_out(alpha_mu_cdf(rf_sp, pc.psi_q / pc.psi_t)
                    * alpha_mu_cdf(rf_sr, x / pc.psi_t), x)


def lambda2(rf_sr, rf_sp, pc, snr):
    """Pr{x_r/x_p <= snr/psi_q, psi_q/x_p <= psi_t} as a sum of non-negative
    terms (equal alpha/2 only; snr scalar, giving a float, or array).

    With rho = _scenario1_rho(snr), p = rho / (1 + rho) and
    c = d_p (psi_q / psi_t)^a~ it is Pr{G_r <= rho G_p, G_p >= c}
    = E[Q(mu_p, max(c, G_r / rho))], and Q(mu_p, y) = e^-y sum_{j<mu_p} y^j/j!
    (integer mu_p) makes that Q(mu_p, c) P(mu_r, rho c) plus
    sum_{j<mu_p} C(j + mu_r - 1, j) p^mu_r (1 - p)^j Q(j + mu_r, c / (1 - p)).
    With nothing subtracted it stays accurate where it is small; at c = 0
    it is I_p(mu_r, mu_p), the Scenario I CDF.
    """
    require_equal_alpha(rf_sr, rf_sp)
    x = _finite_snr(snr)
    rho = _scenario1_rho(rf_sr, rf_sp, pc, x)
    p, q = rho / (1.0 + rho), 1.0 / (1.0 + rho)
    c = rf_sp.delta * (pc.psi_q / pc.psi_t) ** rf_sr.alpha_tilde
    val = gammaincc(rf_sp.mu, c) * gammainc(rf_sr.mu, rho * c)
    w = p ** rf_sr.mu
    for j in range(rf_sp.mu):
        val = val + w * gammaincc(j + rf_sr.mu, c / q)
        w = w * q * (j + rf_sr.mu) / (j + 1)
    return val if val.ndim else float(val)


def cdf_rf_scenario2(rf_sr, rf_sp, pc, snr):
    """CDF of min(psi_q/x_p, psi_t) * x_r, lambda1 + lambda2, as one
    array expression (snr scalar, giving a float, or array)."""
    x = _finite_snr(snr)
    return _cdf_out(lambda1(rf_sr, rf_sp, pc, x)
                    + lambda2(rf_sr, rf_sp, pc, x), x)


def cdf_rf_quad(rf_sr, rf_sp, pc, snr):
    """Defining-integral RF CDF, valid for any non-linearity pair: lambda1
    plus one expectation over x_p of F_r(snr x_p / psi_q) from
    u0 = F_p(psi_q / psi_t), for every snr at once.  In Scenario I
    (psi_t = inf) lambda1 = u0 = 0 and the expectation runs over all of
    x_p."""
    x = _finite_snr(snr)
    xs = x.reshape(-1, 1)
    l1 = lambda1(rf_sr, rf_sp, pc, xs[:, 0])
    u0 = alpha_mu_cdf(rf_sp, pc.psi_q / pc.psi_t)
    l2 = _expect(rf_sp, lambda y: alpha_mu_cdf(rf_sr, xs * y / pc.psi_q), u0)
    return _cdf_out(l1 + l2, x)


def cdf_rf(cfg, snr):
    """Scenario-dispatching RF CDF (closed forms when alpha_sr == alpha_sp,
    else quadrature); snr scalar (returns a float) or array."""
    rf_sr, rf_sp, pc = cfg.rf_sr, cfg.rf_sp, cfg.pc
    if not _equal_stretch(rf_sr.alpha_tilde, rf_sp.alpha_tilde):
        return cdf_rf_quad(rf_sr, rf_sp, pc, snr)
    closed = cdf_rf_scenario1 if pc.scenario == "I" else cdf_rf_scenario2
    return closed(rf_sr, rf_sp, pc, snr)


def cdf_hybrid(cfg, snr):
    """Selection-combining CDF of either scenario: the RF factor times the
    blocked-FSO factor (snr scalar, giving a float, or array)."""
    return cdf_rf(cfg, snr) * fso_blocked_cdf(cfg.fso, snr)

"""Channel parameter models and analytic PDF/CDF evaluation.

RF links follow the alpha-mu SNR law; the optical link follows the Malaga
turbulence SNR law with pointing error, detection order s (1 = heterodyne,
2 = IM/DD), and an optional line-of-sight blockage mass at zero SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import binom, gamma as _gamma, gammainc, gammaln, loggamma

from .errors import NumericalIntegrityError, ParameterError
from .specfun import LineEvaluator, fox_h

__all__ = [
    "RfChannelParams",
    "FsoLinkParams",
    "db_to_linear",
    "linear_to_db",
    "alpha_mu_pdf",
    "alpha_mu_cdf",
    "malaga_pdf",
    "malaga_cdf",
    "fso_blocked_cdf",
    "MalagaCdfEvaluator",
    "electrical_snr",
]


def db_to_linear(x_db):
    """10^(x_db / 10); +inf, without a warning, past the float range."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x)


def _require_positive_finite(obj, *names):
    """ParameterError unless each named linear quantity of obj is positive
    and finite: a dB input thousands of dB from 0, or a target rate of 1024
    bit/s/Hz or more, under- or overflows it (or a power of it), and no
    formula holds there."""
    for name in names:
        try:
            value = getattr(obj, name)
        except OverflowError:  # a float power past the float range
            value = np.inf
        if not 0.0 < value < np.inf:
            raise ParameterError(
                f"{name} = {value} at these inputs; it must be positive "
                "and finite")


# --------------------------------------------------------------------------
# RF: alpha-mu
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RfChannelParams:
    """One alpha-mu RF link.

    alpha is the non-linearity, mu the (integer) multipath cluster count,
    avg_snr_db the mean-power parameter in dB.  mu must be an integer because
    the finite sums of the paper's closed forms require it.
    """

    alpha: float
    mu: int
    avg_snr_db: float

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ParameterError("alpha must be a positive real")
        if not np.isfinite(self.mu) or self.mu != int(self.mu) or self.mu < 1:
            raise ParameterError("mu must be a positive integer")
        object.__setattr__(self, "mu", int(self.mu))
        if not np.isfinite(self.avg_snr_db):
            raise ParameterError("avg_snr_db must be finite")
        _require_positive_finite(self, "avg_snr", "delta")

    @cached_property
    def avg_snr(self):
        return float(db_to_linear(self.avg_snr_db))

    @cached_property
    def alpha_tilde(self):
        return self.alpha / 2.0

    @cached_property
    def delta(self):
        return self.avg_snr ** (-self.alpha_tilde)

    @cached_property
    def theta(self):
        return self.alpha_tilde * self.mu - 1.0


def _nonneg_snr(snr):
    """snr as a float array, every entry >= 0 (+inf allowed, NaN not)."""
    x = np.asarray(snr, dtype=float)
    if not np.all(x >= 0):
        raise ParameterError("snr must be >= 0 and not NaN")
    return x


def _finite_snr(snr):
    """snr as a float array, every entry finite and >= 0."""
    x = np.asarray(snr, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ParameterError("snr must be finite and >= 0")
    return x


def _alpha_mu_norm(ch):
    """The normaliser a~ d^mu / Gamma(mu) of the alpha-mu SNR density."""
    return ch.alpha_tilde * ch.delta ** ch.mu / _gamma(ch.mu)


def alpha_mu_pdf(ch, snr):
    """SNR density a~ d^mu / Gamma(mu) * exp(-d x^a~) x^(a~ mu - 1); 0 at
    snr = +inf."""
    x = _nonneg_snr(snr)
    pref = _alpha_mu_norm(ch)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = pref * np.exp(-ch.delta * x ** ch.alpha_tilde) * x ** ch.theta
    out = np.where(np.isposinf(x), 0.0, out)
    return out if out.ndim else float(out)


def alpha_mu_cdf(ch, snr):
    """Regularised-incomplete-gamma CDF form."""
    x = _nonneg_snr(snr)
    out = gammainc(ch.mu, ch.delta * x ** ch.alpha_tilde)
    return out if out.ndim else float(out)


# --------------------------------------------------------------------------
# FSO: Malaga with pointing error, detection order, blockage
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FsoLinkParams:
    """Malaga optical link.

    g is the off-axis scattered power 2*b0*(1-rho); omega_total the composite
    coherent power entering every mixture constant; epsilon the pointing
    error severity (larger = better pointing); s the detection order.  If
    electrical_snr_db is given it pins mu_s directly (some operating points
    are quoted that way); otherwise mu_s is derived from avg_snr_db.
    """

    alpha_o: float
    beta_o: int
    g: float
    omega_total: float
    epsilon: float
    s: int = 1
    avg_snr_db: float = 10.0
    blockage_p: float = 0.0
    electrical_snr_db: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha_o) or self.alpha_o <= 0:
            raise ParameterError("alpha_o must be a positive real")
        if not np.isfinite(self.beta_o) or self.beta_o != int(self.beta_o) \
                or self.beta_o < 1:
            raise ParameterError("beta_o must be a positive integer")
        object.__setattr__(self, "beta_o", int(self.beta_o))
        for name in ("g", "omega_total", "epsilon"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ParameterError(f"{name} must be a positive real")
        if not np.isfinite(self.avg_snr_db):
            raise ParameterError("avg_snr_db must be finite")
        if self.electrical_snr_db is not None and \
                not np.isfinite(self.electrical_snr_db):
            raise ParameterError("electrical_snr_db must be finite")
        if self.s not in (1, 2):
            raise ParameterError("s must be 1 (heterodyne) or 2 (IM/DD)")
        object.__setattr__(self, "s", int(self.s))
        if not (0.0 <= self.blockage_p <= 1.0):
            raise ParameterError("blockage_p must lie in [0, 1]")
        _require_positive_finite(self, "mu_s")

    # mixture constants -----------------------------------------------------

    @cached_property
    def chi_o(self):
        a, b, g, om = self.alpha_o, self.beta_o, self.g, self.omega_total
        return (2.0 * a ** (a / 2.0)) / (g ** (1.0 + a / 2.0) * _gamma(a)) * \
            (g * b / (g * b + om)) ** (b + a / 2.0)

    @cached_property
    def varpi(self):
        a, b, g, om, e2 = (self.alpha_o, self.beta_o, self.g, self.omega_total,
                           self.epsilon ** 2)
        return e2 * a * b * (g + om) / ((e2 + 1.0) * (g * b + om))

    def upsilon(self, m_o):
        a, b, g, om = self.alpha_o, self.beta_o, self.g, self.omega_total
        return binom(b - 1, m_o - 1) * (g * b + om) ** (1.0 - m_o / 2.0) / \
            _gamma(m_o) * (om / g) ** (m_o - 1) * (a / b) ** (m_o / 2.0)

    def vartheta(self, m_o):
        a, b, g, om = self.alpha_o, self.beta_o, self.g, self.omega_total
        return self.upsilon(m_o) * (a * b / (g * b + om)) ** (-(a + m_o) / 2.0)

    def varsigma(self, m_o):
        return self.vartheta(m_o) * self.s ** (self.alpha_o + m_o - 1.0)

    @cached_property
    def K(self):
        return self.epsilon ** 2 * self.chi_o / \
            (2.0 ** self.s * (2.0 * np.pi) ** (self.s - 1))

    @cached_property
    def V(self):
        return self.varpi ** self.s / self.s ** (2.0 * self.s)

    @cached_property
    def mu_s(self):
        if self.electrical_snr_db is not None:
            return float(db_to_linear(self.electrical_snr_db))
        return electrical_snr(self)

    @cached_property
    def mean_irradiance(self):
        """E[I] including the pointing-error factor (unit collecting area)."""
        e2 = self.epsilon ** 2
        return (self.g + self.omega_total) * e2 / (e2 + 1.0)

    def pdf_mixture_spec(self):
        """The integrand of sum_m vartheta(m) G^{3,0}_{1,3}[e2 + 1;
        e2, alpha_o, m]."""
        return _MalagaMixture(self.alpha_o, self.epsilon ** 2, 1, False,
                              tuple(map(self.vartheta,
                                        range(1, self.beta_o + 1))))

    def cdf_mixture_spec(self):
        """The integrand of sum_m varsigma(m) G^{3s,1}_{s+1,3s+1}[1, (e2+k)/s;
        (e2+k-1)/s, (alpha_o+k-1)/s, (m+k-1)/s, 0], k = 1..s."""
        return _MalagaMixture(self.alpha_o, self.epsilon ** 2, self.s, True,
                              tuple(map(self.varsigma,
                                        range(1, self.beta_o + 1))))

    def cdf_kernel_spec(self, m_o):
        """The integrand of G_m_o alone: the mixture with weight 1 at m_o."""
        return _MalagaMixture(self.alpha_o, self.epsilon ** 2, self.s, True,
                              (0.0,) * (m_o - 1) + (1.0,))


@dataclass(frozen=True)
class _MalagaMixture:
    """Mellin-Barnes integrand of sum_m w_m Phi_m(t), m = 1..len(weights),
    w_m >= 0: the package's one encoding of the Malaga kernels.

    In the CDF kernel Phi_m, Gamma((e2+k)/s - t) over Gamma((e2+k+1)/s - t)
    leaves 1/(e2/s - t) and Gamma(t)/Gamma(1+t) = 1/t; the PDF kernel is
    the same with s = 1 and no 1/t.  D_m(t) = prod_{k<s} Gamma((m+k)/s - t)
    obeys D_{m+1} = (m/s - t) D_m, so the mixture is D_1 times
    P(t) = sum_m w_m prod_{j<m} (j/s - t).  Gauss's multiplication formula,
    prod_{k<s} Gamma((x+k)/s - t) = (2pi)^((s-1)/2) s^(1/2-x+st) Gamma(x-st),
    turns D_1 and the alpha_o factors into Gamma(1 - st) Gamma(alpha_o - st):
    2 loggammas per node for all terms and any s.  P, 1/(e2/s - t) and
    1/t are one log of a quotient, which may differ from the sum of their
    logs by a multiple of 2 pi i; every reader takes exp, cos or the real
    part of log Phi, so that does not matter.  P has real coefficients and
    is positive on the real strip of the m = 1 kernel, which is the
    mixture's; it decays at rate 2s.  Each n-group pair (a, A) of gammas
    multiplies it by Gamma(1 - a + A t), as in FoxHSpec.  P is evaluated
    in Horner form, and at real arguments `_log_abs_phi` takes log |Phi|
    in real arithmetic for the abscissa scan.
    """

    alpha_o: float
    e2: float
    s: int
    over_t: bool
    weights: tuple
    gammas: tuple = ()

    def decay_rate(self):
        return 2.0 * self.s + sum(A for _, A in self.gammas)

    def pole_interval(self):
        return (max([0.0 if self.over_t else -np.inf]
                    + [(a - 1.0) / A for a, A in self.gammas]),
                min(self.alpha_o, self.e2, 1.0) / self.s)

    def log_phi(self, t):
        return self._log(np.asarray(t, dtype=complex), loggamma, np.log)

    def _log_abs_phi(self, x):
        """log |Phi(x)| = Re log Phi(x) at real x, in real arithmetic."""
        return self._log(np.asarray(x, dtype=float), gammaln,
                         lambda v: np.log(np.abs(v)))

    def _log(self, t, lg, log):
        """log Phi(t) with the log gamma lg and the log log."""
        s = self.s
        st = s * t
        out = lg(self.alpha_o - st)
        out += lg(1.0 - st)
        # P(t) in Horner form, w_1 + (1/s - t)(w_2 + (2/s - t)(w_3 + ...))
        poly = np.full(t.shape, self.weights[-1], dtype=t.dtype)
        for m in range(len(self.weights) - 1, 0, -1):
            poly *= m / s - t
            poly += self.weights[m - 1]
        den = self.e2 / s - t
        if self.over_t:
            den *= t
        poly /= den
        out += log(poly)
        out += ((s - 1) * np.log(2.0 * np.pi) - self.alpha_o * np.log(s)
                + (2.0 * np.log(s)) * st)
        for a, A in self.gammas:
            out += lg(1.0 - a + A * t)
        return out


def electrical_snr(fso):
    """Electrical SNR mu_s (linear): mu_1 equals the average SNR; mu_2 scales
    it by the detection/turbulence/pointing moment factor."""
    phi = float(db_to_linear(fso.avg_snr_db))
    if fso.s == 1:
        return phi
    a, b, g, om, e2 = (fso.alpha_o, fso.beta_o, fso.g, fso.omega_total,
                       fso.epsilon ** 2)
    num = a * e2 * (e2 + 2.0) * (g + om)
    den = (e2 + 1.0) ** 2 * (a + 1.0) * (2.0 * g * (g + 2.0 * om)
                                         + om ** 2 * (1.0 + 1.0 / b))
    return phi * num / den


def malaga_pdf(fso, snr):
    """SNR density of the (unblocked) Malaga link (snr scalar, giving a
    float, or array), every entry > 0.  Each entry converges its own line
    of the whole mixture (`FsoLinkParams.pdf_mixture_spec`): a density
    read off a line frozen at another argument loses digits far from it."""
    x = np.asarray(snr, dtype=float)
    if not np.all(x > 0):
        raise ParameterError("snr must be > 0 for the density")
    if x.ndim:
        return np.reshape([malaga_pdf(fso, v) for v in x.flat], x.shape)
    x = float(x)
    e2 = fso.epsilon ** 2
    z = fso.varpi * (x / fso.mu_s) ** (1.0 / fso.s)
    val = e2 * fso.chi_o / (2.0 ** fso.s * x) * \
        fox_h(fso.pdf_mixture_spec(), z)
    if val < 0:
        if val < -1e-9:
            raise NumericalIntegrityError(f"malaga_pdf({x}) = {val} < 0")
        val = 0.0
    return val


def _cdf_at(fso, snr, blocked):
    """The evaluator's CDF at snr (scalar, giving a float, or array), its
    contours converged at the largest entry."""
    x = np.asarray(snr, dtype=float)
    return MalagaCdfEvaluator(fso, float(np.max(x, initial=0.0)),
                              blocked).eval_many(x)


def malaga_cdf(fso, snr):
    """SNR CDF of the (unblocked) Malaga link (snr scalar or array)."""
    return _cdf_at(fso, snr, False)


def fso_blocked_cdf(fso, snr):
    """CDF of the blocked link: mass blockage_p at zero plus the Malaga tail
    (snr scalar or array)."""
    return _cdf_at(fso, snr, True)


class MalagaCdfEvaluator:
    """Reusable fixed-contour evaluator of the Malaga (optionally blocked)
    CDF, for quadrature integrands and sample grids: one `LineEvaluator`
    over the integrand of the whole beta_o-term mixture
    (`FsoLinkParams.cdf_mixture_spec`), built when the first positive SNR
    arrives (the CDF at 0 needs none).  snr_ref sets where the line is
    converged (not below kernel argument 1e-6)."""

    def __init__(self, fso, snr_ref=None, blocked=False):
        self.fso = fso
        self.blocked = blocked
        self._snr_ref = snr_ref if snr_ref is not None else fso.mu_s

    @cached_property
    def _line(self):
        fso = self.fso
        z_ref = max(fso.V * self._snr_ref / fso.mu_s, 1e-6)
        return LineEvaluator(fso.cdf_mixture_spec(), z_ref)

    def eval_many(self, snr):
        xs = _finite_snr(snr)
        flat = xs.reshape(-1)
        out = np.zeros(len(flat))
        pos = flat > 0
        if np.any(pos):
            z = self.fso.V * flat[pos] / self.fso.mu_s
            raw = self.fso.K * self._line.eval_many(z)
            bad = ~((raw >= -1e-7) & (raw <= 1.0 + 1e-7))
            if np.any(bad):
                raise NumericalIntegrityError(
                    f"Malaga CDF at snr {flat[pos][bad]} = {raw[bad]} "
                    "outside [0, 1]")
            out[pos] = np.clip(raw, 0.0, 1.0)
        if self.blocked:
            out = self.fso.blockage_p + (1.0 - self.fso.blockage_p) * out
        res = out.reshape(xs.shape)
        return res if res.ndim else float(res)

    def __call__(self, snr):
        return float(self.eval_many(np.asarray([float(snr)]))[0])

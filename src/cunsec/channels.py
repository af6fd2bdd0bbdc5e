"""Channel parameter models and analytic PDF/CDF evaluation.

RF links follow the alpha-mu SNR law; the optical link follows the Malaga
turbulence SNR law with pointing error, detection order s (1 = heterodyne,
2 = IM/DD), and an optional line-of-sight blockage mass at zero SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import binom, gamma as _gamma, gammainc

from .errors import NumericalIntegrityError, ParameterError
from .specfun import LineEvaluator, MeijerGSpec, meijer_g

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
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(x)


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


def alpha_mu_pdf(ch, snr):
    """SNR density a~ d^mu / Gamma(mu) * exp(-d x^a~) x^(a~ mu - 1); 0 at
    snr = +inf."""
    x = _nonneg_snr(snr)
    pref = ch.alpha_tilde * ch.delta ** ch.mu / _gamma(ch.mu)
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
    def q1(self):
        e2, s = self.epsilon ** 2, self.s
        return tuple((e2 + k) / s for k in range(1, s + 1))

    def q2(self, m_o):
        e2, a, s = self.epsilon ** 2, self.alpha_o, self.s
        return tuple([(e2 + k) / s for k in range(s)]
                     + [(a + k) / s for k in range(s)]
                     + [(m_o + k) / s for k in range(s)])

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

    def pdf_kernel_spec(self, m_o):
        return MeijerGSpec(m=3, n=0, a=(self.epsilon ** 2 + 1.0,),
                           b=(self.epsilon ** 2, self.alpha_o, float(m_o)))

    def cdf_kernel_spec(self, m_o):
        return MeijerGSpec(m=3 * self.s, n=1,
                           a=(1.0,) + self.q1,
                           b=self.q2(m_o) + (0.0,))


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
    """SNR density of the (unblocked) Malaga link."""
    x = float(snr)
    if x <= 0:
        raise ParameterError("snr must be > 0 for the density")
    e2 = fso.epsilon ** 2
    z = fso.varpi * (x / fso.mu_s) ** (1.0 / fso.s)
    tot = 0.0
    for m_o in range(1, fso.beta_o + 1):
        tot += fso.vartheta(m_o) * meijer_g(fso.pdf_kernel_spec(m_o), z)
    val = e2 * fso.chi_o / (2.0 ** fso.s * x) * tot
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
    per m_o, built when the first positive SNR arrives (the CDF at 0 needs
    none).  snr_ref sets where the contours are converged (not below
    kernel argument 1e-6)."""

    def __init__(self, fso, snr_ref=None, blocked=False):
        self.fso = fso
        self.blocked = blocked
        self._snr_ref = snr_ref if snr_ref is not None else fso.mu_s

    @cached_property
    def _kernels(self):
        fso = self.fso
        z_ref = max(fso.V * self._snr_ref / fso.mu_s, 1e-6)
        return [
            (fso.varsigma(m_o),
             LineEvaluator(fso.cdf_kernel_spec(m_o), z_ref))
            for m_o in range(1, fso.beta_o + 1)
        ]

    def eval_many(self, snr):
        xs = _finite_snr(snr)
        flat = xs.reshape(-1)
        out = np.zeros(len(flat))
        pos = flat > 0
        if np.any(pos):
            z = self.fso.V * flat[pos] / self.fso.mu_s
            acc = np.zeros(z.shape)
            for weight, kern in self._kernels:
                acc += weight * kern.eval_many(z)
            raw = self.fso.K * acc
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

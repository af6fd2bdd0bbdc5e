import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import betainc, gammainc, gammainccinv, gammaincinv

from cunsec.channels import (MalagaCdfEvaluator, RfChannelParams,
                             _alpha_mu_norm, alpha_mu_cdf, alpha_mu_pdf,
                             fso_blocked_cdf)
from cunsec.config import config_from_dict
from cunsec.cun_cdf import (PowerConstraints, _expect, cdf_rf_scenario1,
                            lambda1, lambda2)
from cunsec.errors import ParameterError, UnsupportedParametersError
from cunsec.figures import FIGURES, figure_config, figure_dict
from cunsec.mc import simulate_metrics
from cunsec.secrecy import (
    _EXP_KERNEL,
    SecrecyConfig,
    _binomial_kernel,
    _gamma_p_kernel,
    _kernel_moment,
    _xi10,
    est,
    g_exp_pair_moment,
    im1_term,
    im2_term,
    im3_term,
    im4_term,
    r1_term,
    r2_term,
    r4_term,
    r5_term,
    r6_term,
    r8_term,
    sop_lower,
    sop_lower_scenario1,
    sop_lower_scenario2,
    spsc,
)
from cunsec import specfun
from cunsec.specfun import (BivariateFoxHSpec, FoxHSpec, LineEvaluator,
                            fox_h_bivariate)

from conftest import paper_g_kernel


@mp.workdps(25)
def mp_g_cdf_kernel(fso, m_o, z):
    """Independent evaluation of the optical-CDF Meijer kernel."""
    g = paper_g_kernel(fso, m_o)
    return float(mp.meijerg([g.a[:g.n], g.a[g.n:]], [g.b[:g.m], g.b[g.m:]], z))


def oracle_im2(cfg, m_o):
    e, fso = cfg.rf_se, cfg.fso
    c = fso.V * cfg.sigma / fso.mu_s

    def f(x):
        return x ** e.theta * np.exp(-e.delta * x ** e.alpha_tilde) * \
            mp_g_cdf_kernel(fso, m_o, c * x)

    val, _ = quad(f, 0, np.inf, limit=200)
    return val


def oracle_im3(cfg, m_r):
    r, p, e = cfg.rf_sr, cfg.rf_sp, cfg.rf_se
    at = r.alpha_tilde
    xi1s = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at
    xi2 = m_r + p.mu

    def f(x):
        return x ** (e.theta + at * m_r) * np.exp(-e.delta * x ** e.alpha_tilde) \
            * (xi1s * x ** at + p.delta) ** (-xi2)

    val, _ = quad(f, 0, np.inf, limit=200)
    return val


def oracle_im4(cfg, m_r, m_o):
    r, p, e, fso = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso
    at = r.alpha_tilde
    xi1s = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at
    xi2 = m_r + p.mu
    c = fso.V * cfg.sigma / fso.mu_s

    def f(x):
        return x ** (e.theta + at * m_r) * np.exp(-e.delta * x ** e.alpha_tilde) \
            * (xi1s * x ** at + p.delta) ** (-xi2) * mp_g_cdf_kernel(fso, m_o, c * x)

    val, _ = quad(f, 0, np.inf, limit=200)
    return val


def oracle_r2(cfg, power):
    r, e = cfg.rf_sr, cfg.rf_se
    xi10 = r.delta * cfg.pc.psi_t ** (-r.alpha_tilde) * cfg.sigma ** r.alpha_tilde

    def f(x):
        return x ** (e.theta + r.alpha_tilde * power) * \
            np.exp(-xi10 * x ** r.alpha_tilde) * \
            np.exp(-e.delta * x ** e.alpha_tilde)

    val, _ = quad(f, 0, np.inf, limit=200)
    return val


def oracle_r6(cfg, power, m_o):
    r, e, fso = cfg.rf_sr, cfg.rf_se, cfg.fso
    xi10 = r.delta * cfg.pc.psi_t ** (-r.alpha_tilde) * cfg.sigma ** r.alpha_tilde
    c = fso.V * cfg.sigma / fso.mu_s

    def f(x):
        return x ** (e.theta + r.alpha_tilde * power) * \
            np.exp(-xi10 * x ** r.alpha_tilde) * \
            np.exp(-e.delta * x ** e.alpha_tilde) * mp_g_cdf_kernel(fso, m_o, c * x)

    val, _ = quad(f, 0, np.inf, limit=200)
    return val


def _with_alpha_se(name, alpha_se, alpha_sr=None, **se):
    """A figure with its own eavesdropper exponent alpha_se (and other S-E
    fields); alpha_sr, if given, is set on S-R and S-P."""
    cfg = figure_config(name)
    cfg = dataclasses.replace(
        cfg, rf_se=dataclasses.replace(cfg.rf_se, alpha=alpha_se, **se))
    if alpha_sr is not None:
        cfg = dataclasses.replace(
            cfg, rf_sr=dataclasses.replace(cfg.rf_sr, alpha=alpha_sr),
            rf_sp=dataclasses.replace(cfg.rf_sp, alpha=alpha_sr))
    return cfg


def sop1_defining_integral(cfg):
    sig = cfg.sigma

    def f(x):
        rf = cdf_rf_scenario1(cfg.rf_sr, cfg.rf_sp, cfg.pc, sig * x)
        return rf * fso_blocked_cdf(cfg.fso, sig * x) * alpha_mu_pdf(cfg.rf_se, x)

    val, _ = quad(f, 0, np.inf, limit=250)
    return val


def sop2_defining_integral(cfg):
    sig = cfg.sigma

    def f(x):
        rf = lambda1(cfg.rf_sr, cfg.rf_sp, cfg.pc, sig * x) + \
            lambda2(cfg.rf_sr, cfg.rf_sp, cfg.pc, sig * x)
        return rf * fso_blocked_cdf(cfg.fso, sig * x) * alpha_mu_pdf(cfg.rf_se, x)

    val, _ = quad(f, 0, np.inf, limit=250)
    return val


def rf_reference(cfg, x):
    """RF CDF from its definition, with G = delta x^a~ ~ Gamma(mu) on each
    link and P the regularized lower gamma.  Scenario I is
    I_{rho/(1+rho)}(mu_r, mu_p).  Scenario II is lambda1, the product
    P(mu_p, c) P(mu_r, d_r (x / psi_t)^a~), plus
    lambda2 = int_c^inf P(mu_r, rho g) dGamma(g; mu_p) by quad at epsrel
    1e-12, with c = d_p (psi_q / psi_t)^a~.  Nothing in it cancels, and none
    of it calls the package's RF CDF."""
    r, p, pc = cfg.rf_sr, cfg.rf_sp, cfg.pc
    assert r.alpha == p.alpha
    rho = r.delta / p.delta * (x / pc.psi_q) ** r.alpha_tilde
    if pc.scenario == "I":
        return betainc(r.mu, p.mu, rho / (1.0 + rho))
    c = p.delta * (pc.psi_q / pc.psi_t) ** p.alpha_tilde
    l1 = gammainc(p.mu, c) * gammainc(r.mu, r.delta * (x / pc.psi_t) ** r.alpha_tilde)
    l2, _ = quad(lambda g: gammainc(r.mu, rho * g) * g ** (p.mu - 1) * np.exp(-g),
                 c, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return l1 + l2 / math.gamma(p.mu)


def sop_reference(cfg):
    """Outage bound from its definition, independent of the package's RF
    CDF and quadrature: quad in log x at epsrel 1e-12 of rf_reference times
    the blocked-FSO CDF over the eavesdropper density.  The eavesdropper SNR
    runs between its 1e-30 and 1 - 1e-40 quantiles."""
    e, sig = cfg.rf_se, cfg.sigma

    def f(t):
        x = np.exp(t)
        return rf_reference(cfg, sig * x) * fso_blocked_cdf(cfg.fso, sig * x) \
            * alpha_mu_pdf(e, x) * x

    lo, hi = (np.log(gammaincinv(e.mu, 1e-30) / e.delta) / e.alpha_tilde,
              np.log(gammainccinv(e.mu, 1e-40) / e.delta) / e.alpha_tilde)
    val, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _tiny_outage_s2():
    """A Scenario II point whose outage is 1.7e-24.  Written as P1 - tail,
    lambda2 cancels here, and the metric's expectation of it does not
    settle (its estimates wander near 4e-17)."""
    return config_from_dict({
        "rf_sr": {"alpha": 3.989, "mu": 3, "avg_snr_db": 22.33},
        "rf_sp": {"alpha": 3.989, "mu": 1, "avg_snr_db": -1.882},
        "rf_se": {"alpha": 2.630, "mu": 3, "avg_snr_db": -0.334},
        "fso": {"alpha_o": 8.380, "beta_o": 1, "g": 0.9333,
                "omega_total": 1.394, "epsilon": 3.471, "s": 2,
                "avg_snr_db": 21.81, "blockage_p": 0.8259},
        "power": {"psi_q_db": 22.56, "psi_t_db": 28.74, "scenario": "II"},
        "target_rate": 0.8081,
    })


def _fig10_at(psi_q_db):
    cfg = figure_config("fig10")
    return dataclasses.replace(
        cfg, pc=dataclasses.replace(cfg.pc, psi_q_db=psi_q_db))


def _useless_eavesdropper():
    cfg = figure_config("fig4")
    return dataclasses.replace(
        cfg,
        rf_se=dataclasses.replace(cfg.rf_se, avg_snr_db=-80.0),
        fso=dataclasses.replace(cfg.fso, blockage_p=0.0, avg_snr_db=40.0),
    )


def _wide_box_point(alpha, mus, snrs_db, alpha_o, beta_o, epsilon, s,
                    fso_db, blockage_p, psi_q_db, psi_t_db, rate):
    """A config with one alpha on all three RF links, g = 2 and Omega = 1;
    mus and snrs_db are (S-R, S-P, S-E), and psi_t_db None is Scenario I."""
    power = {"psi_q_db": psi_q_db, "scenario": "I"}
    if psi_t_db is not None:
        power.update(psi_t_db=psi_t_db, scenario="II")
    return config_from_dict({
        **{link: {"alpha": alpha, "mu": mu, "avg_snr_db": db}
           for link, mu, db in zip(("rf_sr", "rf_sp", "rf_se"), mus, snrs_db)},
        "fso": {"alpha_o": alpha_o, "beta_o": beta_o, "g": 2.0,
                "omega_total": 1.0, "epsilon": epsilon, "s": s,
                "avg_snr_db": fso_db, "blockage_p": blockage_p},
        "power": power,
        "target_rate": rate,
    })


def _fig7_at_psi_t(psi_t_db):
    cfg = figure_config("fig7")
    return dataclasses.replace(
        cfg, pc=dataclasses.replace(cfg.pc, psi_t_db=psi_t_db))


# Assemblies whose bivariate terms need more than 4097 lattice nodes per
# axis: the wide-box points of the ROADMAP table (at 4 significant digits),
# two at O(1) outages with z2 of 3e3-3e4, two at outages of 2e-26 and
# 3e-18 with z1 of 2e-10-4e-9, and #87, whose metric path is 3e-10 off
# within the assembly's 9e-9 bound; and fig7 at psi_T = 200 dB, where
# z1 is about 1e-19
LONG_LINE_ASSEMBLIES = {
    "s7-27": lambda: _wide_box_point(
        2.682, (4, 4, 2), (34.73, -0.557, -6.642), 2.087, 5, 2.202, 2,
        -4.033, 0.7382, 12.89, 21.65, 0.05),
    "s7-39": lambda: _wide_box_point(
        3.131, (4, 3, 1), (27.76, 9.910, -9.871), 3.319, 3, 3.231, 1,
        15.25, 0.6829, 7.106, 26.99, 1.0),
    "s8-19": lambda: _wide_box_point(
        3.898, (4, 3, 3), (15.27, -3.723, 25.37), 6.591, 3, 4.296, 2,
        10.44, 0.2668, 8.139, 10.12, 2.0),
    "s8-44": lambda: _wide_box_point(
        3.716, (2, 4, 1), (-1.793, 12.22, 26.03), 5.099, 3, 0.8265, 2,
        -6.382, 0.3305, 28.56, None, 2.0),
    "s8-87": lambda: _wide_box_point(
        3.675, (3, 2, 1), (-3.964, 30.02, 14.78), 6.132, 1, 0.9181, 1,
        18.32, 0.6847, 12.16, 26.76, 2.0),
    "fig7-psi_t200": lambda: _fig7_at_psi_t(200.0),
}


def _r6_probe(alpha_sr, epsilon, s):
    """fig7 with alpha_sr = alpha_sp against rf_se (alpha 1.5, mu 1, 5 dB)
    and its own pointing error and detection order: the R6 kernel lines
    there run to thousands of nodes per axis."""
    cfg = _with_alpha_se("fig7", 1.5, alpha_sr=alpha_sr, mu=1, avg_snr_db=5.0)
    return dataclasses.replace(
        cfg, fso=dataclasses.replace(cfg.fso, epsilon=epsilon, s=s))


def _wide_box_corpus(seed, n):
    """n seeded configs over the ROADMAP's wide box with alpha_sr =
    alpha_sp, where a closed assembly applies: alpha 1.5-4 (alpha_se on its
    own in Scenario I, equal to alpha_sr in Scenario II), mu 1-4, every SNR
    and psi -10...35 dB, alpha_o 1.5-8, beta_o 1-5, epsilon 0.5-7,
    s in {1, 2}, blockage 0-0.9, rate in {0.05, 0.5, 1, 2}."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        scen = "II" if rng.uniform() < 0.5 else "I"
        alpha = float(rng.uniform(1.5, 4.0))
        alpha_se = alpha if scen == "II" else float(rng.uniform(1.5, 4.0))

        def rf(a):
            return {"alpha": a, "mu": int(rng.integers(1, 5)),
                    "avg_snr_db": float(rng.uniform(-10.0, 35.0))}

        power = {"psi_q_db": float(rng.uniform(-10.0, 35.0)),
                 "scenario": scen}
        if scen == "II":
            power["psi_t_db"] = float(rng.uniform(-10.0, 35.0))
        yield config_from_dict({
            "rf_sr": rf(alpha), "rf_sp": rf(alpha), "rf_se": rf(alpha_se),
            "fso": {"alpha_o": float(rng.uniform(1.5, 8.0)),
                    "beta_o": int(rng.integers(1, 6)), "g": 2.0,
                    "omega_total": 1.0,
                    "epsilon": float(rng.uniform(0.5, 7.0)),
                    "s": int(rng.integers(1, 3)),
                    "avg_snr_db": float(rng.uniform(-10.0, 35.0)),
                    "blockage_p": float(rng.uniform(0.0, 0.9))},
            "power": power,
            "target_rate": float(rng.choice([0.05, 0.5, 1.0, 2.0])),
        })


def _assembly(cfg):
    return {"I": sop_lower_scenario1,
            "II": sop_lower_scenario2}[cfg.pc.scenario](cfg)


EQUAL_ALPHA_FIGURES = [name for name in FIGURES if name != "fig3"]

MIXED_ALPHA_S2 = {
    "fig7-1.6": lambda: _with_alpha_se("fig7", 1.6, mu=1, avg_snr_db=-5.0),
    "fig7-2.6": lambda: _with_alpha_se("fig7", 2.6, mu=3, avg_snr_db=20.0),
    "fig7-3.4": lambda: _with_alpha_se("fig7", 3.4, mu=2, avg_snr_db=35.0),
    "fig7-4.0": lambda: _with_alpha_se("fig7", 4.0, mu=4, avg_snr_db=-10.0),
    "fig10-2.5": lambda: _with_alpha_se("fig10", 2.5),
    "fig7-sr3-2.2": lambda: _with_alpha_se("fig7", 2.2, alpha_sr=3.0),
}


def _configs(figures):
    """pytest parameters: the named figure configs, then the mixed-alpha
    Scenario II configs."""
    makes = [functools.partial(figure_config, n) for n in figures]
    return pytest.mark.parametrize(
        "make", makes + list(MIXED_ALPHA_S2.values()),
        ids=list(figures) + list(MIXED_ALPHA_S2))


# the Scenario I figure points, and fig4/fig9 with alpha_se != alpha_sr
I_TERM_CONFIGS = {name: functools.partial(figure_config, name)
                  for name in EQUAL_ALPHA_FIGURES
                  if figure_config(name).pc.scenario == "I"}
I_TERM_CONFIGS.update({f"{name}-{alpha_se}": functools.partial(
    _with_alpha_se, name, alpha_se)
    for name in ("fig4", "fig9") for alpha_se in (1.6, 3.0, 4.0)})


def optical_kernel(cfg, m_o):
    """x -> G_m_o(V sigma x / mu_s) on an array of eavesdropper SNRs, the
    paper's Meijer G on one line frozen at the mean SNR; 1 when m_o is
    None."""
    if m_o is None:
        return lambda x: 1.0
    fso = cfg.fso
    c = fso.V * cfg.sigma / fso.mu_s
    line = LineEvaluator(paper_g_kernel(fso, m_o), c * cfg.rf_se.avg_snr)

    def kern(x):
        out = np.zeros(x.shape)
        pos = x > 0
        out[pos] = line.eval_many(c * x[pos])
        return out

    return kern


def im34_by_expectation(cfg, m_o):
    """The I3 (m_o None) or I4 terms at every m_r < mu_r from their
    defining integrand: one expectation over the eavesdropper SNR, a row per
    m_r, divided by the normalisation of the eavesdropper density."""
    r, p, e = cfg.rf_sr, cfg.rf_sp, cfg.rf_se
    at = r.alpha_tilde
    xi1s = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at
    m_r = np.arange(r.mu)[:, None]
    kern = optical_kernel(cfg, m_o)
    return _expect(e, lambda x: x ** (at * m_r) * kern(x)
                   * (xi1s * x ** at + p.delta) ** (-(m_r + p.mu))) \
        / _alpha_mu_norm(e)


def _blocked_fso_mean(cfg, weight=lambda sx: 1.0):
    """E[weight(sigma x) F_fso*(sigma x)] over the eavesdropper SNR x."""
    sig = cfg.sigma
    fso = MalagaCdfEvaluator(cfg.fso, sig * cfg.rf_se.avg_snr, blocked=True)
    return _expect(cfg.rf_se,
                   lambda x: weight(sig * x) * fso.eval_many(sig * x))


def fso_piece(cfg):
    """E[F_fso*] from the paper's I2 terms,
    P_o + (1 - P_o) K c_e sum_m_o varsigma(m_o) I2(m_o)."""
    fso = cfg.fso
    mix = sum(fso.varsigma(m_o) * im2_term(cfg, m_o)
              for m_o in range(1, fso.beta_o + 1))
    return fso.blockage_p + \
        (1.0 - fso.blockage_p) * fso.K * _alpha_mu_norm(cfg.rf_se) * mix


def lambda1_piece(cfg):
    """E[((1 - A) - lambda1(sigma x)) F_fso*(sigma x)] from the paper's R2/R6
    terms, its sum over m_r of R2/R6 brackets, with
    1 - A = P(mu_p, d_p (psi_q / psi_t)^a~)."""
    r, p, e, fso, pc = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.fso, cfg.pc
    at, P_o = r.alpha_tilde, fso.blockage_p
    one_minus_a = gammainc(p.mu, p.delta * (pc.psi_q / pc.psi_t) ** at)
    total = 0.0
    for m_r in range(r.mu):
        b_mr = (r.delta * (cfg.sigma / pc.psi_t) ** at) ** m_r / math.factorial(m_r)
        r6_mix = sum(fso.varsigma(m_o) * r6_term(cfg, m_r, m_o)
                     for m_o in range(1, fso.beta_o + 1))
        total += one_minus_a * b_mr * _alpha_mu_norm(e) * (
            P_o * r2_term(cfg, m_r) + (1.0 - P_o) * fso.K * r6_mix)
    return total


class TestImTerms:
    def test_im1_exponential_moment(self):
        e = RfChannelParams(alpha=2, mu=1, avg_snr_db=0.0)
        assert_allclose(im1_term(e), 1.0, rtol=1e-12)

    def test_im1_two_cluster(self):
        e = RfChannelParams(alpha=2, mu=2, avg_snr_db=0.0)
        assert_allclose(im1_term(e), 1.0, rtol=1e-12)

    def test_im2_vs_quadrature(self):
        cfg = figure_config("fig4")
        for m_o in (1, 2):
            assert_allclose(im2_term(cfg, m_o), oracle_im2(cfg, m_o), rtol=1e-5)

    def test_im3_vs_quadrature(self):
        cfg = figure_config("fig4")
        for m_r in (0, 1):
            got, _ = im3_term(cfg, m_r)
            assert_allclose(got, oracle_im3(cfg, m_r), rtol=1e-5)

    def test_im4_vs_quadrature(self):
        cfg = figure_config("fig4")
        got, _ = im4_term(cfg, 1, 2)
        assert_allclose(got, oracle_im4(cfg, 1, 2), rtol=1e-5)

    @pytest.mark.parametrize("name", list(I_TERM_CONFIGS))
    def test_im3_im4_match_expectation(self, name):
        # the exact Mellin-Barnes terms against the expectation of their
        # defining integrands, at every (m_r, m_o)
        cfg = I_TERM_CONFIGS[name]()
        for m_o in [None] + list(range(1, cfg.fso.beta_o + 1)):
            got = [im3_term(cfg, m_r) if m_o is None else im4_term(cfg, m_r, m_o)
                   for m_r in range(cfg.rf_sr.mu)]
            assert {route for _, route in got} == {"closed"}
            assert_allclose([val for val, _ in got],
                            im34_by_expectation(cfg, m_o), rtol=1e-12)

    @pytest.mark.parametrize("make", [
        functools.partial(figure_config, "fig7"),
        functools.partial(figure_config, "fig8"),
        functools.partial(figure_config, "fig10"),
        functools.partial(_with_alpha_se, "fig7", 1.6),
        functools.partial(_with_alpha_se, "fig7", 3.0),
    ], ids=["fig7", "fig8", "fig10", "fig7-1.6", "fig7-3.0"])
    def test_gamma_p_kernel_matches_expectation(self, make):
        # the P(mu, y) kernel moment of the lambda1 term against the
        # expectation of its defining integrand, without and with each
        # optical kernel; with alpha_se != alpha_sr the joint slope
        # a~_r / a~_e is not 1
        cfg = make()
        r, e = cfg.rf_sr, cfg.rf_se
        z = _xi10(cfg)
        for m_o in [None] + list(range(1, cfg.fso.beta_o + 1)):
            kern = optical_kernel(cfg, m_o)
            ref = _expect(e, lambda x: gammainc(r.mu, z * x ** r.alpha_tilde)
                          * kern(x)) / _alpha_mu_norm(e)
            optical = None if m_o is None else cfg.fso.cdf_kernel_spec(m_o)
            got = _kernel_moment(cfg, e.theta, e.delta, optical, z,
                                 _gamma_p_kernel(r.mu))
            assert_allclose(got, ref, rtol=1e-12)

    def test_scenario_guard(self):
        # the I-terms are assembled for Scenario I configs only
        with pytest.raises(ParameterError):
            sop_lower_scenario1(figure_config("fig7"))


class TestRTerms:
    def test_r1_matches_im1(self):
        cfg = figure_config("fig7")
        assert r1_term(cfg) == im1_term(cfg.rf_se)

    def test_r2_merged_exponentials(self):
        # sigma=1, Phi_r=0dB, Psi_T=0dB, Phi_e=0dB, mu_e=1 -> int e^-2x = 1/2
        cfg = config_from_dict({
            "rf_sr": {"alpha": 2, "mu": 1, "avg_snr_db": 0.0},
            "rf_sp": {"alpha": 2, "mu": 1, "avg_snr_db": 0.0},
            "rf_se": {"alpha": 2, "mu": 1, "avg_snr_db": 0.0},
            "fso": {"alpha_o": 2.296, "beta_o": 2, "g": 2.0,
                    "omega_total": 1.0, "epsilon": 1.0, "avg_snr_db": 10.0},
            "power": {"psi_q_db": 0.0, "psi_t_db": 0.0, "scenario": "II"},
            "target_rate": 0.0,
        })
        assert_allclose(r2_term(cfg, 0), 0.5, rtol=1e-10)

    def test_r2_r4_vs_quadrature(self):
        cfg = figure_config("fig7")
        for m_r in (0, 1):
            assert_allclose(r2_term(cfg, m_r), oracle_r2(cfg, m_r), rtol=1e-6)
        assert_allclose(r4_term(cfg, 3), oracle_r2(cfg, 3), rtol=1e-6)

    def test_r5_vs_quadrature(self):
        cfg = figure_config("fig7")
        assert_allclose(r5_term(cfg, 1), oracle_im2(cfg, 1), rtol=1e-5)

    def test_r6_r8_vs_quadrature(self):
        cfg = figure_config("fig7")
        assert_allclose(r6_term(cfg, 0, 1), oracle_r6(cfg, 0, 1), rtol=1e-4)
        assert_allclose(r6_term(cfg, 1, 2), oracle_r6(cfg, 1, 2), rtol=1e-4)
        assert_allclose(r8_term(cfg, 2, 1), oracle_r6(cfg, 2, 1), rtol=1e-4)

    def test_r6_vs_quadrature_unequal_joint_slopes(self):
        # alpha_sr = 3, alpha_se = 2.2: the joint gamma of the bivariate H
        # has slopes A1 = 15/11 != A2 = 10/11, so the two lattice axes
        # take different spacings
        cfg = _with_alpha_se("fig7", 2.2, alpha_sr=3.0)
        for m_r, m_o in [(0, 1), (1, 2)]:
            assert_allclose(r6_term(cfg, m_r, m_o), oracle_r6(cfg, m_r, m_o),
                            rtol=1e-6)

    def test_r6_with_c1_held_past_its_default(self, monkeypatch):
        # alpha_sr = 4 against alpha_se = 1.5 at epsilon = 0.5: the optical
        # kernel's strip leaves c2 no room for the joint poles with c1 at
        # -0.5, so the product contour holds c1 further right
        cfg = _with_alpha_se("fig7", 1.5, alpha_sr=4.0, mu=1, avg_snr_db=5.0)
        cfg = dataclasses.replace(
            cfg, fso=dataclasses.replace(cfg.fso, epsilon=0.5))
        held = []

        def spy(spec, z1, z2, real=specfun._bivar_abscissas):
            c1, c2 = real(spec, z1, z2)
            held.append(c1)
            return c1, c2

        monkeypatch.setattr(specfun, "_bivar_abscissas", spy)
        got = r6_term(cfg, 0, 1)
        assert len(held) == 1 and held[0] > -0.5
        assert_allclose(got, oracle_r6(cfg, 0, 1), rtol=1e-8)

    @pytest.mark.parametrize("kernel, rate", [
        (_EXP_KERNEL[0], 1.0),
        (_binomial_kernel(1)[0], 2.0),
        (_binomial_kernel(4)[0], 2.0),
        (_gamma_p_kernel(2)[0], 1.0),
        (figure_config("fig4").fso.cdf_kernel_spec(2), 2.0),
        (figure_config("fig2").fso.cdf_kernel_spec(2), 4.0),
        (figure_config("fig2").fso.cdf_mixture_spec(), 4.0),
    ], ids=["exp", "binomial-1", "binomial-4", "gamma-p", "malaga-s1",
            "malaga-s2", "malaga-mixture"])
    def test_every_kernel_decays_by_itself(self, kernel, rate):
        # BivariateFoxHSpec rejects a kernel with decay_rate() <= 0; each
        # kernel _kernel_moment builds decays at its own rate: e^-y at 1,
        # (1 + y)^-n at 2, P(mu, y) at 1 and the Malaga integrand, one
        # kernel or the mixture, at 2s
        assert kernel.decay_rate() == rate

    def test_equal_exponent_collapse_matches_bivariate(self):
        # at alpha_sr == alpha_se g_exp_pair_moment merges the exponentials
        # into a univariate H, which must agree with the bivariate H of the
        # same integral
        cfg = figure_config("fig7")
        r, e, fso = cfg.rf_sr, cfg.rf_se, cfg.fso
        at = e.alpha_tilde
        assert r.alpha_tilde == at
        m_o, power = 1, e.theta + at
        coeff = r.delta * cfg.pc.psi_t ** (-at) * cfg.sigma ** at
        spec = BivariateFoxHSpec(
            joint=((1.0 - (power + 1.0) / at, 1.0, 1.0 / at),),
            kernel1=FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),)),
            kernel2=paper_g_kernel(fso, m_o).as_fox_h(),
        )
        z2 = fso.V * cfg.sigma / fso.mu_s * e.delta ** (-1.0 / at)
        direct = e.delta ** (-(power + 1.0) / at) / at * \
            fox_h_bivariate(spec, coeff / e.delta, z2)
        assert_allclose(g_exp_pair_moment(cfg, m_o, power, coeff),
                        direct, rtol=1e-10)

    def test_scenario_guard(self):
        # the R-terms are assembled for Scenario II configs only
        with pytest.raises(ParameterError):
            sop_lower_scenario2(figure_config("fig4"))


class TestSopScenario1:
    def test_useless_eavesdropper(self):
        assert sop_lower_scenario1(_useless_eavesdropper()).value < 0.01

    def test_dominant_eavesdropper(self):
        cfg = figure_config("fig4")
        cfg = dataclasses.replace(
            cfg, rf_se=dataclasses.replace(cfg.rf_se, avg_snr_db=80.0))
        assert sop_lower(cfg).value > 0.99

    def test_vs_defining_integral(self):
        cfg = figure_config("fig4")
        got = sop_lower(cfg).value
        assert_allclose(got, sop1_defining_integral(cfg), rtol=1e-4)

    def test_vs_mc_golden(self):
        # frozen Monte-Carlo golden: n=1e6, seed=20240801 -> SOP_L 0.734872,
        # cross-checked with seed=911 -> 0.735040
        cfg = figure_config("fig4")
        got = sop_lower(cfg).value
        assert abs(got - 0.734872) <= 3 * 0.000442
        assert abs(0.734872 - 0.735040) <= 6 * math.sqrt(2) * 0.000442

    def test_quadrature_route_on_mixed_alpha(self):
        # alpha_sr != alpha_sp: the metric's RF CDF is itself an
        # expectation, and the paper's closed assembly does not apply
        cfg = figure_config("fig3").with_target_rate(0.05)
        res = sop_lower(cfg)
        assert res.diagnostics["route"] == "quadrature"
        assert 0.0 <= res.value <= 1.0
        with pytest.raises(UnsupportedParametersError):
            sop_lower_scenario1(cfg)

    @pytest.mark.parametrize("fig", ["fig9", "fig11"])
    @pytest.mark.parametrize("psi_q_db", [20.0, 30.0])
    def test_matches_reference_at_high_ceiling(self, fig, psi_q_db):
        # the outage is 1e-7 to 1e-13 here
        cfg = dataclasses.replace(
            figure_config(fig), pc=PowerConstraints(psi_q_db=psi_q_db, scenario="I"))
        assert_allclose(sop_lower(cfg).value, sop_reference(cfg), rtol=1e-8)

    def test_closed_matches_quadrature_route(self):
        # off the figure points: a high ceiling, a useless eavesdropper
        fig4_q30 = dataclasses.replace(
            figure_config("fig4"), pc=PowerConstraints(psi_q_db=30.0, scenario="I"))
        for cfg in (fig4_q30, _useless_eavesdropper()):
            res = sop_lower_scenario1(cfg)
            assert res.diagnostics["route"] == "closed"
            assert_allclose(res.value, sop_lower(cfg).value, rtol=1e-8,
                            atol=1e-15)

    @pytest.mark.parametrize("fig, psi_q_db", [
        ("fig9", 20.0), ("fig9", 26.0), ("fig9", 30.0),
        ("fig11", 20.0), ("fig11", 26.0), ("fig11", 30.0),
        ("fig4", 26.0), ("fig4", 30.0)])
    def test_error_bound_covers_the_cancellation(self, fig, psi_q_db):
        # the assembly is a sum of non-negative pieces, so its bound, the
        # tolerance times their magnitudes, is the tolerance relative to the
        # value, also where the outage is 1e-13 (fig9 with psi_q 30 dB);
        # it covers the distance to the expectation
        cfg = dataclasses.replace(
            figure_config(fig), pc=PowerConstraints(psi_q_db=psi_q_db, scenario="I"))
        res = sop_lower_scenario1(cfg)
        bound = res.diagnostics["error_bound"]
        assert abs(res.value - sop_lower(cfg).value) <= bound
        assert bound <= 1.0001e-8 * res.value

    def test_fso_piece_minus_tail_expectation_is_sop(self):
        # E[F_fso*] from the I2 terms minus one expectation of the RF tail
        # over the eavesdropper SNR is SOP_L
        cfg = figure_config("fig4")
        r, p, pc = cfg.rf_sr, cfg.rf_sp, cfg.pc

        def tail(sx):
            rho = r.delta / p.delta * (sx / pc.psi_q) ** r.alpha_tilde
            return betainc(p.mu, r.mu, 1.0 / (1.0 + rho))

        got = fso_piece(cfg) - _blocked_fso_mean(cfg, tail)
        assert_allclose(got, sop_lower(cfg).value, rtol=0, atol=1e-9)

    def test_closed_matches_defining_integral_at_high_ceiling(self):
        cfg = figure_config("fig4")
        cfg = dataclasses.replace(
            cfg, pc=PowerConstraints(psi_q_db=30.0, scenario="I"))
        res = sop_lower_scenario1(cfg)
        assert res.diagnostics["route"] == "closed"
        assert_allclose(res.value, sop1_defining_integral(cfg), rtol=1e-6)

    @pytest.mark.parametrize(
        "name", [name for name in I_TERM_CONFIGS if "-" in name])
    def test_closed_matches_metric_at_mixed_alpha_se(self, name):
        # alpha_se != alpha_sr: each I3/I4 term is still one exact
        # Mellin-Barnes integral, so the assembly returns its closed value,
        # within its bound of the expectation
        cfg = I_TERM_CONFIGS[name]()
        res = sop_lower_scenario1(cfg)
        ref = sop_lower(cfg).value
        assert res.diagnostics["route"] == "closed"
        assert abs(res.value - ref) <= res.diagnostics["error_bound"]
        assert abs(res.value - ref) <= 1e-10 * ref
        assert res.diagnostics["error_bound"] <= 1.0001e-8 * res.value

    def test_float_detection_order(self):
        # JSON may carry s as 2.0; the Malaga integrand indexes range()
        # with it
        d = figure_dict("fig4")
        d["fso"]["s"] = 2
        as_int = config_from_dict(d)
        d["fso"]["s"] = 2.0
        as_float = config_from_dict(d)
        assert type(as_float.fso.s) is int
        assert as_float.fso.cdf_mixture_spec() == as_int.fso.cdf_mixture_spec()
        assert sop_lower(as_float).value == sop_lower(as_int).value


class TestSopScenario2:
    def test_relaxed_cap_matches_scenario1(self):
        cfg = figure_config("fig7")
        pc_hi = PowerConstraints(psi_q_db=cfg.pc.psi_q_db,
                                 psi_t_db=cfg.pc.psi_q_db + 60.0, scenario="II")
        cfg_hi = dataclasses.replace(cfg, pc=pc_hi)
        pc_1 = PowerConstraints(psi_q_db=cfg.pc.psi_q_db, scenario="I")
        cfg_1 = dataclasses.replace(cfg, pc=pc_1)
        a = sop_lower(cfg_hi).value
        b = sop_lower(cfg_1).value
        assert abs(a - b) < 1e-3

    def test_underflowing_cap_is_scenario1(self):
        # alpha = 5 and psi_T = 1500 dB: c = d_p (psi_q / psi_T)^a~ and
        # xi10 underflow to 0, and with them the arguments of both
        # P(mu_r, .) terms; P(mu, 0) = 0, so the assembly is Scenario I's
        cfg = _fig7_at_psi_t(1500.0)
        cfg = dataclasses.replace(cfg, **{
            link: dataclasses.replace(getattr(cfg, link), alpha=5.0)
            for link in ("rf_sr", "rf_sp", "rf_se")})
        assert _xi10(cfg) == 0.0
        res = sop_lower_scenario2(cfg)
        cfg_1 = dataclasses.replace(
            cfg, pc=PowerConstraints(psi_q_db=cfg.pc.psi_q_db, scenario="I"))
        assert_allclose(res.value, sop_lower_scenario1(cfg_1).value,
                        rtol=1e-14)
        assert abs(res.value - sop_lower(cfg).value) <= \
            res.diagnostics["error_bound"]

    def test_vs_defining_integral(self):
        cfg = figure_config("fig7")
        got = sop_lower(cfg).value
        assert_allclose(got, sop2_defining_integral(cfg), rtol=1e-4)

    def test_vs_mc_golden(self):
        # frozen Monte-Carlo golden: n=1e6, seed=20240801 -> SOP_L 0.452352
        cfg = figure_config("fig7")
        got = sop_lower(cfg).value
        assert abs(got - 0.452352) <= 3 * 0.000498

    @pytest.mark.parametrize("make", [
        lambda: figure_config("fig7"),
        lambda: figure_config("fig8"),
        lambda: figure_config("fig10"),
        lambda: _fig10_at(16.0),
        lambda: _fig10_at(30.0),
        _tiny_outage_s2,
    ], ids=["fig7", "fig8", "fig10", "fig10-q16", "fig10-q30", "tiny-outage"])
    def test_matches_reference(self, make):
        cfg = make()
        assert_allclose(sop_lower(cfg).value, sop_reference(cfg), rtol=1e-8)

    def test_tiny_outage_metrics_return(self):
        # the reference gives 1.7267e-24 here; spsc and est follow from it
        cfg = _tiny_outage_s2()
        assert 0.0 < sop_lower(cfg).value < 1e-23
        assert_allclose(spsc(cfg).value, 1.0, rtol=0, atol=1e-15)
        assert_allclose(est(cfg).value, cfg.target_rate, rtol=1e-15)

    @pytest.mark.parametrize("fig, field, db", [
        ("fig7", "psi_t_db", -10.0), ("fig7", "psi_t_db", 0.0),
        ("fig7", "psi_t_db", 30.0), ("fig8", "psi_t_db", -10.0),
        ("fig8", "psi_t_db", 0.0), ("fig8", "psi_t_db", 30.0),
        ("fig10", "psi_q_db", 0.0), ("fig10", "psi_q_db", 16.0),
        ("fig10", "psi_q_db", 30.0), ("fig10", "psi_q_db", 40.0)])
    def test_error_bound_covers_the_difference(self, fig, field, db):
        # the outage falls to 9e-5 at fig10 with psi_q >= 16 dB; a sum of
        # non-negative pieces, the assembly keeps a bound relative to it
        cfg = figure_config(fig)
        cfg = dataclasses.replace(cfg, pc=dataclasses.replace(cfg.pc, **{field: db}))
        res = sop_lower_scenario2(cfg)
        ref = sop_lower(cfg).value
        assert res.diagnostics["route"] == "closed"
        assert abs(res.value - ref) <= res.diagnostics["error_bound"]
        assert abs(res.value - ref) <= 1e-10 * ref
        assert res.diagnostics["error_bound"] <= 1.0001e-8 * res.value

    @pytest.mark.parametrize("name", list(MIXED_ALPHA_S2))
    def test_mixed_alpha_matches_defining_integral(self, name, monkeypatch):
        # alpha_se != alpha_sr: a term e^(-c rho) (1 + rho)^-n with the
        # optical kernel would be a trivariate Fox H, so the closed assembly
        # does not apply and raises before any Fox H call; TestAssemblyPieces
        # checks the paper terms there instead
        import cunsec.secrecy as secrecy

        calls = []
        for attr in ("fox_h", "fox_h_bivariate"):
            def counting(*args, real=getattr(secrecy, attr), **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(secrecy, attr, counting)
        with pytest.raises(UnsupportedParametersError):
            sop_lower_scenario2(MIXED_ALPHA_S2[name]())
        assert calls == []

    def test_closed_matches_defining_integral(self):
        cfg = config_from_dict({
            "rf_sr": {"alpha": 2, "mu": 2, "avg_snr_db": 0.0},
            "rf_sp": {"alpha": 2, "mu": 2, "avg_snr_db": 0.0},
            "rf_se": {"alpha": 2, "mu": 2, "avg_snr_db": -10.0},
            "fso": {"alpha_o": 2.296, "beta_o": 2, "g": 2.0,
                    "omega_total": 1.0, "epsilon": 1.0, "s": 1,
                    "avg_snr_db": 5.0, "blockage_p": 0.3},
            "power": {"psi_q_db": 20.0, "psi_t_db": 0.0, "scenario": "II"},
            "target_rate": 0.05,
        })
        res = sop_lower_scenario2(cfg)
        assert res.diagnostics["route"] == "closed"
        assert_allclose(res.value, sop2_defining_integral(cfg), rtol=1e-6)
        assert_allclose(res.value, sop_lower(cfg).value, rtol=1e-8, atol=1e-15)

    def test_symmetric_exchangeable_half(self):
        # identical S-R / S-E laws, blocked optical link, relaxed cap, shared
        # per-draw transmit power: outage at zero rate is a fair coin
        cfg = config_from_dict({
            "rf_sr": {"alpha": 2, "mu": 2, "avg_snr_db": 5.0},
            "rf_sp": {"alpha": 2, "mu": 2, "avg_snr_db": 0.0},
            "rf_se": {"alpha": 2, "mu": 2, "avg_snr_db": 5.0},
            "fso": {"alpha_o": 2.296, "beta_o": 2, "g": 2.0,
                    "omega_total": 1.0, "epsilon": 1.0, "s": 1,
                    "avg_snr_db": 10.0, "blockage_p": 1.0},
            "power": {"psi_q_db": 5.0, "psi_t_db": 60.0, "scenario": "II"},
            "target_rate": 0.0,
        })
        mc = simulate_metrics(cfg, 200_000, seed=7, eavesdropper="shared_power")
        se = mc["SOP_L"].std_error
        assert abs(mc["SOP_L"].estimate - 0.5) <= 3 * se


class TestAssemblyPieces:
    """The closed assemblies against the metric path's expectation and an
    independent reference, and the paper's I2 and R2/R6 terms against the
    same expectation, also where an assembly does not apply
    (alpha_se != alpha_sr in Scenario II)."""

    @pytest.mark.parametrize("fig", EQUAL_ALPHA_FIGURES)
    def test_raises_at_figure_point(self, fig):
        # each assembly returns its closed value, within its bound of the
        # expectation; the bound is relative, so no piece is negative
        cfg = figure_config(fig)
        assemble = {"I": sop_lower_scenario1, "II": sop_lower_scenario2}
        res = assemble[cfg.pc.scenario](cfg)
        ref = sop_lower(cfg).value
        assert res.diagnostics["route"] == "closed"
        assert abs(res.value - ref) <= res.diagnostics["error_bound"]
        assert abs(res.value - ref) <= 1e-10 * ref
        assert res.diagnostics["error_bound"] <= 1.0001e-8 * res.value

    @pytest.mark.parametrize("fig, psi_q_db", [
        ("fig9", 20.0), ("fig9", 30.0), ("fig11", 20.0), ("fig11", 30.0),
        ("fig7", None), ("fig8", None), ("fig10", None), ("fig10", 16.0),
        ("fig10", 30.0)])
    def test_closed_matches_reference(self, fig, psi_q_db):
        # with nothing cancelling, the assembly keeps its relative digits
        # where the outage is 1e-13 (fig9/fig11 at psi_q 30 dB) or 9e-5
        # (fig10 at psi_q 16 and 30 dB)
        cfg = figure_config(fig)
        if psi_q_db is not None:
            cfg = dataclasses.replace(
                cfg, pc=dataclasses.replace(cfg.pc, psi_q_db=psi_q_db))
        assemble = {"I": sop_lower_scenario1, "II": sop_lower_scenario2}
        assert_allclose(assemble[cfg.pc.scenario](cfg).value,
                        sop_reference(cfg), rtol=1e-12)

    @pytest.mark.parametrize("fig", ["fig4", "fig7"])
    @pytest.mark.parametrize("beta_o", [1, 2, 3])
    def test_one_optical_fox_h_per_term(self, fig, beta_o, monkeypatch):
        # _assemble reads the beta_o-term optical mixture as one integrand:
        # every RF term here has a Fox H kernel, so each makes exactly one
        # bivariate call, with the mixture as its second kernel
        import cunsec.secrecy as secrecy

        cfg = figure_config(fig)
        cfg = dataclasses.replace(
            cfg, fso=dataclasses.replace(cfg.fso, beta_o=beta_o))
        n_terms, kernels = [], []

        def assemble(cfg, scen, terms, real=secrecy._assemble):
            n_terms.append(len(terms))
            return real(cfg, scen, terms)

        def bivariate(spec, z1, z2, real=secrecy.fox_h_bivariate):
            kernels.append(spec.kernel2)
            return real(spec, z1, z2)

        monkeypatch.setattr(secrecy, "_assemble", assemble)
        monkeypatch.setattr(secrecy, "fox_h_bivariate", bivariate)
        assemble_closed = {"I": sop_lower_scenario1, "II": sop_lower_scenario2}
        res = assemble_closed[cfg.pc.scenario](cfg)
        assert res.diagnostics["route"] == "closed"
        assert len(kernels) == n_terms[0] > 0
        assert set(kernels) == {cfg.fso.cdf_mixture_spec()}

    @_configs(EQUAL_ALPHA_FIGURES)
    def test_fso_piece_matches_expectation(self, make):
        cfg = make()
        assert_allclose(fso_piece(cfg), _blocked_fso_mean(cfg), rtol=0,
                        atol=1e-9)

    @_configs(["fig7", "fig8", "fig10"])
    def test_lambda1_piece_matches_expectation(self, make):
        cfg = make()
        r, p, pc = cfg.rf_sr, cfg.rf_sp, cfg.pc
        one_minus_a = gammainc(
            p.mu, p.delta * (pc.psi_q / pc.psi_t) ** p.alpha_tilde)
        ref = _blocked_fso_mean(
            cfg, lambda sx: one_minus_a - lambda1(r, p, pc, sx))
        assert_allclose(lambda1_piece(cfg), ref, rtol=0, atol=1e-9)


class TestLongLines:
    """The closed layer returns wherever it applies: with one node budget
    for every Mellin-Barnes line and the lattice convolved by FFT, bivariate
    terms whose lines run to thousands of nodes per axis converge."""

    @pytest.mark.parametrize("name", list(LONG_LINE_ASSEMBLIES))
    def test_assembly_returns_within_its_bound(self, name):
        cfg = LONG_LINE_ASSEMBLIES[name]()
        res = _assembly(cfg)
        assert res.diagnostics["route"] == "closed"
        assert abs(res.value - sop_lower(cfg).value) <= \
            res.diagnostics["error_bound"]

    def test_r6_probe_grid_returns(self):
        for alpha_sr in (3.0, 4.0, 5.0):
            for epsilon in (0.2, 0.5, 0.8):
                for s in (1, 2):
                    cfg = _r6_probe(alpha_sr, epsilon, s)
                    for m_o in (1, 2):
                        assert r6_term(cfg, 0, m_o) > 0.0

    @pytest.mark.parametrize("epsilon", [0.2, 0.5])
    @pytest.mark.parametrize("s", [1, 2])
    def test_r6_probe_vs_quadrature(self, epsilon, s):
        cfg = _r6_probe(5.0, epsilon, s)
        assert_allclose(r6_term(cfg, 0, 1), oracle_r6(cfg, 0, 1), rtol=1e-4)

    def test_wide_box_corpus(self):
        for cfg in _wide_box_corpus(9, 40):
            res = _assembly(cfg)
            assert res.diagnostics["route"] == "closed"
            assert abs(res.value - sop_lower(cfg).value) <= \
                res.diagnostics["error_bound"]

    def test_real_scan_picks_the_complex_scans_abscissas(self, monkeypatch):
        # every abscissa of the pinned assemblies and the wide-box corpus,
        # univariate and bivariate, is the one the scan through the real
        # part of the complex log Phi picks
        import cunsec.secrecy as secrecy
        from cunsec.channels import _MalagaMixture

        picks, bivariate = [], [0]
        rule, real_bivariate = specfun._abscissa, specfun.fox_h_bivariate

        def recording(*args):
            picks.append(rule(*args))
            return picks[-1]

        def counting(*args):
            bivariate[0] += 1
            return real_bivariate(*args)

        monkeypatch.setattr(specfun, "_abscissa", recording)
        monkeypatch.setattr(secrecy, "fox_h_bivariate", counting)
        cfgs = [make() for make in LONG_LINE_ASSEMBLIES.values()]
        cfgs += list(_wide_box_corpus(9, 40))
        values = [_assembly(cfg).value for cfg in cfgs]
        real = picks[:]
        assert bivariate[0] > 0 and len(real) > 2 * bivariate[0]
        picks.clear()
        for cls in (FoxHSpec, _MalagaMixture):
            monkeypatch.setattr(cls, "_log_abs_phi",
                                lambda self, x: self.log_phi(x).real)
        monkeypatch.setattr(BivariateFoxHSpec, "_log_abs_joint",
                            lambda self, x: self.log_joint(x).real)
        assert [_assembly(cfg).value for cfg in cfgs] == values
        assert picks == real


class TestMetricPath:
    @pytest.mark.parametrize("fig", ["fig4", "fig7"])
    def test_metrics_are_one_expectation(self, fig, monkeypatch):
        # sop_lower, spsc and est evaluate the expectation of the closed RF
        # CDF: no closed assembly, so no Fox H call of either kind
        import cunsec.secrecy as secrecy

        calls = []

        def counting(real):
            def wrapped(*args, **kwargs):
                calls.append(real)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(secrecy, "fox_h", counting(secrecy.fox_h))
        monkeypatch.setattr(secrecy, "fox_h_bivariate",
                            counting(secrecy.fox_h_bivariate))
        cfg = figure_config(fig)
        for fn in (sop_lower, spsc, est):
            assert fn(cfg).diagnostics["route"] == "expectation"
        assert calls == []

    def test_one_tolerance_reaches_the_expectation(self, monkeypatch):
        # specfun._REL_TOL is also the expectation's stop tolerance: a
        # tighter one makes sop_lower evaluate more tanh-sinh levels
        from cunsec import cun_cdf, specfun

        levels = []
        real = cun_cdf._ts_levels

        def counting(*args):
            levels.extend(args[3])
            return real(*args)

        monkeypatch.setattr(cun_cdf, "_ts_levels", counting)
        cfg = figure_config("fig4")
        sop_lower(cfg)
        default = len(levels)
        levels.clear()
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-12)
        sop_lower(cfg)
        assert len(levels) > default

    def test_subnormal_row_settles(self):
        # mixed alpha, Scenario I: the RF CDF rows at the smallest
        # eavesdropper SNRs are subnormal (about 1e-310), below any relative
        # or l1 tolerance; the expectation must still settle, on the value
        # of a nested quad in log x over both alpha-mu SNRs
        cfg = config_from_dict({
            "rf_sr": {"alpha": 3.717, "mu": 4, "avg_snr_db": 14.37},
            "rf_sp": {"alpha": 3.163, "mu": 3, "avg_snr_db": 8.888},
            "rf_se": {"alpha": 1.878, "mu": 1, "avg_snr_db": -7.152},
            "fso": {"alpha_o": 5.279, "beta_o": 4, "g": 2.839,
                    "omega_total": 1.012, "epsilon": 1.649, "s": 1,
                    "avg_snr_db": 13.38, "blockage_p": 0.3765},
            "power": {"psi_q_db": 10.95, "scenario": "I"},
            "target_rate": 0.4839,
        })
        r, p, e, sig = cfg.rf_sr, cfg.rf_sp, cfg.rf_se, cfg.sigma
        fso = MalagaCdfEvaluator(cfg.fso, sig * e.avg_snr, blocked=True)

        def log_span(ch):
            return (np.log(gammaincinv(ch.mu, 1e-30) / ch.delta) / ch.alpha_tilde,
                    np.log(gammainccinv(ch.mu, 1e-40) / ch.delta) / ch.alpha_tilde)

        def rf_cdf(y):
            def g(t):
                xp = np.exp(t)
                xr = y * xp / cfg.pc.psi_q
                return alpha_mu_cdf(r, xr) * alpha_mu_pdf(p, xp) * xp
            return quad(g, *log_span(p), epsabs=0.0, epsrel=1e-10, limit=200)[0]

        def f(t):
            x = np.exp(t)
            return rf_cdf(sig * x) * fso(sig * x) * alpha_mu_pdf(e, x) * x

        ref = quad(f, *log_span(e), epsabs=0.0, epsrel=1e-10, limit=200)[0]
        res = sop_lower(cfg)
        assert res.diagnostics["route"] == "quadrature"
        assert_allclose(res.value, ref, rtol=1e-8)
        assert 1.0 - spsc(cfg).value < 1e-11
        assert est(cfg).value == cfg.target_rate * (1.0 - res.value)


class TestMetricIdentities:
    @pytest.mark.parametrize("fig", ["fig4", "fig7"])
    def test_spsc_complement_is_bit_exact(self, fig):
        cfg = figure_config(fig)
        s = spsc(cfg).value
        base = sop_lower(cfg.with_target_rate(0.0)).value
        assert s + base == 1.0

    @pytest.mark.parametrize("fig", ["fig4", "fig7"])
    def test_est_product_is_bit_exact(self, fig):
        cfg = figure_config(fig)
        assert est(cfg).value == cfg.target_rate * (1.0 - sop_lower(cfg).value)

    def test_est_zero_rate(self):
        cfg = figure_config("fig4").with_target_rate(0.0)
        assert est(cfg).value == 0.0

    def test_bounds_random_corpus(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            scen = "II" if rng.uniform() < 0.5 else "I"
            power = {"psi_q_db": float(rng.uniform(-10, 15)), "scenario": scen}
            if scen == "II":
                power["psi_t_db"] = float(rng.uniform(-5, 25))
            d = {
                "rf_sr": {"alpha": 2, "mu": int(rng.integers(1, 4)),
                          "avg_snr_db": float(rng.uniform(-5, 18))},
                "rf_sp": {"alpha": 2, "mu": int(rng.integers(1, 4)),
                          "avg_snr_db": float(rng.uniform(-5, 18))},
                "rf_se": {"alpha": 2, "mu": int(rng.integers(1, 4)),
                          "avg_snr_db": float(rng.uniform(-5, 18))},
                "fso": {"alpha_o": 2.296, "beta_o": 2, "g": 2.0,
                        "omega_total": 1.0,
                        "epsilon": float(rng.uniform(0.8, 7.0)),
                        "s": int(rng.integers(1, 3)),
                        "avg_snr_db": float(rng.uniform(-5, 15)),
                        "blockage_p": float(rng.uniform(0, 1))},
                "power": power,
                "target_rate": float(rng.uniform(0, 0.3)),
            }
            cfg = config_from_dict(d)
            v = sop_lower(cfg).value
            s = spsc(cfg).value
            t = est(cfg).value
            assert 0.0 <= v <= 1.0
            assert 0.0 <= s <= 1.0
            assert 0.0 <= t <= cfg.target_rate


def test_sop_nondecreasing_in_eavesdropper_snr():
    cfg = figure_config("fig4")
    vals = []
    for phi_e in np.linspace(-5.0, 15.0, 6):
        c = dataclasses.replace(
            cfg, rf_se=dataclasses.replace(cfg.rf_se, avg_snr_db=float(phi_e)))
        vals.append(sop_lower(c).value)
    assert np.all(np.diff(vals) >= -1e-7)


def test_secrecy_config_validation():
    cfg = figure_config("fig4")
    with pytest.raises(ParameterError):
        SecrecyConfig(rf_sr=cfg.rf_sr, rf_sp=cfg.rf_sp, rf_se=cfg.rf_se,
                      fso=cfg.fso, pc=cfg.pc, target_rate=-0.1)
    assert figure_config("fig4").sigma == 2 ** 0.05

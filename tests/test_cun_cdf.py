import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import gamma, gammainc, gammaincc, gammaincinv

import cunsec

from cunsec.channels import (
    RfChannelParams,
    alpha_mu_cdf,
    alpha_mu_pdf,
    fso_blocked_cdf,
)
from cunsec.cun_cdf import (
    PowerConstraints,
    _expect,
    cdf_hybrid_scenario1,
    cdf_hybrid_scenario2,
    cdf_rf,
    cdf_rf_scenario1,
    cdf_rf_scenario2,
    cdf_rf_quad,
    lambda1,
    lambda2,
)
from cunsec.errors import ConvergenceError, ParameterError, UnsupportedParametersError
from cunsec.figures import figure_config


RF_R = RfChannelParams(alpha=2, mu=2, avg_snr_db=15.0)
RF_P = RfChannelParams(alpha=2, mu=2, avg_snr_db=10.0)
PC1 = PowerConstraints(psi_q_db=0.0, scenario="I")

RF_R7 = RfChannelParams(alpha=2, mu=2, avg_snr_db=-5.0)
RF_P7 = RfChannelParams(alpha=2, mu=2, avg_snr_db=-5.0)
PC7 = PowerConstraints(psi_q_db=5.0, psi_t_db=10.0, scenario="II")


def scenario1_defining_integral(rf_sr, rf_sp, pc, x):
    f = lambda y: alpha_mu_cdf(rf_sr, x * y / pc.psi_q) * alpha_mu_pdf(rf_sp, y)
    val, _ = quad(f, 0, np.inf, limit=300)
    return val


def lambda2_defining_integral(rf_sr, rf_sp, pc, x):
    f = lambda y: alpha_mu_pdf(rf_sp, y) * alpha_mu_cdf(rf_sr, x * y / pc.psi_q)
    val, _ = quad(f, pc.psi_q / pc.psi_t, np.inf, limit=300)
    return val


def lambda2_reference(rf_sr, rf_sp, pc, x):
    """lambda2 = Pr{G_r <= rho G_p, G_p >= c} (G = delta x^a~ ~ Gamma(mu)) as
    int_c^inf P(mu_r, rho g) dGamma(g; mu_p), by quad at epsrel 1e-12 and no
    absolute floor."""
    rho = rf_sr.delta / rf_sp.delta * (x / pc.psi_q) ** rf_sr.alpha_tilde
    c = rf_sp.delta * (pc.psi_q / pc.psi_t) ** rf_sp.alpha_tilde
    f = lambda g: gammainc(rf_sr.mu, rho * g) * g ** (rf_sp.mu - 1) * np.exp(-g)
    val, _ = quad(f, c, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val / gamma(rf_sp.mu)


def test_expect_alpha_mu_moments():
    ch = RfChannelParams(alpha=2.5, mu=3, avg_snr_db=4.0)
    at = ch.alpha_tilde
    mean = gamma(ch.mu + 1.0 / at) / (gamma(ch.mu) * ch.delta ** (1.0 / at))
    assert_allclose(_expect(ch, lambda x: x), mean, rtol=1e-8)
    assert _expect(ch, lambda x: 1.0, 0.5) == 0.5


def test_expect_truncated_moment():
    # int_{u0}^1 F^-1(u) du = E[x; x > F^-1(u0)], closed by the upper
    # incomplete gamma
    ch = RfChannelParams(alpha=2.5, mu=3, avg_snr_db=4.0)
    at = ch.alpha_tilde
    for u0 in (0.1, 0.5, 0.9, 0.999):
        want = gammaincc(ch.mu + 1.0 / at, gammaincinv(ch.mu, u0)) \
            * gamma(ch.mu + 1.0 / at) / (gamma(ch.mu) * ch.delta ** (1.0 / at))
        assert_allclose(_expect(ch, lambda x: x, u0), want, rtol=1e-10)


def test_expect_vector_valued_matches_scalar_calls():
    ch = RfChannelParams(alpha=3.0, mu=2, avg_snr_db=6.0)
    scales = np.array([0.1, 1.0, 3.0, 20.0])
    got = _expect(ch, lambda x: alpha_mu_cdf(RF_R, scales[:, None] * x))
    assert got.shape == scales.shape
    want = [_expect(ch, lambda x, s=s: alpha_mu_cdf(RF_R, s * x)) for s in scales]
    assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_expect_unsettled_integrand_raises():
    rng = np.random.default_rng(5)
    ch = RfChannelParams(alpha=2.0, mu=1, avg_snr_db=0.0)
    with pytest.raises(ConvergenceError) as info:
        _expect(ch, lambda x: rng.random(x.shape))
    assert len(info.value.estimates) == 2
    assert set(info.value.diagnostics) == {"levels", "nodes"}


def _package_imports():
    """(module file name, imported names) of every import in the package."""
    pkg = Path(cunsec.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield path.name, [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                yield path.name, [node.module or ""] + \
                    [f"{node.module}.{a.name}" for a in node.names]


def test_package_has_one_quadrature_rule():
    # _expect is the only quadrature: nothing in the package imports
    # scipy.integrate
    for name, names in _package_imports():
        assert not any(n.startswith("scipy.integrate") for n in names), name


def test_package_does_not_import_scipy_signal():
    # the bivariate lattice sums with np.convolve; scipy.signal takes about
    # a second to import
    for name, names in _package_imports():
        assert not any(n.startswith("scipy.signal") for n in names), name


def test_package_does_not_import_concurrent_futures():
    # sweeps run serially: a thread pool over sweep points was slower than
    # one thread on the 16-point figure sweeps, since the GIL serialises them
    for name, names in _package_imports():
        assert not any(n.startswith("concurrent.futures") for n in names), name


def _mixed_scenario2():
    cfg = figure_config("fig7")
    return replace(cfg, rf_sp=replace(cfg.rf_sp, alpha=3.0))


CDF_RF_ROUTES = pytest.mark.parametrize("make", [
    lambda: figure_config("fig4"),   # Scenario I, closed form
    lambda: figure_config("fig3"),   # Scenario I, alpha_sr != alpha_sp
    lambda: figure_config("fig7"),   # Scenario II, closed form
    _mixed_scenario2,                # Scenario II, alpha_sr != alpha_sp
], ids=["I-closed", "I-quad", "II-closed", "II-quad"])


@CDF_RF_ROUTES
def test_cdf_rf_rejects_non_finite_snr(make):
    cfg = make()
    for bad in (np.nan, np.inf, -np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ParameterError):
            cdf_rf(cfg, bad)


def test_scenario2_pieces_reject_non_finite_snr():
    for bad in (np.nan, np.inf, -np.inf):
        for fn in (lambda1, lambda2):
            with pytest.raises(ParameterError):
                fn(RF_R7, RF_P7, PC7, bad)


@CDF_RF_ROUTES
def test_cdf_rf_array_matches_scalar(make):
    cfg = make()
    xs = np.array([[0.0, 1e-3, 0.05, 0.3], [1.0, 4.0, 30.0, 500.0]])
    got = cdf_rf(cfg, xs)
    assert got.shape == xs.shape
    want = [[cdf_rf(cfg, float(x)) for x in row] for row in xs]
    assert all(isinstance(v, float) for row in want for v in row)
    assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fig, hybrid", [
    ("fig4", cdf_hybrid_scenario1), ("fig7", cdf_hybrid_scenario2)])
def test_cdf_hybrid_array_matches_product(fig, hybrid):
    # an array SNR gives the RF factor times the blocked-FSO factor of each
    # entry
    cfg = figure_config(fig)
    xs = np.array([[0.0, 1e-3, 0.05, 0.3], [1.0, 4.0, 30.0, 500.0]])
    got = hybrid(cfg, xs)
    assert got.shape == xs.shape
    want = [[cdf_rf(cfg, float(x)) * fso_blocked_cdf(cfg.fso, float(x))
             for x in row] for row in xs]
    assert_allclose(got, want, rtol=0, atol=1e-12)


class TestScenario1:
    def test_zero(self):
        assert cdf_rf_scenario1(RF_R, RF_P, PC1, 0.0) == 0.0

    def test_limit_one(self):
        big = 1e6 * PC1.psi_q * RF_R.avg_snr
        assert cdf_rf_scenario1(RF_R, RF_P, PC1, big) > 1 - 1e-6

    @pytest.mark.parametrize("x", [0.3, 1.0, 5.0, 40.0])
    def test_vs_defining_integral(self, x):
        got = cdf_rf_scenario1(RF_R, RF_P, PC1, x)
        ref = scenario1_defining_integral(RF_R, RF_P, PC1, x)
        assert_allclose(got, ref, rtol=1e-6, atol=1e-9)

    def test_rejects_mixed_alpha(self):
        odd = RfChannelParams(alpha=3, mu=2, avg_snr_db=10.0)
        with pytest.raises(UnsupportedParametersError):
            cdf_rf_scenario1(RF_R, odd, PC1, 1.0)

    def test_monotone(self):
        grid = np.logspace(-2, 3, 60)
        vals = [cdf_rf_scenario1(RF_R, RF_P, PC1, float(x)) for x in grid]
        assert np.all(np.diff(vals) >= -1e-12)


class TestHybrid1:
    def setup_method(self):
        self.cfg = figure_config("fig4")

    def test_zero(self):
        assert cdf_hybrid_scenario1(self.cfg, 0.0) == 0.0

    def test_blocked_reduces_to_rf(self):
        import dataclasses

        fso = dataclasses.replace(self.cfg.fso, blockage_p=1.0)
        cfg = dataclasses.replace(self.cfg, fso=fso)
        got = cdf_hybrid_scenario1(cfg, 2.0)
        want = cdf_rf_scenario1(cfg.rf_sr, cfg.rf_sp, cfg.pc, 2.0)
        assert_allclose(got, want, rtol=1e-12)

    def test_product_structure(self):
        x = self.cfg.fso.mu_s
        rf = cdf_rf_scenario1(self.cfg.rf_sr, self.cfg.rf_sp, self.cfg.pc, x)
        fso = fso_blocked_cdf(self.cfg.fso, x)
        assert_allclose(cdf_hybrid_scenario1(self.cfg, x), rf * fso, rtol=1e-10)

    def test_expanded_form_matches_product(self):
        # four-term expansion of the product (selection combining)
        cfg = self.cfg
        x = 3.0
        fso, rf_sr, rf_sp, pc = cfg.fso, cfg.rf_sr, cfg.rf_sp, cfg.pc
        p_o = fso.blockage_p
        f_fso = (fso_blocked_cdf(fso, x) - p_o) / (1 - p_o)  # Malaga factor
        w_sum = 1.0 - cdf_rf_scenario1(rf_sr, rf_sp, pc, x)
        expanded = (p_o + (1 - p_o) * f_fso
                    - p_o * w_sum - (1 - p_o) * w_sum * f_fso)
        assert_allclose(cdf_hybrid_scenario1(cfg, x), expanded, rtol=1e-8)


class TestLambda1:
    def test_transmit_cap_vanishes(self):
        pc = PowerConstraints(psi_q_db=5.0, psi_t_db=-100.0, scenario="II")
        assert lambda1(RF_R, RF_P, pc, 1e8) > 1 - 1e-9

    def test_zero(self):
        assert lambda1(RF_R7, RF_P7, PC7, 0.0) == 0.0

    def test_product_of_cdfs(self):
        pc = PowerConstraints(psi_q_db=5.0, psi_t_db=10.0, scenario="II")
        r = RfChannelParams(alpha=2, mu=2, avg_snr_db=10.0)
        p = RfChannelParams(alpha=2, mu=2, avg_snr_db=10.0)
        got = lambda1(r, p, pc, 3.0)
        want = alpha_mu_cdf(p, pc.psi_q / pc.psi_t) * alpha_mu_cdf(r, 3.0 / pc.psi_t)
        assert_allclose(got, want, rtol=1e-10)


class TestLambda2:
    def test_zero_vs_quadrature(self):
        got = lambda2(RF_R7, RF_P7, PC7, 0.0)
        ref = lambda2_defining_integral(RF_R7, RF_P7, PC7, 0.0)
        assert_allclose(got, ref, rtol=1e-8, atol=1e-12)

    def test_transmit_cap_relaxed_gives_scenario1_tail(self):
        pc = PowerConstraints(psi_q_db=5.0, psi_t_db=80.0, scenario="II")
        x = 2.0
        got = lambda2(RF_R7, RF_P7, pc, x)
        want = cdf_rf_scenario1(RF_R7, RF_P7, pc, x)
        assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("x", [0.2, 1.0, 3.0, 20.0])
    def test_exact_vs_quadrature(self, x):
        got = lambda2(RF_R7, RF_P7, PC7, x)
        ref = lambda2_defining_integral(RF_R7, RF_P7, PC7, x)
        assert_allclose(got, ref, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("fig", ["fig7", "fig10"])
    def test_exact_positive_on_log_grid(self, fig):
        # written as P1 - tail, lambda2 cancels to values as low as -1e-15
        # (356 of these points on fig10), which cdf_rf clips to 0
        cfg = figure_config(fig)
        x = np.logspace(-8, 3, 2000)
        assert np.all(lambda2(cfg.rf_sr, cfg.rf_sp, cfg.pc, x) >= 0.0)
        assert np.all(cdf_rf(cfg, x) > 0.0)

    @pytest.mark.parametrize("x", [1e-3, 1e-2])
    def test_exact_relative_accuracy_where_small(self, x):
        cfg = figure_config("fig10")
        r, p, pc = cfg.rf_sr, cfg.rf_sp, cfg.pc
        assert_allclose(lambda2(r, p, pc, x),
                        lambda2_reference(r, p, pc, x), rtol=1e-10, atol=0)


class TestScenario2:
    def test_zero(self):
        assert cdf_rf_scenario2(RF_R7, RF_P7, PC7, 0.0) == 0.0

    def test_relaxed_cap_equals_scenario1(self):
        pc = PowerConstraints(psi_q_db=5.0, psi_t_db=85.0, scenario="II")
        pc1 = PowerConstraints(psi_q_db=5.0, scenario="I")
        for x in (0.5, 2.0, 10.0):
            a = cdf_rf_scenario2(RF_R7, RF_P7, pc, x)
            b = cdf_rf_scenario1(RF_R7, RF_P7, pc1, x)
            assert abs(a - b) < 1e-4

    def test_vs_mc(self):
        n = 1_000_000
        rng = np.random.default_rng(77)
        gr = (rng.gamma(RF_R7.mu, 1, n) / RF_R7.delta) ** (1 / RF_R7.alpha_tilde)
        gp = (rng.gamma(RF_P7.mu, 1, n) / RF_P7.delta) ** (1 / RF_P7.alpha_tilde)
        snr = np.minimum(PC7.psi_q / gp, PC7.psi_t) * gr
        for x in (0.5, 2.0, 10.0):
            emp = np.mean(snr <= x)
            got = cdf_rf_scenario2(RF_R7, RF_P7, PC7, x)
            se = max(np.sqrt(emp * (1 - emp) / n), 1e-6)
            assert abs(got - emp) < 4 * se

    def test_quad_route_matches_closed(self):
        for x in (0.5, 2.0, 10.0):
            a = cdf_rf_scenario2(RF_R7, RF_P7, PC7, x)
            b = cdf_rf_quad(RF_R7, RF_P7, PC7, x)
            assert_allclose(a, b, rtol=1e-7, atol=1e-10)

    def test_array_matches_pointwise(self):
        grid = np.logspace(-2, 3, 60).reshape(6, 10)
        got = cdf_rf_scenario2(RF_R7, RF_P7, PC7, grid)
        want = [[cdf_rf_scenario2(RF_R7, RF_P7, PC7, float(x)) for x in row]
                for row in grid]
        assert got.shape == grid.shape
        assert_allclose(got, want, rtol=0, atol=1e-12)
        assert isinstance(want[0][0], float)
        assert isinstance(lambda1(RF_R7, RF_P7, PC7, 2.0), float)
        assert isinstance(lambda2(RF_R7, RF_P7, PC7, 2.0), float)

    def test_monotone_bounded(self):
        grid = np.logspace(-2, 3, 60)
        vals = [cdf_rf_scenario2(RF_R7, RF_P7, PC7, float(x)) for x in grid]
        assert np.all(np.diff(vals) >= -1e-10)
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestHybrid2:
    def setup_method(self):
        self.cfg = figure_config("fig7")

    def test_zero(self):
        assert cdf_hybrid_scenario2(self.cfg, 0.0) == 0.0

    def test_product_structure(self):
        x = self.cfg.fso.mu_s
        rf = cdf_rf_scenario2(self.cfg.rf_sr, self.cfg.rf_sp, self.cfg.pc, x)
        fso = fso_blocked_cdf(self.cfg.fso, x)
        assert_allclose(cdf_hybrid_scenario2(self.cfg, x), rf * fso, rtol=1e-10)
        assert cdf_hybrid_scenario2(self.cfg, x) <= min(rf, fso) + 1e-12

    def test_expanded_form_matches_product(self):
        # X-form expansion: F = [X - (1 - A) tail - P2] * [P_o + (1-P_o) F_m]
        # with X = 1 + Xi5 - sum Xi1 and A = sum Xi1 = Xi5 for integer mu_p
        from math import factorial

        from scipy.special import gammaincc

        cfg, x = self.cfg, 2.0
        r, p, pc, fso = cfg.rf_sr, cfg.rf_sp, cfg.pc, cfg.fso
        at = r.alpha_tilde
        w = (pc.psi_q / pc.psi_t) ** at
        xi5 = float(gammaincc(p.mu, p.delta * w))
        sum_xi1 = float(np.exp(-p.delta * w) *
                        sum((p.delta * w) ** m / factorial(m)
                            for m in range(p.mu)))
        chi = 1.0 + xi5 - sum_xi1
        tail1 = sum(
            r.delta ** m_r * pc.psi_t ** (-at * m_r) / factorial(m_r)
            * x ** (at * m_r) * np.exp(-r.delta * pc.psi_t ** (-at) * x ** at)
            for m_r in range(r.mu))
        p2 = xi5 - lambda2(r, p, pc, x)
        f_rf_expanded = chi - (1.0 - sum_xi1) * tail1 - p2
        f_fso = fso_blocked_cdf(fso, x)
        got = cdf_hybrid_scenario2(cfg, x)
        assert_allclose(got, f_rf_expanded * f_fso, rtol=1e-8)

    def test_scenario_convergence_grid(self):
        import dataclasses

        cfg = self.cfg
        pc_hi = PowerConstraints(psi_q_db=cfg.pc.psi_q_db,
                                 psi_t_db=cfg.pc.psi_q_db + 60.0,
                                 scenario="II")
        pc_1 = PowerConstraints(psi_q_db=cfg.pc.psi_q_db, scenario="I")
        cfg_hi = dataclasses.replace(cfg, pc=pc_hi)
        cfg_1 = dataclasses.replace(cfg, pc=pc_1)
        grid = np.logspace(-2, 2.5, 50)
        gap = max(abs(cdf_hybrid_scenario2(cfg_hi, float(x))
                      - cdf_hybrid_scenario1(cfg_1, float(x)))
                  for x in grid)
        assert gap < 1e-3


def test_product_law_random_configs():
    # hybrid CDF == RF factor x blocked-FSO factor, and the four-term
    # expansion of the product, across a random parameter sweep
    import dataclasses

    rng = np.random.default_rng(33)
    base = figure_config("fig4")
    for _ in range(8):
        cfg = dataclasses.replace(
            base,
            rf_sr=RfChannelParams(2, int(rng.integers(1, 4)),
                                  float(rng.uniform(0, 18))),
            rf_sp=RfChannelParams(2, int(rng.integers(1, 4)),
                                  float(rng.uniform(0, 18))),
            fso=dataclasses.replace(base.fso,
                                    blockage_p=float(rng.uniform(0, 1))),
        )
        x = float(rng.uniform(0.1, 30.0))
        rf = cdf_rf_scenario1(cfg.rf_sr, cfg.rf_sp, cfg.pc, x)
        fso = fso_blocked_cdf(cfg.fso, x)
        got = cdf_hybrid_scenario1(cfg, x)
        assert got == pytest.approx(rf * fso, rel=1e-12)
        p_o = cfg.fso.blockage_p
        f_m = (fso - p_o) / (1 - p_o) if p_o < 1 else 0.0
        w = 1.0 - rf
        expanded = p_o + (1 - p_o) * f_m - p_o * w - (1 - p_o) * w * f_m
        assert got == pytest.approx(expanded, rel=1e-8, abs=1e-12)


def test_power_constraints_validation():
    with pytest.raises(ParameterError):
        PowerConstraints(psi_q_db=0.0, scenario="II")
    with pytest.raises(ParameterError):
        PowerConstraints(psi_q_db=0.0, scenario="III")
    pc = PowerConstraints(psi_q_db=0.0, scenario="2", psi_t_db=10.0)
    assert pc.scenario == "II"

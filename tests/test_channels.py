import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import loggamma

from cunsec.channels import (
    FsoLinkParams,
    MalagaCdfEvaluator,
    RfChannelParams,
    alpha_mu_cdf,
    alpha_mu_pdf,
    db_to_linear,
    electrical_snr,
    fso_blocked_cdf,
    linear_to_db,
    malaga_cdf,
    malaga_pdf,
)
from cunsec import specfun
from cunsec.specfun import (LineEvaluator, _HALF0, _Line, _asymmetry,
                            meijer_g)
from cunsec.errors import NumericalIntegrityError, ParameterError
from cunsec.figures import figure_config
from cunsec.mc import ks_distance, sample_alpha_mu, sample_malaga_snr

from conftest import paper_g_kernel


def rf(alpha, mu, phi_linear):
    return RfChannelParams(alpha=alpha, mu=mu,
                           avg_snr_db=float(linear_to_db(phi_linear)))


FIG_FSO = dict(alpha_o=2.296, beta_o=2, g=2.0, omega_total=1.0, epsilon=1.0)


class TestAlphaMu:
    def test_pdf_exponential_point(self):
        ch = rf(2, 1, 1.0)
        assert_allclose(alpha_mu_pdf(ch, 2.0), math.exp(-2.0), rtol=1e-12)

    def test_pdf_normalises(self):
        ch = rf(3, 2, 5.0)
        total, _ = quad(lambda x: alpha_mu_pdf(ch, x), 0, np.inf, limit=200)
        assert_allclose(total, 1.0, rtol=1e-9)

    def test_pdf_generic_vs_highprec(self):
        ch = rf(3, 2, 2.0)
        with mp.workdps(30):
            at = mp.mpf(3) / 2
            delta = mp.mpf(2) ** -at
            ref = at * delta ** 2 / mp.gamma(2) * mp.e ** (-delta) \
                * mp.mpf(1) ** (at * 2 - 1)
        assert_allclose(alpha_mu_pdf(ch, 1.0), float(ref), rtol=1e-12)

    def test_cdf_zero(self):
        assert alpha_mu_cdf(rf(3.3, 4, 7.0), 0.0) == 0.0

    def test_cdf_exponential_point(self):
        ch = rf(2, 1, 1.0)
        assert_allclose(alpha_mu_cdf(ch, 1.0), 1 - math.exp(-1), rtol=1e-12)

    def test_cdf_vs_pdf_quadrature(self):
        ch = RfChannelParams(alpha=2, mu=2, avg_snr_db=15.0)
        ref, _ = quad(lambda x: alpha_mu_pdf(ch, x), 0, 10.0, limit=200)
        assert_allclose(alpha_mu_cdf(ch, 10.0), ref, rtol=1e-9)

    def test_cdf_monotone_bounded(self):
        ch = RfChannelParams(alpha=2.7, mu=3, avg_snr_db=8.0)
        grid = np.logspace(-3, 3, 200)
        vals = alpha_mu_cdf(ch, grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_ks_vs_sampler(self):
        ch = RfChannelParams(alpha=2, mu=2, avg_snr_db=10.0)
        xs = sample_alpha_mu(ch, 200_000, seed=42)
        d = ks_distance(xs, lambda x: alpha_mu_cdf(ch, x))
        assert d < 2.0 / math.sqrt(len(xs))

    @pytest.mark.parametrize("fn", [alpha_mu_pdf, alpha_mu_cdf])
    def test_nan_snr_rejected(self, fn):
        ch = rf(2, 2, 1.0)
        for snr in (np.nan, [1.0, np.nan]):
            with pytest.raises(ParameterError):
                fn(ch, snr)

    def test_infinite_snr_accepted(self):
        ch = rf(2, 2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert alpha_mu_cdf(ch, np.inf) == 1.0
            assert alpha_mu_pdf(ch, np.inf) == 0.0
            assert_allclose(alpha_mu_pdf(ch, [1.0, np.inf]),
                            [alpha_mu_pdf(ch, 1.0), 0.0], rtol=0)

    def test_mu_must_be_integer(self):
        with pytest.raises(ParameterError):
            RfChannelParams(alpha=2, mu=2.5, avg_snr_db=10.0)
        with pytest.raises(ParameterError):
            RfChannelParams(alpha=-1, mu=2, avg_snr_db=10.0)


class TestMalaga:
    @pytest.mark.parametrize("s", [1, 2])
    def test_pdf_normalises(self, s):
        fso = FsoLinkParams(s=s, avg_snr_db=10.0, **FIG_FSO)
        total, _ = quad(lambda x: malaga_pdf(fso, x), 0, np.inf, limit=250)
        assert_allclose(total, 1.0, rtol=1e-6)

    def test_pdf_matches_histogram(self):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, **FIG_FSO)
        n = 4_000_000
        xs = sample_malaga_snr(fso, n, seed=3)
        mu = fso.mu_s
        lo, hi = 0.9 * mu, 1.1 * mu
        frac = np.mean((xs >= lo) & (xs < hi))
        dens, _ = quad(lambda x: malaga_pdf(fso, x), lo, hi, limit=100)
        se = math.sqrt(dens * (1 - dens) / n)
        assert abs(frac - dens) <= 3 * se

    def test_detection_orders_differ(self):
        f1 = FsoLinkParams(s=1, avg_snr_db=10.0, **FIG_FSO)
        f2 = FsoLinkParams(s=2, avg_snr_db=10.0, **FIG_FSO)
        assert malaga_pdf(f1, 5.0) != malaga_pdf(f2, 5.0)

    def test_pdf_array_matches_scalar(self):
        fso = figure_config("fig4").fso
        xs = fso.mu_s * np.array([[1e-3, 0.05, 0.7], [1.0, 4.0, 60.0]])
        got = malaga_pdf(fso, xs)
        assert got.shape == xs.shape
        assert got.tolist() == [[malaga_pdf(fso, float(x)) for x in row]
                                for row in xs]
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ParameterError):
                malaga_pdf(fso, np.array([fso.mu_s, bad]))

    def test_cdf_zero_and_limit(self):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, **FIG_FSO)
        assert malaga_cdf(fso, 0.0) == 0.0
        assert malaga_cdf(fso, 1e3 * fso.mu_s) >= 0.999

    @pytest.mark.parametrize("blocked", [False, True])
    def test_cdf_rejects_bad_snr(self, blocked):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=0.1, **FIG_FSO)
        ev = MalagaCdfEvaluator(fso, blocked=blocked)
        cdf = fso_blocked_cdf if blocked else malaga_cdf
        for bad in (np.inf, np.nan, -1.0):
            with pytest.raises(ParameterError):
                ev.eval_many(np.array([fso.mu_s, bad]))
            with pytest.raises(ParameterError):
                cdf(fso, bad)

    def test_cdf_at_zero_builds_no_contour(self, monkeypatch):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=0.1, **FIG_FSO)
        calls = []
        refine = specfun._refine
        monkeypatch.setattr(specfun, "_refine",
                            lambda *a, **k: calls.append(1) or refine(*a, **k))
        assert malaga_cdf(fso, 0.0) == 0.0
        assert fso_blocked_cdf(fso, 0.0) == 0.1
        for cdf in (malaga_cdf, fso_blocked_cdf):
            with pytest.raises(ParameterError):
                cdf(fso, -1.0)
        assert not calls
        assert malaga_cdf(fso, fso.mu_s) > 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("blocked", [False, True])
    def test_cdf_array_matches_scalar(self, blocked):
        fso = FsoLinkParams(s=2, avg_snr_db=10.0, blockage_p=0.1, **FIG_FSO)
        cdf = fso_blocked_cdf if blocked else malaga_cdf
        xs = fso.mu_s * np.array([[0.0, 1e-4, 0.01, 0.3], [1.0, 3.0, 40.0, 1e3]])
        got = cdf(fso, xs)
        assert got.shape == xs.shape
        want = [[cdf(fso, float(x)) for x in row] for row in xs]
        assert all(isinstance(v, float) for row in want for v in row)
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_cdf_of_empty_or_zero_array_builds_no_contour(self, monkeypatch):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=0.1, **FIG_FSO)
        calls = []
        refine = specfun._refine
        monkeypatch.setattr(specfun, "_refine",
                            lambda *a, **k: calls.append(1) or refine(*a, **k))
        assert malaga_cdf(fso, np.array([])).shape == (0,)
        assert malaga_cdf(fso, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        assert fso_blocked_cdf(fso, np.zeros((2, 2))).tolist() == [[0.1, 0.1]] * 2
        assert not calls

    def test_cdf_out_of_range_is_loud(self):
        # the raw value is checked before it is clipped to [0, 1]
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, **FIG_FSO)
        ev = MalagaCdfEvaluator(fso)
        spec = fso.cdf_mixture_spec()
        doubled = replace(spec, weights=tuple(2.0 * w for w in spec.weights))
        ev._line = LineEvaluator(doubled, fso.V)
        with pytest.raises(NumericalIntegrityError):
            ev.eval_many(np.array([1e3 * fso.mu_s]))

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("beta_o,epsilon", [(1, 1.0), (2, 1.0), (3, 0.7),
                                                (4, 2.5), (2, 1.5)])
    def test_one_line_is_the_per_m_o_sum(self, s, beta_o, epsilon):
        # the factored mixture against one line per m_o, near z_ref; the
        # last case has epsilon^2 = alpha_o, so two pole families meet
        alpha_o = 2.25 if epsilon == 1.5 else FIG_FSO["alpha_o"]
        fso = FsoLinkParams(s=s, avg_snr_db=10.0, alpha_o=alpha_o,
                            beta_o=beta_o, g=2.0, omega_total=1.0,
                            epsilon=epsilon)
        spec = fso.cdf_mixture_spec()
        z_ref = fso.V
        zs = z_ref * np.logspace(-3, 3, 13)
        ev = LineEvaluator(spec, z_ref)
        per_m = sum(fso.varsigma(m) * LineEvaluator(paper_g_kernel(fso, m),
                                                    z_ref).eval_many(zs)
                    for m in range(1, beta_o + 1))
        assert_allclose(ev.eval_many(zs), per_m, rtol=1e-12)
        line = _Line(spec.log_phi, ev.c, ev.h, _HALF0, half=True)
        line.cover(ev.K)
        assert _asymmetry(line, np.log(z_ref)) == 0.0
        # the density's one line per value, against one per m_o
        xs = fso.mu_s * np.array([1e-3, 1.0, 1e2])
        per_m = [fso.epsilon ** 2 * fso.chi_o / (2.0 ** s * x)
                 * sum(fso.vartheta(m) * meijer_g(
                     paper_g_kernel(fso, m, cdf=False),
                     fso.varpi * (x / fso.mu_s) ** (1.0 / s))
                       for m in range(1, beta_o + 1)) for x in xs]
        assert_allclose(malaga_pdf(fso, xs), per_m, rtol=1e-12)

    @staticmethod
    def _log_phi_by_k(spec, t):
        """The mixture's log Phi with one loggamma per factor,
        sum_{k<s} [lnG((alpha_o+k)/s - t) + lnG((1+k)/s - t)] + ln P(t)
        - ln(e2/s - t) [- ln t]: the form Gauss's multiplication formula
        folds into two loggammas."""
        s = spec.s
        poly, prod = 0.0, 1.0
        for m, w in enumerate(spec.weights, 1):
            poly, prod = poly + w * prod, prod * (m / s - t)
        out = sum(loggamma((x + k) / s - t)
                  for x in (spec.alpha_o, 1.0) for k in range(s))
        out = out + np.log(poly) - np.log(spec.e2 / s - t)
        return out - np.log(t) if spec.over_t else out

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("beta_o,epsilon", [(1, 1.0), (3, 0.7), (4, 2.5)])
    def test_two_loggamma_integrand_is_the_k_loop(self, s, beta_o, epsilon):
        # on every node of the converged CDF and PDF lines
        fso = FsoLinkParams(s=s, avg_snr_db=10.0, alpha_o=FIG_FSO["alpha_o"],
                            beta_o=beta_o, g=2.0, omega_total=1.0,
                            epsilon=epsilon)
        for spec in (fso.cdf_mixture_spec(), fso.pdf_mixture_spec()):
            ev = LineEvaluator(spec, fso.V)
            t = ev.c + 1j * ev.h * np.arange(ev.K + 1)
            want = np.exp(self._log_phi_by_k(spec, t))
            assert_allclose(np.exp(spec.log_phi(t)), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["fig2", "fig7", "fig10", "fig11"])
    def test_one_line_vs_mpmath_far_from_z_ref(self, name):
        # the mixture's frozen line over twelve decades around the metric
        # evaluator's z_ref, against the 30-digit mpmath.meijerg mixture
        cfg = figure_config(name)
        fso = cfg.fso
        z_ref = max(fso.V * cfg.sigma * cfg.rf_se.avg_snr / fso.mu_s, 1e-6)
        zs = z_ref * np.logspace(-6, 6, 13)
        got = LineEvaluator(fso.cdf_mixture_spec(), z_ref).eval_many(zs)
        specs = [(fso.varsigma(m), paper_g_kernel(fso, m))
                 for m in range(1, fso.beta_o + 1)]
        with mp.workdps(30):
            # the CDF's limit, each kernel's residue at t = 0: past kernel
            # argument 1e5 mpmath's series at s = 1 needs thousands of
            # bits, and the rest, a G^{4,0}_{2,4}, is below exp(-2 sqrt z)
            limit = sum(w * mp.fprod(map(mp.gamma, g.b[:g.m]))
                        / mp.fprod(map(mp.gamma, g.a[g.n:])) for w, g in specs)
            want = np.array([float(limit) if fso.s == 1 and z > 1e5 else
                             float(sum(w * mp.meijerg(
                                 [g.a[:g.n], g.a[g.n:]],
                                 [g.b[:g.m], g.b[g.m:]], z)
                                 for w, g in specs)) for z in zs])
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("s", [1, 2])
    def test_cdf_vs_pdf_quadrature(self, s):
        fso = FsoLinkParams(s=s, avg_snr_db=10.0, **FIG_FSO)
        x = fso.mu_s
        ref, _ = quad(lambda t: malaga_pdf(fso, t), 0, x, limit=250)
        assert_allclose(malaga_cdf(fso, x), ref, rtol=1e-6)

    def test_cdf_monotone_bounded(self):
        fso = FsoLinkParams(s=2, avg_snr_db=5.0, **FIG_FSO)
        ev = MalagaCdfEvaluator(fso)
        grid = np.logspace(-3, 4, 200)
        vals = ev.eval_many(grid)
        assert np.all(np.diff(vals) >= -1e-9)
        assert np.all((vals >= 0) & (vals <= 1))

    @pytest.mark.parametrize("s", [1, 2])
    def test_ks_vs_sampler(self, s):
        from cunsec.mc import apply_blockage, ks_distance_interpolated

        fso = FsoLinkParams(s=s, avg_snr_db=10.0, blockage_p=0.3, **FIG_FSO)
        xs = apply_blockage(sample_malaga_snr(fso, 200_000, seed=11),
                            fso.blockage_p, seed=12)
        ev = MalagaCdfEvaluator(fso, blocked=True)
        d = ks_distance_interpolated(xs, ev.eval_many)
        assert d < 2.0 / math.sqrt(len(xs))

    def test_blocked_cdf(self):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=1.0, **FIG_FSO)
        assert fso_blocked_cdf(fso, 3.0) == 1.0
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=0.5, **FIG_FSO)
        assert fso_blocked_cdf(fso, 0.0) == 0.5
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=0.1, **FIG_FSO)
        x = fso.mu_s
        assert_allclose(fso_blocked_cdf(fso, x),
                        0.1 + 0.9 * malaga_cdf(fso, x), rtol=1e-12)

    def test_degenerate_params_stay_bounded(self):
        fso = FsoLinkParams(alpha_o=2.296, beta_o=2, g=1e-6, omega_total=1.0,
                            epsilon=1e3, s=1, avg_snr_db=10.0)
        v = malaga_cdf(fso, fso.mu_s)
        assert np.isfinite(v) and 0.0 <= v <= 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            FsoLinkParams(s=3, avg_snr_db=10.0, **FIG_FSO)
        with pytest.raises(ParameterError):
            FsoLinkParams(s=1, avg_snr_db=10.0, blockage_p=1.5, **FIG_FSO)
        bad = dict(FIG_FSO)
        bad["beta_o"] = 2.5
        with pytest.raises(ParameterError):
            FsoLinkParams(s=1, avg_snr_db=10.0, **bad)


class TestElectricalSnr:
    def test_heterodyne_is_identity(self):
        fso = FsoLinkParams(s=1, avg_snr_db=10.0, **FIG_FSO)
        assert electrical_snr(fso) == pytest.approx(10.0, rel=1e-12)

    def test_imdd_formula(self):
        fso = FsoLinkParams(s=2, avg_snr_db=0.0, **FIG_FSO)
        # independent high-precision evaluation of the moment-ratio factor
        with mp.workdps(30):
            a, b, g, om, e2 = (mp.mpf("2.296"), mp.mpf(2), mp.mpf(2),
                               mp.mpf(1), mp.mpf(1))
            num = a * e2 * (e2 + 2) * (g + om)
            den = (e2 + 1) ** 2 * (a + 1) * (2 * g * (g + 2 * om)
                                             + om ** 2 * (1 + 1 / b))
            ratio = num / den
        assert_allclose(electrical_snr(fso), float(ratio), rtol=1e-12)

    def test_pointing_factor_limit(self):
        wide = FsoLinkParams(s=2, avg_snr_db=0.0, alpha_o=2.296, beta_o=2,
                             g=2.0, omega_total=1.0, epsilon=1e6)
        a, b, g, om = 2.296, 2.0, 2.0, 1.0
        want = a * (g + om) / ((a + 1) * (2 * g * (g + 2 * om)
                                          + om ** 2 * (1 + 1 / b)))
        assert_allclose(electrical_snr(wide), want, rtol=1e-9)

    def test_pinned_electrical_snr(self):
        fso = FsoLinkParams(s=2, avg_snr_db=0.0, electrical_snr_db=10.0,
                            **FIG_FSO)
        assert fso.mu_s == pytest.approx(10.0, rel=1e-12)


def test_db_roundtrip():
    assert_allclose(db_to_linear(linear_to_db(3.7)), 3.7, rtol=1e-12)

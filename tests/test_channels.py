import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

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
from cunsec.errors import NumericalIntegrityError, ParameterError
from cunsec.mc import ks_distance, sample_alpha_mu, sample_malaga_snr

mp.mp.dps = 30


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
        at = mp.mpf(3) / 2
        delta = mp.mpf(2) ** -at
        ref = at * delta ** 2 / mp.gamma(2) * mp.e ** (-delta) * mp.mpf(1) ** (at * 2 - 1)
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
        assert len(calls) == fso.beta_o

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
        ev._kernels = [(2.0 * w, kern) for w, kern in ev._kernels]
        with pytest.raises(NumericalIntegrityError):
            ev.eval_many(np.array([1e3 * fso.mu_s]))

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
        a, b, g, om, e2 = (mp.mpf("2.296"), mp.mpf(2), mp.mpf(2), mp.mpf(1),
                           mp.mpf(1))
        num = a * e2 * (e2 + 2) * (g + om)
        den = (e2 + 1) ** 2 * (a + 1) * (2 * g * (g + 2 * om)
                                         + om ** 2 * (1 + 1 / b))
        assert_allclose(electrical_snr(fso), float(num / den), rtol=1e-12)

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

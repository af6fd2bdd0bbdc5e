import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as _gamma

from cunsec.channels import (FsoLinkParams, MalagaCdfEvaluator,
                             RfChannelParams, alpha_mu_cdf)
from cunsec.errors import NumericalIntegrityError, ParameterError
from cunsec.figures import figure_config
from cunsec.mc import (
    CHUNK,
    McEstimate,
    apply_blockage,
    ks_distance,
    ks_distance_interpolated,
    sample_alpha_mu,
    sample_malaga_components,
    sample_batch,
    sample_malaga_snr,
    simulate_metrics,
    substream,
)


class TestAlphaMuSampler:
    def test_exponential_mean(self):
        ch = RfChannelParams(alpha=2, mu=1, avg_snr_db=0.0)
        xs = sample_alpha_mu(ch, 1_000_000, seed=1)
        assert abs(xs.mean() - 1.0) < 3e-3

    def test_nonnegative(self):
        ch = RfChannelParams(alpha=3, mu=2, avg_snr_db=7.0)
        assert sample_alpha_mu(ch, 10_000, seed=2).min() >= 0.0

    def test_moment_identity(self):
        # E[snr] = phi * Gamma(mu + 2/alpha) / Gamma(mu) for the power
        # transform of a unit-scale Gamma draw
        ch = RfChannelParams(alpha=3, mu=2, avg_snr_db=float(10 * math.log10(5)))
        n = 1_000_000
        xs = sample_alpha_mu(ch, n, seed=3)
        want = 5.0 * _gamma(2 + 2 / 3) / _gamma(2)
        se = xs.std() / math.sqrt(n)
        assert abs(xs.mean() - want) < 4 * se

    def test_requires_positive_n(self):
        ch = RfChannelParams(alpha=2, mu=1, avg_snr_db=0.0)
        with pytest.raises(ParameterError):
            sample_alpha_mu(ch, 0, seed=1)


FSO = FsoLinkParams(alpha_o=2.296, beta_o=2, g=2.0, omega_total=1.0,
                    epsilon=1.0, s=1, avg_snr_db=10.0)


class TestMalagaSampler:
    def test_turbulence_mean_normalised(self):
        turb, _ = sample_malaga_components(FSO, 1_000_000, seed=4)
        ratio = turb / (FSO.g + FSO.omega_total)
        assert abs(ratio.mean() - 1.0) < 4 * ratio.std() / 1000.0

    def test_heterodyne_mean_is_electrical_snr(self):
        xs = sample_malaga_snr(FSO, 1_000_000, seed=5)
        se = xs.std() / 1000.0
        assert abs(xs.mean() - FSO.mu_s) < 4 * se

    def test_pointing_factor_mean(self):
        _, point = sample_malaga_components(FSO, 500_000, seed=6)
        e2 = FSO.epsilon ** 2
        assert abs(point.mean() - e2 / (e2 + 1)) < 2e-3


class TestBlockage:
    def test_identity_when_zero(self):
        xs = np.arange(10.0)
        out = apply_blockage(xs, 0.0, seed=1)
        assert_allclose(out, xs)

    def test_all_blocked(self):
        out = apply_blockage(np.arange(1.0, 11.0), 1.0, seed=1)
        assert np.all(out == 0.0)

    def test_fraction(self):
        n = 1_000_000
        out = apply_blockage(np.ones(n), 0.5, seed=7)
        frac = np.mean(out == 0.0)
        assert abs(frac - 0.5) < 0.0015


class TestSimulateMetrics:
    def test_deterministic(self):
        cfg = figure_config("fig4")
        a = simulate_metrics(cfg, 50_000, seed=11)
        b = simulate_metrics(cfg, 50_000, seed=11)
        assert a["SOP_L"].estimate == b["SOP_L"].estimate
        assert a["SOP"].estimate == b["SOP"].estimate

    def test_chunking_invariance(self):
        # one 50k call equals the first chunk of a larger run restricted to
        # the same substreams, so worker partitioning cannot change results
        import cunsec.mc as mc_mod

        cfg = figure_config("fig4")
        a = simulate_metrics(cfg, 200_000, seed=13)
        old = mc_mod.CHUNK
        try:
            mc_mod.CHUNK = 50_000
            b = simulate_metrics(cfg, 200_000, seed=13)
        finally:
            mc_mod.CHUNK = old
        # chunk size participates in the substream layout, so only statistical
        # agreement is expected across layouts; bit equality holds per layout
        assert abs(a["SOP_L"].estimate - b["SOP_L"].estimate) \
            <= 6 * math.sqrt(2) * a["SOP_L"].std_error

    def test_seed_independence(self):
        cfg = figure_config("fig4")
        a = simulate_metrics(cfg, 200_000, seed=17)
        b = simulate_metrics(cfg, 200_000, seed=18)
        for key in ("SOP", "SOP_L", "SPSC"):
            gap = abs(a[key].estimate - b[key].estimate)
            comb = math.hypot(a[key].std_error, b[key].std_error)
            assert gap <= 6 * comb

    def test_sop_dominates_lower_bound(self):
        cfg = figure_config("fig4")
        m = simulate_metrics(cfg, 100_000, seed=19)
        assert m["SOP"].estimate >= m["SOP_L"].estimate

    def test_zero_rate_collapses(self):
        cfg = figure_config("fig4").with_target_rate(0.0)
        m = simulate_metrics(cfg, 50_000, seed=21)
        assert m["SOP"].estimate == m["SOP_L"].estimate
        assert m["EST"].estimate == 0.0
        assert m["SPSC"].estimate == 1.0 - m["SOP_L"].estimate

    def test_refuses_small_n(self):
        with pytest.raises(ParameterError):
            simulate_metrics(figure_config("fig4"), 1_000, seed=1)

    def test_estimate_fields(self):
        m = simulate_metrics(figure_config("fig4"), 50_000, seed=23)["SOP_L"]
        assert isinstance(m, McEstimate)
        p = m.estimate
        assert_allclose(m.std_error, math.sqrt(p * (1 - p) / 50_000), rtol=1e-12)
        assert m.n == 50_000 and m.seed == 23

    def test_eavesdropper_model_flag(self):
        cfg = figure_config("fig7")
        ind = simulate_metrics(cfg, 50_000, seed=25)
        shared = simulate_metrics(cfg, 50_000, seed=25,
                                  eavesdropper="shared_power")
        assert ind["SOP_L"].estimate != shared["SOP_L"].estimate
        with pytest.raises(ParameterError):
            simulate_metrics(cfg, 50_000, seed=25, eavesdropper="nope")


def test_substream_reproducible_and_disjoint():
    a = substream(42, 0).uniform(size=5)
    b = substream(42, 0).uniform(size=5)
    c = substream(42, 1).uniform(size=5)
    assert_allclose(a, b)
    assert not np.allclose(a, c)


# --------------------------------------------------------------------------
# the block-pruned KS scan against the full scan
# --------------------------------------------------------------------------

def _ks_full(samples, cdf_fn):
    """The full KS scan: the CDF at every positive sample, every rank."""
    xs = np.sort(np.asarray(samples))
    n = len(xs)
    n0 = int(np.searchsorted(xs, 0.0, side="right"))
    d_atom = 0.0
    if n0 > 0:
        d_atom = abs(n0 / n - float(np.asarray(cdf_fn(np.array([0.0])))[0]))
    pos = xs[n0:]
    if len(pos) == 0:
        return float(d_atom)
    f = np.asarray(cdf_fn(pos), dtype=float)
    hi = (np.arange(n0 + 1, n + 1) / n - f).max()
    lo = (f - np.arange(n0, n) / n).max()
    return float(max(d_atom, hi, lo))


def _ks_full_interpolated(samples, cdf_fn, n_grid):
    """The full KS scan of the CDF interpolated (PCHIP) from n_grid sample
    quantiles at every positive sample, the atom at zero read from cdf_fn
    itself."""
    from scipy.interpolate import PchipInterpolator

    def interpolated(xs_sorted):
        xs = np.asarray(xs_sorted, dtype=float)
        out = np.empty(len(xs))
        pos = xs > 0
        out[~pos] = float(np.asarray(cdf_fn(np.array([0.0])))[0])
        positives = xs[pos]
        if len(positives) == 0:
            return out
        idx = np.unique(np.linspace(0, len(positives) - 1,
                                    min(n_grid, len(positives))).astype(int))
        grid = np.unique(positives[idx])
        vals = np.asarray(cdf_fn(grid), dtype=float)
        vals = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
        if len(grid) == 1:
            out[pos] = vals[0]
            return out
        interp = PchipInterpolator(grid, vals, extrapolate=True)
        out[pos] = np.clip(interp(positives), 0.0, 1.0)
        return out

    return _ks_full(samples, interpolated)


def _exp_cdf(x):
    return 1.0 - np.exp(-np.asarray(x, dtype=float))


def _blocked_exp_cdf(x):
    return 0.3 + 0.7 * _exp_cdf(x)


def _both_exact(samples, cdf_fn, n_grid=256):
    assert ks_distance(samples, cdf_fn) == _ks_full(samples, cdf_fn)
    assert ks_distance_interpolated(samples, cdf_fn, n_grid) \
        == _ks_full_interpolated(samples, cdf_fn, n_grid)


class TestPrunedKs:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_alpha_mu_draws(self, seed):
        ch = figure_config("fig4").rf_sr
        xs = sample_alpha_mu(ch, 50_000, seed)
        _both_exact(xs, lambda x: alpha_mu_cdf(ch, x), n_grid=1024)

    def test_blocked_malaga_draws(self):
        fso = figure_config("fig4").fso
        xs = apply_blockage(sample_malaga_snr(fso, 30_000, seed=5), 0.3,
                            seed=6)
        assert np.count_nonzero(xs == 0.0) > 8000
        ev = MalagaCdfEvaluator(fso, blocked=True)
        _both_exact(xs, ev.eval_many, n_grid=1024)

    def test_all_zero_sample(self):
        xs = np.zeros(100)
        assert ks_distance(xs, _blocked_exp_cdf) == pytest.approx(0.7)
        _both_exact(xs, _blocked_exp_cdf)

    @pytest.mark.parametrize("n", [10, 65])
    def test_short_samples(self, n):
        # 65 is one whole block and a block of a single sample
        xs = substream(7, 0).exponential(size=n)
        _both_exact(xs, _exp_cdf)
        xs[:3] = 0.0
        _both_exact(xs, _blocked_exp_cdf)

    def test_duplicated_values(self):
        xs = np.round(substream(8, 0).exponential(size=5000), 2)
        assert len(np.unique(xs)) < 1000
        _both_exact(np.concatenate([xs, np.zeros(40)]), _blocked_exp_cdf)

    def test_maximum_inside_a_block(self):
        # uniform quantiles on [0, 1] with ranks 70..120 piled onto one
        # point: the largest deviation is at rank 120, inside the block of
        # ranks 64..127, and both bounds of every other block fall short
        n = 640
        xs = (np.arange(n) + 0.5) / n
        xs[70:121] = xs[70]
        f = np.asarray(xs, dtype=float)
        dev = np.maximum(np.arange(1, n + 1) / n - f, f - np.arange(n) / n)
        assert int(np.argmax(dev)) % 64 not in (0, 63)
        _both_exact(xs, lambda x: np.clip(x, 0.0, 1.0))

    def test_reads_a_few_percent_of_the_sample(self):
        cfg = figure_config("fig4")
        xs = sample_batch(cfg, CHUNK, 20240801, 0).snr_r
        read = []

        def counting(x):
            read.append(np.size(x))
            return alpha_mu_cdf(cfg.rf_sr, x)

        d = ks_distance(xs, counting)
        assert sum(read) < 0.1 * CHUNK
        assert d == _ks_full(xs, lambda x: alpha_mu_cdf(cfg.rf_sr, x))

    def test_decreasing_cdf_is_refused(self):
        # pruning a block assumes F is monotone: a drop of 1e-9 from rank
        # 319 (the end of a block) to rank 320 (the start of the next), far
        # above the 1e-12 margin, must not pass silently
        xs = (np.arange(640) + 0.5) / 640

        def dipping(x):
            return np.where(x < 0.5, x, x - (1.0 / 640 + 1e-9))

        assert dipping(xs[320]) < dipping(xs[319]) - 1e-10

        with pytest.raises(NumericalIntegrityError):
            ks_distance(xs, dipping)


# --------------------------------------------------------------------------
# the in-place samplers draw what their definitions say
# --------------------------------------------------------------------------

class TestDrawsPinned:
    # integer counts of simulate_metrics(cfg, 1e6, 20240801), recorded from
    # the samplers before they worked in place
    COUNTS = {
        "fig4": {"SOP": 735682, "SOP_L": 734872, "SPSC": 273283},
        "fig7": {"SOP": 454692, "SOP_L": 452352, "SPSC": 558410},
        "fig3": {"SOP": 0, "SOP_L": 0, "SPSC": 1000000},
    }

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_simulate_metrics_counts(self, name):
        n = 1_000_000
        m = simulate_metrics(figure_config(name), n, 20240801)
        for key, count in self.COUNTS[name].items():
            assert m[key].estimate == count / n, key

    @pytest.mark.parametrize("name", ["fig4", "fig11"])
    def test_alpha_mu(self, name):
        ch = figure_config(name).rf_sr
        g = substream(31, 5).gamma(ch.mu, 1.0, size=20_000)
        want = (g / ch.delta) ** (1.0 / ch.alpha_tilde)
        assert np.array_equal(sample_alpha_mu(ch, 20_000, 31, 5), want)

    @pytest.mark.parametrize("name", ["fig4", "fig2", "fig7"])
    def test_malaga(self, name):
        # draw order: X, A^2, Re Z, Im Z, U (sample_malaga_components)
        fso = figure_config(name).fso
        n = 20_000
        rng = substream(32, 3)
        x = rng.gamma(fso.alpha_o, 1.0 / fso.alpha_o, size=n)
        a2 = rng.gamma(fso.beta_o, fso.omega_total / fso.beta_o, size=n)
        scale = np.sqrt(fso.g / 2.0)
        z_re = rng.normal(0.0, scale, size=n)
        z_im = rng.normal(0.0, scale, size=n)
        u = rng.uniform(0.0, 1.0, size=n)
        turb = x * ((np.sqrt(a2) + z_re) ** 2 + z_im ** 2)
        pointing = u ** (1.0 / fso.epsilon ** 2)
        want = fso.mu_s * (turb * pointing / fso.mean_irradiance) ** fso.s
        assert np.array_equal(sample_malaga_snr(fso, n, 32, 3), want)

    def test_batch_blockage(self):
        cfg = figure_config("fig7")
        n = 20_000
        batch = sample_batch(cfg, n, 33, chunk_index=2)
        snr = sample_malaga_snr(cfg.fso, n, 33, 2 * 8 + 3)
        u = substream(33, 2 * 8 + 4).uniform(0.0, 1.0, size=n)
        want = np.where(u < cfg.fso.blockage_p, 0.0, snr)
        assert np.array_equal(batch.snr_fso, want)
        assert np.array_equal(apply_blockage(snr, cfg.fso.blockage_p, 33,
                                             2 * 8 + 4), want)

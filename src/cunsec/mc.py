"""Monte-Carlo ground truth for every channel law and secrecy metric.

Substreams are Philox counter-based generators keyed by (seed, stream), so
batches are reproducible without coordination and reductions over integer
counts are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, ParameterError

__all__ = [
    "McEstimate",
    "SampleBatch",
    "substream",
    "sample_alpha_mu",
    "sample_malaga_components",
    "sample_malaga_snr",
    "apply_blockage",
    "simulate_metrics",
    "ks_distance",
    "ks_distance_interpolated",
]

CHUNK = 1 << 18
_STREAMS_PER_CHUNK = 8
# The KS scan reads the CDF at both ends of each block of _KS_BLOCK sorted
# samples, and inside a block only where its bound comes within _KS_MARGIN
# of the largest deviation read so far.
_KS_BLOCK = 64
_KS_MARGIN = 1e-12


def substream(seed, stream):
    """Counter-based generator for a (seed, stream) pair."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class McEstimate:
    estimate: float
    std_error: float
    n: int
    seed: int


@dataclass
class SampleBatch:
    """One batch of per-link SNR draws sharing a (seed, stream) block."""

    snr_p: np.ndarray
    snr_r: np.ndarray
    snr_e: np.ndarray
    snr_fso: np.ndarray
    seed: int
    stream: int

    @property
    def n(self):
        return len(self.snr_r)


def sample_alpha_mu(ch, n, seed, stream=0):
    """Draws with the alpha-mu SNR law: (G / delta)^(1/a~), G ~ Gamma(mu)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    x = substream(seed, stream).gamma(ch.mu, 1.0, size=n)
    x /= ch.delta
    x **= 1.0 / ch.alpha_tilde
    return x


def sample_malaga_components(fso, n, seed, stream=0):
    """(turbulence irradiance, pointing factor) with E[turbulence] = g + Omega
    and E[pointing] = eps^2/(eps^2+1).

    Draw order on the substream: X ~ Gamma(alpha_o, 1/alpha_o), A^2 ~
    Gamma(beta_o, Omega/beta_o), the real then the imaginary part of
    Z ~ CN(0, g), U ~ U(0, 1); the turbulence is X * |A + Z|^2 and the
    pointing factor U^(1/eps^2).  The arithmetic runs in place on the draws.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = substream(seed, stream)
    turb = rng.gamma(fso.alpha_o, 1.0 / fso.alpha_o, size=n)
    y = rng.gamma(fso.beta_o, fso.omega_total / fso.beta_o, size=n)
    scale = np.sqrt(fso.g / 2.0)
    np.sqrt(y, out=y)
    y += rng.normal(0.0, scale, size=n)
    y **= 2
    z_im = rng.normal(0.0, scale, size=n)
    z_im **= 2
    y += z_im
    turb *= y
    pointing = rng.random(size=n)
    pointing **= 1.0 / fso.epsilon ** 2
    return turb, pointing


def sample_malaga_snr(fso, n, seed, stream=0):
    """SNR draws of the (unblocked) Malaga link: mu_s * (I / E[I])^s with the
    pointing-error factor inside I."""
    snr, pointing = sample_malaga_components(fso, n, seed, stream)
    snr *= pointing
    snr /= fso.mean_irradiance
    snr **= fso.s
    snr *= fso.mu_s
    return snr


def _block(samples, blockage_p, seed, stream):
    """Zero each sample, in place, with the blockage probability."""
    if not (0.0 <= blockage_p <= 1.0):
        raise ParameterError("blockage_p must lie in [0, 1]")
    if blockage_p > 0.0:
        rng = substream(seed, stream)
        samples[rng.random(size=len(samples)) < blockage_p] = 0.0
    return samples


def apply_blockage(samples, blockage_p, seed, stream=0):
    """Independently zero each sample with the blockage probability; returns
    a new array."""
    return _block(np.array(samples, copy=True), blockage_p, seed, stream)


def sample_batch(cfg, n, seed, chunk_index=0):
    """The n draws of every link in one chunk: substreams base + 0..4 of
    the chunk's block (S-P, S-R, S-E, optical, blockage); the optical draws
    are blocked in place."""
    base = chunk_index * _STREAMS_PER_CHUNK
    snr_p = sample_alpha_mu(cfg.rf_sp, n, seed, base + 0)
    snr_r = sample_alpha_mu(cfg.rf_sr, n, seed, base + 1)
    snr_e = sample_alpha_mu(cfg.rf_se, n, seed, base + 2)
    fso = _block(sample_malaga_snr(cfg.fso, n, seed, base + 3),
                 cfg.fso.blockage_p, seed, base + 4)
    return SampleBatch(snr_p=snr_p, snr_r=snr_r, snr_e=snr_e, snr_fso=fso,
                       seed=seed, stream=base)


def _scenario_power(pc, snr_p):
    """The secondary transmitter's power factor at each S-P SNR draw,
    min(psi_q / x_p, psi_t) (psi_t = inf in Scenario I), in a new array."""
    factor = pc.psi_q / snr_p
    np.minimum(factor, pc.psi_t, out=factor)
    return factor


def _scenario_snrs(cfg, batch, eavesdropper):
    """(max(RF, FSO) SNR of the legitimate link, wiretap SNR); the batch is
    left as drawn."""
    snr_f = _scenario_power(cfg.pc, batch.snr_p)
    if eavesdropper == "independent":
        snr_e = batch.snr_e
    elif eavesdropper == "shared_power":
        snr_e = snr_f * batch.snr_e
    else:
        raise ParameterError(
            f"eavesdropper must be 'independent' or 'shared_power', "
            f"got {eavesdropper!r}")
    snr_f *= batch.snr_r
    np.maximum(snr_f, batch.snr_fso, out=snr_f)
    return snr_f, snr_e


def simulate_metrics(cfg, n, seed, eavesdropper="independent", *,
                     _first=None):
    """Empirical SOP, SOP_L, SPSC, EST (and EST_L) with standard errors.

    The default eavesdropper model draws the wiretap SNR from its own
    alpha-mu law, which is the model the closed forms integrate over.  The
    "shared_power" variant reuses the per-draw transmit-power factor on the
    wiretap link (physically faithful coupling through the interference
    draw); it is provided for model-gap studies.

    _first, a list, receives chunk 0, `sample_batch(cfg, min(n, CHUNK),
    seed, 0)`, so that `cli.run_validate` draws it once.
    """
    n = int(n)
    if n < 10_000:
        raise ParameterError(
            "n must be >= 1e4 (standard error would exceed 0.005)")
    sig = cfg.sigma
    counts = {"SOP": 0, "SOP_L": 0, "SPSC": 0}
    # chunk 0 last: the batch the loop ends with is the one for _first, so
    # keeping it holds no memory while the other chunks are drawn
    n_chunks = -(-n // CHUNK)
    for chunk_index in [*range(1, n_chunks), 0]:
        m = min(CHUNK, n - chunk_index * CHUNK)
        batch = sample_batch(cfg, m, seed, chunk_index)
        snr_f, snr_e = _scenario_snrs(cfg, batch, eavesdropper)
        # SOP_L at sigma * snr_e, then SOP at sigma * snr_e + sigma - 1
        threshold = sig * snr_e
        hit = np.less_equal(snr_f, threshold)
        counts["SOP_L"] += int(np.count_nonzero(hit))
        threshold += sig
        threshold -= 1.0
        counts["SOP"] += int(np.count_nonzero(
            np.less_equal(snr_f, threshold, out=hit)))
        counts["SPSC"] += int(np.count_nonzero(
            np.greater(snr_f, snr_e, out=hit)))
    if _first is not None:
        _first.append(batch)

    def prob(c):
        p = c / n
        return p, float(np.sqrt(p * (1.0 - p) / n))

    p_sop, se_sop = prob(counts["SOP"])
    p_sopl, se_sopl = prob(counts["SOP_L"])
    p_spsc, se_spsc = prob(counts["SPSC"])
    ups = cfg.target_rate
    return {
        "SOP": McEstimate(p_sop, se_sop, n, seed),
        "SOP_L": McEstimate(p_sopl, se_sopl, n, seed),
        "SPSC": McEstimate(p_spsc, se_spsc, n, seed),
        "EST": McEstimate(ups * (1.0 - p_sop), ups * se_sop, n, seed),
        "EST_L": McEstimate(ups * (1.0 - p_sopl), ups * se_sopl, n, seed),
    }


def _pchip_cdf(cdf_fn, positives, n_grid):
    """cdf_fn on a quantile subgrid of the sorted positive sample, filled in
    by monotone (PCHIP) interpolation: the CDF ks_distance_interpolated
    scans."""
    from scipy.interpolate import PchipInterpolator

    idx = np.unique(np.linspace(0, len(positives) - 1,
                                min(n_grid, len(positives))).astype(int))
    grid = np.unique(positives[idx])
    vals = np.asarray(cdf_fn(grid), dtype=float)
    vals = np.maximum.accumulate(np.clip(vals, 0.0, 1.0))
    if len(grid) == 1:
        return lambda x: np.full(len(x), vals[0])
    interp = PchipInterpolator(grid, vals, extrapolate=True)
    return lambda x: np.clip(interp(x), 0.0, 1.0)


def _ks(samples, cdf_fn, n_grid=None):
    """KS distance of samples against cdf_fn; with n_grid, the continuous
    part is read from `_pchip_cdf` on the sorted positive samples.

    The CDF is read at both ends of each block of _KS_BLOCK sorted samples.
    F is monotone, so inside a block x_s..x_e (ranks counted over the whole
    sorted sample, atom included)
        (i + 1)/n - F(x_i) <= (e + 1)/n - F(x_s)   and
        F(x_i) - i/n <= F(x_e) - s/n;
    a block is read in full only where either bound comes within _KS_MARGIN
    of the largest deviation at the block ends (or at the atom).  The result
    is the maximum of the same floats as the full scan, so it is the same
    number, provided F decreases nowhere by more than _KS_MARGIN; a decrease
    seen at the block ends raises NumericalIntegrityError.
    """
    xs = np.sort(np.asarray(samples))
    n = len(xs)
    n0 = int(np.searchsorted(xs, 0.0, side="right"))
    best = 0.0
    if n0 > 0:
        best = abs(n0 / n - float(np.asarray(cdf_fn(np.array([0.0])))[0]))
    pos = xs[n0:]
    if len(pos) == 0:
        return float(best)
    cdf = cdf_fn if n_grid is None else _pchip_cdf(cdf_fn, pos, n_grid)

    def deviations(i, f):
        """The largest of both one-sided deviations at ranks n0 + i."""
        return max(((n0 + i + 1) / n - f).max(), (f - (n0 + i) / n).max())

    starts = np.arange(0, len(pos), _KS_BLOCK)
    ends = np.minimum(starts + _KS_BLOCK, len(pos)) - 1
    edges = np.column_stack([starts, ends]).ravel()
    f_edges = np.asarray(cdf(pos[edges]), dtype=float)
    if not np.all(np.diff(f_edges) >= -_KS_MARGIN):
        raise NumericalIntegrityError(
            f"CDF decreases by more than {_KS_MARGIN} along the sorted "
            "sample; the KS scan needs a monotone CDF")
    best = max(best, deviations(edges, f_edges))
    bound = np.maximum((n0 + ends + 1) / n - f_edges[0::2],
                       f_edges[1::2] - (n0 + starts) / n)
    full = starts[bound >= best - _KS_MARGIN]
    if len(full):
        idx = (full[:, None] + np.arange(_KS_BLOCK)).ravel()
        idx = idx[idx < len(pos)]
        best = max(best, deviations(idx, np.asarray(cdf(pos[idx]),
                                                    dtype=float)))
    return float(best)


def ks_distance(samples, cdf_fn):
    """Two-sided Kolmogorov-Smirnov distance of samples against a CDF.

    Laws with a point mass at zero (blocked optical link) are handled by
    comparing the atom separately; the continuous part uses the standard
    one-sample bounds, scanned block by block (`_ks`): exactly the full
    scan's distance, from a few percent of its CDF evaluations.
    """
    return _ks(samples, cdf_fn)


def ks_distance_interpolated(samples, cdf_fn, n_grid=2048):
    """ks_distance with the CDF evaluated on a subgrid of n_grid sample
    quantiles and interpolated; for kernels too expensive to evaluate at
    every sample point.  The atom at zero is read from cdf_fn itself."""
    return _ks(samples, cdf_fn, n_grid)

"""Monte-Carlo ground truth for every channel law and secrecy metric.

Substreams are Philox counter-based generators keyed by (seed, stream), so
batches are reproducible without coordination and reductions over integer
counts are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

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
    "interp_cdf_on_samples",
]

CHUNK = 1 << 18
_STREAMS_PER_CHUNK = 8


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
    rng = substream(seed, stream)
    g = rng.gamma(ch.mu, 1.0, size=n)
    return (g / ch.delta) ** (1.0 / ch.alpha_tilde)


def sample_malaga_components(fso, n, seed, stream=0):
    """(turbulence irradiance, pointing factor) with E[turbulence] = g + Omega
    and E[pointing] = eps^2/(eps^2+1)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = substream(seed, stream)
    x = rng.gamma(fso.alpha_o, 1.0 / fso.alpha_o, size=n)
    a2 = rng.gamma(fso.beta_o, fso.omega_total / fso.beta_o, size=n)
    scale = np.sqrt(fso.g / 2.0)
    z_re = rng.normal(0.0, scale, size=n)
    z_im = rng.normal(0.0, scale, size=n)
    y = (np.sqrt(a2) + z_re) ** 2 + z_im ** 2
    pointing = rng.uniform(0.0, 1.0, size=n) ** (1.0 / fso.epsilon ** 2)
    return x * y, pointing


def sample_malaga_snr(fso, n, seed, stream=0):
    """SNR draws of the (unblocked) Malaga link: mu_s * (I / E[I])^s with the
    pointing-error factor inside I."""
    turb, pointing = sample_malaga_components(fso, n, seed, stream)
    return fso.mu_s * (turb * pointing / fso.mean_irradiance) ** fso.s


def apply_blockage(samples, blockage_p, seed, stream=0):
    """Independently zero each sample with the blockage probability."""
    if not (0.0 <= blockage_p <= 1.0):
        raise ParameterError("blockage_p must lie in [0, 1]")
    if blockage_p == 0.0:
        return np.array(samples, copy=True)
    out = np.array(samples, copy=True)
    rng = substream(seed, stream)
    out[rng.uniform(0.0, 1.0, size=len(out)) < blockage_p] = 0.0
    return out


def sample_batch(cfg, n, seed, chunk_index=0):
    base = chunk_index * _STREAMS_PER_CHUNK
    snr_p = sample_alpha_mu(cfg.rf_sp, n, seed, base + 0)
    snr_r = sample_alpha_mu(cfg.rf_sr, n, seed, base + 1)
    snr_e = sample_alpha_mu(cfg.rf_se, n, seed, base + 2)
    fso = sample_malaga_snr(cfg.fso, n, seed, base + 3)
    fso = apply_blockage(fso, cfg.fso.blockage_p, seed, base + 4)
    return SampleBatch(snr_p=snr_p, snr_r=snr_r, snr_e=snr_e, snr_fso=fso,
                       seed=seed, stream=base)


def _scenario_power(pc, snr_p):
    """The secondary transmitter's power factor at each S-P SNR draw,
    min(psi_q / x_p, psi_t) (psi_t = inf in Scenario I)."""
    return np.minimum(pc.psi_q / snr_p, pc.psi_t)


def _scenario_snrs(cfg, batch, eavesdropper):
    factor = _scenario_power(cfg.pc, batch.snr_p)
    snr_rf = factor * batch.snr_r
    snr_f = np.maximum(snr_rf, batch.snr_fso)
    if eavesdropper == "independent":
        snr_e = batch.snr_e
    elif eavesdropper == "shared_power":
        snr_e = factor * batch.snr_e
    else:
        raise ParameterError(
            f"eavesdropper must be 'independent' or 'shared_power', "
            f"got {eavesdropper!r}")
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
        counts["SOP"] += int(np.count_nonzero(snr_f <= sig * snr_e + sig - 1.0))
        counts["SOP_L"] += int(np.count_nonzero(snr_f <= sig * snr_e))
        counts["SPSC"] += int(np.count_nonzero(snr_f > snr_e))
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


def interp_cdf_on_samples(cdf_fn, xs_sorted, n_grid=2048):
    """Evaluate an expensive CDF on a quantile subgrid of a sorted sample and
    fill the remaining points by monotone interpolation (PCHIP).  Zeros (the
    blockage atom) are evaluated exactly."""
    from scipy.interpolate import PchipInterpolator

    xs = np.asarray(xs_sorted, dtype=float)
    out = np.empty(len(xs))
    pos = xs > 0
    zero_val = float(np.asarray(cdf_fn(np.array([0.0])))[0])
    out[~pos] = zero_val
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


def ks_distance(samples, cdf_fn):
    """Two-sided Kolmogorov-Smirnov distance of samples against a CDF.

    Laws with a point mass at zero (blocked optical link) are handled by
    comparing the atom separately; the continuous part uses the standard
    one-sample bounds.
    """
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
    ranks_hi = np.arange(n0 + 1, n + 1) / n
    ranks_lo = np.arange(n0, n) / n
    hi = (ranks_hi - f).max()
    lo = (f - ranks_lo).max()
    return float(max(d_atom, hi, lo))


def ks_distance_interpolated(samples, cdf_fn, n_grid=2048):
    """ks_distance with the CDF evaluated on a subgrid and interpolated;
    for kernels too expensive to evaluate at every sample point."""
    xs = np.sort(np.asarray(samples))
    return ks_distance(xs, lambda v: interp_cdf_on_samples(cdf_fn, v, n_grid))

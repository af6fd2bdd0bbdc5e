"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to stream them).

MC comparisons use the binomial standard error under the analytic value so
that saturated probabilities (0 or 1) stay well-posed.
"""

import dataclasses
import functools
import math
import time

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from cunsec.channels import MalagaCdfEvaluator, alpha_mu_cdf
from cunsec.config import config_from_dict
from cunsec.cun_cdf import PowerConstraints, cdf_rf
from cunsec.errors import ContourError
from cunsec.figures import TURBULENCE, figure_config, figure_dict
from cunsec.mc import (
    apply_blockage,
    ks_distance,
    ks_distance_interpolated,
    sample_alpha_mu,
    sample_malaga_snr,
    simulate_metrics,
)
from cunsec.secrecy import est, sop_lower, spsc
from cunsec.specfun import (
    MeijerGSpec,
    fox_h,
    gamma_fn,
    lower_incomplete_gamma,
    meijer_g,
    upper_incomplete_gamma,
)

from conftest import paper_g_kernel

N_MC = 1_000_000
SEED = 20240801
FIGS = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig10b", "fig11"]


def null_se(p_analytic, n):
    p = min(max(p_analytic, 0.0), 1.0)
    return max(math.sqrt(p * (1.0 - p) / n), 1.0 / n)


def report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag} failed: {detail}"


# --------------------------------------------------------------------------
# C1  special-function identities (< 10 s)
# --------------------------------------------------------------------------

def test_c1_special_function_identities():
    t0 = time.time()
    exp_spec = MeijerGSpec(m=1, n=0, a=(), b=(0.0,))
    for x in (0.1, 1.0, 5.0, 20.0):
        err = abs(meijer_g(exp_spec, x) - math.exp(-x)) / math.exp(-x)
        report("C1 meijer-exponential", err <= 1e-9, f"x={x} rel={err:.2e}")
    spec = MeijerGSpec(m=1, n=1, a=(1.0,), b=(2.0, 0.0))
    want = 1 - 2 * math.exp(-1)
    err = abs(meijer_g(spec, 1.0) - want) / want
    report("C1 meijer-incomplete-gamma", err <= 1e-9, f"rel={err:.2e}")
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        m = 1 + int(rng.integers(0, 3))
        b = np.round(rng.uniform(0.3, 2.5, size=m), 3)
        a = np.round(rng.uniform(b.min() + 1.5, b.min() + 3.0, size=1), 3)
        gspec = MeijerGSpec(m=m, n=1, a=tuple(a), b=tuple(b))
        z = float(rng.uniform(0.3, 2.0))
        try:
            g = meijer_g(gspec, z)
        except ContourError:
            continue
        h = fox_h(gspec.as_fox_h(), z)
        worst = max(worst, abs(h - g) / max(abs(g), 1e-300))
    report("C1 fox-h-reduction", worst <= 1e-9, f"worst rel={worst:.2e}")
    worst = 0.0
    for a in (0.3, 1.0, 2.5, 7.0, 20.0):
        for x in (0.0, 0.5, 3.0, 30.0):
            tot = lower_incomplete_gamma(a, x) + upper_incomplete_gamma(a, x)
            worst = max(worst, abs(tot - gamma_fn(a)) / gamma_fn(a))
    report("C1 complementarity", worst <= 1e-9, f"worst rel={worst:.2e}")
    report("C1 runtime", time.time() - t0 < 10.0, f"{time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# C2  CDF validation by Kolmogorov-Smirnov at 1e6 samples (< 2 min)
# --------------------------------------------------------------------------

def test_c2_cdf_ks_validation():
    t0 = time.time()
    thresh = 0.002

    cfg4 = figure_config("fig4")
    cfg2 = figure_config("fig2")
    cfg7 = figure_config("fig7")

    xs = sample_alpha_mu(cfg4.rf_sr, N_MC, seed=SEED)
    d = ks_distance(xs, lambda v: alpha_mu_cdf(cfg4.rf_sr, v))
    report("C2 alpha-mu-cdf", d < thresh, f"KS={d:.5f}")

    for label, cfg in (("s1", cfg4), ("s2", cfg2)):
        xs = sample_malaga_snr(cfg.fso, N_MC, seed=SEED + 1)
        ev = MalagaCdfEvaluator(cfg.fso, blocked=False)
        d = ks_distance_interpolated(xs, ev.eval_many, n_grid=4096)
        report(f"C2 malaga-cdf-{label}", d < thresh, f"KS={d:.5f}")

    for label, cfg in (("s1", cfg4), ("s2", cfg2)):
        xs = apply_blockage(sample_malaga_snr(cfg.fso, N_MC, seed=SEED + 2),
                            cfg.fso.blockage_p, seed=SEED + 3)
        ev = MalagaCdfEvaluator(cfg.fso, blocked=True)
        d = ks_distance_interpolated(xs, ev.eval_many, n_grid=4096)
        report(f"C2 blocked-fso-cdf-{label}", d < thresh, f"KS={d:.5f}")

    g_r = sample_alpha_mu(cfg4.rf_sr, N_MC, seed=SEED + 4)
    g_p = sample_alpha_mu(cfg4.rf_sp, N_MC, seed=SEED + 5)
    xs = cfg4.pc.psi_q * g_r / g_p
    d = ks_distance_interpolated(
        xs, lambda v: np.array([cdf_rf(cfg4, float(x)) for x in v]),
        n_grid=4096)
    report("C2 scenario1-rf-cdf", d < thresh, f"KS={d:.5f}")

    g_r = sample_alpha_mu(cfg7.rf_sr, N_MC, seed=SEED + 6)
    g_p = sample_alpha_mu(cfg7.rf_sp, N_MC, seed=SEED + 7)
    xs = np.minimum(cfg7.pc.psi_q / g_p, cfg7.pc.psi_t) * g_r
    d = ks_distance_interpolated(
        xs, lambda v: np.array([cdf_rf(cfg7, float(x)) for x in v]),
        n_grid=4096)
    report("C2 scenario2-rf-cdf", d < thresh, f"KS={d:.5f}")
    report("C2 runtime", time.time() - t0 < 120.0, f"{time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# C3  term-level oracles on a 20-point grid (< 5 min)
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
@mp.workdps(25)
def _g_kernel_mp(fso, m_o, z):
    # a pure function of the frozen link, m_o and z (it sets its own
    # precision): quad revisits the same nodes across the oracles of one point
    g = paper_g_kernel(fso, m_o)
    return float(mp.meijerg([g.a[:g.n], g.a[g.n:]], [g.b[:g.m], g.b[g.m:]], z))


def _i_point(phi_e, alpha_e, mu_e, s, eps, rate, psi_q):
    d = figure_dict("fig4")
    d["rf_se"] = {"alpha": alpha_e, "mu": mu_e, "avg_snr_db": phi_e}
    d["fso"]["s"] = s
    d["fso"]["epsilon"] = eps
    d["target_rate"] = rate
    d["power"] = {"psi_q_db": psi_q, "scenario": "I"}
    return config_from_dict(d)


def _r_point(phi_e, alpha_e, mu_e, s, eps, rate, psi_q, psi_t):
    d = figure_dict("fig7")
    d["rf_se"] = {"alpha": alpha_e, "mu": mu_e, "avg_snr_db": phi_e}
    d["fso"]["s"] = s
    d["fso"]["epsilon"] = eps
    d["target_rate"] = rate
    d["power"] = {"psi_q_db": psi_q, "psi_t_db": psi_t, "scenario": "II"}
    return config_from_dict(d)


I_GRID = [
    _i_point(10.0, 2.0, 2, 1, 1.0, 0.05, 0.0),
    _i_point(5.0, 2.0, 1, 1, 1.0, 0.0, 0.0),
    _i_point(0.0, 2.0, 2, 1, 6.7, 0.30, 5.0),
    _i_point(10.0, 3.0, 2, 1, 1.0, 0.05, 0.0),
    _i_point(5.0, 3.0, 1, 1, 6.7, 0.10, -5.0),
    _i_point(10.0, 2.0, 2, 2, 1.0, 0.05, 0.0),
    _i_point(0.0, 2.0, 1, 2, 6.7, 0.05, 5.0),
    _i_point(5.0, 3.0, 2, 2, 1.0, 0.30, 0.0),
    _i_point(-5.0, 2.0, 3, 1, 1.0, 0.05, 10.0),
    _i_point(15.0, 2.0, 2, 2, 6.7, 0.0, -5.0),
]
R_GRID = [
    _r_point(5.0, 2.0, 2, 1, 6.7, 0.05, 5.0, 10.0),
    _r_point(0.0, 2.0, 1, 1, 1.0, 0.0, 5.0, 10.0),
    _r_point(10.0, 2.0, 2, 1, 1.0, 0.30, 0.0, 5.0),
    _r_point(5.0, 3.0, 2, 1, 6.7, 0.05, 5.0, 10.0),
    _r_point(0.0, 3.0, 1, 1, 1.0, 0.10, 0.0, 15.0),
    _r_point(5.0, 2.0, 2, 2, 6.7, 0.05, 5.0, 10.0),
    _r_point(0.0, 2.0, 2, 2, 1.0, 0.05, 5.0, 0.0),
    _r_point(10.0, 3.0, 1, 2, 6.7, 0.0, 0.0, 10.0),
    _r_point(-5.0, 2.0, 3, 1, 1.0, 0.05, 10.0, 20.0),
    _r_point(5.0, 2.0, 2, 2, 1.0, 0.30, -5.0, 5.0),
]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_c3_term_level_oracles():
    from cunsec.secrecy import (
        im1_term, im2_term, im3_term, im4_term,
        r1_term, r2_term, r4_term, r5_term, r6_term, r8_term,
    )

    t0 = time.time()
    tol = 1e-4
    worst = {"im1": 0.0, "im2": 0.0, "im3": 0.0, "im4": 0.0}
    for cfg in I_GRID:
        e = cfg.rf_se
        ref, _ = quad(lambda x: x ** e.theta *
                      np.exp(-e.delta * x ** e.alpha_tilde), 0, np.inf)
        worst["im1"] = max(worst["im1"], _rel(im1_term(e), ref))

        c = cfg.fso.V * cfg.sigma / cfg.fso.mu_s
        m_o = 1 + (cfg.fso.s - 1)
        ref, _ = quad(lambda x: x ** e.theta *
                      np.exp(-e.delta * x ** e.alpha_tilde) *
                      _g_kernel_mp(cfg.fso, m_o, c * x), 0, np.inf, limit=200)
        worst["im2"] = max(worst["im2"], _rel(im2_term(cfg, m_o), ref))

        r, p = cfg.rf_sr, cfg.rf_sp
        at = r.alpha_tilde
        m_r = min(1, r.mu - 1)
        xi1s = r.delta * cfg.pc.psi_q ** (-at) * cfg.sigma ** at
        xi2 = m_r + p.mu
        ref, _ = quad(lambda x: x ** (e.theta + at * m_r) *
                      np.exp(-e.delta * x ** e.alpha_tilde) *
                      (xi1s * x ** at + p.delta) ** (-xi2), 0, np.inf,
                      limit=200)
        got, _ = im3_term(cfg, m_r)
        worst["im3"] = max(worst["im3"], _rel(got, ref))

        ref, _ = quad(lambda x: x ** (e.theta + at * m_r) *
                      np.exp(-e.delta * x ** e.alpha_tilde) *
                      (xi1s * x ** at + p.delta) ** (-xi2) *
                      _g_kernel_mp(cfg.fso, m_o, c * x), 0, np.inf, limit=200)
        got, _ = im4_term(cfg, m_r, m_o)
        worst["im4"] = max(worst["im4"], _rel(got, ref))
    for name, w in worst.items():
        report(f"C3 {name}", w <= tol, f"worst rel={w:.2e} over {len(I_GRID)} pts")

    worst = {"r1": 0.0, "r2": 0.0, "r4": 0.0, "r5": 0.0, "r6": 0.0, "r8": 0.0}
    for cfg in R_GRID:
        e, r = cfg.rf_se, cfg.rf_sr
        at = r.alpha_tilde
        xi10 = r.delta * cfg.pc.psi_t ** (-at) * cfg.sigma ** at
        c = cfg.fso.V * cfg.sigma / cfg.fso.mu_s
        m_r = min(1, r.mu - 1)
        m_o = 1 + (cfg.fso.s - 1)
        k = m_r + 1

        ref, _ = quad(lambda x: x ** e.theta *
                      np.exp(-e.delta * x ** e.alpha_tilde), 0, np.inf)
        worst["r1"] = max(worst["r1"], _rel(r1_term(cfg), ref))

        def pair(power):
            val, _ = quad(lambda x: x ** (e.theta + at * power) *
                          np.exp(-xi10 * x ** at) *
                          np.exp(-e.delta * x ** e.alpha_tilde), 0, np.inf,
                          limit=200)
            return val

        worst["r2"] = max(worst["r2"], _rel(r2_term(cfg, m_r), pair(m_r)))
        worst["r4"] = max(worst["r4"], _rel(r4_term(cfg, k), pair(k)))

        ref, _ = quad(lambda x: x ** e.theta *
                      np.exp(-e.delta * x ** e.alpha_tilde) *
                      _g_kernel_mp(cfg.fso, m_o, c * x), 0, np.inf, limit=200)
        worst["r5"] = max(worst["r5"], _rel(r5_term(cfg, m_o), ref))

        def pair_g(power):
            val, _ = quad(lambda x: x ** (e.theta + at * power) *
                          np.exp(-xi10 * x ** at) *
                          np.exp(-e.delta * x ** e.alpha_tilde) *
                          _g_kernel_mp(cfg.fso, m_o, c * x), 0, np.inf,
                          limit=200)
            return val

        worst["r6"] = max(worst["r6"], _rel(r6_term(cfg, m_r, m_o), pair_g(m_r)))
        worst["r8"] = max(worst["r8"], _rel(r8_term(cfg, k, m_o), pair_g(k)))
    for name, w in worst.items():
        report(f"C3 {name}", w <= tol, f"worst rel={w:.2e} over {len(R_GRID)} pts")
    report("C3 runtime", time.time() - t0 < 300.0, f"{time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# C4  metric oracles at 1e6 samples for every figure configuration (< 10 min)
# --------------------------------------------------------------------------

def test_c4_metric_oracles():
    t0 = time.time()
    for name in FIGS:
        cfg = figure_config(name)
        mc = simulate_metrics(cfg, N_MC, seed=SEED)
        a_sop = sop_lower(cfg).value
        a_spsc = spsc(cfg).value
        a_est = est(cfg).value
        checks = [
            ("SOP_L", a_sop, mc["SOP_L"].estimate, null_se(a_sop, N_MC)),
            ("SPSC", a_spsc, mc["SPSC"].estimate, null_se(a_spsc, N_MC)),
            ("EST", a_est, mc["EST_L"].estimate,
             cfg.target_rate * null_se(a_sop, N_MC) if cfg.target_rate else 1.0),
        ]
        for metric, a, m, se in checks:
            z = (a - m) / se
            report(f"C4 {name} {metric}", abs(z) <= 3.0,
                   f"analytic={a:.6f} mc={m:.6f} z={z:+.2f}")
    report("C4 runtime", time.time() - t0 < 600.0, f"{time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# C5  figure-trend reproduction
# --------------------------------------------------------------------------

def _sweep_sop(cfg, section_field, values):
    out = []
    for v in values:
        section, field = section_field
        new_sec = dataclasses.replace(getattr(cfg, section), **{field: v})
        c = dataclasses.replace(cfg, **{section: new_sec})
        out.append(sop_lower(c).value)
    return np.array(out)


def test_c5_figure_trends():
    t0 = time.time()
    slack = 1e-7

    cfg = figure_config("fig4")
    vals = _sweep_sop(cfg, ("pc", "psi_q_db"), np.linspace(-10, 20, 10))
    report("C5 sop-decreasing-in-psi_q", np.all(np.diff(vals) <= slack),
           f"range [{vals.min():.4f}, {vals.max():.4f}]")

    cfg = figure_config("fig5")
    vals = _sweep_sop(cfg, ("rf_sp", "avg_snr_db"), np.linspace(-10, 20, 10))
    report("C5 sop-increasing-in-phi_p", np.all(np.diff(vals) >= -slack),
           f"range [{vals.min():.4f}, {vals.max():.4f}]")

    cfg = figure_config("fig6")
    vals = _sweep_sop(cfg, ("rf_sr", "avg_snr_db"), np.linspace(0, 20, 10))
    report("C5 sop-decreasing-in-phi_r", np.all(np.diff(vals) <= slack),
           f"range [{vals.min():.4f}, {vals.max():.4f}]")

    cfg = figure_config("fig4")
    vals = _sweep_sop(cfg, ("fso", "blockage_p"), np.linspace(0, 1, 10))
    report("C5 sop-increasing-in-blockage", np.all(np.diff(vals) >= -slack),
           f"range [{vals.min():.4f}, {vals.max():.4f}]")

    base = figure_dict("fig10b")
    sop_by = {}
    for turb, (a_o, b_o) in TURBULENCE.items():
        for s in (1, 2):
            d = dict(base)
            d["fso"] = dict(base["fso"], alpha_o=a_o, beta_o=b_o, s=s)
            sop_by[(turb, s)] = sop_lower(config_from_dict(d)).value
    hd_ok = all(sop_by[(t, 1)] <= sop_by[(t, 2)] + slack for t in TURBULENCE)
    report("C5 heterodyne-beats-imdd", hd_ok,
           " ".join(f"{t}:{sop_by[(t,1)]:.4f}<={sop_by[(t,2)]:.4f}"
                    for t in TURBULENCE))
    for s in (1, 2):
        ordered = (sop_by[("weak", s)] <= sop_by[("moderate", s)] + slack
                   <= sop_by[("strong", s)] + 2 * slack)
        report(f"C5 turbulence-ordering-s{s}", ordered,
               f"weak={sop_by[('weak', s)]:.4f} "
               f"moderate={sop_by[('moderate', s)]:.4f} "
               f"strong={sop_by[('strong', s)]:.4f}")

    cfg8 = figure_config("fig8")
    est_25 = est(dataclasses.replace(
        cfg8, pc=PowerConstraints(cfg8.pc.psi_q_db, 25.0, "II"))).value
    est_35 = est(dataclasses.replace(
        cfg8, pc=PowerConstraints(cfg8.pc.psi_q_db, 35.0, "II"))).value
    report("C5 est-floor-beyond-15db", abs(est_25 - est_35) < 1e-3,
           f"|{est_25:.6f} - {est_35:.6f}| = {abs(est_25 - est_35):.2e}")
    report("C5 runtime", time.time() - t0 < 300.0, f"{time.time() - t0:.1f}s")


# --------------------------------------------------------------------------
# C6  scenario consistency at a relaxed transmit cap
# --------------------------------------------------------------------------

def test_c6_scenario_consistency():
    for name in ("fig4", "fig7", "fig8", "fig10"):
        cfg = figure_config(name)
        pc2 = PowerConstraints(cfg.pc.psi_q_db, cfg.pc.psi_q_db + 60.0, "II")
        pc1 = PowerConstraints(cfg.pc.psi_q_db, scenario="I")
        a = sop_lower(dataclasses.replace(cfg, pc=pc2)).value
        b = sop_lower(dataclasses.replace(cfg, pc=pc1)).value
        report(f"C6 {name}", abs(a - b) < 1e-3,
               f"|{a:.6f} - {b:.6f}| = {abs(a - b):.2e}")


# --------------------------------------------------------------------------
# C7  definitional identities are bit-exact
# --------------------------------------------------------------------------

def test_c7_definitional_identities():
    for name in ("fig4", "fig7", "fig8"):
        cfg = figure_config(name)
        s = spsc(cfg).value
        base = sop_lower(cfg.with_target_rate(0.0)).value
        report(f"C7 {name} spsc-complement", s + base == 1.0,
               f"spsc={s!r} sop0={base!r}")
        lhs = est(cfg).value
        rhs = cfg.target_rate * (1.0 - sop_lower(cfg).value)
        report(f"C7 {name} est-product", lhs == rhs, f"{lhs!r} == {rhs!r}")


# --------------------------------------------------------------------------
# C8  deterministic validation reports
# --------------------------------------------------------------------------

def test_c8_validate_determinism(tmp_path):
    from cunsec.cli import main

    cfg_path = tmp_path / "cfg.json"
    import json

    cfg_path.write_text(json.dumps(figure_dict("minimal")))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.txt"
        rc = main(["validate", "--config", str(cfg_path),
                   "--samples", "20000", "--seed", "77", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    report("C8 validate-byte-identical", outs[0] == outs[1],
           f"{len(outs[0])} bytes")

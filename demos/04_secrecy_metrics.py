"""The three secrecy metrics, and the paper's closed assemblies beside them.

Every metric is one expectation of the hybrid CDF over the eavesdropper law,
and sop_lower / spsc / est evaluate exactly that (route "expectation"; with
alpha_sr != alpha_sp the RF CDF is itself an expectation, route
"quadrature").  The paper expands the same expectation into integral-term
families; with alpha_sr == alpha_sp (and, where the transmit cap binds,
alpha_se == alpha_sr) sop_lower_closed assembles them as a sum of
non-negative exact Mellin-Barnes terms and returns route "closed" with an
error bound of 1e-8 relative to the value.  Scenario II takes the
regularized-gamma Fox H kernel P(mu, y) for lambda1 and part of lambda2;
Scenario I is its uncapped limit, where those terms vanish and the
negative-binomial form of I_p(mu_r, mu_p) for integer mu_p is left.  The
"closed" column is the same metric from that assembly, printed beside the
metric and Monte Carlo as a check, with the assembly's bound.  The last row is fig7 with
psi_T = 200 dB: there the assembly's bivariate Fox H lines run to
thousands of nodes per axis, which the FFT lattice sum makes cheap.
"""

import dataclasses

from cunsec import est, simulate_metrics, sop_lower, sop_lower_closed, spsc
from cunsec.figures import FIGURES, figure_config


def closed_metric(cfg, metric):
    """The metric from the closed outage assembly, its route and its error
    bound."""
    base = sop_lower_closed(cfg.with_target_rate(0.0) if metric == "spsc"
                            else cfg)
    scale = cfg.target_rate if metric == "est" else 1.0
    value = {"sop": base.value, "spsc": 1.0 - base.value,
             "est": cfg.target_rate * (1.0 - base.value)}[metric]
    return value, base.diagnostics["route"], scale * base.diagnostics["error_bound"]


fig7 = figure_config("fig7")
rows = [(name, figure_config(name), FIGURES[name]["metric"])
        for name in ("fig2", "fig4", "fig7", "fig8", "fig10")]
rows.append(("fig7-T200", dataclasses.replace(
    fig7, pc=dataclasses.replace(fig7.pc, psi_t_db=200.0)), "sop"))

print(f"{'config':9s} {'metric':5s} {'analytic':>10s} {'closed':>10s} "
      f"{'bound':>8s} {'mc(1e6)':>10s} {'z':>6s}  route / closed route")
for name, cfg, metric in rows:
    fn = {"sop": sop_lower, "spsc": spsc, "est": est}[metric]
    res = fn(cfg)
    closed, closed_route, bound = closed_metric(cfg, metric)
    mc = simulate_metrics(cfg, 1_000_000, seed=20240801)
    key = {"sop": "SOP_L", "spsc": "SPSC", "est": "EST_L"}[metric]
    se = max(mc[key].std_error, 1e-9)
    z = (res.value - mc[key].estimate) / se
    print(f"{name:9s} {metric:5s} {res.value:10.6f} {closed:10.6f} "
          f"{bound:8.1e} {mc[key].estimate:10.6f} {z:+6.2f}  "
          f"{res.diagnostics['route']} / {closed_route}")

print("\nDefinitional identities (bit-exact on the same code path):")
cfg = figure_config("fig7")
s = spsc(cfg)
sop0 = sop_lower(cfg.with_target_rate(0.0))
print(f"  SPSC + SOP_L(rate=0) = {s.value + sop0.value!r}")
e = est(cfg)
print(f"  EST = rate * (1 - SOP_L): {e.value!r} == "
      f"{cfg.target_rate * (1 - sop_lower(cfg).value)!r}")

print("\nThe outage bound vs the exact outage event (Monte Carlo):")
mc = simulate_metrics(cfg, 1_000_000, seed=7)
print(f"  SOP   (threshold s*g + s - 1) = {mc['SOP'].estimate:.6f}")
print(f"  SOP_L (threshold s*g)         = {mc['SOP_L'].estimate:.6f}")
print(f"  bound gap = {mc['SOP'].estimate - mc['SOP_L'].estimate:.6f}")

"""The three secrecy metrics, and the paper's closed assemblies beside them.

Every metric is one expectation of the hybrid CDF over the eavesdropper law,
and sop_lower / spsc / est evaluate exactly that (route "expectation"; with
alpha_sr != alpha_sp the RF CDF is itself an expectation, route
"quadrature").  The paper expands the same expectation into integral-term
families; sop_lower_scenario1/2 assemble them, and return route "closed"
only where their binomial series truncate; elsewhere (every equal-alpha
figure point) they raise ConvergenceError.  The "closed" column is the same
metric from that assembly, or the reason it raised, printed beside the
metric and Monte Carlo as a check.
"""

import dataclasses

from cunsec import (ConvergenceError, PowerConstraints, config_from_dict,
                    est, simulate_metrics, sop_lower, sop_lower_scenario1,
                    sop_lower_scenario2, spsc)
from cunsec.figures import FIGURES, figure_config


def closed_metric(cfg, metric):
    """The metric from the closed outage assembly and that assembly's route,
    or None and the reason it raised."""
    assemble = {"I": sop_lower_scenario1, "II": sop_lower_scenario2}[cfg.pc.scenario]
    try:
        base = assemble(cfg.with_target_rate(0.0) if metric == "spsc" else cfg)
    except ConvergenceError as exc:
        return None, str(exc)
    value = {"sop": base.value, "spsc": 1.0 - base.value,
             "est": cfg.target_rate * (1.0 - base.value)}[metric]
    return value, base.diagnostics["route"]


# two points where the series truncate: fig4 at psi_q = 30 dB, and a
# Scenario II point with a weak eavesdropper
fig4_q30 = dataclasses.replace(
    figure_config("fig4"), pc=PowerConstraints(psi_q_db=30.0, scenario="I"))
s2_series = config_from_dict({
    "rf_sr": {"alpha": 2, "mu": 2, "avg_snr_db": 0.0},
    "rf_sp": {"alpha": 2, "mu": 2, "avg_snr_db": 0.0},
    "rf_se": {"alpha": 2, "mu": 2, "avg_snr_db": -10.0},
    "fso": {"alpha_o": 2.296, "beta_o": 2, "g": 2.0, "omega_total": 1.0,
            "epsilon": 1.0, "s": 1, "avg_snr_db": 5.0, "blockage_p": 0.3},
    "power": {"psi_q_db": 20.0, "psi_t_db": 0.0, "scenario": "II"},
    "target_rate": 0.05,
})
points = [(name, figure_config(name), FIGURES[name]["metric"])
          for name in ("fig2", "fig4", "fig7", "fig8", "fig10")]
points += [("fig4-q30", fig4_q30, "sop"), ("s2-series", s2_series, "sop")]

print(f"{'config':9s} {'metric':5s} {'analytic':>10s} {'closed':>10s} "
      f"{'mc(1e6)':>10s} {'z':>6s}  route / closed route")
for name, cfg, metric in points:
    fn = {"sop": sop_lower, "spsc": spsc, "est": est}[metric]
    res = fn(cfg)
    closed, closed_route = closed_metric(cfg, metric)
    mc = simulate_metrics(cfg, 1_000_000, seed=20240801)
    key = {"sop": "SOP_L", "spsc": "SPSC", "est": "EST_L"}[metric]
    se = max(mc[key].std_error, 1e-9)
    z = (res.value - mc[key].estimate) / se
    closed_col = "-" if closed is None else f"{closed:10.6f}"
    print(f"{name:9s} {metric:5s} {res.value:10.6f} {closed_col:>10s} "
          f"{mc[key].estimate:10.6f} {z:+6.2f}  "
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

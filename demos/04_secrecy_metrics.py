"""The three secrecy metrics and how their closed routes report themselves.

Every metric is an expectation of the hybrid CDF over the eavesdropper law.
The closed assemblies expand it into integral-term families.  Where a tail
series cannot converge, the assembly keeps the closed FSO piece, takes the
RF tail as one quadrature over the eavesdropper SNR, and says so in the
route ("closed+quadrature-tail", "closed+quadrature-p2"), so a result is
never silently built from a divergent expansion.
"""

from cunsec import est, simulate_metrics, sop_lower, spsc
from cunsec.figures import FIGURES, figure_config

print(f"{'config':8s} {'metric':5s} {'analytic':>10s} {'mc(1e6)':>10s} "
      f"{'z':>6s}  route")
for name in ("fig2", "fig4", "fig7", "fig8", "fig10"):
    cfg = figure_config(name)
    metric = FIGURES[name]["metric"]
    fn = {"sop": sop_lower, "spsc": spsc, "est": est}[metric]
    res = fn(cfg)
    mc = simulate_metrics(cfg, 1_000_000, seed=20240801)
    key = {"sop": "SOP_L", "spsc": "SPSC", "est": "EST_L"}[metric]
    se = max(mc[key].std_error, 1e-9)
    z = (res.value - mc[key].estimate) / se
    print(f"{name:8s} {metric:5s} {res.value:10.6f} {mc[key].estimate:10.6f} "
          f"{z:+6.2f}  {res.diagnostics.get('route', '')}")

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

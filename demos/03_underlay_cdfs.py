"""End-to-end SNR CDFs of the underlay hybrid link.

Scenario I caps the secondary transmitter only through the interference
ceiling at the primary user; Scenario II adds a transmit-power cap.  The
hybrid CDF is the product of the RF-branch CDF and the blocked-optical CDF
(selection combining picks the better branch).

The Scenario II tail term exists as a finite sum of non-negative regularized
gammas (lambda2_exact) and as the paper's quadruple series (lambda2); the
series only converges below psi_q * phi_r / phi_p, and lambda2 raises beyond
0.8 of that radius, which this script makes visible.
"""

import numpy as np

from cunsec import (
    ConvergenceError,
    PowerConstraints,
    RfChannelParams,
    cdf_hybrid_scenario1,
    cdf_hybrid_scenario2,
    cdf_rf_scenario1,
    cdf_rf_scenario2,
    lambda2,
    lambda2_exact,
)
from cunsec.cun_cdf import lambda2_series_radius
from cunsec.figures import figure_config

rf_sr = RfChannelParams(alpha=2, mu=2, avg_snr_db=-5.0)
rf_sp = RfChannelParams(alpha=2, mu=2, avg_snr_db=-5.0)
pc2 = PowerConstraints(psi_q_db=5.0, psi_t_db=10.0, scenario="II")
pc1 = PowerConstraints(psi_q_db=5.0, scenario="I")

print("RF-branch CDFs (interference-limited vs double-constrained):")
for snr in (0.5, 2.0, 10.0, 50.0):
    f1 = cdf_rf_scenario1(rf_sr, rf_sp, pc1, snr)
    f2 = cdf_rf_scenario2(rf_sr, rf_sp, pc2, snr)
    print(f"  snr={snr:5.1f}   F_I={f1:.6f}   F_II={f2:.6f}")

radius = lambda2_series_radius(rf_sr, rf_sp, pc2)
print(f"\nSeries region of the tail term ends at snr = {radius:.3f}:")
for snr in (0.3 * radius, 0.9 * radius, 3.0 * radius):
    exact = lambda2_exact(rf_sr, rf_sp, pc2, snr)
    try:
        val, diag = lambda2(rf_sr, rf_sp, pc2, snr)
    except ConvergenceError as exc:
        print(f"  snr={snr:7.3f}  raises: {exc}  exact={exact:.8f}")
        continue
    print(f"  snr={snr:7.3f}  series={val:.8f}  exact={exact:.8f}  "
          f"({diag['terms']} terms)")

print("\nRelaxing the transmit cap folds Scenario II back into Scenario I:")
for psi_t in (10.0, 25.0, 45.0, 65.0):
    pc = PowerConstraints(psi_q_db=5.0, psi_t_db=psi_t, scenario="II")
    gap = max(abs(cdf_rf_scenario2(rf_sr, rf_sp, pc, x)
                  - cdf_rf_scenario1(rf_sr, rf_sp, pc1, x))
              for x in np.logspace(-1, 2, 25))
    print(f"  psi_t = {psi_t:4.0f} dB   sup gap = {gap:.2e}")

print("\nHybrid (selection-combining) CDFs at the figure operating points:")
cfg1 = figure_config("fig4")
cfg2 = figure_config("fig7")
for x in (1.0, 5.0, 20.0):
    print(f"  snr={x:5.1f}  hybrid_I={cdf_hybrid_scenario1(cfg1, x):.6f}  "
          f"hybrid_II={cdf_hybrid_scenario2(cfg2, x):.6f}")

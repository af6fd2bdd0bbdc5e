"""End-to-end SNR CDFs of the underlay hybrid link.

Scenario I caps the secondary transmitter only through the interference
ceiling at the primary user; Scenario II adds a transmit-power cap, and
Scenario I is its uncapped limit.  The hybrid CDF of either scenario
(cdf_hybrid) is the product of the RF-branch CDF and the blocked-optical
CDF (selection combining picks the better branch).

The Scenario II CDF is lambda1 + lambda2; the tail term lambda2 is a finite
sum of non-negative regularized gammas, so it stays accurate where it is
small, which this script makes visible.
"""

import numpy as np

from cunsec import (
    PowerConstraints,
    RfChannelParams,
    cdf_hybrid,
    cdf_rf_scenario1,
    cdf_rf_scenario2,
    lambda1,
    lambda2,
)
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

print("\nThe two Scenario II pieces, each a sum of non-negative terms:")
for snr in (1e-6, 1e-3, 0.5, 10.0):
    l1 = lambda1(rf_sr, rf_sp, pc2, snr)
    l2 = lambda2(rf_sr, rf_sp, pc2, snr)
    print(f"  snr={snr:7.1e}  lambda1={l1:.6e}  lambda2={l2:.6e}")

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
    print(f"  snr={x:5.1f}  hybrid_I={cdf_hybrid(cfg1, x):.6f}  "
          f"hybrid_II={cdf_hybrid(cfg2, x):.6f}")

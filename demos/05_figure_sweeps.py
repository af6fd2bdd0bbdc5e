"""Reproduce figure-style parameter sweeps and write them as CSV.

Each reference curve is a metric swept along one config axis.  The sweep
engine evaluates the grid points one after another and emits one CSV row
per point with a manifest line on top, so a plotting tool of choice can
consume the file.
"""

import io

from cunsec.cli import RunManifest, _write_sweep_csv, run_sweep
from cunsec.figures import FIGURES, figure_config

SWEEPS = [
    # EST rises with the interference ceiling, then saturates
    ("fig2", "power.psi_q_db", -10.0, 20.0, 13, ["est"]),
    # SOP falls as the ceiling loosens
    ("fig4", "power.psi_q_db", -10.0, 20.0, 13, ["sop", "spsc"]),
    # Scenario II: SOP flattens once the transmit cap stops binding
    ("fig7", "power.psi_t_db", 0.0, 30.0, 13, ["sop"]),
]

for name, axis, lo, hi, points, metrics in SWEEPS:
    cfg = figure_config(name)
    rows = run_sweep(cfg, axis, lo, hi, points, metrics)
    manifest = RunManifest.build(cfg)
    out = io.StringIO()
    _write_sweep_csv(out, manifest, axis, metrics, rows)
    path = f"sweep_{name}_{axis.split('.')[-1]}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    print(f"{name}: {FIGURES[name]['pin']}")
    print(f"  wrote {path}")
    for value, row in rows[::4]:
        cells = "  ".join(f"{m}={row[m]:.6f}" for m in metrics)
        print(f"    {axis} = {value:6.1f}   {cells}   [{row['route']}]")
    print()

"""Analytic-vs-Monte-Carlo validation, as the `cunsec validate` command
would report it: metric z-scores plus per-channel KS rows, PASS/FAIL."""

from cunsec.cli import RunManifest, _render_validate, run_validate
from cunsec.figures import figure_config

cfg = figure_config("fig4")
report, passed = run_validate(cfg, n=200_000, seed=20240801)
manifest = RunManifest.build(cfg, seed=20240801, timestamp=False)
print(_render_validate(report, manifest))
print("exit code would be", 0 if passed else 3)

"""Seeded operation lists of the benchmark workloads, and the untimed checks
that judge each operation's output.

Every workload is a closed loop of operations on the library's public entry
points: ``cli.run_eval`` (what ``cunsec eval`` calls) and ``cli.run_validate``
(what ``cunsec validate`` calls).  The workload seed fixes every input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from cunsec import cli
from cunsec.config import config_from_dict
from cunsec.figures import FIGURES, figure_dict
from cunsec.mc import simulate_metrics

WORKLOADS = ("figure_points", "mixed_alpha_s2", "validate")
METRICS = ("sop", "spsc", "est")

N_MC = 1_000_000
# Monte-Carlo seed of the correctness checks (the C4 acceptance seed).  It is
# fixed rather than drawn from the workload seed so that the checks of nearby
# operating points share their random numbers: a check then flags a bias of
# the analytic value, not a fresh 3-sigma draw in one of ~30 tests per run.
CHECK_SEED = 20240801
Z_MAX = 3.0

# Sweep-axis shifts of the figure points, in dB.  The shifts are fixed and
# the seed deals them out: a point's cost jumps with the shift (fig2 costs two
# to three times as much at +3 dB as at -3 dB, and the cost of other figures
# is not monotone in it), so shifts drawn from the whole +-3 dB range made the
# cost of a pass vary by about 10% from seed to seed.
AXIS_SHIFTS_DB = (-2.0, 0.0, 2.0)

# Strata of the eavesdropper stretch exponent alpha_se for the mixed-alpha
# Scenario II workload.  Each stratum lies in [1.5, 3.5] with
# |alpha_se - 2| >= 0.25, so every operation takes the bivariate Fox H
# route.  One operation per stratum keeps the cost of a pass steady across
# seeds: fig10 (mu = 6) costs about twice fig7 (mu = 2), and its cost varies
# most with alpha_se, so it gets the narrow middle stratum.
MIXED_STRATA = (
    ("fig7", 1.50, 1.75),
    ("fig7", 2.25, 2.60),
    ("fig7", 2.60, 2.95),
    ("fig7", 2.95, 3.25),
    ("fig7", 3.25, 3.50),
    ("fig10", 2.25, 2.75),
)

# Validation configs: Scenario I closed route, Scenario II, and the
# mixed-alpha quadrature route.  A pass validates each twice, with its own
# Monte-Carlo seed: with one each, the median latency of a pass was a single
# latency sample of one config.
VALIDATE_FIGURES = ("fig4", "fig7", "fig3")
VALIDATE_ROUNDS = 2


@dataclass(frozen=True)
class Op:
    """One operation: a metric evaluation or a validation run."""

    metric: str          # sop | spsc | est, or "validate"
    cfg: object
    cfg_key: str         # identity of the config, for check and reference
    mc_seed: int = 0     # run_validate seed

    @property
    def key(self):
        return f"{self.cfg_key}:{self.metric}"


def _figure_points(rng):
    """Every figure point once per metric, each at its own sweep-axis shift:
    the seed permutes which metric takes which shift."""
    ops = []
    for name, entry in FIGURES.items():
        section, field = entry["axis"].split(".")
        for metric, shift in zip(METRICS, rng.sample(AXIS_SHIFTS_DB, 3)):
            d = figure_dict(name)
            value = d[section][field] + shift
            d[section][field] = value
            ops.append(Op(metric, config_from_dict(d),
                          f"{name}:{entry['axis']}={value!r}"))
    return ops


def _mixed_alpha_s2(rng):
    ops = []
    for name, lo, hi in MIXED_STRATA:
        d = figure_dict(name)
        alpha = rng.uniform(lo, hi)
        d["rf_se"]["alpha"] = alpha
        metric = rng.choice(("sop", "spsc"))
        ops.append(Op(metric, config_from_dict(d),
                      f"{name}:rf_se.alpha={alpha!r}"))
    return ops


def _validate(rng):
    return [Op("validate", config_from_dict(figure_dict(name)),
               name, mc_seed=rng.randrange(1 << 31))
            for _ in range(VALIDATE_ROUNDS) for name in VALIDATE_FIGURES]


def build(workload, seed):
    """The workload's operations, in seeded order."""
    makers = {"figure_points": _figure_points,
              "mixed_alpha_s2": _mixed_alpha_s2,
              "validate": _validate}
    rng = random.Random(f"perfbench/{workload}/{seed}")
    ops = makers[workload](rng)
    rng.shuffle(ops)
    return ops


def execute(op):
    """Run one operation through the CLI entry point; returns its output."""
    if op.metric == "validate":
        return cli.run_validate(op.cfg, N_MC, op.mc_seed)
    return cli.run_eval(op.cfg, op.metric)


def values_of(op, output):
    """Analytic metric values of an operation's output, by metric name."""
    if op.metric != "validate":
        return {op.metric: float(output.value)}
    rows = {r["metric"]: r["analytic"] for r in output[0]["metrics"]}
    return {"sop": rows["SOP_L"], "spsc": rows["SPSC"], "est": rows["EST"]}


def null_se(p, n):
    """Standard error of an n-sample frequency under the analytic value p,
    floored at 1/n (the C4 acceptance rule)."""
    p = min(max(p, 0.0), 1.0)
    return max(math.sqrt(p * (1.0 - p) / n), 1.0 / n)


def z_score(metric, analytic, mc_value, rate, n):
    """z of an analytic value against its Monte-Carlo estimate; EST is
    compared with EST_L, whose error is rate times that of SOP_L."""
    if metric == "est":
        se = rate * null_se(1.0 - analytic / rate, n) if rate else 1.0
    else:
        se = null_se(analytic, n)
    return (analytic - mc_value) / se


class Checker:
    """Untimed correctness checks, with one Monte-Carlo run per config."""

    _MC_KEY = {"sop": "SOP_L", "spsc": "SPSC", "est": "EST_L"}

    def __init__(self):
        self._mc = {}

    def values_ok(self, op, values):
        """Every analytic value within Z_MAX null-SE of a seeded 1e6-sample
        simulation at the same config."""
        if op.cfg_key not in self._mc:
            self._mc[op.cfg_key] = simulate_metrics(op.cfg, N_MC, CHECK_SEED)
        mc = self._mc[op.cfg_key]
        return all(
            abs(z_score(m, v, mc[self._MC_KEY[m]].estimate,
                        op.cfg.target_rate, N_MC)) <= Z_MAX
            for m, v in values.items())

    @staticmethod
    def verdict_ok(op, output):
        """A validation report's PASS/FAIL agrees with the verdict derived
        from its own analytic and Monte-Carlo numbers under the null-SE
        rule, and from its own KS rows."""
        report, passed = output
        n = report["n"]
        metric = {"SOP_L": "sop", "SPSC": "spsc", "EST": "est"}
        derived = all(
            abs(z_score(metric[r["metric"]], r["analytic"], r["mc"],
                        op.cfg.target_rate, n)) <= Z_MAX
            for r in report["metrics"])
        derived = derived and all(r["ks"] < r["threshold"] for r in report["ks"])
        return derived == passed == report["pass"]

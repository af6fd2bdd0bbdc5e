"""Command-line interface: metric evaluation, figure-style sweeps,
analytic-vs-Monte-Carlo validation, and channel sampling, all emitting CSV
or JSON with a run manifest.

Exit codes: 0 success, 2 configuration or numerical error, 3 validation FAIL.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .channels import MalagaCdfEvaluator, alpha_mu_cdf
from .config import (_field_path, config_to_dict, load_config,
                     replace_by_path)
from .cun_cdf import cdf_rf
from .errors import ConfigError, CunsecError
from .mc import (ks_distance, ks_distance_interpolated, sample_alpha_mu,
                 sample_malaga_snr, simulate_metrics, _scenario_power)
from .secrecy import est, sop_lower, spsc

__all__ = ["RunManifest", "run_eval", "run_sweep", "run_validate", "main",
           "load_config"]

METRICS = {"sop": sop_lower, "spsc": spsc, "est": est}


@dataclasses.dataclass
class RunManifest:
    config_hash: str
    tool_version: str
    seed: int | None
    generated_at: str | None = None

    @classmethod
    def build(cls, cfg, seed=None, timestamp=True):
        payload = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
        return cls(
            config_hash=hashlib.sha256(payload).hexdigest()[:16],
            tool_version=__version__,
            seed=seed,
            generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            if timestamp else None,
        )

    def as_json(self):
        d = dataclasses.asdict(self)
        if d["generated_at"] is None:
            del d["generated_at"]
        return json.dumps(d, sort_keys=True)


def _open_out(path):
    """The output file at path, opened for writing; an unwritable path is a
    configuration error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _scenario_override(cfg, scenario):
    if scenario is None:
        return cfg
    pc = dataclasses.replace(cfg.pc, scenario={"1": "I", "2": "II"}[scenario])
    return dataclasses.replace(cfg, pc=pc)


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def run_eval(cfg, metric):
    return METRICS[metric](cfg)


def _cmd_eval(args):
    cfg = _scenario_override(load_config(args.config), args.scenario)
    result = run_eval(cfg, args.metric)
    manifest = RunManifest.build(cfg)
    print(json.dumps({
        "metric": args.metric,
        "kind": result.kind,
        "scenario": result.scenario,
        "value": result.value,
        "diagnostics": {k: v for k, v in result.diagnostics.items()
                        if isinstance(v, (str, int, float))},
        "manifest": json.loads(manifest.as_json()),
    }, sort_keys=True))
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def run_sweep(cfg, axis, start, stop, points, metrics):
    """Evaluate metrics along one axis, one point after another; returns
    [(axis_value, row dict)].  The axis path and the metric list are
    checked before the first point (ConfigError); a failure that depends
    on the axis value is recorded in that point's row."""
    if points < 2:
        raise ConfigError("a sweep needs at least 2 points")
    _field_path(cfg, axis)
    if not metrics:
        raise ConfigError(f"no metric to sweep; pick from {sorted(METRICS)}")
    for m in metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r}; pick from {sorted(METRICS)}")
    values = np.linspace(float(start), float(stop), int(points))

    def one(v):
        row = {}
        try:
            c = replace_by_path(cfg, axis, float(v))
            for m in metrics:
                res = METRICS[m](c)
                row[m] = res.value
                row.setdefault("route", res.diagnostics.get("route", ""))
            row["error"] = ""
        except CunsecError as exc:
            for m in metrics:
                row.setdefault(m, "")
            row.setdefault("route", "")
            row["error"] = f"{exc.category}: {exc}"
        return row

    return [(v, one(v)) for v in values.tolist()]


def _write_sweep_csv(out, manifest, axis, metrics, rows):
    out.write(f"# {manifest.as_json()}\n")
    cols = ["axis", "axis_value"] + list(metrics) + ["route", "error"]
    out.write(",".join(cols) + "\n")
    for value, row in rows:
        cells = [axis, repr(value)]
        for m in metrics:
            cells.append(repr(row[m]) if isinstance(row[m], float) else "")
        cells.append(row.get("route", ""))
        err = row.get("error", "")
        cells.append('"' + err.replace('"', "'") + '"' if err else "")
        out.write(",".join(cells) + "\n")


def _cmd_sweep(args):
    cfg = _scenario_override(load_config(args.config), args.scenario)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    rows = run_sweep(cfg, args.axis, args.start, args.stop, args.points, metrics)
    manifest = RunManifest.build(cfg)
    if args.out:
        with _open_out(args.out) as fh:
            _write_sweep_csv(fh, manifest, args.axis, metrics, rows)
    else:
        _write_sweep_csv(sys.stdout, manifest, args.axis, metrics, rows)
    return 0


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def _null_se(p, n):
    """Standard error of an n-sample frequency whose true value is p,
    floored at 1/n so that p at 0 or 1 still gives a finite z."""
    p = min(max(p, 0.0), 1.0)
    return max(math.sqrt(p * (1.0 - p) / n), 1.0 / n)


def run_validate(cfg, n, seed):
    """Analytic-vs-MC table plus channel-law KS rows.

    z uses the standard error under the analytic value (the null), not the
    Monte-Carlo estimate's own, which is 0 when no sample falls in the
    event.  EST is compared with EST_L, whose error is the target rate times
    that of SOP_L.  The std_error column is the Monte-Carlo standard error.

    Returns (report dict, passed flag).  n must be >= 1e4.
    """
    n = int(n)
    first = []
    mc = simulate_metrics(cfg, n, seed, _first=first)
    rows = []
    analytic = {
        "SOP_L": sop_lower(cfg).value,
        "SPSC": spsc(cfg).value,
    }
    analytic["EST"] = cfg.target_rate * (1.0 - analytic["SOP_L"])
    se_sop = _null_se(analytic["SOP_L"], n)
    null_se = {"SOP_L": se_sop, "SPSC": _null_se(analytic["SPSC"], n),
               "EST": cfg.target_rate * se_sop}
    comparators = {"SOP_L": "SOP_L", "SPSC": "SPSC", "EST": "EST_L"}
    passed = True
    for name, mc_key in comparators.items():
        estm = mc[mc_key]
        se = max(null_se[name], 1e-12)  # EST at target rate 0
        z = (analytic[name] - estm.estimate) / se
        ok = abs(z) <= 3.0
        passed &= ok
        rows.append({"metric": name, "analytic": analytic[name],
                     "mc": estm.estimate, "std_error": estm.std_error,
                     "z": z, "pass": ok})

    ks_rows = []
    ks_threshold = float(2.0 / np.sqrt(min(n, 1 << 18)))

    def ks_row(name, samples, cdf_vec, expensive=False):
        nonlocal passed
        if expensive:
            d = ks_distance_interpolated(samples, cdf_vec, n_grid=1024)
        else:
            d = ks_distance(samples, cdf_vec)
        ok = d < ks_threshold
        passed &= ok
        ks_rows.append({"channel": name, "ks": d, "threshold": ks_threshold,
                        "pass": ok})

    # chunk 0 of the Monte-Carlo run above
    batch = first[0]
    ks_row("rf_sr", batch.snr_r, lambda x: alpha_mu_cdf(cfg.rf_sr, x))
    ks_row("rf_sp", batch.snr_p, lambda x: alpha_mu_cdf(cfg.rf_sp, x))
    ks_row("rf_se", batch.snr_e, lambda x: alpha_mu_cdf(cfg.rf_se, x))
    fso_eval = MalagaCdfEvaluator(cfg.fso, blocked=True)
    ks_row("fso_blocked", batch.snr_fso, fso_eval.eval_many, expensive=True)
    rf_samples = _scenario_power(cfg.pc, batch.snr_p) * batch.snr_r
    ks_row("rf_scenario", rf_samples, lambda x: cdf_rf(cfg, x),
           expensive=True)
    report = {"metrics": rows, "ks": ks_rows, "n": n, "seed": seed,
              "pass": bool(passed)}
    return report, bool(passed)


def _render_validate(report, manifest):
    lines = [f"# {manifest.as_json()}"]
    lines.append("metric,analytic,mc,std_error,z,pass")
    for r in report["metrics"]:
        lines.append(
            f"{r['metric']},{r['analytic']!r},{r['mc']!r},"
            f"{r['std_error']!r},{r['z']!r},{'PASS' if r['pass'] else 'FAIL'}")
    lines.append("channel,ks,threshold,pass")
    for r in report["ks"]:
        lines.append(f"{r['channel']},{r['ks']!r},{r['threshold']!r},"
                     f"{'PASS' if r['pass'] else 'FAIL'}")
    lines.append(f"overall,{'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cmd_validate(args):
    cfg = _scenario_override(load_config(args.config), args.scenario)
    report, passed = run_validate(cfg, args.samples, args.seed)
    manifest = RunManifest.build(cfg, seed=args.seed, timestamp=False)
    text = _render_validate(report, manifest)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 3


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

def _cmd_sample(args):
    cfg = load_config(args.config)
    if args.channel == "alpha-mu":
        ch = {"sr": cfg.rf_sr, "sp": cfg.rf_sp, "se": cfg.rf_se}[args.link]
        draws = sample_alpha_mu(ch, args.n, args.seed)
    else:
        draws = sample_malaga_snr(cfg.fso, args.n, args.seed)
    manifest = RunManifest.build(cfg, seed=args.seed)
    with _open_out(args.out) as fh:
        fh.write(f"# {manifest.as_json()}\n")
        fh.write("snr\n")
        for v in draws:
            fh.write(f"{float(v)!r}\n")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cunsec",
        description="Secrecy metrics of an underlay cognitive hybrid RF/FSO "
                    "link, with Monte-Carlo validation.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--scenario", choices=["1", "2"], default=None,
                       help="override the config scenario")

    p = sub.add_parser("eval", help="evaluate one metric")
    common(p)
    p.add_argument("--metric", required=True, choices=sorted(METRICS))
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", help="metric sweep along one config axis")
    common(p)
    p.add_argument("--axis", required=True,
                   help="dotted config path, e.g. power.psi_q_db")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--metrics", required=True,
                   help="comma list from sop,spsc,est")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("validate", help="analytic vs Monte-Carlo validation")
    common(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("sample", help="draw channel samples to CSV")
    common(p)
    p.add_argument("--channel", required=True, choices=["alpha-mu", "malaga"])
    p.add_argument("--link", choices=["sr", "sp", "se"], default="sr",
                   help="which RF link for alpha-mu draws")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CunsecError as exc:
        sys.stderr.write(json.dumps(
            {"error": exc.category, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

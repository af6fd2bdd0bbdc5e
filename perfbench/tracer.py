"""Per-module spans and counters for a traced benchmark pass.

The library is wrapped from outside: each public function of a layer is
replaced, for the length of the pass, under every name through which a
caller actually reaches it.  That covers the definition site, names
re-bound by ``from .x import y``, the metric functions held in
``cli.METRICS``, and the methods of the evaluator classes that callers import
lazily inside functions.  Spans nest on a stack, so a span's self time is its
busy time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from cunsec import channels, cli, cun_cdf, mc, secrecy, specfun

SECRECY_TERMS = ("im3_term", "im4_term", "g_exp_moment", "g_exp_pair_moment",
                 "exp_pair_moment", "r2_term", "r4_term", "r5_term",
                 "sop_lower_quadrature")


@dataclass
class SpanStats:
    calls: int = 0
    args: int = 0
    busy: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Context manager that installs the wrappers, and the statistics they
    gather."""

    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.routes = Counter()
        self.im34_series = 0
        self._stack = []
        self._saved = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, count=None, on_return=None):
        stats, stack = self.stats[name], self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            if count is not None:
                stats.args += count(args)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                stats.busy += dur
                stats.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_route(self, result):
        self.routes[result.diagnostics.get("route", "none").replace("+", "_")] += 1

    def _count_series(self, result):
        self.im34_series += result[1] == "series"

    def _targets(self):
        """(span name, [(owner, attribute)], count, on_return)."""
        n_args = lambda args: int(np.size(args[1]))
        route = self._count_route
        targets = [
            ("specfun.fox_h", [(specfun, "fox_h"), (secrecy, "fox_h")]),
            ("specfun.fox_h_bivariate", [(specfun, "fox_h_bivariate"),
                                         (secrecy, "fox_h_bivariate")]),
            ("specfun.LineEvaluator.init", [(specfun.LineEvaluator, "__init__")]),
            ("specfun.LineEvaluator.eval_many",
             [(specfun.LineEvaluator, "eval_many")], n_args),
            ("channels.MalagaCdfEvaluator.init",
             [(channels.MalagaCdfEvaluator, "__init__")]),
            ("channels.MalagaCdfEvaluator.eval_many",
             [(channels.MalagaCdfEvaluator, "eval_many")], n_args),
            ("cun_cdf.cdf_rf", [(cun_cdf, "cdf_rf"), (secrecy, "cdf_rf"),
                                (cli, "cdf_rf")]),
        ]
        for term in SECRECY_TERMS:
            series = self._count_series if term in ("im3_term", "im4_term") else None
            targets.append((f"secrecy.{term}", [(secrecy, term)], None, series))
        targets += [
            ("secrecy.sop_lower", [(cli, "sop_lower"), (cli.METRICS, "sop")],
             None, route),
            ("secrecy.spsc", [(cli, "spsc"), (cli.METRICS, "spsc")], None, route),
            ("secrecy.est", [(cli, "est"), (cli.METRICS, "est")], None, route),
            ("mc.simulate_metrics", [(mc, "simulate_metrics"),
                                     (cli, "simulate_metrics")],
             lambda args: int(args[1])),
            ("mc.sample_batch", [(mc, "sample_batch")]),
            ("mc.ks_distance", [(mc, "ks_distance"), (cli, "ks_distance")]),
            ("mc.ks_distance_interpolated",
             [(mc, "ks_distance_interpolated"), (cli, "ks_distance_interpolated")]),
            ("cli.run_eval", [(cli, "run_eval")]),
            ("cli.run_validate", [(cli, "run_validate")]),
        ]
        return [t + (None,) * (4 - len(t)) for t in targets]

    def __enter__(self):
        for name, owners, count, on_return in self._targets():
            owner, attr = owners[0]
            wrapper = self._wrap(name, _get(owner, attr), count, on_return)
            for owner, attr in owners:
                self._saved.append((owner, attr, _get(owner, attr)))
                _set(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            _set(*self._saved.pop())
        return False

    @staticmethod
    def wrapper_cost(n=20000, repeats=5):
        """Seconds a wrapper adds to one call, measured on a no-op: the best
        of `repeats` loops of `n` wrapped calls less the best of as many bare
        ones."""
        def noop(*args):
            return None

        def best(fn):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(n):
                    fn(None, None)
                times.append(time.perf_counter() - t0)
            return min(times)

        wrapped = Tracer()._wrap("probe", noop)
        return max(best(wrapped) - best(noop), 0.0) / n

    # -- results ----------------------------------------------------------

    def wrapped_calls(self):
        return sum(st.calls for st in self.stats.values())

    def counts(self):
        """Machine-independent counts: equal on two fresh processes that make
        one pass over the same operations."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.args"] = st.args
        out["mc.simulate_metrics.samples"] = self.stats["mc.simulate_metrics"].args
        out["secrecy.im34.series"] = self.im34_series
        for label, n in self.routes.items():
            out[f"secrecy.route.{label}"] = n
        return out

    def metrics(self):
        """Per-layer metrics by name."""
        out = self.counts()
        for name, st in self.stats.items():
            out[f"{name}.busy_s"] = st.busy
            out[f"{name}.self_s"] = st.self_time
        im34 = (self.stats["secrecy.im3_term"].calls
                + self.stats["secrecy.im4_term"].calls)
        out["secrecy.im34.series_frac"] = self.im34_series / im34 if im34 else 0.0
        sim = self.stats["mc.simulate_metrics"]
        out["mc.simulate_metrics.samples_per_s"] = \
            sim.args / sim.busy if sim.busy else 0.0
        return out


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)

"""The benchmark tracer still finds every library name it wraps.

perfbench/tracer.py replaces functions and methods of the library by name
for the length of a traced pass.  Renaming or deleting one of them breaks
the traced benchmark run; entering and leaving a Tracer here makes that a
test failure instead.
"""

import importlib.util
import sys
from pathlib import Path

from cunsec import cli, secrecy, specfun
from cunsec.figures import figure_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    before = (secrecy.sop_lower_quadrature, secrecy.fox_h, cli.sop_lower,
              dict(cli.METRICS), specfun.LineEvaluator.__init__)
    tracer = _load_tracer(monkeypatch).Tracer()
    try:
        with tracer:
            assert secrecy.sop_lower_quadrature is not before[0]
    finally:
        tracer.__exit__(None, None, None)  # undoes a partial __enter__ too
    assert tracer.wrapped_calls() == 0
    assert (secrecy.sop_lower_quadrature, secrecy.fox_h, cli.sop_lower,
            dict(cli.METRICS), specfun.LineEvaluator.__init__) == before


def test_traced_closed_forms_reach_every_wrapped_name(monkeypatch):
    # no benchmark workload calls the closed-form terms, so a term that
    # stopped reaching a wrapped name would go unnoticed by the benchmark
    module = _load_tracer(monkeypatch)
    fig4, fig7 = figure_config("fig4"), figure_config("fig7")
    theta, coeff = fig7.rf_se.theta, fig7.rf_se.delta
    args = {
        "im3_term": (fig4, 0),
        "im4_term": (fig4, 0, 1),
        "g_exp_moment": (fig7, 1, theta),
        "g_exp_pair_moment": (fig7, 1, theta, coeff),
        "exp_pair_moment": (fig7, theta, coeff),
        "r2_term": (fig7, 0),
        "r4_term": (fig7, 1),
        "r5_term": (fig7, 1),
        "sop_lower_quadrature": (fig4,),
    }
    assert set(args) == set(module.SECRECY_TERMS)
    with module.Tracer() as tracer:
        for name in module.SECRECY_TERMS:
            getattr(secrecy, name)(*args[name])
        secrecy.sop_lower_closed(fig4)
        secrecy.sop_lower_closed(fig7)
    spans = [f"secrecy.{name}" for name in module.SECRECY_TERMS]
    for span in spans + ["specfun.fox_h", "specfun.fox_h_bivariate"]:
        assert tracer.stats[span].calls > 0, span

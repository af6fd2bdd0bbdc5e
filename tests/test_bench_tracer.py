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

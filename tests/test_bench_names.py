"""The benchmark's tracer wraps library functions by attribute name.

``bench/tracing.py`` looks up each traced layer (``model.duplicate``,
``solver.colex_subsets``, ``solver._Evaluator``, ...) with ``getattr``, so
deleting or renaming one breaks ``bench/run.py --trace 1`` and
``--self-check``.  Installing the tracer here makes such a change fail the
test suite instead.
"""

import importlib.util
from pathlib import Path

import teamcheck

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(teamcheck)
    finally:
        tracer.uninstall()

"""What the benchmark assumes of the library.

``bench/tracing.py`` looks up each traced layer (``model.duplicate``,
``solver.colex_subsets``, ``solver._Evaluator``, ...) with ``getattr``, so
deleting or renaming one breaks ``bench/run.py --trace 1`` and
``--self-check``.  Installing the tracer here makes such a change fail the
test suite instead.

``bench/run.py`` also imports teamcheck afresh for every pass, after
dropping it from ``sys.modules``, so a pass's ``peak_rss_mb`` counts the
earlier passes' packages that something outside them still holds.
"""

import importlib.util
import os
import subprocess
import sys
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


REIMPORT = """
import gc, sys, types
for _ in range(3):
    for name in [n for n in sys.modules if n == "teamcheck" or n.startswith("teamcheck.")]:
        del sys.modules[name]
    import teamcheck.cli, teamcheck.corpus, teamcheck.verify
gc.collect()
print(sum(isinstance(o, types.FunctionType) and o.__qualname__ == "wt_solve" for o in gc.get_objects()))
"""


def test_a_fresh_import_leaves_nothing_of_the_last_one():
    # e.g. a module-level ``typing`` alias over a teamcheck class: typing caches
    # it, and the class's generated methods hold their module's globals
    source = str(Path(teamcheck.__file__).resolve().parents[1])
    environment = {**os.environ, "PYTHONPATH": source}
    child = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=environment, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1"]

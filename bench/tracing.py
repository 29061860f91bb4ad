"""Per-layer spans recorded from outside teamcheck.

The tracer replaces module-global names that teamcheck's modules look up
(``solver.wd_check``, ``inclusion.duplicate``, ...) with wrappers that record
one span per call: layer name, start, end, parent span and instance id.
Spans stay in memory in flat arrays and are written out when the run ends.
A layer's self time is its spans' durations minus the time covered by their
direct child spans.

Three layers need more than a wrapped function:

* ``solver.colex_subsets`` is a generator; each resumption is one span, and
  each yielded subset counts as a candidate.  Its ``extendable`` callback is
  counted (``solver.prune_calls``, ``solver.pruned``) but not spanned.
* ``evaluator.check`` spans only the solver's top-level calls into
  ``_Evaluator.check``, not the evaluator's own recursion.
* ``model.team_new`` spans ``Team.__init__``, i.e. every ``Team`` built.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

#: Wrapped layers: span name, defining module, attribute names.
FUNCTION_LAYERS = (
    ("formulas.parse", "formulas", ("parse",)),
    ("formulas.classify", "formulas", ("classify",)),
    ("formulas.free_vars", "formulas", ("free_vars",)),
    ("prop.parse_prop", "prop", ("parse_prop",)),
    ("reductions.encode", "reductions", (
        "encode_clique", "encode_domset", "encode_indset", "encode_wsat",
        "build_syntax_circuit", "theta_formula",
    )),
    ("solver.wt_solve", "solver", ("wt_solve",)),
    ("solver.wd_solve", "solver", ("wd_solve",)),
    ("solver.wd_check", "solver", ("wd_check",)),
    ("evaluator.eval_fo_tarski", "evaluator", ("eval_fo_tarski",)),
    ("evaluator.eval_team", "evaluator", ("eval_team",)),
    ("inclusion.eval_inclusion", "inclusion", ("eval_inclusion",)),
    ("model.duplicate", "model", ("duplicate",)),
)

#: Functions that call themselves through their own module's global; only
#: calls from other modules are wrapped.
RECURSIVE = {("formulas", "free_vars")}

#: Every layer reported, in the order of the report.
LAYER_NAMES = (
    "formulas.parse", "formulas.classify", "formulas.free_vars",
    "prop.parse_prop",
    "reductions.encode",
    "solver.wt_solve", "solver.wd_solve", "solver.wd_check", "solver.colex_subsets",
    "evaluator.eval_fo_tarski", "evaluator.eval_team", "evaluator.check",
    "inclusion.eval_inclusion",
    "model.duplicate", "model.team_new",
)

COUNTERS = ("solver.candidates", "solver.prune_calls", "solver.pruned")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.instance = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.sat_searches = 0
        self._searched = False
        self._restore: list = []

    # -- spans -----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        names = self.span_name
        stack = self._stack

        def traced(*args, **kwargs):
            # A wrapped function called from inside the same layer (an encoder
            # building a syntax circuit) stays part of the outer span.
            if stack and names[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            span = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, tc) -> None:
        """Wrap every layer; ``uninstall`` puts the originals back."""
        modules = [m for name, m in sys.modules.items() if name == "teamcheck" or name.startswith("teamcheck.")]
        for layer, home, attrs in FUNCTION_LAYERS:
            home_module = getattr(tc, home)
            for attr in attrs:
                original = getattr(home_module, attr)
                wrapper = self.wrap(layer, original)
                if layer in ("solver.wt_solve", "solver.wd_solve"):
                    wrapper = self._count_sat(wrapper)
                for module in modules:
                    if getattr(module, attr, None) is not original:
                        continue
                    if module is home_module and (home, attr) in RECURSIVE:
                        continue
                    self._set(module, attr, wrapper)
        self._set(tc.solver, "colex_subsets", self._traced_colex(tc.solver.colex_subsets))
        self._set(tc.solver, "_Evaluator", self._traced_evaluator(tc.solver._Evaluator))
        self._set(tc.model.Team, "__init__", self.wrap("model.team_new", tc.model.Team.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_sat(self, solve):
        def counted(*args, **kwargs):
            self._searched = False
            result = solve(*args, **kwargs)
            if self._searched and result is not None:
                self.sat_searches += 1
            return result

        return counted

    def _traced_colex(self, colex_subsets):
        name_id = self.name_id("solver.colex_subsets")
        counts = self.counts

        def extendable_counter(extendable):
            def counted(partial):
                counts["solver.prune_calls"] += 1
                ok = extendable(partial)
                if not ok:
                    counts["solver.pruned"] += 1
                return ok

            return counted

        def traced(indices, k, extendable=None):
            if extendable is not None:
                extendable = extendable_counter(extendable)
            self._searched = True
            inner = colex_subsets(indices, k, extendable)
            while True:
                span = self._open(name_id)
                try:
                    candidate = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                counts["solver.candidates"] += 1
                yield candidate

        return traced

    def _traced_evaluator(self, evaluator_class):
        check = self.wrap("evaluator.check", evaluator_class.check)

        class TracedEvaluator(evaluator_class):
            _entered = False

            def check(inner, team, formula):
                if inner._entered:
                    return evaluator_class.check(inner, team, formula)
                inner._entered = True
                try:
                    return check(inner, team, formula)
                finally:
                    inner._entered = False

        return TracedEvaluator

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per layer."""
        count = len(self.span_start)
        covered = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for span in range(count):
            parent = parents[span]
            if parent >= 0:
                covered[parent] += ends[span] - starts[span]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for span, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += ends[span] - starts[span] - covered[span]
        return (
            {name: calls[i] for i, name in enumerate(self.names)},
            {name: self_s[i] for i, name in enumerate(self.names)},
        )

    def write(self, stem: Path) -> tuple[Path, Path]:
        """Spans as a JSON header plus one binary file of the flat arrays, in order."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header_path = stem.with_name(stem.name + ".spans.json")
        data_path = stem.with_name(stem.name + ".spans.bin")
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "parent:i", "instance:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        header_path.write_text(json.dumps(header, indent=1) + "\n")
        with open(data_path, "wb") as out:
            for column in (self.span_name, self.span_parent, self.span_instance, self.span_start, self.span_end):
                column.tofile(out)
        return header_path, data_path

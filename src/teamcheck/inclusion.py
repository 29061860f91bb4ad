"""Polynomial evaluation of inclusion-logic formulas via maximal subteams.

Satisfying teams of a formula built from first-order literals and inclusion
atoms are closed under unions, so every team has a unique maximal
satisfying subteam: the union of all satisfying subteams.

``compile_max`` walks the formula once for a fixed structure and variable
order and returns a function from a row set to its maximal satisfying
subset.  Everything that depends only on the formula is settled during
that walk: the fragment and free-variable checks read the facts the
formula's nodes carry, and the walk resolves relations and constants and
the column index of every term, and takes each quantifier's extended
variable order and per-row extensions from ``model.extension_memo``
(shared, when small, by every structure with the same domain size).  The compiled nodes
then work on bare ``frozenset``s of rows, with no ``Team`` objects, and
remember per row what does not change between calls (literal truth,
quantifier extensions), so a search that checks many candidate teams
compiles once and pays for each distinct row once:

* a first-order subformula, quantified or not, keeps the rows that satisfy
  its one compiled ``row_test``;
* an inclusion atom repeatedly deletes rows whose left value is missing
  from the surviving right values;
* a disjunction takes the union of its operands' maximal subteams;
* a conjunction alternates the two operands to a mutual fixpoint;
* an existential keeps rows with at least one surviving extension in the
  maximal subteam of the duplicated rows;
* a universal repeatedly keeps rows all of whose extensions survive.

``max_subteam`` and ``eval_inclusion`` compile and run once per call;
``eval_inclusion`` reports whether the maximal subteam is the whole team.
Correctness is established in the test suite purely by agreement with the
exhaustive evaluator and with subteam enumeration.
"""

from __future__ import annotations

import operator
from itertools import chain, compress
from typing import Callable, Iterable

from .errors import EvaluationError
from .evaluator import Rows, require_in_domain, row_test, term_values
from .formulas import And, Exists, Forall, Formula, Inc, Or
from .model import Memo, Row, Structure, Team, extension_memo

MaxSubteam = Callable[[Rows], Rows]


def compile_max(structure: Structure, variables: Iterable[str], formula: Formula) -> MaxSubteam:
    """The maximal-subteam map of ``formula`` on teams over the sorted ``variables``.

    The returned function takes the row set of such a team (value tuples
    aligned with ``variables``) and returns its maximal satisfying subset.
    Values must be elements of the structure; callers check that.
    """
    banned = formula.atoms & {"dep", "indep"}
    if banned:
        raise EvaluationError(
            f"the fixpoint evaluator handles only literals and inclusion atoms, got {sorted(banned)}"
        )
    variables = tuple(variables)
    if variables != tuple(sorted(set(variables))):
        raise ValueError("team variables must be sorted and distinct")
    missing = formula.free - set(variables)
    if missing:
        raise EvaluationError(f"free variables {sorted(missing)} are not in the team domain")
    return _Compiler(structure).node(formula, variables)


class _Compiler:
    def __init__(self, structure: Structure):
        self.structure = structure

    def node(self, formula: Formula, variables: tuple[str, ...]) -> MaxSubteam:
        if formula.first_order:
            return self.first_order(formula, variables)
        if isinstance(formula, Inc):
            return self.inclusion(formula, variables)
        if isinstance(formula, Or):
            left, right = self.node(formula.left, variables), self.node(formula.right, variables)
            return lambda rows: left(rows) | right(rows)
        if isinstance(formula, And):
            return self.conjunction(formula, variables)
        if isinstance(formula, (Exists, Forall)):
            return self.quantifier(formula, variables)
        raise EvaluationError(f"unexpected node {type(formula).__name__}")

    def first_order(self, formula: Formula, variables: tuple[str, ...]) -> MaxSubteam:
        truth = Memo(row_test(self.structure, formula, variables))

        def run(rows: Rows) -> Rows:
            return frozenset(compress(rows, map(truth.__getitem__, rows)))

        return run

    def inclusion(self, formula: Inc, variables: tuple[str, ...]) -> MaxSubteam:
        # Both sides share one width, so bare values may stand for 1-tuples.
        get_left = term_values(self.structure, formula.left, variables, bare=True)
        get_right = term_values(self.structure, formula.right, variables, bare=True)

        def run(rows: Rows) -> Rows:
            while True:
                right_values = set(map(get_right, rows))
                if right_values.issuperset(map(get_left, rows)):
                    return rows
                rows = frozenset(compress(rows, map(right_values.__contains__, map(get_left, rows))))

        return run

    def conjunction(self, formula: And, variables: tuple[str, ...]) -> MaxSubteam:
        left, right = self.node(formula.left, variables), self.node(formula.right, variables)

        def run(rows: Rows) -> Rows:
            while True:
                passed = right(left(rows))
                # passed is a subset of rows, so equal sizes mean a fixpoint
                if len(passed) == len(rows):
                    return rows
                rows = passed

        return run

    def quantifier(self, formula: Exists | Forall, variables: tuple[str, ...]) -> MaxSubteam:
        extended, extensions = extension_memo(self.structure.domain_size, variables, formula.variable)
        body = self.node(formula.body, extended)

        def surviving(rows: Rows) -> tuple[list[tuple[Row, ...]], Rows]:
            per_row = list(map(extensions.__getitem__, rows))
            return per_row, body(frozenset(chain.from_iterable(per_row)))

        if isinstance(formula, Exists):
            def run_exists(rows: Rows) -> Rows:
                per_row, kept = surviving(rows)
                return frozenset(compress(rows, map(operator.not_, map(kept.isdisjoint, per_row))))

            return run_exists

        def run_forall(rows: Rows) -> Rows:
            while True:
                per_row, kept = surviving(rows)
                passed = frozenset(compress(rows, map(kept.issuperset, per_row)))
                if len(passed) == len(rows):
                    return rows
                rows = passed

        return run_forall


def max_subteam(structure: Structure, team: Team, formula: Formula) -> Team:
    """The unique maximal subteam satisfying the formula."""
    require_in_domain(structure, team)
    return Team(team.variables, compile_max(structure, team.variables, formula)(team.rows))


def eval_inclusion(structure: Structure, team: Team, formula: Formula) -> bool:
    """Team satisfaction for inclusion-logic formulas in polynomial time."""
    return max_subteam(structure, team, formula).rows == team.rows

"""Polynomial evaluation of inclusion-logic formulas via maximal subteams.

Satisfying teams of a formula built from first-order literals and inclusion
atoms are closed under unions, so every team has a unique maximal
satisfying subteam: the union of all satisfying subteams.

``compile_max`` binds the formula's ``FIXPOINT`` plan to a structure, once
(``evaluator.bound``), and returns a map from a row set to its maximal
satisfying subset.  The plan is built once per (formula, variable order)
and kept on the formula node, like every plan in ``evaluator``: it checks
the fragment and the free variables, settles each node's clause and the
column of every term, and records each quantifier's extended variable
order.  The bind looks up relations and constants and takes each
quantifier's per-row extensions from ``model.extension_memo`` (shared, when
small, by every structure with the same domain size).  The bound nodes then
work on bare ``frozenset``s of rows, with no ``Team`` objects, and remember
per row what does not change between calls (literal truth, quantifier
extensions), so the calls on one structure pay for each distinct row once,
and keep no row-set memos:

* a first-order subformula, quantified or not, keeps the rows that satisfy
  its one row test;
* an inclusion atom repeatedly deletes rows whose left value is missing
  from the surviving right values;
* a disjunction takes the union of its operands' maximal subteams;
* a conjunction alternates the two operands to a mutual fixpoint;
* an existential keeps rows with at least one surviving extension in the
  maximal subteam of the duplicated rows;
* a universal repeatedly keeps rows all of whose extensions survive.

``max_subteam`` and ``eval_inclusion`` run that map; ``eval_inclusion``
reports whether the maximal subteam is the whole team.
Correctness is established in the test suite purely by agreement with the
exhaustive evaluator and with subteam enumeration.
"""

from __future__ import annotations

import operator
from itertools import chain, compress
from typing import Callable, Iterable

from .errors import EvaluationError
from .evaluator import (
    Binding,
    Reading,
    Rows,
    atom_clause,
    bind_terms,
    bound,
    connective_clause,
    quantifier_clause,
    require_in_domain,
)
from .formulas import And, Exists, Forall, Formula, Inc, Or
from .model import Memo, Row, Structure, Team, extension_memo

MaxSubteam = Callable[[Rows], Rows]


def _check(formula: Formula, variables: tuple[str, ...]) -> None:
    banned = formula.atoms & {"dep", "indep"}
    if banned:
        raise EvaluationError(
            f"the fixpoint evaluator handles only literals and inclusion atoms, got {sorted(banned)}"
        )
    if variables != tuple(sorted(set(variables))):
        raise ValueError("team variables must be sorted and distinct")
    missing = formula.free - set(variables)
    if missing:
        raise EvaluationError(f"free variables {sorted(missing)} are not in the team domain")


def _keep_passing(binding: Binding, test: int) -> MaxSubteam:
    truth = Memo(binding[test])
    return lambda rows: frozenset(compress(rows, map(truth.__getitem__, rows)))


def _inclusion(binding: Binding, left, right) -> MaxSubteam:
    # Both sides share one width, so bare values may stand for 1-tuples.
    get_left = bind_terms(binding.structure, left)
    get_right = bind_terms(binding.structure, right)

    def run(rows: Rows) -> Rows:
        while True:
            right_values = set(map(get_right, rows))
            if right_values.issuperset(map(get_left, rows)):
                return rows
            rows = frozenset(compress(rows, map(right_values.__contains__, map(get_left, rows))))

    return run


def _union(binding: Binding, left: int, right: int) -> MaxSubteam:
    left, right = binding[left], binding[right]
    return lambda rows: left(rows) | right(rows)


def _conjunction(binding: Binding, left: int, right: int) -> MaxSubteam:
    left, right = binding[left], binding[right]

    def run(rows: Rows) -> Rows:
        while True:
            passed = right(left(rows))
            # passed is a subset of rows, so equal sizes mean a fixpoint
            if len(passed) == len(rows):
                return rows
            rows = passed

    return run


def _surviving(extensions: Memo, body: MaxSubteam, rows: Rows) -> tuple[list[tuple[Row, ...]], Rows]:
    """Each row's extensions, and the body's maximal subteam of all of them."""
    per_row = list(map(extensions.__getitem__, rows))
    return per_row, body(frozenset(chain.from_iterable(per_row)))


def _exists(binding: Binding, variables: tuple[str, ...], variable: str, body: int) -> MaxSubteam:
    _, extensions = extension_memo(binding.structure.domain_size, variables, variable)
    body = binding[body]

    def run(rows: Rows) -> Rows:
        per_row, kept = _surviving(extensions, body, rows)
        return frozenset(compress(rows, map(operator.not_, map(kept.isdisjoint, per_row))))

    return run


def _forall(binding: Binding, variables: tuple[str, ...], variable: str, body: int) -> MaxSubteam:
    _, extensions = extension_memo(binding.structure.domain_size, variables, variable)
    body = binding[body]

    def run(rows: Rows) -> Rows:
        while True:
            per_row, kept = _surviving(extensions, body, rows)
            passed = frozenset(compress(rows, map(kept.issuperset, per_row)))
            if len(passed) == len(rows):
                return rows
            rows = passed

    return run


FIXPOINT = Reading(
    "fixpoint",
    {
        Inc: atom_clause(_inclusion, "left", "right"),
        Or: connective_clause(_union),
        And: connective_clause(_conjunction),
        Exists: quantifier_clause(_exists),
        Forall: quantifier_clause(_forall),
    },
    _keep_passing,
    _check,
)


def compile_max(structure: Structure, variables: Iterable[str], formula: Formula) -> MaxSubteam:
    """The maximal-subteam map of ``formula`` on teams over the sorted ``variables``.

    The returned function takes the row set of such a team (value tuples
    aligned with ``variables``) and returns its maximal satisfying subset.
    Values must be elements of the structure; callers check that.
    """
    return bound(formula, tuple(variables), FIXPOINT, structure).root


def max_subteam(structure: Structure, team: Team, formula: Formula) -> Team:
    """The unique maximal subteam satisfying the formula."""
    require_in_domain(structure, team)
    return Team(team.variables, compile_max(structure, team.variables, formula)(team.rows))


def eval_inclusion(structure: Structure, team: Team, formula: Formula) -> bool:
    """Team satisfaction for inclusion-logic formulas in polynomial time."""
    require_in_domain(structure, team)
    return compile_max(structure, team.variables, formula)(team.rows) == team.rows

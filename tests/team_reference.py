"""Team satisfaction straight from the team-semantics definitions.

A differential-test oracle for ``eval_team`` that shares no search code
with it.  A team is a list of assignment dicts.  Literals are decided row by
row with ``eval_fo_tarski``; disjunctions enumerate every cover (lax: each
row goes left, right or both; strict: left or right), existentials every
supplementing function (lax: a nonempty value set per row; strict: one
value per row), universals duplicate.  Nothing is memoised, so the cost is
exponential in the team size: keep teams to a few rows.
"""

from __future__ import annotations

import itertools

from teamcheck.evaluator import eval_fo_tarski
from teamcheck.formulas import And, Dep, Exists, Forall, Inc, Indep, Or, Var


def satisfies(structure, team, formula, *, strict=False) -> bool:
    """Does the team (an iterable of assignment dicts) satisfy the formula?"""

    def value(terms, s):
        return tuple(s[t.name] if isinstance(t, Var) else structure.constants[t.name] for t in terms)

    def distinct(rows):
        unique = {tuple(sorted(s.items())): s for s in rows}
        return list(unique.values())

    def sat(rows, node):
        if isinstance(node, Dep):
            return all(
                value(node.determined, s) == value(node.determined, t)
                for s in rows
                for t in rows
                if value(node.determinants, s) == value(node.determinants, t)
            )
        if isinstance(node, Inc):
            return all(any(value(node.left, s) == value(node.right, t) for t in rows) for s in rows)
        if isinstance(node, Indep):
            return all(
                any(
                    value(node.condition, r) == value(node.condition, s)
                    and value(node.left, r) == value(node.left, s)
                    and value(node.right, r) == value(node.right, t)
                    for r in rows
                )
                for s in rows
                for t in rows
                if value(node.condition, s) == value(node.condition, t)
            )
        if isinstance(node, And):
            return sat(rows, node.left) and sat(rows, node.right)
        if isinstance(node, Or):
            sides = (0, 1) if strict else (0, 1, 2)  # 0 left, 1 right, 2 both
            for labels in itertools.product(sides, repeat=len(rows)):
                left = [s for s, side in zip(rows, labels) if side != 1]
                right = [s for s, side in zip(rows, labels) if side != 0]
                if sat(left, node.left) and sat(right, node.right):
                    return True
            return False
        if isinstance(node, Exists):
            elements = list(structure.elements)
            if strict:
                value_sets = [(a,) for a in elements]
            else:
                value_sets = [
                    chosen
                    for size in range(1, len(elements) + 1)
                    for chosen in itertools.combinations(elements, size)
                ]
            for function in itertools.product(value_sets, repeat=len(rows)):
                supplemented = [
                    {**s, node.variable: a} for s, chosen in zip(rows, function) for a in chosen
                ]
                if sat(distinct(supplemented), node.body):
                    return True
            return False
        if isinstance(node, Forall):
            duplicated = [{**s, node.variable: a} for s in rows for a in structure.elements]
            return sat(distinct(duplicated), node.body)
        # a first-order literal: flat, so every row must satisfy it classically
        return all(eval_fo_tarski(structure, s, node) for s in rows)

    return sat(distinct(list(team)), formula)


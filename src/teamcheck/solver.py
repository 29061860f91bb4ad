"""Weighted team search and weighted definability with a free relation symbol.

``wt_solve`` looks for a team of exactly ``k`` distinct assignments over
the formula's free variables.  Candidate teams are enumerated in colex
order over assignment indices (assignments ordered as ``canonical_rows``
yields them), so witnesses are reproducible.  Three exact refinements keep
the search tractable without changing verdicts or witnesses:

* rows failing a top-level first-order conjunct are excluded up front —
  first-order formulas are flat, so every row of a satisfying team must
  satisfy them (a first-order formula is thus settled by counting rows);
* on downward-closed fragments (no inclusion/independence atoms), partial
  teams that already fail can be pruned, since supersets of failing teams
  fail too;
* branches that cannot reach ``k`` rows are cut by counting.

``solve_path`` is the one table from fragment to check: first-order
formulas are decided by one compiled ``row_test`` per row, inclusion
formulas by the polynomial fixpoint, dependence formulas by the strict
evaluator, everything else by the generic lax evaluator; nothing overrides
it.  ``compile_check`` builds the chosen check once, as a function of a
bare row set; the fixpoint accepts a row set ``R`` when its maximal
satisfying subset is ``R`` itself.  ``wt_solve`` builds it once per search, after the
counting cut; a sentence is searched like any formula, over the one row
``()``.  ``check_sentence`` and ``teamcheck check`` run the same check.

``wd_solve`` looks for a size-``k`` interpretation of a free relation
symbol that makes a sentence true, again in colex order.  The formula is
compiled once per search; candidates rebind its free symbol.  Pruning is by
the symbol's polarity (formulas are in negation normal form):

* if the symbol occurs only negatively, or not at all, the formula is
  antitone in it, so a partial choice that already fails is cut;
* if it occurs only positively, the formula is monotone, so a partial
  choice is cut when it fails even with every smaller index added — no
  completion can exceed that set;
* mixed polarity gets no pruning.

Both cuts remove only subtrees without solutions, so the witness is the
same as an unpruned search would find.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import EvaluationError
from .evaluator import Rows, _Evaluator, eval_fo_tarski, row_test
from .formulas import (
    Formula,
    FragmentReport,
    NegRel,
    Rel,
    classify,
    first_order_part,
    subformulas,
)
from .inclusion import compile_max
from .model import Row, Structure, Team, canonical_rows


@dataclass(frozen=True)
class WtInstance:
    """One weighted team definability question: structure, formula, team size."""

    structure: Structure
    formula: Formula
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("team size must be nonnegative")


@dataclass(frozen=True)
class WdFormula:
    """A first-order formula over the vocabulary plus one free relation symbol."""

    formula: Formula
    symbol: str = "S"
    arity: int = 1

    def occurrences(self) -> tuple[str, ...]:
        """Polarity of each occurrence of the free symbol, in syntactic order."""
        out = []
        for sub in subformulas(self.formula):
            if isinstance(sub, Rel) and sub.name == self.symbol:
                out.append("positive")
            elif isinstance(sub, NegRel) and sub.name == self.symbol:
                out.append("negative")
        return tuple(out)


def colex_subsets(
    indices: int,
    k: int,
    extendable: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Size-k index subsets in colex order, with optional partial-choice pruning.

    Partial choices are passed largest-index-first; when ``extendable``
    returns false for a partial, every candidate extending it is skipped.
    Only proper partials (fewer than ``k`` picks) are offered to
    ``extendable``: complete choices are yielded, and the caller checks them.
    """

    def rec(limit: int, chosen: tuple[int, ...], need: int) -> Iterator[tuple[int, ...]]:
        if need == 0:
            yield chosen
            return
        for m in range(need - 1, limit):
            extended = chosen + (m,)
            if need > 1 and extendable is not None and not extendable(extended):
                continue
            yield from rec(m, extended, need - 1)

    yield from rec(indices, (), k)


_PATHS = {"FO": "fo-counting", "FO(inc)": "inclusion-fixpoint", "FO(dep)": "strict"}


def solve_path(report: FragmentReport) -> str:
    """The check that decides teams of a classified formula, sentences included.

    By fragment: ``fo-counting`` (one row test per row) for FO,
    ``inclusion-fixpoint`` for FO(inc), ``strict`` for FO(dep), ``generic``
    (the lax evaluator) for the rest.
    """
    return _PATHS.get(report.fragment, "generic")


def compile_check(
    structure: Structure,
    formula: Formula,
    variables: tuple[str, ...],
    path: str,
) -> Callable[[Rows], bool]:
    """Row set over the sorted ``variables`` -> does it satisfy ``formula``, by ``path``'s check.

    Compiled once.  Callers check that ``variables`` hold the free variables
    and that every value is an element of the structure.  ``"strict"``
    agrees with the lax reading only without inclusion or independence atoms.
    """
    if path == "inclusion-fixpoint":
        maximal = compile_max(structure, variables, formula)
        return lambda rows: maximal(rows) == rows
    # either evaluator compiles a first-order formula to one row test per row
    return _Evaluator(structure, path == "strict").node(formula, variables)


def check_sentence(structure: Structure, formula: Formula) -> bool:
    """Truth of a sentence: whether the one-row team ``{()}`` satisfies it."""
    if formula.free:
        raise EvaluationError("check_sentence expects a sentence without free variables")
    path = solve_path(classify(formula))
    return compile_check(structure, formula, (), path)(frozenset({()}))


def wt_solve(instance: WtInstance) -> Team | None:
    """First witnessing team of exactly ``k`` rows, or ``None``.

    ``k = 0`` always yields the empty team (every formula holds on it).
    For sentences only ``k <= 1`` can succeed.
    """
    structure, formula, k = instance.structure, instance.formula, instance.k
    variables = tuple(sorted(formula.free))
    report = classify(formula)
    path = solve_path(report)
    if k == 0:
        return Team.empty(variables)
    rows = canonical_rows(structure.domain_size, variables)

    allowed_indices = list(range(len(rows)))
    part = first_order_part(formula)
    if part is not None:
        allowed = row_test(structure, part, variables)
        allowed_indices = [i for i in allowed_indices if allowed(rows[i])]
    if len(allowed_indices) < k:
        return None
    # compiled only now: searches settled by counting rows never pay for it
    check = compile_check(structure, formula, variables, path)

    extendable = None
    if not report.atoms & {"inc", "indep"}:
        # downward closed: a failing partial team has no satisfying superset
        def extendable(partial: tuple[int, ...]) -> bool:
            return check(frozenset(rows[allowed_indices[i]] for i in partial))

    for combo in colex_subsets(len(allowed_indices), k, extendable):
        team_rows = frozenset(rows[allowed_indices[i]] for i in combo)
        if check(team_rows):
            return Team(variables, team_rows)
    return None


def _validate_wd(structure: Structure, wd: WdFormula) -> None:
    """Checks that depend only on the structure and the formula, not on the tuples."""
    if structure.vocabulary.relation_arity(wd.symbol) is not None:
        raise EvaluationError(f"free symbol {wd.symbol!r} clashes with the vocabulary")
    if wd.formula.free:
        raise EvaluationError("weighted definability formulas must be sentences")


def wd_check(structure: Structure, wd: WdFormula, interpretation: Iterable[Row]) -> bool:
    """Tarski truth of the formula with the free symbol interpreted by the given tuples."""
    tuples = frozenset(tuple(t) for t in interpretation)
    for tup in tuples:
        if len(tup) != wd.arity:
            raise EvaluationError(f"tuple {tup} does not match free-symbol arity {wd.arity}")
        if any(not (0 <= v < structure.domain_size) for v in tup):
            raise EvaluationError(f"tuple {tup} mentions elements outside the domain")
    _validate_wd(structure, wd)
    return eval_fo_tarski(structure, {}, wd.formula, extra_relations={wd.symbol: tuples})


def wd_solve(structure: Structure, wd: WdFormula, k: int) -> frozenset[Row] | None:
    """First size-k interpretation of the free symbol making the formula true.

    The formula is validated and compiled once; candidates come from the
    domain, so they need no per-tuple checks.  Subtrees that the free symbol's
    polarity rules out are pruned, which never changes the colex-first witness.
    """
    if k < 0:
        raise ValueError("solution size must be nonnegative")
    universe = list(itertools.product(structure.elements, repeat=wd.arity))
    if k > len(universe):
        return None
    _validate_wd(structure, wd)
    cell = [frozenset()]
    test = row_test(structure, wd.formula, (), (wd.symbol, cell))

    def holds(indices: tuple[int, ...]) -> bool:
        cell[0] = frozenset(universe[i] for i in indices)
        return test(())

    polarities = set(wd.occurrences())
    extendable = None
    if polarities <= {"negative"}:
        # antitone: a failing partial has no satisfying superset
        extendable = holds
    elif polarities == {"positive"}:
        # monotone: every completion lies inside the partial plus all smaller indices
        def extendable(partial: tuple[int, ...]) -> bool:
            return holds(partial + tuple(range(partial[-1])))

    for combo in colex_subsets(len(universe), k, extendable):
        if holds(combo):
            return frozenset(universe[i] for i in combo)
    return None

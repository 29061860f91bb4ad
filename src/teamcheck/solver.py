"""Weighted team search and weighted definability with a free relation symbol.

``wt_solve`` looks for a team of exactly ``k`` distinct assignments over
the formula's free variables; ``wd_solve`` for a size-``k`` interpretation
of a free relation symbol that makes a sentence true.  Both run one
search, ``first_colex``: candidates in colex order (rows as
``canonical_rows`` lists them, tuples as ``itertools.product`` does), so
witnesses are reproducible, cut by a closure property of the check.  A cut
removes only subtrees without solutions, so the witness is the one an
unpruned search finds.  The search draws its items from a stream, item m
only when m first becomes the top pick: every k-subset of the items below
m comes before any that contains m in colex order (Knuth, TAOCP 4A,
7.2.1.3).  Under the antitone cut an item that fails alone leaves the
stream, since every set containing it fails too.

``solve_path`` is the one table from fragment to check and cut.  FO is
decided by one ``row_test`` per row and FO(dep) by the strict evaluator;
both are downward closed, so a failing partial team is cut.  FO(inc) is
decided by the polynomial fixpoint: a row set passes when it is its own
maximal satisfying subset.  FO(inc) is union closed and holds on the empty
team (Galliani 2012), so that subset holds every satisfying subset; the
``"union"`` cut drops a partial team outside the maximal subset of the rows
its completions may use, or when that subset is smaller than ``k``.  The
rest go to the generic lax evaluator, uncut.  ``compile_check`` binds the
chosen check's plan (see ``evaluator``) once per structure, as a function
of a bare row set.  ``wt_solve`` empties the check's row-set memos afterwards.
``wt_solve`` streams the rows through the formula's top-level first-order
conjuncts (first-order formulas are flat, so a first-order formula is
settled by counting rows) and binds the check only once ``k`` rows have
passed; a sentence is searched like any formula, over the one row ``()``.
``check_sentence`` and ``teamcheck check`` run the same check.

``wd_solve`` binds the formula's row test once per search; candidates
rebind its free symbol's cell.
The cut follows the symbol's polarity (formulas are in negation normal
form): only negative occurrences, or none, make the formula antitone in
it; only positive ones make it monotone; mixed ones get no cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import EvaluationError
from .evaluator import Binding, Rows, _Evaluator, bound, eval_fo_tarski, row_test
from .formulas import (
    Formula,
    FragmentReport,
    NegRel,
    Rel,
    classify,
    first_order_part,
    subformulas,
)
from .inclusion import FIXPOINT
from .model import Row, Structure, Team


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

    @cached_property
    def cut(self) -> str | None:
        """The ``first_colex`` cut the symbol's polarity allows, found once per formula."""
        polarities = set(self.occurrences())
        return "antitone" if polarities <= {"negative"} else "monotone" if polarities == {"positive"} else None


def colex_subsets(
    available: Callable[[int], bool],
    k: int,
    extendable: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Size-k index subsets in colex order, with optional partial-choice pruning.

    ``available(m)`` says whether index ``m`` exists.  It is asked only of
    top picks, in ascending order from ``k - 1``, and the indices below an
    available one are taken to exist, so a caller can draw item ``m`` from
    a stream on the first ask.

    Partial choices are passed largest-index-first; when ``extendable``
    returns false for a partial, every candidate extending it is skipped.
    Only proper partials (fewer than ``k`` picks) are offered to
    ``extendable``: complete choices are yielded, and the caller checks them.
    The picks so far and each one's remaining range wait on explicit
    stacks, so ``k`` is not bounded by the recursion limit.
    """
    if k == 0:
        yield ()
        return
    picks: list[int] = []
    # the next pick ranges below the previous one, leaving room for the picks after it
    ranges = [itertools.takewhile(available, itertools.count(k - 1))]
    while ranges:
        for m in ranges[-1]:
            partial = (*picks, m)
            if len(partial) == k:
                yield partial
            elif extendable is None or extendable(partial):
                picks.append(m)
                ranges.append(iter(range(k - len(partial) - 1, m)))
                break
        else:
            ranges.pop()
            if picks:
                picks.pop()


_PATHS = {
    "FO": ("fo-counting", "antitone"),
    "FO(inc)": ("inclusion-fixpoint", "union"),
    "FO(dep)": ("strict", "antitone"),
}


def solve_path(report: FragmentReport) -> tuple[str, str | None]:
    """The check that decides teams of a classified formula, and its search's cut.

    By fragment: ``fo-counting`` (one row test per row) for FO,
    ``inclusion-fixpoint`` for FO(inc), ``strict`` for FO(dep), ``generic``
    (the lax evaluator) for the rest.  The cut is a ``first_colex`` cut.
    """
    return _PATHS.get(report.fragment, ("generic", None))


def first_colex(
    items: Iterable,
    k: int,
    holds: Callable[[frozenset], bool],
    cut: str | None,
    maximal: Callable[[frozenset], frozenset] | None = None,
) -> frozenset | None:
    """The colex-first ``k``-subset of ``items`` that ``holds``, or ``None``.

    ``cut`` names a closure property of ``holds``: ``"antitone"`` cuts a
    failing partial; ``"monotone"`` cuts a partial that fails even with
    every earlier item added; ``"union"`` cuts a partial unless ``maximal``
    of that same set contains the partial and has at least ``k`` items;
    ``None`` cuts nothing.  ``"union"`` needs a ``holds`` closed under
    unions and true of the empty set, and ``maximal`` mapping a set to its
    largest subset that holds: that subset then contains every subset that
    holds, and every completion of the partial is such a subset.

    ``items`` is drawn one item at a time, item m once m first becomes the
    top pick: every k-subset of the items below m precedes, in colex order,
    any subset that contains m.  The ``"monotone"`` and ``"union"`` pools
    lie below the top pick, so they are drawn already.  Under
    ``"antitone"`` an item whose one-item set fails leaves the stream: a
    set that holds and contains it would make that one-item set hold.
    Dropping items keeps the others' order, and colex order on the kept
    items agrees with colex order on all of them, so the witness is the
    same.  Every drawn item then holds alone: a one-item partial is not
    tested again, and at ``k = 1`` the first drawn item is the witness.
    """
    stream, drawn = iter(items), []

    def available(m: int) -> bool:
        if m < len(drawn):
            return True
        for item in stream:
            drawn.append(item)
            if m < len(drawn):
                return True
        return False

    def chosen(indices: tuple[int, ...]) -> frozenset:
        return frozenset(drawn[i] for i in indices)

    extendable = None
    if cut == "antitone":
        stream = (item for item in stream if holds(frozenset((item,))))

        def extendable(partial: tuple[int, ...]) -> bool:
            return len(partial) == 1 or holds(chosen(partial))
    elif cut == "monotone":
        def extendable(partial: tuple[int, ...]) -> bool:
            return holds(chosen(partial + tuple(range(partial[-1]))))
    elif cut == "union":
        def extendable(partial: tuple[int, ...]) -> bool:
            pool = maximal(chosen(partial + tuple(range(partial[-1]))))
            return len(pool) >= k and pool.issuperset(map(drawn.__getitem__, partial))

    settled = cut == "antitone" and k == 1
    # looked up as a module global, so a wrapper on ``colex_subsets`` sees every search
    for combo in colex_subsets(available, k, extendable):
        candidate = chosen(combo)
        if settled or holds(candidate):
            return candidate
    return None


def compile_check(
    structure: Structure,
    formula: Formula,
    variables: tuple[str, ...],
    path: str,
) -> Callable[[Rows], bool]:
    """Row set over the sorted ``variables`` -> does it satisfy ``formula``, by ``path``'s check.

    Bound once per structure.  The row-set memos the check fills last
    until the binding is next handed out.  Callers check that ``variables``
    hold the free variables and that every value is an element of the
    structure.
    ``"strict"`` agrees with the lax reading only without inclusion or
    independence atoms.
    """
    return _bound_check(structure, formula, variables, path)[0]


def _bound_check(structure: Structure, formula: Formula, variables: tuple[str, ...], path: str) -> tuple[Callable, Binding, Callable | None]:
    """``compile_check``'s test, the binding whose row-set memos it fills, and the fixpoint's map.

    The fixpoint's test and the ``"union"`` cut share one maximal-subteam
    map, memoised by row set for one search: in colex order a partial's
    rows often recur as the next partial's or as a candidate.  Its inserts
    count against the binding's ``room``.
    """
    if path == "inclusion-fixpoint":
        binding = bound(formula, variables, FIXPOINT, structure)
        maximal, room, memo = binding.root, binding.room, {}

        def memoised(rows: Rows) -> Rows:
            kept = memo.get(rows)
            if kept is None:
                kept = maximal(rows)
                if room[0] > 0:
                    room[0] -= 1
                    memo[rows] = kept
            return kept

        return (lambda rows: memoised(rows) == rows), binding, memoised
    # either reading plans a first-order formula as one row test per row
    binding = _Evaluator(structure, path == "strict").binding(formula, variables)
    return binding.root, binding, None


def check_sentence(structure: Structure, formula: Formula) -> bool:
    """Truth of a sentence: whether the one-row team ``{()}`` satisfies it."""
    if formula.free:
        raise EvaluationError("check_sentence expects a sentence without free variables")
    path, _ = solve_path(classify(formula))
    check, binding, _ = _bound_check(structure, formula, (), path)
    try:
        return check(frozenset({()}))
    finally:
        binding.release()


def wt_solve(instance: WtInstance) -> Team | None:
    """First witnessing team of exactly ``k`` rows, or ``None``.

    ``k = 0`` always yields the empty team (every formula holds on it).
    For sentences only ``k <= 1`` can succeed.
    """
    structure, formula, k = instance.structure, instance.formula, instance.k
    variables = tuple(sorted(formula.free))
    path, cut = solve_path(classify(formula))
    if k == 0:
        return Team.empty(variables)
    # ``canonical_rows``' order, drawn only as far as the search goes
    rows: Iterator[Row] = itertools.product(range(structure.domain_size), repeat=len(variables))
    part = first_order_part(formula)
    if part is not None:
        rows = filter(row_test(structure, part, variables), rows)
    first = list(itertools.islice(rows, k))
    if len(first) < k:
        return None
    # bound only now: searches settled by counting rows never pay for it
    check, binding, maximal = _bound_check(structure, formula, variables, path)
    try:
        found = first_colex(itertools.chain(first, rows), k, check, cut, maximal)
    finally:
        binding.release()
    return None if found is None else Team(variables, found)


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

    The formula is validated and bound once; candidates come from the
    domain, so they need no per-tuple checks; the symbol's polarity picks the cut.
    """
    if k < 0:
        raise ValueError("solution size must be nonnegative")
    _validate_wd(structure, wd)
    if k > structure.domain_size ** wd.arity:
        return None
    cell = [frozenset()]
    test = row_test(structure, wd.formula, (), (wd.symbol, cell))

    def holds(tuples: frozenset[Row]) -> bool:
        cell[0] = tuples
        return test(())

    return first_colex(itertools.product(structure.elements, repeat=wd.arity), k, holds, wd.cut)

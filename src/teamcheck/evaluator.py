"""Exact team-semantics evaluation.

``eval_team`` decides team satisfaction under the lax semantics, on every
formula, by exhaustive search over the semantic clauses: a disjunction
holds when some pair of subteams covering the team satisfies the
disjuncts (overlap allowed), an existential quantifier when some row-wise
choice of nonempty value sets produces a satisfying supplemented team.
Cost is exponential in team size by nature; polynomial paths exist
separately for first-order formulas (one compiled ``row_test``) and
inclusion formulas (the fixpoint in ``inclusion``).

The evaluator compiles each (formula, variable order) pair once into a tree
of nodes.  A node is a function from a bare ``frozenset`` of rows (value
tuples aligned with the variable order) to a bool; no ``Team`` is built
during the search.  The compile step reads the facts each formula node
carries (first-order or not, free variables, its cached hash), so it walks
no subtree twice, and settles everything that depends only on the formula:

* structurally equal subformulas over the same variables share one node;
* every term is resolved to a column index or a constant (``term_values``);
  a tuple of variables alone needs no structure, so its getter is built
  once per variable order and kept in one bounded cache (``TERM_PLANS``)
  that every evaluator, structure and call shares;
* each quantifier takes its extended variable order and per-row extensions
  from ``model.extension_memo``, which every structure with the same
  domain size shares while the memo is small;
* an existential keeps, per row, only the extensions that pass the
  first-order conjuncts of its body (``formulas.first_order_part``),
  since a supplemented team satisfies the body only if every row does; a
  nonempty team with a row that has none fails without a search;
* a first-order subformula, quantified or not, becomes one row test
  (``row_test``, whose quantifiers read the same extension memos), applied
  row by row because first-order formulas are flat;
* unknown relations and constants raise ``EvaluationError``.

A row set can recur only where a disjunction searches its covers or
splits, or where distinct teams peel off to the same rest, so only the
operands of a disjunction keep a memo keyed by the row set (one per
interned operand, shared by every parent; its hash CPython caches).
``MAX_CACHE_ENTRIES``, read when an evaluator is built, bounds the total
number of those entries per evaluator; inserts are refused once it is
reached.  Row tests and extensions are memoised per row instead, one entry
per distinct row.  ``term_values`` and ``row_test`` are shared with the
compile step of the inclusion fixpoint.

The lax disjunction first tries the trivial covers, the team beside the
empty team, which every formula satisfies; then, at any team size, the
subset lattice of the sorted rows.  The subsets of the first ``width``
rows are its first block, and each nonempty subset of the others adds a
block of its unions with that one, made while it is walked.  ``width`` is
the largest w with ``2**w <= MAX_CACHE_ENTRIES`` (20 at the default).

The strict reading replaces covers by disjoint splits and value sets by
single values.  It is equivalent to the lax one on the downward-closed
fragment (no inclusion or independence atoms), the only fragment for which
``solver.solve_path`` picks it; ``solver.compile_check(..., "strict")`` is
its one entry point.  Downward closure also shapes its search: rows that
satisfy a first-order disjunct are peeled off pointwise, and every other
split, like every choice of values, is one depth-first search (``_choose``)
cut as soon as a side rejects its rows.  Both readings pick values from the
narrowed extensions only, and the lax cover search draws its supplements
one at a time, so it builds no list of them however many there are.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from itertools import chain, filterfalse
from typing import Callable, Mapping

from .errors import EvaluationError
from .formulas import (
    And,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    Inc,
    Indep,
    Neq,
    NegRel,
    Or,
    Rel,
    Term,
    Var,
    first_order_part,
)
from .model import Memo, Row, Structure, Team, extension_memo

# Row-set memo entries one evaluator may hold; verdicts never depend on it.
MAX_CACHE_ENTRIES = 1 << 20

Rows = frozenset[Row]
Node = Callable[[Rows], bool]
_EMPTY: Rows = frozenset()


def eval_fo_tarski(
    structure: Structure,
    assignment: Mapping[str, int],
    formula: Formula,
    extra_relations: Mapping[str, frozenset[Row]] | None = None,
) -> bool:
    """Classical single-assignment satisfaction for first-order formulas.

    ``extra_relations`` interprets relation symbols outside the structure's
    vocabulary (used for free relation variables).  Team atoms are
    rejected.
    """
    extra = extra_relations or {}

    def term_value(term: Term, env: Mapping[str, int]) -> int:
        if isinstance(term, Var):
            try:
                return env[term.name]
            except KeyError:
                raise EvaluationError(f"free variable {term.name!r} is not bound") from None
        try:
            return structure.constants[term.name]
        except KeyError:
            raise EvaluationError(f"unknown constant {term.name!r}") from None

    def lookup_relation(name: str) -> frozenset[Row]:
        if name in extra:
            return extra[name]
        if name in structure.relations:
            return structure.relations[name]
        raise EvaluationError(f"unknown relation {name!r}")

    def sat(node: Formula, env: dict[str, int]) -> bool:
        if isinstance(node, Eq):
            return term_value(node.left, env) == term_value(node.right, env)
        if isinstance(node, Neq):
            return term_value(node.left, env) != term_value(node.right, env)
        if isinstance(node, Rel):
            return tuple(term_value(t, env) for t in node.terms) in lookup_relation(node.name)
        if isinstance(node, NegRel):
            return tuple(term_value(t, env) for t in node.terms) not in lookup_relation(node.name)
        if isinstance(node, And):
            return sat(node.left, env) and sat(node.right, env)
        if isinstance(node, Or):
            return sat(node.left, env) or sat(node.right, env)
        if isinstance(node, (Exists, Forall)):
            variable, body = node.variable, node.body
            existential = isinstance(node, Exists)
            shadowed = env.get(variable)
            had = variable in env
            found = not existential
            for a in structure.elements:
                env[variable] = a
                if sat(body, env) == existential:
                    found = existential
                    break
            if had:
                env[variable] = shadowed
            else:
                del env[variable]
            return found
        raise EvaluationError(f"not a first-order formula: {type(node).__name__} atom encountered")

    return sat(formula, dict(assignment))


def require_in_domain(structure: Structure, team: Team) -> None:
    """Reject a team whose values are not elements of the structure."""
    outside = sorted({v for row in team.rows for v in row if not 0 <= v < structure.domain_size})
    if outside:
        raise EvaluationError(
            f"team values {outside} lie outside the domain 0..{structure.domain_size - 1}"
        )


# -- compile-step primitives, shared with ``inclusion.compile_max`` ------------


# Column getters kept, most recently used first; a bound, not an option.
TERM_PLANS = 256
_NAME = operator.attrgetter("name")


def term_values(
    structure: Structure,
    terms: tuple[Term, ...],
    variables: tuple[str, ...],
    *,
    bare: bool = False,
) -> Callable[[Row], object]:
    """Row -> the terms' value tuple, every term resolved to a column or a constant once.

    With ``bare``, a single term yields its bare value instead of a 1-tuple;
    such keys compare correctly only with keys of the same width.  A tuple
    of variables alone depends on no structure, so its getter is built once
    per (names, ``variables``, ``bare``) and kept, up to ``TERM_PLANS`` of
    them; a tuple that names a constant reads it from ``structure``.
    """
    if Const not in map(type, terms):
        # keyed by the names, whose hashes str caches, not by the terms
        return _columns(tuple(map(_NAME, terms)), variables, bare)
    plan: list[tuple[bool, int]] = []
    for term in terms:
        if isinstance(term, Var):
            plan.append((True, _column(term.name, variables)))
        else:
            try:
                plan.append((False, structure.constants[term.name]))
            except KeyError:
                raise EvaluationError(f"unknown constant {term.name!r}") from None
    if bare and len(plan) == 1:
        ((_, value),) = plan  # a constant
        return lambda row: value
    if len(plan) == 2 and not plan[0][0] and plan[1][0]:
        ((_, value), (_, i)) = plan
        return lambda row: (value, row[i])
    frozen = tuple(plan)
    return lambda row: tuple(row[i] if is_var else i for is_var, i in frozen)


def _column(name: str, variables: tuple[str, ...]) -> int:
    try:
        return variables.index(name)
    except ValueError:
        raise EvaluationError(f"free variable {name!r} is not in the team domain {variables}") from None


@lru_cache(maxsize=TERM_PLANS)
def _columns(names: tuple[str, ...], variables: tuple[str, ...], bare: bool) -> Callable[[Row], object]:
    """``term_values`` of the variables ``names``; a missing variable raises and is not kept."""
    columns = [_column(name, variables) for name in names]
    if not columns:
        return lambda row: ()
    if bare or len(columns) > 1:
        return operator.itemgetter(*columns)
    (i,) = columns
    return lambda row: (row[i],)


def row_test(
    structure: Structure, formula: Formula, variables: tuple[str, ...], free: tuple[str, list[Rows]] | None = None
) -> Callable[[Row], bool]:
    """One row's classical truth for a first-order formula; team atoms raise.

    A quantifier takes each row's extensions by its variable from
    ``extension_memo``.  Atoms of ``free[0]`` read the cell ``free[1][0]`` at
    run time, so a caller rebinds it per candidate.
    """
    if isinstance(formula, (Eq, Neq)):
        get = term_values(structure, (formula.left, formula.right), variables)
        compare = operator.eq if isinstance(formula, Eq) else operator.ne
        return lambda row: compare(*get(row))
    if isinstance(formula, (Rel, NegRel)):
        get = term_values(structure, formula.terms, variables)
        if free is not None and formula.name == free[0]:
            rel = free[1]  # a cell; reusing the name keeps row_test at its closure cells
            if isinstance(formula, Rel):
                return lambda row: get(row) in rel[0]
            return lambda row: get(row) not in rel[0]
        rel = structure.relations.get(formula.name)
        if rel is None:
            raise EvaluationError(f"unknown relation {formula.name!r}")
        if isinstance(formula, Rel):
            return lambda row: get(row) in rel
        return lambda row: get(row) not in rel
    if isinstance(formula, (And, Or)):
        left = row_test(structure, formula.left, variables, free)
        right = row_test(structure, formula.right, variables, free)
        if isinstance(formula, And):
            return lambda row: left(row) and right(row)
        return lambda row: left(row) or right(row)
    if not isinstance(formula, (Exists, Forall)):
        raise EvaluationError(f"not a first-order formula: {type(formula).__name__} atom encountered")
    extended, extensions = extension_memo(structure.domain_size, variables, formula.variable)
    body = row_test(structure, formula.body, extended, free)
    return _quantifier(body, extensions, isinstance(formula, Exists))


def _quantifier(body: Callable[[Row], bool], extensions: Memo, found: bool) -> Callable[[Row], bool]:
    # Kept out of row_test, whose every call would otherwise make these closure cells.
    def quantifier(row: Row) -> bool:
        for extended in extensions[row]:
            if body(extended) == found:  # the answer that stops the loop
                return found
        return not found

    return quantifier


def _lattice(rows: list[Row]) -> list[Rows]:
    """Every subset of ``rows``; bit i of a subset's index selects ``rows[i]``."""
    subsets = [_EMPTY]
    for row in rows:
        single = frozenset((row,))
        subsets += [subset | single for subset in subsets]
    return subsets


def _choose(sides: tuple[Node, ...], options: list[list[tuple[int, Row]]]) -> bool:
    """Whether every position can take one of its options with each side accepting its rows.

    An option ``(side, row)`` adds ``row`` to ``sides[side]``.  Positions are
    decided in order, depth first, from an explicit stack.  A partial choice
    is cut once a side rejects its rows: sides are downward closed.
    """
    stack = [(0, (_EMPTY,) * len(sides))]  # next position, each side's rows so far
    while stack:
        position, parts = stack.pop()
        if position == len(options):
            return True
        for side, row in reversed(options[position]):
            part = parts[side] | {row}
            if sides[side](part):
                stack.append((position + 1, parts[:side] + (part,) + parts[side + 1 :]))
    return False


def _parts(extensions: Memo, rows: Rows) -> list[tuple[Row, ...]] | None:
    """Each row's extensions in row order, or ``None`` at the first row that has none."""
    parts = []
    for row in sorted(rows):
        part = extensions[row]
        if not part:
            return None
        parts.append(part)
    return parts


class _Evaluator:
    """Team satisfaction by compiled nodes; ``check`` is the entry point."""

    def __init__(self, structure: Structure, strict: bool = False):
        self.structure = structure
        self.strict = strict
        # Memo inserts left, in a cell that the nodes share.  No node refers
        # to the evaluator, so refcounting frees it and its memos at once.
        self.room = [MAX_CACHE_ENTRIES]
        # a lax lattice block lists no more row sets than the memos may hold
        self.width = max(MAX_CACHE_ENTRIES, 1).bit_length() - 1
        self.memos: list[dict[Rows, bool]] = []  # every operand's memo
        self.nodes: dict[tuple[Formula, tuple[str, ...]], Node] = {}
        self.operands: dict[Node, Node] = {}  # interned node -> its memoised form

    def check(self, team: Team, formula: Formula) -> bool:
        return self.node(formula, team.variables)(team.rows)

    def node(self, formula: Formula, variables: tuple[str, ...]) -> Node:
        key = (formula, variables)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = self._compile(formula, variables)
        return node

    def operand(self, formula: Formula, variables: tuple[str, ...]) -> Node:
        """A disjunct's node, memoised by row set and shared by every parent.

        Cover and split searches ask a disjunct about many subsets, and
        teams that peel off to the same rest ask about that rest, so a row
        set recurs only here.  Row tests memoise per row already.
        """
        node = self.node(formula, variables)
        operand = self.operands.get(node)
        if operand is None:
            operand = self.operands[node] = node if formula.first_order else self._memoised(node)
        return operand

    def _memoised(self, decide: Node) -> Node:
        memo: dict[Rows, bool] = {}
        self.memos.append(memo)
        room = self.room

        def node(rows: Rows) -> bool:
            value = memo.get(rows)
            if value is None:
                value = decide(rows)
                if room[0] > 0:
                    room[0] -= 1
                    memo[rows] = value
            return value

        return node

    # -- compile dispatch ---------------------------------------------------

    def _compile(self, formula: Formula, variables: tuple[str, ...]) -> Node:
        if formula.first_order:
            truth = Memo(row_test(self.structure, formula, variables))
            return lambda rows: all(map(truth.__getitem__, rows))
        if isinstance(formula, Dep):
            return self._dep(formula, variables)
        if isinstance(formula, Inc):
            return self._inc(formula, variables)
        if isinstance(formula, Indep):
            return self._indep(formula, variables)
        if isinstance(formula, And):
            left, right = self.node(formula.left, variables), self.node(formula.right, variables)
            return lambda rows: left(rows) and right(rows)
        if isinstance(formula, Or):
            return (self._or_strict if self.strict else self._or_lax)(formula, variables)
        if isinstance(formula, Exists):
            return (self._exists_strict if self.strict else self._exists_lax)(formula, variables)
        if isinstance(formula, Forall):
            extended, extensions = extension_memo(self.structure.domain_size, variables, formula.variable)
            body = self.node(formula.body, extended)
            return lambda rows: body(frozenset(chain.from_iterable(map(extensions.__getitem__, rows))))
        raise EvaluationError(f"not a formula: {formula!r}")

    def _dep(self, formula: Dep, variables: tuple[str, ...]) -> Node:
        get_det = term_values(self.structure, formula.determinants, variables, bare=True)
        get_val = term_values(self.structure, formula.determined, variables, bare=True)

        def decide(rows: Rows) -> bool:
            # each determinant value has one determined value
            dets = list(map(get_det, rows))
            return len(set(zip(dets, map(get_val, rows)))) == len(set(dets))

        return decide

    def _inc(self, formula: Inc, variables: tuple[str, ...]) -> Node:
        get_left = term_values(self.structure, formula.left, variables, bare=True)
        get_right = term_values(self.structure, formula.right, variables, bare=True)
        return lambda rows: set(map(get_right, rows)).issuperset(map(get_left, rows))

    def _indep(self, formula: Indep, variables: tuple[str, ...]) -> Node:
        get_cond = term_values(self.structure, formula.condition, variables, bare=True)
        get_left = term_values(self.structure, formula.left, variables, bare=True)
        get_right = term_values(self.structure, formula.right, variables, bare=True)

        def decide(rows: Rows) -> bool:
            # The triples with one condition value lie inside the product of
            # their left and right values, and fill it exactly when their
            # count is the product of the two value counts.
            triples = set(zip(map(get_cond, rows), map(get_left, rows), map(get_right, rows)))
            lefts = Counter(cond for cond, _ in {(cond, left) for cond, left, _ in triples})
            rights = Counter(cond for cond, _ in {(cond, right) for cond, _, right in triples})
            return len(triples) == sum(count * rights[cond] for cond, count in lefts.items())

        return decide

    # -- lax disjunction: search for a cover ------------------------------

    def _or_lax(self, formula: Or, variables: tuple[str, ...]) -> Node:
        left, right = self.operand(formula.left, variables), self.operand(formula.right, variables)
        width = self.width

        def decide(rows: Rows) -> bool:
            if left(rows) or right(rows):
                return True  # a trivial cover: the empty team satisfies the other side
            ordered = sorted(rows)
            low = _lattice(ordered[:width])  # bit i of an index selects ordered[i]
            highs = _lattice(ordered[width:])[1:]  # block 0 is low itself: memos keep no copies
            # Right-side satisfiers, then their downward closure: reach[m] says
            # some satisfying right part contains every row of m.
            reach = list(map(right, chain(low, *[map(high.union, low) for high in highs])))
            full = len(reach) - 1
            for bit in range(len(ordered)):
                b = 1 << bit
                for mask in range(full + 1):
                    if not reach[mask] and mask & b == 0 and reach[mask | b]:
                        reach[mask] = True
            for mask, subset in enumerate(chain(low, *[map(high.union, low) for high in highs])):
                if reach[full ^ mask] and left(subset):
                    return True
            return False

        return decide

    # -- existentials: supplements built from extensions that pass ---------

    def _extensions(self, formula: Exists, variables: tuple[str, ...]) -> tuple[Memo, Node]:
        """Per-row extensions that pass the body's first-order conjuncts, and the body's node.

        First-order formulas are flat, so a supplemented team satisfies the
        body only if each of its rows passes them.  Narrowing keeps two rows'
        extension sets equal (the rows differ only in the quantified
        variable) or disjoint.
        """
        extended, extensions = extension_memo(self.structure.domain_size, variables, formula.variable)
        part = first_order_part(formula.body)
        if part is not None:
            passes = Memo(row_test(self.structure, part, extended))
            every = extensions
            extensions = Memo(lambda row: tuple(filter(passes.__getitem__, every[row])))
        return extensions, self.node(formula.body, extended)

    def _exists_lax(self, formula: Exists, variables: tuple[str, ...]) -> Node:
        extensions, body = self._extensions(formula, variables)

        def decide(rows: Rows) -> bool:
            per_row = _parts(extensions, rows)
            if per_row is None:
                return False
            # The distinct extension sets partition the extended rows; a
            # supplement must meet every part.
            parts = set(per_row)
            part_of = {row: i for i, part in enumerate(parts) for row in part}
            drows = sorted(part_of)
            count = len(drows)
            parts_of = [part_of[row] for row in drows]
            for size in range(len(parts), count + 1):
                for combo in itertools.combinations(range(count), size):
                    if len(set(map(parts_of.__getitem__, combo))) == len(parts) and body(
                        frozenset(map(drows.__getitem__, combo))
                    ):
                        return True
            return False

        return decide

    # -- strict clauses -----------------------------------------------------

    def _or_strict(self, formula: Or, variables: tuple[str, ...]) -> Node:
        for peeled, other in ((formula.left, formula.right), (formula.right, formula.left)):
            if peeled.first_order:
                truth = Memo(row_test(self.structure, peeled, variables))
                rest = self.operand(other, variables)
                return lambda rows: rest(frozenset(filterfalse(truth.__getitem__, rows)))
        sides = (self.operand(formula.left, variables), self.operand(formula.right, variables))
        # each row goes to the left or to the right operand
        return lambda rows: _choose(sides, [[(0, row), (1, row)] for row in sorted(rows)])

    def _exists_strict(self, formula: Exists, variables: tuple[str, ...]) -> Node:
        extensions, body = self._extensions(formula, variables)

        def decide(rows: Rows) -> bool:
            per_row = _parts(extensions, rows)
            if per_row is None:
                return False
            # each row gives the body one of its extensions
            return _choose((body,), [[(0, row) for row in part] for part in per_row])

        return decide


def eval_team(structure: Structure, team: Team, formula: Formula) -> bool:
    """Decide team satisfaction under the lax semantics, by exhaustive search.

    The team domain must contain the formula's free variables; extra
    variables are permitted, and every value must be an element of the
    structure.  Every formula is satisfied by the empty team.
    """
    require_in_domain(structure, team)
    missing = formula.free - team.domain()
    if missing:
        raise EvaluationError(f"free variables {sorted(missing)} are not in the team domain")
    return _Evaluator(structure).check(team, formula)

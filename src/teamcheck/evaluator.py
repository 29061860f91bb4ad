"""Exact team-semantics evaluation.

``eval_team`` decides team satisfaction under the lax semantics, on every
formula, by exhaustive search over the semantic clauses: a disjunction
holds when some pair of subteams covering the team satisfies the
disjuncts (overlap allowed), an existential quantifier when some row-wise
choice of nonempty value sets produces a satisfying supplemented team.
Cost is exponential in team size by nature; polynomial paths exist
separately for first-order formulas (one ``row_test``) and inclusion
formulas (the fixpoint in ``inclusion``).

Every reading of a formula is decided by a plan bound to a structure.  A
reading is ``LAX`` or ``STRICT`` here, ``ROW`` for one row's classical
truth, or ``inclusion.FIXPOINT`` for maximal subteams.  ``plan`` builds one
plan per (formula, variable order, reading) and keeps it on the formula
node, as ``formulas.first_order_part`` is kept, so it lives exactly as long
as the formula.  A plan is a post-order tuple of steps, children before
parents, and settles everything that needs no structure:

* the clause of each node; structurally equal subformulas over the same
  variables share one step;
* a first-order subformula, quantified or not, becomes one row test (its
  ``ROW`` steps), applied row by row because first-order formulas are flat;
* every term is resolved to a column index or a constant's name
  (``plan_terms``); a tuple of variables alone gets its getter here;
* each quantifier records its extended variable order;
* an existential also plans the row test of the first-order conjuncts of
  its body (``formulas.first_order_part``) and keeps, per row, only the
  extensions that pass it, since a supplemented team satisfies the body
  only if every row does; a nonempty team with a row that has none fails
  without a search.

``bind`` is one loop over the steps.  It looks up relations and constants,
so an unknown one raises ``EvaluationError`` before any row is tested; it
takes each quantifier's per-row extensions from ``model.extension_memo``,
which every structure with the same domain size shares while the memo is
small; and it makes fresh per-row memos and row-set memos.  A bound node
is a function of a bare ``frozenset`` of rows (value tuples aligned with
the variable order); no ``Team`` is built during the search.

``bound`` keeps one binding per plan and structure beside the plan, keyed
weakly by the structure, so it lives as long as both and keeps neither
alive.  Its per-row memos stay with it.  Its row-set memos are emptied at
every hand-out by ``bound``, and by ``eval_team``, ``solver.check_sentence``
and ``solver.wt_solve`` once they return (the fixpoint has none); a
``solver.compile_check`` check leaves them until the next hand-out.  Only
``wd_solve``'s row test, with its free-symbol cell, binds per call.

A row set can recur only where a disjunction searches its covers or
splits, or where distinct teams peel off to the same rest, so only the
operands of a disjunction keep a memo keyed by the row set (one per
interned operand, shared by every parent; its hash CPython caches).
``MAX_CACHE_ENTRIES``, read at every hand-out, bounds the total number of
those entries per call; inserts are refused once it is reached.  Row tests
and extensions are memoised per row instead, one entry per distinct row.

The lax disjunction first tries the trivial covers, the team beside the
empty team, which every formula satisfies; then, at any team size, the
subset lattice of the sorted rows.  The subsets of the first ``width``
rows are its first block, and each nonempty subset of the others adds a
block of its unions with that one, made while it is walked.  ``width`` is
the largest w with ``2**w <= MAX_CACHE_ENTRIES`` (20 at the default) at the
first bind; a reused binding keeps it.

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
from functools import partial
from itertools import chain, filterfalse
from typing import Callable, Mapping
from weakref import WeakKeyDictionary

from .errors import EvaluationError
from .formulas import (
    And,
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
from .model import Memo, Row, Structure, Team, extended_order, extension_memo

# Row-set memo entries one bind may hold; verdicts never depend on it.
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
    values = set(chain.from_iterable(team.rows))
    if values and (min(values) < 0 or max(values) >= structure.domain_size):
        outside = sorted(v for v in values if not 0 <= v < structure.domain_size)
        raise EvaluationError(
            f"team values {outside} lie outside the domain 0..{structure.domain_size - 1}"
        )


# -- plans -------------------------------------------------------------------

# One plan entry, (make, arguments, key): ``bind`` calls
# ``make(binding, *arguments)``, which reads its children's values as
# ``binding[slot]``; every child slot comes before its parent's.  The key
# names the node the entry decides: (reading name, formula, variables), or
# "memo" in place of the reading for a row-set memo.  A stored key names the
# root, which keeps the plan, as None: a plan naming it would be a cycle.
Step = tuple[Callable[..., object], tuple, tuple]
Plan = tuple[Step, ...]
# A node's planning function: (planner, reading, formula, variables) -> (make, arguments).
# It names no teamcheck class: typing keeps its aliases for the life of the
# process, and one naming a class would keep that class's module alive
# after a fresh import of teamcheck replaced it.
Clause = Callable[..., tuple]


class Reading:
    """How a plan decides each node; readings hash and compare by identity.

    ``clauses`` maps a node class to its planning function.  A team reading
    plans every first-order node as its row test, handed to the maker
    ``first_order``; ``check`` validates a root before it is planned.
    """

    __slots__ = ("name", "clauses", "first_order", "check")

    def __init__(
        self,
        name: str,
        clauses: Mapping[type, Clause],
        first_order: Callable[..., object] | None = None,
        check: Callable[[Formula, tuple[str, ...]], None] | None = None,
    ):
        self.name, self.clauses, self.first_order, self.check = name, clauses, first_order, check


class _Planner:
    """One plan being built: steps in post-order, each keyed node once."""

    def __init__(self) -> None:
        self.steps: list[Step] = []
        self.slots: dict[tuple, int] = {}

    def _add(self, key: tuple, make: Callable[..., object], arguments: tuple) -> int:
        slot = self.slots[key] = len(self.steps)
        self.steps.append((make, arguments, key))
        return slot

    def node(self, reading: Reading, formula: Formula, variables: tuple[str, ...]) -> int:
        """The slot that decides ``formula`` on rows over ``variables`` under ``reading``."""
        key = (reading.name, formula, variables)
        slot = self.slots.get(key)
        if slot is None:
            if formula.first_order and reading.first_order is not None:
                step = reading.first_order, (self.node(ROW, formula, variables),)
            else:
                step = reading.clauses[type(formula)](self, reading, formula, variables)
            slot = self._add(key, *step)
        return slot

    def operand(self, reading: Reading, formula: Formula, variables: tuple[str, ...]) -> int:
        """A disjunct's slot, memoised by row set and shared by every parent.

        Cover and split searches ask a disjunct about many subsets, and
        teams that peel off to the same rest ask about that rest, so a row
        set recurs only here.  Row tests memoise per row already.
        """
        node = self.node(reading, formula, variables)
        if formula.first_order:
            return node
        key = ("memo", formula, variables)
        slot = self.slots.get(key)
        if slot is None:
            slot = self._add(key, _memoised, (node,))
        return slot


def build_plan(formula: Formula, variables: tuple[str, ...], reading: Reading) -> Plan:
    """The steps that decide ``formula`` on rows over ``variables`` under ``reading``, root last."""
    if reading.check is not None:
        reading.check(formula, variables)
    planner = _Planner()
    planner.node(reading, formula, variables)
    return tuple((make, arguments, (key[0], None, key[2]) if key[1] is formula else key) for make, arguments, key in planner.steps)


def plan(formula: Formula, variables: tuple[str, ...], reading: Reading) -> Plan:
    """``build_plan``, built once per (variables, reading) and kept on the formula node.

    A plan refers to no structure.  One whose building raises is not kept,
    so the error comes again on every call.
    """
    try:
        return formula.__dict__["plans"][variables, reading]
    except KeyError:
        pass  # built outside the handler, so an error in it does not chain the KeyError
    built = build_plan(formula, variables, reading)
    formula.__dict__.setdefault("plans", {})[variables, reading] = built
    return built


class Binding(list):
    """A plan bound to one structure: a value per step, the root last.

    The row-set memos (``memos``) share one cell of inserts left (``room``),
    refilled from ``MAX_CACHE_ENTRIES`` by ``release``; ``width``, the lax
    lattice's block width, follows it as the bind starts.  ``structure`` is
    read while binding only.  No bound value refers to the binding or to
    the structure, so refcounting frees the binding and its memos at once.
    """

    __slots__ = ("structure", "free", "room", "width", "memos")

    def __init__(self, structure: Structure, free: tuple[str, list[Rows]] | None):
        self.structure = structure
        self.free = free
        self.room = [MAX_CACHE_ENTRIES]
        # a lax lattice block lists no more row sets than the memos may hold
        self.width = max(MAX_CACHE_ENTRIES, 1).bit_length() - 1
        self.memos: list[dict[Rows, bool]] = []

    @property
    def root(self):
        return self[-1]

    def release(self) -> None:
        """Empty the row-set memos and refill their room."""
        for memo in self.memos:
            memo.clear()
        self.room[0] = MAX_CACHE_ENTRIES


def bind(steps: Plan, structure: Structure, free: tuple[str, list[Rows]] | None = None) -> Binding:
    """``steps`` bound to ``structure``, in one loop; atoms of ``free[0]`` read the cell ``free[1][0]`` when run."""
    binding = Binding(structure, free)
    append = binding.append
    for make, arguments, _ in steps:
        append(make(binding, *arguments))
    binding.structure = None
    return binding


def bound(formula: Formula, variables: tuple[str, ...], reading: Reading, structure: Structure) -> Binding:
    """``formula``'s plan bound to ``structure``, once while both live; its row-set memos emptied."""
    try:
        bindings = formula.__dict__["bindings"][variables, reading]
    except KeyError:
        bindings = formula.__dict__.setdefault("bindings", {}).setdefault((variables, reading), WeakKeyDictionary())
    binding = bindings.get(structure)
    if binding is None:
        binding = bindings[structure] = bind(plan(formula, variables, reading), structure)
    else:
        binding.release()
    return binding


# -- terms ---------------------------------------------------------------------


def _column(name: str, variables: tuple[str, ...]) -> int:
    try:
        return variables.index(name)
    except ValueError:
        raise EvaluationError(f"free variable {name!r} is not in the team domain {variables}") from None


def plan_terms(terms: tuple[Term, ...], variables: tuple[str, ...], *, bare: bool = False):
    """The planned getter of row -> the terms' value tuple, each term a column or a constant.

    With ``bare``, a single term yields its bare value instead of a 1-tuple;
    such keys compare correctly only with keys of the same width.  A tuple
    of variables alone needs no structure, so its getter is built here; a
    tuple that names a constant is kept as (column or name, is a column)
    pairs for ``bind_terms``.
    """
    resolved = tuple((_column(t.name, variables), True) if isinstance(t, Var) else (t.name, False) for t in terms)
    if not all(is_column for _, is_column in resolved):
        return resolved, bare
    columns = [i for i, _ in resolved]
    if not columns:
        return lambda row: ()
    if bare or len(columns) > 1:
        return operator.itemgetter(*columns)
    (i,) = columns
    return lambda row: (row[i],)


def bind_terms(structure: Structure, planned) -> Callable[[Row], object]:
    """A ``plan_terms`` getter for ``structure``: its constants read, an unknown one raising."""
    if callable(planned):
        return planned
    resolved, bare = planned
    values: list[tuple[bool, int]] = []
    for ref, is_column in resolved:
        if is_column:
            values.append((True, ref))
        else:
            try:
                values.append((False, structure.constants[ref]))
            except KeyError:
                raise EvaluationError(f"unknown constant {ref!r}") from None
    if bare and len(values) == 1:
        ((_, value),) = values  # a constant
        return lambda row: value
    if len(values) == 2 and not values[0][0] and values[1][0]:
        ((_, value), (_, i)) = values
        return lambda row: (value, row[i])
    frozen = tuple(values)
    return lambda row: tuple(row[i] if is_var else i for is_var, i in frozen)


# -- clauses shared by the readings ----------------------------------------------


def atom_clause(make: Callable[..., object], *fields: str) -> Clause:
    """A team atom's clause: ``make`` gets the bare getters of its term tuples ``fields``."""

    def clause(planner, reading, formula, variables):
        return make, tuple(plan_terms(getattr(formula, name), variables, bare=True) for name in fields)

    return clause


def connective_clause(make: Callable[..., object]) -> Clause:
    """A connective's clause: ``make`` gets its operands' slots."""

    def clause(planner, reading, formula, variables):
        return make, (planner.node(reading, formula.left, variables), planner.node(reading, formula.right, variables))

    return clause


def quantifier_clause(make: Callable[..., object], narrowed: bool = False) -> Clause:
    """A quantifier's clause: ``make`` gets the variable order, the variable and the body's slot.

    With ``narrowed``, also the slot of the row test of the body's
    first-order conjuncts, if it has any.
    """

    def clause(planner, reading, formula, variables):
        extended = extended_order(variables, formula.variable)
        arguments = (variables, formula.variable, planner.node(reading, formula.body, extended))
        part = first_order_part(formula.body) if narrowed else None
        if part is not None:
            arguments += (planner.node(ROW, part, extended),)
        return make, arguments

    return clause


def _both(binding: Binding, left: int, right: int):
    left, right = binding[left], binding[right]
    return lambda x: left(x) and right(x)


# -- the row reading: one row's classical truth ----------------------------------------


def _compare(binding: Binding, terms, compare) -> Callable[[Row], bool]:
    get = bind_terms(binding.structure, terms)
    return lambda row: compare(*get(row))


def _relation(binding: Binding, name: str, terms, positive: bool) -> Callable[[Row], bool]:
    get = bind_terms(binding.structure, terms)
    free = binding.free
    if free is not None and name == free[0]:
        rel = free[1]  # a cell; reusing the name keeps this maker at its closure cells
        if positive:
            return lambda row: get(row) in rel[0]
        return lambda row: get(row) not in rel[0]
    rel = binding.structure.relations.get(name)
    if rel is None:
        raise EvaluationError(f"unknown relation {name!r}")
    if positive:
        return lambda row: get(row) in rel
    return lambda row: get(row) not in rel


def _either(binding: Binding, left: int, right: int) -> Callable[[Row], bool]:
    left, right = binding[left], binding[right]
    return lambda row: left(row) or right(row)


def _row_quantifier(binding: Binding, variables, variable, body: int, found: bool) -> Callable[[Row], bool]:
    _, extensions = extension_memo(binding.structure.domain_size, variables, variable)
    body = binding[body]

    def quantifier(row: Row) -> bool:
        for extended in extensions[row]:
            if body(extended) == found:  # the answer that stops the loop
                return found
        return not found

    return quantifier


def _plan_comparison(planner, reading, formula, variables):
    compare = operator.eq if isinstance(formula, Eq) else operator.ne
    return _compare, (plan_terms((formula.left, formula.right), variables), compare)


def _plan_relation(planner, reading, formula, variables):
    return _relation, (formula.name, plan_terms(formula.terms, variables), isinstance(formula, Rel))


def _team_atom(planner, reading, formula, variables):
    raise EvaluationError(f"not a first-order formula: {type(formula).__name__} atom encountered")


ROW = Reading(
    "row",
    {
        Eq: _plan_comparison,
        Neq: _plan_comparison,
        Rel: _plan_relation,
        NegRel: _plan_relation,
        And: connective_clause(_both),
        Or: connective_clause(_either),
        Exists: quantifier_clause(partial(_row_quantifier, found=True)),
        Forall: quantifier_clause(partial(_row_quantifier, found=False)),
        Dep: _team_atom,
        Inc: _team_atom,
        Indep: _team_atom,
    },
)


def row_test(
    structure: Structure, formula: Formula, variables: tuple[str, ...], free: tuple[str, list[Rows]] | None = None
) -> Callable[[Row], bool]:
    """One row's classical truth for a first-order formula; team atoms raise.

    A quantifier takes each row's extensions by its variable from
    ``extension_memo``.  Atoms of ``free[0]`` read the cell ``free[1][0]`` at
    run time, so a caller rebinds it per candidate; only such a test is
    bound per call.
    """
    if free is None:
        return bound(formula, variables, ROW, structure).root
    return bind(plan(formula, variables, ROW), structure, free).root


# -- the team readings: lax and strict ----------------------------------------------


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


def _all_rows(binding: Binding, test: int) -> Node:
    truth = Memo(binding[test])
    return lambda rows: all(map(truth.__getitem__, rows))


def _memoised(binding: Binding, decide: int) -> Node:
    decide = binding[decide]
    memo: dict[Rows, bool] = {}
    binding.memos.append(memo)
    room = binding.room

    def node(rows: Rows) -> bool:
        value = memo.get(rows)
        if value is None:
            value = decide(rows)
            if room[0] > 0:
                room[0] -= 1
                memo[rows] = value
        return value

    return node


def _dep(binding: Binding, determinants, determined) -> Node:
    get_det = bind_terms(binding.structure, determinants)
    get_val = bind_terms(binding.structure, determined)

    def decide(rows: Rows) -> bool:
        # each determinant value has one determined value
        dets = list(map(get_det, rows))
        return len(set(zip(dets, map(get_val, rows)))) == len(set(dets))

    return decide


def _inc(binding: Binding, left, right) -> Node:
    get_left = bind_terms(binding.structure, left)
    get_right = bind_terms(binding.structure, right)
    return lambda rows: set(map(get_right, rows)).issuperset(map(get_left, rows))


def _indep(binding: Binding, condition, left, right) -> Node:
    get_cond = bind_terms(binding.structure, condition)
    get_left = bind_terms(binding.structure, left)
    get_right = bind_terms(binding.structure, right)

    def decide(rows: Rows) -> bool:
        # The triples with one condition value lie inside the product of
        # their left and right values, and fill it exactly when their
        # count is the product of the two value counts.
        triples = set(zip(map(get_cond, rows), map(get_left, rows), map(get_right, rows)))
        lefts = Counter(cond for cond, _ in {(cond, left) for cond, left, _ in triples})
        rights = Counter(cond for cond, _ in {(cond, right) for cond, _, right in triples})
        return len(triples) == sum(count * rights[cond] for cond, count in lefts.items())

    return decide


def _forall(binding: Binding, variables, variable, body: int) -> Node:
    _, extensions = extension_memo(binding.structure.domain_size, variables, variable)
    body = binding[body]
    return lambda rows: body(frozenset(chain.from_iterable(map(extensions.__getitem__, rows))))


# -- lax disjunction: search for a cover ------------------------------


def _or_lax(binding: Binding, left: int, right: int) -> Node:
    left, right, width = binding[left], binding[right], binding.width

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


def _plan_cover(planner, reading, formula, variables):
    return _or_lax, (planner.operand(reading, formula.left, variables), planner.operand(reading, formula.right, variables))


# -- existentials: supplements built from extensions that pass ---------


def _extensions(binding: Binding, variables, variable, passes: int | None) -> Memo:
    """Per-row extensions by ``variable`` that pass the row test in slot ``passes``, of the body's first-order conjuncts.

    First-order formulas are flat, so a supplemented team satisfies the
    body only if each of its rows passes them.  Narrowing keeps two rows'
    extension sets equal (the rows differ only in the quantified
    variable) or disjoint.
    """
    _, extensions = extension_memo(binding.structure.domain_size, variables, variable)
    if passes is None:
        return extensions
    truth = Memo(binding[passes])
    return Memo(lambda row: tuple(filter(truth.__getitem__, extensions[row])))


def _exists_lax(binding: Binding, variables, variable, body: int, passes: int | None = None) -> Node:
    extensions, body = _extensions(binding, variables, variable, passes), binding[body]

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


def _peel(binding: Binding, test: int, rest: int) -> Node:
    truth, rest = Memo(binding[test]), binding[rest]
    return lambda rows: rest(frozenset(filterfalse(truth.__getitem__, rows)))


def _split(binding: Binding, left: int, right: int) -> Node:
    sides = (binding[left], binding[right])
    # each row goes to the left or to the right operand
    return lambda rows: _choose(sides, [[(0, row), (1, row)] for row in sorted(rows)])


def _plan_split(planner, reading, formula, variables):
    for peeled, other in ((formula.left, formula.right), (formula.right, formula.left)):
        if peeled.first_order:
            return _peel, (planner.node(ROW, peeled, variables), planner.operand(reading, other, variables))
    return _split, (planner.operand(reading, formula.left, variables), planner.operand(reading, formula.right, variables))


def _exists_strict(binding: Binding, variables, variable, body: int, passes: int | None = None) -> Node:
    extensions, body = _extensions(binding, variables, variable, passes), binding[body]

    def decide(rows: Rows) -> bool:
        per_row = _parts(extensions, rows)
        if per_row is None:
            return False
        # each row gives the body one of its extensions
        return _choose((body,), [[(0, row) for row in part] for part in per_row])

    return decide


_TEAM_CLAUSES: dict[type, Clause] = {
    Dep: atom_clause(_dep, "determinants", "determined"),
    Inc: atom_clause(_inc, "left", "right"),
    Indep: atom_clause(_indep, "condition", "left", "right"),
    And: connective_clause(_both),
    Forall: quantifier_clause(_forall),
}
LAX = Reading("lax", {**_TEAM_CLAUSES, Or: _plan_cover, Exists: quantifier_clause(_exists_lax, True)}, _all_rows)
STRICT = Reading("strict", {**_TEAM_CLAUSES, Or: _plan_split, Exists: quantifier_clause(_exists_strict, True)}, _all_rows)


class _Evaluator:
    """Team satisfaction on one structure, lax or strict; ``check`` is the entry point."""

    def __init__(self, structure: Structure, strict: bool = False):
        self.structure = structure
        self.reading = STRICT if strict else LAX

    def binding(self, formula: Formula, variables: tuple[str, ...]) -> Binding:
        return bound(formula, variables, self.reading, self.structure)

    def check(self, team: Team, formula: Formula) -> bool:
        binding = self.binding(formula, team.variables)
        try:
            return binding.root(team.rows)
        finally:
            binding.release()


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

"""Exact team-semantics evaluation.

``eval_team`` decides team satisfaction by exhaustive search over the
semantic clauses: a disjunction holds when some pair of subteams covering
the team satisfies the disjuncts (overlap allowed), an existential
quantifier when some row-wise choice of nonempty value sets produces a
satisfying supplemented team.  Both searches run over the subset lattice of
the relevant team with per-call memoization keyed on (subformula, team), so
repeated subteams are decided once.  Cost is exponential in team size by
nature; polynomial paths exist separately for first-order formulas (Tarski
evaluation) and inclusion formulas (the fixpoint in ``inclusion``).

Strict mode replaces covers by disjoint splits and value sets by single
values.  That reading is equivalent to the lax one only on the
downward-closed fragment (no inclusion or independence atoms), which strict
mode enforces; there it also licenses two shortcuts used heavily by the
solver: rows satisfying a quantifier-free first-order disjunct can be
peeled off pointwise, and everything else must then satisfy the remaining
disjunct.
"""

from __future__ import annotations

import itertools
from typing import Mapping

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
    atom_set,
    classify,
    free_vars,
)
from .model import Row, Structure, Team, duplicate

DEFAULT_CACHE_ENTRIES = 1 << 20

# Above this many rows the subset-lattice searches fall back to streaming
# enumeration, which stays correct but may be very slow on unsatisfiable
# input.
_SUBSET_LIMIT = 20


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


def is_pointwise(formula: Formula) -> bool:
    """Quantifier-free and first-order, hence decidable row by row."""
    if isinstance(formula, (And, Or)):
        return is_pointwise(formula.left) and is_pointwise(formula.right)
    return isinstance(formula, (Eq, Neq, Rel, NegRel))


class _Evaluator:
    def __init__(self, structure: Structure, strict: bool, max_cache_entries: int):
        self.structure = structure
        self.strict = strict
        self.max_cache = max_cache_entries
        self.cache: dict = {}
        self._columns: dict = {}

    # -- plumbing ---------------------------------------------------------

    def check(self, team: Team, formula: Formula) -> bool:
        key = (formula, team.variables, team.rows)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        value = self._dispatch(team, formula)
        if len(self.cache) < self.max_cache:
            self.cache[key] = value
        return value

    def _subteam(self, team: Team, rows) -> Team:
        return Team(team.variables, frozenset(rows))

    def _values(self, team: Team, terms: tuple[Term, ...]):
        """Per-row value-tuple extractor for a term tuple, resolved once."""
        key = (terms, team.variables)
        getter = self._columns.get(key)
        if getter is None:
            plan: list[tuple[bool, int]] = []
            for term in terms:
                if isinstance(term, Var):
                    try:
                        plan.append((True, team.variables.index(term.name)))
                    except ValueError:
                        raise EvaluationError(
                            f"free variable {term.name!r} is not in the team domain {team.variables}"
                        ) from None
                elif isinstance(term, Const):
                    try:
                        plan.append((False, self.structure.constants[term.name]))
                    except KeyError:
                        raise EvaluationError(f"unknown constant {term.name!r}") from None
            frozen = tuple(plan)

            def getter(row: Row, _plan=frozen) -> Row:
                return tuple(row[i] if is_var else i for is_var, i in _plan)

            self._columns[key] = getter
        return getter

    def _relation(self, name: str) -> frozenset[Row]:
        try:
            return self.structure.relations[name]
        except KeyError:
            raise EvaluationError(f"unknown relation {name!r}") from None

    # -- clause dispatch ----------------------------------------------------

    def _dispatch(self, team: Team, formula: Formula) -> bool:
        if isinstance(formula, Eq):
            get = self._values(team, (formula.left, formula.right))
            return all(a == b for a, b in (get(r) for r in team.rows))
        if isinstance(formula, Neq):
            get = self._values(team, (formula.left, formula.right))
            return all(a != b for a, b in (get(r) for r in team.rows))
        if isinstance(formula, Rel):
            get = self._values(team, formula.terms)
            relation = self._relation(formula.name)
            return all(get(r) in relation for r in team.rows)
        if isinstance(formula, NegRel):
            get = self._values(team, formula.terms)
            relation = self._relation(formula.name)
            return all(get(r) not in relation for r in team.rows)
        if isinstance(formula, Dep):
            return self._dep(team, formula)
        if isinstance(formula, Inc):
            return self._inc(team, formula)
        if isinstance(formula, Indep):
            return self._indep(team, formula)
        if isinstance(formula, And):
            return self.check(team, formula.left) and self.check(team, formula.right)
        if isinstance(formula, Or):
            return self._or_strict(team, formula) if self.strict else self._or_lax(team, formula)
        if isinstance(formula, Exists):
            return self._exists_strict(team, formula) if self.strict else self._exists_lax(team, formula)
        if isinstance(formula, Forall):
            return self.check(duplicate(self.structure, team, formula.variable), formula.body)
        raise EvaluationError(f"not a formula: {formula!r}")

    def _dep(self, team: Team, formula: Dep) -> bool:
        get_det = self._values(team, formula.determinants)
        get_val = self._values(team, formula.determined)
        seen: dict[Row, Row] = {}
        for row in team.rows:
            key = get_det(row)
            val = get_val(row)
            if seen.setdefault(key, val) != val:
                return False
        return True

    def _inc(self, team: Team, formula: Inc) -> bool:
        get_left = self._values(team, formula.left)
        get_right = self._values(team, formula.right)
        right_values = {get_right(r) for r in team.rows}
        return all(get_left(r) in right_values for r in team.rows)

    def _indep(self, team: Team, formula: Indep) -> bool:
        get_cond = self._values(team, formula.condition)
        get_left = self._values(team, formula.left)
        get_right = self._values(team, formula.right)
        triples = {(get_cond(r), get_left(r), get_right(r)) for r in team.rows}
        by_cond: dict[Row, tuple[set[Row], set[Row]]] = {}
        for cond, left, right in triples:
            lefts, rights = by_cond.setdefault(cond, (set(), set()))
            lefts.add(left)
            rights.add(right)
        for cond, (lefts, rights) in by_cond.items():
            for left in lefts:
                for right in rights:
                    if (cond, left, right) not in triples:
                        return False
        return True

    # -- lax disjunction: search for a cover ------------------------------

    def _or_lax(self, team: Team, formula: Or) -> bool:
        if self.check(team, formula.left) and self.check(team, formula.right):
            return True
        rows = sorted(team.rows)
        count = len(rows)
        if count == 0:
            return False  # unreachable: the full/full cover above decides empty teams
        if count > _SUBSET_LIMIT:
            return self._or_streaming(team, formula, rows)
        full = (1 << count) - 1

        def mask_team(mask: int) -> Team:
            return self._subteam(team, (rows[i] for i in range(count) if mask >> i & 1))

        # Right-side satisfiers, then their downward closure: reach[m] says
        # some satisfying right part contains every row of m.
        reach = [False] * (full + 1)
        for mask in range(full + 1):
            reach[mask] = self.check(mask_team(mask), formula.right)
        for bit in range(count):
            b = 1 << bit
            for mask in range(full + 1):
                if not reach[mask] and mask & b == 0 and reach[mask | b]:
                    reach[mask] = True
        for mask in range(full + 1):
            if reach[full ^ mask] and self.check(mask_team(mask), formula.left):
                return True
        return False

    def _or_streaming(self, team: Team, formula: Or, rows) -> bool:
        for labels in itertools.product((0, 1, 2), repeat=len(rows)):
            left_team = self._subteam(team, (r for r, l in zip(rows, labels) if l != 1))
            right_team = self._subteam(team, (r for r, l in zip(rows, labels) if l != 0))
            if self.check(left_team, formula.left) and self.check(right_team, formula.right):
                return True
        return False

    # -- lax existential: search for a covering supplemented team ----------

    def _exists_lax(self, team: Team, formula: Exists) -> bool:
        dup = duplicate(self.structure, team, formula.variable)
        if not team.rows:
            return self.check(dup, formula.body)
        drows = sorted(dup.rows)
        position = {row: i for i, row in enumerate(drows)}
        group_masks = self._extension_masks(team, formula.variable, dup, position)
        count = len(drows)
        if count > _SUBSET_LIMIT:
            return self._exists_streaming(team, formula, dup)
        minimum = len(group_masks) if formula.variable not in team.variables else 1
        for size in range(max(1, minimum), count + 1):
            for combo in itertools.combinations(range(count), size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                if all(mask & g for g in group_masks):
                    candidate = self._subteam(dup, (drows[i] for i in combo))
                    if self.check(candidate, formula.body):
                        return True
        return False

    def _extension_masks(self, team: Team, variable: str, dup: Team, position) -> list[int]:
        masks = []
        for row in team.rows:
            mask = 0
            for ext in self._extensions(team, variable, row):
                mask |= 1 << position[ext]
            masks.append(mask)
        return masks

    def _extensions(self, team: Team, variable: str, row: Row) -> list[Row]:
        new_vars = tuple(sorted(set(team.variables) | {variable}))
        at = new_vars.index(variable)
        if variable in team.variables:
            return [row[:at] + (a,) + row[at + 1:] for a in self.structure.elements]
        return [row[:at] + (a,) + row[at:] for a in self.structure.elements]

    def _exists_streaming(self, team: Team, formula: Exists, dup: Team) -> bool:
        rows = sorted(team.rows)
        options = []
        for row in rows:
            exts = self._extensions(team, formula.variable, row)
            row_options = []
            for size in range(1, len(exts) + 1):
                row_options.extend(itertools.combinations(exts, size))
            options.append(row_options)
        for choice in itertools.product(*options):
            chosen: set[Row] = set()
            for group in choice:
                chosen.update(group)
            if self.check(Team(dup.variables, frozenset(chosen)), formula.body):
                return True
        return False

    # -- strict clauses -----------------------------------------------------

    def _row_satisfies(self, team: Team, row: Row, formula: Formula) -> bool:
        if isinstance(formula, And):
            return self._row_satisfies(team, row, formula.left) and self._row_satisfies(team, row, formula.right)
        if isinstance(formula, Or):
            return self._row_satisfies(team, row, formula.left) or self._row_satisfies(team, row, formula.right)
        if isinstance(formula, Eq):
            a, b = self._values(team, (formula.left, formula.right))(row)
            return a == b
        if isinstance(formula, Neq):
            a, b = self._values(team, (formula.left, formula.right))(row)
            return a != b
        if isinstance(formula, Rel):
            return self._values(team, formula.terms)(row) in self._relation(formula.name)
        if isinstance(formula, NegRel):
            return self._values(team, formula.terms)(row) not in self._relation(formula.name)
        raise EvaluationError("pointwise check on a non-pointwise formula")

    def _or_strict(self, team: Team, formula: Or) -> bool:
        if is_pointwise(formula.left):
            rest = [r for r in team.rows if not self._row_satisfies(team, r, formula.left)]
            return self.check(self._subteam(team, rest), formula.right)
        if is_pointwise(formula.right):
            rest = [r for r in team.rows if not self._row_satisfies(team, r, formula.right)]
            return self.check(self._subteam(team, rest), formula.left)
        rows = sorted(team.rows)
        count = len(rows)
        for mask in range(1 << count):
            left_team = self._subteam(team, (rows[i] for i in range(count) if mask >> i & 1))
            right_team = self._subteam(team, (rows[i] for i in range(count) if not mask >> i & 1))
            if self.check(left_team, formula.left) and self.check(right_team, formula.right):
                return True
        return False

    def _exists_strict(self, team: Team, formula: Exists) -> bool:
        dup = duplicate(self.structure, team, formula.variable)
        if not team.rows:
            return self.check(dup, formula.body)
        rows = sorted(team.rows)
        extension_lists = [self._extensions(team, formula.variable, row) for row in rows]
        for choice in itertools.product(*extension_lists):
            if self.check(Team(dup.variables, frozenset(choice)), formula.body):
                return True
        return False


def eval_team(
    structure: Structure,
    team: Team,
    formula: Formula,
    *,
    strict: bool = False,
    max_cache_entries: int = DEFAULT_CACHE_ENTRIES,
) -> bool:
    """Decide team satisfaction under the lax semantics (or strict, see module doc).

    The team domain must contain the formula's free variables; extra
    variables are permitted, and every value must be an element of the
    structure.  Every formula is satisfied by the empty team.
    """
    require_in_domain(structure, team)
    missing = free_vars(formula) - team.domain()
    if missing:
        raise EvaluationError(f"free variables {sorted(missing)} are not in the team domain")
    if strict:
        banned = atom_set(formula) & {"inc", "indep"}
        if banned:
            raise EvaluationError(
                f"strict semantics is only available without {sorted(banned)} atoms"
            )
    return _Evaluator(structure, strict, max_cache_entries).check(team, formula)


def check_sentence(structure: Structure, formula: Formula, *, max_cache_entries: int = DEFAULT_CACHE_ENTRIES) -> bool:
    """Truth of a sentence, evaluated over the one-row team with empty domain.

    Inclusion-logic sentences go through the polynomial fixpoint path;
    everything else uses the generic evaluator.
    """
    if free_vars(formula):
        raise EvaluationError("check_sentence expects a sentence without free variables")
    report = classify(formula)
    team = Team.singleton_empty_assignment()
    if report.fragment == "FO(inc)":
        from .inclusion import eval_inclusion

        return eval_inclusion(structure, team, formula)
    return eval_team(structure, team, formula, max_cache_entries=max_cache_entries)

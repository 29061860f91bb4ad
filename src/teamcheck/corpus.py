"""Seeded random corpora for the verification suites.

Randomness comes from a splitmix64 generator (documented constants, stable
across platforms and Python versions) plugged into ``random.Random``, so
every suite is reproducible from its seed alone.

Formula generation is budgeted: the exhaustive evaluator's worst-case work
is estimated per draw and oversized (formula, team, structure) combinations
are redrawn.  That keeps randomized suites inside their time envelope while
staying within the documented size bounds.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

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
    Var,
    free_vars,
)
from .model import Structure, Team, Vocabulary, canonical_rows
from .prop import PAnd, PLit, POr, PropFormula
from .reductions import BooleanCircuit, Graph


class SplitMix64(random.Random):
    """splitmix64 bit generator behind the stdlib Random interface."""

    _GAMMA = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0):
        self._state = seed & self._MASK
        super().__init__(seed)

    def seed(self, a=None, version=2):  # noqa: D102 - Random API
        self._state = (a or 0) & self._MASK

    def getstate(self):
        return ("splitmix64", self._state)

    def setstate(self, state):
        self._state = state[1]

    def _next64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self._next64() >> 11) / float(1 << 53)

    def getrandbits(self, k: int) -> int:
        out = 0
        filled = 0
        while filled < k:
            out = (out << 64) | self._next64()
            filled += 64
        return out >> (filled - k)


# --- structures and teams -------------------------------------------------------

CORPUS_VOCABULARY = Vocabulary(relations=(("E", 2), ("U", 1)))


def random_structure(rng: random.Random, max_domain: int, min_domain: int = 1) -> Structure:
    n = rng.randint(min_domain, max_domain)
    pairs = frozenset(
        (a, b) for a in range(n) for b in range(n) if rng.random() < 0.45
    )
    unary = frozenset((a,) for a in range(n) if rng.random() < 0.5)
    return Structure(CORPUS_VOCABULARY, n, {"E": pairs, "U": unary})


def random_team(rng: random.Random, structure: Structure, variables, max_rows: int) -> Team:
    """A random team; empty teams are drawn but kept rare."""
    vs = tuple(sorted(set(variables)))
    rows = canonical_rows(structure.domain_size, vs)
    upper = min(max_rows, len(rows))
    if upper >= 1 and rng.random() < 0.85:
        count = rng.randint(1, upper)
    else:
        count = rng.randint(0, upper)
    return Team(vs, frozenset(rng.sample(rows, count)))


# --- formula generation ----------------------------------------------------------

def _random_literal(rng: random.Random, pool: list[str]) -> Formula:
    kind = rng.randrange(4)
    a, b = rng.choice(pool), rng.choice(pool)
    if kind == 0:
        return Eq(Var(a), Var(b))
    if kind == 1:
        return Neq(Var(a), Var(b))
    if kind == 2:
        return Rel("E", (Var(a), Var(b))) if rng.random() < 0.7 else Rel("U", (Var(a),))
    return NegRel("E", (Var(a), Var(b))) if rng.random() < 0.7 else NegRel("U", (Var(a),))


def _random_team_atom(rng: random.Random, fragment: str, pool: list[str]) -> Formula:
    def tup(max_len: int, allow_empty: bool = False) -> tuple:
        low = 0 if allow_empty else 1
        return tuple(Var(rng.choice(pool)) for _ in range(rng.randint(low, max_len)))

    if fragment == "FO(dep)":
        return Dep(tup(2, allow_empty=True), tup(1))
    if fragment == "FO(inc)":
        width = rng.randint(1, 2)
        return Inc(
            tuple(Var(rng.choice(pool)) for _ in range(width)),
            tuple(Var(rng.choice(pool)) for _ in range(width)),
        )
    if fragment == "FO(indep)":
        return Indep(tup(1, allow_empty=True), tup(1), tup(1))
    raise ValueError(fragment)


def _random_quantifier_free(rng: random.Random, fragment: str, pool: list[str]) -> Formula:
    leaves = rng.randint(1, 4)
    atoms: list[Formula] = []
    team_atoms = 0 if fragment == "FO" else rng.randint(1, 2)
    for _ in range(team_atoms):
        atoms.append(_random_team_atom(rng, fragment, pool))
    while len(atoms) < max(leaves, team_atoms):
        atoms.append(_random_literal(rng, pool))
    rng.shuffle(atoms)
    while len(atoms) > 1:
        right = atoms.pop()
        left = atoms.pop()
        atoms.append(And(left, right) if rng.random() < 0.6 else Or(left, right))
    return atoms[0]


_PREFIX_SHAPES = (
    (),
    ("exists",),
    ("forall",),
    ("exists", "exists"),
    ("exists", "forall"),
    ("forall", "forall"),
    ("forall", "exists"),
)


def search_cost(formula: Formula, team_size: int, domain_size: int) -> float:
    """Crude upper bound on exhaustive-evaluation work, in atom-check units."""
    big = float("inf")

    def go(node: Formula, rows: int) -> float:
        rows = max(rows, 1)
        if isinstance(node, (And,)):
            return go(node.left, rows) + go(node.right, rows)
        if isinstance(node, Or):
            if rows > 40:
                return big
            side = go(node.left, rows) + go(node.right, rows)
            return (2.0 ** rows) * (rows + 1) + side * (2.0 ** rows) / max(rows, 1)
        if isinstance(node, Exists):
            dup_rows = rows * domain_size
            if dup_rows > 40:
                return big
            candidates = (2.0 ** domain_size - 1) ** rows
            return (2.0 ** dup_rows) + candidates * go(node.body, dup_rows)
        if isinstance(node, Forall):
            return go(node.body, rows * domain_size)
        return float(rows * rows + 1)

    return go(formula, team_size)


DEFAULT_BUDGET = 2e5


def random_formula(
    rng: random.Random,
    fragment: str,
    domain_size: int,
    team_size: int,
    budget: float = DEFAULT_BUDGET,
) -> Formula:
    """A budgeted random formula of quantifier depth <= 2 over free ``x``, ``y``."""
    free_pool = ("x", "y")
    bound_pool = ("u", "v")
    for _ in range(300):
        prefix = rng.choice(_PREFIX_SHAPES)
        bound = list(bound_pool[: len(prefix)])
        pool = list(free_pool) + bound
        body = _random_quantifier_free(rng, fragment, pool)
        formula = body
        for quantifier, var in zip(reversed(prefix), reversed(bound)):
            formula = Exists(var, formula) if quantifier == "exists" else Forall(var, formula)
        if not free_vars(formula) <= set(free_pool):
            continue
        if search_cost(formula, team_size, domain_size) <= budget:
            return formula
    return _random_quantifier_free(rng, fragment, list(free_pool))


def random_sentence(
    rng: random.Random,
    fragment: str,
    domain_size: int,
) -> Formula:
    """A budgeted random sentence (all variables quantified)."""
    for _ in range(300):
        prefix = rng.choice([shape for shape in _PREFIX_SHAPES if shape])
        bound = ["u", "v"][: len(prefix)]
        body = _random_quantifier_free(rng, fragment, bound)
        formula = body
        for quantifier, var in zip(reversed(prefix), reversed(bound)):
            formula = Exists(var, formula) if quantifier == "exists" else Forall(var, formula)
        if free_vars(formula):
            continue
        if search_cost(formula, 1, domain_size) <= DEFAULT_BUDGET:
            return formula
    return Forall("u", Eq(Var("u"), Var("u")))


# --- propositional corpora --------------------------------------------------------

def random_layered_prop(
    rng: random.Random,
    depth: int,
    positive: bool,
) -> PropFormula:
    """A uniform-polarity formula shaped as strict and/or layers over ``x1``..``x6``."""
    variables = list(range(1, 7))

    def build(level: int) -> PropFormula:
        if level == depth:
            return PLit(rng.choice(variables), positive)
        width = rng.randint(1, 3 if level > 0 else 4)
        children = tuple(build(level + 1) for _ in range(width))
        return PAnd(children) if level % 2 == 0 else POr(children)

    return build(0)


# --- graphs and circuits -----------------------------------------------------------

def all_graphs(vertex_count: int) -> Iterator[Graph]:
    """Every simple graph on the given vertices, in edge-set order."""
    slots = list(itertools.combinations(range(vertex_count), 2))
    for bits in itertools.product((False, True), repeat=len(slots)):
        yield Graph.make(vertex_count, (e for e, b in zip(slots, bits) if b))


def random_circuit(rng: random.Random, max_gates: int = 6) -> BooleanCircuit:
    """A random monotone circuit: inputs first, internal gates feeding forward."""
    gate_count = rng.randint(2, max_gates)
    input_count = rng.randint(1, max(1, gate_count - 1))
    inputs = frozenset(range(input_count))
    or_gates: set[int] = set()
    and_gates: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for gate in range(input_count, gate_count):
        (or_gates if rng.random() < 0.5 else and_gates).add(gate)
        fan_in = rng.randint(1, min(3, gate))
        for child in rng.sample(range(gate), fan_in):
            edges.add((child, gate))
    output = gate_count - 1 if gate_count > input_count else 0
    return BooleanCircuit(
        gate_count,
        frozenset(edges),
        inputs,
        frozenset(or_gates),
        frozenset(and_gates),
        output,
    )

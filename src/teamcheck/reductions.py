"""Instance encoders, their source problems, and brute-force oracles.

Each encoder turns a source instance (graph problem or weighted
propositional satisfiability) into a weighted team question.  Degenerate
parameter values are answered by the encoder itself with a canonical
trivial instance so the emitted reduction is total and correct:

* ``k = 0``: every source problem here admits the empty solution except
  dominating set on a nonempty graph, so the encoder emits ``x=x`` with
  ``k'=0`` (always satisfiable) or ``x!=x`` with ``k'=1`` (never), as
  appropriate;
* ``k`` above the vertex/variable count: trivially no, encoded as ``x!=x``
  with ``k'=1``;
* clique ``k=1``: yes exactly when the graph has a vertex.

On the remaining range the emitted parameter is ``k`` itself, except for
clique, which asks for a team of ``k*k - k`` ordered pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .formulas import (
    And,
    Const,
    Exists,
    Forall,
    Formula,
    Inc,
    NegRel,
    Or,
    Rel,
    Var,
    parse,
)
from .model import Structure, Vocabulary, is_numeral, numeral, text_lines
from .prop import (
    PLit,
    PropFormula,
    layered_depth,
    normalize_layered,
    polarity,
    prop_eval,
    prop_variables,
)
from .solver import WdFormula, WtInstance


# --- graphs -------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Simple undirected loop-free graph on vertices ``0..vertex_count-1``."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) outside the vertex range")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def make(cls, vertex_count: int, edges) -> "Graph":
        return cls(vertex_count, frozenset(tuple(e) for e in edges))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbours(self, u: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == u:
                out.add(b)
            elif b == u:
                out.add(a)
        return out


def parse_graph(text: str) -> Graph:
    """Graph file format: ``p <n> <m>`` then ``m`` lines ``e <u> <v>`` (0-based)."""
    vertex_count: int | None = None
    declared_edges: int | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, _, parts in text_lines(text):
        if parts[0] == "p":
            if len(parts) != 3 or not all(map(is_numeral, parts[1:])):
                raise ParseError("expected `p <n> <m>`", lineno, 1)
            vertex_count, declared_edges = numeral(parts[1], lineno), numeral(parts[2], lineno)
        elif parts[0] == "e":
            if vertex_count is None:
                raise ParseError("edge before the `p` header", lineno, 1)
            if len(parts) != 3 or not all(map(is_numeral, parts[1:])):
                raise ParseError("expected `e <u> <v>`", lineno, 1)
            edges.add((numeral(parts[1], lineno), numeral(parts[2], lineno)))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno, 1)
    if vertex_count is None:
        raise ParseError("missing `p <n> <m>` header")
    if declared_edges is not None and declared_edges != len(edges):
        raise ParseError(f"header declares {declared_edges} edges, file has {len(edges)}")
    try:
        return Graph.make(vertex_count, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def render_graph(graph: Graph) -> str:
    lines = [f"p {graph.vertex_count} {len(graph.edges)}"]
    for u, v in sorted(graph.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def graph_brute(problem: str, graph: Graph, k: int) -> bool:
    """Exhaustive check for clique / indset / domset solutions of size exactly k."""
    if k < 0:
        raise ValueError("solution size must be nonnegative")
    if k > graph.vertex_count:
        return False
    for subset in itertools.combinations(range(graph.vertex_count), k):
        if problem == "clique":
            if all(graph.adjacent(u, v) for u, v in itertools.combinations(subset, 2)):
                return True
        elif problem == "indset":
            if all(not graph.adjacent(u, v) for u, v in itertools.combinations(subset, 2)):
                return True
        elif problem == "domset":
            chosen = set(subset)
            if all(v in chosen or chosen & graph.neighbours(v) for v in range(graph.vertex_count)):
                return True
        else:
            raise ValueError(f"unknown problem {problem!r}")
    return False


# --- graph encoders -----------------------------------------------------------

CLIQUE_FORMULA = "E(x,y) & x!=y & inc(y;x) & inc(x;y)"
DOMSET_FORMULA = "forall x exists y (inc(y;z) & (E(x,y) | x=y))"
INDSET_FORMULA = "forall y (N(x) & (!P(y) | !I(x,y) | dep(y;x)))"

_GRAPH_VOCAB = Vocabulary(relations=(("E", 2),))


def graph_structure(graph: Graph) -> Structure:
    pairs = set()
    for u, v in graph.edges:
        pairs.add((u, v))
        pairs.add((v, u))
    return Structure(_GRAPH_VOCAB, max(graph.vertex_count, 1), {"E": frozenset(pairs)})


def _trivial_yes(structure: Structure) -> WtInstance:
    return WtInstance(structure, parse("x=x"), 0)


def _trivial_no(structure: Structure) -> WtInstance:
    return WtInstance(structure, parse("x!=x"), 1)


def encode_clique(graph: Graph, k: int) -> WtInstance:
    """Clique as a quantifier-free inclusion question over ordered pairs.

    On 2 <= k <= |V| the emitted size is ``k*k - k``.  The reverse
    direction of that encoding is exercised experimentally, not assumed;
    see the clique experiment in ``verify``.
    """
    if k < 0:
        raise ValueError("solution size must be nonnegative")
    structure = graph_structure(graph)
    if k == 0:
        return _trivial_yes(structure)
    if k > graph.vertex_count:
        return _trivial_no(structure)
    if k == 1:
        return _trivial_yes(structure) if graph.vertex_count >= 1 else _trivial_no(structure)
    formula = parse(CLIQUE_FORMULA, structure.vocabulary)
    return WtInstance(structure, formula, k * k - k)


def encode_domset(graph: Graph, k: int) -> WtInstance:
    """Dominating set as a forall/exists inclusion question over one variable."""
    structure = graph_structure(graph)
    if k == 0:
        return _trivial_yes(structure) if graph.vertex_count == 0 else _trivial_no(structure)
    if k > graph.vertex_count:
        return _trivial_no(structure)
    formula = parse(DOMSET_FORMULA, structure.vocabulary)
    return WtInstance(structure, formula, k)


_INDSET_VOCAB = Vocabulary(relations=(("N", 1), ("P", 1), ("I", 2)))


def encode_indset(graph: Graph, k: int) -> WtInstance:
    """Independent set as a single-universal dependence question.

    The domain is vertices followed by edge elements; ``N`` marks vertices,
    ``P`` edge elements, and ``I`` relates each edge to its endpoints.
    """
    edge_list = sorted(graph.edges)
    size = graph.vertex_count + len(edge_list)
    vertices = frozenset((v,) for v in range(graph.vertex_count))
    edge_elems = frozenset((graph.vertex_count + i,) for i in range(len(edge_list)))
    incidence = set()
    for i, (u, v) in enumerate(edge_list):
        e = graph.vertex_count + i
        incidence.add((u, e))
        incidence.add((v, e))
    structure = Structure(
        _INDSET_VOCAB,
        max(size, 1),
        {"N": vertices, "P": edge_elems, "I": frozenset(incidence)},
    )
    if k == 0:
        return _trivial_yes(structure)
    if k > graph.vertex_count:
        return _trivial_no(structure)
    formula = parse(INDSET_FORMULA, structure.vocabulary)
    return WtInstance(structure, formula, k)


# --- syntax circuits and the level formulas -------------------------------------

_CIRCUIT_VOCAB = Vocabulary(relations=(("E", 2), ("I", 1)), constants=("o",))


def build_syntax_circuit(formula: PropFormula, depth: int | None = None) -> Structure:
    """Relational encoding of a uniform-polarity formula's syntax tree.

    Nodes are the connective occurrences (preorder ids) followed by one
    element per propositional variable, shared across occurrences.  ``E``
    holds (parent, child) pairs — the level formulas walk the tree from the
    root constant ``o`` downwards.  ``I`` marks the variable elements.

    The tree is first padded with single-child layers so literals sit at a
    uniform alternation depth (the least one, unless ``depth`` is given);
    trees too deep for the requested depth are rejected.
    """
    if polarity(formula) == "mixed":
        raise ValueError("syntax circuits require uniform literal polarity")
    if depth is None:
        depth = layered_depth(formula)
    layered = normalize_layered(formula, depth)

    variables = prop_variables(formula)

    internal_count = 0

    def count_internal(node: PropFormula) -> None:
        nonlocal internal_count
        if isinstance(node, PLit):
            return
        internal_count += 1
        for child in node.children:
            count_internal(child)

    count_internal(layered)
    var_element = {
        index: internal_count + offset for offset, index in enumerate(variables)
    }

    edges: set[tuple[int, int]] = set()
    next_id = 0

    def assign(node: PropFormula) -> int:
        nonlocal next_id
        if isinstance(node, PLit):
            return var_element[node.index]
        my_id = next_id
        next_id += 1
        for child in node.children:
            edges.add((my_id, assign(child)))
        return my_id

    root = assign(layered)
    domain = internal_count + len(variables)
    return Structure(
        _CIRCUIT_VOCAB,
        max(domain, 1),
        {
            "E": frozenset(edges),
            "I": frozenset((var_element[i],) for i in variables),
        },
        {"o": root},
    )


def _levels(depth: int, innermost: Callable[[Var], Formula]) -> Formula:
    """The alternating walk down a syntax circuit from the root constant ``o``.

    Universal levels guard with a negated edge literal, existential levels
    with a positive one; the innermost level asserts membership in ``I``
    and ``innermost`` of its variable.
    """

    def level(i: int) -> Formula:
        var = Var(f"x{i}")
        prev = Const("o") if i == 1 else Var(f"x{i - 1}")
        body = And(Rel("I", (var,)), innermost(var)) if i == depth else level(i + 1)
        if i % 2 == 1:
            return Forall(f"x{i}", Or(NegRel("E", (prev, var)), body))
        return Exists(f"x{i}", _conjoin(Rel("E", (prev, var)), body))

    return level(1)


@functools.lru_cache(maxsize=64)
def theta_formula(depth: int, negative: bool = False) -> WdFormula:
    """The alternating reachability sentence over a syntax circuit.

    The innermost level asserts (non-)membership in the free symbol ``S``.
    The negative variant additionally constrains ``S`` to the variable
    elements — an antitone guard, so the symbol still occurs only
    negatively; without it, arbitrary elements could pad a small solution
    to the requested size.  Built once per ``(depth, negative)`` and
    shared, like the formulas ``parse`` keeps, so its per-node facts are
    computed once.
    """
    if depth < 1:
        raise ValueError("the level formula needs depth at least 1")
    spine = _levels(depth, lambda var: NegRel("S", (var,)) if negative else Rel("S", (var,)))
    if negative:
        guard = Forall("x0", Or(NegRel("S", (Var("x0"),)), Rel("I", (Var("x0"),))))
        return WdFormula(And(guard, spine), "S", 1)
    return WdFormula(spine, "S", 1)


def _conjoin(left: Formula, right: Formula) -> Formula:
    """Attach ``left`` before an existing conjunction chain, keeping it flat."""
    if isinstance(right, And):
        return And(_conjoin(left, right.left), right.right)
    return And(left, right)


def phi_inclusion(depth: int) -> Formula:
    """The positive level formula with an inclusion atom in place of the free symbol.

    Defined for even depths, where the innermost level is existential: the
    chosen variable elements must occur among the values of the free
    variable ``z``.
    """
    if depth < 1 or depth % 2 != 0:
        raise ValueError("the inclusion level formula is defined for even depths >= 2")
    return _levels(depth, lambda var: Inc((var,), (Var("z"),)))


def wsat_brute(formula: PropFormula, k: int) -> bool:
    """Exhaustive weighted satisfiability: a model setting exactly k variables true."""
    if k < 0:
        raise ValueError("weight must be nonnegative")
    variables = prop_variables(formula)
    if k > len(variables):
        return False
    for chosen in itertools.combinations(variables, k):
        if prop_eval(formula, chosen):
            return True
    return False


def encode_wsat(formula: PropFormula, k: int) -> tuple[WtInstance, int]:
    """Weighted satisfiability of a positive formula as an inclusion question.

    The formula is layered at its least even alternation depth (padding one
    single-child disjunction layer when the natural depth is odd); returns
    the instance and the depth used.  Out-of-range weights are answered by
    trivial instances as in the graph encoders.
    """
    if polarity(formula) not in ("positive",):
        raise ValueError("the inclusion encoding applies to all-positive formulas")
    depth = layered_depth(formula)
    if depth % 2 == 1:
        depth += 1
    if depth < 2:
        depth = 2
    structure = build_syntax_circuit(formula, depth)
    variables = prop_variables(formula)
    if k == 0:
        return _trivial_yes(structure), depth
    if k > len(variables):
        return _trivial_no(structure), depth
    return WtInstance(structure, phi_inclusion(depth), k), depth


# --- monotone circuits ----------------------------------------------------------

@dataclass(frozen=True)
class BooleanCircuit:
    """A monotone circuit as a gate DAG.

    ``edges`` holds (child, parent) pairs: the child feeds the parent.
    ``inputs``, ``or_gates`` and ``and_gates`` partition the gates; inputs
    have no incoming edges.
    """

    gate_count: int
    edges: frozenset[tuple[int, int]]
    inputs: frozenset[int]
    or_gates: frozenset[int]
    and_gates: frozenset[int]
    output: int

    def __post_init__(self) -> None:
        gates = set(range(self.gate_count))
        groups = [set(self.inputs), set(self.or_gates), set(self.and_gates)]
        if set().union(*groups) != gates or sum(len(g) for g in groups) != self.gate_count:
            raise ValueError("inputs, or-gates and and-gates must partition the gates")
        if self.output not in gates:
            raise ValueError("output is not a gate")
        for child, parent in self.edges:
            if child not in gates or parent not in gates:
                raise ValueError(f"edge ({child},{parent}) outside the gate range")
            if parent in self.inputs:
                raise ValueError(f"input gate {parent} has an incoming edge")
        order = self.topological_order()
        if order is None:
            raise ValueError("circuit edges contain a cycle")

    def children(self, gate: int) -> list[int]:
        return sorted(c for c, p in self.edges if p == gate)

    def topological_order(self) -> list[int] | None:
        incoming = {g: 0 for g in range(self.gate_count)}
        for _, parent in self.edges:
            incoming[parent] += 1
        ready = sorted(g for g, deg in incoming.items() if deg == 0)
        order: list[int] = []
        while ready:
            gate = ready.pop(0)
            order.append(gate)
            for child, parent in sorted(self.edges):
                if child == gate:
                    incoming[parent] -= 1
                    if incoming[parent] == 0:
                        ready.append(parent)
            ready.sort()
        return order if len(order) == self.gate_count else None


def circuit_eval(circuit: BooleanCircuit, inputs_on: frozenset[int] | set[int]) -> bool:
    """Bottom-up evaluation; an and-gate with no children is vacuously true."""
    chosen = frozenset(inputs_on)
    if not chosen <= circuit.inputs:
        raise ValueError("the input set must consist of input gates")
    value: dict[int, bool] = {}
    for gate in circuit.topological_order():
        if gate in circuit.inputs:
            value[gate] = gate in chosen
        else:
            child_values = [value[c] for c in circuit.children(gate)]
            value[gate] = any(child_values) if gate in circuit.or_gates else all(child_values)
    return value[circuit.output]


def proof_tree_exists(circuit: BooleanCircuit, inputs_on: frozenset[int] | set[int]) -> bool:
    """Search for a gate subset witnessing acceptance.

    The witness must contain the output, agree with the input set on the
    inputs, feed every or-gate it contains by at least one member, and
    contain every child of each and-gate it contains.
    """
    chosen = frozenset(inputs_on)
    if not chosen <= circuit.inputs:
        raise ValueError("the input set must consist of input gates")
    gates = list(range(circuit.gate_count))
    for bits in itertools.product((False, True), repeat=circuit.gate_count):
        witness = {g for g, b in zip(gates, bits) if b}
        if circuit.output not in witness:
            continue
        if witness & circuit.inputs != chosen:
            continue
        ok = True
        for gate in witness:
            children = circuit.children(gate)
            if gate in circuit.or_gates:
                if not any(c in witness for c in children):
                    ok = False
                    break
            elif gate in circuit.and_gates:
                if not all(c in witness for c in children):
                    ok = False
                    break
        if ok:
            return True
    return False

"""The suites ``teamcheck verify`` runs, each within fixed size limits.

Closure properties, the inclusion fixpoint grid, reduction faithfulness,
the clique experiment and circuit proof trees each produce a line-per-case
report plus pass/fail/discrepancy counts.  Failures mean a checked invariant
is violated; discrepancies are recorded observations (the clique experiment
reports them without failing).  Each suite runs its cases in this process,
one after another, as it draws them; a case's index is its position in the
report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator

from .corpus import (
    SplitMix64,
    all_graphs,
    random_circuit,
    random_formula,
    random_layered_prop,
    random_structure,
    random_team,
)
from .evaluator import eval_fo_tarski, eval_team
from .formulas import free_vars, parse
from .inclusion import eval_inclusion, max_subteam
from .model import Team, canonical_rows
from .prop import parse_prop, prop_variables, render_prop
from .reductions import (
    Graph,
    build_syntax_circuit,
    circuit_eval,
    encode_clique,
    encode_domset,
    encode_indset,
    encode_wsat,
    graph_brute,
    graph_structure,
    proof_tree_exists,
    theta_formula,
    wsat_brute,
)
from .solver import WdFormula, compile_check, wd_solve, wt_solve


@dataclass(frozen=True)
class CaseResult:
    index: int
    name: str
    status: str  # pass | fail | discrepancy
    detail: str = ""


@dataclass
class Report:
    suite: str
    cases: list[CaseResult]
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def discrepancies(self) -> int:
        return sum(1 for c in self.cases if c.status == "discrepancy")

    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        return (
            f"summary: suite={self.suite} cases={len(self.cases)} "
            f"pass={self.passed} fail={self.failed} discrepancies={self.discrepancies}"
        )

    def lines(self) -> list[str]:
        out = []
        for case in self.cases:
            line = f"{self.suite} {case.index:05d} {case.status.upper()} {case.name}"
            if case.detail:
                line += f" :: {case.detail}"
            out.append(line)
        out.append(self.summary())
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "cases": [
                    {"index": c.index, "name": c.name, "status": c.status, "detail": c.detail}
                    for c in self.cases
                ],
                "summary": {
                    "cases": len(self.cases),
                    "pass": self.passed,
                    "fail": self.failed,
                    "discrepancies": self.discrepancies,
                },
                "metadata": self.metadata,
            },
            indent=2,
            sort_keys=True,
        )


# --- closure suite -----------------------------------------------------------

_FRAGMENTS = ("FO", "FO(dep)", "FO(inc)", "FO(indep)")


def _subteams(team: Team) -> Iterator[Team]:
    """Every subteam of ``team``, one per bitmask over its sorted rows."""
    rows = sorted(team.rows)
    for mask in range(1 << len(rows)):
        yield Team(team.variables, frozenset(r for i, r in enumerate(rows) if mask >> i & 1))


def _closure_case(index, fragment, structure, team, second_team, formula) -> CaseResult:
    violations: list[str] = []

    satisfied = eval_team(structure, team, formula)

    if not eval_team(structure, Team.empty(team.variables), formula):
        violations.append("empty-team")

    free = tuple(sorted(free_vars(formula)))
    columns = [team.variables.index(v) for v in free]
    projected = Team(free, frozenset(tuple(row[c] for c in columns) for row in team.rows))
    local = eval_team(structure, projected, formula)
    if local != satisfied:
        violations.append("locality")

    if fragment == "FO":
        flat = all(
            eval_fo_tarski(structure, assignment, formula) for assignment in team.assignments()
        )
        if flat != satisfied:
            violations.append("flatness")

    if fragment in ("FO", "FO(dep)"):
        if compile_check(structure, formula, team.variables, "strict")(team.rows) != satisfied:
            violations.append("strict-lax")
        if satisfied and not all(eval_team(structure, sub, formula) for sub in _subteams(team)):
            violations.append("downward-closure")

    if fragment == "FO(inc)":
        other = eval_team(structure, second_team, formula)
        if satisfied and other:
            union = Team(team.variables, team.rows | second_team.rows)
            if not eval_team(structure, union, formula):
                violations.append("union-closure")
        if len(team) <= 3:
            satisfying = [sub.rows for sub in _subteams(team) if eval_team(structure, sub, formula)]
            for left in satisfying[:8]:
                for right in satisfying[:8]:
                    union = Team(team.variables, left | right)
                    if not eval_team(structure, union, formula):
                        violations.append("union-closure")
                        break
                else:
                    continue
                break

    status = "pass" if not violations else "fail"
    name = f"{fragment} n={structure.domain_size} team={len(team)}"
    return CaseResult(index, name, status, ",".join(violations))


def run_closure_suite(seed: int, cases_per_fragment: int = 500) -> Report:
    """Empty-team, locality, flatness, downward/union closure, strict-lax agreement."""
    max_domain = max_team_rows = 4
    rng = SplitMix64(seed)
    cases = []
    for fragment in _FRAGMENTS:
        for _ in range(cases_per_fragment):
            structure = random_structure(rng, max_domain)
            with_extra = rng.random() < 0.4
            formula = random_formula(rng, fragment, structure.domain_size, max_team_rows)
            domain = sorted(free_vars(formula) | ({"w"} if with_extra else set()))
            team = random_team(rng, structure, domain, max_team_rows)
            second = random_team(rng, structure, domain, max_team_rows)
            cases.append(_closure_case(len(cases), fragment, structure, team, second, formula))
    return Report("closure", cases, {"seed": seed, "cases_per_fragment": cases_per_fragment})


# --- inclusion fixpoint suite ---------------------------------------------------

#: Inclusion-formula templates for the fixpoint cross-validation grid.  The
#: two-variable templates run on every structure/team in the grid; the
#: forall/exists template (the shape of the dominating-set encoding) is
#: exercised at domain size <= 2, where the exhaustive evaluator stays
#: cheap, and the dominating-set reduction suite covers it at scale.
INCLUSION_TEMPLATES: tuple[tuple[str, int], ...] = (
    ("inc(x;y)", 3),
    ("inc(x;y) & E(x,y)", 3),
    ("inc(x,y;y,x) | x=y", 3),
    ("E(x,y) & x!=y & inc(y;x) & inc(x;y)", 3),
    ("inc(x;y) | inc(y;x)", 3),
    ("exists u (E(x,u) & inc(u;x))", 3),
    ("forall u (!E(u,x) | inc(x;u))", 3),
    ("exists u (inc(u;x) & (E(u,y) | u=y))", 3),
    ("forall u exists v (inc(v;x) & (E(u,v) | u=v))", 2),
)


def _inclusion_case(index, structure, team, text) -> CaseResult:
    formula = parse(text, structure.vocabulary)
    fixpoint = eval_inclusion(structure, team, formula)
    generic = eval_team(structure, team, formula)
    problems = []
    if fixpoint != generic:
        problems.append(f"verdict fixpoint={fixpoint} generic={generic}")
    maximal = max_subteam(structure, team, formula)
    union = frozenset().union(*(sub.rows for sub in _subteams(team) if eval_team(structure, sub, formula)))
    if union != maximal.rows:
        problems.append("max-subteam differs from union of satisfying subteams")
    status = "pass" if not problems else "fail"
    return CaseResult(index, f"{text} n={structure.domain_size} team={len(team)}", status, "; ".join(problems))


def run_inclusion_suite(seed: int) -> Report:
    """Fixpoint evaluation versus the exhaustive evaluator and subteam enumeration."""
    max_team_rows = 4
    rng = SplitMix64(seed)
    cases = []
    for text, template_max_n in INCLUSION_TEMPLATES:
        formula = parse(text)
        variables = tuple(sorted(free_vars(formula)))
        for n in range(1, template_max_n + 1):
            for _ in range(2):
                structure = random_structure(rng, n, min_domain=n)
                rows = canonical_rows(n, variables)
                for size in range(0, min(max_team_rows, len(rows)) + 1):
                    for combo in itertools.combinations(range(len(rows)), size):
                        team = Team(variables, frozenset(rows[i] for i in combo))
                        cases.append(_inclusion_case(len(cases), structure, team, text))
    return Report("inclusion", cases, {"seed": seed, "templates": len(INCLUSION_TEMPLATES)})


# --- reductions suite ------------------------------------------------------------

_GRAPH_ENCODERS = {"domset": encode_domset, "indset": encode_indset}


def _graph_case(index, problem, graph, k) -> CaseResult:
    expected = graph_brute(problem, graph, k)
    solved = wt_solve(_GRAPH_ENCODERS[problem](graph, k)) is not None
    status = "pass" if solved == expected else "fail"
    return CaseResult(index, f"{problem} edges={sorted(graph.edges)} k={k}", status,
                      "" if status == "pass" else f"brute={expected} solver={solved}")


CLIQUE_WD_TEXT = "forall x forall y (!S(x) | !S(y) | x=y | E(x,y))"


def clique_wd_formula() -> WdFormula:
    return WdFormula(parse(CLIQUE_WD_TEXT), "S", 1)


def _wd_clique_case(index, graph, k) -> CaseResult:
    structure = graph_structure(graph)
    expected = graph_brute("clique", graph, k)
    solved = wd_solve(structure, clique_wd_formula(), k) is not None
    status = "pass" if solved == expected else "fail"
    return CaseResult(index, f"wd-clique edges={sorted(graph.edges)} k={k}", status,
                      "" if status == "pass" else f"brute={expected} wd={solved}")


def _wsat_inclusion_case(index, sample, formula_blob, k) -> CaseResult:
    formula = parse_prop(formula_blob)
    expected = wsat_brute(formula, k)
    instance, depth = encode_wsat(formula, k)
    witness = wt_solve(instance)
    status = "pass" if (witness is not None) == expected else "fail"
    return CaseResult(index, f"wsat-inc #{sample} {formula_blob!r} k={k} depth={depth}", status,
                      "" if status == "pass" else f"brute={expected} solver={witness is not None}")


def _theta_case(index, formula_blob, depth, negative, k) -> CaseResult:
    formula = parse_prop(formula_blob)
    expected = wsat_brute(formula, k)
    structure = build_syntax_circuit(formula, depth)
    wd = theta_formula(depth, negative=negative)
    solved = wd_solve(structure, wd, k) is not None
    status = "pass" if solved == expected else "fail"
    kind = "negative" if negative else "positive"
    return CaseResult(index, f"theta-{kind} depth={depth} {formula_blob!r} k={k}", status,
                      "" if status == "pass" else f"brute={expected} wd={solved}")


def run_reductions_suite(
    seed: int,
    vertex_count: int = 5,
    wsat_samples: int = 200,
    theta_samples: int = 200,
) -> Report:
    """Exhaustive graph-reduction faithfulness plus sampled level-formula checks."""
    rng = SplitMix64(seed)
    ks = (1, 2, 3)
    graphs = list(all_graphs(vertex_count))

    cases = []
    for problem in _GRAPH_ENCODERS:
        for graph in graphs:
            for k in ks:
                cases.append(_graph_case(len(cases), problem, graph, k))
    for graph in graphs:
        for k in range(0, max(ks) + 1):
            cases.append(_wd_clique_case(len(cases), graph, k))

    for sample in range(wsat_samples):
        formula = random_layered_prop(rng, 2, positive=True)
        blob = render_prop(formula)
        for k in range(1, len(prop_variables(formula)) + 1):
            cases.append(_wsat_inclusion_case(len(cases), sample, blob, k))

    for depth in (1, 3):
        for _ in range(theta_samples // 2):
            formula = random_layered_prop(rng, depth, positive=False)
            blob = render_prop(formula)
            for k in range(1, len(prop_variables(formula)) + 1):
                cases.append(_theta_case(len(cases), blob, depth, True, k))
    for _ in range(theta_samples // 4):
        formula = random_layered_prop(rng, 2, positive=True)
        blob = render_prop(formula)
        for k in range(1, len(prop_variables(formula)) + 1):
            cases.append(_theta_case(len(cases), blob, 2, False, k))

    return Report(
        "reductions",
        cases,
        {
            "seed": seed,
            "vertex_count": vertex_count,
            "k_values": list(ks),
            "wsat_samples": wsat_samples,
            "theta_samples": theta_samples,
        },
    )


# --- clique experiment -----------------------------------------------------------

def _clique_experiment_case(index, graph, k) -> CaseResult:
    name = f"clique edges={sorted(graph.edges)} k={k}"
    expected = graph_brute("clique", graph, k)
    instance = encode_clique(graph, k)
    witness = wt_solve(instance)
    solved = witness is not None
    if expected and not solved:
        return CaseResult(index, name, "fail", "forward direction broken")
    if solved and not expected:
        return CaseResult(
            index,
            name,
            "discrepancy",
            f"encoded instance satisfiable without a {k}-clique (team size {instance.k})",
        )
    return CaseResult(index, name, "pass")


def run_clique_experiment(vertex_count: int = 5) -> Report:
    """Full-equivalence experiment for the clique encoding.

    The forward direction (clique implies satisfiable encoding) is an
    invariant; reverse-direction mismatches are reported as discrepancies
    in machine-readable form, not failures.
    """
    cases = []
    discrepancies = []
    k_values = (2, 3)
    for graph in all_graphs(vertex_count):
        for k in k_values:
            case = _clique_experiment_case(len(cases), graph, k)
            cases.append(case)
            if case.status == "discrepancy":
                discrepancies.append(
                    {"edges": sorted(list(e) for e in graph.edges), "k": k, "detail": case.detail}
                )
    pentagon = Graph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pentagon_case = {
        "edges": sorted(list(e) for e in pentagon.edges),
        "k": 3,
        "satisfiable_without_clique": wt_solve(encode_clique(pentagon, 3)) is not None,
    }
    return Report(
        "clique-experiment",
        cases,
        {
            "vertex_count": vertex_count,
            "k_values": list(k_values),
            "discrepancies": discrepancies,
            "pentagon_check": pentagon_case,
        },
    )


# --- circuit suite ---------------------------------------------------------------

def _circuit_case(index, circuit) -> CaseResult:
    for size in range(len(circuit.inputs) + 1):
        for chosen in itertools.combinations(sorted(circuit.inputs), size):
            direct = circuit_eval(circuit, frozenset(chosen))
            via_tree = proof_tree_exists(circuit, frozenset(chosen))
            if direct != via_tree:
                return CaseResult(
                    index,
                    f"circuit gates={circuit.gate_count} inputs={sorted(circuit.inputs)}",
                    "fail",
                    f"inputs={chosen} eval={direct} proof-tree={via_tree}",
                )
    return CaseResult(index, f"circuit gates={circuit.gate_count} inputs={sorted(circuit.inputs)}", "pass")


def run_circuit_suite(seed: int, circuits: int = 500) -> Report:
    """Bottom-up circuit evaluation versus exhaustive proof-tree search."""
    max_gates = 6
    rng = SplitMix64(seed)
    cases = [_circuit_case(i, random_circuit(rng, max_gates)) for i in range(circuits)]
    return Report("circuit", cases, {"seed": seed, "circuits": circuits, "max_gates": max_gates})

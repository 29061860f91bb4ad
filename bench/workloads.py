"""The three benchmark workloads.

Every workload draws its inputs from a fixed *pool* that ``teamcheck.corpus``
generates from ``POOL_SEED``.  The pool's expected answers (colex-first
witness digests, or verdicts for ``team-check``) are pinned in
``bench/pinned/<workload>.json``, so every instance a run times is checked
against a pinned answer as well as against a brute-force oracle.  The run's
``--seed`` picks the *stream*: a seeded systematic sample of the pool, dealt
into blocks that each spread evenly over the pool's inputs from cheapest to
costliest.  A run that stops at any block has therefore timed the same mix,
which keeps the end-to-end figures steady from seed to seed, and two seeds
time different inputs from the same distribution.

Workload code calls teamcheck only through module attributes
(``tc.solver.wd_solve``), so the tracer can wrap those attributes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace

POOL_SEED = 2024

#: Reverse-direction discrepancies of the clique encoding over every labelled
#: 5-vertex graph with k in {2, 3}, as found by the acceptance suite.
CLIQUE_DISCREPANCIES = 332


def witness_digest(witness) -> str:
    """Short digest of a colex-first witness (a Team or an interpretation)."""
    if witness is None:
        return "-"
    if hasattr(witness, "rows"):
        text = repr((witness.variables, sorted(witness.rows)))
    else:
        text = repr(sorted(witness))
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def digest_text(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@dataclass
class Pool:
    """Pool items and a plain-data description of them for the input digest."""

    items: list
    description: list


@dataclass
class Inputs:
    """A workload's pool, the seeded stream over it, and oracle answers.

    ``stream`` holds pool indices in timing order; ``oracle[i]`` is the
    brute-force answer for pool item ``i`` (``None`` where the workload has
    no independent oracle and relies on the pinned answer).
    """

    pool: list
    stream: list[int]
    oracle: list
    pool_digest: str
    stream_digest: str


class Workload:
    name = ""
    #: Blocks the sorted pool is dealt into, a power of two (see ``inputs``).
    blocks = 1
    #: Percentile reported as ``latency_tail_ms``: the highest one that keeps
    #: at least 10 samples beyond it in a run at this commit's speed.
    tail_percentile = 0.0
    #: Passes over one stream prefix in an untraced run (see ``run.measure``).
    passes = 3
    #: Stream prefix timed once untraced and once traced with ``--trace 1``.
    trace_instances = 0

    # -- to implement --------------------------------------------------------

    def make_pool(self, tc) -> Pool:
        raise NotImplementedError

    def cost_key(self, item, satisfied: bool | None):
        """Sort key of a pool item: items with nearby keys cost about the same.

        ``satisfied`` is the pinned verdict, or ``None`` while pinning.
        """
        raise NotImplementedError

    def oracles(self, tc, items: dict) -> dict:
        """Brute-force answers for ``{pool index: item}``, computed outside the timed region."""
        return {index: None for index in items}

    def run(self, tc, item):
        """The timed instance: from text or graph input to a verdict."""
        raise NotImplementedError

    def answer(self, result) -> str:
        """The pinned form of a result."""
        return witness_digest(result)

    def satisfied(self, answer: str) -> bool:
        return answer != "-"

    def check(self, item, result, expected: str, oracle) -> bool:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------------

    def inputs(self, tc, seed: int, answers: list[str] | None) -> Inputs:
        """The pool, and the stream that ``seed`` deals from it.

        Pool items are sorted by ``cost_key``, with ties in seeded order, and
        dealt round-robin into ``blocks`` blocks (a power of two), so block
        ``j`` holds every ``blocks``-th item of the sorted pool.  The blocks
        are streamed in bit-reversed order from a seeded offset, and each is
        shuffled.  A prefix of the stream then holds, from every run of
        ``blocks`` neighbouring items in cost order, a share spread evenly
        over that run: the same mix of classes, verdicts and costs as the
        whole pool, from the cheapest inputs to the costliest.  Without this,
        the rare costly searches bunch by chance, and a prefix's throughput
        and tail move from seed to seed by 20% to over 100%.  ``answers`` is
        ``None`` only while pinning, where the stream is not used.
        """
        made = self.make_pool(tc)
        pool = made.items
        rng = random.Random(seed)
        ties = list(range(len(pool)))
        rng.shuffle(ties)
        order = sorted(
            range(len(pool)),
            key=lambda index: (
                self.cost_key(pool[index], None if answers is None else self.satisfied(answers[index])),
                ties[index],
            ),
        )
        blocks: list[list[int]] = [[] for _ in range(self.blocks)]
        for position, index in enumerate(order):
            blocks[position % self.blocks].append(index)
        bits = self.blocks.bit_length() - 1
        offset = rng.randrange(self.blocks)
        stream: list[int] = []
        for number in range(self.blocks):
            block = blocks[(_bit_reversed(number, bits) + offset) % self.blocks]
            rng.shuffle(block)
            stream.extend(block)
        oracle = [None] * len(pool)
        for index, answer in self.oracles(tc, dict(enumerate(pool))).items():
            oracle[index] = answer
        return Inputs(pool, stream, oracle, digest_text(made.description), digest_text(stream))


def _bit_reversed(number: int, bits: int) -> int:
    return int(format(number, f"0{bits}b")[::-1], 2) if bits else 0


class ThetaWd(Workload):
    """Weighted definability of the level formula theta over syntax circuits.

    The pool is drawn as the acceptance suite draws its theta cases
    (``verify.run_reductions_suite``): negative depth-1 and depth-3 and
    positive depth-2 layered formulas in the ratio 2:2:1, every size that
    the generator makes, and every k from 1 to the formula's variable count.
    Items are ``(blob, depth, positive, k, domain size)``; the oracle is
    weighted satisfiability of the propositional formula.
    """

    name = "theta-wd"
    #: Formulas per depth-1 and per depth-3 stratum; depth 2 gets half as many.
    formulas = 24
    passes = 3
    blocks = 64
    tail_percentile = 0.95
    trace_instances = 60

    def make_pool(self, tc):
        rng = tc.corpus.SplitMix64(POOL_SEED)
        strata = ((1, False, self.formulas), (3, False, self.formulas), (2, True, self.formulas // 2))
        pool: list = []
        for depth, positive, count in strata:
            for _ in range(count):
                formula = tc.corpus.random_layered_prop(rng, depth, positive=positive)
                blob = tc.prop.render_prop(formula)
                domain = tc.reductions.build_syntax_circuit(formula, depth).domain_size
                variables = len(tc.prop.prop_variables(formula))
                pool.extend((blob, depth, positive, k, domain) for k in range(1, variables + 1))
        return Pool(pool, pool)

    def cost_key(self, item, satisfied):
        # An unsatisfiable search checks every k-subset of the circuit's
        # elements, each by a check that grows with the circuit.
        _, depth, positive, k, domain = item
        return satisfied is not False, math.comb(domain, k) * domain, depth, positive

    def oracles(self, tc, items):
        parsed: dict = {}
        answers = {}
        for index, (blob, _, _, k, _) in items.items():
            if blob not in parsed:
                parsed[blob] = tc.prop.parse_prop(blob)
            answers[index] = tc.reductions.wsat_brute(parsed[blob], k)
        return answers

    def run(self, tc, item):
        blob, depth, positive, k, _ = item
        formula = tc.prop.parse_prop(blob)
        structure = tc.reductions.build_syntax_circuit(formula, depth)
        wd = tc.reductions.theta_formula(depth, negative=not positive)
        return tc.solver.wd_solve(structure, wd, k)

    def check(self, item, result, expected, oracle):
        return (result is not None) == oracle and witness_digest(result) == expected


class GraphSweep(Workload):
    """Dominating set, independent set and clique on every 5-vertex graph."""

    name = "graph-sweep"
    problems = (
        ("domset", 1), ("domset", 2), ("domset", 3),
        ("indset", 1), ("indset", 2), ("indset", 3),
        ("clique", 2), ("clique", 3),
    )
    # Eight short passes over a third to a half of the instances rather than two
    # over all of them: each instance's best over more passes is far less
    # moved by the host's drift.
    passes = 8
    blocks = 128
    tail_percentile = 0.995
    trace_instances = 2000

    def make_pool(self, tc):
        pool = [
            (problem, graph, k)
            for graph in tc.corpus.all_graphs(5)
            for problem, k in self.problems
        ]
        description = [(problem, sorted(graph.edges), k) for problem, graph, k in pool]
        return Pool(pool, description)

    def cost_key(self, item, satisfied):
        problem, graph, k = item
        return problem, k, satisfied, len(graph.edges)

    def oracles(self, tc, items):
        return {
            index: tc.reductions.graph_brute(problem, graph, k)
            for index, (problem, graph, k) in items.items()
        }

    def run(self, tc, item):
        problem, graph, k = item
        encode = {
            "domset": tc.reductions.encode_domset,
            "indset": tc.reductions.encode_indset,
            "clique": tc.reductions.encode_clique,
        }[problem]
        return tc.solver.wt_solve(encode(graph, k))

    def check(self, item, result, expected, oracle):
        solved = result is not None
        if item[0] == "clique" and not oracle:
            # Only the forward direction is a theorem; a satisfiable encoding
            # without a clique is one of the pinned discrepancies.
            solved_ok = solved == (expected != "-")
        else:
            solved_ok = solved == oracle
        return solved_ok and witness_digest(result) == expected

    def pinned_discrepancies(self, pool, oracle, expected) -> int:
        return sum(
            1
            for item, truth, answer in zip(pool, oracle, expected)
            if item[0] == "clique" and not truth and answer != "-"
        )


class TeamCheck(Workload):
    """Team satisfaction by the exhaustive lax evaluator, and the fixpoint."""

    name = "team-check"
    structures_per_cell = 24
    closure_items = 480
    max_team_rows = 4
    passes = 8
    blocks = 32
    tail_percentile = 0.995
    trace_instances = 2500

    def make_pool(self, tc):
        # Grid: for each template and domain size n, ``structures_per_cell``
        # seeded structures and every team of at most four rows.  Items are
        # ``(text, fragment, structure, team, (cell, structure number))``;
        # the cell is the template for grid items and the fragment for
        # closure items, which each have a structure of their own.
        pool: list = []
        description: list = []
        vocabulary = tc.corpus.CORPUS_VOCABULARY
        for number, (text, max_n) in enumerate(tc.verify.INCLUSION_TEMPLATES):
            formula = tc.formulas.parse(text, vocabulary)
            variables = tuple(sorted(tc.formulas.free_vars(formula)))
            for n in range(1, min(3, max_n) + 1):
                rng = tc.corpus.SplitMix64(POOL_SEED * 1000 + number * 10 + n)
                structures = [
                    tc.corpus.random_structure(rng, n, min_domain=n)
                    for _ in range(self.structures_per_cell)
                ]
                rows = tc.model.canonical_rows(n, variables)
                teams = [
                    tc.model.Team(variables, frozenset(combo))
                    for size in range(min(self.max_team_rows, len(rows)) + 1)
                    for combo in itertools.combinations(rows, size)
                ]
                pool.extend(
                    (text, "FO(inc)", s, team, (text, place))
                    for team in teams
                    for place, s in enumerate(structures)
                )
                description.append((text, n, [_describe_structure(s) for s in structures], len(teams)))
        # Seeded FO(dep) and FO(indep) items drawn as the closure suite draws
        # them; their verdicts come from the pinned file only.
        for number, fragment in enumerate(("FO(dep)", "FO(indep)")):
            rng = tc.corpus.SplitMix64(POOL_SEED * 1000 + 900 + number)
            for _ in range(self.closure_items // 2):
                structure = tc.corpus.random_structure(rng, 4)
                formula = tc.corpus.random_formula(rng, fragment, structure.domain_size, 4)
                domain = sorted(tc.formulas.free_vars(formula))
                team = tc.corpus.random_team(rng, structure, domain, 4)
                pool.append((tc.formulas.render(formula), fragment, structure, team, (fragment, 0)))
                description.append((pool[-1][0], _describe_structure(structure), sorted(team.rows)))
        return Pool(pool, description)

    def cost_key(self, item, satisfied):
        # The structure matters as much as the team: the costliest template
        # is tens of times slower on some structures than on others.
        _, _, structure, team, (cell, structure_number) = item
        return cell, structure.domain_size, len(team), satisfied, structure_number

    def run(self, tc, item):
        text, fragment, structure, team, _ = item
        formula = tc.formulas.parse(text, structure.vocabulary)
        verdict = tc.evaluator.eval_team(structure, team, formula)
        if fragment == "FO(inc)":
            return verdict, tc.inclusion.eval_inclusion(structure, team, formula)
        return verdict, verdict

    def answer(self, result) -> str:
        return "1" if result[0] else "0"

    def satisfied(self, answer):
        return answer == "1"

    def check(self, item, result, expected, oracle):
        lax, fixpoint = result
        return lax == fixpoint and self.answer(result) == expected


def _describe_structure(structure):
    return structure.domain_size, sorted((name, sorted(rows)) for name, rows in structure.relations.items())


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ThetaWd(), GraphSweep(), TeamCheck())
}


def teamcheck_api() -> SimpleNamespace:
    """The teamcheck modules the workloads call, imported fresh by the caller."""
    import teamcheck.corpus
    import teamcheck.evaluator
    import teamcheck.formulas
    import teamcheck.inclusion
    import teamcheck.model
    import teamcheck.prop
    import teamcheck.reductions
    import teamcheck.solver
    import teamcheck.verify

    return SimpleNamespace(
        corpus=teamcheck.corpus,
        evaluator=teamcheck.evaluator,
        formulas=teamcheck.formulas,
        inclusion=teamcheck.inclusion,
        model=teamcheck.model,
        prop=teamcheck.prop,
        reductions=teamcheck.reductions,
        solver=teamcheck.solver,
        verify=teamcheck.verify,
    )


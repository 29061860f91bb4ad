import itertools

import pytest

from teamcheck.errors import EvaluationError
from teamcheck.evaluator import eval_team
from teamcheck.formulas import parse
from teamcheck.inclusion import compile_max, eval_inclusion, max_subteam
from teamcheck.model import Structure, Team, Vocabulary

GRAPH_VOCAB = Vocabulary(relations=(("E", 2),))


def structure_with_edges(n, edges):
    return Structure(GRAPH_VOCAB, n, {"E": frozenset(edges)})


def k3():
    return structure_with_edges(3, [(a, b) for a in range(3) for b in range(3) if a != b])


class TestMaxSubteam:
    def test_inclusion_atom_iterated_deletion(self):
        # brute force over all 8 subteams confirms {(3,3)} is the union of
        # the satisfying ones: (1,2) dies first, then (2,3)
        structure = structure_with_edges(4, [])
        team = Team.make(["x", "y"], [(1, 2), (2, 3), (3, 3)])
        formula = parse("inc(x;y)")
        rows = sorted(team.rows)
        union = set()
        for mask in range(1 << len(rows)):
            sub = frozenset(r for i, r in enumerate(rows) if mask >> i & 1)
            if eval_team(structure, Team(team.variables, sub), formula):
                union |= sub
        assert union == {(3, 3)}
        assert max_subteam(structure, team, formula) == Team.make(["x", "y"], [(3, 3)])

    def test_empty_team(self):
        structure = k3()
        formula = parse("E(x,y) & inc(x;y)", GRAPH_VOCAB)
        assert max_subteam(structure, Team.empty(["x", "y"]), formula).rows == frozenset()

    def test_literal_keeps_pointwise_rows(self):
        structure = structure_with_edges(3, [(0, 1)])
        team = Team.make(["x", "y"], [(0, 1), (1, 0), (0, 2)])
        result = max_subteam(structure, team, parse("E(x,y)", GRAPH_VOCAB))
        assert result == Team.make(["x", "y"], [(0, 1)])

    def test_rejects_dependence_atoms(self):
        with pytest.raises(EvaluationError):
            max_subteam(k3(), Team.empty(["x", "y"]), parse("dep(x;y)"))

    def test_values_outside_domain_raise(self):
        team = Team.make(["x", "y"], [(7, -1)])
        formula = parse("inc(x;x) & !E(x,y)", GRAPH_VOCAB)
        for evaluate in (max_subteam, eval_inclusion):
            with pytest.raises(EvaluationError, match="outside the domain"):
                evaluate(k3(), team, formula)

    def test_is_union_of_satisfying_subteams_on_random_cases(self):
        from teamcheck.corpus import SplitMix64, random_structure, random_team

        rng = SplitMix64(23)
        templates = [
            "inc(x;y)",
            "inc(x;y) & E(x,y)",
            "inc(x;y) | inc(y;x)",
            "exists u (E(x,u) & inc(u;x))",
            "forall u (!E(u,x) | inc(x;u))",
        ]
        for _ in range(40):
            structure = random_structure(rng, 3)
            text = templates[rng.randrange(len(templates))]
            formula = parse(text)
            team = random_team(rng, structure, ["x", "y"], 3)
            rows = sorted(team.rows)
            union = set()
            for mask in range(1 << len(rows)):
                sub = frozenset(r for i, r in enumerate(rows) if mask >> i & 1)
                if eval_team(structure, Team(team.variables, sub), formula):
                    union |= sub
            assert max_subteam(structure, team, formula).rows == frozenset(union), (text, rows)


class TestCompileMax:
    @pytest.mark.parametrize("text, vocabulary, message", [
        ("inc(x;y) & dep(x;y)", None, "only literals and inclusion atoms"),
        ("inc(x;z)", None, "not in the team domain"),
        ("inc(x;y) | F(x)", None, "unknown relation 'F'"),
        ("exists u (inc(u;x) & u=c)", Vocabulary(constants=("c",)), "unknown constant 'c'"),
    ])
    def test_formula_errors_come_from_the_compile_step(self, text, vocabulary, message):
        # raised before any row set is seen, so a search validates once
        with pytest.raises(EvaluationError, match=message):
            compile_max(k3(), ("x", "y"), parse(text, vocabulary))

    def test_rejects_unsorted_variables(self):
        # rows align with the variable order, which Team keeps sorted
        with pytest.raises(ValueError):
            compile_max(k3(), ("y", "x"), parse("inc(x;y)"))

    def test_one_compiled_map_serves_every_subteam(self):
        structure = structure_with_edges(3, [(0, 1), (1, 2), (2, 2)])
        formula = parse("forall u (!E(u,x) | inc(x;u)) & exists v inc(v;y)", GRAPH_VOCAB)
        compiled = compile_max(structure, ("x", "y"), formula)
        rows = [(a, b) for a in range(3) for b in range(3)]
        # largest teams first, so memos filled on big row sets serve small ones
        for size in range(len(rows), -1, -1):
            for combo in itertools.combinations(rows, size):
                team = Team.make(["x", "y"], combo)
                fresh = max_subteam(structure, team, formula)
                assert compiled(team.rows) == fresh.rows, combo


    @pytest.mark.parametrize("text", [
        "inc(x;y) & exists u (E(x,u) & E(u,y))",
        "forall u (E(u,x) | u=y) | inc(y;x)",
        "exists v (inc(v;x) & forall u (E(u,v) | u=y))",
        "inc(x;y) | (exists u (E(u,x) & !E(u,y)) & inc(y;x))",
        "forall v (inc(x;y) & (exists u E(v,u) | E(x,v)))",
    ])
    def test_quantified_first_order_subformulas_agree_with_generic(self, text):
        # the first-order pieces compile to one row test; verdicts must not move
        rows = [(a, b) for a in range(3) for b in range(3)]
        formula = parse(text, GRAPH_VOCAB)
        for edges in ([(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 0), (1, 1)], [(0, 0), (2, 1)]):
            structure = structure_with_edges(3, edges)
            compiled = compile_max(structure, ("x", "y"), formula)
            for size in range(4):
                for combo in itertools.combinations(rows, size):
                    team = Team.make(["x", "y"], combo)
                    assert (compiled(team.rows) == team.rows) == eval_team(structure, team, formula), (
                        text, edges, combo,
                    )


class TestEvalInclusion:
    def test_clique_formula_on_k3_full_team(self):
        team = Team.make(["x", "y"], [(a, b) for a in range(3) for b in range(3) if a != b])
        formula = parse("E(x,y) & x!=y & inc(y;x) & inc(x;y)", GRAPH_VOCAB)
        assert eval_inclusion(k3(), team, formula)

    def test_single_pair_fails_inclusion(self):
        team = Team.make(["x", "y"], [(0, 1)])
        formula = parse("E(x,y) & x!=y & inc(y;x) & inc(x;y)", GRAPH_VOCAB)
        assert not eval_inclusion(k3(), team, formula)

    def test_sentence_matches_generic_evaluator(self):
        structure = structure_with_edges(2, [(0, 1), (1, 0)])
        sentence = parse("forall x exists y (E(x,y) & inc(y;x))", GRAPH_VOCAB)
        team = Team((), frozenset({()}))
        assert eval_inclusion(structure, team, sentence) == eval_team(structure, team, sentence)

    def test_agrees_with_generic_on_exhaustive_small_grid(self):
        structure = structure_with_edges(2, [(0, 1)])
        formulas = [
            "inc(x;y)",
            "inc(x;y) & E(x,y)",
            "inc(x;y) | x=y",
            "exists u (inc(u;x) & (E(u,y) | u=y))",
            "forall u exists v (inc(v;x) & (E(u,v) | u=v))",
        ]
        rows = [(a, b) for a in range(2) for b in range(2)]
        for text in formulas:
            formula = parse(text, GRAPH_VOCAB)
            for size in range(0, 4):
                for combo in itertools.combinations(rows, size):
                    team = Team.make(["x", "y"], combo)
                    assert eval_inclusion(structure, team, formula) == eval_team(
                        structure, team, formula
                    ), (text, combo)

import itertools

import pytest

from teamcheck.corpus import SplitMix64, all_graphs, random_circuit
from teamcheck.errors import ParseError
from teamcheck.formulas import classify, free_vars, render
from teamcheck.prop import PLit, parse_prop
from teamcheck.reductions import (
    BooleanCircuit,
    Graph,
    build_syntax_circuit,
    circuit_eval,
    encode_clique,
    encode_domset,
    encode_indset,
    encode_wsat,
    graph_brute,
    parse_graph,
    phi_inclusion,
    proof_tree_exists,
    render_graph,
    theta_formula,
    wsat_brute,
)
from teamcheck.solver import wt_solve


def pentagon():
    return Graph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


class TestGraph:
    def test_normalizes_edge_order(self):
        g = Graph.make(3, [(2, 0)])
        assert g.edges == frozenset({(0, 2)})
        assert g.adjacent(0, 2) and g.adjacent(2, 0)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.make(2, [(1, 1)])

    def test_file_round_trip(self):
        g = pentagon()
        assert parse_graph(render_graph(g)) == g

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_graph("e 0 1\n")
        with pytest.raises(ParseError):
            parse_graph("p 3 2\ne 0 1\n")

    @pytest.mark.parametrize("text, line", [("p ² 0", 1), ("p 2 1\ne 0 ²", 2)])
    def test_non_ascii_digits_are_parse_errors(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}, column 1"):
            parse_graph(text)


class TestGraphBrute:
    def test_triangle_clique(self):
        assert graph_brute("clique", Graph.make(3, [(0, 1), (1, 2), (0, 2)]), 3)

    def test_triangle_has_no_independent_pair(self):
        assert not graph_brute("indset", Graph.make(3, [(0, 1), (1, 2), (0, 2)]), 2)

    def test_path_dominating_pair(self):
        p5 = Graph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert graph_brute("domset", p5, 2)
        assert not graph_brute("domset", p5, 1)

    def test_size_zero(self):
        g = Graph.make(2, [(0, 1)])
        assert graph_brute("clique", g, 0)
        assert graph_brute("indset", g, 0)
        assert not graph_brute("domset", g, 0)


class TestEncoders:
    def test_clique_formula_and_size(self):
        instance = encode_clique(Graph.make(3, [(0, 1), (1, 2), (0, 2)]), 3)
        assert render(instance.formula) == "E(x,y) & x!=y & inc(y;x) & inc(x;y)"
        assert instance.k == 6

    def test_clique_k2_satisfiable_on_an_edge(self):
        instance = encode_clique(Graph.make(2, [(0, 1)]), 2)
        assert instance.k == 2
        witness = wt_solve(instance)
        assert witness is not None
        assert witness.rows == frozenset({(0, 1), (1, 0)})

    def test_clique_parameter_depends_only_on_k(self):
        for graph in (pentagon(), Graph.make(4, [])):
            for k in (2, 3):
                assert encode_clique(graph, k).k == k * k - k

    def test_domset_formula(self):
        instance = encode_domset(pentagon(), 2)
        assert render(instance.formula) == "forall x exists y (inc(y;z) & (E(x,y) | x=y))"
        assert instance.k == 2
        assert free_vars(instance.formula) == {"z"}

    def test_domset_k_zero_guard(self):
        assert wt_solve(encode_domset(Graph.make(3, []), 0)) is None
        assert wt_solve(encode_domset(Graph.make(0, []), 0)) is not None

    def test_edgeless_needs_every_vertex(self):
        g = Graph.make(3, [])
        assert wt_solve(encode_domset(g, 2)) is None
        assert wt_solve(encode_domset(g, 3)) is not None

    def test_indset_structure_layout(self):
        instance = encode_indset(Graph.make(3, [(0, 1), (1, 2)]), 2)
        s = instance.structure
        assert s.domain_size == 5
        assert s.relations["N"] == frozenset({(0,), (1,), (2,)})
        assert s.relations["P"] == frozenset({(3,), (4,)})
        assert s.relations["I"] == frozenset({(0, 3), (1, 3), (1, 4), (2, 4)})
        assert render(instance.formula) == "forall y (N(x) & (!P(y) | !I(x,y) | dep(y;x)))"

    def test_indset_single_vertex_always_works(self):
        assert wt_solve(encode_indset(pentagon(), 1)) is not None

    @pytest.mark.parametrize("encode", [encode_clique, encode_domset, encode_indset])
    def test_negative_k_is_rejected(self, encode):
        with pytest.raises(ValueError, match="nonnegative"):
            encode(pentagon(), -1)

    def test_oversized_k_guard_is_unsatisfiable(self):
        assert wt_solve(encode_indset(Graph.make(2, [(0, 1)]), 5)) is None
        assert wt_solve(encode_clique(Graph.make(2, [(0, 1)]), 5)) is None


class TestSyntaxCircuit:
    def test_two_literal_conjunction(self):
        structure = build_syntax_circuit(parse_prop("x1 & x2"))
        assert structure.domain_size == 3
        assert structure.constants["o"] == 0
        assert structure.relations["I"] == frozenset({(1,), (2,)})
        assert structure.relations["E"] == frozenset({(0, 1), (0, 2)})

    def test_single_literal_root_is_input(self):
        structure = build_syntax_circuit(PLit(1))
        assert structure.domain_size == 1
        assert structure.relations["I"] == frozenset({(0,)})
        assert structure.constants["o"] == 0

    def test_padded_depth_two(self):
        structure = build_syntax_circuit(parse_prop("x1 & (x2 | x3)"), 2)
        # root, two disjunction nodes, three shared variable elements
        assert structure.domain_size == 6
        children_of_root = {b for a, b in structure.relations["E"] if a == 0}
        assert children_of_root == {1, 2}

    def test_variables_shared_across_occurrences(self):
        structure = build_syntax_circuit(parse_prop("(x1 | x2) & (x2 | x1)"))
        assert structure.domain_size == 3 + 2

    def test_mixed_polarity_rejected(self):
        with pytest.raises(ValueError):
            build_syntax_circuit(parse_prop("x1 & !x2"))


class TestLevelFormulas:
    def test_theta_depth_one_negative(self):
        wd = theta_formula(1, negative=True)
        assert render(wd.formula) == (
            "forall x0 (!S(x0) | I(x0)) & forall x1 (!E(o,x1) | (I(x1) & !S(x1)))"
        )
        assert wd.occurrences() == ("negative", "negative")

    def test_theta_depth_two_positive(self):
        wd = theta_formula(2, negative=False)
        assert render(wd.formula) == "forall x1 (!E(o,x1) | exists x2 (E(x1,x2) & I(x2) & S(x2)))"
        assert wd.occurrences() == ("positive",)
        assert theta_formula(2, negative=False) is wd  # built once, shared

    def test_theta_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            theta_formula(0)

    def test_phi_inclusion_depth_two(self):
        formula = phi_inclusion(2)
        assert render(formula) == (
            "forall x1 (!E(o,x1) | exists x2 (E(x1,x2) & I(x2) & inc(x2;z)))"
        )
        report = classify(formula)
        assert report.fragment == "FO(inc)"
        assert report.free_variables == {"z"}

    @pytest.mark.parametrize(
        "depth, text",
        [
            (4, "forall x1 (!E(o,x1) | exists x2 (E(x1,x2) & forall x3 (!E(x2,x3) | "
                "exists x4 (E(x3,x4) & I(x4) & inc(x4;z)))))"),
            (6, "forall x1 (!E(o,x1) | exists x2 (E(x1,x2) & forall x3 (!E(x2,x3) | "
                "exists x4 (E(x3,x4) & forall x5 (!E(x4,x5) | exists x6 (E(x5,x6) & I(x6) & inc(x6;z)))))))"),
        ],
        ids=["4", "6"],
    )
    def test_phi_inclusion_deeper_levels(self, depth, text):
        assert render(phi_inclusion(depth)) == text

    def test_phi_inclusion_rejects_odd_depth(self):
        with pytest.raises(ValueError):
            phi_inclusion(1)
        with pytest.raises(ValueError):
            phi_inclusion(3)

    def test_padded_conjunction_weights(self):
        # x1 & x2 padded to alternation depth two: only weight 2 works
        formula = parse_prop("x1 & x2")
        sat_instance, depth = encode_wsat(formula, 2)
        unsat_instance, _ = encode_wsat(formula, 1)
        assert depth == 2
        assert wt_solve(sat_instance) is not None
        assert wt_solve(unsat_instance) is None

    def test_encode_wsat_guards(self):
        formula = parse_prop("x1 | x2")
        yes, _ = encode_wsat(formula, 0)
        no, _ = encode_wsat(formula, 3)
        assert wt_solve(yes) is not None
        assert wt_solve(no) is None

    def test_encode_wsat_rejects_negative_input(self):
        with pytest.raises(ValueError):
            encode_wsat(parse_prop("!x1 & !x2"), 1)


class TestCircuits:
    def circuit(self):
        # gates: 0,1,2 inputs; 3 = or(0,1); 4 = and(3,2)
        return BooleanCircuit(
            5,
            frozenset({(0, 3), (1, 3), (3, 4), (2, 4)}),
            frozenset({0, 1, 2}),
            frozenset({3}),
            frozenset({4}),
            4,
        )

    def test_eval_and_proof_tree_on_satisfying_input(self):
        c = self.circuit()
        assert circuit_eval(c, {0, 2})
        assert proof_tree_exists(c, {0, 2})

    def test_eval_and_proof_tree_on_failing_input(self):
        c = self.circuit()
        assert not circuit_eval(c, {1})
        assert not proof_tree_exists(c, {1})

    def test_single_input_circuit(self):
        c = BooleanCircuit(1, frozenset(), frozenset({0}), frozenset(), frozenset(), 0)
        assert circuit_eval(c, {0})
        assert proof_tree_exists(c, {0})
        assert not circuit_eval(c, set())

    def test_rejects_non_input_set(self):
        with pytest.raises(ValueError):
            circuit_eval(self.circuit(), {3})

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            BooleanCircuit(
                2,
                frozenset({(0, 1), (1, 0)}),
                frozenset(),
                frozenset({0, 1}),
                frozenset(),
                0,
            )

    def test_equivalence_on_random_circuits(self):
        rng = SplitMix64(5)
        for _ in range(60):
            c = random_circuit(rng, 6)
            for size in range(len(c.inputs) + 1):
                for chosen in itertools.combinations(sorted(c.inputs), size):
                    assert circuit_eval(c, frozenset(chosen)) == proof_tree_exists(
                        c, frozenset(chosen)
                    )


class TestReductionFaithfulnessSample:
    """Exhaustive checks at four vertices; five-vertex runs live in the acceptance suite."""

    def test_domset_matches_oracle(self):
        for graph in all_graphs(4):
            for k in (1, 2):
                expected = graph_brute("domset", graph, k)
                assert (wt_solve(encode_domset(graph, k)) is not None) == expected

    def test_indset_matches_oracle(self):
        for graph in all_graphs(4):
            for k in (1, 2):
                expected = graph_brute("indset", graph, k)
                assert (wt_solve(encode_indset(graph, k)) is not None) == expected

    def test_clique_forward_direction(self):
        for graph in all_graphs(4):
            for k in (2, 3):
                if graph_brute("clique", graph, k):
                    assert wt_solve(encode_clique(graph, k)) is not None

    def test_wsat_inclusion_matches_oracle(self):
        rng = SplitMix64(9)
        from teamcheck.corpus import random_layered_prop
        from teamcheck.prop import prop_variables

        for _ in range(25):
            formula = random_layered_prop(rng, 2, positive=True)
            for k in range(1, len(prop_variables(formula)) + 1):
                instance, _ = encode_wsat(formula, k)
                assert (wt_solve(instance) is not None) == wsat_brute(formula, k)

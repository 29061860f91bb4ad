import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamcheck import formulas
from teamcheck.errors import ParseError
from teamcheck.formulas import (
    PARSED_FORMULAS,
    And,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Inc,
    Indep,
    Neq,
    NegRel,
    Or,
    Rel,
    Var,
    classify,
    first_order_part,
    free_vars,
    parse,
    render,
)
from teamcheck.corpus import SplitMix64, random_formula, random_sentence
from teamcheck.model import Vocabulary

GRAPH_VOCAB = Vocabulary(relations=(("E", 2),))


class TestParse:
    def test_clique_formula(self):
        formula = parse("E(x,y) & x!=y & inc(y;x) & inc(x;y)", GRAPH_VOCAB)
        expected = And(
            And(
                And(Rel("E", (Var("x"), Var("y"))), Neq(Var("x"), Var("y"))),
                Inc((Var("y"),), (Var("x"),)),
            ),
            Inc((Var("x"),), (Var("y"),)),
        )
        assert formula == expected

    def test_dominating_set_formula(self):
        formula = parse("forall x exists y (inc(y;z) & (E(x,y) | x=y))", GRAPH_VOCAB)
        expected = Forall(
            "x",
            Exists(
                "y",
                And(
                    Inc((Var("y"),), (Var("z"),)),
                    Or(Rel("E", (Var("x"), Var("y"))), Eq(Var("x"), Var("y"))),
                ),
            ),
        )
        assert formula == expected

    def test_trivial_equality(self):
        assert parse("x=x") == Eq(Var("x"), Var("x"))

    def test_negated_relation(self):
        assert parse("!E(x,y)", GRAPH_VOCAB) == NegRel("E", (Var("x"), Var("y")))

    def test_dep_constancy_shorthand(self):
        assert parse("dep(;y)") == Dep((), (Var("y"),))

    def test_independence_conditioning_slot_first(self):
        formula = parse("indep(z;x;y)")
        assert formula == Indep((Var("z"),), (Var("x"),), (Var("y"),))

    def test_constants_resolved_with_vocabulary(self):
        vocab = Vocabulary(relations=(("E", 2),), constants=("o",))
        formula = parse("E(o,x)", vocab)
        assert formula == Rel("E", (Const("o"), Var("x")))
        assert parse("E(o,x)") == Rel("E", (Var("o"), Var("x")))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("E(x,y) &")
        assert err.value.line == 1
        assert err.value.column is not None

    @pytest.mark.parametrize(
        "text, vocabulary, where",
        [
            ("x=x &\n  y=é", None, "line 2, column 5: unexpected character 'é'"),
            ("exists\n  (x=x)", None, "line 2, column 3: expected 'name', got '('"),
            ("(x=x &\n  y=y", None, "line 2, column 6: expected ')', got 'end of input'"),
            ("E(x,y)\n& x=y |\n  x=x", None, "line 2, column 7: mixing '&' and '|' requires parentheses"),
            ("x=x\n\n  y=y", None, "line 3, column 3: unexpected trailing input 'y'"),
            ("x=x &\n\n  )", None, "line 3, column 3: unexpected ')'"),
            ("x=x &\n\n", None, "line 3, column 1: unexpected 'end of input'"),
            ("x=x &\n  y y", None, "line 2, column 5: expected '=' or '!=' after a term"),
            ("x=x &\n  F(x,y)", GRAPH_VOCAB, "line 2, column 3: unknown relation 'F'"),
            ("x=x &\n  E(x)", GRAPH_VOCAB, "line 2, column 3: relation 'E' has arity 2, got 1 arguments"),
            ("x=x &\n !E(x,y,x)", GRAPH_VOCAB, "line 2, column 3: relation 'E' has arity 2, got 3 arguments"),
            ("x=x &\n  dep(x;)", None, "line 2, column 3: dependence atom needs at least one determined term"),
            ("x=x &\n  inc(x;x,y)", None, "line 2, column 3: inclusion atom needs two nonempty tuples"),
            ("x=x &\n  indep(;;x)", None, "line 2, column 3: independence atom needs nonempty left and right"),
        ],
    )
    def test_errors_report_the_line_and_column_of_the_bad_token(self, text, vocabulary, where):
        # ParseError writes its .line and .column into the message
        with pytest.raises(ParseError, match=f"^{re.escape(where)}"):
            parse(text, vocabulary)

    def test_arity_mismatch_with_vocabulary(self):
        with pytest.raises(ParseError):
            parse("E(x)", GRAPH_VOCAB)

    def test_unknown_relation_with_vocabulary(self):
        with pytest.raises(ParseError):
            parse("F(x,y)", GRAPH_VOCAB)

    def test_mixed_connectives_require_parentheses(self):
        with pytest.raises(ParseError):
            parse("x=y & x=y | x=y")
        parse("(x=y & x=y) | x=y")

    def test_inclusion_arity_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse("inc(x,y;x)")


class TestParseCache:
    """``parse`` keeps recent ``(text, vocabulary)`` pairs; errors are never kept."""

    def test_same_text_and_vocabulary_give_one_object(self):
        text = "forall x exists y (inc(y;z) & (E(x,y) | x=y))"
        assert parse(text, GRAPH_VOCAB) is parse(text, GRAPH_VOCAB)
        assert parse(text, Vocabulary(relations=(("E", 2),))) is parse(text, GRAPH_VOCAB)  # equal vocabularies
        assert parse("x=x") is parse("x=x", None)

    def test_the_vocabulary_is_part_of_the_key(self):
        constants = Vocabulary(constants=("c",))
        assert parse("x=c") == Eq(Var("x"), Var("c"))
        assert parse("x=c", constants) == Eq(Var("x"), Const("c"))
        assert parse("x=c") == Eq(Var("x"), Var("c"))  # not served the other entry

    def test_a_bad_text_raises_at_the_same_place_on_every_call(self):
        seen = set()
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse("x=x &\n  y y")
            seen.add((err.value.line, err.value.column, str(err.value)))
        assert seen == {(2, 5, "line 2, column 5: expected '=' or '!=' after a term")}

    def test_the_cache_keeps_at_most_its_bound(self):
        for i in range(PARSED_FORMULAS + 10):
            parse(f"x{i}=x{i}")
        assert formulas._parse.cache_info().currsize <= PARSED_FORMULAS
        assert parse("x0=x0") == Eq(Var("x0"), Var("x0"))  # evicted, so parsed afresh


class TestFreeVars:
    def test_clique_formula(self):
        formula = parse("E(x,y) & x!=y & inc(y;x) & inc(x;y)", GRAPH_VOCAB)
        assert free_vars(formula) == {"x", "y"}

    def test_dominating_set_formula(self):
        formula = parse("forall x exists y (inc(y;z) & (E(x,y) | x=y))", GRAPH_VOCAB)
        assert free_vars(formula) == {"z"}

    def test_sentence(self):
        assert free_vars(parse("forall x E(x,x)", GRAPH_VOCAB)) == frozenset()

    def test_quantifier_binding(self):
        body = parse("E(x,y)", GRAPH_VOCAB)
        assert free_vars(Exists("x", body)) == {"y"}
        assert free_vars(Forall("y", Exists("x", body))) == frozenset()


class TestClassify:
    def test_dominating_set(self):
        report = classify(parse("forall x exists y (inc(y;z) & (E(x,y) | x=y))", GRAPH_VOCAB))
        assert report.fragment == "FO(inc)"
        assert str(report.prefix) == "Pi_2"

    def test_independent_set(self):
        report = classify(parse("forall y (N(x) & (!P(y) | !I(x,y) | dep(y;x)))"))
        assert report.fragment == "FO(dep)"
        assert str(report.prefix) == "Pi_1"

    def test_quantifier_free_fo(self):
        report = classify(parse("E(x,y)", GRAPH_VOCAB))
        assert report.fragment == "FO"
        assert report.prefix is not None and report.prefix.blocks == 0
        assert str(report.prefix) == "quantifier-free"

    def test_same_quantifier_run_is_one_block(self):
        report = classify(parse("forall x forall y E(x,y)", GRAPH_VOCAB))
        assert str(report.prefix) == "Pi_1"

    def test_non_prenex_has_no_prefix(self):
        report = classify(parse("E(x,x) & forall y E(y,y)", GRAPH_VOCAB))
        assert report.prefix is None

    def test_mixed_fragment(self):
        report = classify(parse("dep(x;y) & inc(x;y)"))
        assert report.fragment == "mixed"


class TestRender:
    GOLDEN = [
        "E(x,y) & x!=y & inc(y;x) & inc(x;y)",
        "forall x exists y (inc(y;z) & (E(x,y) | x=y))",
        "forall y (N(x) & (!P(y) | !I(x,y) | dep(y;x)))",
        "dep(;y)",
        "indep(z;x;y)",
        "x=y | (x=x & y=y)",
    ]

    @pytest.mark.parametrize("text", GOLDEN)
    def test_round_trip_text(self, text):
        assert render(parse(text)) == text

    def test_right_nested_chain_keeps_grouping(self):
        formula = And(Eq(Var("x"), Var("x")), And(Eq(Var("y"), Var("y")), Eq(Var("z"), Var("z"))))
        assert render(formula) == "x=x & (y=y & z=z)"
        assert parse(render(formula)) == formula


# Random ASTs for the parse/render round trip.

_vars = st.sampled_from(["x", "y", "z", "u"])
_terms = _vars.map(Var)
_tuples = st.lists(_terms, min_size=1, max_size=2).map(tuple)


def _formulas():
    atoms = st.one_of(
        st.builds(Eq, _terms, _terms),
        st.builds(Neq, _terms, _terms),
        st.builds(Rel, st.just("E"), st.tuples(_terms, _terms).map(tuple)),
        st.builds(NegRel, st.just("U"), st.tuples(_terms).map(tuple)),
        st.builds(Dep, st.lists(_terms, max_size=2).map(tuple), _tuples),
        st.builds(lambda t: Inc(t, t), _tuples),
        st.builds(Indep, st.lists(_terms, max_size=1).map(tuple), _tuples, _tuples),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Exists, _vars, children),
            st.builds(Forall, _vars, children),
        ),
        max_leaves=8,
    )


@given(_formulas())
@settings(max_examples=150, deadline=None)
def test_parse_render_round_trip(formula):
    assert parse(render(formula)) == formula


@given(_formulas(), _vars)
@settings(max_examples=80, deadline=None)
def test_free_vars_of_quantifier(formula, variable):
    assert free_vars(Exists(variable, formula)) == free_vars(formula) - {variable}
    assert free_vars(Forall(variable, formula)) == free_vars(formula) - {variable}


# --- per-node facts against an independent reference ---------------------------
#
# The reference walks the tree recursively from the definitions and shares no
# code with ``teamcheck.formulas``: only the node classes are imported.

_TEAM_ATOMS = {Dep: "dep", Inc: "inc", Indep: "indep"}


def _reference_terms(node):
    if isinstance(node, (Eq, Neq)):
        return (node.left, node.right)
    if isinstance(node, (Rel, NegRel)):
        return node.terms
    if isinstance(node, Dep):
        return node.determinants + node.determined
    if isinstance(node, Inc):
        return node.left + node.right
    return node.condition + node.left + node.right


def reference_free(node):
    if isinstance(node, (And, Or)):
        return reference_free(node.left) | reference_free(node.right)
    if isinstance(node, (Exists, Forall)):
        return reference_free(node.body) - {node.variable}
    return {t.name for t in _reference_terms(node) if isinstance(t, Var)}


def reference_atoms(node):
    if isinstance(node, (And, Or)):
        return reference_atoms(node.left) | reference_atoms(node.right)
    if isinstance(node, (Exists, Forall)):
        return reference_atoms(node.body)
    return {_TEAM_ATOMS[type(node)]} if type(node) in _TEAM_ATOMS else set()


def reference_has_quantifier(node):
    if isinstance(node, (And, Or)):
        return reference_has_quantifier(node.left) or reference_has_quantifier(node.right)
    return isinstance(node, (Exists, Forall))


def reference_report(node):
    """(atoms, fragment, (first quantifier, blocks) or None)."""
    atoms = reference_atoms(node)
    fragment = "FO" if not atoms else f"FO({next(iter(atoms))})" if len(atoms) == 1 else "mixed"
    kinds = []
    while isinstance(node, (Exists, Forall)):
        kinds.append("exists" if isinstance(node, Exists) else "forall")
        node = node.body
    prefix = None
    if not reference_has_quantifier(node):
        blocks = sum(1 for i, kind in enumerate(kinds) if i == 0 or kinds[i - 1] != kind)
        prefix = (kinds[0] if kinds else None, blocks)
    return atoms, fragment, prefix


def assert_facts_match_reference(formula):
    # every node, not only the root, carries the facts the reference derives
    stack = [formula]
    while stack:
        node = stack.pop()
        assert free_vars(node) == reference_free(node)
        assert node.atoms == reference_atoms(node)
        assert node.first_order == (not reference_atoms(node))
        assert node.quantifier_free == (not reference_has_quantifier(node))
        report = classify(node)
        prefix = None if report.prefix is None else (report.prefix.first, report.prefix.blocks)
        assert (report.atoms, report.fragment, prefix) == reference_report(node)
        assert report.free_variables == reference_free(node)
        if isinstance(node, (And, Or)):
            stack += [node.left, node.right]
        elif isinstance(node, (Exists, Forall)):
            stack.append(node.body)


class TestFacts:
    @pytest.mark.parametrize("fragment", ["FO", "FO(dep)", "FO(inc)", "FO(indep)"])
    def test_corpus_formulas_match_reference(self, fragment):
        rng = SplitMix64(31 + len(fragment))
        quantified = 0
        for _ in range(150):
            formula = random_formula(rng, fragment, 3, 3)
            quantified += isinstance(formula, (Exists, Forall))
            assert_facts_match_reference(formula)
            assert_facts_match_reference(random_sentence(rng, fragment, 3))
        assert quantified > 50

    @given(_formulas())
    @settings(max_examples=150, deadline=None)
    def test_nested_quantifiers_and_mixed_atoms_match_reference(self, formula):
        assert_facts_match_reference(formula)

    @pytest.mark.parametrize(
        "text",
        [
            "forall x exists y (inc(y;z) & (E(x,y) | x=y))",
            "forall y (N(x) & (!P(y) | !I(x,y) | dep(y;x)))",
            "E(x,y) & x!=y & inc(y;x) & inc(x;y)",
            "exists u (E(x,u) & forall v (indep(;u;v) | dep(x;v)))",
        ],
    )
    def test_analysed_formula_equals_a_fresh_one(self, text):
        analysed = parse(text)
        for analysis in (classify, first_order_part, hash):
            analysis(analysed)
        fresh = parse(text)
        assert analysed == fresh and fresh == analysed
        assert hash(analysed) == hash(fresh)
        assert render(analysed) == render(fresh) == text
        assert repr(analysed) == repr(fresh)
        assert "free" not in repr(analysed) and "hash_value" not in repr(analysed)
        assert {analysed: 1}[fresh] == 1

    def test_pickled_formula_is_rebuilt(self):
        formula = parse("forall x exists y (inc(y;z) & (E(x,y) | x=y))")
        classify(formula)
        copy = pickle.loads(pickle.dumps(formula))
        assert copy == formula and hash(copy) == hash(formula) and classify(copy) == classify(formula)

    def test_facts_are_cached_per_node(self):
        formula = parse("exists u (E(x,u) & dep(x;u)) & x=y")
        assert classify(formula) is classify(formula)
        assert first_order_part(formula) is first_order_part(formula) is formula.right
        assert free_vars(formula) is free_vars(formula)

    def test_first_order_part_keeps_the_first_order_conjuncts(self):
        clique = parse("E(x,y) & x!=y & inc(y;x) & inc(x;y)")
        assert first_order_part(clique) == parse("E(x,y) & x!=y")
        assert first_order_part(parse("x=y & (dep(x;y) & E(x,y))")) == parse("x=y & E(x,y)")
        assert first_order_part(parse("dep(x;y) | x=y")) is None
        fo = parse("exists u E(x,u)")
        assert first_order_part(fo) is fo


class TestDeepFormulas:
    """Facts are set, texts parsed and rendered without recursion, so no depth makes them fail."""

    def test_deep_conjunction(self):
        formula = parse(" & ".join(["x=x"] * 3000))
        report = classify(formula)
        assert (report.atoms, report.fragment, str(report.prefix)) == (frozenset(), "FO", "quantifier-free")
        assert free_vars(formula) == {"x"}
        assert formula.first_order and formula.quantifier_free
        assert first_order_part(formula) is formula
        assert hash(formula) == hash(parse(" & ".join(["x=x"] * 3000)))

    def test_deep_quantifier_prefix(self):
        formula = Dep((), (Var("x"),))
        for _ in range(3000):
            formula = Exists("x", formula)
        report = classify(formula)
        assert (report.fragment, str(report.prefix), report.free_variables) == ("FO(dep)", "Sigma_1", frozenset())

    @pytest.mark.parametrize("sep", [" & ", " | "])
    def test_deep_chain_renders(self, sep):
        # strings, not formulas, are compared: == on formulas still recurses
        text = sep.join(["x=x"] * 3000)
        assert render(parse(text)) == text

    def test_deep_quantifier_prefix_parses_and_renders(self):
        text = "exists x " * 3000 + "x=x"
        assert render(parse(text)) == text

    def test_deep_alternating_parentheses_render(self):
        # x=x & (x=x | (x=x & (... x=x))), 3000 connectives deep
        ops = ["&" if i % 2 == 0 else "|" for i in range(3000)]
        text = "".join(f"x=x {op} (" for op in ops[:-1]) + f"x=x {ops[-1]} x=x" + ")" * 2999
        assert render(parse(text)) == text

    def test_deep_parentheses_parse(self):
        assert parse("(" * 5000 + "x=x" + ")" * 5000) == parse("x=x")
        nested = "".join(f"(x=x {'&' if i % 2 else '|'} " for i in range(5000)) + "x=x" + ")" * 5000
        formula = parse(nested)
        for i in range(5000):
            assert isinstance(formula, And if i % 2 else Or)
            formula = formula.right
        assert formula == parse("x=x")

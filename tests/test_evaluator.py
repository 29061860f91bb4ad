import copy
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from team_reference import satisfies
from teamcheck.corpus import (
    CORPUS_VOCABULARY,
    SplitMix64,
    _random_quantifier_free,
    _random_team_atom,
    random_formula,
    random_structure,
    random_team,
    search_cost,
)
from teamcheck.errors import EvaluationError
from teamcheck import evaluator, formulas
from teamcheck.evaluator import (
    LAX,
    ROW,
    STRICT,
    bind,
    bind_terms,
    eval_fo_tarski,
    eval_team,
    plan,
    plan_terms,
    row_test,
)
from teamcheck.formulas import And, Const, Exists, Forall, Or, Var, free_vars, parse, render, subformulas
from teamcheck.inclusion import compile_max, eval_inclusion
from teamcheck.model import Structure, Team, Vocabulary, canonical_rows
from teamcheck.reductions import Graph, encode_indset
from teamcheck.solver import WdFormula, WtInstance, check_sentence, compile_check, wd_solve, wt_solve
from teamcheck.verify import INCLUSION_TEMPLATES

GRAPH_VOCAB = Vocabulary(relations=(("E", 2),))


def graph_structure(n, directed_edges):
    return Structure(GRAPH_VOCAB, n, {"E": frozenset(directed_edges)})


def k3():
    return graph_structure(3, [(a, b) for a in range(3) for b in range(3) if a != b])


def strict_check(structure, team, formula):
    """The strict reading, through ``compile_check``, its one entry point."""
    return compile_check(structure, formula, team.variables, "strict")(team.rows)


def spy_on_steps(monkeypatch, chosen, spy):
    """Bind each step that ``chosen(step)`` picks to ``spy(step, node)`` in place of its node.

    Plans are kept on formula nodes, and ``parse`` shares its nodes, so a
    patched maker would miss every plan built before the patch; this spy
    sees the steps of every plan as ``bind`` gets it.
    """
    original = evaluator.plan

    def spied_step(step):
        make = step[0]
        return (lambda *args: spy(step, make(*args)),) + step[1:]

    def spied(formula, variables, reading):
        return tuple(spied_step(step) if chosen(step) else step for step in original(formula, variables, reading))

    monkeypatch.setattr(evaluator, "plan", spied)


def spy_on_maker(monkeypatch, make, spy):
    """``spy_on_steps`` for the steps whose maker is ``make``."""
    spy_on_steps(monkeypatch, lambda step: step[0] is make, spy)


class TestAtoms:
    def test_inclusion_atom_on_swap_team(self):
        team = Team.make(["x", "y"], [(1, 2), (2, 1)])
        assert eval_team(graph_structure(3, []), team, parse("inc(x;y)"))

    def test_dependence_atom_detects_conflict(self):
        team = Team.make(["x", "y"], [(0, 1), (0, 2)])
        assert not eval_team(graph_structure(3, []), team, parse("dep(x;y)"))
        assert eval_team(graph_structure(3, []), team, parse("dep(y;x)"))

    def test_constancy_shorthand(self):
        team = Team.make(["x", "y"], [(0, 1), (0, 2)])
        assert eval_team(graph_structure(3, []), team, parse("dep(;x)"))
        assert not eval_team(graph_structure(3, []), team, parse("dep(;y)"))

    def test_independence_atom_rectangle(self):
        rect = Team.make(["x", "y"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        bent = Team.make(["x", "y"], [(0, 0), (0, 1), (1, 0)])
        structure = graph_structure(2, [])
        assert eval_team(structure, rect, parse("indep(;x;y)"))
        assert not eval_team(structure, bent, parse("indep(;x;y)"))

    def test_unknown_relation_raises(self):
        with pytest.raises(EvaluationError):
            eval_team(graph_structure(2, []), Team.make(["x"], [(0,)]), parse("F(x)"))

    def test_missing_free_variable_raises(self):
        with pytest.raises(EvaluationError):
            eval_team(k3(), Team.make(["x"], [(0,)]), parse("E(x,y)"))

    def test_values_outside_domain_raise(self):
        team = Team.make(["x", "y"], [(7, -1)])
        with pytest.raises(EvaluationError, match="outside the domain"):
            eval_team(k3(), team, parse("!E(x,y)", GRAPH_VOCAB))


class TestEmptyTeamProperty:
    FORMULAS = [
        "E(x,y)",
        "x!=x",
        "dep(x;y)",
        "inc(x;y)",
        "indep(x;y;x)",
        "forall u exists v (E(u,v) & inc(v;x) & dep(u;y))",
    ]

    @pytest.mark.parametrize("text", FORMULAS)
    def test_empty_team_satisfies_everything(self, text):
        formula = parse(text)
        team = Team.empty(sorted({"x", "y"}))
        assert eval_team(k3(), team, formula)


class TestIndependentSetExample:
    def setup_method(self):
        # path graph on three vertices, encoded with vertex and edge elements
        self.instance = encode_indset(Graph.make(3, [(0, 1), (1, 2)]), 2)

    def test_nonadjacent_pair_satisfies(self):
        team = Team.make(["x"], [(0,), (2,)])
        assert eval_team(self.instance.structure, team, self.instance.formula)

    def test_adjacent_pair_fails(self):
        team = Team.make(["x"], [(0,), (1,)])
        assert not eval_team(self.instance.structure, team, self.instance.formula)

    def test_strict_mode_agrees(self):
        for rows in [[(0,), (2,)], [(0,), (1,)]]:
            team = Team.make(["x"], rows)
            lax = eval_team(self.instance.structure, team, self.instance.formula)
            strict = strict_check(self.instance.structure, team, self.instance.formula)
            assert lax == strict


class TestLaxSearch:
    def test_disjunction_needs_a_cover_not_pointwise_choice(self):
        # neither disjunct alone holds, but the team splits
        structure = graph_structure(2, [(0, 1)])
        team = Team.make(["x", "y"], [(0, 1), (1, 0)])
        assert eval_team(structure, team, parse("E(x,y) | E(y,x)"))
        assert not eval_team(structure, team, parse("E(x,y) & E(y,x)"))

    def test_disjunction_with_team_atoms_allows_overlap(self):
        structure = graph_structure(3, [])
        team = Team.make(["x", "y"], [(0, 0), (1, 1), (2, 2)])
        assert eval_team(structure, team, parse("inc(x;y) | inc(y;x)"))

    def test_existential_uses_value_sets(self):
        # y must take two values per row to make inc(y;x) and x=x work: lax only
        structure = graph_structure(2, [])
        team = Team.make(["x"], [(0,), (1,)])
        assert eval_team(structure, team, parse("exists y (inc(y;x) & inc(x;y))"))

    def test_universal_duplicates(self):
        structure = graph_structure(2, [(0, 0), (0, 1)])
        team = Team.make(["x"], [(0,)])
        assert eval_team(structure, team, parse("forall y E(x,y)"))
        assert not eval_team(structure, team, parse("forall y E(y,x)"))

    @pytest.mark.parametrize("bound", [1, 2, 4, 8])
    def test_lattice_blocks_keep_the_verdicts(self, monkeypatch, bound):
        # A bound of 2**w memo entries gives lattice blocks of w rows, so
        # teams of up to six rows span one block or many.
        import teamcheck.evaluator as evaluator_module

        monkeypatch.setattr(evaluator_module, "MAX_CACHE_ENTRIES", bound)
        width = bound.bit_length() - 1
        assert bind(plan(parse("x=x"), ("x",), LAX), graph_structure(1, [])).width == width
        rng = SplitMix64(bound)
        texts = [
            "inc(x;y) | inc(y;x)",
            "(inc(x;y) & x!=y) | (inc(y;x) & E(x,y))",
            "inc(x,y;y,x) | x=y",
            "dep(;x) | dep(;y)",
            "indep(;x;y) | (dep(;x) & U(y))",
        ]
        verdicts = Counter()
        for text in texts:
            formula = parse(text)
            for _ in range(12):
                structure = random_structure(rng, 3, min_domain=2)
                team = random_team(rng, structure, ["x", "y"], 6)
                rows = [dict(zip(team.variables, row)) for row in sorted(team.rows)]
                verdict = eval_team(structure, team, formula)
                assert verdict == satisfies(structure, rows, formula), (text, sorted(team.rows))
                if formula.atoms == {"inc"}:
                    assert verdict == eval_inclusion(structure, team, formula), (text, sorted(team.rows))
                verdicts[verdict, len(team) > width] += 1
        assert verdicts[True, True] and verdicts[False, True]

    def test_a_trivial_cover_decides_without_the_lattice(self, monkeypatch):
        # inc(x;y) holds on the whole team, so the cover (team, empty team)
        # settles it; the empty team satisfies every formula.
        calls = TestExistsNarrowing.count_calls(monkeypatch, "_inc")
        team = Team.make(["x", "y"], [(0, 0), (0, 1)])
        assert eval_team(graph_structure(2, []), team, parse("inc(x;y) | inc(y;x)")) is True
        assert calls["_inc"] == 1


class TestStrictMode:
    def test_agrees_with_lax_on_dependence_corpus(self):
        structure = graph_structure(3, [(0, 1), (1, 2), (2, 0)])
        formulas = [
            "dep(x;y)",
            "dep(x;y) | dep(y;x)",
            "E(x,y) | dep(y;x)",
            "exists u (E(x,u) & dep(u;y))",
            "forall u (!E(u,x) | dep(u;y))",
        ]
        rows = [(a, b) for a in range(3) for b in range(3)]
        for text in formulas:
            formula = parse(text)
            for size in (0, 1, 2, 3):
                for combo in itertools.combinations(rows, size):
                    team = Team.make(["x", "y"], combo)
                    strict = strict_check(structure, team, formula)
                    assert eval_team(structure, team, formula) == strict, (text, combo)

    @pytest.mark.parametrize(
        "text, size",
        [
            ("dep(;x) | dep(;y)", 16),
            ("dep(;x) | dep(;y)", 22),
            ("dep(;x) | dep(;y) | dep(x;y)", 16),
            ("exists u (dep(;u) & (x=u | y=u))", 25),
        ],
    )
    def test_downward_closure_cuts_the_search(self, monkeypatch, text, size):
        # Every team here fails (the first 16 rows already take four values
        # of x and five of y), so without the cut the search would try every
        # split or every choice of u.
        calls = []

        def counting(step, decide):
            def counted(rows):
                calls.append(rows)
                assert len(calls) <= 200, "the strict search tried more than 200 dep checks"
                return decide(rows)

            return counted

        spy_on_maker(monkeypatch, evaluator._dep, counting)
        team = Team(("x", "y"), frozenset(canonical_rows(5, ["x", "y"])[:size]))
        assert strict_check(graph_structure(5, []), team, parse(text)) is False
        assert calls

    @pytest.mark.parametrize(
        "text, max_rows",
        [
            ("dep(;x) | dep(;y)", 5),
            ("dep(x;y) | dep(y;x)", 5),
            ("(dep(x;y) & U(x)) | dep(y;x)", 5),
            ("dep(;x) | dep(;y) | dep(x;y)", 5),
            ("dep(;x) | dep(;y) | (dep(;x) & E(x,y))", 5),
            ("dep(;x) | (dep(x;y) | (dep(;y) & E(x,y)))", 5),
            ("(dep(;x) | dep(;y)) & (dep(x;y) | dep(y;x))", 5),
            ("exists u (dep(;u) & (E(x,u) | E(y,u)))", 5),
            ("exists u (E(x,u) & (dep(;u) | dep(y;u)))", 5),
            # the reference splits every duplicated row, up to 3 per row
            ("forall u (dep(u;x) | dep(;y))", 3),
            ("forall u (dep(x;u) | dep(;y))", 3),
            ("forall u (dep(u;x) | (dep(;y) & E(u,y)))", 3),
        ],
    )
    def test_split_and_choice_search_matches_the_definitions(self, monkeypatch, text, max_rows):
        import teamcheck.evaluator as evaluator_module

        searches = []
        original = evaluator_module._choose

        def spy(sides, options):
            searches.append(len(options))
            return original(sides, options)

        monkeypatch.setattr(evaluator_module, "_choose", spy)
        formula = parse(text)
        rng = SplitMix64(sum(map(ord, text)))
        for case in range(40):
            structure = random_structure(rng, 3, min_domain=2)
            # Every other team also binds u, which the quantifiers then overwrite.
            team = random_team(rng, structure, ["x", "y", "u"] if case % 2 else ["x", "y"], max_rows)
            rows = [dict(zip(team.variables, row)) for row in sorted(team.rows)]
            strict = strict_check(structure, team, formula)
            assert strict == satisfies(structure, rows, formula, strict=True), (case, sorted(team.rows))
            assert strict == eval_team(structure, team, formula), (case, sorted(team.rows))
        # the search ran, on teams of several rows, not only the first-order peel-off
        assert max(searches) >= 4


class TestTarski:
    def test_edge_atom(self):
        structure = graph_structure(2, [(0, 1)])
        assert eval_fo_tarski(structure, {"x": 0, "y": 1}, parse("E(x,y)"))
        assert not eval_fo_tarski(structure, {"x": 1, "y": 0}, parse("E(x,y)"))

    def test_directed_cycle_has_outgoing_edges(self):
        structure = graph_structure(3, [(0, 1), (1, 2), (2, 0)])
        assert eval_fo_tarski(structure, {}, parse("forall x exists y E(x,y)"))

    def test_inequality_with_self(self):
        assert not eval_fo_tarski(graph_structure(2, []), {"x": 1}, parse("x!=x"))

    def test_rejects_team_atoms(self):
        with pytest.raises(EvaluationError):
            eval_fo_tarski(graph_structure(2, []), {"x": 0, "y": 0}, parse("dep(x;y)"))

    def test_flatness_on_singletons(self):
        structure = graph_structure(3, [(0, 1), (1, 2)])
        formula = parse("exists y E(x,y)")
        for a in range(3):
            team = Team.make(["x"], [(a,)])
            assert eval_team(structure, team, formula) == eval_fo_tarski(structure, {"x": a}, formula)


class TestRowTest:
    """``row_test`` against ``eval_fo_tarski`` on every row.

    Rows are aligned with the variable order; a quantifier extends a row
    through ``extension_memo``, which overwrites the column of a quantified
    variable that the row already binds.  The free-symbol cell is read when
    the test runs, not when it is compiled.
    """

    VOCABULARY = Vocabulary(relations=(("E", 2), ("U", 1), ("S", 1)), constants=("c",))

    @classmethod
    def structure(cls, n, rng):
        base = random_structure(rng, n, min_domain=n)
        vocabulary = Vocabulary(relations=(("E", 2), ("U", 1)), constants=("c",))
        return Structure(vocabulary, n, dict(base.relations), {"c": rng.randrange(n)})

    @staticmethod
    def assert_agrees(structure, formula, variables, extra=None):
        free = None if extra is None else ("S", [extra["S"]])
        test = row_test(structure, formula, variables, free)
        for row in canonical_rows(structure.domain_size, variables):
            expected = eval_fo_tarski(structure, dict(zip(variables, row)), formula, extra_relations=extra)
            assert test(row) == expected, (render(formula), variables, row, structure.relations)

    def test_random_first_order_formulas(self):
        rng = SplitMix64(2718)
        quantified = 0
        for case in range(300):
            structure = random_structure(rng, 4)
            formula = random_formula(rng, "FO", structure.domain_size, 1)
            quantified += any(isinstance(sub, (Exists, Forall)) for sub in subformulas(formula))
            # Every other row also binds u, which the formulas quantify.
            variables = tuple(sorted(free_vars(formula) | {"x", "y"} | ({"u"} if case % 2 else set())))
            self.assert_agrees(structure, formula, variables)
        assert quantified > 150

    @pytest.mark.parametrize(
        "text",
        [
            "exists x E(x,y)",
            "forall x (E(x,y) | x=y)",
            "forall u exists u U(u)",
            "exists u (U(u) & forall u E(u,x)) | x=u",
            "exists x exists y (E(x,y) & forall x E(y,x))",
            "E(c,x)",
            "E(x,c)",
            "!E(c,c) & U(c)",
            "c=x | x!=c",
            "exists x (E(c,x) & !E(x,c))",
            "forall y (E(y,c) | S(c) | !S(y))",
        ],
    )
    def test_rebound_columns_and_constants(self, text):
        rng = SplitMix64(sum(map(ord, text)))
        formula = parse(text, self.VOCABULARY)
        for n in (1, 2, 3):
            structure = self.structure(n, rng)
            for variables in (("u", "x", "y"), ("x", "y")):
                if free_vars(formula) <= set(variables):
                    self.assert_agrees(structure, formula, variables, {"S": frozenset({(n - 1,)})})

    def test_cell_rebound_across_interpretations(self):
        # One compiled test serves every interpretation of S; each answer
        # must match a fresh Tarski evaluation with that interpretation.
        rng = SplitMix64(31)
        structure = self.structure(3, rng)
        text = "forall u (!S(u) | exists v (E(u,v) & S(v)) | S(x)) & exists u (S(u) & U(x))"
        formula = parse(text, self.VOCABULARY)
        cell = [frozenset()]
        test = row_test(structure, formula, ("x",), ("S", cell))
        answers = set()
        for size in range(4):
            for interpretation in itertools.combinations([(0,), (1,), (2,)], size):
                cell[0] = frozenset(interpretation)
                for a in range(3):
                    expected = eval_fo_tarski(
                        structure, {"x": a}, formula, extra_relations={"S": frozenset(interpretation)}
                    )
                    assert test((a,)) == expected, (interpretation, a)
                    answers.add(expected)
        assert answers == {True, False}

    @pytest.mark.parametrize("text", ["exists u dep(u;x)", "forall u (E(u,x) | inc(u;x))", "indep(;x;x)"])
    def test_team_atoms_raise(self, text):
        with pytest.raises(EvaluationError, match="not a first-order formula"):
            row_test(graph_structure(2, []), parse(text), ("x",))

    def test_unknown_symbols_raise_when_compiled(self):
        # Tarski evaluation never reaches the right disjunct; the compile step does.
        structure = graph_structure(2, [])
        formula = parse("x=x | exists u F(u)")
        assert eval_fo_tarski(structure, {"x": 0}, formula)
        with pytest.raises(EvaluationError, match="unknown relation"):
            row_test(structure, formula, ("x",))


class TestTermPlans:
    """A getter of variables alone is built once and kept; constants are read per structure."""

    VOCABULARY = Vocabulary(constants=("c",))

    def structures(self):
        return [Structure(self.VOCABULARY, 2, constants={"c": c}) for c in (0, 1)]

    @pytest.mark.parametrize("text", ["x=c", "inc(x;c)", "exists y (y=c & inc(x;y))"])
    def test_one_formula_object_reads_each_structures_constant(self, text):
        formula = parse(text, self.VOCABULARY)
        team = Team.make(["x"], [(0,)])
        for c, structure in enumerate(self.structures()):
            assert eval_team(structure, team, formula) == (c == 0), (text, c)
            assert eval_inclusion(structure, team, formula) == (c == 0), (text, c)
            assert wt_solve(WtInstance(structure, formula, 1)) == Team.make(["x"], [(c,)]), (text, c)

    def test_getters_of_variables_are_planned_once(self):
        first, second = self.structures()
        terms = (Var("y"), Var("x"))
        getter = plan_terms(terms, ("x", "y"))
        assert bind_terms(first, getter) is getter is bind_terms(second, getter)
        assert getter((1, 2)) == (2, 1)
        assert plan_terms(terms, ("x", "y", "z"), bare=True)((1, 2, 3)) == (2, 1)
        planned = plan_terms((Const("c"), Var("x")), ("x",))
        assert bind_terms(first, planned)((1,)) == (0, 1)
        assert bind_terms(second, planned)((1,)) == (1, 1)

    def test_a_missing_variable_raises_on_every_call(self):
        structure = self.structures()[0]
        formula = parse("x=y")
        for _ in range(3):
            with pytest.raises(EvaluationError, match="free variable 'y' is not in the team domain"):
                plan_terms((Var("x"), Var("y")), ("x",))
            with pytest.raises(EvaluationError, match="free variable 'y' is not in the team domain"):
                row_test(structure, formula, ("x",))
        assert row_test(structure, formula, ("x", "y"))((1, 1))


class TestPlans:
    """One plan per (formula, variable order, reading), bound afresh to each structure."""

    @staticmethod
    def fresh(text):
        # rebuilt by the constructors, so no earlier call has planned it
        return copy.deepcopy(parse(text))

    def test_one_plan_per_reading_across_structures(self, monkeypatch):
        built = Counter()
        original = evaluator.build_plan

        def counting(formula, variables, reading):
            built[formula, variables, reading.name] += 1
            return original(formula, variables, reading)

        monkeypatch.setattr(evaluator, "build_plan", counting)
        inclusion_formula = self.fresh("exists u (inc(u;x) & (E(u,y) | u=y))")
        dependence = self.fresh("dep(x;y) | exists u (E(x,u) & dep(u;y))")
        first_order = self.fresh("forall u (E(x,u) | !U(y))")
        rng = SplitMix64(50)
        for _ in range(50):
            structure = random_structure(rng, 3, min_domain=2)
            team = random_team(rng, structure, ["x", "y"], 4)
            eval_team(structure, team, inclusion_formula)
            eval_inclusion(structure, team, inclusion_formula)
            wt_solve(WtInstance(structure, inclusion_formula, 2))
            eval_team(structure, team, dependence)
            strict_check(structure, team, dependence)
            row_test(structure, first_order, team.variables)
        xy = ("x", "y")
        assert built == {
            (inclusion_formula, xy, "lax"): 1,
            (inclusion_formula, xy, "fixpoint"): 1,
            (dependence, xy, "lax"): 1,
            (dependence, xy, "strict"): 1,
            (first_order, xy, "row"): 1,
        }

    def test_a_plan_keeps_no_structure_alive(self):
        inclusion_formula = parse("exists u (inc(u;x) & (E(u,y) | u=y))")
        dependence = parse("dep(x;y) | exists u (E(x,u) & dep(u;y))")
        checks = [
            (eval_team, inclusion_formula),
            (eval_inclusion, inclusion_formula),
            (eval_team, dependence),
            (strict_check, dependence),
            (lambda structure, team, formula: wt_solve(WtInstance(structure, formula, 2)), inclusion_formula),
            (lambda structure, team, formula: row_test(structure, formula, team.variables), parse("E(x,y)")),
        ]
        rng = SplitMix64(9)
        gc.disable()
        try:
            for check, formula in checks:
                structure = random_structure(rng, 3, min_domain=2)
                check(structure, random_team(rng, structure, ["x", "y"], 4), formula)
                alive = weakref.ref(structure)
                del structure
                assert alive() is None, check
        finally:
            gc.enable()

    def test_one_formula_gives_each_structure_its_own_verdict(self):
        structures = graph_structure(2, [(0, 1), (1, 0)]), graph_structure(2, [(0, 0), (1, 0)])
        team = Team.make(["x", "y"], [(0, 1), (1, 0)])
        rows = [dict(zip(team.variables, row)) for row in sorted(team.rows)]
        verdicts = {
            "E(x,y)": (True, False),
            "exists u (E(x,u) & inc(y;u))": (True, False),
            "exists u (E(x,u) & dep(;u))": (False, True),
        }
        for text, expected in verdicts.items():
            formula = parse(text)
            for structure, verdict in zip(structures, expected):
                assert satisfies(structure, rows, formula) is verdict, text
                assert eval_team(structure, team, formula) is verdict, text
                if formula.atoms <= {"inc"}:
                    assert eval_inclusion(structure, team, formula) is verdict, text
                if formula.atoms <= {"dep"}:
                    assert strict_check(structure, team, formula) is verdict, text
                if formula.first_order:
                    assert all(map(row_test(structure, formula, team.variables), team.rows)) is verdict, text

    def test_an_unknown_relation_raises_after_another_structure_built_the_plan(self):
        with_f = Structure(Vocabulary(relations=(("E", 2), ("F", 1))), 2, {"F": frozenset({(0,), (1,)})})
        without_f = graph_structure(2, [])
        team = Team.make(["x"], [(0,), (1,)])
        checks = [
            (eval_team, "exists u (F(u) & inc(u;x)) | E(x,x)"),
            (eval_inclusion, "exists u (F(u) & inc(u;x)) | E(x,x)"),
            (strict_check, "exists u (F(u) & dep(;u)) | E(x,x)"),
            (lambda structure, team, formula: all(map(row_test(structure, formula, ("x",)), team.rows)), "forall u (F(u) | E(x,u))"),
        ]
        for check, text in checks:
            formula = parse(text)
            assert check(with_f, team, formula) is True, text
            # the empty team too: the bind raises before any row is tested
            for rows in (team, Team.empty(["x"])):
                with pytest.raises(EvaluationError, match="unknown relation 'F'"):
                    check(without_f, rows, formula)


class TestBoundOnce:
    """One bind per (formula, variable order, reading) and structure, kept while both live."""

    @staticmethod
    def count_binds(monkeypatch):
        """Binds by the reading of the plan's root."""
        binds = Counter()
        original = evaluator.bind

        def counting(steps, structure, free=None):
            binds[steps[-1][2][0]] += 1
            return original(steps, structure, free)

        monkeypatch.setattr(evaluator, "bind", counting)
        return binds

    def test_each_reading_binds_once_per_structure(self, monkeypatch):
        binds = self.count_binds(monkeypatch)
        team = Team.make(["x", "y"], [(0, 1), (1, 0)])
        inclusion_formula = parse("exists u (E(x,u) & inc(y;u))")
        dependence = parse("exists u (E(x,u) & dep(;u))")
        checks = [
            (eval_team, inclusion_formula),
            (eval_inclusion, inclusion_formula),
            (eval_team, dependence),
            (strict_check, dependence),
            (lambda structure, team, formula: all(map(row_test(structure, formula, team.variables), team.rows)), parse("E(x,y)")),
        ]
        verdicts = {
            graph_structure(2, [(0, 1), (1, 0)]): [True, True, False, False, True],
            graph_structure(2, [(0, 0), (1, 0)]): [False, False, True, True, False],
        }
        for structure, expected in verdicts.items():
            before = Counter(binds)
            for _ in range(50):
                assert [check(structure, team, formula) for check, formula in checks] == expected
            assert binds - before == {"lax": 2, "fixpoint": 1, "strict": 1, "row": 1}

    def test_wd_solve_binds_per_call(self, monkeypatch):
        binds = self.count_binds(monkeypatch)
        wd = WdFormula(parse("forall u (S(u) | !E(u,u))"))
        structure = graph_structure(3, [(0, 0)])
        for calls in range(1, 4):
            assert wd_solve(structure, wd, 1) == frozenset({(0,)})
            assert binds == {"row": calls}

    def test_a_bound_root_dies_with_its_structure(self):
        inclusion_formula = parse("exists u (inc(u;x) & (E(u,y) | u=y))")
        dependence = parse("dep(x;y) | exists u (E(x,u) & dep(u;y))")
        variables = ("x", "y")
        gc.disable()
        try:
            structure = graph_structure(3, [(0, 1), (1, 2)])
            roots = [
                compile_max(structure, variables, inclusion_formula),
                compile_check(structure, inclusion_formula, variables, "generic"),
                compile_check(structure, dependence, variables, "strict"),
                row_test(structure, parse("E(x,y) | x=y"), variables),
            ]
            alive = [weakref.ref(root) for root in roots]
            del roots, structure
            assert [ref() for ref in alive] == [None] * 4
        finally:
            gc.enable()

    def test_a_formula_with_plans_and_bindings_dies_with_the_parse_cache(self):
        # texts no other test parses, so only the parse cache holds them
        texts = [
            "exists w (inc(w;p) & (E(w,q) | w=q))",
            "dep(p;q) | exists w (E(p,w) & dep(w;q))",
            "forall w (E(p,w) | E(w,q))",
        ]
        structure = graph_structure(3, [(0, 1), (1, 2)])
        team = Team.make(["p", "q"], [(0, 1), (1, 2), (2, 0)])
        gc.disable()
        try:
            alive = []
            for text in texts:
                formula = parse(text)
                eval_team(structure, team, formula)
                wt_solve(WtInstance(structure, formula, 2))
                if formula.atoms <= {"inc"}:
                    eval_inclusion(structure, team, formula)
                if formula.atoms <= {"dep"}:
                    strict_check(structure, team, formula)
                if formula.first_order:
                    row_test(structure, formula, team.variables)
                assert formula.__dict__["plans"] and formula.__dict__["bindings"]
                alive += [weakref.ref(formula), weakref.ref(compile_check(structure, formula, team.variables, "generic"))]
                del formula
            formulas._parse.cache_clear()
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            gc.enable()


class TestCheckSentence:
    def test_reflexive_universal(self):
        structure = graph_structure(2, [(0, 0), (1, 1)])
        assert check_sentence(structure, parse("forall x E(x,x)"))

    def test_inclusion_sentence_matches_generic(self):
        structure = graph_structure(3, [(0, 1), (1, 2), (2, 0)])
        sentence = parse("forall x exists y (E(x,y) & inc(y;x))")
        generic = eval_team(structure, Team((), frozenset({()})), sentence)
        assert check_sentence(structure, sentence) == generic

    def test_dependence_sentence(self):
        structure = graph_structure(2, [])
        assert check_sentence(structure, parse("exists x exists y (dep(x;y) & x!=y)"))

    def test_rejects_free_variables(self):
        with pytest.raises(EvaluationError):
            check_sentence(graph_structure(2, []), parse("E(x,x)"))

    def test_keeps_no_row_set_memos_after_the_call(self):
        # read beside the plan, not through ``bound``, which empties them at hand-out
        structure = Structure(CORPUS_VOCABULARY, 3, {"E": {(0, 1), (1, 2)}, "U": {(0,), (1,)}})
        sentence = parse("forall u forall v ((indep(;u;v) & U(u)) | (dep(;u) & E(u,v)))", CORPUS_VOCABULARY)
        assert check_sentence(structure, sentence) is False
        binding = sentence.__dict__["bindings"][(), LAX][structure]
        assert binding.memos and not any(binding.memos)
        # the call did fill them
        binding.root(frozenset({()}))
        assert sum(map(len, binding.memos)) > 0


class TestAgainstNaiveReference:
    """Cross-check against a clause-by-clause reference evaluator.

    The reference enumerates disjunction covers by labeling rows
    left/right/both and existential choices as products of nonempty value
    sets per row, with no memoization, sharing no code with the optimized
    search paths.
    """

    @staticmethod
    def reference(structure, rows, formula):
        # rows: list of assignment dicts sharing a domain
        from teamcheck.formulas import (
            And, Dep, Eq, Exists, Forall, Inc, Indep, Neq, NegRel, Or, Rel, Var,
        )

        def value(term, s):
            return s[term.name] if isinstance(term, Var) else structure.constants[term.name]

        def values(terms, s):
            return tuple(value(t, s) for t in terms)

        def sat(rows, node):
            if isinstance(node, Eq):
                return all(value(node.left, s) == value(node.right, s) for s in rows)
            if isinstance(node, Neq):
                return all(value(node.left, s) != value(node.right, s) for s in rows)
            if isinstance(node, Rel):
                return all(values(node.terms, s) in structure.relations[node.name] for s in rows)
            if isinstance(node, NegRel):
                return all(values(node.terms, s) not in structure.relations[node.name] for s in rows)
            if isinstance(node, Dep):
                return all(
                    values(node.determined, s1) == values(node.determined, s2)
                    for s1 in rows
                    for s2 in rows
                    if values(node.determinants, s1) == values(node.determinants, s2)
                )
            if isinstance(node, Inc):
                return all(
                    any(values(node.left, s1) == values(node.right, s2) for s2 in rows)
                    for s1 in rows
                )
            if isinstance(node, Indep):
                return all(
                    any(
                        values(node.condition, s3) == values(node.condition, s1)
                        and values(node.left, s3) == values(node.left, s1)
                        and values(node.right, s3) == values(node.right, s2)
                        for s3 in rows
                    )
                    for s1 in rows
                    for s2 in rows
                    if values(node.condition, s1) == values(node.condition, s2)
                )
            if isinstance(node, And):
                return sat(rows, node.left) and sat(rows, node.right)
            if isinstance(node, Or):
                for labels in itertools.product((0, 1, 2), repeat=len(rows)):
                    left = [s for s, l in zip(rows, labels) if l != 1]
                    right = [s for s, l in zip(rows, labels) if l != 0]
                    if sat(dedup(left), node.left) and sat(dedup(right), node.right):
                        return True
                return False
            if isinstance(node, Exists):
                if not rows:
                    return sat(rows, node.body)
                choices = []
                for s in rows:
                    exts = [{**s, node.variable: a} for a in structure.elements]
                    opts = []
                    for size in range(1, len(exts) + 1):
                        opts.extend(itertools.combinations(exts, size))
                    choices.append(opts)
                for pick in itertools.product(*choices):
                    supplemented = [s for group in pick for s in group]
                    if sat(dedup(supplemented), node.body):
                        return True
                return False
            if isinstance(node, Forall):
                duplicated = [{**s, node.variable: a} for s in rows for a in structure.elements]
                return sat(dedup(duplicated), node.body)
            raise AssertionError(node)

        def dedup(rows):
            seen = []
            for s in rows:
                if s not in seen:
                    seen.append(s)
            return seen

        return sat(dedup(rows), formula)

    def test_agreement_on_random_small_cases(self):
        from teamcheck.corpus import SplitMix64, random_structure, random_team
        from teamcheck.corpus import _random_quantifier_free
        from teamcheck.formulas import Exists, Forall, free_vars

        rng = SplitMix64(31)
        fragments = ["FO", "FO(dep)", "FO(inc)", "FO(indep)"]
        checked = 0
        while checked < 240:
            structure = random_structure(rng, 3)
            fragment = fragments[checked % 4]
            body = _random_quantifier_free(rng, fragment, ["x", "y", "u"])
            shape = rng.randrange(3)
            if shape == 1:
                formula = Exists("u", body)
            elif shape == 2:
                formula = Forall("u", body)
            else:
                formula = body
            if not free_vars(formula) <= {"x", "y"}:
                continue
            team = random_team(rng, structure, ["x", "y"], 2)
            rows = [dict(zip(team.variables, row)) for row in sorted(team.rows)]
            expected = self.reference(structure, rows, formula)
            assert eval_team(structure, team, formula) == expected, (
                structure.relations,
                sorted(team.rows),
                formula,
            )
            checked += 1


class TestAgainstDefinitions:
    """Cross-check against ``team_reference``, which works from the definitions.

    The reference decides literals with ``eval_fo_tarski`` and enumerates
    covers and supplementing functions plainly, so it shares no code with
    the compiled evaluator's term resolver, row tests or searches.
    """

    @staticmethod
    def assert_agrees(structure, team, formula):
        rows = [dict(zip(team.variables, row)) for row in sorted(team.rows)]
        case = (render(formula), structure.domain_size, structure.relations, sorted(team.rows))
        assert eval_team(structure, team, formula) == satisfies(structure, rows, formula), case
        if not formula.atoms & {"inc", "indep"}:
            strict = strict_check(structure, team, formula)
            assert strict == satisfies(structure, rows, formula, strict=True), case

    @pytest.mark.parametrize("fragment", ["FO(dep)", "FO(indep)", "FO(inc)"])
    def test_random_formulas(self, fragment):
        rng = SplitMix64(sum(map(ord, fragment)))
        for case in range(150):
            structure = random_structure(rng, 3)
            formula = random_formula(rng, fragment, structure.domain_size, 4, budget=2e4)
            # Every other team also binds u, which the formulas quantify, so
            # those quantifiers overwrite a column instead of adding one.
            variables = sorted(free_vars(formula) | {"x", "y"} | ({"u"} if case % 2 else set()))
            self.assert_agrees(structure, random_team(rng, structure, variables, 4), formula)

    @pytest.mark.parametrize(
        "text",
        [
            "dep(;x)",
            "dep(;x) | dep(;y)",
            "dep(;x) | dep(;x) | dep(;x)",
            "dep(;x) | (dep(x;y) & E(x,y))",
            "inc(x;y) | inc(y;x)",
            "exists x (dep(;x) & E(x,y))",
            "forall x (dep(;y) & (E(x,y) | x!=y))",
            "exists y (dep(x;y) & inc(y;x))",
            "forall y exists x (E(x,y) | indep(;x;y))",
            "exists u (inc(u;x) & (E(u,y) | u=y))",
            "exists y (E(x,y) & dep(x;y))",
            "exists u ((dep(;u) & E(x,u)) & u!=y)",
            "exists u (u!=u & dep(;x))",
        ],
    )
    def test_constant_atoms_and_quantifiers_over_team_variables(self, text):
        # dep(;x) has no determinant columns; the quantifiers rebind x or y,
        # which every team here already binds.  The inclusion disjunction
        # needs an overlapping cover on some 3-row teams over 3 elements.
        # The last four narrow their exists search by a first-order
        # conjunct: beside a team atom, in a nested chain, or one that no
        # extension passes.
        rng = SplitMix64(sum(map(ord, text)))
        formula = parse(text)
        for n in (2, 3):
            structure = random_structure(rng, n, min_domain=n)
            rows = canonical_rows(n, ["x", "y"])
            for size in range(4):
                for combo in itertools.combinations(rows, size):
                    self.assert_agrees(structure, Team(("x", "y"), frozenset(combo)), formula)

    @pytest.mark.parametrize(
        "text", ["inc(x;c) | inc(y,c;c,x)", "dep(c;x) | dep(x,c;y)", "forall y indep(c;x;y)"]
    )
    def test_constants_in_team_atoms(self, text):
        vocabulary = Vocabulary(relations=(("E", 2),), constants=("c",))
        structure = Structure(vocabulary, 3, {"E": frozenset({(0, 1), (1, 1), (2, 0)})}, {"c": 1})
        formula = parse(text, vocabulary)
        rows = canonical_rows(3, ["x", "y"])
        for size in range(4):
            for combo in itertools.combinations(rows, size):
                self.assert_agrees(structure, Team(("x", "y"), frozenset(combo)), formula)


class TestQuantifiedFirstOrder:
    """First-order subformulas, quantified or not, are decided row by row.

    They are flat, so the compiled evaluators give them one row test each
    instead of a team-level quantifier search; these tests hold the verdicts
    to the definitions and check that no team-level node is built for them.
    """

    POOL = ["x", "y", "u"]

    @classmethod
    def nested(cls, rng, fragment, depth):
        """Quantified first-order pieces and team atoms under ``&``, ``|`` and quantifiers."""
        if depth == 0:
            if rng.random() < 0.4:
                return _random_team_atom(rng, fragment, cls.POOL)
            body = _random_quantifier_free(rng, "FO", cls.POOL + ["v"])
            return (Exists if rng.random() < 0.5 else Forall)("v", body)
        kind = rng.randrange(4)
        if kind == 2:
            return (Exists if rng.random() < 0.5 else Forall)("u", cls.nested(rng, fragment, depth - 1))
        left, right = cls.nested(rng, fragment, depth - 1), cls.nested(rng, fragment, rng.randrange(depth))
        return And(left, right) if kind == 0 else Or(left, right)

    @pytest.mark.parametrize("fragment", ["FO(dep)", "FO(inc)", "FO(indep)"])
    def test_nested_random_formulas_agree_with_definitions(self, fragment):
        rng = SplitMix64(sum(map(ord, fragment)) + 6)
        checked = nested_fo = 0
        while checked < 200:
            structure = random_structure(rng, 3, min_domain=2)
            formula = self.nested(rng, fragment, rng.randint(1, 2))
            if search_cost(formula, 3, structure.domain_size) > 5e4:
                continue
            nested_fo += any(
                isinstance(sub, (Exists, Forall)) and sub.first_order for sub in subformulas(formula)
            ) and not formula.first_order
            variables = sorted(free_vars(formula) | {"x", "y"} | ({"u"} if checked % 2 else set()))
            TestAgainstDefinitions.assert_agrees(structure, random_team(rng, structure, variables, 3), formula)
            checked += 1
        assert nested_fo > 80

    @pytest.mark.parametrize("strict", [False, True])
    def test_quantified_first_order_compiles_to_a_row_test(self, monkeypatch, strict):
        extended = []
        original = evaluator._extensions

        def recording(binding, variables, variable, passes):
            extended.append(variable)
            return original(binding, variables, variable, passes)

        monkeypatch.setattr(evaluator, "_extensions", recording)
        structure = graph_structure(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
        path = parse("exists u (E(x,u) & E(u,y))")
        reading = STRICT if strict else LAX
        binding = bind(plan(Or(parse("dep(;x)"), path), ("x", "y"), reading), structure)
        node = binding.root
        # no quantifier extension is bound, and the team atom beside the
        # path is the only node with a row-set memo
        assert extended == [] and len(binding.memos) == 1
        rows = canonical_rows(3, ["x", "y"])
        paths = [row for row in rows if eval_fo_tarski(structure, dict(zip(("x", "y"), row)), path)]
        assert 0 < len(paths) < len(rows)
        assert bind(plan(path, ("x", "y"), reading), structure).root(frozenset(rows)) is False
        assert bind(plan(path, ("x", "y"), reading), structure).root(frozenset(paths)) is True
        assert node(frozenset(rows)) == (len({x for x, _ in set(rows) - set(paths)}) <= 1)

    def test_inclusion_fixpoint_compiles_quantified_first_order_to_a_row_test(self, monkeypatch):
        import teamcheck.inclusion as inclusion_module

        extended = []
        original = inclusion_module.extension_memo

        def recording(structure, variables, variable):
            extended.append(variable)
            return original(structure, variables, variable)

        monkeypatch.setattr(inclusion_module, "extension_memo", recording)
        structure = graph_structure(3, [(0, 1), (1, 2), (2, 0)])
        compile_max(structure, ("x", "y"), parse("inc(x;y) & forall u (E(u,x) | exists v E(v,u))"))
        assert extended == []
        compile_max(structure, ("x", "y"), parse("exists u (inc(u;x) & E(u,y))"))
        assert extended == ["u"]


class TestExistsNarrowing:
    """``exists`` searches only the extensions that pass its body's first-order conjuncts."""

    @staticmethod
    def count_calls(monkeypatch, method):
        """Count calls of every node that the maker ``evaluator.<method>`` binds, and of every row test.

        A row test counts under its formula; a subformula's row test counts
        too when its parent's calls it.
        """
        calls = Counter()
        make = getattr(evaluator, method)

        def chosen(step):
            reading, _, _ = step[2]
            return step[0] is make or reading == ROW.name

        def counting(step, decide):
            reading, formula, _ = step[2]
            name = formula if reading == ROW.name else method

            def counted(rows):
                calls[name] += 1
                return decide(rows)

            return counted

        spy_on_steps(monkeypatch, chosen, counting)
        return calls

    @pytest.mark.parametrize(
        "text, method, strict",
        [("exists u (inc(u;x) & E(u,y))", "_inc", False), ("exists u (dep(x;u) & E(u,y))", "_dep", True)],
    )
    def test_a_row_without_a_passing_extension_calls_no_body(self, monkeypatch, text, method, strict):
        # Nothing has an edge into 2, so a row with y=2 has no passing u.
        structure = graph_structure(3, [(0, 1), (1, 0), (0, 0)])
        calls = self.count_calls(monkeypatch, method)
        decide = strict_check if strict else eval_team
        team = Team.make(["x", "y"], [(0, 0), (1, 1), (2, 0), (0, 2)])
        assert decide(structure, team, parse(text)) is False
        assert calls[method] == 0
        # No row has one: the first row decides, and no other row is narrowed.
        # A fresh structure, since rows narrowed above keep their truths.
        calls.clear()
        structure = graph_structure(3, [(0, 1), (1, 0), (0, 0)])
        team = Team.make(["x", "y"], [(0, 2), (1, 2), (2, 2)])
        assert decide(structure, team, parse(text)) is False
        assert calls[method] == 0 and calls[parse("E(u,y)")] == 3

    def test_a_satisfiable_team_tries_only_covers_of_the_passing_extensions(self, monkeypatch):
        formula = parse("exists u (inc(u;x) & (E(u,y) | u=y))")
        conjunct = formula.body.right
        structure = graph_structure(3, [(0, 1), (1, 2)])
        calls = self.count_calls(monkeypatch, "_inc")
        team = Team.make(["x", "y"], [(0, 2), (1, 0), (1, 2), (2, 0)])
        assert eval_team(structure, team, formula) is True
        # one nonempty subset of each row's passing extensions (its part)
        covers = 1
        for x, y in team.rows:
            passing = sum(eval_fo_tarski(structure, {"x": x, "y": y, "u": u}, conjunct) for u in range(3))
            covers *= 2**passing - 1
        assert 0 < calls["_inc"] <= covers == 9

    def test_narrowing_below_the_subset_limit_keeps_the_fixpoint_verdict(self):
        # 6 rows over 4 elements duplicate to 24 rows, more than the 20 of
        # one default lattice block, but each row passes E(u,y) | u=y for at
        # most two u, so the cover search stays small.
        formula = parse("exists u (inc(u;x) & (E(u,y) | u=y))")
        structure = graph_structure(4, [(0, 1), (2, 3), (3, 0)])
        rng = SplitMix64(8)
        rows = canonical_rows(4, ["x", "y"])
        verdicts = Counter()
        for _ in range(30):
            team = Team(("x", "y"), frozenset(rng.sample(rows, 6)))
            assert len(team) * 4 > 20
            verdict = eval_team(structure, team, formula)
            assert verdict == eval_inclusion(structure, team, formula), sorted(team.rows)
            verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False]

    @pytest.mark.parametrize("text, size, passing", [("exists u inc(u;x)", 6, 4), ("exists u (inc(u;x) & u!=y)", 8, 3)])
    def test_more_extended_rows_than_the_subset_limit_keep_the_fixpoint_verdict(self, text, size, passing):
        # The cover search draws supplements one at a time at any number of
        # distinct extended rows; satisfiable teams end it early.
        formula = parse(text)
        structure = graph_structure(4, [])
        rng = SplitMix64(8)
        rows = canonical_rows(4, ["x", "y"])
        for _ in range(5):
            team = Team(("x", "y"), frozenset(rng.sample(rows, size)))
            assert len(team) * passing > 20
            assert eval_inclusion(structure, team, formula) is True
            assert eval_team(structure, team, formula) is True, sorted(team.rows)


class TestCacheBound:
    """``MAX_CACHE_ENTRIES`` bounds the memo entries; verdicts never depend on it."""

    @staticmethod
    def grid():
        rng = SplitMix64(77)
        for text, max_n in INCLUSION_TEMPLATES:
            formula = parse(text)
            variables = tuple(sorted(free_vars(formula)))
            for n in range(1, min(2, max_n) + 1):
                structure = random_structure(rng, n, min_domain=n)
                rows = canonical_rows(n, variables)
                for size in range(min(3, len(rows)) + 1):
                    for combo in itertools.combinations(rows, size):
                        yield structure, Team(variables, frozenset(combo)), formula
        # The trivial covers leave at most 4 memo entries on the grid above;
        # this team needs the lattice.
        team = Team.make(["x", "y"], [(0, 0), (0, 1), (2, 0), (2, 1)])
        yield graph_structure(3, []), team, parse("inc(x;y) | inc(y;x)")

    def test_bounds_zero_and_one_keep_the_verdicts(self, monkeypatch):
        import teamcheck.evaluator as evaluator_module

        cases = [(*case, eval_team(*case)) for case in self.grid()]
        for bound in (0, 1):
            monkeypatch.setattr(evaluator_module, "MAX_CACHE_ENTRIES", bound)
            for structure, team, formula, expected in cases:
                assert eval_team(structure, team, formula) == expected, (render(formula), sorted(team.rows), bound)

    def test_reused_bindings_give_the_verdicts_of_fresh_binds(self, monkeypatch):
        # Each round binds at its first bound and reuses the bindings at the
        # others: a binding's lattice width stays, its memo room follows.
        import teamcheck.evaluator as evaluator_module

        bounds = [0, 1, evaluator_module.MAX_CACHE_ENTRIES]
        rng = random.Random(27)
        for first in range(len(bounds)):
            cases = list(self.grid())
            for bound in bounds[first:] + bounds[:first]:
                monkeypatch.setattr(evaluator_module, "MAX_CACHE_ENTRIES", bound)
                rng.shuffle(cases)
                for structure, team, formula in cases:
                    fresh = bind(plan(formula, team.variables, LAX), structure).root(team.rows)
                    case = (render(formula), sorted(team.rows), bound)
                    assert eval_team(structure, team, formula) == fresh, case
                    assert eval_inclusion(structure, team, formula) == fresh, case

    def test_a_reused_binding_keeps_no_row_set_memos_after_the_call(self, monkeypatch):
        handed = []
        original = evaluator.bound

        def recording(*arguments):
            handed.append(original(*arguments))
            return handed[-1]

        monkeypatch.setattr(evaluator, "bound", recording)
        monkeypatch.setattr(evaluator, "MAX_CACHE_ENTRIES", 8)  # the team below fills 20 when unbounded
        *_, (structure, team, formula) = self.grid()  # the lattice team
        for _ in range(2):
            assert eval_team(structure, team, formula) is False
        assert handed[0] is handed[1]
        assert not any(handed[0].memos)
        # the calls did fill them, each with the whole room
        handed[0].root(team.rows)
        assert sum(map(len, handed[0].memos)) == 8

    def test_memo_entries_never_exceed_the_bound(self, monkeypatch):
        import teamcheck.evaluator as evaluator_module

        unbounded = 0
        default = evaluator_module.MAX_CACHE_ENTRIES
        for structure, team, formula in self.grid():
            for bound in (0, 1, 7, default):
                monkeypatch.setattr(evaluator_module, "MAX_CACHE_ENTRIES", bound)
                binding = bind(plan(formula, team.variables, LAX), structure)
                binding.root(team.rows)
                entries = sum(map(len, binding.memos))
                assert entries <= bound
            unbounded = max(unbounded, entries)
        assert unbounded > 7  # the small bounds did refuse inserts

    @pytest.mark.parametrize("strict", [False, True])
    def test_shared_operand_decides_each_row_set_once(self, monkeypatch, strict):
        # dep(;x) is an operand of both disjunctions; one memo serves both
        # parents, so its decide runs at most once per subset of the team.
        calls = []

        def counting(step, decide):
            def counted(rows):
                calls.append(rows)
                return decide(rows)

            return counted

        spy_on_maker(monkeypatch, evaluator._dep, counting)
        n = 8
        team = Team.make(["x"], [(a,) for a in range(n)])
        decide = strict_check if strict else eval_team
        assert not decide(graph_structure(n, []), team, parse("dep(;x) | dep(;x) | dep(;x)"))
        assert 0 < len(calls) <= 2 ** n

    @pytest.mark.parametrize("strict", [False, True])
    def test_binding_is_freed_without_the_cycle_collector(self, strict):
        # No node refers back to its binding, so the memos go as soon as
        # the binding and its root do, not whenever the cycle collector
        # next runs: a node in a cycle with the binding would keep the
        # binding, and with it the root, alive.
        structure = graph_structure(2, [(0, 1), (1, 1)])
        team = Team.make(["x", "y"], [(0, 0), (0, 1), (1, 0)])
        formula = parse("forall v exists u (dep(;u) | (dep(x;y) & E(u,v)))")
        gc.disable()
        try:
            binding = bind(plan(formula, team.variables, STRICT if strict else LAX), structure)
            root = binding.root
            root(team.rows)
            assert sum(map(len, binding.memos)) > 0
            alive = weakref.ref(root)
            del binding, root
            assert alive() is None
        finally:
            gc.enable()

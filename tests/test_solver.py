import itertools
import math
import random

import pytest

from teamcheck.corpus import SplitMix64, all_graphs, random_layered_prop, random_structure
from teamcheck.errors import EvaluationError
from teamcheck.evaluator import eval_fo_tarski, eval_team
from teamcheck.formulas import And, Eq, Exists, Forall, Neq, NegRel, Or, Rel, Var, classify, first_order_part, free_vars, parse
from teamcheck.inclusion import eval_inclusion, max_subteam
from teamcheck.model import Structure, Team, Vocabulary, canonical_rows
from teamcheck import solver
from teamcheck.prop import parse_prop, prop_variables, render_prop
from teamcheck.reductions import (
    Graph,
    build_syntax_circuit,
    encode_clique,
    encode_domset,
    encode_indset,
    encode_wsat,
    graph_brute,
    graph_structure,
    theta_formula,
)
from teamcheck.solver import (
    WdFormula,
    WtInstance,
    colex_subsets,
    first_colex,
    solve_path,
    wd_check,
    wd_solve,
    wt_solve,
)
from teamcheck.verify import INCLUSION_TEMPLATES, clique_wd_formula

GRAPH_VOCAB = Vocabulary(relations=(("E", 2),))

DOMSET_WD_TEXT = "forall x exists y (S(y) & (E(x,y) | x=y))"


def domset_wd_formula() -> WdFormula:
    return WdFormula(parse(DOMSET_WD_TEXT), "S", 1)


def structure_with_edges(n, edges):
    return Structure(GRAPH_VOCAB, n, {"E": frozenset(edges)})


def k3():
    return structure_with_edges(3, [(a, b) for a in range(3) for b in range(3) if a != b])


def _colex_reference(items, k):
    """Every k-subset of ``items`` in colex order, built without ``colex_subsets``."""
    combos = sorted(itertools.combinations(range(len(items)), k), key=lambda c: c[::-1])
    return [frozenset(items[i] for i in combo) for combo in combos]


class TestColexOrder:
    def test_order_matches_reference(self):
        for n, k in [(5, 2), (5, 3), (4, 1), (4, 4)]:
            got = [frozenset(c) for c in colex_subsets(range(n).__contains__, k)]
            assert got == _colex_reference(range(n), k)

    def test_prune_cuts_supersets(self):
        seen = list(colex_subsets(range(4).__contains__, 2, extendable=lambda partial: 3 not in partial))
        assert all(3 not in combo for combo in seen)
        assert len(seen) == 3  # pairs within {0,1,2}

    def test_extendable_never_sees_complete_choices(self):
        for n, k in [(5, 2), (5, 3), (4, 1), (4, 4), (3, 0)]:
            offered = []

            def extendable(partial):
                offered.append(partial)
                return True

            assert len(list(colex_subsets(range(n).__contains__, k, extendable))) == math.comb(n, k)
            assert all(len(partial) < k for partial in offered)
            assert bool(offered) == (k >= 2)

    def test_more_picks_than_the_recursion_limit(self):
        # the first candidate: the k smallest indices, largest first, each partial offered once
        offered = []
        first = next(colex_subsets(range(2000).__contains__, 1500, lambda partial: offered.append(partial) or True))
        assert first == tuple(range(1499, -1, -1))
        assert offered == [first[:n] for n in range(1, 1500)]


def _closed_family(rng, items, cut):
    """A random set predicate that is down-closed, up-closed or arbitrary."""
    sets = [frozenset(rng.sample(items, rng.randint(0, len(items)))) for _ in range(rng.randint(0, 4))]
    if cut == "antitone":
        return lambda chosen: any(chosen <= top for top in sets)
    if cut == "monotone":
        return lambda chosen: any(bottom <= chosen for bottom in sets)
    return lambda chosen: chosen in sets


class TestFirstColex:
    @pytest.mark.parametrize("cut", ["antitone", "monotone", None])
    def test_matches_unpruned_search(self, cut):
        rng = random.Random(f"first-colex-{cut}")
        outcomes = set()
        for _ in range(300):
            items = [f"i{j}" for j in range(rng.randint(0, 7))]
            holds = _closed_family(rng, items, cut)
            for k in range(len(items) + 2):
                expected = next(filter(holds, _colex_reference(items, k)), None)
                assert first_colex(items, k, holds, cut) == expected, (items, k)
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("cut", ["antitone", "monotone", None])
    def test_draws_a_stream_only_up_to_the_witness(self, cut):
        # Items are drawn in order and only as far as the witness's top item,
        # dropped ones included; a search for k >= 1 that finds nothing draws
        # them all, and one for k = 0 draws none.
        rng = random.Random(f"first-colex-stream-{cut}")
        for _ in range(300):
            items = [f"i{j}" for j in range(rng.randint(0, 7))]
            holds = _closed_family(rng, items, cut)
            for k in range(len(items) + 2):
                drawn = []

                def stream():
                    for item in items:
                        drawn.append(item)
                        yield item

                found = first_colex(stream(), k, holds, cut)
                assert found == next(filter(holds, _colex_reference(items, k)), None), (items, k)
                if found is None:
                    end = len(items) if k else 0
                else:
                    end = max((items.index(item) + 1 for item in found), default=0)
                assert drawn == items[:end], (items, k)

    def test_antitone_tests_each_item_alone_at_most_once(self):
        rng = random.Random("first-colex-alone")
        dropped = 0
        for _ in range(300):
            items = [f"i{j}" for j in range(rng.randint(0, 7))]
            family = _closed_family(rng, items, "antitone")
            for k in range(len(items) + 2):
                calls = []

                def holds(chosen):
                    calls.append(chosen)
                    return family(chosen)

                expected = next(filter(family, _colex_reference(items, k)), None)
                assert first_colex(items, k, holds, "antitone") == expected, (items, k)
                singles = [chosen for chosen in calls if len(chosen) == 1]
                assert len(singles) == len(set(singles)), (items, k)
                failed = set()
                for chosen in calls:
                    assert not chosen & failed, (items, k, chosen)
                    if len(chosen) == 1 and not family(chosen):
                        failed |= chosen
                dropped += len(failed)
        assert dropped

    @pytest.mark.parametrize("text, path", [
        ("E(x,y) & exists z x=z", ("fo-counting", "antitone")),
        ("dep(x;y)", ("strict", "antitone")),
        ("inc(x;y)", ("inclusion-fixpoint", "union")),
        ("indep(;x;y)", ("generic", None)),
        ("dep(x;y) & inc(x;y)", ("generic", None)),
    ])
    def test_solve_path_names_the_cut(self, text, path):
        assert solve_path(classify(parse(text))) == path


def test_search_work_is_pinned(monkeypatch):
    """Candidates, cut queries and cuts of four search families, as counted at the last change to the search."""
    counts = [0, 0, 0]
    original = solver.colex_subsets

    def counted(indices, k, extendable=None):
        if extendable is not None:
            inner = extendable

            def extendable(partial):
                counts[1] += 1
                ok = inner(partial)
                counts[2] += not ok
                return ok

        for combo in original(indices, k, extendable):
            counts[0] += 1
            yield combo

    monkeypatch.setattr(solver, "colex_subsets", counted)
    graphs = list(all_graphs(4))
    for graph in graphs:
        for k in (1, 2, 3):
            wt_solve(encode_indset(graph, k))
    dep_counts, counts[:] = tuple(counts), [0, 0, 0]
    for graph in graphs:
        for encode in (encode_domset, encode_clique):
            for k in (1, 2, 3):
                wt_solve(encode(graph, k))
    inc_counts, counts[:] = tuple(counts), [0, 0, 0]
    for graph in graphs:
        for k in range(4):
            wd_solve(graph_structure(graph), clique_wd_formula(), k)
    clique_counts, counts[:] = tuple(counts), [0, 0, 0]
    # drawn as the theta-wd benchmark pool draws them: 2:2:1 negative depth 1, negative depth 3, positive depth 2
    rng = SplitMix64(2024)
    for depth, positive, count in ((1, False, 4), (3, False, 4), (2, True, 2)):
        for _ in range(count):
            formula = parse_prop(render_prop(random_layered_prop(rng, depth, positive=positive)))
            structure = build_syntax_circuit(formula, depth)
            for k in range(1, len(prop_variables(formula)) + 1):
                wd_solve(structure, theta_formula(depth, negative=not positive), k)
    assert (dep_counts, inc_counts, clique_counts, tuple(counts)) == (
        (295, 394, 85), (489, 635, 163), (359, 394, 85), (36, 82, 38)
    )


class TestWtSolve:
    def test_rows_are_drawn_as_the_search_needs_them(self, monkeypatch):
        # 10**12 rows over x, y; the pre-filter sees each drawn row once
        drawn = []
        original = solver.row_test

        def counting(structure, formula, variables, free=None):
            test = original(structure, formula, variables, free)

            def counted(row):
                drawn.append(row)
                assert len(drawn) <= 10, "rows are listed before the search"
                return test(row)

            return counted

        monkeypatch.setattr(solver, "row_test", counting)
        structure = Structure(Vocabulary(), 10 ** 6)
        assert wt_solve(WtInstance(structure, parse("x=y"), 1)) == Team.make(["x", "y"], [(0, 0)])
        assert drawn == [(0, 0)]

    def test_k_zero_returns_empty_team(self):
        instance = WtInstance(k3(), parse("x!=x"), 0)
        assert wt_solve(instance) == Team.empty(["x"])

    def test_domset_star_witness_is_center(self):
        star = Graph.make(5, [(0, i) for i in range(1, 5)])
        witness = wt_solve(encode_domset(star, 1))
        assert witness == Team.make(["z"], [(0,)])

    def test_clique_k3_full_pair_team(self):
        instance = encode_clique(Graph.make(3, [(0, 1), (1, 2), (0, 2)]), 3)
        assert instance.k == 6
        witness = wt_solve(instance)
        assert witness is not None
        assert witness.rows == frozenset((a, b) for a in range(3) for b in range(3) if a != b)

    def test_witness_always_satisfies_with_exact_size(self):
        instance = encode_domset(Graph.make(4, [(0, 1), (1, 2), (2, 3)]), 2)
        witness = wt_solve(instance)
        assert witness is not None
        assert len(witness) == 2
        assert witness.variables == ("z",)
        assert eval_team(instance.structure, witness, instance.formula)

    def test_witness_matches_exhaustive_search(self):
        # exhaustive evaluation of the forall/exists shape is exponential, so
        # the cross-check runs on a two-vertex graph; the reduction suite
        # covers the fixpoint path at scale
        instances = [encode_domset(Graph.make(2, [(0, 1)]), k) for k in (1, 2)]
        instances.append(encode_clique(Graph.make(3, [(0, 1), (1, 2), (0, 2)]), 2))
        for instance in instances:
            expected = _reference_wt_witness(instance.structure, instance.formula, instance.k)
            assert expected is not None
            assert wt_solve(instance) == expected

    def test_exact_size_is_not_monotone_for_independence(self):
        # teams satisfying unconditional independence have rectangle sizes:
        # over two elements that means 1, 2 or 4 rows, never 3
        structure = structure_with_edges(2, [])
        formula = parse("indep(;x;y)")
        results = {
            k: wt_solve(WtInstance(structure, formula, k)) is not None for k in (2, 3, 4)
        }
        assert results == {2: True, 3: False, 4: True}

    def test_dependence_success_is_downward_closed(self):
        structure = structure_with_edges(3, [])
        formula = parse("dep(x;y)")
        top = wt_solve(WtInstance(structure, formula, 3))
        assert top is not None
        for smaller in (1, 2):
            assert wt_solve(WtInstance(structure, formula, smaller)) is not None

    def test_row_exhaustion_bounds_team_size(self):
        # only six pairwise-distinct pairs exist over three elements
        formula = parse("x!=y & inc(x;y) & inc(y;x)")
        structure = structure_with_edges(3, [])
        assert wt_solve(WtInstance(structure, formula, 6)) is not None
        assert wt_solve(WtInstance(structure, formula, 7)) is None


class TestWtSolveFo:
    """First-order formulas are flat: a size-k team exists iff k rows satisfy them."""

    def test_counts_directed_pairs(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        structure = structure_with_edges(3, edges)
        formula = parse("E(x,y)", GRAPH_VOCAB)
        assert wt_solve(WtInstance(structure, formula, 6)) == Team.make(["x", "y"], edges)
        assert wt_solve(WtInstance(structure, formula, 7)) is None

    def test_k_zero_gives_the_empty_team(self):
        assert wt_solve(WtInstance(k3(), parse("x!=x"), 0)) == Team.empty(["x"])

    def test_unsatisfiable_atom(self):
        assert wt_solve(WtInstance(k3(), parse("x!=x"), 1)) is None

    def test_witness_is_the_first_k_satisfying_rows(self):
        structure = structure_with_edges(3, [(0, 1), (1, 2), (2, 2)])
        formula = parse("exists y (E(x,y) & !E(y,x)) | forall y (E(y,x) | x=y)", GRAPH_VOCAB)
        satisfying = [(a,) for a in range(3) if eval_fo_tarski(structure, {"x": a}, formula)]
        assert 0 < len(satisfying) < 3
        for k in range(len(satisfying) + 2):
            expected = Team(("x",), frozenset(satisfying[:k])) if k <= len(satisfying) else None
            assert wt_solve(WtInstance(structure, formula, k)) == expected, k

    def test_a_team_of_more_rows_than_the_recursion_limit(self):
        variables = [f"x{i}" for i in range(11)]
        formula = parse(" & ".join(f"{v}={v}" for v in variables))
        rows = canonical_rows(2, variables)  # 2048 rows, all satisfying
        witness = wt_solve(WtInstance(Structure(Vocabulary(), 2), formula, 1100))
        assert witness == Team(tuple(sorted(variables)), frozenset(rows[:1100]))

    def test_agrees_with_tarski_count(self):
        structure = structure_with_edges(3, [(0, 1), (1, 2)])
        formula = parse("exists y E(x,y)", GRAPH_VOCAB)
        count = sum(eval_fo_tarski(structure, {"x": a}, formula) for a in range(3))
        for k in range(0, 5):
            witness = wt_solve(WtInstance(structure, formula, k))
            assert (witness is not None) == (k <= count), k


class TestWtSolveSentence:
    """A sentence's only teams are the empty team and the one-row team ``{()}``."""

    def test_k_two_never_holds(self):
        structure = structure_with_edges(2, [(0, 0), (1, 1)])
        sentence = parse("forall x E(x,x)", GRAPH_VOCAB)
        assert wt_solve(WtInstance(structure, sentence, 1)) is not None
        assert wt_solve(WtInstance(structure, sentence, 2)) is None

    def test_k_one_matches_truth(self):
        structure = structure_with_edges(2, [(0, 0), (1, 1)])
        sentence = parse("forall x E(x,x)", GRAPH_VOCAB)
        assert wt_solve(WtInstance(structure, sentence, 1)) == Team((), frozenset({()}))
        assert wt_solve(WtInstance(structure_with_edges(2, [(0, 0)]), sentence, 1)) is None

    def test_k_zero_always_holds(self):
        assert wt_solve(WtInstance(k3(), parse("forall x x!=x"), 0)) == Team.empty(())

    @pytest.mark.parametrize("text", [
        "exists x exists y (dep(x;y) & x!=y)",
        "forall x dep(;x)",
        "forall x exists y (E(x,y) & inc(y;x))",
        "exists x (inc(x;x) & !E(x,x))",
        "forall x exists y indep(;x;y)",
    ])
    def test_team_atom_sentences_match_the_one_row_team(self, text):
        structure = structure_with_edges(3, [(0, 1), (1, 2), (2, 0)])
        sentence = parse(text, GRAPH_VOCAB)
        truth = eval_team(structure, Team((), frozenset({()})), sentence)
        assert (wt_solve(WtInstance(structure, sentence, 1)) is not None) == truth


class TestWeightedDefinability:
    def test_clique_formula_accepts_triangle(self):
        structure = structure_with_edges(3, [(a, b) for a in range(3) for b in range(3) if a != b])
        assert wd_check(structure, clique_wd_formula(), {(0,), (1,), (2,)})

    def test_dominating_formula_accepts_star_center(self):
        star = [(0, i) for i in range(1, 5)] + [(i, 0) for i in range(1, 5)]
        structure = structure_with_edges(5, star)
        assert wd_check(structure, domset_wd_formula(), {(0,)})

    def test_empty_interpretation_is_vacuous_clique(self):
        assert wd_check(k3(), clique_wd_formula(), set())

    def test_wd_solve_triangle(self):
        structure = structure_with_edges(3, [(a, b) for a in range(3) for b in range(3) if a != b])
        assert wd_solve(structure, clique_wd_formula(), 3) == frozenset({(0,), (1,), (2,)})

    def test_wd_solve_pentagon_has_no_triangle(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        sym = edges + [(b, a) for a, b in edges]
        assert wd_solve(structure_with_edges(5, sym), clique_wd_formula(), 3) is None

    def test_polarity_is_read_once_per_formula(self, monkeypatch):
        walks = []
        original = WdFormula.occurrences
        monkeypatch.setattr(WdFormula, "occurrences", lambda wd: walks.append(wd) or original(wd))
        wd = clique_wd_formula()
        for k in range(1, 4):
            wd_solve(k3(), wd, k)
        assert walks == [wd]

    def test_wd_solve_k_zero(self):
        assert wd_solve(k3(), clique_wd_formula(), 0) == frozenset()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            wd_check(k3(), clique_wd_formula(), {(0, 1)})

    @pytest.mark.parametrize("text", ["forall x (x=x | Q(x))", "forall x (x=x | E(x,c))"])
    def test_unknown_symbols_raise_before_the_first_candidate(self, text, monkeypatch):
        # The interpreter never reaches the right disjunct, so wd_check
        # answers; wd_solve compiles the whole formula before it searches.
        # k3() interprets neither Q nor the constant c.
        vocabulary = Vocabulary(relations=(("E", 2), ("Q", 1)), constants=("c",))
        wd = WdFormula(parse(text, vocabulary), arity=1)
        assert wd_check(k3(), wd, set())

        def no_search(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(solver, "colex_subsets", no_search)
        with pytest.raises(EvaluationError, match="unknown"):
            wd_solve(k3(), wd, 1)

    @pytest.mark.parametrize(
        "text, symbol, message", [("S(x)", "S", "must be sentences"), ("forall x E(x,x)", "E", "clashes")]
    )
    def test_oversized_k_validates_before_answering(self, text, symbol, message):
        # No size-5 interpretation exists over two elements, but a bad
        # formula is an input error, not an UNSAT answer.
        wd = WdFormula(parse(text), symbol)
        for k in (1, 5):
            with pytest.raises(EvaluationError, match=message):
                wd_solve(structure_with_edges(2, []), wd, k)

    def test_matches_graph_oracle_on_small_graphs(self):
        for graph in all_graphs(4):
            structure = graph_structure(graph)
            for k in range(0, 5):
                expected = graph_brute("clique", graph, k)
                assert (wd_solve(structure, clique_wd_formula(), k) is not None) == expected


# --- wd_solve against an unpruned search ---------------------------------------

_VARIABLES = ("x", "y", "z")
_POLARITIES = {
    "negative": {"negative"},
    "positive": {"positive"},
    "mixed": {"positive", "negative"},
    "absent": set(),
}


def _random_wd_sentence(rng, polarity, arity):
    """A random NNF sentence whose occurrences of S all have the given polarity."""
    signs = {
        "absent": [],
        "negative": ["negative"] * rng.randint(1, 2),
        "positive": ["positive"] * rng.randint(1, 2),
        "mixed": ["positive", "negative"] + rng.sample(["positive", "negative"], rng.randint(0, 1)),
    }[polarity]

    def terms(count):
        return tuple(Var(rng.choice(_VARIABLES)) for _ in range(count))

    parts = [(Rel if sign == "positive" else NegRel)("S", terms(arity)) for sign in signs]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice((Rel, NegRel, Eq, Neq))
        parts.append(kind("E", terms(2)) if kind in (Rel, NegRel) else kind(*terms(2)))
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [rng.choice((And, Or))(parts[i], parts[i + 1])]
    formula = parts[0]
    for variable in rng.sample(_VARIABLES, len(_VARIABLES)):
        formula = rng.choice((Exists, Forall))(variable, formula)
    return formula


def _reference_wd_solve(structure, wd, k):
    universe = list(itertools.product(range(structure.domain_size), repeat=wd.arity))
    for interpretation in _colex_reference(universe, k):
        if wd_check(structure, wd, interpretation):
            return interpretation
    return None


@pytest.mark.parametrize("arity, domain", [(1, 3), (1, 4), (2, 2), (2, 3)])
def test_wd_solve_matches_unpruned_search(arity, domain):
    rng = random.Random(1000 * arity + domain)
    outcomes = set()
    for polarity in _POLARITIES:
        for _ in range(15):
            edges = [(a, b) for a in range(domain) for b in range(domain) if rng.random() < 0.5]
            structure = structure_with_edges(domain, edges)
            wd = WdFormula(_random_wd_sentence(rng, polarity, arity), arity=arity)
            assert set(wd.occurrences()) == _POLARITIES[polarity]
            for k in range(domain ** arity + 2):
                expected = _reference_wd_solve(structure, wd, k)
                assert wd_solve(structure, wd, k) == expected, (polarity, wd.formula, edges, k)
                outcomes.add(expected is None)
    assert outcomes == {True, False}


def _reference_wt_witness(structure, formula, k):
    """The colex-first size-k team the exhaustive evaluator accepts, over all rows."""
    variables = tuple(sorted(free_vars(formula)))
    rows = canonical_rows(structure.domain_size, variables)
    for chosen in _colex_reference(rows, k):
        team = Team(variables, chosen)
        if eval_team(structure, team, formula):
            return team
    return None


@pytest.mark.parametrize("text, max_n", [t for t in INCLUSION_TEMPLATES if free_vars(parse(t[0]))])
def test_inclusion_witness_matches_exhaustive_search(text, max_n):
    # One compiled checker serves every candidate of a search, so a stale
    # memo would show here as a different witness.  The exhaustive check of
    # a quantified formula is exponential in the team size, hence the caps
    # (the template's domain bound from the inclusion suite, and 4 rows).
    rng = SplitMix64(sum(map(ord, text)))
    for n in range(1, min(3, max_n) + 1):
        for _ in range(2):
            structure = random_structure(rng, n, min_domain=n)
            formula = parse(text, structure.vocabulary)
            rows = n ** len(free_vars(formula))
            for k in range(rows + 1 if formula.quantifier_free else min(rows, 4) + 1):
                expected = _reference_wt_witness(structure, formula, k)
                assert wt_solve(WtInstance(structure, formula, k)) == expected, (n, k)


@pytest.fixture
def cut_verdicts(monkeypatch):
    """Every (partial, kept) verdict of the searches' cuts, recorded by wrapping ``colex_subsets``."""
    verdicts = []
    original = solver.colex_subsets

    def recorded(indices, k, extendable=None):
        def judged(partial):
            kept = extendable(partial)
            verdicts.append((partial, kept))
            return kept

        return original(indices, k, extendable and judged)

    monkeypatch.setattr(solver, "colex_subsets", recorded)
    return verdicts


def _assert_union_search(instance, verdicts, check=eval_team):
    """``wt_solve`` finds the unpruned search's witness, and its cut keeps exactly the partials the rule keeps.

    The unpruned search checks every candidate with ``check`` over the rows
    that satisfy the formula's top-level first-order conjuncts (by Tarski
    truth).  The rule keeps a partial ``P`` when the maximal subteam of
    ``P`` plus every earlier row contains ``P`` and has at least ``k`` rows,
    that subteam computed afresh by ``max_subteam``.  Returns the verdicts.
    """
    structure, formula, k = instance.structure, instance.formula, instance.k
    variables = tuple(sorted(free_vars(formula)))
    part = first_order_part(formula)
    rows = [
        row
        for row in canonical_rows(structure.domain_size, variables)
        if part is None or eval_fo_tarski(structure, dict(zip(variables, row)), part)
    ]
    teams = (Team(variables, chosen) for chosen in _colex_reference(rows, k))
    expected = next((team for team in teams if check(structure, team, formula)), None)
    verdicts.clear()
    assert wt_solve(instance) == expected
    for partial, kept in verdicts:
        chosen = {rows[i] for i in partial}
        pool = max_subteam(structure, Team(variables, chosen.union(rows[: partial[-1]])), formula).rows
        assert kept == (chosen <= pool and len(pool) >= k), partial
    return [kept for _, kept in verdicts]


class TestUnionCut:
    """FO(inc) searches cut by maximal subteams, against unpruned colex searches."""

    @pytest.mark.parametrize("text, max_n", INCLUSION_TEMPLATES)
    def test_templates_at_every_size(self, cut_verdicts, text, max_n):
        rng = SplitMix64(sum(map(ord, text)) + 28)
        for n in range(1, max_n + 1):
            for _ in range(2):
                structure = random_structure(rng, n, min_domain=n)
                formula = parse(text, structure.vocabulary)
                assert solve_path(classify(formula)) == ("inclusion-fixpoint", "union")
                for k in range(n ** len(free_vars(formula)) + 1):
                    _assert_union_search(WtInstance(structure, formula, k), cut_verdicts)

    @pytest.mark.parametrize("encode, check", [(encode_clique, eval_team), (encode_domset, eval_inclusion)])
    def test_graph_encodings(self, cut_verdicts, encode, check):
        # the exhaustive lax evaluator needs about a second per 4-vertex
        # domset search at k = 2, so those candidates are checked by the fixpoint
        kept = []
        for graph in all_graphs(4):
            for k in range(1, 5):
                kept += _assert_union_search(encode(graph, k), cut_verdicts, check)
        assert set(kept) == {True, False}

    @pytest.mark.parametrize("text", ["x1 & x2", "x1 | x2", "(x1 | x2) & x3", "(x1 | x2) & (x2 | x3)"])
    def test_wsat_encodings(self, cut_verdicts, text):
        # the exhaustive evaluator takes seconds per search at weight 3, and
        # runs out of memory on deeper formulas
        for k in range(3):
            _assert_union_search(encode_wsat(parse_prop(text), k)[0], cut_verdicts)

    def test_a_partial_outside_a_large_pool_is_cut(self, cut_verdicts):
        # the directed triangle satisfies inc(x;y) though no two of its edges
        # do, and the edge (3,0) lies in no satisfying team: the search at
        # k = 2 reaches it with a pool of three rows, and cuts it
        structure = structure_with_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        formula = parse("inc(x;y) & E(x,y)", structure.vocabulary)
        assert _assert_union_search(WtInstance(structure, formula, 2), cut_verdicts) == [False, True, False]

    def test_clique_cliff_takes_few_cut_queries(self, cut_verdicts):
        # the fourth of ten 9-vertex graphs drawn with edge probability 0.4:
        # searched without a cut, its 4-clique team takes about 25 s (CPython 3.11, 2-CPU host)
        rng = random.Random(7)
        for _ in range(4):
            graph = Graph.make(9, [e for e in itertools.combinations(range(9), 2) if rng.random() < 0.4])
        assert len(graph.edges) == 21
        instance = encode_clique(graph, 4)
        found = wt_solve(instance)
        assert len(cut_verdicts) <= 150
        assert sorted(found.rows) == [
            (0, 1), (1, 0), (2, 4), (2, 5), (3, 4), (3, 5), (4, 2), (4, 3), (4, 5), (5, 2), (5, 3), (5, 4)
        ]
        assert eval_inclusion(instance.structure, found, instance.formula)

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamcheck.errors import ParseError
from teamcheck.evaluator import eval_team
from teamcheck.formulas import parse
from teamcheck.model import (
    EXTENSION_MEMOS,
    SHARED_EXTENSION_ROWS,
    Structure,
    Team,
    Vocabulary,
    canonical_rows,
    duplicate,
    extension_memo,
    parse_structure,
    parse_team,
    render_structure,
    render_team,
)


def plain_structure(n: int) -> Structure:
    return Structure(Vocabulary(), n)


class TestVocabulary:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Vocabulary(relations=(("E", 2),), constants=("E",))

    def test_rejects_nonpositive_arity(self):
        with pytest.raises(ValueError):
            Vocabulary(relations=(("E", 0),))


class TestStructure:
    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            Structure(Vocabulary(), 0)

    def test_rejects_out_of_range_tuple(self):
        with pytest.raises(ValueError):
            Structure(Vocabulary(relations=(("E", 2),)), 2, {"E": frozenset({(0, 2)})})

    def test_rejects_unmapped_constant(self):
        with pytest.raises(ValueError):
            Structure(Vocabulary(constants=("c",)), 2)

    @pytest.mark.parametrize(
        "tuples, message",
        [
            ([(0, 1), (1,), (0, 1, 1)], r"^tuple \(1,\) has wrong arity for 'E'/2$"),
            ([(0, 1), (), (0, 2)], r"^tuple \(\) has wrong arity for 'E'/2$"),
            ([(0, 1), (0, 2), (1,)], r"^tuple \(0, 2\) of 'E' mentions elements outside the domain$"),
            ([(1, 1), (-1, 0)], r"^tuple \(-1, 0\) of 'E' mentions elements outside the domain$"),
            ([[1, 0], [1, 2, 0]], r"^tuple \[1, 2, 0\] has wrong arity for 'E'/2$"),
        ],
    )
    def test_rejects_the_first_bad_tuple_by_name(self, tuples, message):
        with pytest.raises(ValueError, match=message):
            Structure(Vocabulary(relations=(("E", 2),)), 2, {"E": tuples})

    def test_rejects_out_of_range_constant_by_name(self):
        with pytest.raises(ValueError, match=r"^constant 'c' maps outside the domain$"):
            Structure(Vocabulary(constants=("c",)), 2, constants={"c": 2})

    def test_accepts_lists_and_boundary_values(self):
        s = Structure(Vocabulary(relations=(("E", 2),)), 3, {"E": [[0, 2], (2, 0), (0, 2)]})
        assert s.relations["E"] == frozenset({(0, 2), (2, 0)})

    def test_undeclared_relation_defaults_empty(self):
        s = Structure(Vocabulary(relations=(("E", 2),)), 2)
        assert s.relations["E"] == frozenset()


class TestTeam:
    def test_make_orders_columns_by_variable_name(self):
        team = Team.make(["y", "x"], [{"x": 0, "y": 1}])
        assert (team.variables, team.rows) == (("x", "y"), frozenset({(0, 1)}))

    def test_make_deduplicates_rows(self):
        team = Team.make(["x"], [(0,), (0,), {"x": 0}, (2,)])
        assert team.rows == frozenset({(0,), (2,)})

    @pytest.mark.parametrize(
        "rows",
        [[{"x": 0}], [{"x": 0, "y": 1, "z": 2}], [(0,)], [(0, 1, 2)]],
        ids=["missing-variable", "extra-variable", "short-row", "long-row"],
    )
    def test_make_rejects_rows_off_the_domain(self, rows):
        with pytest.raises(ValueError):
            Team.make(["x", "y"], rows)

    @pytest.mark.parametrize(
        "variables, rows",
        [(("y", "x"), frozenset()), (("x", "x"), frozenset()), (("x",), frozenset({(0, 1)}))],
        ids=["unsorted", "repeated", "row-length"],
    )
    def test_constructor_checks_the_domain(self, variables, rows):
        with pytest.raises(ValueError):
            Team(variables, rows)

    def test_assignments_in_row_order(self):
        team = Team.make(["x", "y"], [(1, 0), (0, 2)])
        assert list(team.assignments()) == [{"x": 0, "y": 2}, {"x": 1, "y": 0}]

    def test_full_team_assignments_follow_canonical_rows(self):
        rows = canonical_rows(2, ["y", "x"])
        team = Team(("x", "y"), frozenset(rows))
        assert [(a["x"], a["y"]) for a in team.assignments()] == rows


class TestDuplicate:
    def test_single_empty_assignment_expands_over_domain(self):
        team = Team.singleton_empty_assignment()
        out = duplicate(plain_structure(2), team, "x")
        assert out == Team.make(["x"], [(0,), (1,)])

    def test_empty_team_stays_empty(self):
        out = duplicate(plain_structure(4), Team.empty(["x"]), "y")
        assert out.rows == frozenset()
        assert out.variables == ("x", "y")

    def test_direct_expansion(self):
        team = Team.make(["x"], [(0,)])
        out = duplicate(plain_structure(3), team, "y")
        assert out == Team.make(["x", "y"], [(0, 0), (0, 1), (0, 2)])

    def test_overwrites_present_variable(self):
        team = Team.make(["x"], [(2,)])
        out = duplicate(plain_structure(3), team, "x")
        assert out == Team.make(["x"], [(0,), (1,), (2,)])


class TestExtensionMemo:
    def test_one_memo_per_domain_size_across_structures(self):
        edges = Structure(Vocabulary(relations=(("E", 2),)), 3, {"E": frozenset({(0, 1), (1, 2)})})
        loops = Structure(Vocabulary(relations=(("E", 2),)), 3, {"E": frozenset({(0, 0), (2, 2)})})
        team = Team.make(["x"], [(0,), (2,)])
        assert extension_memo(3, ("x",), "y") is extension_memo(3, ("x",), "y")
        for structure in (edges, loops):
            assert duplicate(structure, team, "y").rows == {(x, y) for x in (0, 2) for y in range(3)}
        # the shared extensions serve both structures' quantifiers
        common = parse("exists y (E(x,y) & dep(;y))", edges.vocabulary)
        looped = parse("forall y (dep(;x) & (E(x,y) | x!=y))", edges.vocabulary)
        for structure, rows, formula, verdict in [
            (edges, [0], common, True),
            (edges, [0, 1], common, False),
            (loops, [0], common, True),
            (loops, [1], common, False),
            (edges, [0], looped, False),
            (loops, [0], looped, True),
            (loops, [2], looped, True),
            (loops, [0, 2], looped, False),
        ]:
            assert eval_team(structure, Team.make(["x"], [(x,) for x in rows]), formula) is verdict

    def test_overwritten_column_and_other_domains(self):
        extended, extensions = extension_memo(2, ("x", "y"), "x")
        assert extended == ("x", "y") and extensions[(1, 7)] == ((0, 7), (1, 7))
        extended, extensions = extension_memo(4, ("x", "z"), "y")
        assert extended == ("x", "y", "z") and extensions[(1, 0)] == tuple((1, a, 0) for a in range(4))

    def test_cache_keeps_the_most_recent_memos(self):
        memos = [extension_memo(2, ("x",), f"v{i}")[1] for i in range(EXTENSION_MEMOS + 20)]
        assert all(extension_memo(2, ("x",), f"v{i}")[1] is memos[i] for i in range(20, EXTENSION_MEMOS + 20))
        assert not any(extension_memo(2, ("x",), f"v{i}")[1] is memos[i] for i in range(20))

    def test_only_small_memos_are_shared(self):
        # 32^2 extended rows fit SHARED_EXTENSION_ROWS, 33^2 do not
        assert 32**2 <= SHARED_EXTENSION_ROWS < 33**2
        assert extension_memo(32, ("x",), "y")[1] is extension_memo(32, ("x",), "y")[1]
        assert extension_memo(33, ("x",), "y")[1] is not extension_memo(33, ("x",), "y")[1]
        extended, extensions = extension_memo(33, ("x",), "y")
        assert extended == ("x", "y") and extensions[(32,)] == tuple((32, a) for a in range(33))

    def test_large_memo_is_freed_after_the_call(self):
        team = Team.make(["x", "y", "z"], itertools.product(range(12), repeat=3))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            out = duplicate(plain_structure(12), team, "w")
            held = tracemalloc.get_traced_memory()[0] - before
            assert len(out) == 12**4
            del out
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left < held / 100, (held, left)


# Property tests over small random teams.

_small_team = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=5,
        ),
    )
)


@given(_small_team)
@settings(max_examples=60, deadline=None)
def test_duplicate_idempotent_on_present_variable(data):
    n, rows = data
    structure = plain_structure(n)
    team = Team.make(["x", "y"], rows)
    once = duplicate(structure, team, "x")
    assert duplicate(structure, once, "x") == once


@given(_small_team)
@settings(max_examples=60, deadline=None)
def test_duplicate_keeps_the_team_on_its_own_columns(data):
    n, rows = data
    structure = plain_structure(n)
    team = Team.make(["x", "y"], rows)
    out = duplicate(structure, team, "z")
    assert len(out) == len(team) * n
    assert frozenset(row[:2] for row in out.rows) == team.rows


class TestStructureFormat:
    def test_round_trip(self):
        text = "domain 3\nrel E/2 : (0,1) (1,2)\nrel U/1 : (2)\nconst c = 0\n"
        structure = parse_structure(text)
        assert structure.domain_size == 3
        assert structure.relations["E"] == frozenset({(0, 1), (1, 2)})
        assert structure.constants["c"] == 0
        assert parse_structure(render_structure(structure)).relations == structure.relations

    def test_comments_and_blank_lines(self):
        structure = parse_structure("# a graph\ndomain 2\n\nrel E/2 : (0,1)  # edge\n")
        assert structure.relations["E"] == frozenset({(0, 1)})

    def test_missing_domain(self):
        with pytest.raises(ParseError):
            parse_structure("rel E/2 : (0,1)\n")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_structure("domain 2\nrel E/2 : (0,1,1)\n")

    def test_duplicate_relation_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_structure("domain 2\nrel E/2 : (0,1)\nrel E/2 : (1,0)\n")

    @pytest.mark.parametrize(
        "text, line", [("domain ²", 1), ("domain 2\nrel E/٢ : (0,1)", 2), ("domain 2\nconst c = ١", 2)]
    )
    def test_non_ascii_digits_are_parse_errors(self, text, line):
        # "²".isdigit() holds but int("²") raises; int("٢") is 2
        with pytest.raises(ParseError, match=f"line {line}, column 1"):
            parse_structure(text)

    @pytest.mark.parametrize(
        "declaration",
        ["rel É/1 : (0)", "rel 9a/1 : (0)", "rel dep/1 : (0)", "rel exists/1 :", "const forall = 1", "const É = 1"],
    )
    def test_names_formulas_cannot_read_are_parse_errors(self, declaration):
        # formulas.parse could never refer to these symbols
        with pytest.raises(ParseError, match="line 3, column 1"):
            parse_structure(f"domain 2\n\n{declaration}\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("domain 2\nrel E/0 :\n", 2, "relation 'E' must have a positive integer arity, got 0"),
            ("domain 2\nrel E/2 : (0,1)\nconst c = 5\n", 3, "constant 'c' maps outside the domain"),
            ("rel E/1 : (5)\n# the domain comes last\ndomain 2\n", 1, "tuple (5,) of 'E' mentions elements outside the domain"),
            ("domain 2\nrel E/2 : (0,1)\nconst E = 1\n", 3, "relation and constant names must be pairwise distinct"),
        ],
    )
    def test_declaration_errors_name_their_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_structure(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}, column 1: {message}")

    def test_symbol_names_round_trip_through_formulas(self):
        structure = parse_structure("domain 2\nrel _E9/2 : (0,1)\nrel Inc/1 : (1)\nconst c_0 = 1\n")
        formula = parse("_E9(x,c_0) & Inc(c_0)", structure.vocabulary)
        assert eval_team(structure, Team.make(["x"], [(0,)]), formula)


class TestTeamFormat:
    def test_round_trip(self):
        team = Team.make(["x", "y"], [(0, 1), (1, 0)])
        assert parse_team(render_team(team)) == team

    def test_empty_file_uses_default_domain(self):
        team = parse_team("", default_variables=["x"])
        assert team == Team.empty(["x"])

    def test_vars_header_pins_empty_domain(self):
        team = parse_team("vars x y\n")
        assert team.variables == ("x", "y")
        assert len(team) == 0

    def test_inconsistent_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_team("x=0 y=1\nx=2\n")

    @pytest.mark.parametrize("text, line", [("x=²", 1), ("x=0\nx=--1", 2), ("x=0\nx=٣", 2)])
    def test_malformed_values_are_parse_errors(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}, column 1"):
            parse_team(text)


def test_canonical_rows_order():
    # lexicographic over the sorted variables, the last varying fastest;
    # this order fixes every colex-first witness
    expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert canonical_rows(3, ["x", "y"]) == expected
    assert canonical_rows(3, ["y", "x"]) == expected
    assert canonical_rows(2, ["x"]) == [(0,), (1,)]
    assert canonical_rows(3, []) == [()]

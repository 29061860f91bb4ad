"""The verification suites' case functions, helpers and report writer, at small scale.

The acceptance tests run the suites at their pinned scale; these tests pin
what one case checks, how it is named, how the suites lay cases out, and
how the writer streams them.
"""

import hashlib
import io
import json
import weakref

import pytest

from suite_cases import collect
from teamcheck import verify
from teamcheck.formulas import parse
from teamcheck.model import Team, parse_structure
from teamcheck.reductions import Graph
from teamcheck.verify import (
    CaseResult,
    _closure_case,
    _graph_case,
    _inclusion_case,
    _subteams,
    _wd_clique_case,
    run_circuit_suite,
    run_clique_experiment,
    run_closure_suite,
    run_inclusion_suite,
    run_reductions_suite,
    write_report,
)

PATH3 = parse_structure("domain 3\nrel E/2 : (0,1) (1,2)\n")
SWAP = Team.make(["x", "y"], [(0, 1), (1, 0)])
TRIANGLE = Graph.make(3, [(0, 1), (0, 2), (1, 2)])


class TestSubteams:
    def test_every_subset_once(self):
        team = Team.make(["x"], [(0,), (1,), (2,)])
        subs = list(_subteams(team))
        assert len(subs) == 8
        assert len({sub.rows for sub in subs}) == 8
        assert all(sub.rows <= team.rows and sub.variables == team.variables for sub in subs)

    def test_bitmask_order_over_sorted_rows(self):
        team = Team.make(["x"], [(2,), (0,)])
        assert [sorted(sub.rows) for sub in _subteams(team)] == [[], [(0,)], [(2,)], [(0,), (2,)]]

    def test_empty_team_has_one_subteam(self):
        assert list(_subteams(Team.empty(["x", "y"]))) == [Team.empty(["x", "y"])]


@pytest.fixture
def evaluated_teams(monkeypatch):
    """Every team the suites hand to ``eval_team``, in call order."""
    seen = []
    real = verify.eval_team

    def recording(structure, team, formula):
        seen.append(team)
        return real(structure, team, formula)

    monkeypatch.setattr(verify, "eval_team", recording)
    return seen


class TestClosureCase:
    @pytest.mark.parametrize(
        "fragment, text",
        [
            ("FO", "x=x | E(x,y)"),
            ("FO(dep)", "dep(x;y)"),
            ("FO(inc)", "inc(x;y)"),
            ("FO(indep)", "indep(;x;y)"),
        ],
    )
    def test_passes_with_an_extra_column(self, fragment, text):
        team = Team.make(["w", "x", "y"], [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
        case = _closure_case(fragment, PATH3, team, Team.empty(["w", "x", "y"]), parse(text))
        assert case == CaseResult(f"{fragment} n=3 team=3", "pass", "")

    def test_locality_projects_onto_free_variables(self, evaluated_teams):
        # the extra column w is dropped and the rows it told apart merge
        team = Team.make(["w", "x", "y"], [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
        _closure_case("FO(dep)", PATH3, team, team, parse("dep(x;y)"))
        assert Team.make(["x", "y"], [(0, 1), (1, 2)]) in evaluated_teams

    def test_locality_keeps_a_team_over_exactly_the_free_variables(self, evaluated_teams):
        _closure_case("FO(inc)", PATH3, SWAP, SWAP, parse("inc(x;y)"))
        # the whole team, the empty team, the projection (the same team again)
        assert evaluated_teams[:3] == [SWAP, Team.empty(["x", "y"]), SWAP]

    def test_downward_closure_violation_is_reported(self):
        # inclusion is not downward closed: {x=0 y=1} alone fails inc(x;y)
        case = _closure_case("FO(dep)", PATH3, SWAP, SWAP, parse("inc(x;y)"))
        assert (case.status, case.detail) == ("fail", "downward-closure")

    def test_inclusion_is_checked_for_union_closure_only(self):
        case = _closure_case("FO(inc)", PATH3, SWAP, SWAP, parse("inc(x;y)"))
        assert case.status == "pass"


class TestInclusionCase:
    def test_fixpoint_agrees_on_a_swap_team(self):
        case = _inclusion_case(PATH3, SWAP, "inc(x;y)")
        assert case == CaseResult("inc(x;y) n=3 team=2", "pass", "")


class TestGraphCases:
    @pytest.mark.parametrize("problem", ["domset", "indset"])
    def test_names_keep_the_problem(self, problem):
        case = _graph_case(problem, Graph.make(2, [(0, 1)]), 1)
        assert case == CaseResult(f"{problem} edges=[(0, 1)] k=1", "pass", "")

    @pytest.mark.parametrize("problem, k", [("domset", 1), ("indset", 2)])
    def test_triangle(self, problem, k):
        # one vertex dominates a triangle; no two of its vertices are independent
        case = _graph_case(problem, TRIANGLE, k)
        assert case.status == "pass"

    def test_clique_is_not_a_graph_case(self):
        with pytest.raises(KeyError):
            _graph_case("clique", TRIANGLE, 3)

    def test_wd_clique_case(self):
        case = _wd_clique_case(TRIANGLE, 3)
        assert case == CaseResult("wd-clique edges=[(0, 1), (0, 2), (1, 2)] k=3", "pass", "")


class TestReductionsSuite:
    def test_case_layout_on_three_vertices(self):
        cases, _ = collect(run_reductions_suite(7, vertex_count=3, wsat_samples=3, theta_samples=4))
        assert all(c.status == "pass" for c in cases)
        kinds = [c.name.split()[0] for c in cases]
        # eight graphs on three vertices, k = 1..3; wd-clique runs k = 0..3
        assert kinds[:80] == ["domset"] * 24 + ["indset"] * 24 + ["wd-clique"] * 32
        assert set(kinds[80:]) <= {"wsat-inc", "theta-negative", "theta-positive"}
        assert not any(name.startswith("clique") for name in kinds)

    def test_graph_tasks_draw_no_random_numbers(self):
        small, _ = collect(run_reductions_suite(7, vertex_count=2, wsat_samples=3, theta_samples=4))
        large, _ = collect(run_reductions_suite(7, vertex_count=3, wsat_samples=3, theta_samples=4))
        sampled = lambda cases: [c.name for c in cases if c.name.startswith(("wsat", "theta"))]
        assert sampled(small) == sampled(large)
        assert sampled(small)


class TestCliqueExperiment:
    def test_three_vertices(self):
        cases, metadata = collect(run_clique_experiment(3))
        assert len(cases) == 16
        assert all(c.status == "pass" for c in cases)
        assert metadata["discrepancies"] == []
        assert metadata["pentagon_check"]["satisfiable_without_clique"] is True

    def test_each_discrepancy_is_recorded_with_its_case(self):
        # four-vertex paths already pad teams, so some k=3 cases are discrepancies
        cases, metadata = collect(run_clique_experiment(4))
        flagged = [c for c in cases if c.status == "discrepancy"]
        recorded = metadata["discrepancies"]
        assert flagged and len(recorded) == len(flagged)
        for case, entry in zip(flagged, recorded):
            edges = [tuple(e) for e in entry["edges"]]
            assert case.name == f"clique edges={edges} k={entry['k']}"
            assert case.detail == entry["detail"]


class TestPinnedReports:
    """Each suite draws its inputs and numbers its cases as when cases went to a pool.

    The digests are of the JSON report, taken before the suites became serial loops.
    """

    @pytest.mark.parametrize(
        "suite, run, digest",
        [
            pytest.param(
                "closure", lambda: run_closure_suite(7, cases_per_fragment=3), "cd6cbf833abc3e3d", id="closure"
            ),
            pytest.param("circuit", lambda: run_circuit_suite(8, circuits=12), "adf10b26cc4df587", id="circuit"),
            pytest.param(
                "reductions",
                lambda: run_reductions_suite(7, vertex_count=3, wsat_samples=3, theta_samples=4),
                "a7a2021d3ebf780f",
                id="reductions",
            ),
            pytest.param("inclusion", lambda: run_inclusion_suite(7), "173de2fecfa47756", id="inclusion"),
            pytest.param(
                "clique-experiment", lambda: run_clique_experiment(4), "950f8617ed636225", id="clique-experiment"
            ),
        ],
    )
    def test_report_digest(self, suite, run, digest):
        handle = io.StringIO()
        write_report(handle, suite, run(), as_json=True)
        assert hashlib.sha256(handle.getvalue().encode()).hexdigest()[:16] == digest


def demo():
    yield CaseResult("a", "pass")
    yield CaseResult("b", "fail", "why")
    yield CaseResult("c", "discrepancy")
    return {"seed": 1}


def written(cases, as_json):
    handle = io.StringIO()
    counts = write_report(handle, "demo", cases, as_json)
    return handle.getvalue(), counts


class TestWriteReport:
    @pytest.mark.parametrize("as_json", [False, True])
    def test_counts(self, as_json):
        _, counts = written(demo(), as_json)
        assert counts == {"cases": 3, "pass": 1, "fail": 1, "discrepancies": 1}

    def test_lines(self):
        text, _ = written(demo(), as_json=False)
        assert text.split("\n") == [
            "demo 00000 PASS a",
            "demo 00001 FAIL b :: why",
            "demo 00002 DISCREPANCY c",
            "summary: suite=demo cases=3 pass=1 fail=1 discrepancies=1",
        ]

    def test_json(self):
        payload = json.loads(written(demo(), as_json=True)[0])
        assert payload["summary"] == {"cases": 3, "pass": 1, "fail": 1, "discrepancies": 1}
        assert payload["cases"][1] == {"index": 1, "name": "b", "status": "fail", "detail": "why"}
        assert payload["metadata"] == {"seed": 1}

    def test_discrepancies_alone_fail_nothing(self):
        _, counts = written(iter([CaseResult("c", "discrepancy")]), as_json=False)
        assert counts["fail"] == 0

    @pytest.mark.parametrize(
        "cases",
        [
            [CaseResult("a", "pass"), CaseResult('b "quoted" \\ é', "fail", "why\tnot")],
            [],
        ],
        ids=["two-cases", "no-cases"],
    )
    def test_json_is_the_whole_report_dumped_at_once(self, cases):
        def suite():
            yield from cases
            return {"seed": 1, "nested": {"b": [1, 2], "a": None}}

        expected = json.dumps(
            {
                "suite": "demo",
                "cases": [
                    {"index": i, "name": c.name, "status": c.status, "detail": c.detail}
                    for i, c in enumerate(cases)
                ],
                "summary": {
                    "cases": len(cases),
                    "pass": sum(c.status == "pass" for c in cases),
                    "fail": sum(c.status == "fail" for c in cases),
                    "discrepancies": 0,
                },
                "metadata": {"seed": 1, "nested": {"b": [1, 2], "a": None}},
            },
            indent=2,
            sort_keys=True,
        )
        assert written(suite(), as_json=True)[0] == expected

    @pytest.mark.parametrize("as_json, numbered", [(False, "demo 0000"), (True, '"index": ')])
    def test_cases_written_before_a_suite_raises_stay_written(self, as_json, numbered):
        def failing():
            yield CaseResult("a", "pass")
            yield CaseResult("b", "pass")
            raise MemoryError

        handle = io.StringIO()
        with pytest.raises(MemoryError):
            write_report(handle, "demo", failing(), as_json)
        lines = [line for line in handle.getvalue().split("\n") if numbered in line]
        assert len(lines) == 2
        assert "summary" not in handle.getvalue()

    @pytest.mark.parametrize("as_json", [False, True])
    def test_keeps_no_case_alive(self, as_json):
        refs = []
        checked = []

        def tracked():
            for name in "abcde":
                # every case but the one drawn last is gone by the time the next is drawn
                checked.append([ref() is None for ref in refs[:-1]])
                case = CaseResult(name, "pass")
                refs.append(weakref.ref(case))
                yield case
            return {}

        written(tracked(), as_json)
        assert checked == [[], [], [True], [True, True], [True, True, True]]

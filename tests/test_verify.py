"""The verification suites' case functions, helpers and reports, at small scale.

The acceptance tests run the suites at their pinned scale; these tests pin
what one case checks, how it is named, and how the suites lay cases out.
"""

import hashlib
import json

import pytest

from teamcheck import verify
from teamcheck.formulas import parse
from teamcheck.model import Team, parse_structure
from teamcheck.reductions import Graph
from teamcheck.verify import (
    CaseResult,
    Report,
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
        case = _closure_case(7, fragment, PATH3, team, Team.empty(["w", "x", "y"]), parse(text))
        assert case == CaseResult(7, f"{fragment} n=3 team=3", "pass", "")

    def test_locality_projects_onto_free_variables(self, evaluated_teams):
        # the extra column w is dropped and the rows it told apart merge
        team = Team.make(["w", "x", "y"], [(0, 0, 1), (1, 0, 1), (2, 1, 2)])
        _closure_case(0, "FO(dep)", PATH3, team, team, parse("dep(x;y)"))
        assert Team.make(["x", "y"], [(0, 1), (1, 2)]) in evaluated_teams

    def test_locality_keeps_a_team_over_exactly_the_free_variables(self, evaluated_teams):
        _closure_case(0, "FO(inc)", PATH3, SWAP, SWAP, parse("inc(x;y)"))
        # the whole team, the empty team, the projection (the same team again)
        assert evaluated_teams[:3] == [SWAP, Team.empty(["x", "y"]), SWAP]

    def test_downward_closure_violation_is_reported(self):
        # inclusion is not downward closed: {x=0 y=1} alone fails inc(x;y)
        case = _closure_case(3, "FO(dep)", PATH3, SWAP, SWAP, parse("inc(x;y)"))
        assert (case.status, case.detail) == ("fail", "downward-closure")

    def test_inclusion_is_checked_for_union_closure_only(self):
        case = _closure_case(3, "FO(inc)", PATH3, SWAP, SWAP, parse("inc(x;y)"))
        assert case.status == "pass"


class TestInclusionCase:
    def test_fixpoint_agrees_on_a_swap_team(self):
        case = _inclusion_case(4, PATH3, SWAP, "inc(x;y)")
        assert case == CaseResult(4, "inc(x;y) n=3 team=2", "pass", "")


class TestGraphCases:
    @pytest.mark.parametrize("problem", ["domset", "indset"])
    def test_names_keep_the_problem(self, problem):
        case = _graph_case(1, problem, Graph.make(2, [(0, 1)]), 1)
        assert case == CaseResult(1, f"{problem} edges=[(0, 1)] k=1", "pass", "")

    @pytest.mark.parametrize("problem, k", [("domset", 1), ("indset", 2)])
    def test_triangle(self, problem, k):
        # one vertex dominates a triangle; no two of its vertices are independent
        case = _graph_case(0, problem, TRIANGLE, k)
        assert case.status == "pass"

    def test_clique_is_not_a_graph_case(self):
        with pytest.raises(KeyError):
            _graph_case(0, "clique", TRIANGLE, 3)

    def test_wd_clique_case(self):
        case = _wd_clique_case(2, TRIANGLE, 3)
        assert case == CaseResult(2, "wd-clique edges=[(0, 1), (0, 2), (1, 2)] k=3", "pass", "")


class TestReductionsSuite:
    def test_case_layout_on_three_vertices(self):
        report = run_reductions_suite(7, vertex_count=3, wsat_samples=3, theta_samples=4)
        assert report.ok()
        assert [c.index for c in report.cases] == list(range(len(report.cases)))
        kinds = [c.name.split()[0] for c in report.cases]
        # eight graphs on three vertices, k = 1..3; wd-clique runs k = 0..3
        assert kinds[:80] == ["domset"] * 24 + ["indset"] * 24 + ["wd-clique"] * 32
        assert set(kinds[80:]) <= {"wsat-inc", "theta-negative", "theta-positive"}
        assert not any(name.startswith("clique") for name in kinds)

    def test_graph_tasks_draw_no_random_numbers(self):
        small = run_reductions_suite(7, vertex_count=2, wsat_samples=3, theta_samples=4)
        large = run_reductions_suite(7, vertex_count=3, wsat_samples=3, theta_samples=4)
        sampled = lambda report: [c.name for c in report.cases if c.name.startswith(("wsat", "theta"))]
        assert sampled(small) == sampled(large)
        assert sampled(small)


class TestCliqueExperiment:
    def test_three_vertices(self):
        report = run_clique_experiment(3)
        assert len(report.cases) == 16
        assert report.ok()
        assert report.metadata["discrepancies"] == []
        assert report.metadata["pentagon_check"]["satisfiable_without_clique"] is True

    def test_each_discrepancy_is_recorded_with_its_case(self):
        # four-vertex paths already pad teams, so some k=3 cases are discrepancies
        report = run_clique_experiment(4)
        flagged = [c for c in report.cases if c.status == "discrepancy"]
        recorded = report.metadata["discrepancies"]
        assert flagged and len(recorded) == len(flagged)
        for case, entry in zip(flagged, recorded):
            edges = [tuple(e) for e in entry["edges"]]
            assert case.name == f"clique edges={edges} k={entry['k']}"
            assert case.detail == entry["detail"]


class TestPinnedReports:
    """Each suite draws its inputs and numbers its cases as when cases went to a pool.

    The digests are of ``Report.to_json()``, taken before the suites became serial loops.
    """

    @pytest.mark.parametrize(
        "run, digest",
        [
            pytest.param(lambda: run_closure_suite(7, cases_per_fragment=3), "cd6cbf833abc3e3d", id="closure"),
            pytest.param(lambda: run_circuit_suite(8, circuits=12), "adf10b26cc4df587", id="circuit"),
            pytest.param(
                lambda: run_reductions_suite(7, vertex_count=3, wsat_samples=3, theta_samples=4),
                "a7a2021d3ebf780f",
                id="reductions",
            ),
            pytest.param(lambda: run_inclusion_suite(7), "173de2fecfa47756", id="inclusion"),
            pytest.param(lambda: run_clique_experiment(4), "950f8617ed636225", id="clique-experiment"),
        ],
    )
    def test_report_digest(self, run, digest):
        report = run()
        assert [c.index for c in report.cases] == list(range(len(report.cases)))
        assert hashlib.sha256(report.to_json().encode()).hexdigest()[:16] == digest


class TestReport:
    REPORT = Report(
        "demo",
        [CaseResult(0, "a", "pass"), CaseResult(1, "b", "fail", "why"), CaseResult(2, "c", "discrepancy")],
        {"seed": 1},
    )

    def test_counts(self):
        assert (self.REPORT.passed, self.REPORT.failed, self.REPORT.discrepancies) == (1, 1, 1)
        assert not self.REPORT.ok()

    def test_lines(self):
        assert self.REPORT.lines() == [
            "demo 00000 PASS a",
            "demo 00001 FAIL b :: why",
            "demo 00002 DISCREPANCY c",
            "summary: suite=demo cases=3 pass=1 fail=1 discrepancies=1",
        ]

    def test_json(self):
        payload = json.loads(self.REPORT.to_json())
        assert payload["summary"] == {"cases": 3, "pass": 1, "fail": 1, "discrepancies": 1}
        assert payload["cases"][1] == {"index": 1, "name": "b", "status": "fail", "detail": "why"}
        assert payload["metadata"] == {"seed": 1}

    def test_discrepancies_alone_are_ok(self):
        assert Report("demo", [CaseResult(0, "c", "discrepancy")]).ok()

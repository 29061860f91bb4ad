"""Acceptance suite.

One test per acceptance criterion, each at its pinned scale and tolerance
(all checks here are exact, so every tolerance is zero violations).  Each
test prints a single ``ACCEPTANCE <id> ... PASS/FAIL`` line; run with
``pytest -s tests/test_acceptance.py`` to see them live.
"""

import itertools
import json

import pytest

from teamcheck.corpus import SplitMix64, random_formula, random_sentence, random_structure
from teamcheck.evaluator import eval_fo_tarski, eval_team
from teamcheck.formulas import free_vars
from teamcheck.model import Team, canonical_rows
from teamcheck.reductions import Graph, encode_clique, graph_brute
from teamcheck.solver import WtInstance, check_sentence, wt_solve
from teamcheck.verify import (
    _FRAGMENTS,
    CaseResult,
    Report,
    run_circuit_suite,
    run_clique_experiment,
    run_closure_suite,
    run_inclusion_suite,
    run_reductions_suite,
)

SEED = 2024


def _announce(criterion: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {verdict}{suffix}")


@pytest.fixture(scope="module")
def reductions_report():
    return run_reductions_suite(SEED, vertex_count=5, wsat_samples=200, theta_samples=200)


def _subset(report, prefix):
    return [c for c in report.cases if c.name.startswith(prefix)]


def test_criterion_1_closure_suite():
    report = run_closure_suite(SEED, cases_per_fragment=500)
    ok = report.ok() and len(report.cases) >= 2000
    _announce("1 closure-properties", ok, report.summary())
    assert len(report.cases) >= 2000
    failures = [c for c in report.cases if c.status != "pass"]
    assert not failures, failures[:5]


def test_criterion_2_inclusion_fixpoint_agreement():
    report = run_inclusion_suite(SEED)
    ok = report.ok() and len(report.cases) >= 2000
    _announce("2 inclusion-fixpoint-oracle", ok, report.summary())
    assert len(report.cases) >= 2000
    failures = [c for c in report.cases if c.status != "pass"]
    assert not failures, failures[:5]


def test_criterion_3_dominating_set_reduction(reductions_report):
    cases = _subset(reductions_report, "domset")
    ok = len(cases) == 1024 * 3 and all(c.status == "pass" for c in cases)
    _announce("3 dominating-set-reduction", ok, f"cases={len(cases)}")
    assert len(cases) == 1024 * 3
    assert all(c.status == "pass" for c in cases), [c for c in cases if c.status != "pass"][:5]


def test_criterion_4_independent_set_reduction(reductions_report):
    cases = _subset(reductions_report, "indset")
    ok = len(cases) == 1024 * 3 and all(c.status == "pass" for c in cases)
    _announce("4 independent-set-reduction", ok, f"cases={len(cases)}")
    assert len(cases) == 1024 * 3
    assert all(c.status == "pass" for c in cases), [c for c in cases if c.status != "pass"][:5]


def test_criterion_5_clique_forward_and_experiment(tmp_path, reductions_report):
    report = run_clique_experiment(vertex_count=5)
    forward_ok = report.ok()
    # weighted definability with a free relation S decides clique exactly
    wd_cases = _subset(reductions_report, "wd-clique")
    wd_ok = len(wd_cases) == 1024 * 4 and all(c.status == "pass" for c in wd_cases)

    # Independent oracle for the pentagon candidate: brute force over every
    # six-row team drawn from the ten ordered edge pairs (five edges, both
    # orientations).
    pentagon = Graph.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    instance = encode_clique(pentagon, 3)
    ordered_pairs = sorted(instance.structure.relations["E"])
    assert len(ordered_pairs) == 10
    found = None
    for combo in itertools.combinations(ordered_pairs, 6):
        team = Team.make(["x", "y"], combo)
        if eval_team(instance.structure, team, instance.formula):
            found = sorted(team.rows)
            break
    pentagon_discrepant = found is not None and not graph_brute("clique", pentagon, 3)

    report_path = tmp_path / "clique-experiment.json"
    report_path.write_text(report.to_json())
    recorded = json.loads(report_path.read_text())
    experiment_consistent = (
        recorded["metadata"]["pentagon_check"]["satisfiable_without_clique"] == pentagon_discrepant
    )
    if pentagon_discrepant:
        experiment_consistent = experiment_consistent and recorded["summary"]["discrepancies"] >= 1

    ok = forward_ok and experiment_consistent and wd_ok
    _announce(
        "5 clique-forward+experiment",
        ok,
        f"forward-failures={report.failed} discrepancies={report.discrepancies} "
        f"pentagon-counterexample={'confirmed' if pentagon_discrepant else 'refuted'} "
        f"wd-clique={len(wd_cases)}",
    )
    assert forward_ok, "forward direction broken"
    assert experiment_consistent
    assert len(wd_cases) == 1024 * 4
    assert all(c.status == "pass" for c in wd_cases), [c for c in wd_cases if c.status != "pass"][:5]
    # the witness team, when present, really is a six-row team of ordered pairs
    if found is not None:
        assert len(found) == 6


def test_criterion_6_wsat_inclusion_level(reductions_report):
    cases = _subset(reductions_report, "wsat-inc")
    samples = {c.name.split()[1] for c in cases}
    ok = len(samples) >= 200 and all(c.status == "pass" for c in cases)
    _announce("6 wsat-inclusion-level", ok, f"formulas={len(samples)} cases={len(cases)}")
    assert len(samples) >= 200
    assert all(c.status == "pass" for c in cases), [c for c in cases if c.status != "pass"][:5]


def test_criterion_7_theta_negative_levels(reductions_report):
    cases = _subset(reductions_report, "theta-negative")
    depths = {c.name.split()[1] for c in cases}
    ok = depths == {"depth=1", "depth=3"} and all(c.status == "pass" for c in cases)
    _announce("7 theta-negative-levels", ok, f"cases={len(cases)}")
    assert depths == {"depth=1", "depth=3"}
    assert all(c.status == "pass" for c in cases), [c for c in cases if c.status != "pass"][:5]
    dual = _subset(reductions_report, "theta-positive")
    assert dual and all(c.status == "pass" for c in dual)


def test_criterion_8_circuit_proof_trees():
    report = run_circuit_suite(SEED, circuits=500)
    ok = report.ok() and len(report.cases) >= 500
    _announce("8 circuit-proof-trees", ok, report.summary())
    assert len(report.cases) >= 500
    assert report.ok(), [c for c in report.cases if c.status != "pass"][:5]


# --- sentence and first-order fast-path suites (reached only from criteria 9 and 10) ---

def run_sentence_suite(seed: int, per_fragment: int = 100, max_domain: int = 4) -> Report:
    """Weighted solving of sentences: k=0 holds, k=1 matches truth, k>=2 never.

    Truth is the generic evaluator's verdict on the one-row team.
    """
    rng = SplitMix64(seed)
    cases = []
    index = 0
    for fragment in _FRAGMENTS:
        for _ in range(per_fragment):
            structure = random_structure(rng, max_domain)
            sentence = random_sentence(rng, fragment, structure.domain_size)
            truth = eval_team(structure, Team.singleton_empty_assignment(), sentence)
            problems = [] if check_sentence(structure, sentence) == truth else ["check_sentence mismatch"]
            for k, expected in ((0, True), (1, truth), (2, False), (3, False)):
                if (wt_solve(WtInstance(structure, sentence, k)) is not None) != expected:
                    problems.append(f"k={k} mismatch")
            status = "pass" if not problems else "fail"
            cases.append(CaseResult(index, f"sentence {fragment} n={structure.domain_size}", status, ",".join(problems)))
            index += 1
    return Report("sentences", cases, {"seed": seed, "per_fragment": per_fragment})


def run_fo_fastpath_suite(seed: int, formulas: int = 200, max_domain: int = 5) -> Report:
    """``wt_solve`` versus Tarski counting, all 0 <= k <= n^2."""
    rng = SplitMix64(seed)
    cases = []
    for index in range(formulas):
        structure = random_structure(rng, max_domain)
        n = structure.domain_size
        team_hint = min(n ** 2, 8) + 1
        formula = random_formula(rng, "FO", n, team_hint)
        variables = tuple(sorted(free_vars(formula)))
        satisfying = sum(
            1
            for row in canonical_rows(n, variables)
            if eval_fo_tarski(structure, dict(zip(variables, row)), formula)
        )
        problems = []
        for k in range(0, n ** 2 + 1 if variables else 2):
            counted = satisfying >= k
            solved = wt_solve(WtInstance(structure, formula, k)) is not None
            if counted != solved:
                problems.append(f"k={k} counted={counted} solved={solved}")
                break
        status = "pass" if not problems else "fail"
        cases.append(CaseResult(index, f"fo-fastpath n={n} sat={satisfying}", status, ";".join(problems)))
    return Report("fo-fastpath", cases, {"seed": seed, "formulas": formulas})


def test_criterion_9_sentence_handling():
    report = run_sentence_suite(SEED, per_fragment=100)
    ok = report.ok() and len(report.cases) == 400
    _announce("9 sentence-handling", ok, report.summary())
    assert len(report.cases) == 400
    assert report.ok(), [c for c in report.cases if c.status != "pass"][:5]


def test_criterion_10_fo_fast_path():
    report = run_fo_fastpath_suite(SEED, formulas=200, max_domain=5)
    ok = report.ok() and len(report.cases) == 200
    _announce("10 fo-fast-path", ok, report.summary())
    assert len(report.cases) == 200
    assert report.ok(), [c for c in report.cases if c.status != "pass"][:5]

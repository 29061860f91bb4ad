import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from teamcheck import cli
from teamcheck.cli import build_parser, main
from teamcheck.evaluator import eval_team
from teamcheck.formulas import parse
from teamcheck.model import Team, parse_structure, render_team
from teamcheck.verify import run_reductions_suite

K3_STRUCTURE = "domain 3\nrel E/2 : (0,1) (1,0) (1,2) (2,1) (0,2) (2,0)\n"
CLIQUE_FORMULA = "E(x,y) & x!=y & inc(y;x) & inc(x;y)"
K3_FULL_TEAM = "\n".join(
    f"x={a} y={b}" for a in range(3) for b in range(3) if a != b
) + "\n"

STAR_GRAPH = "p 5 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n"


@pytest.fixture
def k3_files(tmp_path):
    structure = tmp_path / "k3.structure"
    structure.write_text(K3_STRUCTURE)
    team = tmp_path / "team.txt"
    team.write_text(K3_FULL_TEAM)
    return structure, team


class TestCheck:
    def test_satisfiable_team(self, k3_files, capsys):
        structure, team = k3_files
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "--team", str(team),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "SAT"
        assert "fragment=FO(inc)" in out

    def test_team_from_stdin(self, k3_files, monkeypatch, capsys):
        structure, _ = k3_files
        monkeypatch.setattr("sys.stdin", io.StringIO(K3_FULL_TEAM))
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA, "--team", "-", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["team_size"] == 6

    def test_empty_team_is_satisfying(self, k3_files, tmp_path, capsys):
        structure, _ = k3_files
        team = tmp_path / "empty.txt"
        team.write_text("")
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "--team", str(team),
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "SAT"

    def test_missing_free_variable_is_input_error(self, k3_files, tmp_path, capsys):
        structure, _ = k3_files
        team = tmp_path / "partial.txt"
        team.write_text("x=0\n")
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "--team", str(team),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unsat_exit_code(self, k3_files, tmp_path, capsys):
        structure, _ = k3_files
        team = tmp_path / "one.txt"
        team.write_text("x=0 y=1\n")
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "--team", str(team),
        ])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "UNSAT"

    def test_values_outside_domain_are_input_error(self, k3_files, tmp_path, capsys):
        structure, _ = k3_files
        team = tmp_path / "outside.txt"
        team.write_text("x=7 y=-1\n")
        code = main([
            "check", "--structure", str(structure), "--formula", "!E(x,y)",
            "--team", str(team),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "outside the domain" in captured.err

    def test_team_path_that_is_a_directory_is_input_error(self, k3_files, tmp_path, capsys):
        structure, _ = k3_files
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "--team", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Is a directory" in captured.err

    def test_parse_error_reports_position(self, k3_files, capsys):
        structure, team = k3_files
        code = main([
            "check", "--structure", str(structure), "--formula", "E(x,y) &",
            "--team", str(team),
        ])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_json_output(self, k3_files, capsys):
        structure, team = k3_files
        code = main([
            "check", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "--team", str(team), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "SAT"
        assert payload["path"] == "inclusion-fixpoint"


    @pytest.mark.parametrize("formula, path", [
        ("dep(x;y) | !E(x,y)", "strict"),
        (CLIQUE_FORMULA, "inclusion-fixpoint"),
        ("exists u (E(x,u) & E(u,y))", "fo-counting"),
        ("indep(;x;y)", "generic"),
    ])
    def test_json_path_names_the_check_and_keeps_the_verdict(self, tmp_path, capsys, formula, path):
        structure_text = "domain 3\nrel E/2 : (0,1) (1,2) (2,0) (1,1)\n"
        structure_file = tmp_path / "s.structure"
        structure_file.write_text(structure_text)
        structure = parse_structure(structure_text)
        parsed = parse(formula, structure.vocabulary)
        rows = [(0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
        verdicts = set()
        for size in (2, 3, 5):
            for combo in itertools.combinations(rows, size):
                team = Team.make(["x", "y"], combo)
                team_file = tmp_path / "team.txt"
                team_file.write_text(render_team(team))
                code = main([
                    "check", "--structure", str(structure_file), "--formula", formula,
                    "--team", str(team_file), "--json",
                ])
                payload = json.loads(capsys.readouterr().out)
                expected = eval_team(structure, team, parsed)
                assert payload["path"] == path
                assert payload["verdict"] == ("SAT" if expected else "UNSAT"), combo
                assert code == (0 if expected else 1)
                verdicts.add(expected)
        assert verdicts == {True, False}


class TestSolve:
    def test_witness_lines(self, tmp_path, capsys):
        structure = tmp_path / "star.structure"
        edges = [(0, i) for i in range(1, 5)]
        pairs = " ".join(f"({a},{b}) ({b},{a})" for a, b in edges)
        structure.write_text(f"domain 5\nrel E/2 : {pairs}\n")
        code = main([
            "solve", "--structure", str(structure),
            "--formula", "forall x exists y (inc(y;z) & (E(x,y) | x=y))",
            "-k", "1",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "SAT"
        assert out[1] == "z=0"

    def test_sentence_with_k_two_is_unsat(self, tmp_path, capsys):
        structure = tmp_path / "s.structure"
        structure.write_text("domain 2\nrel E/2 : (0,0) (1,1)\n")
        code = main([
            "solve", "--structure", str(structure), "--formula", "forall x E(x,x)",
            "-k", "2",
        ])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "UNSAT"

    def test_json_reports_the_path(self, tmp_path, capsys):
        structure = tmp_path / "k3.structure"
        structure.write_text(K3_STRUCTURE)
        code = main([
            "solve", "--structure", str(structure), "--formula", CLIQUE_FORMULA,
            "-k", "6", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["path"] == "inclusion-fixpoint"


class TestNoCheckOptions:
    """The fragment picks every check, so `check` and `solve` take no option that tunes it."""

    @pytest.mark.parametrize("option", [["--fast-path", "off"], ["--max-cache", "5"]], ids=["fast-path", "max-cache"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_removed_options_exit_two(self, k3_files, capsys, command, option):
        structure, team = k3_files
        operand = ["--team", str(team)] if command == "check" else ["-k", "1"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--structure", str(structure), "--formula", "E(x,y)", *operand, *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeepFormulas:
    @pytest.mark.parametrize("atom", ["x=x", "inc(x;x)"])
    def test_deep_conjunction_is_input_error(self, k3_files, capsys, atom):
        structure, team = k3_files
        code = main([
            "check", "--structure", str(structure), "--formula", " & ".join([atom] * 3000),
            "--team", str(team),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "formula nests too deeply" in captured.err

    def test_deep_parentheses_parse(self, k3_files, capsys):
        structure, team = k3_files
        text = "(" * 1500 + "x=x" + ")" * 1500
        code = main(["check", "--structure", str(structure), "--formula", text, "--team", str(team)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "SAT"


class TestOutOfMemory:
    # Listing the 3000**2 rows of ``x=y`` takes about 640 MB; the child may
    # map 256 MB, enough to import teamcheck but not to answer.
    CHILD = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from teamcheck.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def test_memory_error_exits_unknown(self, tmp_path):
        structure = tmp_path / "large.structure"
        structure.write_text("domain 3000\n")
        source = str(Path(cli.__file__).resolve().parents[1])
        environment = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, "solve", "--structure", str(structure), "--formula", "x=y", "-k", "1"],
            capture_output=True,
            text=True,
            env=environment,
            timeout=120,
        )
        assert child.returncode == 3, child.stderr
        assert child.stdout == ""
        assert child.stderr == "error: out of memory; the answer is UNKNOWN\n"

    def test_help_names_the_exit_codes(self):
        assert "3 UNKNOWN (out of memory)" in build_parser().format_help()


class TestReduce:
    def test_clique_reduction_outputs(self, tmp_path, capsys):
        graph = tmp_path / "k3.graph"
        graph.write_text("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
        out_prefix = tmp_path / "instance"
        code = main([
            "reduce", "clique", "--input", str(graph), "-k", "3",
            "--out", str(out_prefix), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_out"] == 6
        assert payload["formula"] == "E(x,y) & x!=y & inc(y;x) & inc(x;y)"
        assert (tmp_path / "instance.structure").exists()
        assert (tmp_path / "instance.formula").read_text().strip() == payload["formula"]
        assert (tmp_path / "instance.k").read_text().strip() == "6"

    def test_wsat_reduction_round_trips_through_solve(self, tmp_path, capsys):
        source = tmp_path / "formula.prop"
        source.write_text("x1 & x2\n")
        out_prefix = tmp_path / "wsat"
        code = main([
            "reduce", "wsat", "--input", str(source), "-k", "1", "--out", str(out_prefix),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "solve", "--structure", str(tmp_path / "wsat.structure"),
            "--formula-file", str(tmp_path / "wsat.formula"),
            "-k", (tmp_path / "wsat.k").read_text().strip(),
        ])
        # weight one cannot satisfy the conjunction, so the reduced instance is UNSAT
        assert code == 1

    def test_indset_reduction_solves_sat(self, tmp_path, capsys):
        graph = tmp_path / "p3.graph"
        graph.write_text("p 3 2\ne 0 1\ne 1 2\n")
        out_prefix = tmp_path / "indset"
        code = main([
            "reduce", "indset", "--input", str(graph), "-k", "2", "--out", str(out_prefix),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "solve", "--structure", str(tmp_path / "indset.structure"),
            "--formula-file", str(tmp_path / "indset.formula"),
            "-k", "2",
        ])
        assert code == 0

    def test_bad_input_is_exit_two(self, tmp_path, capsys):
        graph = tmp_path / "bad.graph"
        graph.write_text("e 0 1\n")
        code = main([
            "reduce", "clique", "--input", str(graph), "-k", "2", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize("problem", ["clique", "domset", "indset"])
    def test_negative_k_is_exit_two(self, tmp_path, capsys, problem):
        graph = tmp_path / "k3.graph"
        graph.write_text("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
        code = main([
            "reduce", problem, "--input", str(graph), "-k", "-1", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "x.formula").exists()

    @pytest.mark.parametrize("problem, guard", [("domset", "guard=trivial-no"), ("clique", "guard=trivial-yes")])
    def test_zero_k_is_settled_by_a_guard(self, tmp_path, capsys, problem, guard):
        graph = tmp_path / "star.graph"
        graph.write_text(STAR_GRAPH)
        code = main(["reduce", problem, "--input", str(graph), "-k", "0", "--out", str(tmp_path / "x")])
        assert code == 0
        assert guard in capsys.readouterr().out


class TestVerify:
    def test_settable_values(self):
        # the suites' size limits are left at their defaults
        args = build_parser().parse_args(["verify", "closure"])
        assert sorted(set(vars(args)) - {"command", "func", "suite"}) == [
            "cases", "json", "out", "seed", "vertices",
        ]

    @pytest.mark.parametrize("flag, value", [("--cases", "-2"), ("--vertices", "-1")])
    def test_bad_counts_are_exit_two(self, capsys, flag, value):
        assert main(["verify", "closure", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be at least" in captured.err

    def test_seed_from_the_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("TEAMCHECK_SEED", "5")
        assert main(["verify", "closure", "--cases", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["seed"] == 5

    def test_seed_from_the_environment_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("TEAMCHECK_SEED", "x")
        assert main(["verify", "closure", "--cases", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TEAMCHECK_SEED" in captured.err

    def test_reductions_suite_appends_the_inclusion_cases(self, capsys):
        code = main(["verify", "reductions", "--seed", "3", "--vertices", "2", "--cases", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        reductions = run_reductions_suite(3, vertex_count=2, wsat_samples=1, theta_samples=1)
        cases = payload["cases"]
        assert len(cases) == len(reductions.cases) + payload["metadata"]["inclusion_cases"]
        assert [case["index"] for case in cases] == list(range(len(cases)))
        assert payload["summary"]["fail"] == 0

    def test_closure_suite_small(self, tmp_path, capsys):
        report_path = tmp_path / "closure.txt"
        code = main([
            "verify", "closure", "--seed", "5", "--cases", "10", "--out", str(report_path),
        ])
        assert code == 0
        text = report_path.read_text()
        assert "summary: suite=closure" in text
        assert "fail=0" in text

    def test_circuit_suite_small_json(self, capsys):
        code = main(["verify", "circuit", "--seed", "5", "--cases", "20", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["fail"] == 0

    def test_out_path_that_is_a_directory_is_input_error(self, tmp_path, capsys):
        code = main(["verify", "circuit", "--seed", "5", "--cases", "2", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Is a directory" in captured.err

    def test_out_path_is_opened_before_the_suite_runs(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_circuit_suite", lambda *args, **kwargs: calls.append(args))
        code = main(["verify", "circuit", "--cases", "3", "--out", str(tmp_path)])
        assert code == 2
        assert calls == []

    def test_clique_experiment_reports_discrepancies_without_failing(self, tmp_path, capsys):
        report_path = tmp_path / "clique.json"
        code = main([
            "verify", "clique-experiment", "--vertices", "4", "--out", str(report_path), "--json",
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["discrepancies"] >= 1  # four-vertex paths already pad teams


def test_bench_is_an_unknown_subcommand(capsys):
    # bench/run.py is the timing harness; the command line has no bench loop
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "domset"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_jobs_is_an_unknown_option(capsys):
    # every verify suite runs its cases in this process; there is no worker pool to size
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "closure", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

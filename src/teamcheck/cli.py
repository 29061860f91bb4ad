"""Batch command-line front end.

Subcommands: ``check`` (team satisfaction), ``solve`` (weighted team
search), ``reduce`` (instance encoders), ``verify`` (invariant suites).
Exit codes are stable across commands: 0 = SAT / pass, 1 = UNSAT / fail,
2 = input error, 3 = UNKNOWN (the run ran out of memory before an answer).

The default seed comes from ``TEAMCHECK_SEED`` when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import TeamcheckError
from .evaluator import require_in_domain
from .formulas import classify, parse, render
from .model import parse_structure, parse_team, render_structure
from .prop import parse_prop
from .reductions import (
    encode_clique,
    encode_domset,
    encode_indset,
    encode_wsat,
    parse_graph,
)
from .solver import WtInstance, compile_check, solve_path, wt_solve
from .verify import (
    run_circuit_suite,
    run_clique_experiment,
    run_closure_suite,
    run_reductions_and_inclusion,
    summary_line,
    write_report,
)


def _default_seed() -> int:
    env = os.environ.get("TEAMCHECK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise TeamcheckError(f"TEAMCHECK_SEED must be an integer, got {env!r}")
    return 1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    return _read(args.formula_file)


def _fragment_line(report) -> str:
    prefix = str(report.prefix) if report.prefix is not None else "non-prenex"
    atoms = ",".join(sorted(report.atoms)) or "none"
    free = ",".join(sorted(report.free_variables)) or "none"
    return f"fragment={report.fragment} atoms={atoms} prefix={prefix} free={free}"


def cmd_check(args) -> int:
    structure = parse_structure(_read(args.structure))
    formula = parse(_formula_text(args), structure.vocabulary)
    report = classify(formula)
    team = parse_team(_read(args.team), default_variables=report.free_variables)
    missing = report.free_variables - team.domain()
    if missing:
        raise TeamcheckError(f"team misses free variables {sorted(missing)}")
    require_in_domain(structure, team)
    path, _ = solve_path(report)
    satisfied = compile_check(structure, formula, team.variables, path)(team.rows)
    if args.json:
        print(json.dumps({
            "verdict": "SAT" if satisfied else "UNSAT",
            "fragment": report.fragment,
            "path": path,
            "team_size": len(team),
        }, sort_keys=True))
    else:
        print("SAT" if satisfied else "UNSAT")
        print(_fragment_line(report) + f" path={path}")
    return 0 if satisfied else 1


def cmd_solve(args) -> int:
    structure = parse_structure(_read(args.structure))
    formula = parse(_formula_text(args), structure.vocabulary)
    report = classify(formula)
    instance = WtInstance(structure, formula, args.k)
    # a sentence's teams are the empty team and {()}; the label says so
    path = solve_path(report)[0] if report.free_variables else "sentence"
    witness = wt_solve(instance)
    if args.json:
        payload = {
            "verdict": "SAT" if witness is not None else "UNSAT",
            "fragment": report.fragment,
            "k": args.k,
            "path": path,
            "witness": [a for a in witness.assignments()] if witness is not None else None,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        if witness is None:
            print("UNSAT")
        else:
            print("SAT")
            for assignment in witness.assignments():
                print(" ".join(f"{v}={assignment[v]}" for v in witness.variables))
        print(_fragment_line(report) + f" path={path}")
    return 0 if witness is not None else 1


def cmd_reduce(args) -> int:
    if args.problem == "wsat":
        formula = parse_prop(_read(args.input))
        instance, depth = encode_wsat(formula, args.k)
        note = f"alternation-depth={depth}"
    else:
        graph = parse_graph(_read(args.input))
        encoder = {"clique": encode_clique, "domset": encode_domset, "indset": encode_indset}[args.problem]
        instance = encoder(graph, args.k)
        note = f"vertices={graph.vertex_count} edges={len(graph.edges)}"
    rendered = render(instance.formula)
    if rendered == "x=x":
        note += " guard=trivial-yes"
    elif rendered == "x!=x":
        note += " guard=trivial-no"
    structure_path = f"{args.out}.structure"
    formula_path = f"{args.out}.formula"
    k_path = f"{args.out}.k"
    with open(structure_path, "w", encoding="utf-8") as handle:
        handle.write(render_structure(instance.structure))
    with open(formula_path, "w", encoding="utf-8") as handle:
        handle.write(render(instance.formula) + "\n")
    with open(k_path, "w", encoding="utf-8") as handle:
        handle.write(f"{instance.k}\n")
    if args.json:
        print(json.dumps({
            "problem": args.problem,
            "k": args.k,
            "k_out": instance.k,
            "formula": render(instance.formula),
            "structure_file": structure_path,
            "formula_file": formula_path,
            "k_file": k_path,
            "note": note,
        }, sort_keys=True))
    else:
        print(f"reduced {args.problem} k={args.k} -> k'={instance.k} ({note})")
        print(f"structure: {structure_path}")
        print(f"formula:   {formula_path} :: {render(instance.formula)}")
        print(f"k:         {k_path}")
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--cases", args.cases), ("--vertices", args.vertices)):
        if value < 0:
            raise TeamcheckError(f"{flag} must be at least 0, got {value}")
    seed = args.seed if args.seed is not None else _default_seed()
    # opened before the suite runs, so a report path that cannot be written costs no cases
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as handle:
        if args.suite == "closure":
            cases = run_closure_suite(seed, cases_per_fragment=args.cases)
        elif args.suite == "reductions":
            cases = run_reductions_and_inclusion(
                seed, vertex_count=args.vertices, wsat_samples=args.cases, theta_samples=args.cases
            )
        elif args.suite == "clique-experiment":
            cases = run_clique_experiment(vertex_count=args.vertices)
        else:
            cases = run_circuit_suite(seed, circuits=args.cases)
        counts = write_report(handle, args.suite, cases, args.json)
        handle.write("\n")
    if args.out:
        print(summary_line(args.suite, counts))
    return 0 if counts["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    epilog = "exit codes: 0 SAT/pass, 1 UNSAT/fail, 2 input error, 3 UNKNOWN (out of memory)"
    parser = argparse.ArgumentParser(prog="teamcheck", description=__doc__, epilog=epilog)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate a formula on a team")
    check.add_argument("--structure", required=True)
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    check.add_argument("--team", required=True)
    check.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    check.set_defaults(func=cmd_check)

    solve = sub.add_parser("solve", help="search for a team of exactly k assignments")
    solve.add_argument("--structure", required=True)
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    solve.add_argument("-k", type=int, required=True)
    solve.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
    solve.set_defaults(func=cmd_solve)

    reduce_cmd = sub.add_parser("reduce", help="encode a source problem instance")
    reduce_cmd.add_argument("problem", choices=("clique", "domset", "indset", "wsat"))
    reduce_cmd.add_argument("--input", required=True, help="graph file or propositional formula file")
    reduce_cmd.add_argument("-k", type=int, required=True)
    reduce_cmd.add_argument("--out", required=True, help="output path prefix")
    reduce_cmd.add_argument("--json", action="store_true")
    reduce_cmd.set_defaults(func=cmd_reduce)

    verify = sub.add_parser("verify", help="run an invariant suite and write a report")
    verify.add_argument("suite", choices=("closure", "reductions", "clique-experiment", "circuit"))
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--cases", type=int, default=100, help="random cases per family")
    verify.add_argument("--vertices", type=int, default=4, help="graph size for exhaustive suites")
    verify.add_argument("--out", help="report file (stdout when omitted)")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TeamcheckError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # parse loops, but planning a formula and ``==``/``repr`` on
        # formulas still recurse; a formula this deep needs a flatter
        # representation, not a traceback that reads as UNSAT
        print("error: formula nests too deeply for the recursive evaluator", file=sys.stderr)
        return 2
    except MemoryError:  # no answer, which must not read as UNSAT
        print("error: out of memory; the answer is UNKNOWN", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

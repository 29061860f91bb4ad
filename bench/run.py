"""teamcheck benchmark: seeded solve/check workloads, timed end to end.

Run from the root of the repository:

    python3 bench/run.py --workload theta-wd --seed 1 --seconds 40 --trace 0

``--trace 0`` runs one client in a closed loop (each instance starts when
the previous verdict returns) for ``--seconds`` seconds and reports the
end-to-end metrics.  ``--trace 1`` times a fixed prefix of the same stream
twice, untraced and then traced, and reports the per-layer metrics and the
tracing overhead.  Either way every instance's verdict is checked against
the brute-force oracle and its witness against the pinned one, and the last
line of standard output is one JSON object.

Other modes:

* ``--repeat N`` runs N fresh processes with seeds ``seed .. seed+N-1`` and
  prints the median and quartiles of every metric;
* ``--self-check`` runs two traced processes with the same seed and checks
  that their call counts and input digests are identical;
* ``--pin`` solves every pool item once and rewrites the pinned answers
  (only for a deliberate change of the pool or of the witnesses).

The exit code is non-zero when any instance failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED = BENCH_DIR / "pinned"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import CLIQUE_DISCREPANCIES, POOL_SEED, WORKLOADS, digest_text, teamcheck_api  # noqa: E402

#: Stretches of wall time per pass that ``instances_per_s`` takes the best of.
STRETCHES = 100

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here: no sources, or pinned data that does not match."""


def import_teamcheck():
    """Import teamcheck from this checkout's ``src``, afresh, and return its modules."""
    if not (SRC / "teamcheck" / "__init__.py").is_file():
        raise BenchError(f"no teamcheck sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "teamcheck" or n.startswith("teamcheck.")]:
        del sys.modules[name]
    tc = teamcheck_api()
    if Path(tc.solver.__file__).resolve().parent != SRC / "teamcheck":
        raise BenchError(f"teamcheck was imported from {tc.solver.__file__}, not from {SRC}")
    return tc


def load_pinned(workload) -> dict:
    path = PINNED / f"{workload.name}.json"
    try:
        pinned = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchError(f"missing pinned answers {path}") from None
    pinned["answers"] = pinned["answers"].split()
    return pinned


def setup(workload, seed: int):
    """Imports, input generation, pinned answers and oracle answers."""
    tc = import_teamcheck()
    pinned = load_pinned(workload)
    inputs = workload.inputs(tc, seed, pinned["answers"])
    if pinned["pool_digest"] != inputs.pool_digest or len(pinned["answers"]) != len(inputs.pool):
        raise BenchError(
            f"{workload.name}: the generated pool ({inputs.pool_digest}) is not the pinned one "
            f"({pinned['pool_digest']}); teamcheck.corpus changed how it draws inputs"
        )
    if digest_text(pinned["answers"]) != pinned["answers_digest"]:
        raise BenchError(f"{workload.name}: pinned answers do not match their digest")
    if workload.name == "graph-sweep":
        found = workload.pinned_discrepancies(inputs.pool, inputs.oracle, pinned["answers"])
        if found != CLIQUE_DISCREPANCIES:
            raise BenchError(f"pinned clique discrepancies {found}, expected {CLIQUE_DISCREPANCIES}")
    return tc, inputs, pinned["answers"]


def closed_loop(workload, tc, inputs, *, seconds=None, count=None, tracer=None):
    """One client: each instance starts when the previous verdict returns.

    Stops after ``seconds`` of wall time or after ``count`` instances.
    Returns per-instance latencies, the loop's clock at the end of each
    instance (so ``ends[-1]`` is its wall time) and ``(pool index, result)``
    pairs.  An exception is kept as the instance's result.
    """
    stream, pool, run = inputs.stream, inputs.pool, workload.run
    clock = time.perf_counter
    latencies: list[float] = []
    ends: list[float] = []
    results: list[tuple[int, object]] = []
    position = 0
    start = clock()
    deadline = start + seconds if seconds is not None else math.inf
    while True:
        index = stream[position % len(stream)]
        if tracer is not None:
            tracer.instance = position
        began = clock()
        try:
            result = run(tc, pool[index])
        except Exception as exc:  # counted as a failed instance
            result = exc
        ended = clock()
        latencies.append(ended - began)
        ends.append(ended - start)
        results.append((index, result))
        position += 1
        if ended >= deadline or position == count:
            break
    return latencies, ends, results


def count_failures(workload, inputs, expected, results) -> int:
    failed = 0
    for index, result in results:
        if isinstance(result, Exception):
            ok = False
            if failed < 3:
                traceback.print_exception(type(result), result, result.__traceback__, file=sys.stderr)
        else:
            ok = workload.check(inputs.pool[index], result, expected[index], inputs.oracle[index])
        if not ok:
            if failed < 3:
                print(f"FAILED {workload.name} pool item {index}: {inputs.pool[index]!r} -> {result!r}",
                      file=sys.stderr)
            failed += 1
    return failed


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def quiesce() -> None:
    """Collect the garbage of set-up and of earlier passes, and keep the
    collector off the objects still alive."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def measure(workload, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics from ``workload.passes`` passes that share ``seconds``.

    The first pass runs for its share of the time, or through the whole
    stream, and fixes the prefix of the stream that the later passes repeat.
    Every pass starts with a set-up of its own, with a fresh import of
    teamcheck, so no pass gains from a cache filled by an earlier one, and
    each pass runs the same instances from the same state.

    The host's speed drifts by a fifth or more within a second, and drift
    only ever adds time, so the timings take the best over the passes.  The
    latency percentiles are over each instance's best latency.  For
    ``instances_per_s`` each pass's loop is cut, at the same instance
    boundaries in every pass, into ``STRETCHES`` stretches of wall time; the
    rate is the instances over the sum of each stretch's best.  That counts
    all of the loop's time, garbage collection and the loop's own work too,
    as long as a cost falls in the same stretch in every pass.
    ``setup_s`` is the median set-up.
    """
    setups: list[float] = []
    walls: list[float] = []
    best: list[float] = []
    stretches: list[float] = []
    attempted = failed = 0
    for number in range(workload.passes):
        # Free the previous pass's pool and results before the next set-up.
        tc = inputs = expected = results = None
        began = time.perf_counter()
        tc, inputs, expected = setup(workload, seed)
        setups.append(time.perf_counter() - began)
        quiesce()
        if number == 0:
            best, ends, results = closed_loop(
                workload, tc, inputs, seconds=seconds / workload.passes, count=len(inputs.stream)
            )
            cuts = sorted({len(best) * part // STRETCHES for part in range(1, STRETCHES + 1)} - {0})
            stretches = [math.inf] * len(cuts)
        else:
            latencies, ends, results = closed_loop(workload, tc, inputs, count=len(best))
            best = [min(pair) for pair in zip(best, latencies)]
        walls.append(ends[-1])
        marks = [0.0] + [ends[cut - 1] for cut in cuts]
        stretches = [min(old, later - earlier) for old, earlier, later in zip(stretches, marks, marks[1:])]
        failed += count_failures(workload, inputs, expected, results)
        attempted += len(results)
    ordered = sorted(best)
    beyond = len(ordered) - math.ceil(workload.tail_percentile * len(ordered))
    metrics = {
        "instances_per_s": len(best) / sum(stretches),
        "latency_p50_ms": percentile(ordered, 0.5) * 1e3,
        "latency_tail_ms": percentile(ordered, workload.tail_percentile) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"input_digest {inputs.stream_digest} pool_digest {inputs.pool_digest}",
        f"instances {attempted} ({workload.passes} passes over {len(best)}) failed {failed} "
        f"failed_frac {failed / attempted:.6g}",
        f"instances per second of each pass's wall time {' '.join(f'{len(best) / w:.5g}' for w in walls)}",
        f"latency_tail is p{workload.tail_percentile * 100:g} of {len(best)} samples, {beyond} beyond it",
        f"setup_s runs {' '.join(f'{s:.4f}' for s in setups)}",
    ]
    units = dict(END_TO_END)
    return {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}, attempted, failed, notes


def measure_traced(workload, seed: int) -> tuple[dict, int, int, list[str]]:
    tc, inputs, expected = setup(workload, seed)
    quiesce()
    count = workload.trace_instances
    # The first pass over the prefix warms the interpreter's caches; the
    # second is the untraced reference for the traced third.
    _, _, warm_results = closed_loop(workload, tc, inputs, count=count)
    _, plain_ends, plain_results = closed_loop(workload, tc, inputs, count=count)
    tracer = tracing.Tracer()
    tracer.install(tc)
    try:
        _, traced_ends, traced_results = closed_loop(workload, tc, inputs, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = count_failures(workload, inputs, expected, warm_results + plain_results + traced_results)
    calls, self_s = tracer.self_times()
    metrics = {}
    for layer in tracing.LAYER_NAMES:
        metrics[f"{layer}.calls"] = {"value": calls.get(layer, 0), "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s.get(layer, 0.0), "unit": "s"}
    for counter in tracing.COUNTERS:
        metrics[counter] = {"value": tracer.counts[counter], "unit": "count"}
    candidates = tracer.counts["solver.candidates"]
    metrics["solver.useful_ratio"] = {
        "value": tracer.sat_searches / candidates if candidates else 0.0,
        "unit": "ratio",
    }
    plain_wall, traced_wall = plain_ends[-1], traced_ends[-1]
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.spans"] = {"value": len(tracer.span_start), "unit": "count"}
    header, data = tracer.write(OUT / f"{workload.name}-seed{seed}")
    notes = [
        f"input_digest {inputs.stream_digest} pool_digest {inputs.pool_digest}",
        f"instances {3 * count} failed {failed} (stream prefix of {count}: warm-up, untraced, traced)",
        f"untraced_s {plain_wall:.4f} traced_s {traced_wall:.4f} sat_searches {tracer.sat_searches}",
        f"spans written to {header.relative_to(ROOT)} and {data.relative_to(ROOT)}",
    ]
    return metrics, 3 * count, failed, notes


def report(metrics: dict, attempted: int, failed: int, notes: list[str]) -> int:
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# --- modes that start fresh processes -------------------------------------------------

def child_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{' '.join(command[1:])} exited with {done.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def repeat(args) -> int:
    runs = []
    for offset in range(args.repeat):
        seed = args.seed + offset
        result, _ = child_run(args.workload, seed, args.seconds, args.trace)
        runs.append(result)
        summary = " ".join(f"{name}={m['value']:.5g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {summary}", flush=True)
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:34s} {metric['unit']:6s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.4f}")
    failed = sum(run["failed"] for run in runs)
    print(f"failed instances over all runs: {failed}")
    return 0 if failed == 0 else 1


def self_check(args) -> int:
    """Two traced runs of one seed must count the same calls over the same inputs."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    problems = []
    for name in names:
        (first, first_notes), (second, second_notes) = (
            child_run(name, args.seed, args.seconds, 1) for _ in range(2)
        )
        digests = [next(line for line in notes if line.startswith("input_digest")) for notes in (first_notes, second_notes)]
        counted = [
            {key: m["value"] for key, m in run["metrics"].items() if m["unit"] == "count"}
            for run in (first, second)
        ]
        same = digests[0] == digests[1] and counted[0] == counted[1]
        failed = first["failed"] + second["failed"]
        print(f"{name}: {digests[0]}; call counts {'identical' if counted[0] == counted[1] else 'DIFFER'}; "
              f"failed {failed}")
        if not same or failed:
            problems.append(name)
    if problems:
        print(f"self-check FAILED for {', '.join(problems)}")
        return 1
    print("self-check passed")
    return 0


def pin(args) -> int:
    """Solve every pool item once and rewrite the pinned answers."""
    workload = WORKLOADS[args.workload]
    tc = import_teamcheck()
    inputs = workload.inputs(tc, POOL_SEED, None)
    answers = []
    for index, item in enumerate(inputs.pool):
        result = workload.run(tc, item)
        answer = workload.answer(result)
        if not workload.check(item, result, answer, inputs.oracle[index]):
            raise BenchError(f"pool item {index} disagrees with its oracle: {item!r} -> {result!r}")
        answers.append(answer)
    pinned = {
        "workload": workload.name,
        "pool_seed": POOL_SEED,
        "pool_digest": inputs.pool_digest,
        "items": len(answers),
        "answers_digest": digest_text(answers),
        "answers": " ".join(answers),
    }
    if workload.name == "graph-sweep":
        found = workload.pinned_discrepancies(inputs.pool, inputs.oracle, answers)
        if found != CLIQUE_DISCREPANCIES:
            raise BenchError(f"found {found} clique discrepancies, expected {CLIQUE_DISCREPANCIES}")
    PINNED.mkdir(exist_ok=True)
    (PINNED / f"{workload.name}.json").write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"pinned {len(answers)} answers for {workload.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--repeat", type=int, metavar="N", help="fresh-process runs to summarise")
    mode.add_argument("--self-check", action="store_true", help="compare two traced runs of one seed")
    mode.add_argument("--pin", action="store_true", help="rewrite the pinned answers")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.self_check:
        parser.error("--workload all is only for --self-check")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.repeat is not None:
            if args.repeat < 1:
                parser.error("--repeat must be at least 1")
            return repeat(args)
        if args.self_check:
            return self_check(args)
        if args.pin:
            return pin(args)
        workload = WORKLOADS[args.workload]
        if args.trace:
            return report(*measure_traced(workload, args.seed))
        return report(*measure(workload, args.seed, args.seconds))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end MCML benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload whole_space --seed 0 --seconds 10 --trace 0

The program is driven in-process through its public Python API, with one
worker (no pool, no daemon) and one BLAS thread.  A run sets up, then
repeats rounds until ``--seconds`` have passed; each round produces the
workload's artifacts in a fresh session and checks every row
(``workloads.py``).  With ``--trace 0`` the last line of standard output
reports the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds alternate and it reports per-layer calls and self time from the
traced ones (``tracer.py``).  Earlier lines print every metric by name with
its unit, and the raw per-round host-speed fields.

End-to-end times are corrected for the speed of the host, which is sampled
while the program runs (``hostspeed.py``); the clock's own readings are
kept in the raw fields.

The warm workload's cache directories live under ``.bench_build/`` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: The drivers and everything they import lazily, loaded before any round
#: so that tracing sees every binding.
PROGRAM_MODULES = (
    "repro.experiments.cli",
    "repro.experiments.classification",
    "repro.experiments.generalization",
    "repro.experiments.table1",
    "repro.experiments.table8",
    "repro.experiments.table9",
    "repro.ml",
)

#: Untraced rounds per run at least; trace runs need two of each kind.
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 4
#: Fresh interpreters timed for set-up, and cold fills of the cache
#: directory set-up makes on a warm workload.
STARTS = 5
WARM_FILLS = 3
#: Share of a traced round's wall time the layer spans must cover.
MIN_COVERAGE = 0.9

ARTIFACT_NAMES = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "figure1", "figure2",
)
ENGINE_COUNTERS = (
    "count_calls", "count_hits", "store_hits", "backend_calls",
    "translate_store_hits", "region_store_hits", "store_degradations",
)
STORE_TIERS = ("counts", "memos", "components")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this run's masked rows as the seed-0 reference",
    )
    return parser.parse_args(argv)


def load_program() -> None:
    """Import the program from this checkout's ``src``."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # No bytecode is written: the source tree stays untouched, and every run
    # imports the same way (the program's sources are compiled each time).
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import repro  # a namespace package: it has a path, not a file

    if [Path(p).resolve() for p in repro.__path__] != [SRC / "repro"]:
        raise ImportError(f"repro found at {list(repro.__path__)}, not in {SRC}")
    for module in PROGRAM_MODULES:
        importlib.import_module(module)


#: A fresh interpreter's imports, sampled for host speed; it prints the
#: clock time of the imports and the same time corrected.
START_CODE = """\
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
from hostspeed import HostSpeed
speed = HostSpeed()
speed.start()
begin = time.perf_counter()
import {modules}
end = time.perf_counter()
speed.stop()
print(end - begin, speed.program_seconds(begin, end))
"""


def start_seconds() -> float:
    """Time for a fresh interpreter to start, import the program and exit.

    The imports are corrected for host speed; the interpreter's start and
    exit around them are taken as the clock read them.
    """
    code = START_CODE.format(bench=str(BENCH), src=str(SRC), modules=", ".join(PROGRAM_MODULES))
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], check=True, stdout=subprocess.PIPE, text=True
    ).stdout
    total = time.perf_counter() - started
    clock, corrected = (float(word) for word in out.split())
    return total - clock + corrected


def steal_seconds() -> float | None:
    """Host-wide steal time so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


@dataclass(eq=False)
class Round:
    #: Clock time from the first driver call to the last row.
    wall_s: float
    #: ``wall_s`` without the host-speed probes, and corrected by them.
    busy_s: float
    program_s: float
    #: Session construction, and the whole round with closing the session
    #: (corrected when sampled).
    construct_s: float
    round_s: float
    #: Median probe cost over the reference cost (None: not sampled).
    slowdown: float | None
    cpu_s: float
    steal_s: float | None
    #: Latency of each call of the workload's operation (corrected).
    op_ms: list
    delta: dict
    rows: dict
    tracer: object
    traced: bool
    failures: list = field(default_factory=list)


def run_round(workload, seed, tracer, traced=False, cache_dir=None, speed=None) -> Round:
    """Produce the workload's artifacts once, in a fresh session.

    With ``speed`` the host's speed is sampled through the round and its
    times are corrected by it.
    """
    from workloads import canonical, produce

    config = workload.experiment_config(seed, cache_dir)
    if speed is not None:
        speed.reset()
        speed.start()
    try:
        began = time.perf_counter()
        session = config.session()
        constructed = time.perf_counter()
        before = session.engine.stats.as_dict()
        produced = {}
        cpu0, steal0 = time.process_time(), steal_seconds()
        tracer.install()
        try:
            started = time.perf_counter()
            for artifact in workload.artifacts:
                try:
                    produced[artifact] = tracer.call(
                        f"experiments.{artifact}", produce, artifact, config, session
                    )
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    produced[artifact] = None
            finished = time.perf_counter()
            cpu_s = time.process_time() - cpu0
            steal1 = steal_seconds()
            after = session.engine.stats.as_dict()
        finally:
            # Closing writes the component cache to disk: traced, not timed.
            session.close()
            tracer.uninstall()
        closed = time.perf_counter()
    finally:
        if speed is not None:
            speed.stop()
    # The next round's peak memory should not include this one's garbage.
    gc.collect()
    if speed is None:
        def span(begin, end):
            return end - begin
        probing = 0.0
    else:
        span = speed.program_seconds
        probing = speed.probing_seconds(started, finished)
    rows = {
        artifact: None if got is None else [canonical(row) for row in got]
        for artifact, got in produced.items()
    }
    return Round(
        wall_s=finished - started,
        busy_s=finished - started - probing,
        program_s=span(started, finished),
        construct_s=span(began, constructed),
        round_s=span(began, closed),
        slowdown=None if speed is None else speed.slowdown(),
        cpu_s=cpu_s,
        steal_s=None if steal0 is None or steal1 is None else steal1 - steal0,
        op_ms=[1000 * span(begin, end) for begin, end in tracer.spans.get(workload.op, [])],
        delta={key: after[key] - before[key] for key in after},
        rows=rows,
        tracer=tracer,
        traced=traced,
    )


def check_round(workload, rnd: Round, expected: list[dict], fill=False) -> tuple[int, int]:
    """``(attempted, failed)`` operations of a round; notes go to ``failures``."""
    from workloads import guard_problems, row_problems

    attempted = failed = 0
    for artifact in workload.artifacts:
        got = rnd.rows[artifact]
        wants = [want[artifact] for want in expected if want.get(artifact) is not None]
        if got is None:
            count = max([len(want) for want in wants] or [1])
            attempted += count
            failed += count
            rnd.failures.append(f"{artifact}: raised")
            continue
        count = max([len(got)] + [len(want) for want in wants])
        for index in range(count):
            attempted += 1
            row = got[index] if index < len(got) else None
            problems = ["row missing"] if row is None else row_problems(artifact, row)
            if row is not None and any(
                index >= len(want) or want[index] != row for want in wants
            ):
                problems.append("row differs from the expected row")
            if problems:
                failed += 1
                rnd.failures.append(f"{artifact} row {index}: {'; '.join(problems)}")
    guard = guard_problems(workload, rnd.delta, fill=fill)
    if guard:
        rnd.failures.extend(guard)
        failed = attempted
    return attempted, failed


def percentile(values, share):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def span_names():
    from tracer import FUNCTION_TARGETS, method_targets

    return list(dict.fromkeys(name for name, _, _ in method_targets())) + list(FUNCTION_TARGETS)


def per_layer(workload, traced, untraced, fills) -> dict:
    """Per-layer metrics from the traced rounds (calls of the first one)."""
    first = traced[0].tracer
    metrics = {}

    def median(values):
        return statistics.median(values) if values else 0.0

    for name in span_names():
        # ApproxMC cells are named by what they count, not by the call.
        calls = name if name == "counting.approxmc.cells" else f"{name}.calls"
        metrics[calls] = (first.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (
            median([r.tracer.self_ns.get(name, 0) / 1e9 for r in traced]), "s"
        )
    delta = traced[0].delta
    for counter in ENGINE_COUNTERS:
        metrics[f"counting.engine.{counter}"] = (delta[counter], "count")
    hits = delta["count_hits"] + delta["store_hits"]
    metrics["counting.engine.hit_ratio"] = (
        hits / delta["count_calls"] if delta["count_calls"] else 0.0, "ratio"
    )
    drivers = [f"experiments.{artifact}" for artifact in ARTIFACT_NAMES]
    for artifact, driver in zip(ARTIFACT_NAMES, drivers):
        metrics[f"{driver}_s"] = (
            median([r.tracer.total_ns.get(driver, 0) / 1e9 for r in traced]), "s"
        )
    metrics["experiments.self_s"] = (
        median([sum(r.tracer.self_ns.get(d, 0) for d in drivers) / 1e9 for r in traced]), "s"
    )
    # Traced rounds are not sampled for host speed; untraced ones are, and
    # their probes are taken out.
    metrics["trace.overhead"] = (
        median([r.wall_s for r in traced]) / median([r.busy_s for r in untraced]) - 1, "ratio"
    )
    metrics["trace.coverage"] = (
        median([
            sum(ns for name, ns in r.tracer.self_ns.items() if name not in drivers)
            / 1e9 / r.wall_s
            for r in traced
        ]),
        "ratio",
    )
    puts = [f"counting.store.{tier}.put" for tier in STORE_TIERS]
    writes = puts + [f"counting.store.{tier}.flush" for tier in STORE_TIERS]
    metrics["setup.counting.store.puts"] = (
        sum(fills[0].tracer.calls.get(name, 0) for name in puts) if fills else 0, "count"
    )
    metrics["setup.counting.store.self_s"] = (
        median([sum(f.tracer.self_ns.get(n, 0) for n in writes) / 1e9 for f in fills]), "s"
    )
    return metrics


def trace_problems(traced, metrics) -> list[str]:
    problems = []
    exact = metrics["counting.exact.count.calls"][0]
    backend = metrics["counting.engine.backend_calls"][0]
    if exact != backend:
        problems.append(f"counting.exact.count.calls {exact} != backend_calls {backend}")
    coverage = metrics["trace.coverage"][0]
    if coverage < MIN_COVERAGE:
        problems.append(f"layer spans cover {coverage:.3f} of the traced wall time")
    if any(r.tracer.calls != traced[0].tracer.calls for r in traced[1:]):
        problems.append("traced rounds made different numbers of calls")
    return problems


def measure(workload, seed, seconds, trace, work_dir):
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import REFERENCE_SEED, load_reference

    # Rounds whose spans feed per-layer metrics are not sampled: the probes
    # would land in the spans.
    speed = HostSpeed()
    store_spans = [
        f"counting.store.{tier}.{method}"
        for tier in STORE_TIERS for method in ("get", "put", "flush")
    ]
    fills = []
    cache_dir = None
    if workload.warm:
        for index in range(WARM_FILLS):
            cache_dir = work_dir / f"fill-{index}"
            fill = run_round(
                workload, seed, Tracer(names=store_spans if trace else ()),
                cache_dir=cache_dir, speed=None if trace else speed,
            )
            # A fill's set-up time is the whole cold round, writes included.
            fill.construct_s = fill.round_s
            fills.append(fill)

    expected = [fills[0].rows] if fills else []
    reference = load_reference().get(workload.reference or workload.name)
    if seed == REFERENCE_SEED and reference is not None:
        expected.append(reference)

    rounds: list[Round] = []
    started = time.perf_counter()
    least = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else Tracer(names=[workload.op], keep_spans=[workload.op])
        rounds.append(run_round(
            workload, seed, tracer, traced=traced, cache_dir=cache_dir,
            speed=None if traced else speed,
        ))
        if not expected:
            expected.append(rounds[0].rows)
        left = seconds - (time.perf_counter() - started)
        typical = statistics.median(r.wall_s for r in rounds)
        if len(rounds) >= least and left < typical / 2:
            break
    return fills, rounds, expected


def report(workload, args, starts, fills, rounds, expected) -> int:
    attempted = failed = 0
    for rnd in fills + rounds:
        a, f = check_round(workload, rnd, expected, fill=rnd in fills)
        attempted, failed = attempted + a, failed + f
        for note in rnd.failures:
            print(f"check failed: {note}", file=sys.stderr)
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    setup_s = statistics.median(starts) + statistics.median(
        r.construct_s for r in (fills or untraced)
    )
    problems = []
    op_p85_ms = None
    if args.trace:
        metrics = per_layer(workload, traced, untraced, fills)
        problems = trace_problems(traced, metrics)
    else:
        latencies = [ms for r in untraced for ms in r.op_ms] or [0.0]
        metrics = {
            "wall_s": (statistics.median(r.program_s for r in untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_p50_ms": (percentile(latencies, 0.50), "ms"),
        }
        op_p85_ms = percentile(latencies, 0.85)
    for note in problems:
        print(f"check failed: {note}", file=sys.stderr)
    if problems:
        failed = max(failed, 1)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if op_p85_ms is not None:
        # Printed, not bounded: a round has too few distinct operation calls
        # for its 85th percentile to be steady from seed to seed.
        print(f"op_p85_ms {op_p85_ms:.6g} ms")
        if workload.op == "core.accmc.evaluate":
            print(f"accmc_p50_ms {metrics['op_p50_ms'][0]:.6g} ms")
            print(f"accmc_p85_ms {op_p85_ms:.6g} ms")
        # What the clock read, before the host-speed correction.
        print(f"clock_wall_s {statistics.median(r.wall_s for r in untraced):.6g} s")
        print(f"host_slowdown {statistics.median(r.slowdown for r in untraced):.6g} ratio")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    raw = {
        "workload": workload.name,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "start_samples_s": starts,
        "setup_samples_s": [r.construct_s for r in (fills or untraced)],
        "op_samples": sum(len(r.op_ms) for r in untraced),
        "op_p85_ms": op_p85_ms,
        "rounds": [
            {
                "traced": r.traced, "wall_s": r.wall_s, "program_s": r.program_s,
                "slowdown": r.slowdown, "cpu_s": r.cpu_s, "steal_s": r.steal_s,
            }
            for r in rounds
        ],
    }
    print(json.dumps({"raw": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_reference(workload, fills, rounds) -> None:
    from workloads import REFERENCE, load_reference

    reference = load_reference()
    reference[workload.reference or workload.name] = (fills or rounds)[0].rows
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import REFERENCE_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"the reference is written at seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = BUILD / f"run-{os.getpid()}"
    try:
        starts = [start_seconds() for _ in range(STARTS)]
        fills, rounds, expected = measure(workload, args.seed, args.seconds, args.trace, work_dir)
        if args.write_reference:
            write_reference(workload, fills, rounds)
        return report(workload, args, starts, fills, rounds, expected)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

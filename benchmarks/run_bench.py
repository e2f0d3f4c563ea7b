#!/usr/bin/env python
"""Run the counting-substrate benchmarks and record BENCH_counting.json.

Runs the ``TestCounterAblation`` benchmarks of ``bench_substrates.py``
through pytest-benchmark, extracts the per-backend median times, runs the
counting-substrate ablations (warm-vs-cold disk cache on a Table 1 slice,
cold-run vs warm-restart component *spill* on the same-φ/many-regions
AccMC ratio sweep, a ``CountStore`` round-trip micro-bench), and writes
(or updates)
``BENCH_counting.json`` next to this script's repository root.  The JSON
keeps a ``history`` list so successive PRs append their numbers instead of
overwriting the trajectory::

    PYTHONPATH=src python benchmarks/run_bench.py --label "PR 7 (…)"

``--quick`` runs only the ablations on small instances and never updates
the JSON — the CI smoke mode that keeps the harness from rotting.  It
also fails (exit 1) when the exact counter's median on the ablation
instance has regressed more than 3x against the last recorded ``history``
entry, which turns every CI push into a coarse perf-regression gate (3x
because CI hardware differs from the recording machine; a genuine
algorithmic regression is typically much larger).  ``--smoke-output
PATH`` additionally writes the quick run's measured medians as JSON; CI
uploads that as a workflow artifact and renders a median-vs-history diff
into the job summary via ``benchmarks/diff_smoke.py``.

``--profile`` cProfiles the exact counter on a scope-5-sized instance and
prints the hottest functions — the loop used to pick per-PR hot-path work
(PR 3 replaced the occurrence-list unit propagation this way).

See ``benchmarks/README.md`` for how to interpret the output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_counting.json"

#: benchmark test name -> backend label in the JSON
BACKENDS = {
    "test_exact_counter": "exact",
    "test_legacy_exact_counter": "exact-legacy",
    "test_counting_engine_warm": "engine-warm",
    "test_approxmc_counter": "approxmc",
}

INSTANCE = (
    "PartialOrder at scope 4 with adjacent symmetry breaking "
    "(translate(...).cnf: 290 vars, 933 clauses, 16 projected)"
)


def run_benchmarks() -> dict[str, dict[str, float]]:
    """Execute the ablation benchmarks, return per-backend stats (seconds)."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks" / "bench_substrates.py"),
            "-k",
            "TestCounterAblation",
            "-q",
            f"--benchmark-json={report}",
        ]
        completed = subprocess.run(command, cwd=REPO_ROOT)
        if completed.returncode != 0:
            raise SystemExit(f"benchmark run failed with exit code {completed.returncode}")
        payload = json.loads(report.read_text())
    backends: dict[str, dict[str, float]] = {}
    for bench in payload.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        label = BACKENDS.get(name)
        if label is None:
            continue
        stats = bench["stats"]
        backends[label] = {
            "median_s": stats["median"],
            "mean_s": stats["mean"],
            "rounds": stats["rounds"],
        }
    return backends


# -- counting-substrate ablations -------------------------------------------------------


def component_spill_ablation(scope: int, fractions: tuple[float, ...]) -> dict:
    """Cold-run vs warm-restart on the same-φ/many-regions sweep.

    The sweep is a *training-ratio sweep* of AccMC's four products (the
    construction it takes on approximate backends): one property's φ/¬φ
    conjoined with the true/false regions of a decision tree retrained at
    each fraction — the shape Tables 3–7 and 9 produce.
    Three timed runs:

    * ``conjunction_s`` — the sweep, cold, on an engine without a
      ``cache_dir``, for context and as the bit-identity reference;
    * ``cold_s`` — the sweep, cold, on a fresh ``cache_dir`` (close()
      spills the component cache to ``components.sqlite``);
    * ``warm_s`` — a *fresh engine on the same cache_dir* re-counting the
      sweep after ``counts.sqlite``/``memos.sqlite`` are deleted, so every
      whole count misses and the measured speedup isolates the spill tier:
      the engine performs real backend counts whose components promote
      from disk (``EngineStats.component_spill_hits``).

    Bit-identity of the cold run vs the uncached engine and of warm vs
    cold is enforced hard.
    """
    from repro.core.pipeline import MCMLPipeline
    from repro.core.tree2cnf import label_region_cnf
    from repro.counting import CountingEngine
    from repro.spec import SymmetryBreaking, get_property, translate

    prop = get_property("PartialOrder")
    symmetry = SymmetryBreaking()
    phi = translate(prop, scope, symmetry=symmetry).cnf
    not_phi = translate(prop, scope, symmetry=symmetry, negate=True).cnf
    pipeline = MCMLPipeline(seed=0)
    dataset = pipeline.make_dataset(prop, scope, symmetry=symmetry)
    conjunction: list = []
    m = scope * scope
    for fraction in fractions:
        train, _ = dataset.split(fraction, rng=0)
        tree = pipeline.train("DT", train)
        paths = tree.decision_paths()
        for base in (phi, not_phi):
            for label in (1, 0):
                conjunction.append(base.conjoin(label_region_cnf(paths, label, m)))

    conjunction_engine = CountingEngine()
    started = perf_counter()
    conjunction_counts = [r.value for r in conjunction_engine.solve_many(conjunction)]
    conjunction_s = perf_counter() - started

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = CountingEngine(cache_dir=cache_dir)
        started = perf_counter()
        cold_counts = [r.value for r in cold_engine.solve_many(conjunction)]
        cold_s = perf_counter() - started
        cold_engine.close()  # spills the component cache
        spilled = len(cold_engine.component_store)
        # Drop the whole-count and compilation stores: the warm engine must
        # recount for real, so the timing isolates the component spill.
        for name in ("counts.sqlite", "memos.sqlite"):
            for suffix in ("", "-wal", "-shm"):
                (Path(cache_dir) / (name + suffix)).unlink(missing_ok=True)
        warm_engine = CountingEngine(cache_dir=cache_dir)
        started = perf_counter()
        warm_counts = [r.value for r in warm_engine.solve_many(conjunction)]
        warm_s = perf_counter() - started
        spill_hits = warm_engine.stats.component_spill_hits
        warm_backend = warm_engine.stats.backend_calls
        warm_engine.close()

    if cold_counts != conjunction_counts:
        raise SystemExit(
            f"cache_dir counts diverge from the uncached engine: "
            f"{cold_counts} != {conjunction_counts}"
        )
    if warm_counts != cold_counts:
        raise SystemExit("warm-restart counts diverge from cold run")
    if warm_backend == 0:
        raise SystemExit(
            "warm restart performed no backend counts — the ablation is "
            "measuring the whole-count store, not the component spill"
        )
    if spill_hits == 0:
        raise SystemExit("warm restart promoted no spilled components")
    return {
        "instance": (
            f"AccMC product-mode ratio sweep: PartialOrder scope {scope}, "
            f"adjacent symmetry breaking, DT retrained at {len(fractions)} "
            f"training fractions, φ/¬φ × true/false regions "
            f"({len(conjunction)} region counts; warm restart re-counts with "
            "counts.sqlite removed so only components.sqlite is warm)"
        ),
        "problems": len(conjunction),
        "conjunction_s": round(conjunction_s, 4),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_x": round(cold_s / warm_s, 2),
        "vs_conjunction_cold_x": round(conjunction_s / warm_s, 2),
        "spilled_entries": spilled,
        "spill_hits": spill_hits,
        "warm_backend_counts": warm_backend,
        "bit_identical": True,
    }


def store_roundtrip_bench(entries: int = 2000) -> dict:
    """CountStore micro-bench: buffered single puts, then a batch read-back.

    Writes ``entries`` counts through the single-``put`` path (exercising
    the WAL + one-transaction-per-AUTOFLUSH batching), flushes, reopens the
    store cold and reads everything back via ``get_many``.
    """
    from repro.counting.store import CountStore

    with tempfile.TemporaryDirectory() as tmp:
        keys = [f"bench-{i:06d}" for i in range(entries)]
        store = CountStore(tmp)
        started = perf_counter()
        for i, key in enumerate(keys):
            store.put(key, 1 << (i % 512))
        store.flush()
        put_s = perf_counter() - started
        store.close()
        store = CountStore(tmp)
        started = perf_counter()
        found = store.get_many(keys)
        get_s = perf_counter() - started
        store.close()
    if len(found) != entries:
        raise SystemExit(f"store round-trip lost entries: {len(found)} != {entries}")
    return {
        "entries": entries,
        "put_s": round(put_s, 4),
        "get_s": round(get_s, 4),
        "puts_per_s": round(entries / put_s),
        "gets_per_s": round(entries / get_s),
    }


def cache_ablation(scope: int, property_names: tuple[str, ...]) -> dict:
    """Warm-vs-cold disk cache on a Table 1 slice (the two exact columns).

    The warm re-run happens in a *fresh* engine pointed at the same cache
    directory; it must perform zero backend counts — enforced hard, since
    that criterion is hardware-independent.
    """
    from repro.counting import CountingEngine
    from repro.spec import SymmetryBreaking, get_property, translate

    symmetry = SymmetryBreaking()
    batch = []
    for name in property_names:
        prop = get_property(name)
        batch.append(translate(prop, scope, symmetry=symmetry).cnf)
        batch.append(translate(prop, scope).cnf)

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = CountingEngine(cache_dir=cache_dir)
        started = perf_counter()
        cold_counts = [r.value for r in cold_engine.solve_many(batch)]
        cold_s = perf_counter() - started
        cold_backend = cold_engine.stats.backend_calls
        cold_engine.close()

        warm_engine = CountingEngine(cache_dir=cache_dir)
        started = perf_counter()
        warm_counts = [r.value for r in warm_engine.solve_many(batch)]
        warm_s = perf_counter() - started
        warm_backend = warm_engine.stats.backend_calls
        warm_engine.close()

    if warm_counts != cold_counts:
        raise SystemExit("warm-cache counts diverge from cold run")
    if warm_backend != 0:
        raise SystemExit(
            f"warm re-run performed {warm_backend} backend counts (expected 0)"
        )
    return {
        "instance": (
            f"Table 1 slice, exact columns (symbr + plain) for "
            f"{len(property_names)} properties at scope {scope}"
        ),
        "problems": len(batch),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_x": round(cold_s / warm_s, 1),
        "cold_backend_counts": cold_backend,
        "warm_backend_counts": warm_backend,
    }


def _print_ablations(
    cache_result: dict,
    store_result: dict | None = None,
    spill_result: dict | None = None,
) -> None:
    print(
        f"  disk cache: cold {cache_result['cold_s']:.3f} s "
        f"({cache_result['cold_backend_counts']} backend counts), "
        f"warm {cache_result['warm_s']:.3f} s "
        f"({cache_result['warm_backend_counts']} backend counts)"
    )
    if spill_result is not None:
        print(
            f"  component spill: uncached cold "
            f"{spill_result['conjunction_s']:.3f} s, cache_dir cold "
            f"{spill_result['cold_s']:.3f} s, warm restart "
            f"{spill_result['warm_s']:.3f} s ({spill_result['speedup_x']}x "
            f"cold->warm, {spill_result['spill_hits']} promotions from "
            f"{spill_result['spilled_entries']} spilled entries), bit-identical"
        )
    if store_result is not None:
        print(
            f"  store round-trip: {store_result['entries']} entries, "
            f"{store_result['puts_per_s']} puts/s, {store_result['gets_per_s']} gets/s"
        )


def backend_smoke(name: str, scope: int = 3) -> dict:
    """Exercise one backend end-to-end against ground truth.

    Builds the backend by name through ``make_counter``, counts a
    translated property CNF and checks the count: bit-identity against
    the closed form for the exact backend, the (ε, δ) envelope for the
    approximate one.  CI runs this for ``approxmc``, the non-default
    backend, so it cannot rot silently.
    """
    from repro.counting import closed_form_count
    from repro.counting.api import make_counter
    from repro.spec import get_property, translate

    prop = get_property("PartialOrder")
    backend = make_counter(name)
    caps = backend.capabilities
    truth = closed_form_count(prop.oracle, scope)
    instance = f"{prop.name} CNF at scope {scope}"
    value = backend.count(translate(prop, scope).cnf)
    if caps.exact:
        if value != truth:
            raise SystemExit(
                f"backend {name!r} smoke failed: {value} != {truth} on {instance}"
            )
    elif not truth / (1 + backend.epsilon) <= value <= truth * (1 + backend.epsilon):
        raise SystemExit(
            f"backend {name!r} estimate {value} is outside the (eps, delta) "
            f"envelope of {truth} (eps = {backend.epsilon}) on {instance}"
        )
    print(
        f"  backend smoke: {name!r} on {instance} -> {value} "
        f"({'bit-identical' if caps.exact else 'within (eps, delta) envelope'})"
    )
    return {"backend": name, "instance": instance, "capabilities": caps.as_dict()}


def perf_regression_smoke(
    output: Path, tolerance: float = 3.0
) -> tuple[float | None, str | None]:
    """Gate on the exact counter regressing > ``tolerance``x vs history.

    Re-times the ablation instance (median of three) and compares against
    the last recorded ``history`` entry of ``BENCH_counting.json``.  The
    wide tolerance absorbs hardware differences between CI and the
    recording machine — a genuine algorithmic regression (e.g. losing the
    packed representation) is orders of magnitude, not percents.  Returns
    ``(measured median, failure message or None)`` instead of raising, so
    the caller can persist the measurement (the ``--smoke-output`` record
    CI uploads) *before* failing the run — the numbers matter most on
    exactly the pushes that trip the gate.
    """
    from statistics import median

    from repro.counting import ExactCounter
    from repro.spec import SymmetryBreaking, get_property, translate

    if not output.exists():
        print("  perf gate: no BENCH_counting.json, skipping")
        return None, None
    history = json.loads(output.read_text()).get("history", [])
    if not history:
        print("  perf gate: empty history, skipping")
        return None, None
    recorded = history[-1]["exact_median_s"]
    cnf = translate(
        get_property("PartialOrder"), 4, symmetry=SymmetryBreaking()
    ).cnf
    timings = []
    for _ in range(3):
        started = perf_counter()
        ExactCounter().count(cnf)
        timings.append(perf_counter() - started)
    current = median(timings)
    ratio = current / recorded
    print(
        f"  perf gate: exact median {current * 1000:.1f} ms vs recorded "
        f"{recorded * 1000:.1f} ms ({ratio:.2f}x, tolerance {tolerance}x)"
    )
    if ratio > tolerance:
        return current, (
            f"exact counter regressed {ratio:.2f}x vs the last recorded "
            f"history entry {history[-1].get('label')!r} (tolerance {tolerance}x)"
        )
    return current, None


def profile_hot_path(scope: int = 5) -> None:
    """cProfile the exact counter on a scope-``scope`` instance and print.

    The instance (PartialOrder with adjacent symmetry breaking) has ~10x
    the clauses of the scope-4 ablation instance, which is what makes
    per-node costs visible — this is the loop that identified the
    occurrence-list propagation rebuild as the PR-3 hot spot.
    """
    import cProfile
    import io
    import pstats

    from repro.counting import ExactCounter
    from repro.spec import SymmetryBreaking, get_property, translate

    cnf = translate(
        get_property("PartialOrder"), scope, symmetry=SymmetryBreaking()
    ).cnf
    counter = ExactCounter(max_nodes=50_000_000)
    print(f"profiling ExactCounter on PartialOrder scope {scope} ({cnf!r})")
    profile = cProfile.Profile()
    profile.enable()
    count = counter.count(cnf)
    profile.disable()
    stream = io.StringIO()
    pstats.Stats(profile, stream=stream).sort_stats("tottime").print_stats(15)
    print(f"count = {count}")
    print(stream.getvalue())


def _ablation_properties() -> tuple[str, ...]:
    """All registered property names (resolved after the sys.path insert)."""
    from repro.spec.properties import property_names

    return tuple(property_names())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label",
        default="current",
        help="history entry label, e.g. 'PR 7 (watched literals)'",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT, help="where to write the JSON"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: ablations on small instances, perf-regression "
        "gate vs the last history entry, no JSON update",
    )
    parser.add_argument(
        "--backend", action="append", default=None, metavar="NAME",
        help="additionally smoke a backend (exact or approxmc) by name "
        "against ground truth; repeatable (CI smokes approxmc so the "
        "non-default backend cannot rot)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the exact counter on a scope-5 instance and exit",
    )
    parser.add_argument(
        "--smoke-output", type=Path, default=None, metavar="PATH",
        help="with --quick: additionally write the measured medians as "
        "JSON (CI uploads this as an artifact and diffs it against the "
        "last BENCH_counting.json history entry)",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(REPO_ROOT / "src"))

    if args.profile:
        profile_hot_path()
        return

    if args.quick:
        print("quick smoke: counting-substrate ablations on reduced instances")
        cache_result = cache_ablation(scope=3, property_names=_ablation_properties()[:4])
        spill_result = component_spill_ablation(scope=3, fractions=(0.75, 0.5, 0.25))
        store_result = store_roundtrip_bench(entries=500)
        _print_ablations(cache_result, store_result, spill_result)
        for name in args.backend or ():
            backend_smoke(name)
        exact_median, gate_failure = perf_regression_smoke(args.output)
        if args.smoke_output is not None:
            # The machine-readable smoke record CI uploads as an artifact
            # and diffs against the recorded history (benchmarks/diff_smoke.py).
            # Written *before* the gate verdict fires so the numbers are
            # available precisely when the gate trips.
            smoke = {
                "mode": "quick",
                "cpu_count": os.cpu_count(),
                "exact_median_s": exact_median,
                "gate_failure": gate_failure,
                "ablations": {
                    "disk_cache": cache_result,
                    "component_spill": spill_result,
                    "store_roundtrip": store_result,
                },
            }
            args.smoke_output.write_text(json.dumps(smoke, indent=2) + "\n")
            print(f"  wrote smoke record to {args.smoke_output}")
        if gate_failure is not None:
            raise SystemExit(gate_failure)
        print("ok (quick mode never updates BENCH_counting.json)")
        return

    backends = run_benchmarks()
    if "exact" not in backends:
        raise SystemExit("no exact-counter benchmark result found")
    cache_result = cache_ablation(scope=4, property_names=_ablation_properties())
    spill_result = component_spill_ablation(
        scope=4,
        fractions=(0.75, 0.65, 0.55, 0.45, 0.35, 0.25, 0.15),
    )
    store_result = store_roundtrip_bench()

    document = {"instance": INSTANCE, "unit": "seconds", "history": []}
    if args.output.exists():
        document = json.loads(args.output.read_text())
    document["instance"] = INSTANCE
    document["unit"] = "seconds"
    document["backends"] = backends
    document["ablations"] = {
        "disk_cache": cache_result,
        "component_spill": spill_result,
        "store_roundtrip": store_result,
    }
    for name in args.backend or ():
        backend_smoke(name)

    # Backend + capability provenance: trajectory comparisons are only
    # apples-to-apples when successive entries counted with the same
    # contract, so each history entry records what produced its numbers.
    from repro.counting.api import backend_capabilities

    history = [
        entry for entry in document.get("history", []) if entry.get("label") != args.label
    ]
    history.append(
        {
            "label": args.label,
            "backend": "exact",
            "capabilities": backend_capabilities("exact").as_dict(),
            "exact_median_s": backends["exact"]["median_s"],
            "approxmc_median_s": backends["approxmc"]["median_s"],
            "cpu_count": os.cpu_count(),
            "warm_cache_backend_counts": cache_result["warm_backend_counts"],
            "warm_cache_speedup_x": cache_result["speedup_x"],
            "component_spill_speedup_x": spill_result["speedup_x"],
            "store_roundtrip_puts_per_s": store_result["puts_per_s"],
        }
    )
    document["history"] = history
    baseline = history[0]["exact_median_s"]
    document["speedup_vs_first_entry"] = round(
        baseline / backends["exact"]["median_s"], 2
    )
    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    for label, stats in sorted(backends.items()):
        print(f"  {label:>14}: median {stats['median_s'] * 1000:8.2f} ms")
    _print_ablations(cache_result, store_result, spill_result)


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Render a markdown diff of a --quick smoke record vs the recorded history.

CI runs ``run_bench.py --quick --smoke-output smoke.json`` and pipes this
script's output into ``$GITHUB_STEP_SUMMARY``, so a perf movement is
*visible* in the job summary — not just a pass/fail behind the 3x gate::

    python benchmarks/diff_smoke.py smoke.json >> "$GITHUB_STEP_SUMMARY"

The comparison baseline is the last ``history`` entry of
``BENCH_counting.json`` (the numbers the most recent PR recorded on the
recording machine).  CI hardware differs, so the ratios are context, not a
gate — the hard gate stays in ``run_bench.py --quick`` itself.
Exit code is always 0 unless the inputs are unreadable: this is a report,
not a check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: smoke-record field → (history field, unit, higher_is_better)
COMPARISONS = (
    ("exact_median_s", "exact_median_s", "s", False),
    ("disk_cache.speedup_x", "warm_cache_speedup_x", "x", True),
    ("component_spill.speedup_x", "component_spill_speedup_x", "x", True),
    ("store_roundtrip.puts_per_s", "store_roundtrip_puts_per_s", "/s", True),
)


def _smoke_value(smoke: dict, dotted: str):
    if "." not in dotted:
        return smoke.get(dotted)
    ablation, field = dotted.split(".", 1)
    return smoke.get("ablations", {}).get(ablation, {}).get(field)


def _fmt(value, unit: str) -> str:
    if value is None:
        return "—"
    if unit == "s":
        return f"{value * 1000:.1f} ms"
    if unit == "x":
        return f"{value}x"
    return f"{value:,.0f}{unit}"


def render(smoke: dict, history_entry: dict | None) -> str:
    lines = ["## Bench smoke vs recorded history", ""]
    if history_entry is None:
        lines.append("No recorded history entry to compare against.")
        return "\n".join(lines)
    label = history_entry.get("label", "?")
    cpu = smoke.get("cpu_count")
    lines.append(
        f"Baseline: **{label}** (recording machine) vs this runner "
        f"({cpu} cpu(s)).  Ratios are context — the hard 3x gate lives in "
        "`run_bench.py --quick`."
    )
    lines.append("")
    lines.append("| metric | smoke | recorded | ratio |")
    lines.append("|---|---|---|---|")
    for smoke_field, history_field, unit, higher_better in COMPARISONS:
        current = _smoke_value(smoke, smoke_field)
        recorded = history_entry.get(history_field)
        if current is None and recorded is None:
            continue
        ratio = "—"
        if current is not None and recorded:
            raw = current / recorded
            arrow = ""
            if raw > 1.05:
                arrow = " ⬆" if higher_better else " ⬇"
            elif raw < 0.95:
                arrow = " ⬇" if higher_better else " ⬆"
            ratio = f"{raw:.2f}{arrow}"
        lines.append(
            f"| {smoke_field} | {_fmt(current, unit)} | "
            f"{_fmt(recorded, unit)} | {ratio} |"
        )
    lines.append("")
    lines.append(
        "⬆ = better than recorded, ⬇ = worse (quick mode runs reduced "
        "instances, so absolute numbers differ from the full bench)."
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("smoke", type=Path, help="smoke JSON from --smoke-output")
    parser.add_argument(
        "--bench-json",
        type=Path,
        default=REPO_ROOT / "BENCH_counting.json",
        help="recorded trajectory to diff against",
    )
    args = parser.parse_args()
    try:
        smoke = json.loads(args.smoke.read_text())
    except (OSError, ValueError) as error:
        print(f"unreadable smoke record {args.smoke}: {error}", file=sys.stderr)
        return 1
    history_entry = None
    try:
        history = json.loads(args.bench_json.read_text()).get("history", [])
        if history:
            history_entry = history[-1]
    except (OSError, ValueError):
        pass  # no baseline: render the no-comparison report
    print(render(smoke, history_entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())

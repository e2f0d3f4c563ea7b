"""Command-line entry point: ``mcml <artifact> [options]``.

Examples::

    mcml figure2
    mcml table1
    mcml table1 --paper-scopes          # analytic verification at paper scopes
    mcml table3 --properties Reflexive PartialOrder --scope 4
    mcml table9 --backend approxmc      # ApproxMC estimates in every count
    mcml --list-backends                # the two counting backends
    mcml all                            # every artifact, reduced scopes

Every counting artifact runs through one :class:`repro.core.session.MCMLSession`
built from the parsed configuration: backend by name (``--backend``,
``exact`` or ``approxmc``), disk caches and the component cache all travel
on the session, and successive artifacts of an ``mcml all`` run share its
memos.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.counting.api import available_backends, backend_capabilities
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.spec.properties import property_names

ARTIFACTS = (
    "table1", "table2", "table3", "table4", "table5",
    "table6", "table7", "table8", "table9", "figure1", "figure2", "all",
)


def _integer_at_least(low: int):
    """An argparse type: an integer >= ``low``, checked at parse time (exit
    2, not a traceback)."""

    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= low:
            return int(text)
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _finite(accepts, expected: str):
    """An argparse type: a finite number ``accepts`` holds for."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and accepts(value):
            return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


#: ``--scope``/``--max-positives``/``--budget``.
_at_least_one = _integer_at_least(1)
#: ``--seed`` (numpy's seeding takes no negative integer).
_at_least_zero = _integer_at_least(0)
#: ``--train-fraction``.
_open_fraction = _finite(lambda v: 0 < v < 1, "a number strictly between 0 and 1")
#: ``--deadline``.
_positive = _finite(lambda v: v > 0, "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcml",
        description="Regenerate the tables and figures of the MCML paper (PLDI 2020).",
    )
    parser.add_argument(
        "artifact",
        choices=ARTIFACTS,
        nargs="?",
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--properties",
        nargs="+",
        choices=property_names(),
        metavar="NAME",
        default=None,
        help=f"subset of properties (default: all 16); choices: {', '.join(property_names())}",
    )
    parser.add_argument(
        "--scope", type=_at_least_one, default=None,
        help="override the scope for every property",
    )
    # ``choices`` makes an unknown name a usage error at parse time (exit
    # 2, listing both names), not a traceback once the session is built.
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="exact",
        metavar="NAME",
        help="counting backend: exact (the ProjMC stand-in, default) or "
        "approxmc (ApproxMC estimates); see --list-backends",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the counting backends with their capability flags and exit",
    )
    parser.add_argument("--seed", type=_at_least_zero, default=0)
    parser.add_argument(
        "--train-fraction", type=_open_fraction, default=0.10,
        help="training fraction for the generalization tables (default 0.10)",
    )
    parser.add_argument(
        "--max-positives", type=_at_least_one, default=5000,
        help="cap on bounded-exhaustive positive sets (default 5000)",
    )
    parser.add_argument(
        "--paper-scopes", action="store_true",
        help="table1 only: report at paper scopes using closed forms",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist model counts, compilations and the component cache "
        "to DIR so re-runs skip the work (default: off)",
    )
    parser.add_argument(
        "--deadline", type=_positive, default=None, metavar="SECONDS",
        help="wall-clock deadline on every count, Table 1's included "
        "(CounterTimeout past it, \"-\" in Table 1; default: none); the exact "
        "counter reads the clock every 128 search nodes, so a count that "
        "needs fewer finishes whatever the deadline",
    )
    parser.add_argument(
        "--budget", type=_at_least_one, default=None, metavar="NODES",
        help="search-node budget on every count, Table 1's included "
        "(CounterBudgetExceeded past it, \"-\" in Table 1; default: none)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="after the artifact(s), print the session's backend, "
        "capabilities and engine counters as JSON",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = dict(
        scope=args.scope,
        counter=args.backend,
        seed=args.seed,
        train_fraction=args.train_fraction,
        max_positives=args.max_positives,
        cache_dir=args.cache_dir,
        deadline=args.deadline,
        budget=args.budget,
    )
    if args.properties:
        kwargs["properties"] = tuple(args.properties)
    return ExperimentConfig(**kwargs)


#: ``Capabilities`` field → column header of the ``--list-backends`` table.
_CAPABILITY_COLUMNS = {"exact": "exact", "owns_component_cache": "components"}


def list_backends() -> str:
    """The capability table ``mcml --list-backends`` prints.

    One row per backend, one yes/no column per declared
    :class:`~repro.counting.api.Capabilities` flag — the same negotiation
    surface the engine routes on, so what this table says a backend can
    do is exactly what the engine will let it do.
    """
    rows = []
    for name in available_backends():
        caps = backend_capabilities(name).as_dict()
        rows.append([name, *("yes" if caps[f] else "no" for f in _CAPABILITY_COLUMNS)])
    header = ["backend", *_CAPABILITY_COLUMNS.values()]
    widths = [
        max(len(cells[i]) for cells in (header, *rows)) for i in range(len(header))
    ]

    def render(cells):
        return "  " + "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return "\n".join(["counting backends:", render(header), *map(render, rows)])


def run_artifact(
    artifact: str,
    config: ExperimentConfig,
    paper_scopes: bool = False,
    session=None,
) -> str:
    """Render one artifact, counting through ``session`` when given."""
    if artifact.startswith("table"):
        number = int(artifact[len("table"):])
        if session is not None:
            return session.table(number, config=config, paper_scopes=paper_scopes)
        with config.session() as owned:
            return owned.table(number, config=config, paper_scopes=paper_scopes)
    if artifact == "figure1":
        result = figures.figure1()
        return (
            "Figure 1: Alloy specification\n"
            + result.source
            + f"\nparsed predicates: {', '.join(result.predicates)}"
            + f"\ncommand {result.run_label}: scope {result.run_scope} -> CNF with "
            + f"{result.primary_vars} primary vars, {result.total_vars} total vars, "
            + f"{result.clauses} clauses"
        )
    if artifact == "figure2":
        solutions = figures.figure2()
        return figures.render_figure2(solutions)
    raise ValueError(f"unknown artifact {artifact!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_backends:
        print(list_backends())
        return 0
    if args.artifact is None:
        parser.error("an artifact is required (or --list-backends)")
    config = config_from_args(args)
    artifacts = (
        [a for a in ARTIFACTS if a != "all"]
        if args.artifact == "all"
        else [args.artifact]
    )
    # One session for the whole invocation: an ``mcml all`` run shares
    # translations and counts across artifacts instead of rebuilding the
    # plumbing per table.
    with config.session() as session:
        for artifact in artifacts:
            print(run_artifact(artifact, config, paper_scopes=args.paper_scopes, session=session))
            print()
        if args.stats:
            import json

            print(json.dumps(session.stats(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

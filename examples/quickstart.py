"""Quickstart: learn a relational property, then measure what you learned.

Trains a decision tree to recognise partial orders over a 4-atom universe,
scores it the traditional way (held-out test set) and the MCML way (exact
model counting over all 2^16 inputs) — reproducing the paper's headline
observation that the two disagree wildly.

Everything runs through one :class:`repro.core.session.MCMLSession`: the
session owns the counting engine (backend by registered name, caches,
optional disk persistence) and fronts dataset generation, training and
the whole-space metrics.

Run:  python examples/quickstart.py
"""

from repro.core.session import MCMLSession

SCOPE = 4
PROPERTY = "PartialOrder"


def main() -> None:
    with MCMLSession(backend="exact", seed=0) as session:
        # 1. Bounded-exhaustive positives + rejection-sampled negatives.
        dataset = session.pipeline.make_dataset(PROPERTY, SCOPE)
        train, test = dataset.split(train_fraction=0.10, rng=1)
        print(
            f"dataset: {len(dataset)} samples ({dataset.num_positive} positive), "
            f"training on {len(train)}"
        )

        # 2. Train an out-of-the-box decision tree.
        tree = session.pipeline.train("DT", train)
        print(f"tree: {tree.n_leaves()} leaves, depth {tree.depth()}")

        # 3. Traditional evaluation: looks excellent.
        from repro.ml.metrics import confusion_counts

        test_counts = confusion_counts(test.y, tree.predict(test.X.astype(float)))
        print("\ntraditional metrics (held-out test set):")
        for name, value in test_counts.as_dict().items():
            print(f"  {name:9s} {value:.4f}")

        # 4. MCML evaluation: the entire 2^16 input space, by model counting.
        result = session.accmc(tree, PROPERTY, SCOPE)
        print(f"\nMCML metrics (all 2^{SCOPE * SCOPE} inputs, {result.counter} counter):")
        for name, value in result.as_row().items():
            if name != "time":
                print(f"  {name:9s} {value:.4f}")
        counts = result.counts
        print(f"  counts    tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}")
        print(
            "\nthe gap between test precision "
            f"({test_counts.precision:.4f}) and whole-space precision "
            f"({result.precision:.4f}) is the paper's point: test sets flatter."
        )
        print(f"\nsession telemetry: {session.engine!r}")


if __name__ == "__main__":
    main()

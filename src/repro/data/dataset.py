"""Dataset container and split policies."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The five training:test ratios evaluated in the paper (Section 5).
PAPER_SPLIT_RATIOS = (0.75, 0.50, 0.25, 0.10, 0.01)


@dataclass
class Dataset:
    """Feature matrix (flattened adjacency bits) plus binary labels."""

    X: np.ndarray  # (n_samples, scope²) uint8
    y: np.ndarray  # (n_samples,) int64, 1 = satisfies the property
    scope: int
    property_name: str
    symmetry: str | None = None  # symmetry-breaking kind used, if any

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.uint8)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[1] != self.scope**2:
            raise ValueError(
                f"X must be (n, {self.scope ** 2}), got {self.X.shape}"
            )
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match X rows")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def num_positive(self) -> int:
        return int(self.y.sum())

    @property
    def num_negative(self) -> int:
        return len(self) - self.num_positive

    def split(
        self,
        train_fraction: float,
        rng: np.random.Generator | int | None = 0,
        stratified: bool = True,
    ) -> tuple["Dataset", "Dataset"]:
        """Random train/test split with no overlap.

        The paper stresses that training rows are a *random* subset, not a
        prefix of the solver's enumeration order; shuffling here provides
        that.  Stratification keeps both classes present even at the 1:99
        ratio.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        n = len(self)
        if stratified:
            train_idx: list[np.ndarray] = []
            test_idx: list[np.ndarray] = []
            for label in (0, 1):
                members = np.flatnonzero(self.y == label)
                rng.shuffle(members)
                cut = max(1, round(train_fraction * len(members))) if len(members) else 0
                cut = min(cut, len(members) - 1) if len(members) > 1 else cut
                train_idx.append(members[:cut])
                test_idx.append(members[cut:])
            train = np.concatenate(train_idx)
            test = np.concatenate(test_idx)
            rng.shuffle(train)
            rng.shuffle(test)
        else:
            order = rng.permutation(n)
            cut = max(1, round(train_fraction * n))
            train, test = order[:cut], order[cut:]
        return self._take(train), self._take(test)

    def _take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            X=self.X[indices],
            y=self.y[indices],
            scope=self.scope,
            property_name=self.property_name,
            symmetry=self.symmetry,
        )

    def subsample(
        self, max_rows: int, rng: np.random.Generator | int | None = 0
    ) -> "Dataset":
        """A stratified random subset of at most ``max_rows`` rows."""
        if len(self) <= max_rows:
            return self
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        fraction = max_rows / len(self)
        kept, _ = self.split(fraction, rng=rng)
        return kept

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            X=self.X,
            y=self.y,
            scope=self.scope,
            property_name=self.property_name,
            symmetry=self.symmetry if self.symmetry is not None else "",
        )

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        with np.load(path, allow_pickle=False) as data:
            symmetry = str(data["symmetry"])
            return cls(
                X=data["X"],
                y=data["y"],
                scope=int(data["scope"]),
                property_name=str(data["property_name"]),
                symmetry=symmetry or None,
            )

"""Tabular dataset loading, the global 80-20 holdout and client sharding.

Datasets arrive as CSV feature tables with a header row and one label column.
Rows with unparsable or missing cells are dropped (and counted) rather than
imputed. Splits are stratified and fully determined by their seed.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


class DatasetError(ValueError):
    """Raised for unreadable files, bad labels or infeasible splits."""


# The benchmark datasets by name: published shape and class balance (checked
# against a loaded file of that name), the label column and the distribution
# file names tried in order when a name has no manifest section. The synth-*
# surrogates copy their shapes from here.
@dataclass(frozen=True)
class DatasetProfile:
    n_samples: int
    n_features: int
    n_benign: int
    n_malware: int
    label_column: str
    file_names: tuple[str, ...]


KNOWN_DATASETS: dict[str, DatasetProfile] = {
    "malgenome": DatasetProfile(
        3799, 215, 2539, 1260, "class",
        ("malgenome.csv", "malgenome-215-dataset-1260malware-2539-benign.csv")),
    "drebin": DatasetProfile(
        15036, 215, 9476, 5560, "class",
        ("drebin.csv", "drebin-215-dataset-5560malware-9476-benign.csv")),
    # The published class counts of these two do not sum to their row totals;
    # the benign count absorbs the difference so the majority (malware) count
    # is kept.
    "tuandromd": DatasetProfile(4465, 241, 900, 3565, "Label", ("tuandromd.csv", "TUANDROMD.csv")),
    "kronodroid": DatasetProfile(78137, 463, 36755, 41382, "Malware", ("kronodroid.csv",)),
}

# Label spellings seen across the public feature tables. Matching is
# case-insensitive; benign maps to 0 and malware to 1.
DEFAULT_LABEL_MAP: dict[str, int] = {
    "0": 0,
    "1": 1,
    "b": 0,
    "s": 1,
    "benign": 0,
    "goodware": 0,
    "malware": 1,
}


@dataclass
class Dataset:
    """An in-memory feature table with binary labels (1 = malware)."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    n_dropped: int = 0

    def __len__(self) -> int:
        return self.labels.size

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(benign, malware) sample counts."""
        pos = int(self.labels.sum())
        return self.labels.size - pos, pos

    def subset(self, indices, name: str | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            name=name or self.name,
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the global train/test holdout."""

    holdout_fraction: float = 0.20
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}")


@dataclass
class ClientShard:
    """One client's private slice: local training data plus a local test split."""

    client_id: int
    train: Dataset
    local_test: Dataset
    # Row indices into the parent training set, kept for disjointness checks.
    train_indices: np.ndarray
    test_indices: np.ndarray


def load_csv(path, label_column: str, label_mapping: dict[str, int] | None = None,
             name: str | None = None) -> Dataset:
    """Load a header-ed CSV feature table into a Dataset.

    ``label_mapping`` translates textual classes to {0, 1}; when omitted the
    default map (B/S, benign/malware/goodware, 0/1) applies. Rows containing
    cells that do not parse as finite numbers are dropped and counted. A label
    value missing from the mapping is an error; an empty label cell drops the
    row like any other missing value.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"dataset file not found: {path}")
    mapping = {k.lower(): v for k, v in (label_mapping or DEFAULT_LABEL_MAP).items()}
    name = name or path.stem

    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetError(f"{path}: label column {label_column!r} not in header") from None

        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        rows: list[np.ndarray] = []
        labels: list[int] = []
        dropped = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                dropped += 1
                continue
            raw_label = row[label_idx].strip()
            if not raw_label:
                dropped += 1
                continue
            if raw_label.lower() not in mapping:
                raise DatasetError(f"{path}:{lineno}: unknown label value {raw_label!r}")
            cells = row[:label_idx] + row[label_idx + 1 :]
            try:
                values = np.array(cells, dtype=np.float64)
            except ValueError:
                dropped += 1
                continue
            if not np.isfinite(values).all():
                dropped += 1
                continue
            rows.append(values)
            labels.append(mapping[raw_label.lower()])

    if not rows:
        raise DatasetError(f"{path}: no usable data rows")
    ds = Dataset(
        name=name,
        features=np.vstack(rows),
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=feature_names,
        n_dropped=dropped,
    )
    if dropped:
        log.warning("%s: dropped %d rows with missing or non-numeric cells", name, dropped)
    benign, malware = ds.class_counts()
    if benign == 0 or malware == 0:
        raise DatasetError(f"{path}: labels contain a single class only")
    _check_known_profile(ds)
    return ds


def _check_known_profile(ds: Dataset) -> None:
    profile = KNOWN_DATASETS.get(ds.name.lower())
    if profile is None:
        return
    benign, malware = ds.class_counts()
    actual = (len(ds), ds.n_features, benign, malware)
    expected = (profile.n_samples, profile.n_features, profile.n_benign, profile.n_malware)
    if actual != expected:
        log.warning(
            "%s: loaded shape %s differs from the published reference %s "
            "(samples, features, benign, malware)", ds.name, actual, expected,
        )


def min_max_scale(ds: Dataset) -> Dataset:
    """Column-wise min-max scaling to [0, 1]; constant columns map to 0."""
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return Dataset(
        name=ds.name,
        features=(ds.features - lo) / span,
        labels=ds.labels.copy(),
        feature_names=ds.feature_names,
        n_dropped=ds.n_dropped,
    )


def _stratified_test_indices(labels: np.ndarray, fraction: float,
                             rng: np.random.Generator, clamp: bool) -> np.ndarray:
    """Shuffled per-class test picks; ``clamp`` forces 1 <= picks <= n_c - 1."""
    parts = []
    for cls in np.unique(labels):
        cls_idx = rng.permutation(np.flatnonzero(labels == cls))
        k = int(round(fraction * cls_idx.size))
        if clamp:
            if cls_idx.size < 2:
                raise DatasetError(f"class {cls} has {cls_idx.size} sample(s); cannot split")
            k = min(max(k, 1), cls_idx.size - 1)
        parts.append(cls_idx[:k])
    return np.concatenate(parts)


def holdout_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split into (train, test) with |test| ~= holdout_fraction * |ds|.

    Stratified mode draws round(fraction * n_c) samples per class, keeping
    class ratios within one sample per class; it requires at least 5 samples
    of each class. Deterministic for a fixed spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    n = len(ds)
    if spec.stratified:
        benign, malware = ds.class_counts()
        if min(benign, malware) < 5:
            raise DatasetError(
                f"{ds.name}: need >= 5 samples per class for a stratified split "
                f"(got benign={benign}, malware={malware})")
        test_idx = _stratified_test_indices(ds.labels, spec.holdout_fraction, rng, clamp=False)
    else:
        test_idx = rng.permutation(n)[: int(round(spec.holdout_fraction * n))]
    test_idx = np.sort(test_idx)
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    return (
        ds.subset(train_idx, f"{ds.name}[train]"),
        ds.subset(test_idx, f"{ds.name}[test]"),
    )


def partition_clients(train: Dataset, n_clients: int, local_test_fraction: float = 0.20,
                      seed: int = 0) -> list[ClientShard]:
    """Partition training data into IID client shards with inner local splits.

    Shards are disjoint, cover the training set and differ in size by at most
    one (earlier clients absorb the remainder). Within each shard a stratified
    split reserves ``local_test_fraction`` for the client's own accuracy
    measurement; both sides of that inner split keep at least one sample per
    class.
    """
    if n_clients < 2:
        raise ValueError(f"n_clients must be >= 2, got {n_clients}")
    if not 0.0 < local_test_fraction < 1.0:
        raise ValueError(f"local_test_fraction must lie in (0, 1), got {local_test_fraction}")
    n = len(train)
    if n < 2 * n_clients:
        raise DatasetError(f"{train.name}: {n} samples cannot fill {n_clients} clients")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, rem = divmod(n, n_clients)
    shards: list[ClientShard] = []
    start = 0
    for cid in range(n_clients):
        size = base + (1 if cid < rem else 0)
        chunk = np.sort(perm[start : start + size])
        start += size
        shard_labels = train.labels[chunk]
        if len(np.unique(shard_labels)) < 2:
            raise DatasetError(
                f"{train.name}: client {cid} received a single-class shard; "
                "too few samples per client")
        try:
            local_pick = _stratified_test_indices(shard_labels, local_test_fraction, rng, clamp=True)
        except DatasetError as exc:
            raise DatasetError(f"{train.name}: client {cid}: {exc}; too few samples per client") from None
        local_mask = np.ones(size, dtype=bool)
        local_mask[local_pick] = False
        test_idx = chunk[np.sort(local_pick)]
        train_idx = chunk[local_mask]
        shards.append(
            ClientShard(
                client_id=cid,
                train=train.subset(train_idx, f"{train.name}/client{cid}[train]"),
                local_test=train.subset(test_idx, f"{train.name}/client{cid}[test]"),
                train_indices=train_idx,
                test_indices=test_idx,
            )
        )
    return shards

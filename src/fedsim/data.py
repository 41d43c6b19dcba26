"""Tabular dataset loading, the global 80-20 holdout and client sharding.

Datasets arrive as CSV feature tables with a header row and one label column.
Rows with unparsable or missing cells are dropped (and counted) rather than
imputed. Splits are row indices into the one loaded table; they draw the same
share of every class and are fully determined by their seed.
"""
from __future__ import annotations

import csv
import itertools
import logging
from collections.abc import Iterator
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
    """An in-memory feature table with binary labels (1 = malware).

    ``features`` is (rows, features), float64 or, for a table of small
    integers such as 0/1 indicators, uint8 (the rule of ``_narrow_into``,
    applied as the table is written by ``load_csv``, the synthetic
    surrogates and ``min_max_scale``): training and scoring cast only the
    rows they read to float64, so either dtype gives the same bits.
    """

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


@dataclass
class ClientShard:
    """One client's private slice of a shared table: its training and local test row indices."""

    train: np.ndarray
    local_test: np.ndarray


# Lines per block (one byte read or np.loadtxt call), and records per block
# of a quoted body. A block that holds a line the C reader rejects goes
# through the row rules whole, so a larger block pays the per-block overhead
# less often but reads more lines by rule around each bad one.
_BLOCK_LINES = 32


def load_csv(path, label_column: str, label_mapping: dict[str, int] | None = None,
             name: str | None = None) -> Dataset:
    """Load a header-ed UTF-8 CSV feature table (with or without a BOM) into a Dataset.

    ``label_mapping`` translates textual classes to {0, 1}, its keys and the
    label cells compared stripped and case-insensitively (an empty key, or two
    keys equal when so compared, is an error); when omitted the default map
    (B/S, benign/malware/goodware, 0/1) applies. Rows containing cells that
    do not parse as finite numbers are dropped and counted. A label value
    missing from the mapping is an error; an empty label cell drops the row
    like any other missing value.

    The body is read in blocks (see ``_body_blocks``). A body without a
    ``"`` is read in blocks of lines: a block of one-character cells, every
    feature a digit, straight from its bytes, any other block by numpy's C
    reader, and a block that fails both by the row rules. A body with a
    ``"`` is read in blocks of records by the row rules alone, at the speed
    of a per-row loop, because a quoted cell may hold a comma or a line end.
    Either way the table is uint8 while every block's values pass the rule
    of ``_narrow_into``, so a 0/1 table takes one byte per cell from the
    start, and float64 from the first block that fails it.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"dataset file not found: {path}")
    label_mapping = label_mapping or DEFAULT_LABEL_MAP
    keys: dict[str, str] = {}  # normalised key -> the key as given
    for key in label_mapping:
        first = keys.setdefault(key.strip().lower(), key)
        if first != key:
            raise DatasetError(f"{path}: label map keys {first!r} and {key!r} name one label")
    mapping = {norm: label_mapping[key] for norm, key in keys.items()}
    if "" in mapping:  # an empty label cell drops its row; it cannot also name a class
        raise DatasetError(f"{path}: the label map holds an empty label")
    name = name or path.stem

    # Split at the line ends csv splits records at (str.splitlines knows more).
    lines = _read_text(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    with path.open(newline="", encoding="utf-8-sig") as fh:
        records = csv.reader(fh)
        header = next(records, None)
        if header is None:
            raise DatasetError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        label_idx = _label_index(path, header, label_column)
        del lines[: records.line_num]  # the header's lines
        # A record spans at least one line, so the lines bound the rows.
        n_features = len(header) - 1
        features = np.empty((len(lines), n_features), dtype=np.uint8)
        labels = np.empty(len(lines), dtype=np.int64)
        n = dropped = 0
        for rows, block_labels, block_dropped in _body_blocks(path, records, lines, label_idx,
                                                              mapping, n_features):
            features = _write_rows(features, n, rows)
            labels[n : n + len(rows)] = block_labels
            n += len(rows)
            dropped += block_dropped
    if not n:
        raise DatasetError(f"{path}: no usable data rows")
    if n < len(labels):  # own the kept rows, so the buffer sized for every line is freed
        features, labels = features[:n].copy(), labels[:n].copy()
    ds = Dataset(
        name=name,
        features=features,
        labels=labels,
        feature_names=[h for i, h in enumerate(header) if i != label_idx],
        n_dropped=dropped,
    )
    if dropped:
        log.warning("%s: dropped %d rows with missing or non-numeric cells", name, dropped)
    benign, malware = ds.class_counts()
    if benign == 0 or malware == 0:
        raise DatasetError(f"{path}: labels contain a single class only")
    _check_known_profile(ds)
    return ds


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8, less a leading BOM (the utf-8-sig codec)."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                           f"at offset {exc.start}") from None


def _label_index(path: Path, header: list[str], label_column: str) -> int:
    positions = [i for i, h in enumerate(header) if h == label_column]
    if not positions:
        raise DatasetError(f"{path}: label column {label_column!r} not in header")
    if len(positions) > 1:
        raise DatasetError(f"{path}: label column {label_column!r} appears more than once in "
                           f"the header, at columns {', '.join(str(i + 1) for i in positions)}")
    if len(header) == 1:
        raise DatasetError(f"{path}: no feature column besides label column {label_column!r}")
    return positions[0]


def _body_blocks(path: Path, records, lines: list[str], label_idx: int, mapping: dict[str, int],
                 n_features: int) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """(float64 or uint8 features, labels, dropped) of each block of the body, kept rows only.

    ``records`` is the ``csv.reader`` of the file past its header and ``lines``
    the body's lines. Unquoted lines go in blocks of ``_BLOCK_LINES`` to
    ``_read_block``, and a block it rejects through the row rules. A body
    with a ``"`` goes through the row rules ``_BLOCK_LINES`` records at a
    time; its ``lines`` are cleared first, to free them. The row rules write
    into one float64 scratch, so their rows are valid until the next block.
    """
    scratch = np.empty((_BLOCK_LINES, n_features)), np.empty(_BLOCK_LINES, dtype=np.int64)
    if any('"' in line for line in lines):
        lines.clear()
        while True:
            rows, block_labels, dropped = _rows_by_rule(path, records, 0, label_idx, mapping,
                                                        *scratch)
            yield rows, block_labels, dropped
            if len(rows) + dropped < _BLOCK_LINES:  # the records ran out
                return
    offset = records.line_num  # the file line before the first body line
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        try:
            found = *_read_block(block, label_idx, mapping, n_features), 0
        except ValueError:
            found = _rows_by_rule(path, csv.reader(block), offset + start, label_idx, mapping,
                                  *scratch)
        yield found


def _write_rows(features: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """``features`` with ``rows`` written from row ``n`` on, widened to float64 if need be.

    uint8 ``rows`` (digits) and any rows of a float64 table are written as
    they are; float64 rows, from numpy's C reader or the row rules, quoted
    body or not, go into a uint8 table when they pass ``_narrow_into``'s
    rule. At the first rows that fail it, the table is widened once: its rows
    so far are copied to float64, exactly, and the returned table is that
    copy.
    """
    out = features[n : n + len(rows)]
    if features.dtype == rows.dtype or features.dtype == np.float64:
        out[...] = rows
    elif not _narrow_into(rows, out):
        features = features.astype(np.float64)
        features[n : n + len(rows)] = rows
    return features


def _read_block(lines: list[str], label_idx: int, mapping: dict[str, int],
                n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of unquoted lines, one row per line.

    A block of one-character cells, every feature an ASCII digit, is read
    from its bytes into uint8 digits (see ``_one_character_block``). Any other
    block goes to numpy's C reader, which gives every cell it accepts the
    double ``float()`` gives it. A ValueError means it rejects the block (a
    cell it cannot parse, an empty or unknown label, a ragged row), would
    misread it (it skips blank lines), returns its rows in the wrong shape or
    holds a cell that is not finite: the row rules drop such rows.
    """
    if "" in lines:
        raise ValueError("blank line")
    block = _one_character_block(lines, n_features + 1, label_idx, mapping)
    if block is not None:
        return block
    table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, dtype=np.float64,
                       ndmin=2, converters={label_idx: lambda cell: mapping[cell.strip().lower()]})
    if table.shape != (len(lines), n_features + 1):
        raise ValueError(f"rows of shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("a cell that is not finite")
    return np.delete(table, label_idx, axis=1), table[:, label_idx]


def _one_character_block(lines: list[str], n_cols: int, label_idx: int,
                         mapping: dict[str, int]) -> tuple[np.ndarray, np.ndarray] | None:
    """(feature digits as uint8, label values) of lines of one-character cells, else None.

    Every line must hold exactly ``n_cols`` cells, each cell one byte
    followed by a comma (the last by the line end), every feature byte must be
    a digit and every label byte must map by the C reader's converter rule. A
    one-digit cell is the double ``float()`` gives it, so the block reads as
    loadtxt would read it; a block that fails a check returns None unread, for
    loadtxt to take.
    """
    text = ("\n".join(lines) + "\n").encode()
    if len(text) != 2 * n_cols * len(lines):
        return None
    # With a comma or line end at every other byte, as checked next, a
    # multi-byte character has no place to sit: every cell is one ASCII byte.
    cells = np.frombuffer(text, dtype=np.uint8).reshape(len(lines), 2 * n_cols)
    if not (cells[:, 1::2] == np.frombuffer(b"," * (n_cols - 1) + b"\n", dtype=np.uint8)).all():
        return None
    label_bytes = cells[:, 2 * label_idx]
    digits = np.delete(cells[:, ::2], label_idx, axis=1)
    digits -= np.uint8(ord("0"))  # a byte below "0" wraps above 9
    if digits.max() > 9:
        return None
    values = np.zeros(256)
    for byte in set(label_bytes.tolist()):
        key = chr(byte).strip().lower()
        # A comma label would hide one more cell from the row-length rule.
        if byte == ord(",") or key not in mapping:
            return None
        values[byte] = mapping[key]
    return digits, values[label_bytes]


def _rows_by_rule(path: Path, records, offset: int, label_idx: int, mapping: dict[str, int],
                  features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(features, labels, dropped) of the next ``len(features)`` records of a ``csv.reader``,
    read one at a time: the kept rows are written first and returned as views.

    A row is dropped when its length differs from the header's, its label is
    empty, or a feature cell is not a finite number; an unknown label is an
    error naming its file line, ``offset`` plus the reader's ``line_num``.
    """
    n_cols = features.shape[1] + 1
    n = dropped = 0
    for row in itertools.islice(records, len(features)):
        if len(row) != n_cols:
            dropped += 1
            continue
        raw_label = row[label_idx].strip()
        if not raw_label:
            dropped += 1
            continue
        if raw_label.lower() not in mapping:
            raise DatasetError(f"{path}:{offset + records.line_num}: unknown label value "
                               f"{raw_label!r}")
        try:
            features[n] = row[:label_idx] + row[label_idx + 1 :]
        except ValueError:
            dropped += 1
            continue
        if not np.isfinite(features[n]).all():
            dropped += 1
            continue
        labels[n] = mapping[raw_label.lower()]
        n += 1
    return features[:n], labels[:n], dropped


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
    """Scale ``ds.features`` column-wise to [0, 1] in place; constant columns map to 0.

    Returns ``ds``. Copy the features first to keep the raw values. A uint8
    table whose every column holds at most two values, such as a 0/1 or a
    {0, 2} table, stays uint8: its scaled value ``(x - lo) / (hi - lo)`` is
    ``x != lo``, 0 or 1, the value the float64 path gives. Any other table
    that is not float64 is replaced by a scaled float64 copy, and a float64
    table stays float64 whatever its scaled values.
    """
    if ds.features.dtype == np.uint8:
        lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
        if (hi - lo <= 1).all() or ((ds.features == lo) | (ds.features == hi)).all():
            np.not_equal(ds.features, lo, out=ds.features)
            return ds
    if ds.features.dtype != np.float64:
        ds.features = ds.features.astype(np.float64)
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    ds.features -= lo
    ds.features /= np.where(hi > lo, hi - lo, 1.0)
    return ds


def _narrow_into(block: np.ndarray, out: np.ndarray) -> bool:
    """Whether every value of the float64 ``block`` is an integer in 0..255 that casts back to
    its own float64 bits; ``out``, uint8 of the block's shape, then holds the values. When it
    is not, ``out`` holds no meaningful values.

    This is the one rule for holding a table as uint8: a 0/1 indicator table
    takes one byte per cell, while a table with a fraction, a value outside
    0..255 or a -0.0 stays float64. ``load_csv`` applies it block by block as
    it writes its table, and ``synth`` and ``min_max_scale`` keep to it.
    """
    if block.size and not (block.min() >= 0.0 and block.max() <= 255.0):  # nan fails both
        return False
    np.copyto(out, block, casting="unsafe")
    return np.array_equal(out.astype(np.float64).view(np.uint64), block.view(np.uint64))


def _per_class_test_indices(labels: np.ndarray, fraction: float,
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


def holdout_split(ds: Dataset, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (train, test) row indices of ``ds``, |test| ~= fraction * |ds|, drawn class by class.

    Draws round(fraction * n_c) samples per class, keeping class ratios within
    one sample per class; it requires at least 5 samples of each class and a
    fraction that draws at least one of each.
    Deterministic for a fixed seed.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must lie in (0, 1), got {fraction}")
    benign, malware = ds.class_counts()
    if min(benign, malware) < 5:
        raise DatasetError(
            f"{ds.name}: need >= 5 samples per class for a holdout split "
            f"(got benign={benign}, malware={malware})")
    for cls, count in enumerate((benign, malware)):
        if round(fraction * count) == 0:
            raise DatasetError(f"{ds.name}: holdout fraction {fraction} draws no sample of "
                               f"class {cls} ({count} samples)")
    rng = np.random.default_rng(seed)
    test_idx = np.sort(_per_class_test_indices(ds.labels, fraction, rng, clamp=False))
    mask = np.ones(len(ds), dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def partition_clients(ds: Dataset, rows: np.ndarray, n_clients: int,
                      local_test_fraction: float = 0.20, seed: int = 0) -> list[ClientShard]:
    """Deal the ``rows`` of ``ds`` out into IID client shards with inner local splits.

    Shards are disjoint, cover ``rows`` and differ in size by at most one
    (earlier clients absorb the remainder); each holds index arrays into
    ``ds``, in the order of ``rows``. Within each shard a per-class split
    reserves ``local_test_fraction`` for the client's own accuracy measurement;
    both sides of that inner split keep at least one sample per class.
    """
    if n_clients < 2:
        raise ValueError(f"n_clients must be >= 2, got {n_clients}")
    if not 0.0 < local_test_fraction < 1.0:
        raise ValueError(f"local_test_fraction must lie in (0, 1), got {local_test_fraction}")
    n = len(rows)
    if n < 2 * n_clients:
        raise DatasetError(f"{ds.name}: {n} samples cannot fill {n_clients} clients")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, rem = divmod(n, n_clients)
    shards: list[ClientShard] = []
    start = 0
    for cid in range(n_clients):
        size = base + (1 if cid < rem else 0)
        chunk = rows[np.sort(perm[start : start + size])]
        start += size
        shard_labels = ds.labels[chunk]
        if len(np.unique(shard_labels)) < 2:
            raise DatasetError(
                f"{ds.name}: client {cid} received a single-class shard; "
                "too few samples per client")
        try:
            local_pick = _per_class_test_indices(shard_labels, local_test_fraction, rng, clamp=True)
        except DatasetError as exc:
            raise DatasetError(f"{ds.name}: client {cid}: {exc}; too few samples per client") from None
        local_mask = np.ones(size, dtype=bool)
        local_mask[local_pick] = False
        shards.append(ClientShard(chunk[local_mask], chunk[np.sort(local_pick)]))
    return shards

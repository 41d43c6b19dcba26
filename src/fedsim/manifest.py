"""Run manifests: dataset declarations, the experiment grid and defaults.

Manifests are INI files (flat key=value under section headers) so they parse
with the standard library alone. Every value can be overridden by the CLI
flag of the same name. Dataset sections look like::

    [dataset.malgenome]
    path = data/malgenome.csv
    label_column = class
    labels = B:0, S:1

Names without a section fall back to, in order: the bundled synthetic
registry (``synth-*``), then well-known benchmark file names searched under
$FEDSIM_DATA_DIR and ./data.
"""
from __future__ import annotations

import configparser
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .aggregation import AggregationStrategy
from .data import KNOWN_DATASETS, Dataset, DatasetError, load_csv, min_max_scale
from .federation import DEFAULT_HIDDEN_DIMS
from .synth import SURROGATES, resolve_synthetic

log = logging.getLogger(__name__)

DATA_DIR_ENV = "FEDSIM_DATA_DIR"

TABLES_GRID_DATASETS = tuple(KNOWN_DATASETS)
TABLES_GRID_CLIENTS = (5, 10, 15)
TABLES_GRID_ROUNDS = (10, 20)


class ConfigError(ValueError):
    """Invalid manifest contents or unresolvable dataset references."""


@dataclass
class DatasetEntry:
    name: str
    path: str
    label_column: str = "class"
    label_map: dict[str, int] | None = None
    scale: bool = False


@dataclass
class RunManifest:
    """Everything the runner needs: datasets, grid and hyperparameter defaults."""

    datasets: dict[str, DatasetEntry] = field(default_factory=dict)
    grid_datasets: list[str] = field(default_factory=lambda: ["synth-small"])
    grid_clients: list[int] = field(default_factory=lambda: [5])
    grid_rounds: list[int] = field(default_factory=lambda: [10])
    grid_strategies: list[AggregationStrategy] = field(
        default_factory=lambda: [AggregationStrategy.FEDAVG, AggregationStrategy.DW_FEDAVG])
    alpha: float = 0.2
    learning_rate: float = 0.01
    batch_size: int = 32
    local_epochs: int = 5
    repeats: int = 5
    master_seed: int = 42
    holdout_fraction: float = 0.20
    local_test_fraction: float = 0.20
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    out_dir: Path = Path("results")
    base_dir: Path = Path(".")

    def __post_init__(self) -> None:
        self._cache: dict[str, Dataset] = {}
        self._cache_lock = threading.Lock()

    @classmethod
    def load(cls, path) -> "RunManifest":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"manifest not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None

        m = cls(base_dir=path.parent)
        if parser.has_section("defaults"):
            d = parser["defaults"]
            m.alpha = _get(d, "alpha", float, m.alpha)
            m.learning_rate = _get(d, "learning_rate", float, _get(d, "lr", float, m.learning_rate))
            m.batch_size = _get(d, "batch_size", int, m.batch_size)
            m.local_epochs = _get(d, "local_epochs", int, m.local_epochs)
            m.repeats = _get(d, "repeats", int, m.repeats)
            m.master_seed = _get(d, "master_seed", int, _get(d, "seed", int, m.master_seed))
            m.holdout_fraction = _get(d, "holdout_fraction", float, m.holdout_fraction)
            m.local_test_fraction = _get(d, "local_test_fraction", float, m.local_test_fraction)
            if "hidden_dims" in d:
                m.hidden_dims = tuple(_int_list(d["hidden_dims"], "hidden_dims"))
        if parser.has_section("grid"):
            g = parser["grid"]
            if "datasets" in g:
                m.grid_datasets = _str_list(g["datasets"])
            if "clients" in g:
                m.grid_clients = _int_list(g["clients"], "clients")
            if "rounds" in g:
                m.grid_rounds = _int_list(g["rounds"], "rounds")
            if "strategies" in g:
                m.grid_strategies = [_parse_strategy(s) for s in _str_list(g["strategies"])]
        if parser.has_section("output") and "dir" in parser["output"]:
            m.out_dir = Path(parser["output"]["dir"])

        for section in parser.sections():
            if not section.startswith("dataset."):
                continue
            name = section.split(".", 1)[1].strip().lower()
            sec = parser[section]
            if "path" not in sec:
                raise ConfigError(f"{path}: [{section}] is missing the 'path' key")
            m.datasets[name] = DatasetEntry(
                name=name,
                path=sec["path"],
                label_column=sec.get("label_column", "class"),
                label_map=_parse_label_map(sec.get("labels", "")) or None,
                scale=sec.getboolean("scale", fallback=False),
            )
        if not m.grid_datasets or not m.grid_clients or not m.grid_rounds or not m.grid_strategies:
            raise ConfigError(f"{path}: experiment grid must not be empty")
        return m

    def validate_grid_datasets(self) -> None:
        """Fail early (with the entry name) if a grid dataset cannot be resolved."""
        for name in self.grid_datasets:
            self._locate(name)

    def resolve_dataset(self, name: str) -> Dataset:
        """Load (and cache) a dataset by name; thread-safe."""
        key = name.strip().lower()
        # One lock around check, load and store: concurrent cells asking for
        # the same name wait for the first load instead of repeating it.
        with self._cache_lock:
            if key not in self._cache:
                self._cache[key] = self._load_dataset(key)
            return self._cache[key]

    def _locate(self, name: str):
        """Return ('entry', DatasetEntry) / ('synth', name) / ('file', path, column)."""
        key = name.strip().lower()
        if key in self.datasets:
            entry = self.datasets[key]
            resolved = self._resolve_path(entry.path)
            if resolved is None:
                raise ConfigError(
                    f"dataset '{key}': path '{entry.path}' not found "
                    f"(searched manifest dir and ${DATA_DIR_ENV})")
            return ("entry", entry, resolved)
        if key in SURROGATES:
            return ("synth", key)
        if key in KNOWN_DATASETS:
            found = self._search_known(key)
            if found is not None:
                return ("file", found, KNOWN_DATASETS[key].label_column)
            raise ConfigError(
                f"dataset '{key}': no manifest entry and no CSV found under "
                f"${DATA_DIR_ENV} or ./data; fetch the dataset (see README) or "
                f"use 'synth-{key}' for the bundled surrogate")
        raise ConfigError(f"unknown dataset '{key}' (no manifest entry, not a synth-* name)")

    def _load_dataset(self, key: str) -> Dataset:
        located = self._locate(key)
        if located[0] == "synth":
            ds = resolve_synthetic(key)
            assert ds is not None
            return ds
        if located[0] == "entry":
            _, entry, resolved = located
            ds = load_csv(resolved, entry.label_column, entry.label_map, name=key)
            return min_max_scale(ds) if entry.scale else ds
        _, found, column = located
        return load_csv(found, column, name=key)

    def _resolve_path(self, raw: str) -> Path | None:
        p = Path(raw)
        candidates = [p] if p.is_absolute() else [self.base_dir / p, *self._data_dirs(p)]
        for c in candidates:
            if c.is_file():
                return c
        return None

    def _data_dirs(self, rel: Path) -> list[Path]:
        env = os.environ.get(DATA_DIR_ENV)
        return [Path(env) / rel] if env else []

    def _search_known(self, key: str) -> Path | None:
        roots = []
        env = os.environ.get(DATA_DIR_ENV)
        if env:
            roots.append(Path(env))
        roots.append(Path("data"))
        roots.append(self.base_dir / "data")
        for root in roots:
            for candidate in KNOWN_DATASETS[key].file_names:
                p = root / candidate
                if p.is_file():
                    return p
        return None


def _get(section, key: str, conv, default):
    if key not in section:
        return default
    try:
        return conv(section[key])
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse {section[key]!r}") from None


def _str_list(raw: str) -> list[str]:
    return [part.strip().lower() for part in raw.split(",") if part.strip()]


def _int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(part) for part in _str_list(raw)]
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated integers, got {raw!r}") from None


def _parse_strategy(name: str) -> AggregationStrategy:
    try:
        return AggregationStrategy.parse(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_label_map(raw: str) -> dict[str, int]:
    mapping: dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"label mapping entry {part!r} is not 'text:0|1'")
        text, _, value = part.partition(":")
        try:
            mapping[text.strip()] = int(value)
        except ValueError:
            raise ConfigError(f"label mapping entry {part!r} is not 'text:0|1'") from None
    return mapping


__all__ = [
    "ConfigError",
    "DatasetEntry",
    "RunManifest",
    "DATA_DIR_ENV",
    "TABLES_GRID_DATASETS",
    "TABLES_GRID_CLIENTS",
    "TABLES_GRID_ROUNDS",
]

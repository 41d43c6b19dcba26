"""Run manifests: dataset declarations, the experiment grid and defaults.

Manifests are INI files (flat key=value under section headers) so they parse
with the standard library alone. Every value can be overridden by the CLI
flag of the same name; an unknown section or key is an error. Dataset
sections look like::

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
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .aggregation import AggregationStrategy
from .data import KNOWN_DATASETS, Dataset, _read_text, load_csv, min_max_scale, narrow_table
from .federation import ExperimentConfig
from .nn import TrainConfig
from .synth import SURROGATES, resolve_synthetic

log = logging.getLogger(__name__)

DATA_DIR_ENV = "FEDSIM_DATA_DIR"


class ConfigError(ValueError):
    """Invalid manifest contents or unresolvable dataset references."""


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _axis(item: Callable[[str], object]) -> Callable[[str], list]:
    """Parser of a non-empty comma-separated list of ``item`` values (a grid axis, hidden_dims)."""
    def parse(raw: str) -> list:
        parts = _str_list(raw)
        if not parts:
            raise ValueError("empty list")
        return [item(part) for part in parts]
    return parse


# The grid's axes in GridCell field order: each name is a [grid] key, a key
# of RunManifest.grid and the destination of its `fedsim run` flag; the value
# parses its text.
GRID_AXES: dict[str, Callable[[str], list]] = {
    "datasets": _axis(str),
    "clients": _axis(_integer),
    "rounds": _axis(_integer),
    "strategies": _axis(AggregationStrategy.parse),
}
# Named grids for `fedsim run --grid`: the value of every axis.
GRID_PRESETS = {
    "tables23": {"datasets": tuple(KNOWN_DATASETS), "clients": (5, 10, 15), "rounds": (10, 20),
                 "strategies": tuple(AggregationStrategy)},
}

# The run settings: each name is a field of ExperimentConfig or TrainConfig
# (which holds its default), a [defaults] key, a key of RunManifest.settings,
# the destination of its `fedsim run` flag (where it has one) and a key of the
# run hash; the value parses its manifest text.
SETTINGS: dict[str, Callable[[str], object]] = {
    "alpha": float,
    "learning_rate": float,
    "batch_size": int,
    "local_epochs": int,
    "repeats": int,
    "master_seed": int,
    "holdout_fraction": float,
    "local_test_fraction": float,
    "hidden_dims": _axis(_integer),
}
# Shorter [defaults] spellings of two settings.
_ALIASES = {"lr": "learning_rate", "seed": "master_seed"}


@dataclass
class DatasetEntry:
    name: str
    path: str
    label_column: str = "class"
    label_map: dict[str, int] | None = None
    scale: bool = False


@dataclass
class RunManifest:
    """Everything the runner needs, one dict per manifest section ([defaults] is settings)."""

    datasets: dict[str, DatasetEntry] = field(default_factory=dict)
    settings: dict[str, object] = field(default_factory=lambda: {
        f.name: f.default for cls in (ExperimentConfig, TrainConfig) for f in fields(cls)
        if f.name in SETTINGS})
    grid: dict[str, list] = field(default_factory=lambda: {
        "datasets": ["synth-small"], "clients": [5], "rounds": [10],
        "strategies": list(AggregationStrategy)})
    output: dict[str, Path] = field(default_factory=lambda: {"dir": Path("results")})
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
            parser.read_string(_read_text(path), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None

        m = cls(base_dir=path.parent)
        for section in parser.sections():
            kind = "dataset.*" if section.startswith("dataset.") else section
            if kind not in _MANIFEST_KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            keys, sec = _MANIFEST_KEYS[kind], parser[section]
            unknown = [key for key in sec if key not in keys]
            if unknown:
                raise ConfigError(f"{path}: unknown key '{unknown[0]}' in [{section}]")
            values = {}
            # aliases first, so the canonical key is stored last and wins
            for key in sorted(sec, key=lambda k: k not in _ALIASES):
                attr, parse = keys[key]
                try:
                    values[attr] = parse(sec[key])
                except ValueError as exc:
                    raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
            if kind != "dataset.*":
                {"defaults": m.settings, "grid": m.grid, "output": m.output}[kind].update(values)
                continue
            name = section.split(".", 1)[1].strip().lower()
            if not name:
                raise ConfigError(f"{path}: [{section}] names no dataset")
            if "/" in name or "\\" in name:
                raise ConfigError(f"{path}: [{section}] dataset name holds a path separator")
            if "path" not in values:
                raise ConfigError(f"{path}: [{section}] is missing the 'path' key")
            if name in m.datasets:
                raise ConfigError(f"{path}: [{section}] declares dataset '{name}' a second time")
            m.datasets[name] = DatasetEntry(name=name, **values)
        return m

    def validate_grid_datasets(self) -> None:
        """Fail early (with the entry name) if a grid dataset cannot be resolved."""
        for name in self.grid["datasets"]:
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

    def _locate(self, name: str) -> DatasetEntry | None:
        """The entry to load ``name`` from, with its path resolved; None for a synth-* name."""
        key = name.strip().lower()
        env = os.environ.get(DATA_DIR_ENV)
        env_dirs = [Path(env)] if env else []
        if key in self.datasets:
            entry = self.datasets[key]
            p = Path(entry.path)
            found = _first_file([p] if p.is_absolute() else
                                [self.base_dir / p, *(d / p for d in env_dirs)])
            if found is None:
                raise ConfigError(
                    f"dataset '{key}': path '{entry.path}' not found "
                    f"(searched manifest dir and ${DATA_DIR_ENV})")
            return replace(entry, path=str(found))
        if key in SURROGATES:
            return None
        if key in KNOWN_DATASETS:
            profile = KNOWN_DATASETS[key]
            found = _first_file([root / file_name
                                 for root in (*env_dirs, Path("data"), self.base_dir / "data")
                                 for file_name in profile.file_names])
            if found is not None:
                return DatasetEntry(key, str(found), profile.label_column)
            raise ConfigError(
                f"dataset '{key}': no manifest entry and no CSV found under "
                f"${DATA_DIR_ENV} or ./data; fetch the dataset (see README) or "
                f"use 'synth-{key}' for the bundled surrogate")
        raise ConfigError(f"unknown dataset '{key}' (no manifest entry, not a synth-* name)")

    def _load_dataset(self, key: str) -> Dataset:
        entry = self._locate(key)
        if entry is None:
            return resolve_synthetic(key)
        ds = load_csv(entry.path, entry.label_column, entry.label_map, name=key)
        if entry.scale:
            min_max_scale(ds)
        ds.features = narrow_table(ds.features)
        return ds


def _first_file(candidates) -> Path | None:
    return next((c for c in candidates if c.is_file()), None)


def _str_list(raw: str) -> list[str]:
    return [part.strip().lower() for part in raw.split(",") if part.strip()]


def _directory(raw: str) -> Path:
    if not raw.strip():
        raise ValueError("empty path")
    return Path(raw)


def _boolean(raw: str) -> bool:
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"expected true or false, got {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _parse_label_map(raw: str) -> dict[str, int] | None:
    """``text:0|1`` entries; None (the default map) when there are none."""
    mapping: dict[str, int] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"label mapping entry {part!r} is not 'text:0|1'")
        label, _, value = (piece.strip() for piece in part.partition(":"))
        if not label:  # load_csv drops a row whose label cell is empty
            raise ValueError(f"label mapping entry {part!r} has no label")
        if value not in ("0", "1"):
            raise ValueError(f"label mapping entry {part!r} maps to {value!r}, not 0 or 1")
        if label.lower() in map(str.lower, mapping):  # load_csv matches labels case-insensitively
            raise ValueError(f"label {label!r} is mapped twice")
        mapping[label] = int(value)
    return mapping or None


# Every manifest key by section kind: the key of its RunManifest section dict
# (or, under dataset.*, the DatasetEntry field) it sets and the parser of its text.
_MANIFEST_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "defaults": {**{name: (name, parse) for name, parse in SETTINGS.items()},
                 **{alias: (name, SETTINGS[name]) for alias, name in _ALIASES.items()}},
    "grid": {axis: (axis, parse) for axis, parse in GRID_AXES.items()},
    "output": {"dir": ("dir", _directory)},
    "dataset.*": {"path": ("path", str), "label_column": ("label_column", str),
                  "labels": ("label_map", _parse_label_map), "scale": ("scale", _boolean)},
}


__all__ = [
    "ConfigError",
    "DatasetEntry",
    "RunManifest",
    "DATA_DIR_ENV",
    "SETTINGS",
    "GRID_AXES",
    "GRID_PRESETS",
]

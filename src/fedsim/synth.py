"""Synthetic indicator-feature datasets.

Two generators live here: Drebin-style binary feature tables whose difficulty
is set by a label-noise rate, and a small two-cluster Gaussian set used as a
separability sanity check in tests.

The ``synth-*`` registry copies the shapes (samples, features, class counts)
of the public Android malware benchmarks from ``data.KNOWN_DATASETS`` and
pins each surrogate's label-noise rate so that the best attainable test
accuracy sits near the accuracies reported for the corresponding real
dataset. They stand in for the real CSVs when those are not installed;
loading the real files instead is always preferred for reproduction runs.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .data import KNOWN_DATASETS, Dataset


@dataclass(frozen=True)
class SurrogateSpec:
    """Shape and difficulty of one synthetic benchmark stand-in."""

    n_samples: int
    n_features: int
    n_benign: int
    n_malware: int
    label_noise: float
    n_informative: int = 40

    def __post_init__(self) -> None:
        if self.n_benign + self.n_malware != self.n_samples:
            raise ValueError("class counts must sum to n_samples")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must lie in [0, 0.5)")
        if self.n_informative > self.n_features:
            raise ValueError("n_informative cannot exceed n_features")


# Label-noise rates are calibrated so a well-trained classifier lands near the
# accuracy reported for the real dataset of the same name.
_LABEL_NOISE = {"malgenome": 0.004, "drebin": 0.012, "tuandromd": 0.012, "kronodroid": 0.038}

SURROGATES: dict[str, SurrogateSpec] = {
    **{
        f"synth-{name}": SurrogateSpec(p.n_samples, p.n_features, p.n_benign, p.n_malware,
                                       label_noise=_LABEL_NOISE[name])
        for name, p in KNOWN_DATASETS.items()
    },
    # small and fast, for tests and smoke runs
    "synth-small": SurrogateSpec(800, 30, 500, 300, label_noise=0.02, n_informative=12),
}


def make_indicator_dataset(spec: SurrogateSpec, seed: int, name: str = "synthetic") -> Dataset:
    """Binary feature table with a planted class signal plus label noise.

    A latent class drives a subset of informative indicator features (high
    firing rate for one class, low for the other); the remaining features fire
    at a shared background rate. Observed labels equal the latent class except
    for a ``label_noise`` fraction of flipped rows, which caps attainable
    accuracy at roughly 1 - label_noise. The table is held as uint8.
    """
    rng = np.random.default_rng(seed)
    latent = np.zeros(spec.n_samples, dtype=np.int64)
    latent[: spec.n_malware] = 1
    rng.shuffle(latent)

    # class-conditional firing rates, row 0 benign / row 1 malware
    rates = np.tile(rng.uniform(0.02, 0.30, spec.n_features), (2, 1))
    informative = rng.choice(spec.n_features, spec.n_informative, replace=False)
    high = rng.uniform(0.55, 0.95, spec.n_informative)
    low = rng.uniform(0.01, 0.10, spec.n_informative)
    for j, col in enumerate(informative):
        hot = j % 2  # alternate which class the feature indicates
        rates[hot, col] = high[j]
        rates[1 - hot, col] = low[j]

    features = _indicators(rng, rates, latent)
    labels = latent.copy()
    flips = rng.random(spec.n_samples) < spec.label_noise
    labels[flips] = 1 - labels[flips]

    return Dataset(
        name=name,
        features=features,
        labels=labels,
        feature_names=[f"f{j}" for j in range(spec.n_features)],
    )


# Rows drawn per block: a block's uniform draws are its only float64 temporary.
_BLOCK_ROWS = 1024


def _indicators(rng: np.random.Generator, rates: np.ndarray, latent: np.ndarray) -> np.ndarray:
    """``rng.random((n, d)) < rates[latent]`` as a uint8 table, drawn ``_BLOCK_ROWS`` rows at a time.

    A generator fills a (rows, d) draw from one stream in row-major order,
    so the blocks draw the values, and leave ``rng`` in the state, of the
    one (n, d) draw.
    """
    out = np.empty((latent.size, rates.shape[1]), dtype=np.uint8)
    for start in range(0, latent.size, _BLOCK_ROWS):
        block = latent[start : start + _BLOCK_ROWS]
        np.less(rng.random((block.size, rates.shape[1])), rates[block],
                out=out[start : start + block.size])
    return out


def make_two_cluster(n_samples: int = 400, seed: int = 0, separation: float = 4.0) -> Dataset:
    """Two well-separated 2-D Gaussian clusters; linearly separable for sep >= ~4."""
    rng = np.random.default_rng(seed)
    half = n_samples // 2
    neg = rng.normal(loc=(-separation / 2, 0.0), scale=0.7, size=(half, 2))
    pos = rng.normal(loc=(separation / 2, 0.0), scale=0.7, size=(n_samples - half, 2))
    features = np.vstack([neg, pos])
    labels = np.concatenate([np.zeros(half, dtype=np.int64),
                             np.ones(n_samples - half, dtype=np.int64)])
    perm = rng.permutation(n_samples)
    return Dataset(name="two-cluster", features=features[perm], labels=labels[perm],
                   feature_names=["x0", "x1"])


def synthetic_seed(name: str) -> int:
    """Stable per-name generation seed, so a surrogate is a fixed artifact."""
    return zlib.crc32(name.encode("utf-8"))


def resolve_synthetic(name: str) -> Dataset | None:
    """Materialize a registered ``synth-*`` dataset, or None for unknown names."""
    spec = SURROGATES.get(name.lower())
    if spec is None:
        return None
    return make_indicator_dataset(spec, seed=synthetic_seed(name.lower()), name=name.lower())

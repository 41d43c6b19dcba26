"""Synthetic dataset generator tests."""
import numpy as np
import pytest

from fedsim.data import KNOWN_DATASETS
from fedsim.synth import (
    SURROGATES,
    SurrogateSpec,
    make_indicator_dataset,
    make_two_cluster,
    resolve_synthetic,
    synthetic_seed,
)


class TestRegistry:
    def test_counts_are_internally_consistent(self):
        for name, spec in SURROGATES.items():
            assert spec.n_benign + spec.n_malware == spec.n_samples, name
            assert 0 <= spec.label_noise < 0.5

    @pytest.mark.parametrize("name", sorted(KNOWN_DATASETS))
    def test_benchmark_profile_is_consistent_and_copied_by_its_surrogate(self, name):
        profile = KNOWN_DATASETS[name]
        assert profile.n_benign + profile.n_malware == profile.n_samples
        spec = SURROGATES[f"synth-{name}"]
        assert (spec.n_samples, spec.n_features, spec.n_benign, spec.n_malware) == (
            profile.n_samples, profile.n_features, profile.n_benign, profile.n_malware)

    @pytest.mark.parametrize("name", ["synth-small", "synth-malgenome",
                                      "synth-tuandromd", "synth-drebin"])
    def test_generated_shape_matches_registry(self, name):
        spec = SURROGATES[name]
        ds = resolve_synthetic(name)
        assert ds is not None
        assert ds.features.shape == (spec.n_samples, spec.n_features)
        benign, malware = ds.class_counts()
        # label noise flips individual labels, so counts drift around the
        # latent class totals by at most the expected flip volume
        slack = max(10, int(3 * spec.label_noise * spec.n_samples))
        assert abs(malware - spec.n_malware) <= slack
        assert abs(benign - spec.n_benign) <= slack

    def test_unknown_name_returns_none(self):
        assert resolve_synthetic("synth-bogus") is None

    def test_resolution_is_deterministic(self):
        a = resolve_synthetic("synth-small")
        b = resolve_synthetic("synth-small")
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_is_a_stable_function_of_the_name(self):
        assert synthetic_seed("synth-small") == synthetic_seed("synth-small")
        assert synthetic_seed("synth-small") != synthetic_seed("synth-drebin")


class TestIndicatorGenerator:
    def test_features_are_binary_indicators(self):
        ds = make_indicator_dataset(SURROGATES["synth-small"], seed=0)
        assert set(np.unique(ds.features)) <= {0.0, 1.0}

    def test_latent_signal_is_learnable(self):
        # a trivial per-feature vote should already beat chance by a wide
        # margin, confirming the informative columns carry class signal
        ds = make_indicator_dataset(SURROGATES["synth-small"], seed=1)
        pos_rate = ds.features[ds.labels == 1].mean(axis=0)
        neg_rate = ds.features[ds.labels == 0].mean(axis=0)
        votes = ds.features @ (pos_rate - neg_rate)
        pred = (votes > np.median(votes)).astype(int)
        assert np.mean(pred == ds.labels) > 0.8

    def test_surrogate_spec_validation(self):
        with pytest.raises(ValueError, match="sum to n_samples"):
            SurrogateSpec(10, 4, 3, 4, label_noise=0.1)
        with pytest.raises(ValueError, match="label_noise"):
            SurrogateSpec(10, 4, 5, 5, label_noise=0.6)
        with pytest.raises(ValueError, match="n_informative"):
            SurrogateSpec(10, 4, 5, 5, label_noise=0.1, n_informative=5)


class TestTwoCluster:
    def test_shape_and_balance(self):
        ds = make_two_cluster(n_samples=400, seed=0)
        assert ds.features.shape == (400, 2)
        benign, malware = ds.class_counts()
        assert benign == malware == 200

    def test_clusters_are_linearly_separable(self):
        ds = make_two_cluster(n_samples=300, seed=3, separation=4.0)
        # the x-axis sign alone should separate the clusters
        pred = (ds.features[:, 0] > 0).astype(int)
        assert np.mean(pred == ds.labels) > 0.99

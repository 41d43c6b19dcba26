"""Dataset loading, holdout splitting and client partition tests."""
import logging

import numpy as np
import pytest

from fedsim.data import (
    Dataset,
    DatasetError,
    holdout_split,
    load_csv,
    min_max_scale,
    partition_clients,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def balanced_dataset(n, seed=0, n_features=6, pos_fraction=0.5):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[: int(round(pos_fraction * n))] = 1
    rng.shuffle(labels)
    return Dataset(name="toy", features=rng.random((n, n_features)), labels=labels)


class TestLoadCsv:
    def test_toy_file_with_bs_labels(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv",
                      "f0,f1,class\n1,0,B\n0,1,S\n1,1,B\n0,0,S\n")
        ds = load_csv(p, "class")
        assert ds.labels.tolist() == [0, 1, 0, 1]
        assert ds.n_features == 2
        assert ds.feature_names == ["f0", "f1"]
        np.testing.assert_array_equal(ds.features[0], [1.0, 0.0])

    def test_textual_label_mapping_case_insensitive(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv",
                      "x,Label\n1,MALWARE\n2,goodware\n3,malware\n4,Goodware\n")
        ds = load_csv(p, "Label")
        assert ds.labels.tolist() == [1, 0, 1, 0]

    def test_custom_mapping(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "x,y\n1,yes\n2,no\n")
        ds = load_csv(p, "y", {"yes": 1, "no": 0})
        assert ds.labels.tolist() == [1, 0]

    def test_bad_rows_dropped_and_counted(self, tmp_path, caplog):
        p = write_csv(tmp_path / "toy.csv",
                      "f0,f1,class\n1,0,B\nx,1,S\n1,,B\n0,1,S\n1,0\n2,inf,S\n0,0,S\n")
        with caplog.at_level(logging.WARNING):
            ds = load_csv(p, "class")
        assert len(ds) == 3
        assert ds.n_dropped == 4
        assert "dropped 4" in caplog.text

    def test_empty_label_cell_drops_row(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "f0,class\n1,B\n2,\n3,S\n")
        ds = load_csv(p, "class")
        assert len(ds) == 2
        assert ds.n_dropped == 1

    def test_unknown_label_is_error_with_line(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "f0,class\n1,B\n2,weird\n")
        with pytest.raises(DatasetError, match="toy.csv:3.*'weird'"):
            load_csv(p, "class")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_csv(tmp_path / "nope.csv", "class")

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(p, "class")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="label column"):
            load_csv(p, "class")

    def test_single_class_rejected(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "a,class\n1,B\n2,B\n")
        with pytest.raises(DatasetError, match="single class"):
            load_csv(p, "class")

    def test_utf8_bom_header(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_bytes(b"\xef\xbb\xbff0,class\n1,B\n2,S\n")
        ds = load_csv(p, "class")
        assert len(ds) == 2

    def test_known_name_shape_mismatch_warns_not_fails(self, tmp_path, caplog):
        p = write_csv(tmp_path / "m.csv", "a,class\n1,B\n2,S\n")
        with caplog.at_level(logging.WARNING):
            ds = load_csv(p, "class", name="malgenome")
        assert len(ds) == 2
        assert "published reference" in caplog.text


class TestHoldoutSplit:
    def test_balanced_hundred_sample_arithmetic(self):
        ds = balanced_dataset(100)
        train, test = holdout_split(ds, 0.2, 0)
        assert len(train) == 80
        assert len(test) == 20
        assert test.class_counts() == (10, 10)

    def test_published_row_count_fraction(self):
        ds = balanced_dataset(3799, pos_fraction=1260 / 3799)
        _, test = holdout_split(ds, 0.2, 1)
        assert abs(len(test) - round(0.2 * 3799)) <= 1

    def test_same_seed_reproduces_indices(self):
        ds = balanced_dataset(200, seed=5)
        a_train, a_test = holdout_split(ds, 0.2, 9)
        b_train, b_test = holdout_split(ds, 0.2, 9)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)
        np.testing.assert_array_equal(a_test.features, b_test.features)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_different_seed_differs(self):
        ds = balanced_dataset(200, seed=5)
        _, a = holdout_split(ds, 0.2, 0)
        _, b = holdout_split(ds, 0.2, 1)
        assert not np.array_equal(a.features, b.features)

    def test_stratified_ratio_within_one_sample(self):
        for seed in range(10):
            ds = balanced_dataset(437, seed=seed, pos_fraction=0.3)
            _, test = holdout_split(ds, 0.2, seed)
            benign, malware = ds.class_counts()
            tb, tm = test.class_counts()
            assert abs(tb - 0.2 * benign) <= 1
            assert abs(tm - 0.2 * malware) <= 1

    def test_too_few_samples_per_class(self):
        ds = balanced_dataset(20, pos_fraction=0.1)  # only 2 positives
        with pytest.raises(DatasetError, match=">= 5 samples"):
            holdout_split(ds, 0.2, 0)

    @pytest.mark.parametrize("fraction, cls", [(0.001, 0), (0.004, 1)])
    def test_fraction_that_draws_no_sample_of_a_class(self, fraction, cls):
        ds = balanced_dataset(500, pos_fraction=0.2)  # 400 benign, 100 malware
        with pytest.raises(DatasetError, match=f"fraction {fraction} draws no sample of class {cls}"):
            holdout_split(ds, fraction, 0)

    def test_train_and_test_partition_the_dataset(self):
        ds = balanced_dataset(150, seed=2)
        train, test = holdout_split(ds, 0.2, 3)
        assert len(train) + len(test) == len(ds)

    def test_bad_fraction_rejected(self):
        ds = balanced_dataset(100)
        with pytest.raises(ValueError):
            holdout_split(ds, 0.0, 0)
        with pytest.raises(ValueError):
            holdout_split(ds, 1.0, 0)


class TestPartitionClients:
    def test_even_hundred_into_five(self):
        ds = balanced_dataset(100)
        shards = partition_clients(ds, 5, local_test_fraction=0.2, seed=0)
        assert len(shards) == 5
        for shard in shards:
            assert len(shard.train) == 16
            assert len(shard.local_test) == 4

    def test_remainder_goes_to_early_clients(self):
        ds = balanced_dataset(101)
        shards = partition_clients(ds, 5, seed=0)
        sizes = sorted((len(s.train) + len(s.local_test) for s in shards), reverse=True)
        assert sizes == [21, 20, 20, 20, 20]

    def test_disjoint_and_cover(self):
        for seed in range(10):
            ds = balanced_dataset(157, seed=seed)
            shards = partition_clients(ds, 4, seed=seed)
            all_idx = np.concatenate(
                [np.concatenate([s.train_indices, s.test_indices]) for s in shards])
            assert len(set(all_idx.tolist())) == len(all_idx) == len(ds)

    def test_inner_split_disjoint_and_both_classes(self):
        ds = balanced_dataset(200, seed=1)
        for shard in partition_clients(ds, 5, seed=1):
            assert not set(shard.train_indices) & set(shard.test_indices)
            assert len(np.unique(shard.local_test.labels)) == 2
            assert len(np.unique(shard.train.labels)) == 2

    def test_deterministic_for_fixed_seed(self):
        ds = balanced_dataset(120, seed=4)
        a = partition_clients(ds, 3, seed=7)
        b = partition_clients(ds, 3, seed=7)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.train_indices, sb.train_indices)
            np.testing.assert_array_equal(sa.test_indices, sb.test_indices)

    def test_too_few_samples_is_an_error(self):
        ds = balanced_dataset(40, pos_fraction=0.1)  # 4 positives over 5 clients
        with pytest.raises(DatasetError, match="too few samples per client"):
            partition_clients(ds, 5, seed=0)

    def test_shard_with_one_sample_of_a_class_cannot_split(self):
        labels = np.zeros(20, dtype=np.int64)
        labels[:2] = 1  # seed 1 deals one positive to each of the 2 clients
        ds = Dataset(name="toy", features=np.zeros((20, 3)), labels=labels)
        with pytest.raises(DatasetError,
                           match=r"toy: client 0: class 1 has 1 sample\(s\); cannot split; too few"):
            partition_clients(ds, 2, seed=1)

    def test_single_client_rejected(self):
        ds = balanced_dataset(50)
        with pytest.raises(ValueError, match="n_clients"):
            partition_clients(ds, 1)


class TestScalingAndDataset:
    def test_min_max_scale_maps_to_unit_interval(self):
        rng = np.random.default_rng(0)
        ds = Dataset(name="x", features=rng.normal(0, 10, size=(50, 4)),
                     labels=rng.integers(0, 2, 50))
        scaled = min_max_scale(ds)
        assert scaled.features.min() == 0.0
        assert scaled.features.max() == 1.0

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(name="x", features=np.array([[3.0, 1.0], [3.0, 2.0]]),
                     labels=np.array([0, 1]))
        scaled = min_max_scale(ds)
        np.testing.assert_array_equal(scaled.features[:, 0], [0.0, 0.0])

    def test_class_counts_and_subset(self):
        ds = balanced_dataset(10, pos_fraction=0.3)
        benign, malware = ds.class_counts()
        assert benign + malware == 10
        assert malware == 3
        sub = ds.subset([0, 1, 2])
        assert len(sub) == 3

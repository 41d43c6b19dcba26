"""Manifest parsing and dataset resolution tests."""
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedsim import manifest as manifest_module
from fedsim.aggregation import AggregationStrategy
from fedsim.manifest import ConfigError, RunManifest


FULL_MANIFEST = """
[defaults]
alpha = 0.3
learning_rate = 0.02
batch_size = 16
local_epochs = 3
repeats = 2
master_seed = 99
holdout_fraction = 0.25
local_test_fraction = 0.15

[grid]
datasets = synth-small
clients = 5, 10
rounds = 10
strategies = fedavg, dw-fedavg

[output]
dir = out

[dataset.toy]
path = toy.csv
label_column = class
labels = B:0, S:1
scale = true
"""


def write_manifest(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def write_toy_csv(path):
    path.write_text("f0,f1,class\n5,0,B\n0,5,S\n5,5,B\n0,0,S\n2,2,B\n3,3,S\n",
                    encoding="utf-8")


class TestLoad:
    def test_full_manifest_round_trip(self, tmp_path):
        m = RunManifest.load(write_manifest(tmp_path, FULL_MANIFEST))
        assert m.alpha == 0.3
        assert m.learning_rate == 0.02
        assert m.batch_size == 16
        assert m.local_epochs == 3
        assert m.repeats == 2
        assert m.master_seed == 99
        assert m.holdout_fraction == 0.25
        assert m.local_test_fraction == 0.15
        assert m.grid_datasets == ["synth-small"]
        assert m.grid_clients == [5, 10]
        assert m.grid_rounds == [10]
        assert m.grid_strategies == [AggregationStrategy.FEDAVG,
                                     AggregationStrategy.DW_FEDAVG]
        assert str(m.out_dir) == "out"
        assert "toy" in m.datasets
        assert m.datasets["toy"].label_map == {"B": 0, "S": 1}
        assert m.datasets["toy"].scale is True

    def test_defaults_without_file_sections(self, tmp_path):
        m = RunManifest.load(write_manifest(tmp_path, "[grid]\ndatasets = synth-small\n"))
        assert m.alpha == 0.2
        assert m.learning_rate == 0.01
        assert m.batch_size == 32
        assert m.local_epochs == 5
        assert m.master_seed == 42

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunManifest.load(tmp_path / "absent.ini")

    def test_dataset_section_requires_path(self, tmp_path):
        text = "[dataset.x]\nlabel_column = class\n"
        with pytest.raises(ConfigError, match="missing the 'path'"):
            RunManifest.load(write_manifest(tmp_path, text))

    def test_unparsable_number_is_config_error(self, tmp_path):
        text = "[defaults]\nalpha = lots\n"
        with pytest.raises(ConfigError, match="alpha"):
            RunManifest.load(write_manifest(tmp_path, text))

    def test_bad_strategy_is_config_error(self, tmp_path):
        text = "[grid]\nstrategies = median\n"
        with pytest.raises(ConfigError, match="unknown"):
            RunManifest.load(write_manifest(tmp_path, text))

    def test_empty_grid_rejected(self, tmp_path):
        text = "[grid]\ndatasets =\n"
        with pytest.raises(ConfigError, match="empty"):
            RunManifest.load(write_manifest(tmp_path, text))

    def test_bad_label_map_rejected(self, tmp_path):
        text = "[dataset.x]\npath = x.csv\nlabels = B=0\n"
        with pytest.raises(ConfigError, match="label mapping"):
            RunManifest.load(write_manifest(tmp_path, text))


class TestResolve:
    def test_synthetic_names_resolve_without_files(self):
        ds = RunManifest().resolve_dataset("synth-small")
        assert len(ds) == 800

    def test_resolution_is_cached(self):
        m = RunManifest()
        assert m.resolve_dataset("synth-small") is m.resolve_dataset("synth-small")

    def test_concurrent_resolution_loads_once(self, monkeypatch):
        real = manifest_module.resolve_synthetic
        loads = []

        def slow_counting(name):
            loads.append(name)
            time.sleep(0.2)
            return real(name)

        monkeypatch.setattr(manifest_module, "resolve_synthetic", slow_counting)
        m = RunManifest()
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(m.resolve_dataset, ["synth-small", "synth-small"])
        assert loads == ["synth-small"]
        assert first is second

    def test_manifest_entry_resolves_relative_to_manifest_dir(self, tmp_path):
        write_toy_csv(tmp_path / "toy.csv")
        m = RunManifest.load(write_manifest(tmp_path, FULL_MANIFEST))
        ds = m.resolve_dataset("toy")
        assert len(ds) == 6
        # scale = true in the manifest applies min-max scaling
        assert ds.features.max() == 1.0
        assert ds.features.min() == 0.0

    def test_missing_entry_path_names_the_entry(self, tmp_path):
        m = RunManifest.load(write_manifest(tmp_path, FULL_MANIFEST))
        with pytest.raises(ConfigError, match="dataset 'toy'"):
            m.resolve_dataset("toy")

    def test_data_dir_env_fallback(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "elsewhere"
        data_dir.mkdir()
        write_toy_csv(data_dir / "toy.csv")
        monkeypatch.setenv("FEDSIM_DATA_DIR", str(data_dir))
        m = RunManifest.load(write_manifest(tmp_path, FULL_MANIFEST))
        assert len(m.resolve_dataset("toy")) == 6

    def test_known_benchmark_name_found_under_data_dir(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "datasets"
        data_dir.mkdir()
        (data_dir / "malgenome.csv").write_text(
            "f0,class\n" + "".join(f"{i},{'B' if i % 2 else 'S'}\n" for i in range(12)),
            encoding="utf-8")
        monkeypatch.setenv("FEDSIM_DATA_DIR", str(data_dir))
        ds = RunManifest().resolve_dataset("malgenome")
        assert len(ds) == 12

    def test_known_benchmark_name_without_file_mentions_surrogate(self, monkeypatch, tmp_path):
        monkeypatch.delenv("FEDSIM_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="synth-malgenome"):
            RunManifest().resolve_dataset("malgenome")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            RunManifest().resolve_dataset("no-such-set")

    def test_validate_grid_checks_each_name(self, tmp_path):
        m = RunManifest.load(write_manifest(tmp_path, FULL_MANIFEST))
        m.grid_datasets = ["toy"]
        with pytest.raises(ConfigError, match="toy"):
            m.validate_grid_datasets()
        write_toy_csv(tmp_path / "toy.csv")
        m.validate_grid_datasets()


class TestLabelColumnDefaults:
    def test_tuandromd_style_label_column(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        (data_dir / "TUANDROMD.csv").write_text(
            "f0,Label\n1,malware\n0,goodware\n1,malware\n0,goodware\n",
            encoding="utf-8")
        monkeypatch.setenv("FEDSIM_DATA_DIR", str(data_dir))
        ds = RunManifest().resolve_dataset("tuandromd")
        assert sorted(np.unique(ds.labels).tolist()) == [0, 1]

"""Manifest parsing and dataset resolution tests."""
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from fedsim import manifest as manifest_module
from fedsim.aggregation import AggregationStrategy
from fedsim.federation import ExperimentConfig
from fedsim.cli import GridCell, expand_grid
from fedsim.manifest import GRID_AXES, SETTINGS, ConfigError, RunManifest
from fedsim.nn import TrainConfig


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
hidden_dims = 64, 32

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
        assert list(m.hidden_dims) == [64, 32]
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

    def test_settings_are_fields_with_the_library_defaults(self):
        library = {f.name: f.default for cls in (ExperimentConfig, TrainConfig) for f in fields(cls)}
        manifest_defaults = {f.name: f.default for f in fields(RunManifest)}
        for name in SETTINGS:
            assert manifest_defaults[name] == library[name], name

    def test_aliases_apply_and_the_canonical_key_wins(self, tmp_path):
        m = RunManifest.load(write_manifest(tmp_path, "[defaults]\nlr = 0.05\nseed = 7\n"))
        assert (m.learning_rate, m.master_seed) == (0.05, 7)
        text = "[defaults]\nlearning_rate = 0.02\nlr = 0.05\nseed = 7\nmaster_seed = 9\n"
        m = RunManifest.load(write_manifest(tmp_path, text))
        assert (m.learning_rate, m.master_seed) == (0.02, 9)

    @pytest.mark.parametrize("text, named", [
        ("[defaults]\nlearning-rate = 50\n", "'learning-rate' in [defaults]"),
        ("[default]\nalpha = 0.3\n", "[default]"),
        ("[grid]\nclient = 5\n", "'client' in [grid]"),
        ("[output]\ndirectory = out\n", "'directory' in [output]"),
        ("[dataset.toy]\npath = toy.csv\nscaled = true\n", "'scaled' in [dataset.toy]"),
    ], ids=["defaults-key", "section", "grid-key", "output-key", "dataset-key"])
    def test_unknown_section_or_key_is_config_error(self, tmp_path, text, named):
        with pytest.raises(ConfigError) as err:
            RunManifest.load(write_manifest(tmp_path, text))
        assert named in str(err.value)

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

    @pytest.mark.parametrize("axis", list(GRID_AXES))
    def test_empty_grid_value_names_the_key(self, tmp_path, axis):
        path = write_manifest(tmp_path, f"[grid]\n{axis} = ,\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: \\[grid\\] {axis}: empty"):
            RunManifest.load(path)

    def test_grid_axes_are_in_grid_cell_field_order(self):
        fedavg = AggregationStrategy.FEDAVG
        m = RunManifest(grid_clients=[3], grid_rounds=[7], grid_strategies=[fedavg])
        assert expand_grid(m) == [GridCell(dataset="synth-small", clients=3, rounds=7,
                                           strategy=fedavg)]

    def test_non_boolean_scale_is_config_error(self, tmp_path):
        text = "[dataset.x]\npath = x.csv\nscale = maybe\n"
        with pytest.raises(ConfigError) as err:
            RunManifest.load(write_manifest(tmp_path, text))
        assert "[dataset.x] scale" in str(err.value) and "maybe" in str(err.value)

    @pytest.mark.parametrize("labels, entry", [
        ("B:0, S:2", "S:2"), ("B:0, S:1, X:2", "X:2"), ("B:-1, S:1", "B:-1"),
    ])
    def test_label_other_than_zero_or_one_is_config_error(self, tmp_path, labels, entry):
        text = f"[dataset.x]\npath = x.csv\nlabels = {labels}\n"
        with pytest.raises(ConfigError, match=f"label mapping entry '{entry}'"):
            RunManifest.load(write_manifest(tmp_path, text))

    def test_bad_label_map_rejected(self, tmp_path):
        text = "[dataset.x]\npath = x.csv\nlabels = B=0\n"
        with pytest.raises(ConfigError, match="label mapping"):
            RunManifest.load(write_manifest(tmp_path, text))

    @pytest.mark.parametrize("key, value, reason", [
        ("alpha", "lots", "could not convert string to float: 'lots'"),
        ("hidden_dims", "64, x", "expected comma-separated integers, got 'x'"),
        ("hidden_dims", "", "empty list"),
    ])
    def test_defaults_error_names_file_section_key_and_reason(self, tmp_path, key, value, reason):
        path = write_manifest(tmp_path, f"[defaults]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            RunManifest.load(path)
        assert str(err.value) == f"{path}: [defaults] {key}: {reason}"

    @pytest.mark.parametrize("labels, twice", [("B:0, b:1, S:1", "b"), ("B:0, S:1, s:1", "s")])
    def test_label_mapped_twice_is_config_error(self, tmp_path, labels, twice):
        path = write_manifest(tmp_path, f"[dataset.x]\npath = x.csv\nlabels = {labels}\n")
        with pytest.raises(ConfigError) as err:
            RunManifest.load(path)
        assert str(err.value) == f"{path}: [dataset.x] labels: label '{twice}' is mapped twice"

    @pytest.mark.parametrize("section", ["dataset.", "dataset. "])
    def test_dataset_section_without_a_name_is_config_error(self, tmp_path, section):
        path = write_manifest(tmp_path, f"[{section}]\npath = x.csv\n")
        with pytest.raises(ConfigError) as err:
            RunManifest.load(path)
        assert str(err.value) == f"{path}: [{section}] names no dataset"

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_output_dir_is_config_error(self, tmp_path, value):
        path = write_manifest(tmp_path, f"[output]\ndir ={value}\n")
        with pytest.raises(ConfigError) as err:
            RunManifest.load(path)
        assert str(err.value) == f"{path}: [output] dir: empty path"

    @pytest.mark.parametrize("first, second", [("Toy", "toy"), ("toy", " toy")])
    def test_dataset_declared_twice_is_config_error(self, tmp_path, first, second):
        text = f"[dataset.{first}]\npath = a.csv\n\n[dataset.{second}]\npath = b.csv\n"
        with pytest.raises(ConfigError, match=re.escape(
                f"[dataset.{second}] declares dataset 'toy' a second time")):
            RunManifest.load(write_manifest(tmp_path, text))

    @pytest.mark.parametrize("text", [
        "alpha = 0.3\n[defaults]\n", "[defaults]\nalpha = 0.3\nalpha = 0.4\n",
    ], ids=["key-before-section", "key-twice"])
    def test_syntax_error_is_config_error_naming_the_file(self, tmp_path, text):
        path = write_manifest(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            RunManifest.load(path)
        assert str(err.value).startswith(f"{path}: ")


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

"""CLI tests: grid expansion, output files, exit codes and the compare tool."""
import configparser
import csv
import errno
import json
import logging
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from fedsim import _blas, cli, federation
from fedsim import manifest as manifest_module
from fedsim.aggregation import AggregationStrategy
from fedsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    SUMMARY_FIELDS,
    GridCell,
    build_parser,
    cell_config,
    compare_rows,
    expand_grid,
    format_summary_table,
    load_summary,
    main,
    run_hash,
    _apply_overrides,
)
from fedsim.federation import ExperimentConfig
from fedsim.manifest import SETTINGS, RunManifest


SMALL_MANIFEST = """
[grid]
datasets = synth-small
clients = 3
rounds = 2
strategies = fedavg, dw-fedavg

[defaults]
repeats = 2
local_epochs = 2
master_seed = 5
"""


def write(tmp_path, text, name="m.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def parse_run(argv):
    return build_parser().parse_args(["run", *argv])


class TestGridExpansion:
    def test_tables_preset_cardinality_with_dataset_filter(self):
        manifest = RunManifest()
        args = parse_run(["--grid", "tables23", "--datasets", "malgenome,tuandromd"])
        _apply_overrides(manifest, args)
        cells = expand_grid(manifest)
        # 2 datasets x 3 client counts x 2 round counts x 2 strategies
        assert len(cells) == 24
        assert len({c.slug() for c in cells}) == 24

    def test_full_preset_cardinality(self):
        manifest = RunManifest()
        _apply_overrides(manifest, parse_run(["--grid", "tables23"]))
        assert len(expand_grid(manifest)) == 48

    def test_flag_overrides_replace_manifest_grid(self, tmp_path):
        manifest = RunManifest.load(write(tmp_path, SMALL_MANIFEST))
        args = parse_run(["--clients", "5,10", "--rounds", "20",
                          "--strategy", "dw-fedavg", "--seed", "123"])
        _apply_overrides(manifest, args)
        cells = expand_grid(manifest)
        assert {(c.clients, c.rounds) for c in cells} == {(5, 20), (10, 20)}
        assert manifest.settings["master_seed"] == 123

    def test_bad_clients_value_is_config_error(self, tmp_path):
        from fedsim.manifest import ConfigError
        manifest = RunManifest()
        with pytest.raises(ConfigError, match="--clients"):
            _apply_overrides(manifest, parse_run(["--clients", "five"]))

    def test_run_hash_is_stable_and_sensitive(self):
        m = RunManifest()
        cells = expand_grid(m)
        assert run_hash(m, cells) == run_hash(m, cells)
        m2 = RunManifest()
        m2.settings["master_seed"] = 43
        assert run_hash(m, cells) != run_hash(m2, expand_grid(m2))

    def test_run_hash_keeps_its_values(self):
        m = RunManifest()
        assert run_hash(m, expand_grid(m)) == "1aacefb9be"
        m = RunManifest()
        _apply_overrides(m, parse_run(["--grid", "tables23", "--lr", "0.02", "--seed", "7"]))
        assert run_hash(m, expand_grid(m)) == "9ae14dd66a"

    def test_run_hash_covers_grid_dataset_entries(self, tmp_path):
        entry = "[dataset.toy]\npath = toy.csv\nscale = {}\n"
        digests = set()
        for scale in ("true", "false"):
            m = RunManifest.load(write(tmp_path, "[grid]\ndatasets = toy\n" + entry.format(scale)))
            digests.add(run_hash(m, expand_grid(m)))
        assert len(digests) == 2
        # an entry outside the grid leaves the digest alone
        m = RunManifest.load(write(tmp_path, entry.format("true")))
        assert run_hash(m, expand_grid(m)) == "1aacefb9be"


# A value other than the default of each setting, as [defaults] text, and its
# `fedsim run` flag (None where it has none).
NON_DEFAULT_SETTINGS = {
    "alpha": ("0.35", "--alpha"),
    "learning_rate": ("0.05", "--lr"),
    "batch_size": ("7", "--batch-size"),
    "local_epochs": ("2", "--local-epochs"),
    "repeats": ("3", "--repeats"),
    "master_seed": ("9", "--seed"),
    "holdout_fraction": ("0.3", None),
    "local_test_fraction": ("0.25", None),
    "hidden_dims": ("4, 2", None),
}


class TestCellConfig:
    CELL = GridCell("synth-small", 3, 2, AggregationStrategy.FEDAVG)

    @staticmethod
    def setting(cfg, name):
        return getattr(cfg.train if hasattr(cfg.train, name) else cfg, name)

    def test_defaults_are_the_library_defaults(self):
        cell = self.CELL
        assert cell_config(RunManifest(), cell) == ExperimentConfig(
            cell.dataset, cell.clients, cell.rounds, cell.strategy)

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_every_setting_reaches_the_config(self, tmp_path, name):
        text, flag = NON_DEFAULT_SETTINGS[name]
        value = SETTINGS[name](text)
        assert self.setting(cell_config(RunManifest(), self.CELL), name) != value
        m = RunManifest.load(write(tmp_path, f"[defaults]\n{name} = {text}\n"))
        assert self.setting(cell_config(m, self.CELL), name) == value
        if flag is None:
            assert not hasattr(parse_run([]), name)
            return
        m = RunManifest()
        _apply_overrides(m, parse_run([flag, text]))
        assert self.setting(cell_config(m, self.CELL), name) == value

    def test_each_cell_config_is_built_once(self, tmp_path, monkeypatch):
        real, calls = cli.cell_config, []
        monkeypatch.setattr(cli, "cell_config",
                            lambda manifest, cell: calls.append(cell) or real(manifest, cell))
        code = main(["run", "--datasets", "synth-small", "--clients", "3,4", "--rounds", "1",
                     "--repeats", "1", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert len(calls) == len(set(calls)) == 4


class TestRunCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        manifest = write(tmp_path, SMALL_MANIFEST)
        out = tmp_path / "results"
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_OK

        summaries = list(out.glob("summary_*.csv"))
        assert len(summaries) == 1
        with summaries[0].open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one per strategy
        assert list(rows[0]) == SUMMARY_FIELDS

        round_logs = sorted(out.glob("rounds_*.csv"))
        assert len(round_logs) == 2
        with round_logs[0].open(newline="") as fh:
            log_rows = list(csv.DictReader(fh))
        # repeats x rounds rows per cell
        assert len(log_rows) == 2 * 2
        assert {r["round"] for r in log_rows} == {"1", "2"}

        metas = list(out.glob("meta_*.json"))
        assert len(metas) == 1
        meta = json.loads(metas[0].read_text())
        assert set(meta["wall_time_s"]) == {c.split("rounds_")[1].rsplit("_", 1)[0]
                                            for c in (p.name for p in round_logs)}
        # the human-readable table lands on stdout
        assert "synth-small" in capsys.readouterr().out

    def test_summary_bodies_are_byte_identical_across_runs(self, tmp_path):
        manifest = write(tmp_path, SMALL_MANIFEST)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
            outs.append(next(out.glob("summary_*.csv")))
        assert outs[0].name == outs[1].name
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_threads_flag_gives_identical_summary(self, tmp_path):
        manifest = write(tmp_path, SMALL_MANIFEST)
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        assert main(["run", "--manifest", str(manifest), "--out", str(seq_dir)]) == EXIT_OK
        assert main(["run", "--manifest", str(manifest), "--out", str(par_dir),
                     "--threads", "4"]) == EXIT_OK
        assert next(seq_dir.glob("summary_*.csv")).read_bytes() == \
            next(par_dir.glob("summary_*.csv")).read_bytes()

    def test_one_cell_gives_identical_outputs_on_one_and_two_threads(self, tmp_path):
        argv = ["run", "--dataset", "synth-small", "--clients", "4", "--rounds", "2",
                "--repeats", "2", "--strategy", "dw-fedavg"]
        outs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main([*argv, "--threads", threads, "--out", str(out)]) == EXIT_OK
            outs[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                             if not p.name.startswith("meta_")}
        assert sorted(n.split("_")[0] for n in outs["1"]) == ["rounds", "summary"]
        assert outs["1"] == outs["2"]

    @pytest.mark.parametrize("clients, threads, trained_on", [
        ("3", "2", [2]), ("3", "1", [1]), ("2,3", "2", [1, 1]), ("2,3", "1", [1, 1]),
    ])
    def test_a_lone_cell_trains_on_the_threads_a_pooled_cell_on_one(
            self, tmp_path, monkeypatch, clients, threads, trained_on):
        real, seen = cli.run_family, []

        def spy(cfgs, dataset, **kwargs):
            seen.append(kwargs["threads"])
            return real(cfgs, dataset, **kwargs)

        monkeypatch.setattr(cli, "run_family", spy)
        assert main(["run", "--dataset", "synth-small", "--clients", clients, "--rounds", "1",
                     "--repeats", "1", "--strategy", "fedavg", "--threads", threads,
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert seen == trained_on

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("dataset, loader", [("synth-small", "resolve_synthetic"),
                                                 ("toy", "load_csv")])
    def test_a_grid_dataset_is_loaded_once_and_its_families_share_the_table(
            self, tmp_path, monkeypatch, dataset, loader, threads):
        rows = "".join(f"{i % 7},{i % 3},{'BS'[i % 2]}\n" for i in range(200))
        (tmp_path / "toy.csv").write_text("f0,f1,class\n" + rows, encoding="utf-8")
        manifest = write(tmp_path, "[dataset.toy]\npath = toy.csv\nscale = true\n")
        real_load, real_family, loaded, trained_on = (
            getattr(manifest_module, loader), cli.run_family, [], [])

        def spy_load(*args, **kwargs):
            loaded.append(real_load(*args, **kwargs))
            return loaded[-1]

        def spy_family(cfgs, table, **kwargs):
            trained_on.append(table)
            return real_family(cfgs, table, **kwargs)

        monkeypatch.setattr(manifest_module, loader, spy_load)
        monkeypatch.setattr(cli, "run_family", spy_family)
        assert main(["run", "--manifest", str(manifest), "--dataset", dataset,
                     "--clients", "3,4", "--rounds", "1", "--repeats", "1",
                     "--strategy", "fedavg", "--threads", threads,
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(loaded) == 1
        assert len(trained_on) == 2 and all(table is loaded[0] for table in trained_on)

    def test_missing_manifest_is_exit_two(self, tmp_path, capsys):
        code = main(["run", "--manifest", str(tmp_path / "missing.ini")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_missing_dataset_path_names_entry(self, tmp_path, capsys):
        text = SMALL_MANIFEST + "\n[dataset.broken]\npath = nowhere.csv\n"
        manifest = write(tmp_path, text)
        code = main(["run", "--manifest", str(manifest), "--datasets", "broken",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "broken" in err and "nowhere.csv" in err

    def test_unknown_dataset_is_exit_two(self, tmp_path, capsys):
        code = main(["run", "--dataset", "nope", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "unknown dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "1.5"), ("--clients", "1"), ("--batch-size", "0"),
        ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"), ("--repeats", "0"), ("--seed", "-1"),
    ])
    def test_bad_hyperparameter_is_exit_two_before_any_output(self, tmp_path, capsys,
                                                               flag, value):
        out = tmp_path / "o"
        code = main(["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1",
                     flag, value, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--threads", "0", "--threads"), ("--threads", "-3", "--threads"),
        ("--clients", "3,3", "synth-small_c3_r1_fedavg"),
        ("--strategies", ",", "--strategies"), ("--datasets", ",", "--datasets"),
    ])
    def test_bad_grid_is_exit_two_before_any_output(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "o"
        code = main(["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1",
                     flag, value, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", "  "])
    def test_an_empty_out_is_exit_two_and_creates_no_directory(self, tmp_path, capsys,
                                                               monkeypatch, value):
        # an empty --out is the empty path that "[output] dir =" rejects, not "."
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--dataset", "synth-small", "--clients", "3", "--rounds", "1",
                     "--repeats", "1", "--out", value])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --out: empty path\n"
        assert not list(tmp_path.iterdir())

    # numpy warns of the overflow this run provokes on purpose
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_is_exit_one_without_summary(self, tmp_path, caplog):
        # at this seed and learning rate two clients overflow to inf in round 1
        out = tmp_path / "o"
        code = main(["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1",
                     "--strategy", "fedavg", "--seed", "43", "--lr", "50", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert "client 1: local training diverged" in caplog.text
        assert "learning rate 50.0" in caplog.text
        assert not list(out.glob("summary_*.csv"))
        assert not out.exists()  # the directory this run created is removed again

    def test_finished_round_logs_survive_a_later_cell_failure(self, tmp_path, monkeypatch):
        argv = ["run", "--dataset", "synth-small", "--clients", "2,3", "--rounds", "1",
                "--repeats", "1", "--strategy", "fedavg"]
        clean = tmp_path / "clean"
        assert main([*argv, "--out", str(clean)]) == EXIT_OK
        real, calls = cli.run_family, []

        def fail_second_cell(cfgs, dataset, *args, **kwargs):
            calls.append(cfgs[0].n_clients)
            if len(calls) == 2:
                raise RuntimeError("second cell failed")
            return real(cfgs, dataset, *args, **kwargs)

        monkeypatch.setattr(cli, "run_family", fail_second_cell)
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_RUNTIME
        assert calls == [2, 3]
        first = next(clean.glob("rounds_synth-small_c2_*.csv"))
        assert [p.name for p in out.iterdir()] == [first.name]  # no summary, meta or second log
        assert (out / first.name).read_bytes() == first.read_bytes()

    def test_a_failed_grid_leaves_the_same_round_logs_at_any_thread_count(
            self, tmp_path, monkeypatch):
        def dw_fedavg(models, idx):
            raise RuntimeError("dw aggregation failed")

        monkeypatch.setattr(federation, "dw_fedavg", dw_fedavg)
        logs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["run", "--dataset", "synth-small", "--clients", "2,3", "--rounds", "1",
                         "--repeats", "1", "--strategies", "fedavg,dw-fedavg",
                         "--threads", threads, "--out", str(out)]) == EXIT_RUNTIME
            logs[threads] = round_logs(out)
        assert logs["1"] == logs["2"]
        assert sorted(logs["1"]) == ["synth-small_c2_r1_fedavg", "synth-small_c3_r1_fedavg"]

    def test_a_failed_round_log_write_leaves_the_same_round_logs_at_any_thread_count(
            self, tmp_path, monkeypatch):
        real = cli.write_round_log

        def write_round_log(path, cell, result):
            if cell.clients == 3:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            real(path, cell, result)

        monkeypatch.setattr(cli, "write_round_log", write_round_log)
        logs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["run", "--dataset", "synth-small", "--clients", "3,4,5", "--rounds", "1",
                         "--repeats", "1", "--threads", threads, "--out", str(out)]) == EXIT_RUNTIME
            logs[threads] = round_logs(out)
        assert logs["1"] == logs["2"]
        assert sorted(logs["1"]) == [f"synth-small_c{k}_r1_{s}" for k in (4, 5)
                                     for s in ("dw-fedavg", "fedavg")]

    def test_a_client_count_too_large_for_the_dataset_is_exit_two_before_any_cell(
            self, tmp_path, capsys, monkeypatch):
        # the 3-client family comes first in the grid and splits fine
        real, calls = cli.run_family, []
        monkeypatch.setattr(cli, "run_family",
                            lambda cfgs, dataset, *args, **kwargs:
                            calls.append(cfgs) or real(cfgs, dataset, *args, **kwargs))
        out = tmp_path / "o"
        code = main(["run", "--dataset", "synth-small", "--clients", "3,150", "--rounds", "1",
                     "--repeats", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: synth-small: ")
        assert calls == []
        assert not out.exists()

    def test_holdout_fraction_that_draws_no_class_sample_is_exit_two(self, tmp_path, capsys):
        manifest = write(tmp_path, "[defaults]\nholdout_fraction = 0.001\nrepeats = 1\n")
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--rounds", "1", "--clients", "2",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "holdout fraction 0.001 draws no sample of class" in capsys.readouterr().err
        assert not out.exists()

    # the same divergent run as above, and its warnings
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_runtime_failure_keeps_an_output_directory_it_did_not_create(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        code = main(["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1",
                     "--strategy", "fedavg", "--seed", "43", "--lr", "50", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert out.is_dir()

    @pytest.mark.parametrize("entry, named", [
        ("scale = maybe", "[dataset.toy] scale"),
        ("labels = B:0, S:2", "'S:2'"),
        ("labels = :1, B:0, S:1", "':1' has no label"),
    ])
    def test_bad_dataset_entry_is_exit_two_before_any_output(self, tmp_path, capsys,
                                                             entry, named):
        (tmp_path / "toy.csv").write_text("f0,class\n1,B\n0,S\n", encoding="utf-8")
        manifest = write(tmp_path, "[grid]\ndatasets = toy\n\n"
                                   f"[dataset.toy]\npath = toy.csv\n{entry}\n")
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a/b", "a\\b"])
    def test_dataset_name_with_a_path_separator_is_exit_two_before_any_cell(
            self, tmp_path, capsys, monkeypatch, name):
        rows = "".join(f"{i % 7},{i % 3},{'BS'[i % 2]}\n" for i in range(200))
        (tmp_path / "toy.csv").write_text("f0,f1,class\n" + rows, encoding="utf-8")
        manifest = write(tmp_path, f"[grid]\ndatasets = {name}\n\n"
                                   f"[dataset.{name}]\npath = toy.csv\n")
        real, calls = cli.run_family, []
        monkeypatch.setattr(cli, "run_family",
                            lambda cfgs, dataset, *args, **kwargs:
                            calls.append(cfgs) or real(cfgs, dataset, *args, **kwargs))
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--rounds", "1", "--repeats", "1",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {manifest}: [dataset.{name}] dataset name holds a path separator\n")
        assert calls == []
        assert not out.exists()

    def test_csv_load_error_is_exit_two_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # the synth-small cells come first in the grid
        (tmp_path / "toy.csv").write_text("f0,class\n1,B\n0,Q\n", encoding="utf-8")
        manifest = write(tmp_path, "[grid]\ndatasets = synth-small, toy\n\n"
                                   "[dataset.toy]\npath = toy.csv\n")
        real, calls = cli.run_family, []
        monkeypatch.setattr(cli, "run_family",
                            lambda cfgs, dataset, *args, **kwargs:
                            calls.append(cfgs) or real(cfgs, dataset, *args, **kwargs))
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--clients", "3", "--rounds", "1",
                     "--repeats", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "toy.csv:3: unknown label value" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_csv_that_is_not_utf8_is_exit_two_before_any_output(self, tmp_path, capsys):
        (tmp_path / "toy.csv").write_bytes(b"f\xe4,class\n1,B\n0,S\n")
        manifest = write(tmp_path, "[grid]\ndatasets = toy\n\n[dataset.toy]\npath = toy.csv\n")
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "toy.csv: not UTF-8 text: byte 0xe4 at offset 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        ("[defaults]\nalpha = lots\n", "[defaults] alpha: could not convert string to float"),
        ("[dataset.toy]\npath = toy.csv\nlabels = B:0, b:1, S:1\n",
         "[dataset.toy] labels: label 'b' is mapped twice"),
        ("[dataset.Toy]\npath = toy.csv\n\n[dataset.toy]\npath = toy.csv\n",
         "[dataset.toy] declares dataset 'toy' a second time"),
        ("alpha = 0.3\n[defaults]\n", "no section headers"),
        ("[defaults]\nalpha = 0.3\nalpha = 0.4\n", "'alpha' in section 'defaults' already exists"),
    ], ids=["defaults-value", "label-twice", "dataset-twice", "key-before-section", "key-twice"])
    def test_manifest_fault_is_exit_two_naming_the_file(self, tmp_path, capsys, text, named):
        manifest = write(tmp_path, text)
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and named in err
        assert not out.exists()

    # 3000000000000000000 passes ExperimentConfig, which sizes the network at input
    # width 1, and is too large at synth-small's 30 features
    @pytest.mark.parametrize("value", ["", ",", "64, x", "99999999999999999999",
                                       "3000000000000000000"])
    def test_bad_hidden_dims_is_exit_two_before_any_output(self, tmp_path, capsys, value):
        manifest = write(tmp_path, f"[grid]\ndatasets = synth-small\n\n"
                                   f"[defaults]\nhidden_dims = {value}\n")
        out = tmp_path / "o"
        code = main(["run", "--manifest", str(manifest), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "hidden_dims" in err
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    @pytest.mark.parametrize("via", ["flag", "manifest"])
    def test_output_path_that_cannot_be_a_directory_is_exit_two(self, tmp_path, capsys,
                                                                below, via):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        argv = ["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1"]
        if via == "flag":
            argv += ["--out", str(out)]
        else:
            argv += ["--manifest", str(write(tmp_path, f"[output]\ndir = {out}\n"))]
        code = main(argv)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["taken"] + (["m.ini"] if via == "manifest" else []))

    def test_manifest_with_a_utf8_bom_runs(self, tmp_path):
        manifest = tmp_path / "m.ini"
        manifest.write_bytes(b"\xef\xbb\xbf[grid]\ndatasets = synth-small\nclients = 2\nrounds = 1\n"
                             b"strategies = fedavg\n\n[defaults]\nrepeats = 1\n")
        out = tmp_path / "o"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        assert len(list(out.glob("summary_*.csv"))) == 1

    def test_manifest_that_is_not_utf8_is_exit_two_naming_the_byte(self, tmp_path, capsys):
        manifest = tmp_path / "m.ini"
        manifest.write_bytes(b"[grid]\n# caf\xe9\ndatasets = synth-small\n")
        out = tmp_path / "o"
        assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {manifest}: not UTF-8 text: byte 0xe9 at offset 12\n")
        assert not out.exists()

    def test_meta_records_the_blas_training_ran_with(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1",
                     "--clients", "2", "--out", str(out)]) == EXIT_OK
        blas = json.loads(next(out.glob("meta_*.json")).read_text())["blas"]
        library = _blas.blas_library()
        assert blas == {"library": library, "threads": 1 if library else None}


FAMILY_MANIFEST = """
[defaults]
hidden_dims = 8
local_epochs = 2
repeats = 2
master_seed = 5
"""
FAMILY_GRID = ["--dataset", "synth-small", "--clients", "2,3", "--rounds", "2,4",
               "--strategies", "fedavg,dw-fedavg"]
ONE_FAMILY = [*FAMILY_GRID[:2], "--clients", "3", *FAMILY_GRID[4:]]
FAMILY_CELLS = [f"synth-small_c{c}_r{r}_{s}" for c in (2, 3) for r in (2, 4)
                for s in ("fedavg", "dw-fedavg")]


def cell_argv(slug):
    """`fedsim run` grid flags of the one cell named by ``slug``."""
    dataset, clients, rounds, strategy = re.fullmatch(r"(.+)_c(\d+)_r(\d+)_(.+)", slug).groups()
    return ["--dataset", dataset, "--clients", clients, "--rounds", rounds,
            "--strategies", strategy]


def round_logs(out):
    """Round log bytes by cell slug; the names differ across runs only by their run hash."""
    return {p.name[len("rounds_"):].rsplit("_", 1)[0]: p.read_bytes()
            for p in out.glob("rounds_*.csv")}


def summary_rows(out):
    """Summary rows by cell slug."""
    with next(out.glob("summary_*.csv")).open(newline="") as fh:
        return {"{dataset}_c{clients}_r{rounds}_{strategy}".format(**row): row
                for row in csv.DictReader(fh)}


class TestFamilies:
    """A grid trains each (dataset, clients) family once, and its outputs are the cells' own."""

    @pytest.fixture(scope="class")
    def alone(self, tmp_path_factory):
        """Each cell of the family grid run by itself: (round log, summary row) by slug."""
        root = tmp_path_factory.mktemp("alone")
        manifest = write(root, FAMILY_MANIFEST)
        cells = {}
        for slug in FAMILY_CELLS:
            out = root / slug
            assert main(["run", "--manifest", str(manifest), *cell_argv(slug),
                         "--out", str(out)]) == EXIT_OK
            cells[slug] = (round_logs(out)[slug], summary_rows(out)[slug])
        return cells

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_grid_outputs_are_the_cells_run_alone_and_train_fewer_rounds(
            self, tmp_path, monkeypatch, alone, threads):
        real_round, real_train = federation.run_round, federation.ClientState.local_update
        current, trainings = threading.local(), []

        def spy_round(*args, **kwargs):
            current.key = (len(args[1]), kwargs["run_seed"], kwargs["round_num"])
            return real_round(*args, **kwargs)

        def spy_train(*args, **kwargs):
            trainings.append(current.key)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(federation, "run_round", spy_round)
        monkeypatch.setattr(federation.ClientState, "local_update", spy_train)
        out = tmp_path / "grid"
        assert main(["run", "--manifest", str(write(tmp_path, FAMILY_MANIFEST)), *FAMILY_GRID,
                     "--threads", threads, "--out", str(out)]) == EXIT_OK
        assert round_logs(out) == {slug: log for slug, (log, _) in alone.items()}
        assert summary_rows(out) == {slug: row for slug, (_, row) in alone.items()}
        # each cell alone trains 2 + 4 rounds per strategy: 12 per family repeat
        for clients in (2, 3):
            for run_seed in (5, 6):
                rounds = [r for c, seed, r in trainings if (c, seed) == (clients, run_seed)]
                assert 4 <= len(rounds) <= 2 * 4 - 1
                assert rounds.count(1) == 1

    @pytest.mark.parametrize("failing_repeat", [0, 1])
    def test_a_server_stopped_in_round_3_still_writes_its_2_round_cells(
            self, tmp_path, monkeypatch, caplog, alone, failing_repeat):
        real, seen = federation._client_rng, []

        def client_rng(run_seed, round_num, client_id):  # a training stream
            seen.append((run_seed, round_num))
            if run_seed == 5 + failing_repeat and round_num >= 3:
                raise RuntimeError(f"training failed in round {round_num} of seed {run_seed}")
            return real(run_seed, round_num, client_id)

        monkeypatch.setattr(federation, "_client_rng", client_rng)
        manifest = write(tmp_path, FAMILY_MANIFEST)
        out = tmp_path / "grid"
        assert main(["run", "--manifest", str(manifest), *ONE_FAMILY,
                     "--out", str(out)]) == EXIT_RUNTIME
        failures = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert failures == [f"run failed: training failed in round 3 of seed {5 + failing_repeat}"]
        short = [f"synth-small_c3_r2_{s}" for s in ("fedavg", "dw-fedavg")]
        assert round_logs(out) == {slug: alone[slug][0] for slug in short}
        assert not list(out.glob("summary_*.csv"))
        if failing_repeat == 0:  # the later repeat still runs the servers to the family's 4 rounds
            assert max(r for seed, r in seen if seed == 6) == 4
        # the 4-round cell alone fails with the same message
        caplog.clear()
        assert main(["run", "--manifest", str(manifest), *cell_argv("synth-small_c3_r4_fedavg"),
                     "--out", str(tmp_path / "alone")]) == EXIT_RUNTIME
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == failures

    def test_a_failing_dw_server_still_writes_the_fedavg_cells(
            self, tmp_path, monkeypatch, caplog, alone):
        def dw_fedavg(models, idx):
            raise RuntimeError("dw aggregation failed")

        monkeypatch.setattr(federation, "dw_fedavg", dw_fedavg)
        out = tmp_path / "grid"
        assert main(["run", "--manifest", str(write(tmp_path, FAMILY_MANIFEST)), *ONE_FAMILY,
                     "--out", str(out)]) == EXIT_RUNTIME
        assert "run failed: dw aggregation failed" in caplog.text
        fedavg = [f"synth-small_c3_r{r}_fedavg" for r in (2, 4)]
        assert round_logs(out) == {slug: alone[slug][0] for slug in fedavg}
        assert not list(out.glob("summary_*.csv"))

    def test_each_family_repeat_logs_its_rounds_and_meta_counts_them(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="fedsim")
        out = tmp_path / "o"
        assert main(["run", "--manifest", str(write(tmp_path, FAMILY_MANIFEST)), *FAMILY_GRID,
                     "--out", str(out)]) == EXIT_OK
        lines = re.findall(r"family synth-small c(\d) repeat (\d)/2: (\d+) rounds trained "
                           r"for 12 reported, \d+\.\ds", caplog.text)
        assert [(c, r) for c, r, _ in lines] == [("2", "1"), ("2", "2"), ("3", "1"), ("3", "2")]
        meta = json.loads(next(out.glob("meta_*.json")).read_text())
        assert meta["rounds_trained"] == {
            f"synth-small_c{c}": sum(int(n) for family, _, n in lines if family == str(c))
            for c in (2, 3)}
        assert all(8 <= n <= 14 for n in meta["rounds_trained"].values())
        # every cell of a family holds the family's wall time, and the total sums families
        walls = meta["wall_time_s"]
        assert set(walls) == set(FAMILY_CELLS)
        family_walls = [walls[f"synth-small_c{c}_r2_fedavg"] for c in (2, 3)]
        for slug in FAMILY_CELLS:
            assert walls[slug] == family_walls[int(slug[len("synth-small_c")]) - 2]
        assert meta["total_wall_time_s"] == pytest.approx(sum(family_walls), abs=0.002)


def make_summary(tmp_path, name, rows):
    path = tmp_path / name
    with path.open("w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return path


def summary_row(dataset="malgenome", clients="5", rounds="10", strategy="fedavg",
                accuracy="0.990000", f1="0.980000", auc="0.995000", fpr="0.010000"):
    row = {"dataset": dataset, "clients": clients, "rounds": rounds, "strategy": strategy}
    for metric, value in (("accuracy", accuracy), ("f1", f1), ("auc", auc), ("fpr", fpr)):
        row[f"{metric}_mean"] = value
        row[f"{metric}_std"] = "0.001000"
    return row


class TestCompareCommand:
    def test_identical_inputs_give_zero_deltas(self, tmp_path, capsys):
        rows = [summary_row(), summary_row(strategy="dw-fedavg", accuracy="0.994300")]
        a = make_summary(tmp_path, "a.csv", rows)
        b = make_summary(tmp_path, "b.csv", rows)
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        out = capsys.readouterr().out
        for line in out.splitlines()[2:]:
            assert "+0.000" in line and "-0." not in line

    def test_published_malgenome_delta_in_points(self):
        # FedAvg 0.9911 vs DW 0.9943 at 5 clients: +0.32 points
        rows_a = [summary_row(strategy="fedavg", accuracy="0.991100")]
        rows_b = [summary_row(strategy="dw-fedavg", accuracy="0.994300")]
        deltas = compare_rows(rows_a, rows_b)
        assert deltas[0]["accuracy_delta_pp"] == "+0.320"
        assert deltas[0]["strategy_a"] == "fedavg"
        assert deltas[0]["strategy_b"] == "dw-fedavg"

    def test_constructed_offsets_are_exact(self):
        rows_a = [summary_row(accuracy="0.900000", f1="0.800000",
                              auc="0.700000", fpr="0.100000")]
        rows_b = [summary_row(accuracy="0.950000", f1="0.850000",
                              auc="0.750000", fpr="0.050000")]
        deltas = compare_rows(rows_a, rows_b)
        assert deltas[0]["accuracy_delta_pp"] == "+5.000"
        assert deltas[0]["f1_delta_pp"] == "+5.000"
        assert deltas[0]["auc_delta_pp"] == "+5.000"
        assert deltas[0]["fpr_delta_pp"] == "-5.000"

    @pytest.mark.parametrize("missing", ["a", "b"])
    def test_missing_summary_file_is_exit_two_naming_it(self, tmp_path, capsys, missing):
        paths = {"a": make_summary(tmp_path, "a.csv", [summary_row()]),
                 "b": make_summary(tmp_path, "b.csv", [summary_row()])}
        paths[missing] = tmp_path / "gone.csv"
        assert main(["compare", str(paths["a"]), str(paths["b"])]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: summary file not found: {paths[missing]}\n"
        assert captured.out == ""

    def test_key_mismatch_is_exit_two(self, tmp_path, capsys):
        a = make_summary(tmp_path, "a.csv", [summary_row(clients="5")])
        b = make_summary(tmp_path, "b.csv", [summary_row(clients="10")])
        assert main(["compare", str(a), str(b)]) == EXIT_CONFIG
        assert "key mismatch" in capsys.readouterr().err

    def test_delta_csv_output(self, tmp_path):
        a = make_summary(tmp_path, "a.csv", [summary_row(strategy="fedavg")])
        b = make_summary(tmp_path, "b.csv", [summary_row(strategy="dw-fedavg")])
        out = tmp_path / "delta.csv"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == EXIT_OK
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["accuracy_delta_pp"] == "+0.000"

    def test_stdout_table_layout(self, tmp_path, capsys):
        a = make_summary(tmp_path, "a.csv", [summary_row(strategy="fedavg", accuracy="0.991100"),
                                             summary_row(clients="15", accuracy="0.990000")])
        b = make_summary(tmp_path, "b.csv", [summary_row(strategy="dw-fedavg", accuracy="0.994300"),
                                             summary_row(clients="15", strategy="dw-fedavg",
                                                         accuracy="0.980000")])
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "dataset    clients  rounds  strategy_a  strategy_b  accuracy_delta_pp  f1_delta_pp"
            "  auc_delta_pp  fpr_delta_pp\n"
            "---------  -------  ------  ----------  ----------  -----------------  -----------"
            "  ------------  ------------\n"
            "malgenome  5        10      fedavg      dw-fedavg   +0.320             +0.000     "
            "  +0.000        +0.000\n"
            "malgenome  15       10      fedavg      dw-fedavg   -1.000             +0.000     "
            "  +0.000        +0.000\n"
        )

    def test_key_matching_two_rows_of_b_is_exit_two(self, tmp_path, capsys):
        # the strategy sets differ, so the join drops the strategy and B's two rows share a key
        a = make_summary(tmp_path, "a.csv", [summary_row(strategy="dw-fedavg")])
        b = make_summary(tmp_path, "b.csv", [summary_row(strategy="fedavg"),
                                             summary_row(strategy="dw-fedavg")])
        assert main(["compare", str(a), str(b)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "2 rows of the second summary match ('malgenome', '5', '10')" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_numeric_metric_is_exit_two_naming_the_file(self, tmp_path, capsys, value):
        a = make_summary(tmp_path, "a.csv", [summary_row()])
        b = make_summary(tmp_path, "b.csv", [summary_row(), summary_row(clients="10", auc=value)])
        assert main(["compare", str(a), str(b)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{b}:3: auc_mean is not a number: '{value}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("below", ["", "d.csv"], ids=["directory", "under-file"])
    def test_out_that_cannot_be_written_is_exit_two(self, tmp_path, capsys, below):
        a = make_summary(tmp_path, "a.csv", [summary_row()])
        if below:
            (tmp_path / "taken").write_text("kept\n")
        else:
            (tmp_path / "taken").mkdir()
        out = tmp_path / "taken" / below if below else tmp_path / "taken"
        assert main(["compare", str(a), str(a), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ") and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "taken"]

    def test_summary_with_a_utf8_bom_compares(self, tmp_path, capsys):
        a = make_summary(tmp_path, "a.csv", [summary_row()])
        b = tmp_path / "b.csv"
        b.write_bytes(b"\xef\xbb\xbf" + a.read_bytes())
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        assert "+0.000" in capsys.readouterr().out

    def test_summary_that_is_not_utf8_is_exit_two_naming_the_byte(self, tmp_path, capsys):
        a = make_summary(tmp_path, "a.csv", [summary_row()])
        b = tmp_path / "b.csv"
        b.write_bytes(a.read_bytes().replace(b"malgenome", b"malg\xe9nome"))
        offset = b.read_bytes().index(b"\xe9")
        assert main(["compare", str(a), str(b)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {b}: not UTF-8 text: byte 0xe9 at offset {offset}\n"
        assert captured.out == ""

    def test_malformed_summary_rejected(self, tmp_path):
        from fedsim.manifest import ConfigError
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="not a summary"):
            load_summary(bad)


class TestEntrypoint:
    @pytest.mark.parametrize("clients, code", [("3", EXIT_OK), ("1", EXIT_CONFIG)])
    def test_module_run_exits_with_the_run_code(self, tmp_path, clients, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", "--dataset", "synth-small",
             "--clients", clients, "--rounds", "1", "--repeats", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == code, proc.stderr
        assert len(list(out.glob("summary_*.csv"))) == (1 if code == EXIT_OK else 0)


class TestDocs:
    def test_readme_option_table_lists_exactly_the_run_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| option | meaning | default |\n", 1)[1].split("\n\n", 1)[0]
        documented = {flag for line in table.splitlines()
                      for flag in re.findall(r"--[a-z][a-z-]*", line.split("|")[1])}
        run = build_parser()._subparsers._group_actions[0].choices["run"]
        flags = {opt for action in run._actions for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"}
        assert documented == flags

    def test_readme_manifest_example_names_every_manifest_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        manifest = write(tmp_path, readme.split("```ini\n", 1)[1].split("```", 1)[0])
        RunManifest.load(manifest)
        parser = configparser.ConfigParser()
        parser.read(manifest, encoding="utf-8")
        named = {("dataset.*" if section.startswith("dataset.") else section, key)
                 for section in parser.sections() for key in parser[section]}
        table = {(kind, key) for kind, keys in manifest_module._MANIFEST_KEYS.items()
                 for key in keys}
        assert named == table - {("defaults", "lr"), ("defaults", "seed")}

    def test_readme_library_example_runs(self):
        # its asserts tie a repeat run alone and a family result to the experiment
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use\n", 1)[1]
        exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})


class TestFormatting:
    def test_table_has_header_rule_and_rows(self):
        rows = [summary_row(), summary_row(strategy="dw-fedavg")]
        text = format_summary_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("dataset")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

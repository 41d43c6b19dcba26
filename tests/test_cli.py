"""CLI tests: grid expansion, output files, exit codes and the compare tool."""
import csv
import json

import pytest

from fedsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    SUMMARY_FIELDS,
    build_parser,
    compare_rows,
    expand_grid,
    format_summary_table,
    load_summary,
    main,
    run_hash,
    _apply_overrides,
)
from fedsim.manifest import RunManifest


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
        assert manifest.master_seed == 123

    def test_bad_clients_value_is_config_error(self, tmp_path):
        from fedsim.manifest import ConfigError
        manifest = RunManifest()
        with pytest.raises(ConfigError, match="--clients"):
            _apply_overrides(manifest, parse_run(["--clients", "five"]))

    def test_run_hash_is_stable_and_sensitive(self):
        m = RunManifest()
        cells = expand_grid(m)
        assert run_hash(m, cells) == run_hash(m, cells)
        m2 = RunManifest(master_seed=43)
        assert run_hash(m, cells) != run_hash(m2, expand_grid(m2))


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
        ("--lr", "-1"), ("--repeats", "0"), ("--seed", "-1"),
    ])
    def test_bad_hyperparameter_is_exit_two_before_any_output(self, tmp_path, capsys,
                                                               flag, value):
        out = tmp_path / "o"
        code = main(["run", "--dataset", "synth-small", "--rounds", "1", "--repeats", "1",
                     flag, value, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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

    def test_malformed_summary_rejected(self, tmp_path):
        from fedsim.manifest import ConfigError
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="not a summary"):
            load_summary(bad)


class TestFormatting:
    def test_table_has_header_rule_and_rows(self):
        rows = [summary_row(), summary_row(strategy="dw-fedavg")]
        text = format_summary_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("dataset")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

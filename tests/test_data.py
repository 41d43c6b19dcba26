"""Dataset loading, holdout splitting and client partition tests."""
import csv
import functools
import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fedsim import data
from fedsim.data import (
    DEFAULT_LABEL_MAP,
    Dataset,
    DatasetError,
    _check_known_profile,
    holdout_split,
    load_csv,
    min_max_scale,
    narrow_table,
    partition_clients,
)
from fedsim.manifest import RunManifest


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def class_counts(labels):
    return tuple(np.bincount(labels, minlength=2).tolist())


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

    def test_an_empty_label_in_the_map_is_an_error(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "f0,class\n1,B\n2,\n3,S\n")
        with pytest.raises(DatasetError, match="empty label"):
            load_csv(p, "class", {"": 1, "B": 0, "S": 1})

    def test_map_keys_that_are_one_label_are_an_error(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "f0,class\n1,B\n2,S\n3,b\n")
        with pytest.raises(DatasetError, match="label map keys 'B' and ' b' name one label"):
            load_csv(p, "class", {"B": 0, " b": 1, "S": 1})

    # one body per reader: bytes, numpy's C reader, the row rules
    @pytest.mark.parametrize("body", ["1,B\n2,S\n3,B\n", "10,B\n20,S\n30,B\n",
                                      '1,"B"\n2,S\n3,B\n'])
    def test_map_keys_match_stripped(self, tmp_path, body):
        p = write_csv(tmp_path / "toy.csv", "f0,class\n" + body)
        assert load_csv(p, "class", {" B": 0, "S": 1}).labels.tolist() == [0, 1, 0]

    def test_unknown_label_is_error_with_line(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "f0,class\n1,B\n2,weird\n")
        with pytest.raises(DatasetError, match="toy.csv:3.*'weird'"):
            load_csv(p, "class")

    @pytest.mark.parametrize("content, lineno", [
        (b'f0,class\n"1\n2",B\n3,S\n4,weird\n', 5),
        (b'"f\r\n0",class\r\n1,B\r\n2,S\r\nx,S\r\n3,weird\r\n', 6),
    ], ids=["line-end-in-quoted-body", "line-end-in-quoted-header"])
    def test_unknown_label_error_names_its_file_line(self, tmp_path, content, lineno):
        p = tmp_path / "toy.csv"
        p.write_bytes(content)
        with pytest.raises(DatasetError, match=f"toy.csv:{lineno}: unknown label value 'weird'"):
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

    def test_non_utf8_byte_is_error_with_offset(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_bytes(b"\xef\xbb\xbff\xe4,class\n1,B\n2,S\n")
        with pytest.raises(DatasetError, match=r"toy.csv: not UTF-8 text: byte 0xe4 at offset 4"):
            load_csv(p, "class")

    def test_header_with_only_the_label_column(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "class\nB\nS\n")
        with pytest.raises(DatasetError, match="toy.csv: no feature column"):
            load_csv(p, "class")

    def test_label_column_named_twice(self, tmp_path):
        p = write_csv(tmp_path / "toy.csv", "f0,class,class\n1,B,B\n2,S,S\n")
        with pytest.raises(DatasetError,
                           match=r"toy.csv: label column 'class' .* at columns 2, 3"):
            load_csv(p, "class")

    def test_known_name_shape_mismatch_warns_not_fails(self, tmp_path, caplog):
        p = write_csv(tmp_path / "m.csv", "a,class\n1,B\n2,S\n")
        with caplog.at_level(logging.WARNING):
            ds = load_csv(p, "class", name="malgenome")
        assert len(ds) == 2
        assert "published reference" in caplog.text

    def test_a_quoted_body_is_held_once(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = [",".join([*map(str, rng.integers(0, 2, 60)), "B" if i % 2 else "S"])
                 for i in range(4000)]
        lines[100] = f'{lines[100][:-1]}"{lines[100][-1]}"'  # a quoted label
        p = write_csv(tmp_path / "t.csv",
                      ",".join([*(f"f{i}" for i in range(60)), "class"]) + "\n" + "\n".join(lines))
        tracemalloc.start()
        try:
            ds = load_csv(p, "class")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (4000, 60)
        assert peak < 2 * ds.features.nbytes

    @pytest.mark.parametrize("bad_lines", [
        pytest.param([(300, "1,?,B,2")], id="a-dropped-row"),
        pytest.param([(line, "1,?,B,2") for line in range(2, 800)], id="most-rows-dropped"),
        pytest.param([(600, '1,"2\n",B,3')], id="a-record-over-two-lines"),
    ])
    def test_fewer_rows_than_lines_keep_no_buffer_of_every_line(self, tmp_path, bad_lines):
        # the load fills arrays sized for every body line; its arrays hold only the kept rows
        text = _multi_block_table(bad_lines=bad_lines)
        ds = load_csv(write_csv(tmp_path / "t.csv", text), "class")
        assert len(ds) < text.count("\n") - 1  # the header is a line
        for array in (ds.features, ds.labels):
            assert array.base is None or array.base.nbytes == array.nbytes


def reference_load_csv(path, label_column, label_mapping=None, name=None, hold=True):
    """Reference loader: csv records, one np.array call per row, numbered by file line.

    load_csv must give the same rows, drops, warnings and errors on the corpus below, and
    hold its table in the same dtype: with ``hold``, the float64 rows are held as
    ``narrow_table`` holds them when no body line holds a quote, and as float64 when one
    does. Without ``hold`` the table is the float64 rows.
    """
    log = logging.getLogger("reference_load_csv")
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"dataset file not found: {path}")
    mapping = {k.lower(): v for k, v in (label_mapping or DEFAULT_LABEL_MAP).items()}
    name = name or path.stem

    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        header_lines = reader.line_num
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetError(f"{path}: label column {label_column!r} not in header") from None

        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        rows: list[np.ndarray] = []
        labels: list[int] = []
        dropped = 0
        for row in reader:
            if len(row) != len(header):
                dropped += 1
                continue
            raw_label = row[label_idx].strip()
            if not raw_label:
                dropped += 1
                continue
            if raw_label.lower() not in mapping:
                raise DatasetError(f"{path}:{reader.line_num}: unknown label value {raw_label!r}")
            cells = row[:label_idx] + row[label_idx + 1 :]
            try:
                values = np.array(cells, dtype=np.float64)
            except ValueError:
                dropped += 1
                continue
            if not np.isfinite(values).all():
                dropped += 1
                continue
            rows.append(values)
            labels.append(mapping[raw_label.lower()])

    if not rows:
        raise DatasetError(f"{path}: no usable data rows")
    features = np.vstack(rows)
    text = path.read_bytes().decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    if hold and '"' not in "\n".join(text.split("\n")[header_lines:]):
        features = narrow_table(features)
    ds = Dataset(
        name=name,
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=feature_names,
        n_dropped=dropped,
    )
    if dropped:
        log.warning("%s: dropped %d rows with missing or non-numeric cells", name, dropped)
    benign, malware = ds.class_counts()
    if benign == 0 or malware == 0:
        raise DatasetError(f"{path}: labels contain a single class only")
    _check_known_profile(ds)
    return ds


def _multi_block_table(n_rows=3 * 256 + 41, bad_lines=(), unknown_label_line=None):
    """A 3-feature table over many blocks, cells in awkward spellings.

    The corpus ids below count 256-line thirds of it, not blocks.
    """
    rng = np.random.default_rng(11)
    awkward = ["0.1", "0.30000000000000004", "5e-324", "2.2250738585072014e-308",
               "1.7976931348623157e308", "9007199254740993", "-0", "+.5", " 7 ", "1E3"]
    lines = ["f0,f1,class,f2"]
    for i in range(n_rows):
        cells = [repr(float(v)) for v in rng.normal(0, 1e3, 3)]
        cells[i % 3] = awkward[i % len(awkward)]
        cells.insert(2, "B" if rng.random() < 0.6 else "s")
        lines.append(",".join(cells))
    for lineno, text in bad_lines:
        lines[lineno - 1] = text
    if unknown_label_line is not None:
        lines[unknown_label_line - 1] = "1,2,weird,3"
    return "\n".join(lines) + "\n"


def _one_character_table(n_rows=3 * 256 + 41, bad_lines=()):
    """A 5-feature table of one-digit cells over many blocks, the label column in the middle."""
    rng = np.random.default_rng(12)
    lines = ["f0,f1,class,f2,f3,f4"]
    for i in range(n_rows):
        cells = [str(d) for d in rng.integers(0, 10, 5)]
        cells.insert(2, "SBsb01"[i % 6])
        lines.append(",".join(cells))
    for lineno, text in bad_lines:
        lines[lineno - 1] = text
    return "\n".join(lines) + "\n"


# Bad rows on both sides of the block boundaries at lines 257/258 and 513/514.
_BOUNDARY_ROWS = [(256, "1,?,B,2"), (257, "1,2,S"), (258, ""), (259, "nan,1,B,2"),
                  (513, "1,2,B,3,4"), (514, "   "), (515, "1,inf,S,2"), (700, "1,2,,3")]

# Lines 300-340: every line bad in one of six ways, with good lines between.
_DENSE_BAD_ROWS = [(n, ["1,?,B,2", "1,2,S", "", "1,2,B,3,4", "   ", "1,2,,3", "1,2,b,3"][n % 7])
                   for n in range(300, 341)]

# Each entry is written as the file's bytes and read with label column "class".
LOADER_CORPUS = [
    pytest.param(b"f0,f1,class\r\n1,2,B\r\n3,4,S\r\n", id="crlf"),
    pytest.param(b"f0,f1,class\r1,2,B\r3,4,S\r", id="lone-cr"),
    pytest.param(b"f0,f1,class\n1,2,B\r\n3,4,S\r5,6,B\r\r\n7,8,S", id="mixed-line-ends"),
    pytest.param(b"\xef\xbb\xbff0,f1,class\n1,2,B\n3,4,S\n", id="bom"),
    pytest.param(b"\xef\xbb\xbf", id="bom-only"),
    pytest.param(b"", id="empty"),
    pytest.param(b"f0,class\n", id="header-only"),
    pytest.param(b"\nf0,class\n1,B\n2,S\n", id="blank-first-line"),
    pytest.param(b"f0,f1,class\n\n1,2,B\n   \n\t\n3,4,S\n\n\n", id="blank-and-whitespace-lines"),
    pytest.param(b"f0,f1,class\n1,2,B\n3,S\n1,2,3,B\n4,5,S,\n6,7,B\n8,9,S\n", id="short-long-trailing-comma"),
    pytest.param(b"f0,f1,class\n1,2,B,3\n4,5,S,6\n", id="extra-column-on-every-row"),
    pytest.param(b"f0,f1,class,f2\n1,2,B\n3,4,S\n", id="missing-column-on-every-row"),
    pytest.param(b"f0,f1,class\n?,2,B\n1,,S\n3,4,B\n5,6,S\n", id="question-mark-and-empty-cells"),
    pytest.param(b"f0,f1,class\nnan,1,B\n1,inf,S\n-inf,2,B\n1e999,2,S\n3,4,B\n5,6,S\nInfinity,1,B\n",
                 id="non-finite"),
    pytest.param("f0,f1,class\n1_0,2,B\n\u0661,3,S\n4,5,B\n".encode(), id="underscore-and-arabic-digit"),
    pytest.param("f0,f1,class\n 1 ,2\t,B\n\xa01,2, S \n3,\x0c4,b\n1\x85,2\u2028,S\n1\x00,2,B\n"
                 "\x1c,1,S\n1\x0b,1,B\n".encode(), id="odd-whitespace-and-separators"),
    pytest.param(b'f0,f1,class\n"1",2,B\n"1,5",2,S\n3,"4\n5",B\n6,7,"S"\n8,9,B\n', id="quoted-cells"),
    pytest.param(b'f0,class\n"1\n2",B\n3,S\n4,weird\n', id="unknown-label-after-quoted-newline"),
    pytest.param(b'"f0","class"\n1,B\n2,S\n', id="quoted-header"),
    pytest.param(b"f0,class\n1,B\n2,\n3, \n4,S\n", id="empty-label"),
    pytest.param(b"f0,class\n1,B\nx,S\n2,S\n3,weird\n", id="unknown-label-after-dropped-row"),
    pytest.param(b"f0,f1,class\n1,weird\n1,2,B\n3,4,S\n", id="unknown-label-on-short-row"),
    pytest.param(b"f0,class\nx,weird\n1,B\n", id="unknown-label-on-bad-cell-row"),
    pytest.param(b"class,f0,f1\n1,2,3\n0,4,5\nMalware,6,7\ngoodware,8,9\n", id="label-first"),
    pytest.param(b"f0,class\nx,B\n", id="no-usable-rows"),
    pytest.param(b"f0,class\n1,B\n2,B\n", id="single-class"),
    pytest.param(b"a,b\n1,2\n", id="no-label-column"),
    pytest.param(b"f0,class\n1,B\n2,S\n" + b"\n" * 300, id="a-block-of-blank-lines"),
    pytest.param(_multi_block_table().encode(), id="three-clean-blocks"),
    pytest.param(_multi_block_table(bad_lines=_BOUNDARY_ROWS).encode(),
                 id="bad-rows-across-block-boundaries"),
    pytest.param(_multi_block_table(bad_lines=_BOUNDARY_ROWS, unknown_label_line=600).encode(),
                 id="unknown-label-in-third-block"),
    pytest.param(_multi_block_table(bad_lines=_BOUNDARY_ROWS).replace("\n", "\r\n").encode(),
                 id="three-blocks-crlf"),
    pytest.param(_multi_block_table(bad_lines=_DENSE_BAD_ROWS).encode(), id="a-run-of-bad-rows"),
    pytest.param(_multi_block_table(bad_lines=_DENSE_BAD_ROWS, unknown_label_line=331).encode(),
                 id="unknown-label-among-bad-rows"),
    pytest.param(_multi_block_table(bad_lines=[(600, '1,"2",B,3')]).encode(),
                 id="quoted-cell-in-third-block"),
    pytest.param(_multi_block_table(bad_lines=[(1, '"f0","f1","class","f2"')]
                                    + _BOUNDARY_ROWS).encode(),
                 id="quoted-header-over-three-blocks"),
    pytest.param(b'"f\r\n0",class\r\n1,B\r\n2,S\r\nx,S\r\n3,weird\r\n',
                 id="line-end-in-quoted-header"),
    pytest.param(_one_character_table().encode(), id="one-character-cells"),
    pytest.param(_one_character_table(bad_lines=[(600, "1,2,x,3,4,5")]).encode(),
                 id="one-character-unknown-label-in-third-block"),
    # Blocks of the right byte total, but not the right cells: a line with an
    # extra cell next to one missing a cell, and a 10 cell next to an empty one.
    pytest.param(_one_character_table(bad_lines=[(300, "1,2,S,3,4,5,6"), (301, "1,1,0,3,4"),
                                                 (400, "1,10,,S,3,4")]).encode(),
                 id="one-character-ragged-lines-of-matching-length"),
    pytest.param(_one_character_table(bad_lines=[(300, "1,2,S,\u00e9,4,5"),
                                                 (400, "1,\u0663,B,3,4,5")]).encode(),
                 id="one-character-non-ascii-cells"),
    pytest.param(_one_character_table(bad_lines=[(300, "1,2,S, ,4,5"), (400, "1,2, ,3,4,5"),
                                                 (500, "1,2,\t,3,4,5")]).encode(),
                 id="one-character-whitespace-cell-and-label"),
]


def _load_outcome(loader, path, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        try:
            ds = loader(path, "class")
        except DatasetError as exc:
            return ("error", str(exc))
    messages = [r.getMessage() for r in caplog.records]
    return (ds.features.shape, ds.features.dtype, ds.features.astype(np.float64).tobytes(),
            ds.labels.tolist(), ds.feature_names, ds.n_dropped, messages)


class TestLoaderMatchesRowReference:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("content", LOADER_CORPUS)
    def test_same_rows_drops_warnings_and_errors(self, tmp_path, caplog, content):
        p = tmp_path / "table.csv"
        p.write_bytes(content)
        assert _load_outcome(load_csv, p, caplog) == _load_outcome(reference_load_csv, p, caplog)


class TestRowsReadByRule:
    """Only the lines the C reader rejects, and those near them, are read row by row."""

    @staticmethod
    def _lines_read_by_rule(monkeypatch, path):
        seen = []
        rows_by_rule = data._rows_by_rule

        def recording(path, records, offset, *args):
            first = offset + records.line_num + 1
            try:
                return rows_by_rule(path, records, offset, *args)
            finally:
                seen.extend(range(first, offset + records.line_num + 1))

        monkeypatch.setattr(data, "_rows_by_rule", recording)
        load_csv(path, "class")
        return seen

    @pytest.mark.parametrize("header", ['"f0","f1","class","f2"', '"f\r\n0",f1,class,"f\n2"'])
    def test_a_clean_table_with_a_quoted_header_is_read_by_blocks(self, tmp_path, monkeypatch,
                                                                   header):
        text = _multi_block_table().replace("f0,f1,class,f2", header, 1)
        p = write_csv(tmp_path / "t.csv", text)
        assert self._lines_read_by_rule(monkeypatch, p) == []

    def test_a_bad_line_takes_its_block_with_it(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "t.csv", _multi_block_table(bad_lines=[(300, "1,?,B,2")]))
        # Body lines start at line 2, so the block holding line 300 is lines 290-321.
        assert self._lines_read_by_rule(monkeypatch, p) == list(range(290, 322))

    def test_a_non_finite_cell_takes_its_block_with_it(self, tmp_path, monkeypatch, caplog):
        p = write_csv(tmp_path / "t.csv", _multi_block_table(bad_lines=[(300, "1,inf,B,2")]))
        assert self._lines_read_by_rule(monkeypatch, p) == list(range(290, 322))
        outcome = _load_outcome(load_csv, p, caplog)
        assert outcome == _load_outcome(reference_load_csv, p, caplog)
        assert outcome[5] == 1  # n_dropped

    def test_a_quoted_body_is_read_by_rule(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "t.csv", _multi_block_table(bad_lines=[(600, '1,"2",B,3')]))
        assert len(self._lines_read_by_rule(monkeypatch, p)) == 3 * 256 + 41


class TestOneCharacterBlocks:
    """A block of one-character cells is read from its bytes, without numpy's C reader."""

    @staticmethod
    def _loadtxt_calls(monkeypatch, path):
        calls = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        load_csv(path, "class")
        return len(calls)

    def test_a_one_character_table_never_calls_loadtxt(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "t.csv", _one_character_table())
        assert self._loadtxt_calls(monkeypatch, p) == 0

    def test_a_comma_label_is_not_read_as_one_cell(self, tmp_path, caplog):
        # Three commas in a row are two empty cells to csv, whatever the label map holds.
        p = write_csv(tmp_path / "t.csv", _one_character_table(bad_lines=[(300, "1,2,,,3,4,5")]))
        mapping = {**DEFAULT_LABEL_MAP, ",": 1}
        outcome = _load_outcome(functools.partial(load_csv, label_mapping=mapping), p, caplog)
        assert outcome == _load_outcome(functools.partial(reference_load_csv, label_mapping=mapping),
                                        p, caplog)
        assert outcome[5] == 1  # n_dropped

    def test_other_blocks_call_loadtxt_once_each(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "t.csv", _multi_block_table())
        n_blocks = -(-(3 * 256 + 41) // data._BLOCK_LINES)
        assert self._loadtxt_calls(monkeypatch, p) == n_blocks


def _resolve_table(edit=None, line_end="\n"):
    """A 100 x 5 table of 0/1 cells over four 32-line blocks, the label column second.

    ``edit`` changes the rows (lists of cells, the label at index 1) before they are written.
    """
    rng = np.random.default_rng(13)
    rows = [[str(v) for v in rng.integers(0, 2, 5)] for _ in range(100)]
    for i, row in enumerate(rows):
        row.insert(1, "BS"[i % 2])
    if edit is not None:
        edit(rows)
    lines = ["f0,class,f1,f2,f3,f4", *(",".join(row) for row in rows)]
    return line_end.join(lines) + line_end


def _set_cells(cells):
    """An edit that sets the given (row, column) cells."""
    def edit(rows):
        for (i, j), cell in cells.items():
            rows[i][j] = cell
    return edit


def _map_column(j, cell):
    """An edit that maps every cell of column ``j`` through ``cell``."""
    def edit(rows):
        for row in rows:
            row[j] = cell(row[j])
    return edit


_RESOLVE_TABLES = [
    pytest.param(_resolve_table(), id="one-character-0-1"),
    pytest.param(_resolve_table(_set_cells({(99, 0): "0.5"})), id="a-fraction-in-the-last-block"),
    pytest.param(_resolve_table(_set_cells({(0, 2): "256"})), id="256-in-the-first-block"),
    pytest.param(_resolve_table(_set_cells({(50, 3): "-0.0"})), id="negative-zero"),
    pytest.param(_resolve_table(_set_cells({(40, 0): "nan"})), id="a-nan-row"),
    pytest.param(_resolve_table(_map_column(1, {"B": "goodware", "S": "malware"}.get)),
                 id="word-labels"),
    pytest.param(_resolve_table(_set_cells({(70, 4): '"1"'})), id="a-quoted-body"),
    pytest.param(_resolve_table(line_end="\r\n"), id="crlf"),
    pytest.param(_resolve_table(_map_column(2, lambda cell: "1")), id="a-constant-column"),
    pytest.param(_resolve_table(_map_column(3, lambda cell: str(int(cell) + 1))),
                 id="a-1-2-column"),
]


class TestResolvedTableMatchesTheFloat64Path:
    """A resolved CSV entry holds the dtype and the float64 bits of the float64 path: the
    float64 row reference, ``min_max_scale`` when the entry scales, then ``narrow_table``."""

    @pytest.mark.parametrize("scale", [False, True], ids=["raw", "scaled"])
    @pytest.mark.parametrize("text", _RESOLVE_TABLES)
    def test_same_dtype_and_bits(self, tmp_path, text, scale):
        p = write_csv(tmp_path / "toy.csv", text)
        (tmp_path / "run.ini").write_text(
            f"[dataset.toy]\npath = toy.csv\nscale = {str(scale).lower()}\n", encoding="utf-8")
        ds = RunManifest.load(tmp_path / "run.ini").resolve_dataset("toy")
        reference = reference_load_csv(p, "class", hold=False)
        assert reference.features.dtype == np.float64
        if scale:
            min_max_scale(reference)
        expected = narrow_table(reference.features)
        assert ds.features.dtype == expected.dtype
        assert ds.features.astype(np.float64).tobytes() == expected.astype(np.float64).tobytes()
        assert ds.labels.tolist() == reference.labels.tolist()


class TestHoldoutSplit:
    def test_balanced_hundred_sample_arithmetic(self):
        ds = balanced_dataset(100)
        train, test = holdout_split(ds, 0.2, 0)
        assert len(train) == 80
        assert len(test) == 20
        assert class_counts(ds.labels[test]) == (10, 10)

    def test_published_row_count_fraction(self):
        ds = balanced_dataset(3799, pos_fraction=1260 / 3799)
        _, test = holdout_split(ds, 0.2, 1)
        assert abs(len(test) - round(0.2 * 3799)) <= 1

    def test_same_seed_reproduces_indices(self):
        ds = balanced_dataset(200, seed=5)
        a_train, a_test = holdout_split(ds, 0.2, 9)
        b_train, b_test = holdout_split(ds, 0.2, 9)
        np.testing.assert_array_equal(a_test, b_test)
        np.testing.assert_array_equal(a_train, b_train)

    def test_different_seed_differs(self):
        ds = balanced_dataset(200, seed=5)
        _, a = holdout_split(ds, 0.2, 0)
        _, b = holdout_split(ds, 0.2, 1)
        assert not np.array_equal(a, b)

    def test_stratified_ratio_within_one_sample(self):
        for seed in range(10):
            ds = balanced_dataset(437, seed=seed, pos_fraction=0.3)
            _, test = holdout_split(ds, 0.2, seed)
            benign, malware = ds.class_counts()
            tb, tm = class_counts(ds.labels[test])
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
        for rows in (train, test):
            assert (np.diff(rows) > 0).all()
        np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(len(ds)))

    def test_bad_fraction_rejected(self):
        ds = balanced_dataset(100)
        with pytest.raises(ValueError):
            holdout_split(ds, 0.0, 0)
        with pytest.raises(ValueError):
            holdout_split(ds, 1.0, 0)


class TestPartitionClients:
    def test_even_hundred_into_five(self):
        ds = balanced_dataset(100)
        shards = partition_clients(ds, np.arange(len(ds)), 5, local_test_fraction=0.2, seed=0)
        assert len(shards) == 5
        for shard in shards:
            assert len(shard.train) == 16
            assert len(shard.local_test) == 4

    def test_remainder_goes_to_early_clients(self):
        ds = balanced_dataset(101)
        shards = partition_clients(ds, np.arange(len(ds)), 5, seed=0)
        sizes = sorted((len(s.train) + len(s.local_test) for s in shards), reverse=True)
        assert sizes == [21, 20, 20, 20, 20]

    def test_disjoint_and_cover(self):
        for seed in range(10):
            ds = balanced_dataset(157, seed=seed)
            shards = partition_clients(ds, np.arange(len(ds)), 4, seed=seed)
            all_idx = np.concatenate([np.concatenate([s.train, s.local_test]) for s in shards])
            assert len(set(all_idx.tolist())) == len(all_idx) == len(ds)

    def test_inner_split_disjoint_and_both_classes(self):
        ds = balanced_dataset(200, seed=1)
        for shard in partition_clients(ds, np.arange(len(ds)), 5, seed=1):
            assert not set(shard.train) & set(shard.local_test)
            assert len(np.unique(ds.labels[shard.local_test])) == 2
            assert len(np.unique(ds.labels[shard.train])) == 2

    def test_deterministic_for_fixed_seed(self):
        ds = balanced_dataset(120, seed=4)
        a = partition_clients(ds, np.arange(len(ds)), 3, seed=7)
        b = partition_clients(ds, np.arange(len(ds)), 3, seed=7)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.train, sb.train)
            np.testing.assert_array_equal(sa.local_test, sb.local_test)

    def test_too_few_samples_is_an_error(self):
        ds = balanced_dataset(40, pos_fraction=0.1)  # 4 positives over 5 clients
        with pytest.raises(DatasetError, match="too few samples per client"):
            partition_clients(ds, np.arange(len(ds)), 5, seed=0)

    def test_shard_with_one_sample_of_a_class_cannot_split(self):
        labels = np.zeros(20, dtype=np.int64)
        labels[:2] = 1  # seed 1 deals one positive to each of the 2 clients
        ds = Dataset(name="toy", features=np.zeros((20, 3)), labels=labels)
        with pytest.raises(DatasetError,
                           match=r"toy: client 0: class 1 has 1 sample\(s\); cannot split; too few"):
            partition_clients(ds, np.arange(len(ds)), 2, seed=1)

    def test_deals_out_only_the_given_rows_of_the_table(self):
        ds = balanced_dataset(157, seed=3)
        rows = np.flatnonzero(np.arange(len(ds)) % 3)
        shards = partition_clients(ds, rows, 4, seed=3)
        dealt = np.concatenate([np.concatenate([s.train, s.local_test]) for s in shards])
        np.testing.assert_array_equal(np.sort(dealt), rows)
        assert all(s.data is ds for s in shards)

    def test_single_client_rejected(self):
        ds = balanced_dataset(50)
        with pytest.raises(ValueError, match="n_clients"):
            partition_clients(ds, np.arange(len(ds)), 1)


class TestScalingAndDataset:
    def test_min_max_scale_maps_to_unit_interval(self):
        rng = np.random.default_rng(0)
        ds = Dataset(name="x", features=rng.normal(0, 10, size=(50, 4)),
                     labels=rng.integers(0, 2, 50))
        scaled = min_max_scale(ds)
        assert scaled.features.min() == 0.0
        assert scaled.features.max() == 1.0

    def test_min_max_scale_is_byte_equal_to_the_textbook_formula(self):
        X = np.random.default_rng(3).normal(0, 10, size=(40, 5))
        X[:, 2] = 4.0
        lo, hi = X.min(axis=0), X.max(axis=0)
        expected = (X - lo) / np.where(hi > lo, hi - lo, 1.0)
        scaled = min_max_scale(Dataset(name="x", features=X, labels=np.zeros(40, np.int64)))
        assert scaled.features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("high", [2, 3, 4])  # column 1 spans 1, 2 or 3
    def test_a_uint8_table_scales_as_its_float64_copy(self, high):
        X = np.random.default_rng(4).integers(0, 2, size=(40, 5), dtype=np.uint8)
        X[:, 1] = np.random.default_rng(5).integers(0, high, size=40)
        X[:, 2] = 1
        X[:, 4] += 1
        expected = min_max_scale(Dataset(name="x", features=X.astype(np.float64),
                                         labels=np.zeros(40, np.int64))).features
        features = X.copy()
        scaled = min_max_scale(Dataset(name="x", features=features, labels=np.zeros(40, np.int64)))
        # the dtype narrow_table holds the float64 result in; a uint8 result is scaled in place
        assert scaled.features.dtype == narrow_table(expected).dtype
        assert (scaled.features is features) == (high <= 2)
        assert scaled.features.astype(np.float64).tobytes() == expected.tobytes()

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(name="x", features=np.array([[3.0, 1.0], [3.0, 2.0]]),
                     labels=np.array([0, 1]))
        scaled = min_max_scale(ds)
        np.testing.assert_array_equal(scaled.features[:, 0], [0.0, 0.0])

    def test_class_counts(self):
        ds = balanced_dataset(10, pos_fraction=0.3)
        benign, malware = ds.class_counts()
        assert benign + malware == 10
        assert malware == 3

"""Ingestion, validation, splitting, and the synthetic generator."""
import contextlib
import csv
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtcast import cli, dataio, timebase
from rtcast.dataio import SplitSpec, SynthConfig, TimeTable
from rtcast.errors import (
    ConfigError,
    DataError,
    IntegrityError,
    NumericError,
    ParseError,
    SchemaError,
    SplitError,
    ToolkitError,
)


def _table(n=6, step=600, cols=("A",)):
    ts = 1_500_000_000 + step * np.arange(n, dtype=np.int64)
    columns = {c: np.arange(n, dtype=np.float64) + i for i, c in enumerate(cols)}
    return TimeTable(
        timestamps=ts, columns=columns, target=np.linspace(20, 25, n),
        interval_seconds=step,
    )


class TestTimeTable:
    def test_rejects_irregular_spacing(self):
        ts = np.array([0, 600, 1300], dtype=np.int64)
        with pytest.raises(IntegrityError) as err:
            TimeTable(timestamps=ts, columns={}, target=np.zeros(3), interval_seconds=600)
        assert "1970-01-01T00:21:40Z" in str(err.value)

    def test_rejects_column_length_mismatch(self):
        with pytest.raises(DataError):
            TimeTable(
                timestamps=np.array([0, 600], dtype=np.int64),
                columns={"A": np.zeros(3)},
                target=np.zeros(2),
                interval_seconds=600,
            )

    def test_row_slice_and_with_column(self):
        t = _table(10)
        part = t.row_slice(2, 7)
        assert len(part) == 5
        assert part.timestamps[0] == t.timestamps[2]
        extended = part.with_column("B", np.ones(5))
        assert extended.columns["B"].tolist() == [1.0] * 5
        assert "B" not in part.columns  # original untouched


class TestIngest:
    def test_round_trip(self, synth_table):
        buf = io.StringIO()
        dataio.write_csv(synth_table, buf)
        buf.seek(0)
        back = dataio.ingest_csv(buf)
        assert np.array_equal(back.timestamps, synth_table.timestamps)
        assert set(back.columns) == set(synth_table.columns)
        for name, col in synth_table.columns.items():
            assert np.array_equal(back.columns[name], col)
        assert np.array_equal(back.target, synth_table.target)

    def test_sorts_rows_by_timestamp(self):
        text = (
            "timestamp,RT\n"
            "2020-01-01T00:10:00Z,21.0\n"
            "2020-01-01T00:00:00Z,20.0\n"
            "2020-01-01T00:20:00Z,22.0\n"
        )
        t = dataio.ingest_csv(io.StringIO(text))
        assert t.target.tolist() == [20.0, 21.0, 22.0]
        assert t.interval_seconds == 600

    def test_missing_target_column(self):
        with pytest.raises(SchemaError):
            dataio.ingest_csv(io.StringIO("timestamp,foo\n2020-01-01,1\n2020-01-02,2\n"))

    def test_duplicate_timestamp_names_instant(self):
        text = "timestamp,RT\n2020-01-01T00:00:00Z,21.0\n2020-01-01T00:00:00Z,22.0\n"
        with pytest.raises(IntegrityError) as err:
            dataio.ingest_csv(io.StringIO(text))
        assert "2020-01-01T00:00:00Z" in str(err.value)

    def test_unparseable_cell_reports_row(self):
        text = "timestamp,RT\n2020-01-01T00:00:00Z,21.0\n2020-01-01T00:10:00Z,warm\n"
        with pytest.raises(ParseError) as err:
            dataio.ingest_csv(io.StringIO(text))
        assert "row 2" in str(err.value)

    @pytest.mark.parametrize("cell", ["1_5", "\uff11\uff15", "\u0661\u0665", "\u00a015",
                                      "\u00a0"])
    def test_number_outside_the_ascii_grammar_is_refused(self, cell):
        """Python's float reads all of these (15.0, or blank for a lone
        no-break space); a CSV cell must be a plain ASCII number."""
        text = ("timestamp,RT,OutTemp\n"
                "2020-01-01T00:00:00Z,21.0,4.0\n"
                f"2020-01-01T00:10:00Z,21.5,{cell}\n")
        with pytest.raises(ParseError) as err:
            dataio.ingest_csv(io.StringIO(text))
        assert str(err.value) == f"row 2: non-numeric value {cell!r} in column 'OutTemp'"

    def test_ignored_column_may_hold_any_text(self):
        text = ("timestamp,RT,note\n"
                "2020-01-01T00:00:00Z,21.0,caf\u00e9_1\n"
                "2020-01-01T00:10:00Z,21.5, 2_0\n")
        t = dataio.ingest_csv(io.StringIO(text),
                              {"timestamp": "timestamp", "RT": "target", "note": "ignore"})
        assert t.target.tolist() == [21.0, 21.5]

    @settings(max_examples=150, deadline=None)
    @given(value=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
           pick=st.data())
    def test_underscore_or_non_ascii_digit_is_refused(self, value, pick):
        """Inserting an underscore, or a non-ASCII digit in place of an ASCII
        one, into a valid number gives a ParseError naming the row and column."""
        text = repr(value)
        mutate = pick.draw(st.sampled_from(["underscore", "fullwidth", "arabic-indic",
                                            "devanagari"]))
        if mutate == "underscore":
            # PEP 515 allows an underscore only between two digits.
            between = [k for k in range(1, len(text)) if (text[k - 1] + text[k]).isdigit()]
            assume(between)
            k = pick.draw(st.sampled_from(between))
            cell = text[:k] + "_" + text[k:]
        else:
            k = pick.draw(st.sampled_from([k for k, ch in enumerate(text) if ch.isdigit()]))
            zero = {"fullwidth": 0xFF10, "arabic-indic": 0x0660, "devanagari": 0x0966}[mutate]
            cell = text[:k] + chr(zero + int(text[k])) + text[k + 1:]
        assert float(cell) is not None  # Python's float still reads it
        row = pick.draw(st.integers(1, 3))
        lines = ["timestamp,RT,OutTemp"] + [
            f"2020-01-01T00:{10 * i:02d}:00Z,21.0,{cell if i + 1 == row else text}"
            for i in range(3)]
        with pytest.raises(ParseError) as err:
            dataio.ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert str(err.value) == f"row {row}: non-numeric value {cell!r} in column 'OutTemp'"

    def test_empty_cell_becomes_nan(self):
        text = (
            "timestamp,RT,OutTemp\n"
            "2020-01-01T00:00:00Z,21.0,\n"
            "2020-01-01T00:10:00Z,21.5,4.0\n"
        )
        t = dataio.ingest_csv(io.StringIO(text))
        assert np.isnan(t.columns["OutTemp"][0])

    def test_empty_input(self):
        with pytest.raises(DataError):
            dataio.ingest_csv(io.StringIO(""))

    def test_single_row_is_not_a_series(self):
        with pytest.raises(DataError):
            dataio.ingest_csv(io.StringIO("timestamp,RT\n2020-01-01,20.0\n"))

    def test_explicit_schema_roles(self):
        text = (
            "when,indoor,junk,x\n"
            "2020-01-01T00:00:00Z,21.0,9,1\n"
            "2020-01-01T00:10:00Z,21.5,9,2\n"
        )
        schema = {"when": "timestamp", "indoor": "target", "junk": "ignore"}
        t = dataio.ingest_csv(io.StringIO(text), schema)
        assert t.target.tolist() == [21.0, 21.5]
        assert "junk" not in t.columns and "x" not in t.columns

    def test_schema_needs_exactly_one_timestamp(self):
        schema = {"a": "timestamp", "b": "timestamp", "c": "target"}
        with pytest.raises(SchemaError):
            dataio.ingest_csv(io.StringIO("a,b,c\n1,2,3\n"), schema)

    def test_no_schema_is_the_default_schema_with_features_for_the_rest(self):
        text = "".join(",".join(r) + "\n" for r in writer_rows())
        spelled = {"timestamp": "timestamp", "RT": "target", "OnOffState": "feature",
                   "OpMode": "feature", "OutTemp": "feature", "OutHumid": "feature"}
        assert table_key(dataio.ingest_csv(io.StringIO(text))) == \
            table_key(dataio.ingest_csv(io.StringIO(text), spelled))
        # An empty schema file is no default: every column is ignored.
        with pytest.raises(SchemaError, match="exactly one timestamp column, found \\[\\]"):
            dataio.ingest_csv(io.StringIO(text), {})

    @pytest.mark.parametrize("header, missing", [
        ("RT,x", "timestamp"), ("x,y", "timestamp"), ("timestamp,x", "RT"),
    ])
    def test_without_a_schema_the_first_missing_column_is_named(self, header, missing):
        with pytest.raises(SchemaError) as err:
            dataio.ingest_csv(io.StringIO(f"{header}\n1,2\n3,4\n"))
        assert str(err.value) == f"missing required column {missing!r}"

    @pytest.mark.parametrize("where, row", [("header", "header row"), ("data", "row 1")])
    def test_a_quote_that_runs_past_the_field_size_limit_names_its_row(self, where, row):
        """One stray quote makes the rest of the file one field."""
        buf = io.StringIO()
        dataio.write_csv(dataio.synthesize(SynthConfig(seed=4, n_days=20)), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        i = 0 if where == "header" else 1
        lines[i] = lines[i].replace(",", ',"', 1)
        text = "".join(lines)
        assert len(text) > csv.field_size_limit()
        with pytest.raises(ParseError) as err:
            dataio.ingest_csv(io.StringIO(text))
        assert str(err.value) == f"{row}: field larger than field limit ({csv.field_size_limit()})"

    def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("timestamp,RT,Ort\n2020-01-01T00:00:00Z,21.0,Zürich\n".encode("latin-1"))
        with pytest.raises(ParseError) as err:
            dataio.ingest_csv(str(path))
        assert str(err.value) == f"{path}: not UTF-8 text (invalid start byte)"


#: Roles for the writer's columns plus an ignored free-text ``note``.
NOTE_SCHEMA = {"timestamp": "timestamp", "RT": "target", "OnOffState": "feature",
               "OpMode": "feature", "OutTemp": "feature", "OutHumid": "feature",
               "note": "ignore"}


def writer_rows(n=5, note=False):
    """The cells of a small CSV in the writer's fixed form, header first;
    with ``note`` an ignored free-text column follows the timestamp."""
    table = dataio.synthesize(SynthConfig(seed=4, n_days=1)).row_slice(0, n)
    buf = io.StringIO()
    dataio.write_csv(table, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    if note:
        for i, r in enumerate(rows):
            r.insert(1, "note" if i == 0 else f"n {i}")
    return rows


def table_key(table):
    """Everything a table holds, bit for bit (NaN payloads and -0.0 too)."""
    return (table.interval_seconds, table.timestamps.tobytes(), table.target.tobytes(),
            {name: col.tobytes() for name, col in table.columns.items()})


def ingest_outcome(text, schema=None):
    """(outcome, whether the per-row loop ran): the table's key, or the
    error's type and message."""
    with mock.patch.object(dataio, "_parse_rows", wraps=dataio._parse_rows) as per_row:
        try:
            outcome = table_key(dataio.ingest_csv(io.StringIO(text, newline=""), schema))
        except ToolkitError as exc:
            outcome = (type(exc), str(exc))
    return outcome, per_row.called


def per_row_outcome(text, schema=None):
    """The outcome of ingest_csv with the one-pass parser switched off."""
    with mock.patch.object(dataio, "_parse_fixed_form", return_value=None):
        return ingest_outcome(text, schema)[0]


def join(rows, term="\r\n"):
    return "".join(",".join(r) + term for r in rows)


class TestOnePassParser:
    """A CSV in the writer's fixed form is parsed by numpy in one pass; every
    other form goes through the per-row loop, with its rules and messages."""

    def test_writer_output_is_parsed_in_one_pass(self):
        for rows, schema in ((writer_rows(), None), (writer_rows(note=True), NOTE_SCHEMA)):
            for term in ("\r\n", "\n"):
                text = join(rows, term)
                outcome, per_row = ingest_outcome(text, schema)
                assert not per_row
                assert outcome == per_row_outcome(text, schema)
                outcome, per_row = ingest_outcome(text.rstrip("\r\n"), schema)
                assert not per_row

    @pytest.mark.parametrize("note", ["a#b", "#", "x # y"])
    def test_a_hash_is_no_comment(self, note):
        """numpy's default comment character would cut the line at ``#``."""
        rows = writer_rows(note=True)
        rows[2][1] = note
        outcome, per_row = ingest_outcome(join(rows), NOTE_SCHEMA)
        assert not per_row
        assert outcome == ingest_outcome(join(writer_rows()))[0]

    # Each edit breaks one condition of the fixed form: (row, column, text),
    # where a column of None replaces the whole line and a row of None
    # inserts the text as a new line after row 2.
    @pytest.mark.parametrize("edit", [
        (2, 1, '"a,b"'),  # a quote character
        (2, 1, 'say "hi"'),
        (None, None, "   "),  # a whitespace-only line, which csv refuses
        (None, None, ""),  # a blank line, which csv skips
        (2, None, "2017-12-08T00:10:00Z,n,0.0,1.0,6.1,78.6"),  # a short row
        (2, None, "2017-12-08T00:10:00Z,n,0.0,1.0,6.1,78.6,17.0,extra"),
        (1, 0, "2017-12-08T00:00:00+00:00"),  # an offset
        (1, 0, "2017-12-08T00:00:00"),  # a naive stamp
        (1, 0, "2017-12-08"),  # a bare date
        (1, 0, "2017-12-08 00:00:00Z"),
        (1, 0, " 2017-12-08T00:00:00Z"),
        (1, 0, "2017-12-08t00:00:00z"),
        (1, 0, "0000-01-01T00:00:00Z"),  # numpy reads year 0, datetime does not
        (1, 0, "2017-02-30T00:00:00Z"),
        (1, 0, "2017-12-08T24:00:00Z"),
        (3, 4, "1_5"),  # float reads these; a CSV number is plain ASCII
        (3, 4, "１５"),
        (3, 4, "\u00a015"),
        (3, 1, "café"),  # non-ASCII text, even in an ignored column
        (3, 1, "a_b"),
        (3, 4, ""),  # an empty cell, NaN to the per-row loop
        (3, 4, "  "),
        (3, 4, "0x10"),
        (3, 4, "1.5e"),
    ], ids=lambda e: repr(e))
    def test_any_other_form_goes_through_the_per_row_loop(self, edit):
        row, col, text = edit
        rows = writer_rows(note=True)
        if row is None:
            rows.insert(3, [text])
        elif col is None:
            rows[row] = [text]
        else:
            rows[row][col] = text
        csv_text = join(rows)
        outcome, per_row = ingest_outcome(csv_text, NOTE_SCHEMA)
        assert per_row
        assert outcome == per_row_outcome(csv_text, NOTE_SCHEMA)

    def test_a_short_row_and_a_long_row_go_through_the_per_row_loop(self):
        """The comma count of the whole text is right; each line's is not."""
        rows = writer_rows()
        rows[2].pop()
        rows[4].append("7.0")
        outcome, per_row = ingest_outcome(join(rows))
        assert per_row
        assert outcome == (ParseError, "row 2: expected 6 cells, got 5")

    @pytest.mark.parametrize("text", ["a\rb\n", "2017\r", "x\n\r"])
    def test_a_lone_carriage_return_goes_through_the_per_row_loop(self, text):
        rows = writer_rows()
        csv_text = join(rows[:3]) + text + join(rows[3:])
        outcome, per_row = ingest_outcome(csv_text)
        assert per_row
        assert outcome == per_row_outcome(csv_text)

    def test_writer_output_round_trips_without_the_per_row_loop(self, synth_table,
                                                                tmp_path):
        """Were the writer to leave the fixed form, every read of its output
        would silently fall back to the slow loop; here that loop fails."""
        path = tmp_path / "table.csv"
        dataio.write_csv(synth_table, path)
        with mock.patch.object(dataio, "_parse_rows",
                               side_effect=AssertionError("per-row loop ran")):
            back = dataio.ingest_csv(path)
            assert cli.main(["--out", str(tmp_path / "ing"), "--quiet", "ingest",
                             "--csv", str(path)]) == 0
            normalized = dataio.ingest_csv(tmp_path / "ing" / "normalized.csv")
        assert table_key(back) == table_key(synth_table) == table_key(normalized)


_ODD_CELLS = ["1e308", "1e309", "-1e309", "-0", "nan", "-nan", "inf", "", " ", "1_5",
              "１５", "0x10", "1.5e", " 7 ", "\t7", "#", "#7", '"', '"7"', "'7'",
              "7,8", "\x00", "0000-01-01T00:00:00Z", "2017-02-30T00:00:00Z",
              "2017-12-08T24:00:00Z", "2017-12-08T00:00:00", "2017-12-08",
              "2017-12-08T02:00:00+02:00"]
_ODD_LINES = ["", " ", "\t", "#", '"', "2017-12-08T00:00:00Z", "a,b,c,d,e,f",
              "2017-12-08T09:00:00Z,0.0,1.0,6.1,78.6,17.0"]


def edited_csv(data):
    """A small fixed-form CSV with one cell or one line edited, and its
    schema: any text, odd numbers and stamps, a duplicated or swapped stamp,
    an odd or short line."""
    note = data.draw(st.booleans(), label="note")
    rows = writer_rows(note=note)
    r = data.draw(st.integers(1, len(rows) - 1), label="row")
    other = data.draw(st.integers(1, len(rows) - 1), label="other row")
    kind = data.draw(st.sampled_from(["cell", "duplicate", "swap", "line", "short"]))
    if kind == "cell":
        col = data.draw(st.integers(0, len(rows[r]) - 1), label="column")
        rows[r][col] = data.draw(st.one_of(st.sampled_from(_ODD_CELLS), st.text(max_size=12)))
    elif kind == "duplicate":
        rows[r][0] = rows[other][0]
    elif kind == "swap":
        rows[r][0], rows[other][0] = rows[other][0], rows[r][0]
    elif kind == "line":
        rows[r] = [data.draw(st.one_of(st.sampled_from(_ODD_LINES), st.text(max_size=30)))]
    else:
        rows[r] = rows[r][:-1]
    term = data.draw(st.sampled_from(["\r\n", "\n"]), label="line end")
    return join(rows, term), NOTE_SCHEMA if note else None


class TestCsvFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_one_pass_parser_equals_the_per_row_loop(self, data):
        """The same table, bit for bit, or the same error type and message."""
        text, schema = edited_csv(data)
        assert ingest_outcome(text, schema)[0] == per_row_outcome(text, schema)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ingest_command_ends_in_a_documented_way(self, data):
        """Exit 0, 2, 3 or 4, at most one stderr line, and no non-finite
        number in any artifact."""
        text, schema = edited_csv(data)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.csv").write_text(text, encoding="utf-8", newline="")
            argv = ["--out", str(tmp / "out"), "--quiet", "ingest", "--csv", str(tmp / "in.csv")]
            if schema:
                (tmp / "schema.ini").write_text(
                    "".join(f"{k} = {v}\n" for k, v in schema.items()))
                argv += ["--schema", str(tmp / "schema.ini")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 3, 4)
            assert err.getvalue().count("\n") <= 1 and (code == 0) == (err.getvalue() == "")
            for path in (tmp / "out").glob("*") if code == 0 else ():
                body = path.read_text(encoding="utf-8")
                assert not re.search(r"(?i)\b(nan|inf|infinity)\b", body), path.name


def reference_table_csv(table) -> str:
    """``dataio.write_csv`` as it was before ``csv_lines``: ``csv.writer``
    row by row, each line ending in ``\\r\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    names = list(table.columns)
    writer.writerow([dataio.TIMESTAMP_COLUMN, *names, dataio.TARGET_COLUMN])
    cols = [table.columns[n] for n in names] + [table.target]
    writer.writerows(zip(timebase.format_instants(table.timestamps),
                         *(map(repr, c.tolist()) for c in cols)))
    return buf.getvalue()


def reference_cell(name, v):
    """A cell of an artifact as ``cli`` wrote it before ``csv_lines``."""
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise NumericError(f"artifact {name} would hold a non-finite number {v!r}")
        return repr(v)
    if v is None:
        return ""
    return v


def reference_artifact_csv(name, header, rows) -> bytes:
    """``cli.ArtifactWriter.write_csv`` as it was before ``csv_lines``: rows
    through ``csv.writer``, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([reference_cell(name, v) for v in row])
    return buf.getvalue().encode()


#: Names and string cells, rich in what ``csv.writer`` quotes: the delimiter,
#: the quote and both line-break characters (``\\r`` is quoted only under
#: the ``\\r\\n`` line end).
CSV_TEXT = st.text(st.sampled_from(list('ab ,"\r\n\t\u00e9'))
                   | st.characters(exclude_categories=["Cs"]), max_size=5)
#: Floats with the cases whose shortest form changes notation or sign.
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, 0.1, 1e-4, 123456789012345678.0]
FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = FINITE | st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats()
#: ``csv_lines`` chunk size under the hypothesis tests, so a few rows cross
#: several chunk boundaries.
SMALL_CHUNK = 4


def artifact_column(data, n, floats):
    """One artifact column of ``n`` cells, of a kind the CLI passes: a float
    or int array, or a sequence mixing None, strings, ints, numpy ints and
    floats."""
    kind = data.draw(st.sampled_from(["float", "int", "mixed"]), label="kind")
    if kind == "float":
        return np.array(data.draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)
    if kind == "int":
        return np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                           min_size=n, max_size=n)), dtype=np.int64)
    cell = (st.none() | CSV_TEXT | st.integers() | st.integers(-2**63, 2**63 - 1).map(np.int64)
            | floats | floats.map(np.float64) | st.floats(width=32).map(np.float32))
    return data.draw(st.lists(cell, min_size=n, max_size=n))


def artifact_outcome(writer_dir, name, header, columns):
    """The artifact's bytes, or the NumericError message; nothing stored then."""
    writer = cli.ArtifactWriter(writer_dir, "test",
                                cli.PipelineConfig(out_dir=writer_dir, quiet=True))
    try:
        writer.write_csv(name, header, columns)
    except NumericError as exc:
        assert writer.artifacts == {}
        return str(exc)
    return writer.artifacts[name]


def reference_outcome(name, header, columns):
    try:
        return reference_artifact_csv(name, header, list(zip(*columns)))
    except NumericError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    """An output directory that no test creates, so no artifact is refused."""
    return str(tmp_path_factory.mktemp("artifacts") / "out")


def random_table(n, names, floats, seed=0):
    rng = np.random.default_rng(seed)
    cols = {name: rng.choice(floats, n) for name in names}
    return TimeTable(1_500_000_000 + 600 * np.arange(n), cols, rng.choice(floats, n), 600)


class TestCsvLines:
    """``csv_lines`` under both writers equals the ``csv.writer`` code it
    replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_table_writer_equals_csv_writer(self, data):
        n = data.draw(st.integers(1, 3 * SMALL_CHUNK + 1), label="rows")
        names = data.draw(st.lists(CSV_TEXT, max_size=4, unique=True), label="names")
        start = data.draw(st.integers(0, 2**32), label="start")
        step = data.draw(st.integers(1, 86400), label="step")
        floats = st.lists(ANY_FLOAT, min_size=n, max_size=n).map(np.array)
        table = TimeTable(start + step * np.arange(n), {name: data.draw(floats) for name in names},
                          data.draw(floats), step)
        buf = io.StringIO()
        with mock.patch.object(dataio, "CSV_CHUNK_ROWS", SMALL_CHUNK):
            dataio.write_csv(table, buf)
        assert buf.getvalue() == reference_table_csv(table)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_artifact_writer_equals_csv_writer(self, writer_dir, data):
        """The same bytes, or the same NumericError text, which names the
        first non-finite cell in row order."""
        n = data.draw(st.integers(0, 3 * SMALL_CHUNK + 1), label="rows")
        width = data.draw(st.integers(1, 4), label="columns")
        header = data.draw(st.lists(CSV_TEXT, min_size=width, max_size=width), label="header")
        floats = data.draw(st.sampled_from([FINITE, ANY_FLOAT]), label="floats")
        columns = [artifact_column(data, n, floats) for _ in range(width)]
        with mock.patch.object(dataio, "CSV_CHUNK_ROWS", SMALL_CHUNK):
            got = artifact_outcome(writer_dir, "a.csv", header, columns)
        assert got == reference_outcome("a.csv", header, columns)

    @settings(max_examples=100, deadline=None)
    @given(lineterminator=st.sampled_from(["\r\n", "\n"]),
           cells=st.lists(st.tuples(CSV_TEXT, CSV_TEXT), max_size=2 * SMALL_CHUNK + 1))
    def test_string_cells_are_quoted_as_csv_writer_quotes_them(self, lineterminator, cells):
        """Whether a ``\\r`` is quoted depends on the line end."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator=lineterminator).writerows([("a\r", "b"), *cells])
        columns = [[c[0] for c in cells], [c[1] for c in cells]]
        with mock.patch.object(dataio, "CSV_CHUNK_ROWS", SMALL_CHUNK):
            got = "".join(dataio.csv_lines(["a\r", "b"], columns, lineterminator))
        assert got == buf.getvalue()

    @pytest.mark.parametrize("extra", [0, 1], ids=["chunk-multiple", "one-past"])
    def test_full_chunks(self, writer_dir, extra):
        n = dataio.CSV_CHUNK_ROWS * 2 + extra
        table = random_table(n, ["A", "B"], EDGE_FLOATS + [math.nan, math.inf])
        buf = io.StringIO()
        dataio.write_csv(table, buf)
        assert buf.getvalue() == reference_table_csv(table)
        columns = [table.timestamps.astype("datetime64[s]"), np.nan_to_num(table.columns["A"]),
                   np.arange(n), [None, "x,y", 7, np.int64(-3)] * (n // 4) + [None] * (n % 4)]
        rows = zip(timebase.format_instants(table.timestamps), *columns[1:])
        assert (artifact_outcome(writer_dir, "a.csv", ["t", "a", "i", "o"], columns)
                == reference_artifact_csv("a.csv", ["t", "a", "i", "o"], rows))

    def test_a_lone_blank_cell_is_quoted(self, writer_dir):
        """``csv.writer`` writes a row of one blank cell as ``""``."""
        columns = [[None, "", "x", 1.5]]
        assert artifact_outcome(writer_dir, "a.csv", [""], columns) == b'""\n""\n""\nx\n1.5\n'
        assert reference_outcome("a.csv", [""], columns) == b'""\n""\n""\nx\n1.5\n'

    def test_non_finite_cell_is_named_in_row_order(self, writer_dir):
        columns = [[1.0, np.float64("nan")], np.array([-math.inf, 2.0])]
        assert artifact_outcome(writer_dir, "a.csv", ["x", "y"], columns) == (
            "artifact a.csv would hold a non-finite number -inf")

    def test_column_count_must_match_the_header(self, writer_dir):
        with pytest.raises(ValueError):
            artifact_outcome(writer_dir, "a.csv", ["x"], [[1.0], [2.0]])


class TestSplit:
    def test_spec_must_be_strictly_increasing(self):
        d = timebase.parse_day
        with pytest.raises(SplitError):
            SplitSpec(d("2020-01-01"), d("2020-01-01"), d("2020-02-01"), d("2020-03-01"))

    def test_partitions_are_contiguous_and_exhaustive(self, synth_table):
        d = timebase.parse_day
        spec = SplitSpec(d("2017-12-08"), d("2017-12-26"), d("2018-01-01"), d("2018-01-07"))
        train, val, test = dataio.split(synth_table, spec)
        assert len(train) + len(val) + len(test) == len(synth_table)
        assert train.timestamps[-1] < val.timestamps[0] < test.timestamps[0]

    def test_boundary_rows_fall_in_later_partition(self, synth_table):
        d = timebase.parse_day
        spec = SplitSpec(d("2017-12-08"), d("2017-12-26"), d("2018-01-01"), d("2018-01-07"))
        train, val, _ = dataio.split(synth_table, spec)
        # local midnight of train_end opens the validation set (UTC+2)
        first_val_local = timebase.local_fields(val.timestamps[:1], 2.0)
        assert first_val_local["second_of_day"][0] == 0
        last_train_local = timebase.local_fields(train.timestamps[-1:], 2.0)
        assert last_train_local["second_of_day"][0] == 86400 - 600

    def test_empty_partition_is_an_error(self, synth_table):
        # the test window lies entirely after the data ends
        d = timebase.parse_day
        spec = SplitSpec(d("2017-12-08"), d("2017-12-26"), d("2018-02-01"), d("2018-03-01"))
        with pytest.raises(SplitError) as err:
            dataio.split(synth_table, spec)
        assert "test" in str(err.value)


class TestSynthesize:
    def test_shape_and_columns(self, synth_table):
        assert len(synth_table) == 30 * 144
        assert synth_table.interval_seconds == 600
        assert set(synth_table.columns) == {"OnOffState", "OpMode", "OutTemp", "OutHumid"}
        deltas = np.diff(synth_table.timestamps)
        assert (deltas == 600).all()

    def test_target_is_quantized(self, synth_table):
        q = synth_table.target / 0.5
        assert np.allclose(q, np.round(q), atol=1e-9)

    def test_states_are_discrete(self, synth_table):
        assert set(np.unique(synth_table.columns["OnOffState"])) <= {0.0, 1.0}
        assert set(np.unique(synth_table.columns["OpMode"])) <= {0.0, 1.0, 2.0}

    def test_outdoor_series_negatively_correlated(self):
        t = dataio.synthesize(SynthConfig(seed=5, n_days=120))
        r = np.corrcoef(t.columns["OutTemp"], t.columns["OutHumid"])[0, 1]
        assert r < -0.5

    def test_seed_determinism(self):
        a = dataio.synthesize(SynthConfig(seed=9, n_days=3))
        b = dataio.synthesize(SynthConfig(seed=9, n_days=3))
        c = dataio.synthesize(SynthConfig(seed=10, n_days=3))
        assert np.array_equal(a.target, b.target)
        assert not np.array_equal(a.target, c.target)

    def test_holiday_depresses_room_temperature(self):
        t = dataio.synthesize(SynthConfig(seed=3, n_days=200, noise_sd=0.0,
                                          holiday_shift=2.0))
        cal = timebase.HolidayCalendar.default()
        days = timebase.local_fields(t.timestamps, 2.0)["day"]
        hol = cal.mask(days)
        assert t.target[hol].mean() < t.target[~hol].mean()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_days=0)
        with pytest.raises(ConfigError):
            SynthConfig(noise_sd=-1.0)

    def test_overflowing_knob_is_a_numeric_error(self):
        config = SynthConfig(n_days=2, rt_base=1e308)
        message = "^synthetic generator arithmetic left the float range: "
        with pytest.raises(NumericError, match=message):
            dataio.synthesize(config)

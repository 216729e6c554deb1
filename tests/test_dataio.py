"""Ingestion, validation, splitting, and the synthetic generator."""
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtcast import dataio, timebase
from rtcast.dataio import SplitSpec, SynthConfig, TimeTable
from rtcast.errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ParseError,
    SchemaError,
    SplitError,
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

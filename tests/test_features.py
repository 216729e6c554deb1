"""Feature engineering: smoothing, lag features, and matrix assembly."""
import warnings
from datetime import date

import numpy as np
import pytest

from rtcast import dataio, features, timebase
from rtcast.errors import ConfigError, DataError, NumericError
from rtcast.features import EngineeringConfig, FeatureMatrix

FULL = frozenset({"IOTS-MVA", "MVART", "Holiday"})


def brute_moving_average(x, w):
    """Trailing mean with partial windows at the head."""
    return np.array([np.mean(x[max(0, i - w + 1): i + 1]) for i in range(len(x))])


class TestMovingAverage:
    @pytest.mark.parametrize("w", [1, 2, 5, 13])
    def test_matches_brute_force(self, w):
        rng = np.random.default_rng(w)
        x = rng.normal(size=97)
        assert np.allclose(features.moving_average(x, w), brute_moving_average(x, w))

    def test_window_one_is_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        assert features.moving_average(x, 1).tolist() == x.tolist()

    def test_window_longer_than_series(self):
        x = np.array([2.0, 4.0])
        got = features.moving_average(x, 10)
        assert np.allclose(got, [2.0, 3.0])

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            features.moving_average(np.ones(3), 0)


class TestMvart:
    def test_oracle_mode_uses_strictly_past_values(self, synth_table):
        w = 6
        cfg = EngineeringConfig(mva_window=w)
        X = features.build_design_matrix(synth_table, cfg, FULL)
        col = X.column("MVART")
        assert len(X) == len(synth_table) - w
        for i in (w, w + 1, 50, len(synth_table) - 1):
            assert col[i - w] == pytest.approx(synth_table.target[i - w: i].mean())


class TestCalendarColumns:
    def test_time_fields_against_known_instant(self):
        # 2018-06-15T13:10Z is 15:10 local (UTC+2), a Friday in Q2
        ts = np.array([timebase.parse_instant("2018-06-15T13:10:00Z")])
        inputs = {name: np.zeros(2) for name in ("OnOffState", "OpMode", "OutTemp", "OutHumid")}
        t = dataio.TimeTable(
            timestamps=np.r_[ts, ts + 600], columns=inputs,
            target=np.zeros(2), interval_seconds=600,
        )
        out = features.engineered_table(t, EngineeringConfig(), frozenset({"IOTS"}))
        assert out.columns["Hour"][0] == 15
        assert out.columns["WeekDay"][0] == 5
        assert out.columns["Month"][0] == 6
        assert out.columns["Quarter"][0] == 2

    def test_occupancy_logic(self, synth_table):
        t = features.engineered_table(synth_table, EngineeringConfig(), frozenset({"IOTS"}))
        occ = t.columns["Occupancy"]
        on = t.columns["OnOffState"]
        hour = t.columns["Hour"]
        hol = t.columns["Holiday"]
        manual = (on == 1) & (hol == 0) & (hour >= 8) & (hour < 18)
        assert np.array_equal(occ.astype(bool), manual)


# The chain of table copies that engineered_table and build_design_matrix
# replaced, kept as the reference their columns must equal bit for bit.

def ref_add_time_features(table, utc_offset_hours):
    f = timebase.local_fields(table.timestamps, utc_offset_hours)
    out = table
    for name in ("Quarter", "Month", "WeekDay", "Hour"):
        out = out.with_column(name, f[name.lower()])
    return out


def ref_add_holiday(table, calendar, utc_offset_hours):
    days = timebase.local_fields(table.timestamps, utc_offset_hours)["day"]
    return table.with_column("Holiday", calendar.mask(days).astype(np.float64))


def ref_add_occupancy(table, work_start_hour, work_end_hour):
    for dep in ("OnOffState", "Hour", "Holiday"):
        if dep not in table.columns:
            raise DataError(f"occupancy needs column {dep!r}; add it first")
    hour = table.columns["Hour"]
    occ = (
        (table.columns["OnOffState"] == 1.0)
        & (table.columns["Holiday"] == 0.0)
        & (hour >= work_start_hour)
        & (hour < work_end_hour)
    )
    return table.with_column("Occupancy", occ.astype(np.float64))


def ref_add_mvart(table, config):
    src = np.asarray(table.target, dtype=np.float64)
    w = config.mva_window
    n = len(src)
    mvart = np.full(n, np.nan)
    if n > w:
        windows = np.lib.stride_tricks.sliding_window_view(src, w)
        mvart[w:] = windows[: n - w].mean(axis=1)
    return table.with_column("MVART", mvart)


def ref_engineered_table(table, config, feature_selection):
    groups = features._check_groups(feature_selection)
    for dep in ("OnOffState", "OpMode", "OutTemp", "OutHumid"):
        if dep not in table.columns:
            raise DataError(f"input table is missing column {dep!r}")
    out = ref_add_time_features(table, config.utc_offset_hours)
    out = ref_add_holiday(out, config.holiday_calendar, config.utc_offset_hours)
    out = ref_add_occupancy(out, config.work_start_hour, config.work_end_hour)
    if "IOTS-MVA" in groups:
        out = out.with_column(
            "OutHumidMVA", features.moving_average(out.columns["OutHumid"], config.mva_window)
        )
        out = out.with_column(
            "OutTempMVA", features.moving_average(out.columns["OutTemp"], config.mva_window)
        )
    return out


def ref_design_matrix(table, config, feature_selection):
    names = features.feature_order(feature_selection)
    work = ref_engineered_table(table, config, feature_selection)
    if "MVART" in names:
        work = ref_add_mvart(work, config)
    rows = np.column_stack([work.columns[n] for n in names])
    start = config.mva_window if "MVART" in names else 0
    if start >= len(rows):
        raise DataError(
            f"table too short: {len(rows)} rows, {start} needed for MVART warm-up"
        )
    rows, target, ts = rows[start:], work.target[start:], work.timestamps[start:]
    features.check_finite(rows, names, ts)
    return FeatureMatrix(names, rows, target, ts)


SELECTIONS = [frozenset(base | extra) for base in ({"IOTS"}, {"IOTS-MVA"})
              for extra in (set(), {"MVART"}, {"Holiday"}, {"MVART", "Holiday"})]
CALENDARS = {
    "default": timebase.HolidayCalendar.default(),
    "weekends-off": timebase.HolidayCalendar(frozenset(), include_weekends=False),
    "listed-dates": timebase.HolidayCalendar(
        frozenset({date(2017, 12, 12), date(2017, 12, 25), date(2018, 1, 2)}),
        include_weekends=True),
}


def assert_same_as_reference(table, config, selection):
    got = features.engineered_table(table, config, selection)
    want = ref_engineered_table(table, config, selection)
    assert list(got.columns) == list(want.columns)
    for name, col in want.columns.items():
        assert got.columns[name].dtype == np.float64
        assert np.array_equal(got.columns[name], col), name
    X = features.build_design_matrix(table, config, selection)
    R = ref_design_matrix(table, config, selection)
    assert X.feature_names == R.feature_names
    assert X.rows.dtype == np.float64
    assert np.array_equal(X.rows, R.rows)
    assert np.array_equal(X.target, R.target)
    assert np.array_equal(X.row_timestamps, R.row_timestamps)


class TestOnePassMatchesTheChain:
    @pytest.mark.parametrize("w", [1, 6, 12])
    @pytest.mark.parametrize("selection", SELECTIONS, ids=lambda s: "+".join(sorted(s)))
    def test_every_selection_and_window(self, synth_table, selection, w):
        assert_same_as_reference(synth_table, EngineeringConfig(mva_window=w), selection)

    @pytest.mark.parametrize("calendar", list(CALENDARS), ids=list(CALENDARS))
    @pytest.mark.parametrize("hours", [(0, 24), (8, 18), (23, 24)], ids=str)
    @pytest.mark.parametrize("offset", [-24.0, -5.5, 0.0, 2.0, 5.75, 24.0])
    def test_every_offset_working_day_and_calendar(self, synth_table, offset, hours,
                                                   calendar):
        cfg = EngineeringConfig(utc_offset_hours=offset, work_start_hour=hours[0],
                                work_end_hour=hours[1], holiday_calendar=CALENDARS[calendar])
        assert_same_as_reference(synth_table, cfg, FULL)

    @pytest.mark.parametrize("case", ["missing-column", "too-short", "nan-cell"])
    def test_same_error(self, synth_table, case):
        t = synth_table
        if case == "missing-column":
            t = dataio.TimeTable(t.timestamps, {"OnOffState": t.columns["OnOffState"]},
                                 t.target, t.interval_seconds)
        elif case == "too-short":
            t = t.row_slice(0, 6)
        else:
            t = t.with_column("OutTemp", np.where(np.arange(len(t)) == 100, np.nan,
                                                  t.columns["OutTemp"]))
        cfg = EngineeringConfig()
        with pytest.raises(DataError) as want:
            ref_design_matrix(t, cfg, FULL)
        with pytest.raises(DataError) as got:
            features.build_design_matrix(t, cfg, FULL)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_overflowing_moving_average_names_the_raw_column(synth_table):
    """Finite outdoor readings whose running sum overflows: NumericError
    naming the smoothed input, not a non-finite derived column, and no
    numpy warning."""
    t = synth_table.with_column("OutTemp", synth_table.columns["OutTemp"] * 1e305)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError,
                           match="^moving average of 'OutTemp' left the float range: "):
            features.engineered_table(t, EngineeringConfig(), FULL)


class TestFeatureOrder:
    def test_canonical_order_full(self):
        names = features.feature_order(FULL)
        assert tuple(names) == (
            "OnOffState", "OpMode", "Quarter", "Month", "WeekDay", "Hour",
            "Occupancy", "Holiday", "OutHumidMVA", "OutTempMVA", "MVART",
        )

    def test_raw_group_uses_unsmoothed_weather(self):
        names = features.feature_order(frozenset({"IOTS"}))
        assert "OutHumid" in names and "OutTemp" in names
        assert "OutHumidMVA" not in names and "MVART" not in names

    def test_smoothed_and_raw_groups_are_exclusive(self):
        with pytest.raises(DataError, match="^IOTS and IOTS-MVA are mutually exclusive$"):
            features.feature_order(frozenset({"IOTS", "IOTS-MVA"}))

    def test_unknown_group(self):
        with pytest.raises(DataError, match=r"^unknown feature group\(s\) \['Bogus'\]; known: "
                                            r"\['IOTS', 'IOTS-MVA', 'MVART', 'Holiday'\]$"):
            features.feature_order(frozenset({"IOTS", "Bogus"}))


class TestBuildDesignMatrix:
    def test_full_matrix_shape_and_names(self, train_matrix, synth_splits):
        w = EngineeringConfig().mva_window
        assert train_matrix.rows.shape == (len(synth_splits[0]) - w, 11)
        assert train_matrix.feature_names == tuple(features.feature_order(FULL))

    def test_no_lag_features_keeps_every_row(self, synth_splits, engineering):
        X = features.build_design_matrix(
            synth_splits[0], engineering, frozenset({"IOTS", "Holiday"})
        )
        assert len(X) == len(synth_splits[0])

    def test_mvart_column_content(self, train_matrix, synth_splits):
        w = EngineeringConfig().mva_window
        target = synth_splits[0].target
        col = train_matrix.column("MVART")
        assert col[0] == pytest.approx(target[:w].mean())
        assert col[10] == pytest.approx(target[10: 10 + w].mean())

    def test_smoothed_weather_column_content(self, train_matrix, synth_splits):
        w = EngineeringConfig().mva_window
        raw = synth_splits[0].columns["OutTemp"]
        sm = features.moving_average(raw, w)
        assert np.allclose(train_matrix.column("OutTempMVA"), sm[w:])

    def test_missing_input_column(self, engineering):
        ts = 600 * np.arange(20, dtype=np.int64)
        t = dataio.TimeTable(timestamps=ts, columns={"OnOffState": np.zeros(20)},
                             target=np.zeros(20), interval_seconds=600)
        with pytest.raises(DataError, match="^input table is missing column 'OpMode'$"):
            features.build_design_matrix(t, engineering, FULL)

    def test_nan_leak_is_reported_with_column(self, synth_splits, engineering):
        part = synth_splits[0]
        bad = part.with_column("OutTemp", np.where(
            np.arange(len(part)) == 100, np.nan, part.columns["OutTemp"]))
        with pytest.raises(DataError) as err:
            features.build_design_matrix(bad, engineering, FULL)
        assert "OutTempMVA" in str(err.value)

    def test_non_finite_target_is_named_as_the_forecast_names_it(self, synth_splits,
                                                                  engineering):
        """The message of ``check_finite``, which the rolling forecast and the
        artifact writer give for the same cell."""
        part = synth_splits[0]
        target = np.where(np.arange(len(part)) == 100, np.inf, part.target)
        bad = dataio.TimeTable(part.timestamps, part.columns, target, part.interval_seconds)
        with pytest.raises(DataError) as err:
            features.build_design_matrix(bad, engineering, frozenset({"IOTS", "Holiday"}))
        assert str(err.value) == (
            f"non-finite value in column 'RT' at {timebase.format_instant(part.timestamps[100])}")

    def test_banned_names_rejected(self):
        with pytest.raises(DataError):
            FeatureMatrix(
                feature_names=("SPT",),
                rows=np.zeros((2, 1)),
                target=np.zeros(2),
                row_timestamps=np.array([0, 600], dtype=np.int64),
            )

    def test_column_lookup(self, train_matrix):
        assert train_matrix.index("Hour") == 5
        with pytest.raises(DataError, match="^unknown feature 'NoSuchFeature'$"):
            train_matrix.column("NoSuchFeature")


class TestTrainingMeans:
    def test_one_float_mean_per_column(self, train_matrix):
        means = features.training_means(train_matrix)
        assert list(means) == list(train_matrix.feature_names)
        for n, m in means.items():
            assert type(m) is float and m == float(train_matrix.column(n).mean())

    def test_overflowing_mean_names_the_column_without_a_warning(self):
        X = FeatureMatrix(
            feature_names=("A", "B"),
            rows=np.array([[1.0, 1e308], [2.0, 1e308]]),
            target=np.zeros(2),
            row_timestamps=np.array([0, 600], dtype=np.int64),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="training mean of column 'B'"):
                features.training_means(X)


@pytest.mark.parametrize("offset", [-24.5, 25.0, float("nan"), float("inf")])
def test_utc_offset_must_be_a_real_offset(offset):
    with pytest.raises(ConfigError, match="utc_offset_hours"):
        EngineeringConfig(utc_offset_hours=offset)

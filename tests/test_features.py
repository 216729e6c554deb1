"""Feature engineering: smoothing, lag features, and matrix assembly."""
import warnings

import numpy as np
import pytest

from rtcast import dataio, features, timebase
from rtcast.errors import ConfigError, DataError, PipelineError, SelectionError
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
        t = features.add_mvart(synth_table, cfg)
        col = t.columns["MVART"]
        assert np.isnan(col[:w]).all()
        for i in (w, w + 1, 50, len(t) - 1):
            assert col[i] == pytest.approx(synth_table.target[i - w: i].mean())


class TestCalendarColumns:
    def test_time_fields_against_known_instant(self):
        # 2018-06-15T13:10Z is 15:10 local (UTC+2), a Friday in Q2
        ts = np.array([timebase.parse_instant("2018-06-15T13:10:00Z")])
        t = dataio.TimeTable(
            timestamps=np.r_[ts, ts + 600], columns={},
            target=np.zeros(2), interval_seconds=600,
        )
        out = features.add_time_features(t)
        assert out.columns["Hour"][0] == 15
        assert out.columns["WeekDay"][0] == 5
        assert out.columns["Month"][0] == 6
        assert out.columns["Quarter"][0] == 2

    def test_occupancy_needs_state_and_calendar(self, synth_table):
        with pytest.raises(PipelineError):
            features.add_occupancy(synth_table)

    def test_occupancy_logic(self, synth_table):
        cal = timebase.HolidayCalendar.default()
        t = features.add_time_features(synth_table)
        t = features.add_holiday(t, cal)
        t = features.add_occupancy(t)
        occ = t.columns["Occupancy"]
        on = t.columns["OnOffState"]
        hour = t.columns["Hour"]
        hol = t.columns["Holiday"]
        manual = (on == 1) & (hol == 0) & (hour >= 8) & (hour < 18)
        assert np.array_equal(occ.astype(bool), manual)


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
        with pytest.raises(SelectionError):
            features.feature_order(frozenset({"IOTS", "IOTS-MVA"}))

    def test_unknown_group(self):
        with pytest.raises(SelectionError):
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
        with pytest.raises(PipelineError):
            features.build_design_matrix(t, engineering, FULL)

    def test_nan_leak_is_reported_with_column(self, synth_splits, engineering):
        part = synth_splits[0]
        bad = part.with_column("OutTemp", np.where(
            np.arange(len(part)) == 100, np.nan, part.columns["OutTemp"]))
        with pytest.raises(DataError) as err:
            features.build_design_matrix(bad, engineering, FULL)
        assert "OutTempMVA" in str(err.value)

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
        with pytest.raises(SelectionError):
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

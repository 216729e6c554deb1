"""Rolling re-anchored forecasting and the window/horizon sweeps."""
import itertools

import numpy as np
import pytest

from rtcast import dataio, features, forecast, gbm, stats, timebase
from rtcast.errors import ConfigError, DataError
from rtcast.features import EngineeringConfig

from conftest import FULL_GROUPS, make_matrix


@pytest.fixture(scope="module")
def val_run(small_model, synth_splits, engineering):
    return forecast.rolling_forecast(small_model, synth_splits[1], engineering)


class TestRollingForecast:
    def test_anchors_sit_at_local_midnight(self, val_run, engineering):
        local = val_run.anchors + timebase.offset_seconds(engineering.utc_offset_hours)
        assert (local % 86400 == 0).all()

    def test_scored_steps_stay_within_horizon(self, val_run):
        for i in range(len(val_run)):
            anchor_ts = val_run.anchors[val_run.anchor_ids[i]]
            lead = val_run.timestamps[i] - anchor_ts
            assert 0 < lead <= val_run.horizon_seconds

    def test_exogenous_inputs_come_from_the_table(self, val_run, synth_splits,
                                                  engineering):
        X = features.build_design_matrix(synth_splits[1], engineering, FULL_GROUPS)
        pos = {ts: i for i, ts in enumerate(X.row_timestamps)}
        mvart = X.index("MVART")
        for i in range(len(val_run)):
            j = pos[val_run.timestamps[i]]
            for c in range(len(val_run.feature_names)):
                if c != mvart:
                    assert val_run.feature_rows[i, c] == X.rows[j, c]

    def test_feedback_buffer_recurrence(self, val_run, synth_splits, engineering):
        """Replay the documented recurrence: the moving-average input starts
        from true history at the anchor and then absorbs each prediction."""
        table = synth_splits[1]
        w = engineering.mva_window
        mvart = list(val_run.feature_names).index("MVART")
        anchor_rows = np.searchsorted(table.timestamps, val_run.anchors)
        for a_num, a in enumerate(anchor_rows):
            mine = np.flatnonzero(val_run.anchor_ids == a_num)
            buffer = list(table.target[a - w + 1: a + 1])
            for i in mine:
                assert val_run.feature_rows[i, mvart] == pytest.approx(
                    np.mean(buffer[-w:]), abs=1e-12
                )
                buffer.append(val_run.y_pred[i])

    def test_first_step_mvart_equals_the_design_matrix(self, val_run, synth_splits,
                                                       engineering):
        """One MVART definition: right after an anchor the window holds only
        true values, so the forecast's input must be the training feature."""
        X = features.build_design_matrix(synth_splits[1], engineering, FULL_GROUPS)
        pos = {ts: i for i, ts in enumerate(X.row_timestamps)}
        mvart = X.index("MVART")
        firsts = np.flatnonzero(np.diff(val_run.anchor_ids, prepend=-1) != 0)
        assert len(firsts) == len(val_run.anchors)
        for i in firsts:
            j = pos[val_run.timestamps[i]]
            assert val_run.feature_rows[i, mvart] == X.rows[j, mvart]

    def test_predictions_match_recorded_rows(self, val_run, small_model):
        for i in range(0, len(val_run), 7):
            assert val_run.y_pred[i] == pytest.approx(
                small_model.predict_row(val_run.feature_rows[i]), abs=1e-12
            )

    def test_one_step_forecast_equals_predict_batch(self, small_model, synth_splits,
                                                    engineering):
        """At a 600 s access interval every step reads a true MVART window,
        so each row must equal the batch read bit for bit."""
        X = features.build_design_matrix(synth_splits[1], engineering, FULL_GROUPS)
        run = forecast.rolling_forecast(small_model, synth_splits[1], engineering,
                                        access_interval_seconds=600, horizon_seconds=600)
        assert np.array_equal(run.timestamps, X.row_timestamps)
        assert np.array_equal(run.y_pred, small_model.predict_batch(X.rows))

    def test_report_reduces_arrays(self, val_run):
        rep = val_run.report()
        want = stats.metrics(val_run.y_true, val_run.y_pred)
        assert rep.mae == want.mae and rep.mse == want.mse

    def test_horizon_must_fit_access_interval(self, small_model, synth_splits,
                                              engineering):
        with pytest.raises(ConfigError):
            forecast.rolling_forecast(
                small_model, synth_splits[1], engineering,
                access_interval_seconds=3600, horizon_seconds=7200,
            )

    def test_intervals_must_align_to_sampling(self, small_model, synth_splits,
                                              engineering):
        with pytest.raises(ConfigError):
            forecast.rolling_forecast(
                small_model, synth_splits[1], engineering,
                access_interval_seconds=86400, horizon_seconds=900,
            )

    def test_table_must_span_one_interval(self, small_model, synth_splits,
                                          engineering):
        tiny = synth_splits[1].row_slice(0, 30)
        with pytest.raises(ConfigError):
            forecast.rolling_forecast(small_model, tiny, engineering)

    def test_unrecognized_model_features(self, synth_splits, engineering):
        X = make_matrix(np.random.default_rng(0).normal(size=(30, 2)),
                        ["a", "b"], target=np.arange(30.0))
        stray = gbm.train(X, gbm.Hyperparams(max_depth=1, n_trees=1))
        with pytest.raises(DataError, match="feature_names"):
            forecast.rolling_forecast(stray, synth_splits[1], engineering)

    def test_input_overrides_change_the_model_view(self, small_model,
                                                   synth_splits, engineering,
                                                   val_run):
        hour = list(small_model.feature_names).index("Hour")
        run = forecast.rolling_forecast(
            small_model, synth_splits[1], engineering,
            input_overrides={"Hour": 11.0},
        )
        assert (run.feature_rows[:, hour] == 11.0).all()
        assert not np.array_equal(run.y_pred, val_run.y_pred)
        # scenario columns other than the overridden one are untouched
        onoff = list(small_model.feature_names).index("OnOffState")
        assert np.array_equal(run.feature_rows[:, onoff],
                              val_run.feature_rows[:, onoff])

    def test_override_must_name_a_feature(self, small_model, synth_splits,
                                          engineering):
        with pytest.raises(ConfigError):
            forecast.rolling_forecast(
                small_model, synth_splits[1], engineering,
                input_overrides={"Bogus": 0.0},
            )

    def test_missing_rt_in_an_anchor_window_names_rt_and_the_instant(
            self, small_model, engineering):
        """True RT seeds each anchor's MVART window; a NaN there must not
        flow silently into the first steps' MVART input."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=20))
        run = forecast.rolling_forecast(small_model, table, engineering)
        a = int(np.searchsorted(table.timestamps, run.anchors[3]))
        target = table.target.copy()
        target[a - 2] = np.nan
        holed = dataio.TimeTable(table.timestamps, table.columns, target,
                                 table.interval_seconds)
        instant = timebase.format_instant(table.timestamps[a - 2])
        with pytest.raises(DataError, match=f"'RT' at {instant}"):
            forecast.rolling_forecast(small_model, holed, engineering)

    def test_missing_rt_in_a_scored_row_names_rt_and_the_instant(
            self, small_model, engineering):
        """A scored row's true RT feeds the metrics; a NaN there must not
        turn them into NaN."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=20))
        run = forecast.rolling_forecast(small_model, table, engineering)
        t = int(np.searchsorted(table.timestamps, run.timestamps[5]))
        target = table.target.copy()
        target[t] = np.nan
        holed = dataio.TimeTable(table.timestamps, table.columns, target,
                                 table.interval_seconds)
        instant = timebase.format_instant(table.timestamps[t])
        with pytest.raises(DataError, match=f"'RT' at {instant}"):
            forecast.rolling_forecast(small_model, holed, engineering)

    def test_missing_rt_read_by_no_step_is_ignored(self, small_model, engineering):
        """The window of an anchor on the last row, and any window when MVART
        is overridden, seeds no prediction; a NaN there changes nothing."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=20))
        run = forecast.rolling_forecast(small_model, table, engineering)
        end = int(np.searchsorted(table.timestamps, run.anchors[-1])) + 1
        target = table.target.copy()
        target[end - 3] = np.nan
        holed = dataio.TimeTable(table.timestamps, table.columns, target,
                                 table.interval_seconds)
        for overrides in (None, {"MVART": 20.0}):
            want = forecast.rolling_forecast(small_model, table.row_slice(0, end),
                                             engineering, input_overrides=overrides)
            got = forecast.rolling_forecast(small_model, holed.row_slice(0, end),
                                            engineering, input_overrides=overrides)
            assert np.array_equal(got.y_pred, want.y_pred)
            assert np.array_equal(got.anchors, want.anchors)


def reference_forecast(model, table, config, access_interval_seconds=86400,
                       horizon_seconds=28800, input_overrides=None):
    """The rolling forecast as one anchor after another, one step after
    another, with a list buffer as the MVART window: the per-row form that
    ``forecast.rolling_forecast`` must reproduce bit for bit."""
    step = table.interval_seconds
    if access_interval_seconds % step or horizon_seconds % step:
        raise ConfigError("access interval and horizon must be multiples of the sampling interval")
    if horizon_seconds < step:
        raise ConfigError("horizon must cover at least one step")
    if horizon_seconds > access_interval_seconds:
        raise ConfigError(
            f"horizon {horizon_seconds}s exceeds access interval {access_interval_seconds}s"
        )
    if (len(table) - 1) * step < access_interval_seconds:
        raise ConfigError("table does not cover one access interval")
    names = model.feature_names
    et = features.engineered_table(table, config, forecast.groups_for_model(model))
    static = np.column_stack([
        et.columns[n] if n != "MVART" else np.full(len(et), np.nan) for n in names
    ])
    use_mvart = "MVART" in names
    mvart_pos = names.index("MVART") if use_mvart else -1
    exogenous = [j for j, n in enumerate(names) if n != "MVART"]
    features.check_finite(static[:, exogenous], [names[j] for j in exogenous],
                          table.timestamps)
    override_pos = {}
    for key, val in (input_overrides or {}).items():
        if key not in names:
            raise ConfigError(f"override for unknown feature {key!r}")
        override_pos[names.index(key)] = float(val)

    local = table.timestamps + timebase.offset_seconds(config.utc_offset_hours)
    anchor_idx = np.flatnonzero(local % access_interval_seconds == 0)
    if use_mvart:
        anchor_idx = anchor_idx[anchor_idx >= config.mva_window - 1]
    if len(anchor_idx) == 0:
        raise DataError("no usable anchor instants in the table")
    w = config.mva_window
    target = table.target
    n_rows = len(table)
    if use_mvart and mvart_pos not in override_pos:
        scored = anchor_idx[anchor_idx + 1 < n_rows]
        seeded = np.unique(scored[:, None] + np.arange(1 - w, 1))
        features.check_finite(target[seeded, None], ["RT"], table.timestamps[seeded])

    ts_out, yt, yp, aid, rows_out = [], [], [], [], []
    for a_num, a in enumerate(anchor_idx):
        if use_mvart:
            buffer = list(target[a - w + 1: a + 1])
        for k in range(1, horizon_seconds // step + 1):
            t = a + k
            if t >= n_rows:
                break
            row = static[t].copy()
            if use_mvart:
                row[mvart_pos] = np.mean(buffer[-w:])
            for pos, val in override_pos.items():
                row[pos] = val
            pred = model.predict_row(row)
            if use_mvart:
                buffer.append(pred)
            ts_out.append(table.timestamps[t])
            yt.append(target[t])
            yp.append(pred)
            aid.append(a_num)
            rows_out.append(row)
    if not ts_out:
        raise DataError("no scored predictions: horizon never lands inside the table")
    timestamps = np.array(ts_out, dtype=np.int64)
    y_true = np.array(yt)
    features.check_finite(y_true[:, None], ["RT"], timestamps)
    return forecast.ForecastRun(
        access_interval_seconds=access_interval_seconds,
        horizon_seconds=horizon_seconds,
        timestamps=timestamps,
        y_true=y_true,
        y_pred=np.array(yp),
        anchor_ids=np.array(aid, dtype=np.int64),
        anchors=table.timestamps[anchor_idx],
        feature_names=names,
        feature_rows=np.array(rows_out),
    )


def outcome(fn, *args, **kwargs):
    """The run, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


def assert_same_run(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.access_interval_seconds == want.access_interval_seconds
    assert got.horizon_seconds == want.horizon_seconds
    assert got.feature_names == want.feature_names
    for field in ("timestamps", "y_true", "y_pred", "anchor_ids", "anchors", "feature_rows"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


EQUIVALENCE_GROUPS = {
    "mva-mvart-holiday": FULL_GROUPS,
    "iots-holiday": frozenset({"IOTS", "Holiday"}),
    "iots-mvart": frozenset({"IOTS", "MVART"}),
}
EQUIVALENCE_INTERVALS = [(86400, 28800), (600, 600), (3600, 3600), (86400, 86400), (7200, 3000)]


@pytest.fixture(scope="module")
def equivalence_cases(synth_table, synth_splits):
    """Per (window, groups): a model, its config, and a validation table that
    ends 17 rows past a midnight anchor, so the last day's horizon is cut."""
    start = len(synth_splits[0])
    cases = {}

    def case(w, group_key):
        if (w, group_key) not in cases:
            cfg = EngineeringConfig(mva_window=w)
            x = features.build_design_matrix(synth_splits[0], cfg, EQUIVALENCE_GROUPS[group_key])
            model = gbm.train(x, gbm.Hyperparams(max_depth=3, n_trees=6))
            local = synth_table.timestamps + timebase.offset_seconds(cfg.utc_offset_hours)
            midnight = np.flatnonzero(local % 86400 == 0)
            last = midnight[midnight >= start + 2 * 144][0]
            cases[w, group_key] = (model, cfg, synth_table.row_slice(start, last + 18))
        return cases[w, group_key]
    return case


class TestGridEqualsPerRowForecast:
    """The anchors x steps recurrence gives the per-row forecast's every
    array bit for bit, and raises the same error first."""

    @pytest.mark.parametrize("overrides", ["none", "mvart", "all-but-mvart"])
    @pytest.mark.parametrize("access,horizon", EQUIVALENCE_INTERVALS)
    @pytest.mark.parametrize("group_key", list(EQUIVALENCE_GROUPS))
    @pytest.mark.parametrize("w", [1, 6, 12])
    def test_case_grid(self, equivalence_cases, w, group_key, access, horizon, overrides):
        model, cfg, table = equivalence_cases(w, group_key)
        names = model.feature_names
        chosen = {
            "none": None,
            "mvart": {"MVART": 20.5},
            "all-but-mvart": {n: 0.5 + j for j, n in enumerate(names) if n != "MVART"},
        }[overrides]
        want = outcome(reference_forecast, model, table, cfg, access, horizon, chosen)
        got = outcome(forecast.rolling_forecast, model, table, cfg, access, horizon, chosen)
        assert_same_run(got, want)
        if overrides != "mvart" or "MVART" in names:
            assert isinstance(want, forecast.ForecastRun)

    def test_truncated_last_horizon(self, equivalence_cases):
        model, cfg, table = equivalence_cases(6, "mva-mvart-holiday")
        run = forecast.rolling_forecast(model, table, cfg)
        assert (run.anchor_ids == len(run.anchors) - 1).sum() == 17

    def test_seed_window_is_named_before_a_scored_row(self, small_model, engineering):
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=20))
        run = forecast.rolling_forecast(small_model, table, engineering)
        a = int(np.searchsorted(table.timestamps, run.anchors[3]))
        target = table.target.copy()
        target[[a - 2, a + 5]] = [np.inf, np.nan]
        holed = dataio.TimeTable(table.timestamps, table.columns, target,
                                 table.interval_seconds)
        instant = timebase.format_instant(table.timestamps[a - 2])
        with pytest.raises(DataError, match=f"'RT' at {instant}"):
            forecast.rolling_forecast(small_model, holed, engineering)
        assert outcome(reference_forecast, small_model, holed, engineering) == \
            outcome(forecast.rolling_forecast, small_model, holed, engineering)

    @pytest.mark.parametrize("access", [600, 1200])
    def test_overlapping_seed_windows_name_the_earliest_instant(
            self, small_model, engineering, access):
        """Windows overlap when anchors are closer than the window; the first
        non-finite seed named must still be the earliest in time."""
        table = dataio.synthesize(dataio.SynthConfig(seed=42, n_days=20))
        target = table.target.copy()
        target[[1000, 1003]] = [np.nan, np.inf]
        holed = dataio.TimeTable(table.timestamps, table.columns, target,
                                 table.interval_seconds)
        want = outcome(reference_forecast, small_model, holed, engineering, access, access)
        assert want[0] is DataError
        assert outcome(forecast.rolling_forecast, small_model, holed, engineering,
                       access, access) == want


class TestSweeps:
    def test_horizon_sweep_equals_manual_runs(self, small_model, synth_splits,
                                              engineering):
        rows = forecast.horizon_sweep(small_model, synth_splits[1], engineering,
                                      [3600, 14400])
        assert [r["interval_seconds"] for r in rows] == [3600, 14400]
        manual = forecast.rolling_forecast(
            small_model, synth_splits[1], engineering,
            access_interval_seconds=3600, horizon_seconds=3600,
        ).report()
        assert rows[0]["mae"] == pytest.approx(manual.mae)

    def test_horizon_sweep_needs_intervals(self, small_model, synth_splits,
                                           engineering):
        with pytest.raises(ConfigError):
            forecast.horizon_sweep(small_model, synth_splits[1], engineering, [])

    def test_window_sweep_rows(self, synth_splits, engineering):
        params = gbm.Hyperparams(max_depth=3, n_trees=8)
        rows = forecast.window_sweep(
            synth_splits[0], synth_splits[1], [0, 3600], engineering, params,
        )
        assert [r["width_seconds"] for r in rows] == [0, 3600]
        for r in rows:
            assert {"width_seconds", "mse", "mae", "mape", "r2"} <= set(r)
        assert rows[0]["mae"] != rows[1]["mae"]

    def test_window_sweep_rejects_misaligned_width(self, synth_splits, engineering):
        params = gbm.Hyperparams(max_depth=3, n_trees=5)
        with pytest.raises(ConfigError):
            forecast.window_sweep(
                synth_splits[0], synth_splits[1], [700], engineering, params,
            )


class TestGroupsForModel:
    @pytest.mark.parametrize("groups", [
        frozenset({"IOTS"}),
        frozenset({"IOTS", "Holiday"}),
        frozenset({"IOTS-MVA", "MVART", "Holiday"}),
        frozenset({"IOTS-MVA", "MVART"}),
    ])
    def test_round_trip(self, groups, synth_splits, engineering):
        X = features.build_design_matrix(synth_splits[0], engineering, groups)
        model = gbm.train(X, gbm.Hyperparams(max_depth=2, n_trees=2))
        assert forecast.groups_for_model(model) == groups

"""Rolling multi-step forecasting with periodic true-value re-anchoring.

The deployed regime: true room temperature is read back periodically (every
``access_interval``, at local midnight by default). From each such anchor the
model predicts the next ``horizon`` instants, an (anchors x steps) grid masked
past the table's end; instants past the horizon but before the next anchor are
not scored. Exogenous columns (weather, system states) are read from the table
through the grid as a given scenario. Only MVART is a recurrence, stepped for
all anchors at once: each window starts as the true RT up to its anchor and
absorbs each prediction. Whether a table can run the regime is decided by
:func:`interval_fault` alone, which the sweeps and the command line ask too.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import timebase
from .dataio import TimeTable
from .errors import ConfigError, DataError
from .features import (
    EngineeringConfig, build_design_matrix, check_finite, engineered_table, groups_for_features,
)
from .gbm import Ensemble, Hyperparams, train
from .stats import MetricReport, metrics


def interval_fault(step: int, tables: dict, access: int, horizon: int, widths=(),
                   intervals=(), warmup: dict | None = None, offset: int = 0) -> tuple | None:
    """The first rule of the rolling regime that a value (s) breaks, in
    parameter order, as (role, seconds, reason), or None. Each value is a
    multiple of ``step``; an interval or horizon covers a step; a width is not
    negative (0 drops MVART); the horizon is within ``access``; no value is
    longer than a table in ``tables`` (name -> table), those the forecast runs
    on, nor a width than one in ``warmup``, those its model trains on, whose
    MVART warm-up it must leave a row. A sweep interval is both access
    interval and horizon. The UTC ``offset`` puts the local time of each
    table in ``warmup`` and ``tables`` on a multiple of ``step``: anchors are
    the instants whose local time is a multiple of the access interval, and a
    table whose local instants are off that grid has none. Every instant of
    a table is off the grid by as much as its first."""
    for role, seconds in [("access interval", access), ("horizon", horizon),
                          *(("width", w) for w in widths), *(("interval", s) for s in intervals)]:
        spans = {**((warmup or {}) if role == "width" else {}), **tables}
        over = [f"is longer than the {_duration((len(t) - 1) * step)} {name}"
                for name, t in spans.items() if seconds > (len(t) - 1) * step]
        if seconds % step:
            reason = f"is not a multiple of the {step} s sampling interval"
        elif role == "width" and seconds < 0:
            reason = "is negative"
        elif role != "width" and seconds < step:
            reason = f"covers less than one {step} s step"
        elif role == "horizon" and seconds > access:
            reason = f"exceeds the {_duration(access)} access interval"
        elif over:
            reason = over[0]
        else:
            continue
        return role, seconds, reason
    for name, t in {**(warmup or {}), **tables}.items():
        if phase := (int(t.timestamps[0]) + offset) % step:
            return ("UTC offset", offset, f"puts the {name}'s instants {phase} s past a local "
                    f"multiple of the {step} s sampling interval")
    return None


def _duration(seconds: int) -> str:
    return f"{seconds // 60} min" if seconds % 60 == 0 else f"{seconds} s"


@dataclass(frozen=True)
class ForecastRun:
    """Scored output of one rolling forecast."""

    access_interval_seconds: int
    horizon_seconds: int
    timestamps: np.ndarray
    y_true: np.ndarray
    y_pred: np.ndarray
    anchor_ids: np.ndarray
    anchors: np.ndarray
    feature_names: tuple
    feature_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def report(self) -> MetricReport:
        return metrics(self.y_true, self.y_pred)


def rolling_forecast(
    model: Ensemble,
    table: TimeTable,
    config: EngineeringConfig,
    access_interval_seconds: int = 86400,
    horizon_seconds: int = 28800,
    input_overrides: dict | None = None,
) -> ForecastRun:
    """Predict over a table in the rolling re-anchored regime.

    Step k = 1..H gives every anchor whose k-th instant is inside the table
    its window mean as MVART and one ``predict_row``; the output is
    anchor-major, each anchor's steps in order.

    Parameters
    ----------
    model : Ensemble
    table : TimeTable
        Evaluation data; true RT is consumed only at anchors (and for
        scoring), exogenous columns are treated as known scenario inputs.
        The exogenous columns, the true RT in the MVART window of each
        anchor that seeds a prediction, and the true RT of every scored row
        must be finite (DataError names the first non-finite cell).
    config : EngineeringConfig
        Must match the training-time engineering (same window, offsets).
    access_interval_seconds : int
        Spacing of true-RT re-anchoring; anchors sit where local time is a
        multiple of this, so the default 86400 anchors at local midnight.
    horizon_seconds : int
        How far past each anchor to predict (and score).
    input_overrides : dict, optional
        Feature name -> constant: overrides the model's *input view* of those
        features at every step while the MVART recursion still propagates the
        model's own predictions (used by ``pffra.rolling_pffra``).

    Returns
    -------
    ForecastRun
    """
    step = table.interval_seconds
    fault = interval_fault(step, {"table": table}, access_interval_seconds, horizon_seconds,
                           offset=timebase.offset_seconds(config.utc_offset_hours))
    if fault:
        raise ConfigError("{} {} s {}".format(*fault))

    names = model.feature_names
    groups = groups_for_features(names)
    et = engineered_table(table, config, groups)
    static = np.column_stack([
        et.columns[n] if n != "MVART" else np.full(len(et), np.nan) for n in names
    ])
    use_mvart = "MVART" in names
    mvart_pos = names.index("MVART") if use_mvart else -1
    exogenous = [j for j, n in enumerate(names) if n != "MVART"]
    check_finite(static[:, exogenous], [names[j] for j in exogenous], table.timestamps)

    override_pos = {}
    if input_overrides:
        for key, val in input_overrides.items():
            if key not in names:
                raise ConfigError(f"override for unknown feature {key!r}")
            override_pos[names.index(key)] = float(val)

    local = table.timestamps + timebase.offset_seconds(config.utc_offset_hours)
    on_grid = local % access_interval_seconds == 0
    anchor_idx = np.flatnonzero(on_grid)
    if use_mvart:
        anchor_idx = anchor_idx[anchor_idx >= config.mva_window - 1]
    if len(anchor_idx) == 0:
        raise DataError("no usable anchor instants in the table")

    # Anchors ascend, so those whose k-th step is inside the table are a
    # prefix, and seed windows read in anchor order name the earliest bad cell.
    n_rows = len(table)
    t_idx = anchor_idx[:, None] + np.arange(1, horizon_seconds // step + 1)
    scored = t_idx < n_rows
    if not scored.any():
        raise DataError("no scored predictions: horizon never lands inside the table")
    live = scored.sum(axis=0)
    rows = static[np.minimum(t_idx, n_rows - 1)]
    for pos, val in override_pos.items():
        rows[:, :, pos] = val

    target = table.target
    recur = use_mvart and mvart_pos not in override_pos
    if recur:
        seeds = anchor_idx[:live[0], None] + np.arange(1 - config.mva_window, 1)
        window = target[seeds]
        check_finite(window.reshape(-1, 1), ["RT"], table.timestamps[seeds].ravel())
    y_pred = np.empty(t_idx.shape)
    for k, n in enumerate(live):
        if recur:
            rows[:n, k, mvart_pos] = window[:n].mean(axis=1)
        y_pred[:n, k] = [model.predict_row(row) for row in rows[:n, k]]
        if recur:
            window = np.column_stack((window[:n, 1:], y_pred[:n, k]))

    timestamps = table.timestamps[t_idx[scored]]
    y_true = target[t_idx[scored]]
    check_finite(y_true[:, None], ["RT"], timestamps)
    return ForecastRun(
        access_interval_seconds=access_interval_seconds,
        horizon_seconds=horizon_seconds,
        timestamps=timestamps,
        y_true=y_true,
        y_pred=y_pred[scored],
        anchor_ids=np.nonzero(scored)[0],
        anchors=table.timestamps[anchor_idx],
        feature_names=names,
        feature_rows=rows[scored],
    )


def horizon_sweep(
    model: Ensemble,
    table: TimeTable,
    config: EngineeringConfig,
    intervals_seconds,
) -> list:
    """Re-score one trained model at several predicting intervals.

    Each interval is used as both the access interval and the horizon, so a
    10-minute entry is one-step-ahead prediction and a 24-hour entry predicts
    a full day from each midnight anchor.

    Returns a list of dicts: interval_seconds, mse, mae, mape, r2.
    """
    intervals = list(intervals_seconds)
    if not intervals:
        raise ConfigError("no intervals to sweep")
    out = []
    for s in intervals:
        run = rolling_forecast(
            model, table, config,
            access_interval_seconds=int(s), horizon_seconds=int(s),
        )
        out.append({"interval_seconds": int(s), **run.report().as_dict()})
    return out


#: The groups of ``window_sweep``'s width-0 model, and of every other width's.
NO_WINDOW_GROUPS = frozenset({"IOTS", "Holiday"})
WINDOW_GROUPS = frozenset({"IOTS-MVA", "MVART", "Holiday"})


def window_sweep(
    train_table: TimeTable,
    val_table: TimeTable,
    widths_seconds,
    config: EngineeringConfig,
    params: Hyperparams,
    access_interval_seconds: int = 86400,
    horizon_seconds: int = 28800,
    models: dict | None = None,
) -> list:
    """Train and evaluate one model per moving-average window width.

    Width 0 drops MVART and smoothing entirely (``NO_WINDOW_GROUPS``); any
    other width uses the full pipeline (``WINDOW_GROUPS``) with that window
    for both the smoother and MVART. Models are evaluated with a rolling
    forecast on the validation table at the fixed horizon, each trained with
    ``params``. ``models`` maps ``(groups, engineering)`` to a model trained
    from them on ``train_table`` with ``params``: a width whose model is there
    trains nothing, and the sweep adds each model it trains, for reuse.

    Returns a list of dicts: width_seconds, mse, mae, mape, r2.
    """
    widths = [int(w) for w in widths_seconds]
    if not widths:
        raise ConfigError("no widths to sweep")
    step = train_table.interval_seconds
    # Every value is checked before any model trains.
    fault = interval_fault(step, {"validation table": val_table}, access_interval_seconds,
                           horizon_seconds, widths, warmup={"training table": train_table},
                           offset=timebase.offset_seconds(config.utc_offset_hours))
    if fault:
        raise ConfigError("{} {} s {}".format(*fault))
    models = {} if models is None else models
    out = []
    for w_sec in widths:
        if w_sec == 0:
            groups, cfg = NO_WINDOW_GROUPS, config
        else:
            groups, cfg = WINDOW_GROUPS, replace(config, mva_window=w_sec // step)
        if (groups, cfg) not in models:
            models[groups, cfg] = train(build_design_matrix(train_table, cfg, groups), params)
        run = rolling_forecast(
            models[groups, cfg], val_table, cfg,
            access_interval_seconds=access_interval_seconds,
            horizon_seconds=horizon_seconds,
        )
        out.append({"width_seconds": w_sec, **run.report().as_dict()})
    return out

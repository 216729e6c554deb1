"""Feature engineering: calendar/occupancy indicators, smoothing, MVART.

The pipeline turns a raw :class:`~rtcast.dataio.TimeTable` into a
:class:`FeatureMatrix` whose rows feed the regressor, in two steps:
:func:`engineered_table` adds every static column in one pass over the local
calendar, and :func:`build_design_matrix` adds MVART and stacks the columns
of the selection. Feature *groups* mirror the ablation vocabulary:

``IOTS``
    Raw state/time/outdoor features: OnOffState, OpMode, Quarter, Month,
    WeekDay, Hour, Occupancy, OutHumid, OutTemp.
``IOTS-MVA``
    Same, but with the outdoor sensor channels smoothed by a trailing moving
    average (columns OutHumidMVA / OutTempMVA).
``MVART``
    Trailing moving average of the previous room-temperature values. Here
    they are the true values; the rolling forecast feeds its own predictions
    into the same mean (see the forecast module).
``Holiday``
    Binary weekend/national-holiday indicator.

Setpoint temperature and Year are excluded from matrices unconditionally.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import timebase
from .dataio import TimeTable
from .errors import ConfigError, DataError, PipelineError, SelectionError, float_range
from .timebase import HolidayCalendar

GROUPS = ("IOTS", "IOTS-MVA", "MVART", "Holiday")

#: Column names that must never appear in a design matrix.
EXCLUDED_FEATURES = ("SetpointTemperature", "SPT", "Year")


@dataclass(frozen=True)
class EngineeringConfig:
    """Knobs of the feature-engineering pipeline."""

    mva_window: int = 6
    holiday_calendar: HolidayCalendar = field(default_factory=HolidayCalendar.default)
    utc_offset_hours: float = timebase.DEFAULT_UTC_OFFSET_HOURS
    work_start_hour: int = 8
    work_end_hour: int = 18

    def __post_init__(self):
        if self.mva_window < 1:
            raise ConfigError(f"mva_window must be >= 1, got {self.mva_window}")
        if not -24.0 <= self.utc_offset_hours <= 24.0:
            raise ConfigError(
                f"utc_offset_hours must be within -24..24, got {self.utc_offset_hours}"
            )
        if not (0 <= self.work_start_hour < self.work_end_hour <= 24):
            raise ConfigError(
                f"bad working hours {self.work_start_hour}..{self.work_end_hour}"
            )


@dataclass(frozen=True)
class FeatureMatrix:
    """Design matrix: named columns, aligned target and timestamps."""

    feature_names: tuple
    rows: np.ndarray
    target: np.ndarray
    row_timestamps: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        tgt = np.asarray(self.target, dtype=np.float64)
        ts = np.asarray(self.row_timestamps, dtype=np.int64)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "row_timestamps", ts)

        if rows.ndim != 2 or rows.shape[1] != len(self.feature_names):
            raise DataError("rows shape does not match feature_names")
        if not (len(rows) == len(tgt) == len(ts)):
            raise DataError("rows, target, and timestamps must align")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("duplicate feature names")
        banned = set(self.feature_names) & set(EXCLUDED_FEATURES)
        if banned:
            raise DataError(f"excluded features present: {sorted(banned)}")

    def __len__(self) -> int:
        return len(self.rows)

    def index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise SelectionError(f"unknown feature {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.index(name)]


def moving_average(series, window: int) -> np.ndarray:
    """Trailing (causal) moving average with partial-window warm-up.

    The value at index ``i`` is the mean of the last ``window`` samples ending
    at ``i``; while fewer than ``window`` samples exist, the mean is over the
    ``i + 1`` available ones. Output length equals input length.

    Parameters
    ----------
    series : array-like of float
    window : int
        Number of samples, >= 1.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise DataError("series must be one-dimensional and non-empty")
    c = np.cumsum(x)
    out = np.empty_like(x)
    head = min(window - 1, len(x))
    out[:head] = c[:head] / np.arange(1, head + 1)
    if len(x) >= window:
        full = c[window - 1 :].copy()
        full[1:] -= c[: len(x) - window]
        out[window - 1 :] = full / window
    return out


def feature_order(feature_selection) -> tuple:
    """Canonical column order of the design matrix for a group selection."""
    groups = _check_groups(feature_selection)
    smoothed = "IOTS-MVA" in groups
    names = ["OnOffState", "OpMode", "Quarter", "Month", "WeekDay", "Hour", "Occupancy"]
    if "Holiday" in groups:
        names.append("Holiday")
    names.append("OutHumidMVA" if smoothed else "OutHumid")
    names.append("OutTempMVA" if smoothed else "OutTemp")
    if "MVART" in groups:
        names.append("MVART")
    return tuple(names)


def groups_for_features(feature_names) -> frozenset:
    """The feature-group selection whose ``feature_order`` is a model's
    ``feature_names``; DataError if no selection's is."""
    names = set(feature_names)
    groups = {"IOTS-MVA" if "OutTempMVA" in names else "IOTS"}
    if "MVART" in names:
        groups.add("MVART")
    if "Holiday" in names:
        groups.add("Holiday")
    if feature_order(groups) != tuple(feature_names):
        raise DataError(f"model feature_names {reprlib.repr(list(feature_names))} "
                        "are not the design-matrix columns of any feature-group selection")
    return frozenset(groups)


def _check_groups(feature_selection) -> frozenset:
    groups = frozenset(feature_selection)
    unknown = groups - set(GROUPS)
    if unknown:
        raise SelectionError(
            f"unknown feature group(s) {sorted(unknown)}; known: {list(GROUPS)}"
        )
    if "IOTS" in groups and "IOTS-MVA" in groups:
        raise SelectionError("IOTS and IOTS-MVA are mutually exclusive")
    if "IOTS" not in groups and "IOTS-MVA" not in groups:
        raise SelectionError("selection needs one of IOTS or IOTS-MVA")
    return groups


def engineered_table(
    table: TimeTable, config: EngineeringConfig, feature_selection
) -> TimeTable:
    """Table with every static engineered column the selection needs.

    Everything except MVART, from one read of the local calendar: Quarter,
    Month, WeekDay (Monday=1) and Hour; Holiday (weekends and listed dates);
    Occupancy (system on, not a holiday, within working hours); and, for
    IOTS-MVA, the smoothed outdoor channels OutHumidMVA and OutTempMVA.
    Holiday is always computed, since occupancy depends on it, but it is a
    model feature only when the ``Holiday`` group is selected. A moving
    average that overflows raises NumericError naming its raw column.
    """
    groups = _check_groups(feature_selection)
    cols = table.columns
    for dep in ("OnOffState", "OpMode", "OutTemp", "OutHumid"):
        if dep not in cols:
            raise PipelineError(f"input table is missing column {dep!r}")

    f = timebase.local_fields(table.timestamps, config.utc_offset_hours)
    holiday = config.holiday_calendar.mask(f["day"])
    hour = f["hour"]
    new = {name: f[name.lower()] for name in ("Quarter", "Month", "WeekDay", "Hour")}
    new["Holiday"] = holiday
    new["Occupancy"] = (
        (cols["OnOffState"] == 1.0)
        & ~holiday
        & (hour >= config.work_start_hour)
        & (hour < config.work_end_hour)
    )
    if "IOTS-MVA" in groups:
        for name in ("OutHumid", "OutTemp"):
            with float_range(f"moving average of {name!r}"):
                new[name + "MVA"] = moving_average(cols[name], config.mva_window)
    return TimeTable(table.timestamps, {**cols, **new}, table.target, table.interval_seconds)


def check_finite(rows, names, timestamps=None) -> None:
    """Raise DataError naming the column and row of the first non-finite cell.

    The row is named by its instant when ``timestamps`` are given, else by
    its index.
    """
    bad = ~np.isfinite(rows)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        where = f"row {i}" if timestamps is None else timebase.format_instant(timestamps[i])
        raise DataError(f"non-finite value in column {names[j]!r} at {where}")


def training_means(X: FeatureMatrix) -> dict:
    """Per-column means, the values the mean-substitution explainers use.

    A mean that is not finite (finite cells can overflow) raises DataError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = {n: float(X.column(n).mean()) for n in X.feature_names}
    for name, mean in means.items():
        if not np.isfinite(mean):
            raise DataError(f"training mean of column {name!r} is not finite")
    return means


def build_design_matrix(
    table: TimeTable,
    config: EngineeringConfig,
    feature_selection,
) -> FeatureMatrix:
    """Assemble the model's design matrix for a feature-group selection.

    The columns are those of :func:`engineered_table` plus, for the MVART
    group, MVART: the mean of the previous ``mva_window`` true RT values,
    never the row's own. The rolling forecast computes the same mean over its
    own predictions. The first ``mva_window`` rows have no full window and
    are dropped. Each row's target is the RT at the row's own timestamp;
    multi-step forecasts come from applying the model recursively (see the
    forecast module). A NaN in a kept row is a data gap and raises.
    """
    names = feature_order(feature_selection)
    work = engineered_table(table, config, feature_selection)
    n = len(work)
    start = config.mva_window if "MVART" in names else 0
    if start >= n:
        raise DataError(f"table too short: {n} rows, {start} needed for MVART warm-up")
    cols = [work.columns[name][start:] for name in names if name != "MVART"]
    if "MVART" in names:
        windows = np.lib.stride_tricks.sliding_window_view(work.target, start)
        cols.append(windows[: n - start].mean(axis=1))
    rows = np.column_stack(cols)
    target = work.target[start:]
    ts = work.timestamps[start:]

    check_finite(rows, names, ts)
    if not np.isfinite(target).all():
        i = int(np.flatnonzero(~np.isfinite(target))[0])
        raise DataError(f"missing target value at {timebase.format_instant(ts[i])}")
    return FeatureMatrix(names, rows, target, ts)

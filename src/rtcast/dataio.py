"""Ingest, synthesize, write and chronologically split sensor tables.

The central type is :class:`TimeTable`: a uniformly sampled, timestamp-indexed
table of named numeric columns plus the room-temperature target. Tables are
immutable; every operation returns a new one.

Every CSV the package writes is rendered by :func:`csv_lines`, a column at a
time: ``write_csv`` writes tables with lines ending in ``\\r\\n``, and the
CLI's artifact writer passes its columns with ``\\n``. Floats are written in
shortest round-trip form, so ``ingest_csv`` reads back the same bits.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from . import timebase
from .errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ParseError,
    SchemaError,
    SplitError,
    float_range,
)
from .timebase import HolidayCalendar

#: Canonical name of the target column in CSV files.
TARGET_COLUMN = "RT"
TIMESTAMP_COLUMN = "timestamp"

# AR(1) coefficients of the synthetic generator. The target's coefficient is
# close to 1 so the series keeps the near-random-walk behaviour of slowly
# drifting room temperature.
_RT_AR = 0.995
_OUT_AR = 0.97
_OUT_INNOV_SD = 0.8
_HUMID_NOISE_SD = 4.0
_ONOFF_FLIP_RATE = 0.02

SYNTH_START = timebase.parse_instant("2017-12-08T00:00:00Z")


@dataclass(frozen=True)
class TimeTable:
    """Uniformly sampled table: timestamps, feature columns, target series.

    Parameters
    ----------
    timestamps : ndarray of int64
        UTC epoch seconds, strictly increasing with constant spacing.
    columns : dict of str -> ndarray of float64
        Feature columns, each the same length as ``timestamps``.
    target : ndarray of float64
        Room temperature at each instant.
    interval_seconds : int
        The constant spacing of ``timestamps``.
    """

    timestamps: np.ndarray
    columns: dict
    target: np.ndarray
    interval_seconds: int

    def __post_init__(self):
        ts = np.ascontiguousarray(np.asarray(self.timestamps, dtype=np.int64))
        tgt = np.ascontiguousarray(np.asarray(self.target, dtype=np.float64))
        cols = {
            name: np.ascontiguousarray(np.asarray(vals, dtype=np.float64))
            for name, vals in self.columns.items()
        }
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "columns", cols)

        if ts.ndim != 1 or len(ts) == 0:
            raise DataError("a table needs at least one row")
        if self.interval_seconds <= 0:
            raise DataError(f"bad sampling interval {self.interval_seconds}")
        if len(ts) > 1:
            diffs = np.diff(ts)
            if not np.all(diffs == self.interval_seconds):
                bad = int(np.flatnonzero(diffs != self.interval_seconds)[0])
                raise IntegrityError(
                    "non-uniform sampling between "
                    f"{timebase.format_instant(ts[bad])} and "
                    f"{timebase.format_instant(ts[bad + 1])}"
                )
        if len(tgt) != len(ts):
            raise DataError("target length does not match timestamps")
        for name, vals in cols.items():
            if len(vals) != len(ts):
                raise DataError(f"column {name!r} length does not match timestamps")

    def __len__(self) -> int:
        return len(self.timestamps)

    def row_slice(self, start: int, stop: int) -> "TimeTable":
        """Contiguous row range as a new table."""
        return TimeTable(
            timestamps=self.timestamps[start:stop],
            columns={k: v[start:stop] for k, v in self.columns.items()},
            target=self.target[start:stop],
            interval_seconds=self.interval_seconds,
        )

    def with_column(self, name: str, values: np.ndarray) -> "TimeTable":
        """Copy of the table with ``name`` added or replaced."""
        cols = dict(self.columns)
        cols[name] = np.asarray(values, dtype=np.float64)
        return TimeTable(self.timestamps, cols, self.target, self.interval_seconds)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split boundaries; every boundary day is inclusive on the
    earlier side (the rows of ``train_end`` itself belong to train, etc.)."""

    data_start: date
    train_end: date
    val_end: date
    data_cutoff: date

    def __post_init__(self):
        order = (self.data_start, self.train_end, self.val_end, self.data_cutoff)
        if not (order[0] < order[1] < order[2] < order[3]):
            raise SplitError(
                "split dates must be strictly increasing "
                f"(got {', '.join(d.isoformat() for d in order)})"
            )


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic building-sensor generator."""

    seed: int = 42
    n_days: int = 365
    rt_base: float = 26.0
    seasonal_amp: float = 8.0
    daily_amp: float = 2.5
    holiday_shift: float = 1.0
    noise_sd: float = 0.25
    quantization: float = 0.5

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_days < 1:
            raise ConfigError(f"n_days must be >= 1, got {self.n_days}")
        if self.quantization <= 0:
            raise ConfigError(f"quantization step must be > 0, got {self.quantization}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")


#: The schema of a CSV read without one.
_DEFAULT_SCHEMA = {TIMESTAMP_COLUMN: "timestamp", TARGET_COLUMN: "target"}


def _resolve_roles(header: list, schema: dict | None) -> dict:
    """Map header columns to roles; raise SchemaError on missing requirements.
    Columns a schema leaves out are ignored; without a schema they are features."""
    unlisted = "feature" if schema is None else "ignore"
    roles = {}
    for name, role in (_DEFAULT_SCHEMA if schema is None else schema).items():
        if role not in ("timestamp", "target", "feature", "ignore"):
            raise ConfigError(f"unknown role {role!r} for column {name!r}")
        if role != "ignore" and name not in header:
            raise SchemaError(f"missing required column {name!r}")
        roles[name] = role
    for name in header:
        roles.setdefault(name, unlisted)
    for required in ("timestamp", "target"):
        found = [n for n, r in roles.items() if r == required]
        if len(found) != 1:
            raise SchemaError(
                f"schema must declare exactly one {required} column, found {found}"
            )
    return roles


def ingest_csv(source, schema: dict | None = None) -> TimeTable:
    """Read a CSV file (path or text stream) into a validated TimeTable.

    Parameters
    ----------
    source : str, Path, or text file object
        CSV with a header row. The timestamp column must parse as ISO-8601;
        every other declared column must be numeric (empty cells become NaN
        and are rejected later, by the feature builder).
    schema : dict, optional
        Column-name -> role map with roles ``timestamp``, ``target``,
        ``feature``, ``ignore``. Default: column ``timestamp`` is the
        timestamp, ``RT`` the target, everything else a feature.

    Raises
    ------
    SchemaError, ParseError, IntegrityError, DataError
    """
    if hasattr(source, "read"):
        return _ingest_stream(source, schema)
    try:
        with open(source, newline="", encoding="utf-8") as fh:
            return _ingest_stream(fh, schema)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not UTF-8 text ({exc.reason})") from None


def _ingest_stream(fh, schema) -> TimeTable:
    lines = fh.readlines()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file: no header row") from None
    except csv.Error as exc:
        raise ParseError(f"header row: {exc}") from None
    header = [h.strip() for h in header]
    roles = _resolve_roles(header, schema)

    ts_idx = next(i for i, n in enumerate(header) if roles[n] == "timestamp")
    numeric_idx = [
        (i, n) for i, n in enumerate(header) if roles[n] in ("target", "feature")
    ]

    parsed = _parse_fixed_form(
        lines[reader.line_num:], len(header), ts_idx, [i for i, _ in numeric_idx]
    )
    ts, data = parsed or _parse_rows(reader, header, ts_idx, numeric_idx)
    if len(ts) == 0:
        raise DataError("no data rows")
    if len(ts) < 2:
        raise DataError("need at least two rows to establish the sampling interval")

    order = np.argsort(ts, kind="stable")
    ts, data = ts[order], data[order]

    dup = np.flatnonzero(np.diff(ts) == 0)
    if dup.size:
        raise IntegrityError(
            f"duplicate timestamp {timebase.format_instant(ts[dup[0]])}"
        )
    interval = int(ts[1] - ts[0])

    columns, target = {}, None
    for j, (_, name) in enumerate(numeric_idx):
        if roles[name] == "target":
            target = data[:, j]
        else:
            columns[name] = data[:, j]
    return TimeTable(ts, columns, target, interval)


#: The writer's timestamp form: ``d`` is an ASCII digit, every other
#: character stands for itself.
_STAMP_FORM = np.frombuffer(b"dddd-dd-ddTdd:dd:ddZ", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_FORM == ord("d")


def _parse_fixed_form(lines, n_cells, ts_idx, numeric_cols):
    """Epoch seconds and numeric cells of CSV data lines in the writer's
    fixed form, each parsed in one pass by numpy; None for any other form.

    On the fixed form numpy's C parser accepts, and converts to the same
    bits, exactly what ``_parse_rows`` does:

    - the text is ASCII with no quote character, NUL or ``_``;
    - every line is one record ending in its only ``\n`` (or ``\r\n``),
      with exactly ``n_cells`` cells, so no blank line is skipped;
    - every timestamp is ``YYYY-MM-DDTHH:MM:SSZ``, a real instant of a year
      other than 0000 (numpy reads year 0, ``datetime`` does not);
    - no numeric cell is empty or blank (numpy refuses those, and every
      cell that ``float`` refuses).

    A refusal of any kind leaves every decision, and its message, to
    ``_parse_rows``.
    """
    text = "".join(lines)
    if (
        not lines
        or not text.isascii()
        or any(c in text for c in '"\0_')
        or text.count("\r") != text.count("\r\n")
        or text.count("\n") != len(lines) - (not text.endswith("\n"))
    ):
        return None
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    del text
    # Line i spans (ends[i - 1], ends[i]); with n_cells - 1 commas in all,
    # each line has its share when its first and last comma fall inside it.
    ends = np.flatnonzero(chars == ord("\n"))
    if len(ends) < len(lines):
        ends = np.append(ends, len(chars))
    commas = np.flatnonzero(chars == ord(","))
    if len(commas) != len(lines) * (n_cells - 1):
        return None
    commas = commas.reshape(len(lines), n_cells - 1)
    starts = np.append(0, ends[:-1] + 1)
    if np.any(commas[:, 0] < starts) or np.any(commas[:, -1] > ends):
        return None
    start = commas[:, ts_idx - 1] + 1 if ts_idx else starts
    stop = commas[:, ts_idx] if ts_idx < n_cells - 1 else ends
    if np.any(stop - start != _STAMP_FORM.size):
        return None
    stamps = chars[start[:, None] + np.arange(_STAMP_FORM.size)]
    if (
        np.any(stamps[:, _STAMP_DIGITS] - ord("0") > 9)  # unsigned: below "0" wraps
        or np.any(stamps[:, ~_STAMP_DIGITS] != _STAMP_FORM[~_STAMP_DIGITS])
        or np.any(np.all(stamps[:, :4] == ord("0"), axis=1))
    ):
        return None
    try:
        # The stamps without their "Z", which numpy would warn that it drops.
        ts = (stamps[:, :-1].astype(np.uint32).view(f"U{_STAMP_FORM.size - 1}")
              .ravel().astype("datetime64[s]").astype(np.int64))
        data = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                          usecols=numeric_cols, ndmin=2)
    except ValueError:  # numpy refuses a cell: the per-row loop names it
        return None
    return ts, data


def _parse_rows(reader, header, ts_idx, numeric_idx):
    """Epoch seconds and numeric cells of the remaining CSV rows, one row at
    a time; raises ParseError naming the first bad row."""
    stamps, rows = [], []
    rownum = 0
    try:
        for rownum, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {rownum}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                stamps.append(timebase.parse_instant(row[ts_idx]))
            except ParseError as exc:
                raise ParseError(f"row {rownum}: {exc}") from None
            # float() also reads PEP 515 underscores, non-ASCII digits and
            # non-ASCII spaces ("1_5", "１５"); a CSV number is plain ASCII. Rows
            # are checked whole, and the cells of a row that fails one by one.
            text = "".join(row)
            plain = text.isascii() and "_" not in text
            vals = []
            for i, name in numeric_idx:
                cell = row[i].strip() if plain or row[i].isascii() else row[i]
                if cell == "":
                    vals.append(math.nan)
                    continue
                try:
                    if not plain and ("_" in cell or not cell.isascii()):
                        raise ValueError(cell)
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"row {rownum}: non-numeric value {cell!r} in column {name!r}"
                    ) from None
            rows.append(vals)
    except csv.Error as exc:  # e.g. a stray quote that runs on past the field size limit
        raise ParseError(f"row {rownum + 1}: {exc}") from None
    return np.array(stamps, dtype=np.int64), np.array(rows, dtype=np.float64)


#: Rows that ``csv_lines`` renders and joins at a time.
CSV_CHUNK_ROWS = 4096

#: The characters that can make ``csv.writer`` quote a cell.
_CSV_SPECIAL = ',"\r\n'


def csv_lines(header, columns, lineterminator: str = "\r\n"):
    """Yield the CSV text of a header and its columns, the header's line
    first, then the rows ``CSV_CHUNK_ROWS`` at a time; the text equals what
    ``csv.writer`` writes with the same line end.

    Each column becomes strings once, by its kind: a float array by
    ``repr`` (shortest round-trip form, ``nan`` and ``inf`` as written), an
    int array by ``str``, a ``datetime64`` array by
    ``timebase.format_instants``. Any other sequence goes cell by cell: None
    is a blank cell, a float (numpy's too) is written by ``repr`` and other
    values by ``str``. The header and string cells keep ``csv.writer``'s
    quoting, which depends on the line end.
    """
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(col) != n for col in columns):
        raise ValueError(f"{len(header)} CSV column names for columns of lengths "
                         f"{[len(col) for col in columns]}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(header)
    yield buf.getvalue()

    def text(value):
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, str) and any(c in value for c in _CSV_SPECIAL):
            buf.seek(0)
            buf.truncate()
            writer.writerow([value])
            return buf.getvalue()[:-len(lineterminator)]
        return str(value)

    def texts(values):
        kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
        if kind == "f":
            return map(repr, values.tolist())
        if kind in "iu":
            return map(str, values.tolist())
        if kind == "M":
            return timebase.format_instants(values.astype("datetime64[s]"))
        return map(text, values)

    for start in range(0, n, CSV_CHUNK_ROWS):
        cells = [texts(col[start:start + CSV_CHUNK_ROWS]) for col in columns]
        if len(cells) == 1:  # csv.writer quotes a row's lone blank cell
            rows = [c or '""' for c in cells[0]]
        else:
            rows = map(",".join, zip(*cells))
        yield lineterminator.join(rows) + lineterminator


def write_csv(table: TimeTable, dest) -> None:
    """Write a table back to CSV (timestamp, features, target), each line
    ending in ``\\r\\n``."""
    close = False
    if not hasattr(dest, "write"):
        dest = open(dest, "w", newline="", encoding="utf-8")
        close = True
    try:
        names = list(table.columns)
        columns = [table.timestamps.astype("datetime64[s]"),
                   *(table.columns[n] for n in names), table.target]
        dest.writelines(csv_lines([TIMESTAMP_COLUMN, *names, TARGET_COLUMN], columns))
    finally:
        if close:
            dest.close()


def split(
    table: TimeTable,
    spec: SplitSpec,
    utc_offset_hours: float = timebase.DEFAULT_UTC_OFFSET_HOURS,
) -> tuple:
    """Partition a table chronologically into (train, validation, test).

    Rows are assigned by their *local* calendar date. A boundary date belongs
    to the earlier partition; rows before ``data_start`` or after
    ``data_cutoff`` are dropped.
    """
    day = timebase.local_fields(table.timestamps, utc_offset_hours)["day"]
    edges = [
        timebase.day_number(spec.data_start),
        timebase.day_number(spec.train_end),
        timebase.day_number(spec.val_end),
        timebase.day_number(spec.data_cutoff),
    ]
    i0 = int(np.searchsorted(day, edges[0], side="left"))
    i1 = int(np.searchsorted(day, edges[1], side="right"))
    i2 = int(np.searchsorted(day, edges[2], side="right"))
    i3 = int(np.searchsorted(day, edges[3], side="right"))

    parts = []
    for name, lo, hi in (("train", i0, i1), ("validation", i1, i2), ("test", i2, i3)):
        if hi <= lo:
            raise SplitError(f"{name} partition is empty for the given dates")
        parts.append(table.row_slice(lo, hi))
    return tuple(parts)


def _ar1(innovations: np.ndarray, coeff: float) -> np.ndarray:
    out = np.empty_like(innovations)
    prev = 0.0
    for i, e in enumerate(innovations):
        prev = coeff * prev + e
        out[i] = prev
    return out


@float_range("synthetic generator arithmetic")
def synthesize(config: SynthConfig) -> TimeTable:
    """Generate a deterministic synthetic building-sensor table.

    Room temperature is a yearly sinusoid plus a daily sinusoid, shifted on
    holidays, plus AR(1) noise, quantized to the configured step. Exogenous
    columns (``OutTemp``, ``OutHumid``, ``OnOffState``, ``OpMode``) share the
    seasonal and diurnal drivers, so they correlate with the target without
    feeding into it directly; outdoor humidity is negatively coupled to
    outdoor temperature.
    """
    n = config.n_days * 86400 // timebase.SAMPLE_INTERVAL_SECONDS
    ts = SYNTH_START + np.arange(n, dtype=np.int64) * timebase.SAMPLE_INTERVAL_SECONDS
    rng = np.random.default_rng(config.seed)

    fields = timebase.local_fields(ts)
    local = (ts + timebase.offset_seconds(timebase.DEFAULT_UTC_OFFSET_HOURS)).astype(
        "datetime64[s]"
    )
    year_start = local.astype("datetime64[Y]").astype("datetime64[s]")
    doy = (local - year_start).astype(np.int64) / 86400.0
    hour_frac = fields["second_of_day"] / 3600.0

    yearly = np.cos(2 * np.pi * (doy - 197.0) / 365.25)
    daily_rt = np.cos(2 * np.pi * (hour_frac - 14.5) / 24.0)
    daily_out = np.cos(2 * np.pi * (hour_frac - 14.0) / 24.0)

    calendar = HolidayCalendar.default()
    holiday = calendar.mask(fields["day"])

    rt_noise = _ar1(rng.standard_normal(n) * config.noise_sd, _RT_AR)
    out_noise = _ar1(rng.standard_normal(n) * _OUT_INNOV_SD, _OUT_AR)
    humid_noise = rng.standard_normal(n) * _HUMID_NOISE_SD
    flips = rng.random(n) < _ONOFF_FLIP_RATE

    rt = (
        config.rt_base
        + config.seasonal_amp * yearly
        + config.daily_amp * daily_rt
        - config.holiday_shift * holiday
        + rt_noise
    )
    rt = np.round(rt / config.quantization) * config.quantization

    out_temp = 18.0 + 10.0 * yearly + 4.0 * daily_out + out_noise
    out_humid = np.clip(60.0 - 1.8 * (out_temp - 18.0) + humid_noise, 5.0, 100.0)

    working = (fields["hour"] >= 7) & (fields["hour"] < 19) & ~holiday
    onoff = (working ^ flips).astype(np.float64)

    # Operation mode follows the day's mean outdoor temperature:
    # heating below 14 degrees, cooling above 23, ventilation between.
    day_idx = fields["day"] - fields["day"][0]
    sums = np.bincount(day_idx, weights=out_temp)
    counts = np.bincount(day_idx)
    day_mean = (sums / counts)[day_idx]
    opmode = np.where(day_mean < 14.0, 1.0, np.where(day_mean > 23.0, 2.0, 0.0))

    columns = {
        "OnOffState": onoff,
        "OpMode": opmode,
        "OutTemp": out_temp,
        "OutHumid": out_humid,
    }
    return TimeTable(ts, columns, rt, timebase.SAMPLE_INTERVAL_SECONDS)

"""Instants, local calendar fields, and the holiday calendar.

Timestamps are UTC epoch seconds throughout the package. Local-time semantics
(hour of day, weekday, calendar date) are derived with a fixed UTC offset;
there is deliberately no DST handling, so "local" time is a constant shift.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timezone
from importlib import resources

import numpy as np

from .errors import ParseError

#: Default sampling interval of the sensor grid (10 minutes).
SAMPLE_INTERVAL_SECONDS = 600

#: Fixed offset used for local-time logic unless overridden (UTC+2).
DEFAULT_UTC_OFFSET_HOURS = 2.0

_EPOCH_DATE = date(1970, 1, 1)


def parse_instant(text: str) -> int:
    """Parse an ISO-8601 timestamp (or bare date) to UTC epoch seconds.

    Accepts a trailing ``Z``, an explicit numeric offset, or a naive value
    (interpreted as UTC). A bare date means midnight UTC of that day.
    """
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError as exc:
        raise ParseError(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_instants(epoch_seconds) -> list:
    """Render an array of epoch seconds as compact UTC ISO-8601 strings
    (``YYYY-MM-DDTHH:MM:SSZ``), in one conversion."""
    stamps = np.asarray(epoch_seconds, dtype=np.int64).ravel().astype("datetime64[s]")
    return [s + "Z" for s in np.datetime_as_string(stamps, unit="s").tolist()]


def format_instant(epoch_seconds: int) -> str:
    """Render epoch seconds as a compact UTC ISO-8601 string."""
    return format_instants(epoch_seconds)[0]


def parse_day(text: str) -> date:
    """Parse a calendar date like ``2019-06-30``."""
    try:
        return date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"unparseable date {text!r}") from exc


def day_number(d: date) -> int:
    """Days since 1970-01-01 for a calendar date."""
    return (d - _EPOCH_DATE).days


def offset_seconds(utc_offset_hours: float) -> int:
    return int(round(utc_offset_hours * 3600))


def weekday(day_numbers):
    """Weekday (Monday=1 .. Sunday=7) of days since 1970-01-01, which was a Thursday."""
    return (day_numbers + 3) % 7 + 1


def local_fields(
    timestamps: np.ndarray, utc_offset_hours: float = DEFAULT_UTC_OFFSET_HOURS
) -> dict[str, np.ndarray]:
    """Per-row local calendar fields for an array of epoch-second timestamps.

    Returns a dict of int64 arrays:

    ``year``, ``quarter`` (1-4), ``month`` (1-12), ``weekday`` (Monday=1 ..
    Sunday=7), ``hour`` (0-23), ``day`` (local days since 1970-01-01, useful
    for date comparisons) and ``second_of_day``.
    """
    ts = np.asarray(timestamps, dtype=np.int64)
    local = (ts + offset_seconds(utc_offset_hours)).astype("datetime64[s]")
    days = local.astype("datetime64[D]")
    years = local.astype("datetime64[Y]")
    months = local.astype("datetime64[M]")

    day_idx = days.astype(np.int64)
    month = (months - years).astype(np.int64) + 1
    second_of_day = (local - days).astype(np.int64)
    return {
        "year": years.astype(np.int64) + 1970,
        "quarter": (month - 1) // 3 + 1,
        "month": month,
        "weekday": weekday(day_idx),
        "hour": second_of_day // 3600,
        "day": day_idx,
        "second_of_day": second_of_day,
    }


@dataclass(frozen=True)
class HolidayCalendar:
    """Set of non-working days: listed dates plus (optionally) weekends."""

    dates: frozenset
    include_weekends: bool = True

    def mask(self, day_numbers: np.ndarray) -> np.ndarray:
        """Boolean holiday mask for an int array of days since 1970-01-01."""
        days = np.asarray(day_numbers, dtype=np.int64)
        out = np.zeros(days.shape, dtype=bool)
        if self.include_weekends:
            out |= weekday(days) >= 6
        if self.dates:
            listed = np.array(sorted(day_number(d) for d in self.dates))
            out |= np.isin(days, listed)
        return out

    @classmethod
    def from_file(cls, path, include_weekends: bool = True) -> "HolidayCalendar":
        """Load one ISO date per line; ``#`` starts a comment."""
        dates = set()
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    dates.add(date.fromisoformat(line))
                except ValueError as exc:
                    raise ParseError(
                        f"{path}: line {lineno}: unparseable date {line!r}"
                    ) from exc
        return cls(dates=frozenset(dates), include_weekends=include_weekends)

    @classmethod
    def default(cls) -> "HolidayCalendar":
        """Packaged Greek national holidays (2017-2020) plus weekends."""
        ref = resources.files("rtcast").joinpath("data/holidays_gr.txt")
        with resources.as_file(ref) as path:
            return cls.from_file(path)

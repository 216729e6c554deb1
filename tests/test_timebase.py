"""Timestamp parsing, local calendar fields, and the holiday calendar."""
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from rtcast import timebase
from rtcast.errors import DataError, ParseError


def test_parse_instant_accepts_common_forms():
    want = 1577836800  # 2020-01-01T00:00:00Z
    assert timebase.parse_instant("2020-01-01T00:00:00Z") == want
    assert timebase.parse_instant("2020-01-01T00:00:00+00:00") == want
    assert timebase.parse_instant("2020-01-01T02:00:00+02:00") == want
    assert timebase.parse_instant("2020-01-01 00:00:00") == want  # naive = UTC
    assert timebase.parse_instant("2020-01-01") == want


def test_parse_format_round_trip():
    for text in ("2017-12-08T00:10:00Z", "2019-06-30T23:50:00Z"):
        assert timebase.format_instant(timebase.parse_instant(text)) == text


def test_parse_instant_rejects_garbage():
    with pytest.raises(ParseError):
        timebase.parse_instant("not-a-time")


def test_local_fields_match_datetime_oracle():
    rng = np.random.default_rng(7)
    ts = rng.integers(1_400_000_000, 1_700_000_000, size=200)
    fields = timebase.local_fields(ts, utc_offset_hours=2.0)
    for i, t in enumerate(ts):
        local = datetime.fromtimestamp(int(t), tz=timezone.utc) + timedelta(hours=2)
        assert fields["year"][i] == local.year
        assert fields["month"][i] == local.month
        assert fields["quarter"][i] == (local.month - 1) // 3 + 1
        assert fields["weekday"][i] == local.isoweekday()  # Monday = 1
        assert fields["hour"][i] == local.hour
        assert fields["second_of_day"][i] == (
            local.hour * 3600 + local.minute * 60 + local.second
        )


def test_local_day_changes_at_local_midnight():
    # 22:00 UTC = midnight UTC+2: the local day must advance there.
    before = timebase.parse_instant("2020-03-09T21:50:00Z")
    after = timebase.parse_instant("2020-03-09T22:00:00Z")
    days = timebase.local_fields(np.array([before, after]), 2.0)["day"]
    assert days[1] == days[0] + 1


def on_holiday(cal, day):
    """The calendar's mask at one ISO day."""
    return bool(cal.mask(timebase.day_number(timebase.parse_day(day))))


def test_holiday_calendar_weekends_and_listed_dates():
    cal = timebase.HolidayCalendar(
        dates=frozenset({timebase.parse_day("2020-03-25")}), include_weekends=True
    )
    assert on_holiday(cal, "2020-03-25")  # listed (a Wednesday)
    assert on_holiday(cal, "2020-03-28")  # Saturday
    assert on_holiday(cal, "2020-03-29")  # Sunday
    assert not on_holiday(cal, "2020-03-30")  # plain Monday

    days = np.array([timebase.day_number(timebase.parse_day(d)) for d in
                     ("2020-03-25", "2020-03-26", "2020-03-28", "2020-03-30")])
    assert cal.mask(days).tolist() == [True, False, True, False]


def test_holiday_calendar_without_weekend_rule():
    cal = timebase.HolidayCalendar(dates=frozenset(), include_weekends=False)
    assert not on_holiday(cal, "2020-03-28")


def test_holiday_calendar_from_file(tmp_path):
    p = tmp_path / "days.txt"
    p.write_text("# fixture\n2020-01-06\n\n2020-05-01\n")
    cal = timebase.HolidayCalendar.from_file(str(p))
    assert on_holiday(cal, "2020-01-06")
    assert on_holiday(cal, "2020-05-01")
    assert not on_holiday(cal, "2020-01-07")


def test_default_calendar_covers_fixed_national_days():
    cal = timebase.HolidayCalendar.default()
    for day in ("2018-01-01", "2018-03-25", "2018-12-25", "2019-08-15"):
        assert on_holiday(cal, day), day
    # movable feast: Orthodox Easter Monday 2018 fell on April 9
    assert on_holiday(cal, "2018-04-09")


def test_from_file_rejects_bad_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2020-13-45\n")
    with pytest.raises(DataError):
        timebase.HolidayCalendar.from_file(str(p))

"""Config resolution: each key of a config file lands on exactly one field,
unset keys take the library defaults, and malformed values exit 2."""
import re
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtcast import cli, timebase
from rtcast.dataio import SplitSpec, SynthConfig
from rtcast.errors import ConfigError, DataError
from rtcast.features import EngineeringConfig
from rtcast.gbm import HyperparamGrid, Hyperparams

#: Every key set to a valid value that differs from its default.
EVERY_KEY = """\
data.source = csv
data.csv = readings.csv
data.schema = roles.txt
synth.seed = 7
synth.days = 40
synth.rt_base = 24.5
synth.seasonal_amp = 6.0
synth.daily_amp = 1.5
synth.holiday_shift = 0.5
synth.noise_sd = 0.1
synth.quantization = 0.25
split.data_start = 2024-01-01
split.train_end = 2024-06-01
split.val_end = 2024-09-01
split.data_cutoff = 2024-12-31
features.groups = IOTS+Holiday
features.mva_window = 12
features.utc_offset_hours = 3.5
features.work_start = 7
features.work_end = 19
features.holiday_file = {holidays}
features.weekends_are_holidays = false
model.max_depth = 4
model.n_trees = 30
model.gamma = 0.5
model.lambda = 2.0
model.learning_rate = 0.1
grid.max_depth = 3,5
grid.n_trees = 10,20
grid.gamma = 0.0,1.0
grid.lambda = 0.5,2.0
grid.learning_rate = 0.1,0.2
forecast.access_minutes = 720
forecast.horizon_minutes = 240
ablate.combos = IOTS;IOTS-MVA+MVART
ablate.window_widths_minutes = 0,120
ablate.intervals_minutes = 10,120
explain.lambda = 0.5
explain.tree_depth = 4
explain.lime_samples = 200
diagnose.max_lag = 12
diagnose.bin_width = 0.5
"""


def resolve(tmp_path, text, *argv):
    """Resolve a config file through the CLI parser, ``train`` by default."""
    path = tmp_path / "run.ini"
    path.write_text(text)
    args = cli._build_parser().parse_args(
        ["--config", str(path), "--out", str(tmp_path / "out"), *(argv or ("train",))]
    )
    return cli._build_config(args)


@pytest.fixture
def every_key(tmp_path):
    holidays = tmp_path / "holidays.txt"
    holidays.write_text("2024-05-01\n2024-12-25\n")
    return EVERY_KEY.format(holidays=holidays)


def test_every_key_lands_on_its_field(tmp_path, every_key):
    cfg = resolve(tmp_path, every_key)
    assert (cfg.source, cfg.csv_path, cfg.schema_path) == ("csv", "readings.csv", "roles.txt")
    assert cfg.seed == 7
    assert cfg.synth == SynthConfig(
        seed=7, n_days=40, rt_base=24.5, seasonal_amp=6.0, daily_amp=1.5,
        holiday_shift=0.5, noise_sd=0.1, quantization=0.25,
    )
    assert cfg.split_spec == SplitSpec(
        date(2024, 1, 1), date(2024, 6, 1), date(2024, 9, 1), date(2024, 12, 31)
    )
    assert cfg.engineering == EngineeringConfig(
        mva_window=12,
        holiday_calendar=timebase.HolidayCalendar(
            dates=frozenset({date(2024, 5, 1), date(2024, 12, 25)}),
            include_weekends=False,
        ),
        utc_offset_hours=3.5,
        work_start_hour=7,
        work_end_hour=19,
    )
    assert cfg.groups == frozenset({"IOTS", "Holiday"})
    assert cfg.params == Hyperparams(
        max_depth=4, n_trees=30, gamma=0.5, lambda_=2.0, learning_rate=0.1
    )
    assert cfg.grid == HyperparamGrid(
        max_depth=(3, 5), n_trees=(10, 20), gamma=(0.0, 1.0),
        lambda_=(0.5, 2.0), learning_rate=(0.1, 0.2),
    )
    assert (cfg.access_seconds, cfg.horizon_seconds) == (43200, 14400)
    assert cfg.ablate_combos == (
        frozenset({"IOTS"}), frozenset({"IOTS-MVA", "MVART"}),
    )
    assert cfg.window_widths_seconds == (0, 7200)
    assert cfg.intervals_seconds == (600, 7200)
    assert (cfg.explain_lambda, cfg.explain_tree_depth, cfg.lime_samples) == (0.5, 4, 200)
    assert (cfg.max_lag, cfg.bin_width) == (12, 0.5)
    assert cfg.out_dir == str(tmp_path / "out") and cfg.quiet is False
    assert cfg.raw == dict(
        (k.strip(), v.strip()) for k, v in
        (line.split("=", 1) for line in every_key.splitlines())
    )


def test_flags_override_the_file(tmp_path, every_key):
    cfg = resolve(tmp_path, every_key, "--seed", "9", "--quiet", "synth", "--days", "11")
    assert (cfg.seed, cfg.synth.seed, cfg.synth.n_days, cfg.quiet) == (9, 9, 11, True)
    cfg = resolve(tmp_path, every_key, "train", "--groups", "IOTS-MVA+MVART")
    assert cfg.groups == frozenset({"IOTS-MVA", "MVART"})


def test_flags_are_recorded_under_their_keys(tmp_path, every_key):
    cfg = resolve(tmp_path, every_key, "--seed", "9", "ingest", "--csv", "b.csv",
                  "--schema", "s.txt")
    assert (cfg.csv_path, cfg.schema_path) == ("b.csv", "s.txt")
    assert {k: cfg.raw[k] for k in ("data.csv", "data.schema", "synth.seed")} == {
        "data.csv": "b.csv", "data.schema": "s.txt", "synth.seed": "9",
    }
    cfg = resolve(tmp_path, "", "synth", "--days", "11")
    assert cfg.raw == {"synth.days": "11"}
    cfg = resolve(tmp_path, "", "train", "--groups", "IOTS+MVART")
    assert cfg.raw == {"features.groups": "IOTS+MVART"}


def test_empty_config_takes_the_library_defaults(tmp_path):
    cfg = resolve(tmp_path, "")
    assert cfg.synth == SynthConfig()
    assert cfg.seed == SynthConfig().seed
    assert cfg.engineering == EngineeringConfig()
    assert cfg.params == Hyperparams()
    assert cfg.grid is None and cfg.split_spec is None
    assert (cfg.source, cfg.csv_path, cfg.schema_path) == ("synth", None, None)
    assert cfg.groups == frozenset({"IOTS-MVA", "MVART", "Holiday"})
    assert (cfg.access_seconds, cfg.horizon_seconds) == (86400, 28800)
    assert len(cfg.ablate_combos) == 8
    assert cfg.raw == {}


def test_one_grid_key_keeps_the_other_grid_defaults(tmp_path):
    cfg = resolve(tmp_path, "grid.gamma = 0.1\n")
    assert cfg.grid == HyperparamGrid(gamma=(0.1,))


@pytest.mark.parametrize("text, message", [
    ("synth.days = ten\n", "config synth.days must be an integer, got 'ten'"),
    ("forecast.access_minutes = 1.5\n",
     "config forecast.access_minutes must be an integer, got '1.5'"),
    ("model.gamma = abc\n", "config model.gamma must be a number, got 'abc'"),
    ("grid.n_trees = 1,x\n", "config grid.n_trees has a malformed list: '1,x'"),
    ("ablate.window_widths_minutes = 0,1.5\n",
     "config ablate.window_widths_minutes has a malformed list: '0,1.5'"),
    ("data.source = db\n", "data.source must be synth or csv, got 'db'"),
    ("data.source = csv\n", "data.source=csv needs data.csv=<path>"),
    ("split.train_end = 2024-06-01\n", "either give all four split.* dates or none"),
    ("no.such.key = 1\n", "unknown config key(s): ['no.such.key']"),
    ("features.mva_window = 0\n", "mva_window must be >= 1, got 0"),
    ("model.learning_rate = 2\n", "learning_rate must be in (0, 1], got 2.0"),
    ("synth.noise_sd = -1\n", "noise_sd must be >= 0, got -1.0"),
    ("features.groups = IOTS-MVA+Foo\n",
     "config features.groups: unknown feature group(s) ['Foo']; "
     "known: ['IOTS', 'IOTS-MVA', 'MVART', 'Holiday']"),
])
def test_malformed_value_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "synth"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("model.gamma = nan\n", "config model.gamma must be a finite number, got 'nan'"),
    ("grid.gamma = 0.5,inf\n", "config grid.gamma has a malformed list: '0.5,inf'"),
    ("grid.n_trees = ,\n", "config grid.n_trees needs at least one value, got ','"),
    ("features.groups = +\n", "config features.groups needs at least one value, got '+'"),
    ("features.weekends_are_holidays = no\n",
     "config features.weekends_are_holidays must be true or false, got 'no'"),
    ("features.utc_offset_hours = 1e300\n",
     "utc_offset_hours must be within -24..24, got 1e+300"),
    ("synth.seed = -1\n", "seed must be >= 0, got -1"),
])
def test_non_finite_empty_or_out_of_range_value_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", "synth"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unreadable_holiday_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="features.holiday_file"):
        resolve(tmp_path, f"features.holiday_file = {tmp_path / 'missing.txt'}\n")


FLOAT_KEYS = (
    "synth.rt_base", "synth.seasonal_amp", "synth.daily_amp", "synth.holiday_shift",
    "synth.noise_sd", "synth.quantization", "features.utc_offset_hours",
    "model.gamma", "model.lambda", "model.learning_rate",
    "grid.gamma", "grid.lambda", "grid.learning_rate",
    "explain.lambda", "diagnose.bin_width",
)


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_float_is_a_config_error(tmp_path, key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        resolve(tmp_path, f"{key} = {value}\n")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None)
@given(
    key=st.sampled_from(sorted(cli._KEYS)),
    value=st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\n\r#"), max_size=12),
)
def test_any_value_resolves_or_is_a_config_or_data_error(fuzz_dir, key, value):
    try:
        resolve(fuzz_dir, f"{key} = {value}\n")
    except (ConfigError, DataError):
        pass


def test_readme_configuration_block_resolves(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = resolve(tmp_path, block)
    assert set(cfg.raw) <= set(cli._KEYS)
    assert len(cfg.raw) == block.count("=")

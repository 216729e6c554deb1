"""Command-line pipeline: synth, ingest, split, train, evaluate, ablate,
explain, diagnose.

Every command reads a flat key=value config file (flags override file
values), writes its artifacts write-once into the output directory, and drops
a ``manifest_<command>.json`` listing each artifact with its SHA-256. Nothing
reaches the output directory unless the command succeeds. Given the same
config and seed, every artifact is byte-identical across runs.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import dataio, explain, forecast, gbm, pffra, stats, timebase
from .dataio import SplitSpec, SynthConfig, TimeTable
from .errors import ConfigError, DataError, NumericError, ToolkitError
from .features import (EngineeringConfig, build_design_matrix, check_finite, feature_order,
                       groups_for_features, training_means)
from .gbm import Ensemble, HyperparamGrid, Hyperparams
from .timebase import HolidayCalendar

SCHEMA_VERSION = 1

_DEFAULT_ABLATE_COMBOS = (
    "IOTS",
    "IOTS+Holiday",
    "IOTS+MVART",
    "IOTS+MVART+Holiday",
    "IOTS-MVA",
    "IOTS-MVA+Holiday",
    "IOTS-MVA+MVART",
    "IOTS-MVA+MVART+Holiday",
)


def _parse_kv_file(path: str) -> dict:
    """The ``key = value`` lines of a config or schema file; a key may be set once."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out, set_on = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(
                f"{path}: line {lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        out[key] = val
    return out


def _groups_from(text: str) -> frozenset:
    return frozenset(part.strip() for part in text.split("+") if part.strip())


@dataclass
class PipelineConfig:
    """Fully resolved run configuration (config file + flag overrides)."""

    out_dir: str
    quiet: bool
    source: str = "synth"
    csv_path: str | None = None
    schema_path: str | None = None
    synth: SynthConfig = field(default_factory=SynthConfig)
    split_spec: SplitSpec | None = None
    engineering: EngineeringConfig = field(default_factory=EngineeringConfig)
    groups: frozenset = frozenset({"IOTS-MVA", "MVART", "Holiday"})
    params: Hyperparams = field(default_factory=Hyperparams)
    grid: HyperparamGrid | None = None
    access_seconds: int = 86400
    horizon_seconds: int = 28800
    ablate_combos: tuple = tuple(_groups_from(c) for c in _DEFAULT_ABLATE_COMBOS)
    window_widths_seconds: tuple = (0, 600, 3600, 21600, 86400)
    intervals_seconds: tuple = (600, 3600, 28800, 86400)
    explain_lambda: float = 1.0
    explain_tree_depth: int = 6
    lime_samples: int = 1000
    max_lag: int = 30
    bin_width: float = 1.0
    raw: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.synth.seed


# Value parsers: text -> value. Each raises ValueError with a short reason, or
# lets a ToolkitError through; ``_as_config_error`` reports either with the
# key and its text.

def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _minutes(text):
    return int(text) * 60


def _bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError("must be true or false")
    return text.lower() == "true"


def _nonempty(parts):
    if not parts:
        raise ValueError("needs at least one value")
    return parts


def _list(parse, sep=","):
    def parse_list(text):
        return _nonempty(tuple(parse(part.strip()) for part in text.split(sep) if part.strip()))
    return parse_list


def _groups(text):
    groups = _nonempty(_groups_from(text))
    feature_order(groups)  # a DataError says what the selection lacks
    return groups


def _source(text):
    if text not in ("synth", "csv"):
        raise ValueError("must be synth or csv")
    return text


def _holidays(text):
    return HolidayCalendar.from_file(text).dates


_SOURCE_KEY, _CSV_KEY, _SCHEMA_KEY = "data.source", "data.csv", "data.schema"

#: One entry per config key: the object it configures, the field it sets and
#: the parser of its value. Only keys present in the file are passed on, so
#: every default lives in its dataclass. A target other than ``pipeline`` and
#: ``calendar`` is the PipelineConfig field that its keys build; ``split_spec``
#: takes all four keys or none, and ``calendar`` fields replace those of the
#: packaged holiday calendar.
_KEYS = {
    _SOURCE_KEY: ("pipeline", "source", _source),
    _CSV_KEY: ("pipeline", "csv_path", str),
    _SCHEMA_KEY: ("pipeline", "schema_path", str),
    "synth.seed": ("synth", "seed", int),
    "synth.days": ("synth", "n_days", int),
    "synth.rt_base": ("synth", "rt_base", _float),
    "synth.seasonal_amp": ("synth", "seasonal_amp", _float),
    "synth.daily_amp": ("synth", "daily_amp", _float),
    "synth.holiday_shift": ("synth", "holiday_shift", _float),
    "synth.noise_sd": ("synth", "noise_sd", _float),
    "synth.quantization": ("synth", "quantization", _float),
    "split.data_start": ("split_spec", "data_start", timebase.parse_day),
    "split.train_end": ("split_spec", "train_end", timebase.parse_day),
    "split.val_end": ("split_spec", "val_end", timebase.parse_day),
    "split.data_cutoff": ("split_spec", "data_cutoff", timebase.parse_day),
    "features.groups": ("pipeline", "groups", _groups),
    "features.mva_window": ("engineering", "mva_window", int),
    "features.utc_offset_hours": ("engineering", "utc_offset_hours", _float),
    "features.work_start": ("engineering", "work_start_hour", int),
    "features.work_end": ("engineering", "work_end_hour", int),
    "features.holiday_file": ("calendar", "dates", _holidays),
    "features.weekends_are_holidays": ("calendar", "include_weekends", _bool),
    "model.max_depth": ("params", "max_depth", int),
    "model.n_trees": ("params", "n_trees", int),
    "model.gamma": ("params", "gamma", _float),
    "model.lambda": ("params", "lambda_", _float),
    "model.learning_rate": ("params", "learning_rate", _float),
    "grid.max_depth": ("grid", "max_depth", _list(int)),
    "grid.n_trees": ("grid", "n_trees", _list(int)),
    "grid.gamma": ("grid", "gamma", _list(_float)),
    "grid.lambda": ("grid", "lambda_", _list(_float)),
    "grid.learning_rate": ("grid", "learning_rate", _list(_float)),
    "forecast.access_minutes": ("pipeline", "access_seconds", _minutes),
    "forecast.horizon_minutes": ("pipeline", "horizon_seconds", _minutes),
    "ablate.combos": ("pipeline", "ablate_combos", _list(_groups, ";")),
    "ablate.window_widths_minutes": ("pipeline", "window_widths_seconds", _list(_minutes)),
    "ablate.intervals_minutes": ("pipeline", "intervals_seconds", _list(_minutes)),
    "explain.lambda": ("pipeline", "explain_lambda", _float),
    "explain.tree_depth": ("pipeline", "explain_tree_depth", int),
    "explain.lime_samples": ("pipeline", "lime_samples", int),
    "diagnose.max_lag": ("pipeline", "max_lag", int),
    "diagnose.bin_width": ("pipeline", "bin_width", _float),
}


def _config_error(texts: dict, reason) -> ConfigError:
    """The one form of every config error: each key with its text, and why."""
    named = ", ".join(f"{key} = {text}" for key, text in texts.items())
    return ConfigError(f"config {named}: {reason}")


@contextmanager
def _as_config_error(texts: dict):
    """Raise what fails in the block, a parser's ValueError, a ToolkitError or
    an unreadable file, as the ``_config_error`` of the keys in ``texts``."""
    try:
        yield
    except (ValueError, OSError, ToolkitError) as exc:
        raise _config_error(texts, exc) from None


def _build_config(args) -> PipelineConfig:
    kv = _parse_kv_file(args.config) if args.config else {}
    unknown = {key: text for key, text in kv.items() if key not in _KEYS}
    if unknown:
        raise _config_error(unknown, "unknown key")
    # A flag that overrides a key has that key as its argparse destination; its
    # text is parsed and recorded like a file entry.
    for key, text in vars(args).items():
        if key in _KEYS and text is not None:
            kv[key] = text

    texts = defaultdict(dict)  # target -> key -> text
    kw = defaultdict(dict)  # target -> field -> value
    for key, text in kv.items():
        target, name, parse = _KEYS[key]
        texts[target][key] = text
        with _as_config_error({key: text}):
            kw[target][name] = parse(text)

    if texts["split_spec"] and len(texts["split_spec"]) != 4:
        raise _config_error(texts["split_spec"], "give all four split.* dates or none")
    if kw["calendar"]:
        kw["engineering"]["holiday_calendar"] = replace(
            HolidayCalendar.default(), **kw["calendar"]
        )
    # Each object is built from the keys set for it, and checks their values;
    # an object with no key set keeps its PipelineConfig default.
    for target, build in (("synth", SynthConfig), ("split_spec", SplitSpec),
                          ("engineering", EngineeringConfig), ("params", Hyperparams),
                          ("grid", HyperparamGrid)):
        if kw[target]:
            with _as_config_error(texts[target]):
                kw["pipeline"][target] = build(**kw[target])
    cfg = PipelineConfig(out_dir=args.out, quiet=args.quiet, raw=dict(kv), **kw["pipeline"])
    if cfg.source == "csv" and not cfg.csv_path:
        raise _config_error({_SOURCE_KEY: kv[_SOURCE_KEY]}, f"needs {_CSV_KEY}")
    return cfg


class ArtifactWriter:
    """Write-once artifact store with a deterministic manifest.

    Artifacts are held in memory, in order, until ``finish`` writes them all
    and the manifest last, so a command that raises writes nothing.
    """

    def __init__(self, out_dir: str, command: str, config: PipelineConfig):
        self.out_dir = out_dir
        self.command = command
        self.config = config
        self.artifacts = {}  # name -> bytes, in write order

    def write_bytes(self, name: str, data: bytes) -> None:
        path = os.path.join(self.out_dir, name)
        if name in self.artifacts or os.path.exists(path):
            raise ConfigError(f"refusing to overwrite existing artifact {path}")
        self.artifacts[name] = data

    def write_json(self, name: str, obj) -> None:
        self.write_bytes(name, _json_bytes(name, {"schema_version": SCHEMA_VERSION, **obj}))

    def write_csv(self, name: str, header, columns) -> None:
        """Columns, one per header name, as CSV (``dataio.csv_lines``, each
        line ending in ``\\n``). A non-finite float raises NumericError
        naming the first such cell in row order."""
        first = None  # (row, value) of the first non-finite cell
        for col in columns:
            if isinstance(col, np.ndarray) and col.dtype.kind != "O":
                rows = np.flatnonzero(~np.isfinite(col)) if col.dtype.kind == "f" else ()
            else:
                rows = [i for i, v in enumerate(col)
                        if isinstance(v, (float, np.floating)) and not math.isfinite(v)]
            if len(rows) and (first is None or rows[0] < first[0]):
                first = (rows[0], col[rows[0]])
        if first is not None:
            raise NumericError(
                f"artifact {name} would hold a non-finite number {float(first[1])!r}")
        self.write_bytes(name, "".join(dataio.csv_lines(header, columns, "\n")).encode())

    def write_table(self, name: str, table: TimeTable) -> None:
        """A table as CSV. A blank or non-finite cell raises DataError naming
        its column and instant, so no artifact holds ``nan`` or ``inf``."""
        check_finite(np.column_stack([*table.columns.values(), table.target]),
                     [*table.columns, dataio.TARGET_COLUMN], table.timestamps)
        buf = io.StringIO()
        dataio.write_csv(table, buf)
        self.write_bytes(name, buf.getvalue().encode())

    def finish(self, extra: dict | None = None) -> None:
        """Write every artifact, then the manifest that lists them."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.config.seed,
            "config": dict(sorted(self.config.raw.items())),
            "artifacts": [
                {"path": name, "sha256": hashlib.sha256(data).hexdigest()}
                for name, data in sorted(self.artifacts.items())
            ],
        }
        if extra:
            doc.update(extra)
        name = f"manifest_{self.command}.json"
        self.write_bytes(name, _json_bytes(name, doc))
        os.makedirs(self.out_dir, exist_ok=True)
        for name, data in self.artifacts.items():
            path = os.path.join(self.out_dir, name)
            with open(path, "xb") as fh:
                fh.write(data)
            if not self.config.quiet:
                print(f"wrote {path}")


def _json_bytes(name: str, doc) -> bytes:
    """An artifact's JSON text; NaN and infinities are not JSON, so they raise."""
    try:
        return (json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n").encode()
    except ValueError as exc:
        raise NumericError(f"artifact {name} would hold a non-finite number") from exc


def _read_table(cfg: PipelineConfig) -> dataio.TimeTable:
    """The table at ``data.csv``, its columns' roles read from ``data.schema``
    if set. A file that cannot be read, or a malformed schema file, is the
    config error of its key; a bad cell in the table is a data error."""
    schema = None
    if cfg.schema_path:
        with _as_config_error({_SCHEMA_KEY: cfg.raw[_SCHEMA_KEY]}):
            schema = _parse_kv_file(cfg.schema_path)
    try:
        return dataio.ingest_csv(cfg.csv_path, schema)
    except OSError as exc:
        raise _config_error({_CSV_KEY: cfg.raw[_CSV_KEY]}, exc) from None


def _load_splits(cfg: PipelineConfig) -> dict:
    """The configured table split into ``train``, ``val`` and ``test``."""
    if cfg.source == "synth":
        table = dataio.synthesize(cfg.synth)
    else:
        table = _read_table(cfg)
    if cfg.split_spec is not None:
        parts = dataio.split(table, cfg.split_spec, cfg.engineering.utc_offset_hours)
    else:
        n = len(table)
        i1, i2 = int(n * 0.6), int(n * 0.8)
        if not (0 < i1 < i2 < n):
            raise DataError(f"table too short to split 60/20/20: {n} rows")
        parts = (table.row_slice(0, i1), table.row_slice(i1, i2), table.row_slice(i2, n))
    return dict(zip(("train", "val", "test"), parts))


def _columns(cls) -> list:
    """The document names of a result type's fields: a trailing underscore,
    which only keeps a name off a Python keyword, is dropped (``lambda_`` is
    written ``lambda``)."""
    return [f.name.removesuffix("_") for f in fields(cls)]


def _doc(result) -> dict:
    """A result dataclass as an artifact document: its fields under their
    ``_columns`` names, leaving out an optional field (default None) that is
    None."""
    return {
        name: value
        for name, f, value in zip(_columns(result), fields(result), asdict(result).values())
        if not (value is None and f.default is None)
    }


_METRICS = _columns(stats.MetricReport)


def _adf_doc(result: stats.AdfResult) -> dict:
    reject_at = {f"{int(level * 100)}%": bool(v) for level, v in result.reject_at.items()}
    return {**_doc(result), "reject_at": reject_at}


def _rolling(cfg: PipelineConfig, model: Ensemble, table: TimeTable):
    """The configured rolling forecast: every command re-anchors alike."""
    return forecast.rolling_forecast(model, table, cfg.engineering,
                                     cfg.access_seconds, cfg.horizon_seconds)


#: The key of each role that ``forecast.interval_fault`` names, with the
#: seconds in one unit of the key, and each split's name.
_INTERVAL_KEYS = {"access interval": ("forecast.access_minutes", 60),
                  "horizon": ("forecast.horizon_minutes", 60),
                  "width": ("ablate.window_widths_minutes", 60),
                  "interval": ("ablate.intervals_minutes", 60),
                  "UTC offset": ("features.utc_offset_hours", 3600)}
_SPLIT_NAMES = {"train": "training split", "val": "validation split", "test": "test split"}


def _in_unit(seconds: int, unit: int) -> str:
    """``seconds`` in a key's unit, as the key's text would write it."""
    return str(seconds // unit) if seconds % unit == 0 else repr(seconds / unit)


def _forecast_splits(cfg: PipelineConfig, on=(), sweeps=False) -> dict:
    """The splits, once ``forecast.interval_fault`` passes the forecast keys on
    the splits ``on`` that forecasts run on and, with ``sweeps``, the ``ablate``
    widths and intervals; else a ConfigError names the key, text and value.
    The training split, which every model trains on, is the widths' warm-up,
    and the UTC offset is checked on it even where no forecast runs."""
    parts = _load_splits(cfg)
    sweep = dict(widths=cfg.window_widths_seconds,
                 intervals=cfg.intervals_seconds) if sweeps else {}
    fault = forecast.interval_fault(
        parts["train"].interval_seconds, {_SPLIT_NAMES[name]: parts[name] for name in on},
        cfg.access_seconds, cfg.horizon_seconds, **sweep,
        warmup={_SPLIT_NAMES["train"]: parts["train"]},
        offset=timebase.offset_seconds(cfg.engineering.utc_offset_hours))
    if fault:
        role, seconds, reason = fault
        key, unit = _INTERVAL_KEYS[role]
        target, name, _ = _KEYS[key]
        if key in cfg.raw:
            text = cfg.raw[key]
        else:  # the default
            value = getattr(cfg if target == "pipeline" else getattr(cfg, target), name)
            text = ",".join(_in_unit(s, unit) for s in np.atleast_1d(value))
        raise _config_error({key: text}, f"{_in_unit(seconds, unit)} {reason}")
    return parts


def _require_model(cfg: PipelineConfig, args) -> Ensemble:
    """The model at ``--model``, by default ``model.json`` in ``--out``."""
    path = args.model or os.path.join(cfg.out_dir, "model.json")
    if not os.path.exists(path):
        raise ConfigError(f"model file not found: {path!r} (train first or pass --model)")
    return gbm.load(path)


def cmd_synth(cfg: PipelineConfig, args, out: ArtifactWriter) -> dict:
    table = dataio.synthesize(cfg.synth)
    out.write_table("synthetic.csv", table)
    return {"rows": len(table)}


def cmd_ingest(cfg: PipelineConfig, args, out: ArtifactWriter) -> None:
    if not cfg.csv_path:
        raise ConfigError(f"ingest needs --csv PATH or {_CSV_KEY} in the config")
    table = _read_table(cfg)
    out.write_table("normalized.csv", table)
    out.write_json(
        "ingest_report.json",
        {
            "rows": len(table),
            "interval_seconds": table.interval_seconds,
            "columns": sorted(table.columns),
            "start": timebase.format_instant(table.timestamps[0]),
            "end": timebase.format_instant(table.timestamps[-1]),
        },
    )


def cmd_split(cfg: PipelineConfig, args, out: ArtifactWriter) -> None:
    parts = _load_splits(cfg)
    for name, part in parts.items():
        out.write_table(f"{name}.csv", part)
    out.write_json("split_report.json", {
        "rows": {name: len(part) for name, part in parts.items()},
        "boundaries": {
            name: [timebase.format_instant(part.timestamps[0]),
                   timebase.format_instant(part.timestamps[-1])]
            for name, part in parts.items()
        },
    })


def cmd_train(cfg: PipelineConfig, args, out: ArtifactWriter) -> dict:
    train_t, val_t, _ = _load_splits(cfg).values()
    x_train = build_design_matrix(train_t, cfg.engineering, cfg.groups)
    x_val = build_design_matrix(val_t, cfg.engineering, cfg.groups)

    if cfg.grid is None:
        params = cfg.params
        model = gbm.train(x_train, params)
    else:
        params, model, score_table = gbm.grid_search(x_train, x_val, cfg.grid)
        out.write_csv(
            "grid_scores.csv",
            [*_columns(Hyperparams), *_METRICS],
            list(zip(*([*_doc(p).values(), *rep.as_dict().values()] for p, rep in score_table))),
        )

    out.write_bytes("model.json", gbm.dumps(model).encode())
    out.write_json("params.json", {
        "params": _doc(params),
        "groups": sorted(cfg.groups),
        "mva_window": cfg.engineering.mva_window,
        "grid_searched": cfg.grid is not None,
    })
    out.write_json("metrics_fit_train.json",
                   stats.metrics(x_train.target, model.predict_batch(x_train.rows)).as_dict())
    out.write_json("metrics_fit_val.json",
                   stats.metrics(x_val.target, model.predict_batch(x_val.rows)).as_dict())
    return {"n_features": len(model.feature_names)}


def cmd_evaluate(cfg: PipelineConfig, args, out: ArtifactWriter) -> None:
    parts = _forecast_splits(cfg, on=("train", "val", "test"))
    model = _require_model(cfg, args)
    runs = {name: _rolling(cfg, model, part) for name, part in parts.items()}
    for name, run in runs.items():
        out.write_csv(
            f"forecast_{name}.csv",
            ["timestamp", "y_true", "y_pred", "anchor_id"],
            [run.timestamps.astype("datetime64[s]"), run.y_true, run.y_pred, run.anchor_ids],
        )
        out.write_json(f"metrics_{name}.json", run.report().as_dict())

    test_run = runs["test"]
    residuals = test_run.y_true - test_run.y_pred
    out.write_csv(
        "residuals_test.csv",
        ["timestamp", "residual"],
        [test_run.timestamps.astype("datetime64[s]"), residuals],
    )
    out.write_csv(
        "residual_hist_test.csv",
        ["bin", "count"],
        list(zip(*stats.histogram(residuals, cfg.bin_width * 0.25))),
    )
    out.write_csv(
        "qq_test.csv",
        ["theoretical", "sample"],
        list(zip(*stats.qq_normal(residuals))),
    )


def cmd_ablate(cfg: PipelineConfig, args, out: ArtifactWriter) -> None:
    train_t, val_t, _ = _forecast_splits(cfg, on=("val",), sweeps=not args.skip_sweeps).values()

    # Every model trained on train_t with cfg.params, by (groups, engineering):
    # the horizon sweep, the window sweep and the combination table train
    # each one once. The sweeps run first, so a sweep that fails on the data
    # exits before the combination table trains.
    models = {}

    def fit(groups):
        key = (groups, cfg.engineering)
        if key not in models:
            models[key] = gbm.train(build_design_matrix(train_t, cfg.engineering, groups),
                                    cfg.params)
        return models[key]

    if not args.skip_sweeps:
        hsweep = forecast.horizon_sweep(
            fit(cfg.groups), val_t, cfg.engineering, cfg.intervals_seconds
        )
        sweep = forecast.window_sweep(
            train_t, val_t, cfg.window_widths_seconds, cfg.engineering, cfg.params,
            access_interval_seconds=cfg.access_seconds,
            horizon_seconds=cfg.horizon_seconds, models=models,
        )

    rows = []
    for combo in cfg.ablate_combos:
        report = _rolling(cfg, fit(combo), val_t).report()
        rows.append(["+".join(sorted(combo)), *report.as_dict().values()])
    out.write_csv("ablation.csv", ["group", *_METRICS], list(zip(*rows)))
    if not args.skip_sweeps:
        out.write_csv("window_sweep.csv", ["width_or_interval", *_METRICS],
                      list(zip(*(r.values() for r in sweep))))
        out.write_csv("horizon_sweep.csv", ["width_or_interval", *_METRICS],
                      list(zip(*(r.values() for r in hsweep))))


def _select_case_pair(run, thr_acc: float, thr_dev: float):
    """First (accurate, deviated) scored indices sharing a true RT value."""
    err = np.abs(run.y_pred - run.y_true)
    accurate = np.flatnonzero(err < thr_acc)
    deviated = np.flatnonzero(err > thr_dev)
    for a in accurate:
        for d in deviated:
            if run.y_true[a] == run.y_true[d]:
                return int(a), int(d)
    raise DataError(
        f"no accurate/deviated pair shares a true RT value "
        f"(thresholds {thr_acc}/{thr_dev}; {len(accurate)} accurate, "
        f"{len(deviated)} deviated candidates)"
    )


def _force_rows(att: explain.Attribution, values: dict) -> list:
    rows = [("__base__", "", att.base_value, att.base_value)]
    running = att.base_value
    ordered = sorted(
        att.contributions.items(), key=lambda kv: (-abs(kv[1]), kv[0])
    )
    for name, contrib in ordered:
        running += contrib
        rows.append((name, values[name], contrib, running))
    return rows


def cmd_explain(cfg: PipelineConfig, args, out: ArtifactWriter) -> dict:
    method = args.method
    rolling = method == "pffra" and args.protocol == "rolling"
    selected = method in ("lime", "shap") and args.select
    parts = _forecast_splits(cfg, (args.split,) if rolling else ("test",) if selected else ())
    model = _require_model(cfg, args)
    train_t, test_t = parts["train"], parts["test"]
    groups = groups_for_features(model.feature_names)
    x_train = build_design_matrix(train_t, cfg.engineering, groups)
    means = training_means(x_train)

    if method == "importance":
        out.write_json("importance.json", {
            "gain": gbm.feature_importance_gain(model.trees, model.feature_names),
            "permutation_mean_substitute": explain.permutation_importance(
                model, x_train, x_train.target, metric="mae",
                strategy="mean_substitute", means=means,
            ),
        })

    elif method == "pdp":
        feats = [args.feature] if args.feature else list(model.feature_names)
        for name in feats:
            curve = explain.pdp(model, x_train, name)
            out.write_csv(
                f"pdp_{name}.csv",
                ["value", "mean_response"],
                [curve.grid, curve.mean_response],
            )

    elif method == "surrogate":
        out.write_json("surrogate_ridge.json",
                       _doc(explain.fit_surrogate_ridge(model, x_train, cfg.explain_lambda)))
        tree, fidelity = explain.fit_surrogate_tree(model, x_train, cfg.explain_tree_depth)
        out.write_json("surrogate_tree.json", {
            "tree": gbm.tree_to_dict(tree),
            "fidelity_r2": fidelity,
            "importance": gbm.feature_importance_gain((tree,), x_train.feature_names),
            "max_depth": cfg.explain_tree_depth,
        })

    elif method in ("lime", "shap"):
        if args.select:  # label -> (feature row, case metadata)
            run = _rolling(cfg, model, test_t)
            pair = _select_case_pair(run, args.threshold_acc, args.threshold_dev)
            cases = {
                label: (run.feature_rows[i], {
                    "timestamp": timebase.format_instant(run.timestamps[i]),
                    "y_true": float(run.y_true[i]),
                    "y_pred": float(run.y_pred[i]),
                })
                for label, i in zip(("accurate", "deviated"), pair)
            }
        else:
            x_test = build_design_matrix(test_t, cfg.engineering, groups)
            idx = args.instance or 0
            if not 0 <= idx < len(x_test):
                raise ConfigError(f"--instance {idx} out of range 0..{len(x_test) - 1}")
            cases = {f"instance{idx}": (x_test.rows[idx], {"y_true": float(x_test.target[idx])})}

        bg = np.array([means[n] for n in model.feature_names])
        for label, (row, case) in cases.items():
            if method == "shap":
                att = explain.shap_exact(model, row, bg, model.feature_names)
            else:
                att = explain.lime_explain(
                    model, row, x_train,
                    n_samples=cfg.lime_samples, seed=cfg.seed,
                )
            out.write_json(f"{method}_{label}.json", {**_doc(att), "case": case})
            if method == "shap":
                out.write_csv(
                    f"shap_{label}_force.csv",
                    ["feature", "value", "push", "cumulative"],
                    list(zip(*_force_rows(att, dict(zip(model.feature_names, row))))),
                )

    else:
        part = parts[args.split]
        if args.protocol == "static":
            x_part = build_design_matrix(part, cfg.engineering, groups)
            report = pffra.pffra(model, x_part, x_part.target, args.feature, means=means)
        else:
            report = pffra.rolling_pffra(
                model, part, cfg.engineering, args.feature, means,
                cfg.access_seconds, cfg.horizon_seconds,
            )

        tag = f"{args.feature}_{args.split}"
        out.write_json(f"pffra_{tag}.json", {
            "feature": report.feature,
            "protocol": args.protocol,
            "split": args.split,
            "dc": {variant: spec.dc for variant, spec in report.spectra.items()},
            "band_energies": report.band_energies,
        })
        for variant, spec in report.spectra.items():
            out.write_csv(
                f"spectrum_{variant}_{tag}.csv",
                ["frequency", "magnitude"],
                [np.append(0.0, spec.frequencies), np.append(spec.dc, spec.magnitudes)],
            )
    return {"method": method}


def cmd_diagnose(cfg: PipelineConfig, args, out: ArtifactWriter) -> dict:
    parts = _load_splits(cfg)
    if args.which == "hist":
        for name, part in parts.items():
            out.write_csv(f"hist_{name}.csv", ["bin", "count"],
                          list(zip(*stats.histogram(part.target, cfg.bin_width))))
        return {"which": args.which}
    series = parts[args.split].target
    if args.which == "adf":
        out.write_json("adf_rt.json", _adf_doc(stats.adf_test(series)))
        out.write_json("adf_diff.json", _adf_doc(stats.adf_test(np.diff(series))))
    else:
        correlations = stats.acf if args.which == "acf" else stats.pacf
        values = correlations(series, cfg.max_lag)
        out.write_csv(f"{args.which}.csv", ["lag", "value"], [np.arange(len(values)), values])
    return {"which": args.which, "split": args.split}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtcast",
        description="Room-temperature forecasting and model-explanation pipeline",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", dest="synth.seed", metavar="N", help="global seed (default 42)")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--days", dest="synth.days", metavar="N")

    p = sub.add_parser("ingest", help="validate and normalize a CSV dataset")
    p.add_argument("--csv", dest=_CSV_KEY, metavar="PATH")
    p.add_argument("--schema", dest=_SCHEMA_KEY, metavar="PATH",
                   help="column role map (name=role lines)")

    sub.add_parser("split", help="write train/validation/test tables")

    p = sub.add_parser("train", help="fit the boosted-tree model")
    p.add_argument("--groups", dest="features.groups", metavar="GROUPS",
                   help='feature groups, e.g. "IOTS-MVA+MVART+Holiday"')

    p = sub.add_parser("evaluate", help="rolling-forecast metrics and residual diagnostics")
    p.add_argument("--model", default=None)

    p = sub.add_parser("ablate", help="feature-combination table and sweep experiments")
    p.add_argument("--skip-sweeps", action="store_true")

    p = sub.add_parser("explain", help="global and local model explanations")
    methods = p.add_subparsers(dest="method", required=True)
    # Each method and check declares only the flags that its branch reads.
    for name in ("importance", "pdp", "surrogate", "lime", "shap", "pffra"):
        m = methods.add_parser(name)
        m.add_argument("--model", default=None)
        if name in ("pdp", "pffra"):  # pdp without --feature sweeps every feature
            m.add_argument("--feature", required=name == "pffra")
        if name == "pffra":
            m.add_argument("--split", choices=["train", "val", "test"], default="val")
            m.add_argument("--protocol", choices=["static", "rolling"], default="static")
        if name in ("lime", "shap"):
            # No default for --instance: argparse would let "--instance 0" equal to
            # a default of 0 pass beside --select.
            case = m.add_mutually_exclusive_group()
            case.add_argument("--instance", type=int, help="test row (default 0)")
            case.add_argument("--select", choices=["accurate,deviated"], help="case-study pair")
            m.add_argument("--threshold-acc", type=float, default=0.01)
            m.add_argument("--threshold-dev", type=float, default=2.0)

    p = sub.add_parser("diagnose", help="ACF/PACF, unit-root tests, histograms")
    checks = p.add_subparsers(dest="which", required=True)
    for name in ("acf", "pacf", "adf"):
        checks.add_parser(name).add_argument(
            "--split", choices=["train", "val", "test"], default="train")
    checks.add_parser("hist")  # every split's histogram, so no --split
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "split": cmd_split,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "explain": cmd_explain,
    "diagnose": cmd_diagnose,
}


def _label(args) -> str:
    """The manifest label: the command, then the explain method or diagnose check."""
    detail = getattr(args, "method", None) or getattr(args, "which", None)
    return f"{args.command}_{detail}" if detail else args.command


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        out = ArtifactWriter(cfg.out_dir, _label(args), cfg)
        out.finish(_COMMANDS[args.command](cfg, args, out))
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ConfigError, OSError)):
            return 2
        return 4 if isinstance(exc, NumericError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

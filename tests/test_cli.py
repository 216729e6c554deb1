"""End-to-end command-line runs in a subprocess: artifacts, manifests,
determinism, and exit codes."""
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtcast import cli, explain, forecast, gbm, pffra, stats
from rtcast.errors import ConfigError, DataError, NumericError
from rtcast.features import EngineeringConfig

CONFIG = """\
data.source = synth
synth.days = 20
model.max_depth = 3
model.n_trees = 8
"""


SPLIT_DATES = """\
split.data_start = 2017-12-09
split.train_end = 2017-12-18
split.val_end = 2017-12-22
split.data_cutoff = 2017-12-26
"""


def run_cli(*args, check=True):
    """Run the CLI in a subprocess where, as in this process (pyproject's
    filterwarnings), a numpy RuntimeWarning is an error."""
    proc = subprocess.run(
        [sys.executable, "-m", "rtcast.cli", *args],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One finished synth/train/evaluate run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(CONFIG)
    out = root / "out"
    for cmd in ("synth", "train", "evaluate"):
        run_cli("--config", str(cfg), "--out", str(out), "--quiet", cmd)
    return cfg, out


def names(cls):
    """The names an artifact gives a result type's fields: ``lambda_`` is
    written ``lambda``."""
    return [f.name[:-1] if f.name.endswith("_") else f.name for f in dataclasses.fields(cls)]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def csv_config(tmp_path, rows):
    """Write ``rows`` as a CSV and return a config that reads it."""
    data = tmp_path / "edited.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    cfg = tmp_path / "edited.ini"
    cfg.write_text(CONFIG.replace("data.source = synth",
                                  f"data.source = csv\ndata.csv = {data}"))
    return cfg


class TestPipelineArtifacts:
    def test_manifest_hashes_match_files(self, pipeline):
        _, out = pipeline
        for manifest in out.glob("manifest_*.json"):
            doc = json.loads(manifest.read_text())
            assert doc["schema_version"] == 1
            assert doc["artifacts"], manifest.name
            for art in doc["artifacts"]:
                data = (out / art["path"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == art["sha256"], art["path"]

    def test_forecast_csv_layout(self, pipeline):
        _, out = pipeline
        rows = read_csv(out / "forecast_test.csv")
        assert rows[0] == ["timestamp", "y_true", "y_pred", "anchor_id"]
        assert len(rows) > 1
        float(rows[1][1]), float(rows[1][2])  # numeric cells
        assert rows[1][0].endswith("Z")

    def test_metrics_reports_have_schema(self, pipeline):
        _, out = pipeline
        for name in ("metrics_train.json", "metrics_val.json", "metrics_test.json",
                     "metrics_fit_train.json"):
            doc = json.loads((out / name).read_text())
            assert {"schema_version", "mae", "mse"} <= set(doc)
            assert list(doc) == sorted(["schema_version", *names(stats.MetricReport)])
        params = json.loads((out / "params.json").read_text())["params"]
        assert list(params) == sorted(names(gbm.Hyperparams))
        assert "lambda" in params

    def test_residual_rows_cover_scored_predictions(self, pipeline):
        _, out = pipeline
        scored = len(read_csv(out / "forecast_test.csv")) - 1
        assert len(read_csv(out / "residuals_test.csv")) - 1 == scored
        qq = read_csv(out / "qq_test.csv")
        assert len(qq) - 1 == scored

    def test_model_file_is_sorted_json(self, pipeline):
        _, out = pipeline
        text = (out / "model.json").read_text()
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, indent=1) + "\n" == text

    def test_write_once(self, pipeline):
        cfg, out = pipeline
        proc = run_cli("--config", str(cfg), "--out", str(out), "--quiet",
                       "synth", check=False)
        assert proc.returncode == 2
        assert "refusing to overwrite" in proc.stderr


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            for cmd in ("synth", "train", "evaluate"):
                run_cli("--config", str(cfg), "--out", str(out), "--quiet", cmd)
            outs.append(out)
        a, b = outs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestExplainCommands:
    def test_shap_force_csv_walks_to_the_prediction(self, pipeline, tmp_path):
        cfg, out = pipeline
        dest = tmp_path / "exp"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "shap", "--model", str(out / "model.json"),
                "--instance", "4")
        doc = json.loads((dest / "shap_instance4.json").read_text())
        rows = read_csv(dest / "shap_instance4_force.csv")
        assert rows[0] == ["feature", "value", "push", "cumulative"]
        assert rows[1][0] == "__base__"
        assert float(rows[-1][3]) == pytest.approx(doc["prediction"], abs=1e-9)
        # Both methods write an Attribution; SHAP's leaves out the two
        # optional LIME fields, which are None.
        attribution = {"schema_version", "case", *names(explain.Attribution)}
        assert set(doc) == attribution - {"local_r2", "labels"}
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "lime", "--model", str(out / "model.json"),
                "--instance", "4")
        lime = json.loads((dest / "lime_instance4.json").read_text())
        assert set(lime) == attribution
        assert set(lime["labels"]) == set(lime["contributions"])

    def test_pffra_artifacts(self, pipeline, tmp_path):
        cfg, out = pipeline
        dest = tmp_path / "pf"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "pffra", "--model", str(out / "model.json"),
                "--feature", "MVART")
        doc = json.loads((dest / "pffra_MVART_val.json").read_text())
        assert set(doc["band_energies"]) == {"dc", "low", "mid", "high"}
        variants = {name.removeprefix("spectrum_") for name in names(pffra.PffraReport)
                    if name.startswith("spectrum_")}
        assert set(doc["dc"]) == variants
        assert {p.name for p in dest.glob("spectrum_*.csv")} == {
            f"spectrum_{v}_MVART_val.csv" for v in variants}
        spec = read_csv(dest / "spectrum_feature_only_MVART_val.csv")
        assert spec[0] == ["frequency", "magnitude"]
        assert float(spec[1][0]) == 0.0  # DC row leads
        assert doc["dc"]["feature_only"] == pytest.approx(float(spec[1][1]))

    def test_rolling_pffra_reads_the_evaluated_forecast(self, pipeline, tmp_path):
        """The rolling protocol's original and truth series are the
        validation forecast that ``evaluate`` scores."""
        cfg, out = pipeline
        dest = tmp_path / "pfr"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "pffra", "--model", str(out / "model.json"),
                "--feature", "MVART", "--protocol", "rolling")
        doc = json.loads((dest / "pffra_MVART_val.json").read_text())
        assert doc["protocol"] == "rolling"
        rows = read_csv(out / "forecast_val.csv")[1:]
        assert doc["dc"]["original"] == pytest.approx(np.mean([float(r[2]) for r in rows]))
        assert doc["dc"]["truth"] == pytest.approx(np.mean([float(r[1]) for r in rows]))

    def test_pdp_importance_surrogate(self, pipeline, tmp_path):
        cfg, out = pipeline
        dest = tmp_path / "glb"
        model = str(out / "model.json")
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "importance", "--model", model)
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "pdp", "--feature", "Hour", "--model", model)
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "surrogate", "--model", model)
        imp = json.loads((dest / "importance.json").read_text())
        assert set(imp["gain"]) == set(imp["permutation_mean_substitute"])
        pdp_rows = read_csv(dest / "pdp_Hour.csv")
        assert pdp_rows[0] == ["value", "mean_response"]
        assert len(pdp_rows) == 25  # 24 hourly levels + header
        ridge = json.loads((dest / "surrogate_ridge.json").read_text())
        assert "MVART" in ridge["coefficients"]
        assert list(ridge) == sorted(["schema_version", *names(explain.LinearSurrogate)])
        assert ridge["lambda"] == 1.0


class TestAblate:
    @pytest.mark.parametrize("combos,groups,trained", [
        ("IOTS-MVA+MVART+Holiday;IOTS+Holiday", "IOTS-MVA+MVART+Holiday", 2),
        ("IOTS+Holiday", "IOTS-MVA+MVART+Holiday", 2),
        ("IOTS-MVA+MVART+Holiday;IOTS+Holiday", "IOTS+MVART+Holiday", 3),
    ], ids=["default-groups-listed", "default-groups-not-listed", "other-groups"])
    def test_each_model_is_trained_once(self, tmp_path, monkeypatch, combos, groups, trained):
        """Two combinations and two window widths are two models: the
        horizon sweep's model, of the configured groups, is the window
        sweep's 60-minute one and, when listed, a combination's; the
        ``IOTS+Holiday`` combination is width 0. Other configured groups
        are a third model, and the window sweep's two serve both
        combinations."""
        cfg = tmp_path / "ablate.ini"
        cfg.write_text(CONFIG.replace("model.n_trees = 8", "model.n_trees = 5") + (
            f"ablate.combos = {combos}\n"
            f"features.groups = {groups}\n"
            "ablate.window_widths_minutes = 0,60\n"
            "ablate.intervals_minutes = 60\n"
        ))
        calls = []
        real_train = gbm.train

        def counting_train(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)
        monkeypatch.setattr(gbm, "train", counting_train)
        monkeypatch.setattr(forecast, "train", counting_train)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "ablate"]) == 0
        assert len(calls) == trained
        assert len(read_csv(out / "horizon_sweep.csv")) == 2

    def test_default_ablate_trains_eleven_models(self, tmp_path, monkeypatch):
        """Eight combinations and five widths: width 0 is the ``IOTS+Holiday``
        combination's model and width 60 minutes the default groups'."""
        cfg = tmp_path / "ablate.ini"
        cfg.write_text(CONFIG)
        calls = count_model_calls(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "ablate"]) == 0
        assert calls == ["train"] * 11
        assert len(read_csv(out / "ablation.csv")) == 1 + 8
        assert len(read_csv(out / "window_sweep.csv")) == 1 + 5

    @pytest.mark.parametrize("line", [
        "ablate.intervals_minutes = 10,7",
        "ablate.window_widths_minutes = 0,7",
    ], ids=["interval", "width"])
    def test_bad_sweep_value_exits_two_after_one_model(self, tmp_path, monkeypatch, line):
        """The sweeps are checked before the combination models train."""
        cfg = tmp_path / "ablate.ini"
        cfg.write_text(CONFIG + line + "\n")
        calls = []
        real_train = gbm.train

        def counting_train(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)
        monkeypatch.setattr(gbm, "train", counting_train)
        monkeypatch.setattr(forecast, "train", counting_train)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "ablate"]) == 2
        assert len(calls) <= 1
        assert not out.exists()

    def test_window_sweep_scores_the_combination_models(self, tmp_path):
        """``grid.*`` keys drive only ``train``: widths 0 and 60 minutes are
        the ``IOTS+Holiday`` and default-groups models of ``ablation.csv``."""
        cfg = tmp_path / "ablate.ini"
        cfg.write_text(CONFIG.replace("model.n_trees = 8", "model.n_trees = 5") + (
            "ablate.combos = IOTS-MVA+MVART+Holiday;IOTS+Holiday\n"
            "ablate.window_widths_minutes = 0,60\n"
            "ablate.intervals_minutes = 60\n"
            "grid.max_depth = 2,4\n"
            "grid.n_trees = 3,8\n"
            "grid.gamma = 0.0\n"
        ))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "ablate"]) == 0
        ablation = {row[0]: row[1:] for row in read_csv(out / "ablation.csv")[1:]}
        sweep = {row[0]: row[1:] for row in read_csv(out / "window_sweep.csv")[1:]}
        assert sweep == {"0": ablation["Holiday+IOTS"],
                         "3600": ablation["Holiday+IOTS-MVA+MVART"]}
        metrics = names(stats.MetricReport)
        assert read_csv(out / "ablation.csv")[0] == ["group", *metrics]
        for table in ("window_sweep.csv", "horizon_sweep.csv"):
            assert read_csv(out / table)[0] == ["width_or_interval", *metrics]
        # The same keys drive train's grid search, whose table and chosen
        # parameters follow Hyperparams.
        assert cli.main(["--config", str(cfg), "--out", str(out), "--quiet", "train"]) == 0
        grid = read_csv(out / "grid_scores.csv")
        assert grid[0] == [*names(gbm.Hyperparams), *metrics]
        assert "lambda" in grid[0]
        assert len(grid) == 1 + 4
        params = json.loads((out / "params.json").read_text())
        assert list(params["params"]) == sorted(names(gbm.Hyperparams))
        assert params["grid_searched"] is True


class TestDiagnoseCommands:
    def test_acf_row_count(self, pipeline, tmp_path):
        cfg, _ = pipeline
        dest = tmp_path / "diag"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "diagnose", "acf")
        rows = read_csv(dest / "acf.csv")
        assert len(rows) == 32  # header + lags 0..30
        assert rows[1] == ["0", "1.0"]

    def test_adf_reports(self, pipeline, tmp_path):
        cfg, _ = pipeline
        dest = tmp_path / "adf"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "diagnose", "adf")
        rt = json.loads((dest / "adf_rt.json").read_text())
        diff = json.loads((dest / "adf_diff.json").read_text())
        assert {"statistic", "used_lags", "max_lags", "reject_at", "p_bracket"} <= set(rt)
        assert set(rt) == {"schema_version", *names(stats.AdfResult)}
        for doc in (rt, diff):
            assert 0 <= doc["used_lags"] <= doc["max_lags"]
        assert diff["reject_at"]["1%"] is True

    def test_hist_per_split(self, pipeline, tmp_path):
        cfg, _ = pipeline
        dest = tmp_path / "hist"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "diagnose", "hist")
        for name in ("hist_train.csv", "hist_val.csv", "hist_test.csv"):
            rows = read_csv(dest / name)
            assert rows[0] == ["bin", "count"]
            assert len(rows) > 1


#: The flags each explain method and diagnose check accepts, and nothing else.
ACCEPTED = {
    ("explain", "importance"): ("--model",),
    ("explain", "surrogate"): ("--model",),
    ("explain", "pdp"): ("--model", "--feature"),
    ("explain", "lime"): ("--model", "--instance", "--select", "--threshold-acc",
                          "--threshold-dev"),
    ("explain", "shap"): ("--model", "--instance", "--select", "--threshold-acc",
                          "--threshold-dev"),
    ("explain", "pffra"): ("--model", "--feature", "--split", "--protocol"),
    ("diagnose", "acf"): ("--split",),
    ("diagnose", "pacf"): ("--split",),
    ("diagnose", "adf"): ("--split",),
    ("diagnose", "hist"): (),
}
FLAG_VALUES = {
    "--model": "m.json", "--feature": "Hour", "--instance": "3",
    "--select": "accurate,deviated", "--threshold-acc": "0.1", "--threshold-dev": "1.5",
    "--split": "test", "--protocol": "rolling",
}
ALL_FLAGS = {
    "explain": tuple(FLAG_VALUES),
    "diagnose": ("--split",),
}
PAIRS = [(cmd, flag) for cmd in ACCEPTED for flag in ALL_FLAGS[cmd[0]]]


def parse(*argv):
    """``argv`` as the CLI parses it; pffra's required --feature is given
    unless ``argv`` sets it."""
    if argv[:2] == ("explain", "pffra") and "--feature" not in argv:
        argv += ("--feature", "MVART")
    return cli._build_parser().parse_args(["--out", "o", *argv])


class TestFlagsPerSubcommand:
    """Each explain method and diagnose check takes only the flags it reads;
    the parser refuses any other with exit 2 before any input is read."""

    def test_pair_counts(self):
        assert len(PAIRS) == 52
        assert sum(flag in ACCEPTED[cmd] for cmd, flag in PAIRS) == 21

    @pytest.mark.parametrize("cmd, flag", [p for p in PAIRS if p[1] in ACCEPTED[p[0]]],
                             ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
    def test_accepted_flag_is_read(self, cmd, flag):
        args = parse(*cmd, flag, FLAG_VALUES[flag])
        value = getattr(args, flag[2:].replace("-", "_"))
        assert str(value) == FLAG_VALUES[flag]

    @pytest.mark.parametrize("cmd, flag", [p for p in PAIRS if p[1] not in ACCEPTED[p[0]]],
                             ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
    def test_other_flag_is_exit_two(self, cmd, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(*cmd, flag, FLAG_VALUES[flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("explain", "shap", "--instance", "0", "--select", "accurate,deviated"),
        ("explain", "lime", "--select", "accurate,deviated", "--instance", "3"),
        ("explain", "shap", "--select", "deviated,accurate"),
        ("explain", "shap", "--select", "accurate"),
        ("explain", "pffra"),
        ("explain", "pffra", "--split", "val"),
    ], ids=["instance-0-and-select", "select-and-instance", "select-reversed",
            "select-one-case", "pffra-no-feature", "pffra-split-no-feature"])
    def test_refused_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["--out", "o", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("error:") == 1

    def test_defaults(self):
        args = parse("explain", "shap")
        assert (args.instance, args.select) == (None, None)
        args = parse("explain", "pffra")
        assert (args.split, args.protocol) == ("val", "static")
        assert parse("diagnose", "adf").split == "train"
        assert not hasattr(parse("diagnose", "hist"), "split")

    def test_benchmark_and_readme_invocations_are_accepted(self):
        perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
        sys.path.insert(0, perfbench)
        try:
            import rtbench
        finally:
            sys.path.remove(perfbench)
        readme = os.path.join(os.path.dirname(perfbench), "README.md")
        with open(readme, encoding="utf-8") as fh:
            session = [line.split()[3:] for line in fh if line.startswith("rtcast --out runs ")]
        assert len(session) == 5
        for argv in [*(argv for _, argv in rtbench.Pipeline.commands), *session]:
            cli._build_parser().parse_args(["--out", "o", *argv])

    def test_ignored_split_is_exit_two_and_writes_nothing(self, pipeline, tmp_path):
        cfg, out = pipeline
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                       "explain", "shap", "--model", str(out / "model.json"),
                       "--instance", "3", "--split", "val", check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines()[-1].endswith("error: unrecognized arguments: --split val")
        assert not dest.exists()

    def test_hist_manifest_has_no_split(self, pipeline, tmp_path):
        cfg, _ = pipeline
        dest = tmp_path / "hist"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "diagnose", "hist")
        doc = json.loads((dest / "manifest_diagnose_hist.json").read_text())
        assert doc["which"] == "hist" and "split" not in doc


class TestSplitAndIngest:
    def test_split_partitions(self, pipeline, tmp_path):
        cfg, _ = pipeline
        dest = tmp_path / "split"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "split")
        report = json.loads((dest / "split_report.json").read_text())
        n = sum(report["rows"].values())
        assert n == 20 * 144
        assert report["rows"]["train"] == int(n * 0.6)

    def test_split_by_dates(self, tmp_path):
        """Rows go by their local (UTC+2) day, a boundary day to the earlier
        part; the synthetic table starts 2017-12-08T00:00Z."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + SPLIT_DATES)
        dest = tmp_path / "split"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "split")
        report = json.loads((dest / "split_report.json").read_text())
        assert report == {
            "rows": {"train": 10 * 144, "val": 4 * 144, "test": 4 * 144},
            "boundaries": {
                "train": ["2017-12-08T22:00:00Z", "2017-12-18T21:50:00Z"],
                "val": ["2017-12-18T22:00:00Z", "2017-12-22T21:50:00Z"],
                "test": ["2017-12-22T22:00:00Z", "2017-12-26T21:50:00Z"],
            },
            "schema_version": cli.SCHEMA_VERSION,
        }

    def test_malformed_split_date_is_exit_two_naming_its_key(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + SPLIT_DATES.replace("2017-12-18", "2018-13-40"))
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet",
                       "split", check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == \
            "error: config split.train_end: unparseable date '2018-13-40'\n"
        assert not (tmp_path / "x").exists()

    def test_ingest_round_trip(self, pipeline, tmp_path):
        _, out = pipeline
        dest = tmp_path / "ing"
        run_cli("--out", str(dest), "--quiet", "ingest",
                "--csv", str(out / "synthetic.csv"))
        assert (dest / "normalized.csv").read_bytes() == \
            (out / "synthetic.csv").read_bytes()
        rep = json.loads((dest / "ingest_report.json").read_text())
        assert rep["rows"] == 20 * 144
        assert rep["interval_seconds"] == 600

    def test_manifest_records_flag_overrides(self, pipeline, tmp_path):
        _, out = pipeline
        cfg = tmp_path / "c.ini"
        cfg.write_text("data.csv = /nonexistent/a.csv\n")
        dest = tmp_path / "ing"
        real = str(out / "synthetic.csv")
        run_cli("--config", str(cfg), "--seed", "5", "--out", str(dest), "--quiet",
                "ingest", "--csv", real)
        doc = json.loads((dest / "manifest_ingest.json").read_text())
        assert doc["config"] == {"data.csv": real, "synth.seed": "5"}
        assert doc["seed"] == 5


class TestAllOrNothing:
    """A command that fails leaves ``--out`` exactly as it found it."""

    def test_train_that_would_overwrite_writes_nothing(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG)
        dest = tmp_path / "x"
        dest.mkdir()
        (dest / "params.json").write_text("{}\n")
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                       "train", check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: refusing to overwrite existing artifact {dest / 'params.json'}\n"
        )
        assert [p.name for p in dest.iterdir()] == ["params.json"]
        assert (dest / "params.json").read_text() == "{}\n"

    def test_case_selection_without_a_pair_creates_no_out_dir(self, pipeline, tmp_path):
        cfg, out = pipeline
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                       "explain", "shap", "--model", str(out / "model.json"),
                       "--select", "accurate,deviated", "--threshold-acc", "0",
                       check=False)
        assert proc.returncode == 3, proc.stderr
        assert "no accurate/deviated pair" in proc.stderr
        assert not dest.exists()

    @pytest.mark.parametrize("write", [
        lambda w: w.write_json("metrics.json", {"mse": math.inf}),
        lambda w: w.write_json("metrics.json", {"r2": [1.0, math.nan]}),
        lambda w: w.write_csv("forecast.csv", ["y"], [[1.0, np.float64("nan")]]),
        lambda w: w.write_csv("forecast.csv", ["y"], [[-math.inf]]),
        lambda w: w.finish({"data": {"mae": math.nan}}),
    ], ids=["json-inf", "json-nested-nan", "csv-numpy-nan", "csv-inf", "manifest-nan"])
    def test_non_finite_number_is_refused(self, tmp_path, write):
        dest = tmp_path / "x"
        writer = cli.ArtifactWriter(str(dest), "train",
                                    cli.PipelineConfig(out_dir=str(dest), quiet=True))
        writer.write_json("params.json", {"lr": 0.3})
        with pytest.raises(NumericError, match="would hold a non-finite number"):
            write(writer)
        assert not dest.exists()


class TestExitCodes:
    def test_missing_model_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG)
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"),
                       "--quiet", "evaluate", check=False)
        assert proc.returncode == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("no.such.key = 1\n")
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"),
                       "--quiet", "synth", check=False)
        assert proc.returncode == 2
        assert "no.such.key" in proc.stderr

    def test_malformed_holiday_file_is_exit_two(self, tmp_path):
        holidays = tmp_path / "bad_hol.txt"
        holidays.write_text("2017-12-25\nnot-a-date\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + f"features.holiday_file = {holidays}\n")
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "train",
                       check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            f"error: config features.holiday_file: cannot read {str(holidays)!r}: "
            f"{holidays}: line 2: unparseable date 'not-a-date'\n")
        assert not dest.exists()

    @pytest.mark.parametrize("what, code", [
        ("config", 2), ("schema", 2), ("csv", 3), ("holiday_file", 2), ("model", 3),
    ])
    def test_input_that_is_not_utf8_is_one_line(self, pipeline, tmp_path, what, code):
        """A 0xff byte in any file the CLI reads: exit 2 or 3, one line
        naming the file, and nothing written."""
        cfg, out = pipeline
        bad = tmp_path / f"bad_{what}"
        argv = ["--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet", "train"]
        if what == "config":
            bad.write_bytes(b"\xff\xfe = 3\n")
            argv[1] = str(bad)
        elif what == "schema":
            bad.write_bytes(b"\xff=feature\n")
            argv[-1:] = ["ingest", "--csv", str(out / "synthetic.csv"), "--schema", str(bad)]
        elif what == "csv":
            data = bytearray((out / "synthetic.csv").read_bytes())
            data[200] = 0xff
            bad.write_bytes(bytes(data))
            argv[-1:] = ["ingest", "--csv", str(bad)]
        elif what == "holiday_file":
            bad.write_bytes(b"\xff2017-12-25\n")
            config = tmp_path / "c.ini"
            config.write_text(CONFIG + f"features.holiday_file = {bad}\n")
            argv[1] = str(config)
        else:
            data = bytearray((out / "model.json").read_bytes())
            data[20] = 0xff
            bad.write_bytes(bytes(data))
            argv[-1:] = ["evaluate", "--model", str(bad)]
        proc = run_cli(*argv, check=False)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert str(bad) in proc.stderr or what == "model", proc.stderr
        assert not (tmp_path / "x").exists()

    def test_quote_that_runs_past_the_field_size_limit_is_exit_three(self, pipeline, tmp_path):
        """A stray quote at the start of a row-1 cell makes the rest of the
        202 KB file one field, past csv's 131,072-character limit."""
        _, out = pipeline
        lines = (out / "synthetic.csv").read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(",", ',"', 1)
        bad = tmp_path / "quote.csv"
        bad.write_text("".join(lines))
        proc = run_cli("--out", str(tmp_path / "x"), "--quiet", "ingest", "--csv", str(bad),
                       check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: row 1: field larger than field limit (131072)\n"
        assert not (tmp_path / "x").exists()

    def test_bad_data_is_exit_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "timestamp,RT\n"
            "2020-01-01T00:00:00Z,20.0\n"
            "2020-01-01T00:00:00Z,21.0\n"
        )
        proc = run_cli("--out", str(tmp_path / "x"), "--quiet",
                       "ingest", "--csv", str(bad), check=False)
        assert proc.returncode == 3

    @pytest.mark.parametrize("key, value", [
        ("features.horizon_steps", "48"),
        ("forecast.anchor_offset_minutes", "60"),
    ])
    def test_removed_horizon_steps_key_is_unknown(self, tmp_path, key, value):
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + f"{key} = {value}\n")
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"),
                       "--quiet", "synth", check=False)
        assert proc.returncode == 2
        assert key in proc.stderr

    @pytest.mark.parametrize("line, command", [
        ("model.gamma = nan", ["train"]),
        ("diagnose.bin_width = nan", ["diagnose", "hist"]),
        ("features.utc_offset_hours = inf", ["train"]),
    ])
    def test_non_finite_number_is_exit_two(self, tmp_path, line, command):
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + line + "\n")
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"),
                       "--quiet", *command, check=False)
        assert proc.returncode == 2, proc.stderr
        key, value = line.split(" = ")
        assert proc.stderr == f"error: config {key} must be a finite number, got {value!r}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line, command, key", [
        ("", ["train", "--groups", "IOTS-MVA+Foo"], "features.groups"),
        ("ablate.combos = IOTS;Foo", ["ablate", "--skip-sweeps"], "ablate.combos"),
        ("features.groups = IOTS+IOTS-MVA", ["train"], "features.groups"),
    ], ids=["train-flag", "ablate-combos", "train-key"])
    def test_unknown_feature_group_exits_two_before_training(self, tmp_path, line, command,
                                                            key):
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + line + "\n")
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"),
                       "--quiet", *command, check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: config {key}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field, value", [
        ("kind", "linear"),
        ("feature_index", -1),
        ("feature_index", 99),
        ("feature_index", 1.7),
        ("feature_index", True),
        ("threshold", float("nan")),
        ("threshold", "0.5"),
        ("weight", float("inf")),
        ("weight", None),
        ("gain", float("nan")),
        pytest.param("trees", {}, id="trees-object"),
        ("base_score", "1.5"),
        ("base_score", float("nan")),
        ("learning_rate", 0),
        ("learning_rate", 1.5),
        ("lambda", -1.0),
        ("gamma", False),
        ("gamma", float("inf")),
        pytest.param("base_score", 10 ** 400, id="base_score-huge-int"),
        ("feature_names", "OnOffState"),
        pytest.param("feature_names", ["OnOffState"] * 11, id="feature_names-repeated"),
        pytest.param("feature_names", list(range(11)), id="feature_names-numbers"),
    ])
    def test_invalid_model_file_is_exit_three(self, pipeline, tmp_path, field, value):
        """Each malformed field exits 3 with one line naming it."""
        cfg, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        node = doc["trees"][0]
        if field in doc:
            doc[field] = value
        elif field == "weight":
            while "weight" not in node:
                node = node["left"]
            node["weight"] = value
        else:
            node[field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet",
                       "evaluate", "--model", str(model), check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: malformed model document: ")
        assert field in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_blank_exogenous_cell_in_test_split_is_exit_three(self, pipeline, tmp_path):
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        col = rows[0].index("OutTemp")
        hole = len(rows) - 100  # inside the last 20%: the test split
        rows[hole][col] = ""
        edited = csv_config(tmp_path, rows)
        proc = run_cli("--config", str(edited), "--out", str(tmp_path / "x"), "--quiet",
                       "evaluate", "--model", str(out / "model.json"), check=False)
        assert proc.returncode == 3, proc.stderr
        assert f"'OutTempMVA' at {rows[hole][0]}" in proc.stderr

    def test_blank_rt_cell_before_a_test_anchor_is_exit_three(self, pipeline, tmp_path):
        cfg, out = pipeline
        scored = read_csv(out / "forecast_test.csv")[1:]
        first = next(r for r in scored if r[3] == "1")  # one step after anchor 1
        rows = read_csv(out / "synthetic.csv")
        hole = [r[0] for r in rows].index(first[0]) - 3  # two rows before the anchor
        rows[hole][rows[0].index("RT")] = ""
        edited = csv_config(tmp_path, rows)
        proc = run_cli("--config", str(edited), "--out", str(tmp_path / "x"), "--quiet",
                       "evaluate", "--model", str(out / "model.json"), check=False)
        assert proc.returncode == 3, proc.stderr
        assert f"'RT' at {rows[hole][0]}" in proc.stderr

    def test_blank_rt_cell_in_a_scored_test_row_is_exit_three(self, pipeline, tmp_path):
        cfg, out = pipeline
        scored = read_csv(out / "forecast_test.csv")[1:]
        sixth = scored[5]  # six steps after the first test anchor
        assert sixth[3] == "0"
        rows = read_csv(out / "synthetic.csv")
        hole = [r[0] for r in rows].index(sixth[0])
        rows[hole][rows[0].index("RT")] = ""
        edited = csv_config(tmp_path, rows)
        dest = tmp_path / "x"
        proc = run_cli("--config", str(edited), "--out", str(dest), "--quiet",
                       "evaluate", "--model", str(out / "model.json"), check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: non-finite value in column 'RT' at {sixth[0]}\n"
        assert not list(dest.glob("metrics_*.json"))

    def test_non_finite_model_input_is_exit_three(self, pipeline, tmp_path):
        """Finite cells whose training mean overflows: one error line, no
        numpy warning, before any mean-substituted row is predicted."""
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        col = rows[0].index("OnOffState")
        for r in rows[10:14]:
            r[col] = "1e308"
        edited = csv_config(tmp_path, rows)
        proc = run_cli("--config", str(edited), "--out", str(tmp_path / "x"), "--quiet",
                       "explain", "importance", "--model", str(out / "model.json"),
                       check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: training mean of column 'OnOffState' is not finite\n"

    @pytest.mark.parametrize("row, message", [
        (100, "error: training arithmetic left the float range: "),  # the train split
        (2000, "error: error metrics left the float range: "),  # the val split
    ], ids=["train-split", "val-split"])
    def test_overflowing_rt_cell_is_exit_four(self, pipeline, tmp_path, row, message):
        """A finite ``1e300`` RT cell overflows when squared: one error line,
        no numpy warning, and no artifact with NaN or Infinity."""
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        rows[row][rows[0].index("RT")] = "1e300"
        edited = csv_config(tmp_path, rows)
        dest = tmp_path / "x"
        proc = run_cli("--config", str(edited), "--out", str(dest), "--quiet", "train",
                       check=False)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    def test_adf_on_an_exact_fit_is_exit_four(self, pipeline, tmp_path):
        """RT repeating 20, 21, 22 is fitted exactly at lag 1: one error line
        naming the lag, no traceback, and nothing written."""
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        col = rows[0].index("RT")
        for i, r in enumerate(rows[1:]):
            r[col] = repr(20.0 + i % 3)
        edited = csv_config(tmp_path, rows)
        dest = tmp_path / "x"
        proc = run_cli("--config", str(edited), "--out", str(dest), "--quiet",
                       "diagnose", "adf", check=False)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == ("error: ADF fit at lag 1 is degenerate: "
                               "it fits the differenced series exactly\n")
        assert not dest.exists()

    @pytest.mark.parametrize("which", ["adf", "acf", "pacf"])
    def test_huge_finite_rt_is_exit_four(self, pipeline, tmp_path, which):
        """RT times 1e160 is finite, but its squares overflow: one error line
        naming the check, no numpy warning, and nothing written."""
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        col = rows[0].index("RT")
        for r in rows[1:]:
            r[col] = repr(float(r[col]) * 1e160)
        edited = csv_config(tmp_path, rows)
        dest = tmp_path / "x"
        proc = run_cli("--config", str(edited), "--out", str(dest), "--quiet",
                       "diagnose", which, check=False)
        assert proc.returncode == 4, proc.stderr
        message = f"error: {which.upper()} arithmetic left the float range: "
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    @pytest.mark.parametrize("key", ["rt_base", "noise_sd", "seasonal_amp"])
    def test_overflowing_synth_knob_is_exit_four(self, tmp_path, key):
        """A finite generator knob whose arithmetic overflows: one error line
        naming the generator, no numpy warning, and nothing written."""
        cfg = tmp_path / "c.ini"
        cfg.write_text(CONFIG + f"synth.{key} = 1e308\n")
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "synth",
                       check=False)
        assert proc.returncode == 4, proc.stderr
        message = "error: synthetic generator arithmetic left the float range: "
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    @pytest.mark.parametrize("factor, command, message", [
        (1e305, ["train"], "moving average of 'OutTemp'"),
        (1e160, ["explain", "surrogate"], "ridge surrogate arithmetic"),
    ], ids=["moving-average", "ridge-surrogate"])
    def test_huge_finite_outdoor_temperature_is_exit_four(self, pipeline, tmp_path, factor,
                                                          command, message):
        """OutTemp times ``factor`` is finite, but its running sum or its
        variance overflows: one error line naming the step and, for the
        smoothing, the raw column rather than OutTempMVA; nothing written."""
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        col = rows[0].index("OutTemp")
        for r in rows[1:]:
            r[col] = repr(float(r[col]) * factor)
        edited = csv_config(tmp_path, rows)
        dest = tmp_path / "x"
        model = ["--model", str(out / "model.json")] if command[0] == "explain" else []
        proc = run_cli("--config", str(edited), "--out", str(dest), "--quiet", *command,
                       *model, check=False)
        assert proc.returncode == 4, proc.stderr
        message = f"error: {message} left the float range: "
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    def test_huge_finite_base_score_is_exit_four_naming_the_tree_surrogate(self, pipeline,
                                                                            tmp_path):
        """A model that loads, whose predictions near 1e151 are finite, but
        whose tree surrogate squares their sums past the float range: one
        error line naming the fit, no numpy warning, nothing written."""
        cfg, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        doc["base_score"] = 1e151
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "explain",
                       "surrogate", "--model", str(model), check=False)
        assert proc.returncode == 4, proc.stderr
        message = "error: tree surrogate arithmetic left the float range: "
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    @pytest.mark.parametrize("protocol", ["static", "rolling"])
    @pytest.mark.parametrize("base_score", [1e304, 1e307])
    def test_huge_finite_base_score_is_exit_four_naming_the_spectrum(self, pipeline, tmp_path,
                                                                     base_score, protocol):
        """Finite predictions whose transform (1e307) or squared DC term
        (1e304) leaves the float range: one error line, nothing written."""
        cfg, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        doc["base_score"] = base_score
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "explain",
                       "pffra", "--feature", "MVART", "--protocol", protocol,
                       "--model", str(model), check=False)
        assert proc.returncode == 4, proc.stderr
        message = "error: PF-FRA spectrum arithmetic left the float range: "
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    @pytest.mark.parametrize("cell", ["", "nan", "inf", "-1e309"])
    def test_ingest_refuses_a_blank_or_non_finite_cell(self, pipeline, tmp_path, cell):
        """normalized.csv would hold it as nan or inf."""
        _, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        rows[5][rows[0].index("OutTemp")] = cell
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        dest = tmp_path / "x"
        proc = run_cli("--out", str(dest), "--quiet", "ingest", "--csv", str(src),
                       check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: non-finite value in column 'OutTemp' at {rows[5][0]}\n"
        assert not dest.exists()

    def test_overflowing_rt_cell_is_exit_four_in_hist(self, pipeline, tmp_path):
        """A finite ``1e300`` RT cell has no int64 histogram bin: one error
        line, no numpy warning, and no histogram written."""
        cfg, out = pipeline
        rows = read_csv(out / "synthetic.csv")
        rows[100][rows[0].index("RT")] = "1e300"
        edited = csv_config(tmp_path, rows)
        dest = tmp_path / "x"
        proc = run_cli("--config", str(edited), "--out", str(dest), "--quiet",
                       "diagnose", "hist", check=False)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: histogram bin of value 1e+300 ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not dest.exists()

    @pytest.mark.parametrize("command", [["evaluate"], ["explain", "importance"]],
                             ids=["evaluate", "explain-importance"])
    def test_renamed_feature_names_are_exit_three(self, pipeline, tmp_path, command):
        """Distinct names that are no feature-group selection's columns."""
        cfg, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        doc["feature_names"] = [f"f{i}" for i in range(len(doc["feature_names"]))]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet",
                       *command, "--model", str(model), check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: model feature_names ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "x").exists()

    def test_too_deep_model_file_is_exit_three(self, pipeline, tmp_path):
        cfg, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        depth = 3000
        branch = '{"feature_index": 0, "threshold": 0.5, "left": {"weight": 0.0}, "right": '
        deep = branch * depth + '{"weight": 0.0}' + "}" * depth
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**doc, "trees": []}).replace('"trees": []',
                                                                  f'"trees": [{deep}]'))
        proc = run_cli("--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet",
                       "evaluate", "--model", str(model), check=False)
        assert proc.returncode == 3, proc.stderr
        assert "malformed model document" in proc.stderr

    @pytest.mark.parametrize("protocol", ["static", "rolling"])
    @pytest.mark.parametrize("feature, groups", [("Nope", None), ("MVART", "IOTS")],
                             ids=["unknown-name", "not-in-model"])
    def test_absent_pffra_feature_is_exit_three(self, pipeline, tmp_path, feature, groups,
                                                protocol):
        """A feature the model lacks: both protocols exit 3 with one line."""
        cfg, out = pipeline
        model = out / "model.json"
        if groups:
            trained = tmp_path / "trained"
            run_cli("--config", str(cfg), "--out", str(trained), "--quiet", "train",
                    "--groups", groups)
            model = trained / "model.json"
        dest = tmp_path / "x"
        proc = run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "explain",
                       "pffra", "--feature", feature, "--protocol", protocol,
                       "--model", str(model), check=False)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: unknown feature {feature!r}\n"
        assert not dest.exists()

    def test_unknown_method_is_rejected_by_the_parser(self, tmp_path):
        proc = run_cli("--out", str(tmp_path / "x"), "--quiet",
                       "explain", "nonsense", check=False)
        assert proc.returncode == 2


def count_model_calls(monkeypatch) -> list:
    """The names of the ``gbm.load`` and ``gbm.train`` calls made from here on."""
    calls = []

    def counting(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return call
    monkeypatch.setattr(gbm, "train", counting(gbm.train))
    monkeypatch.setattr(forecast, "train", counting(forecast.train))
    monkeypatch.setattr(gbm, "load", counting(gbm.load))
    return calls


class TestForecastKeysAfterIngest:
    """An access interval or horizon that the data's sampling interval cannot
    honour exits 2 naming its key and text, right after ingest: no model
    loads or trains first."""

    @pytest.mark.parametrize("line, message", [
        ("forecast.horizon_minutes = 7",
         "config forecast.horizon_minutes = 7: 7 is not a multiple of the 600 s sampling interval"),
        ("forecast.access_minutes = 95",
         "config forecast.access_minutes = 95: "
         "95 is not a multiple of the 600 s sampling interval"),
        ("forecast.horizon_minutes = 0",
         "config forecast.horizon_minutes = 0: 0 covers less than one 600 s step"),
        ("forecast.horizon_minutes = 1450",
         "config forecast.horizon_minutes = 1450: 1450 exceeds the 1440 min access interval"),
        ("forecast.access_minutes = 60",
         "config forecast.horizon_minutes = 480: 480 exceeds the 60 min access interval"),
        ("features.utc_offset_hours = 0.1",
         "config features.utc_offset_hours = 0.1: 0.1 puts the training split's instants "
         "360 s past a local multiple of the 600 s sampling interval"),
        ("features.utc_offset_hours = -5.75",
         "config features.utc_offset_hours = -5.75: -5.75 puts the training split's instants "
         "300 s past a local multiple of the 600 s sampling interval"),
    ], ids=["horizon-7", "access-95", "horizon-0", "horizon-past-access", "access-below-horizon",
            "offset-0.1", "offset-minus-5.75"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--model", "MODEL"],
        ["explain", "importance", "--model", "MODEL"],
        ["explain", "pffra", "--feature", "MVART", "--protocol", "rolling", "--model", "MODEL"],
        ["ablate"],
    ], ids=["evaluate", "explain-importance", "explain-pffra-rolling", "ablate"])
    def test_exits_two_before_any_model(self, pipeline, tmp_path, monkeypatch, capsys,
                                        line, message, command):
        cfg, out = pipeline
        bad = tmp_path / "bad.ini"
        bad.write_text(cfg.read_text() + line + "\n")
        calls = count_model_calls(monkeypatch)
        dest = tmp_path / "x"
        argv = [str(out / "model.json") if a == "MODEL" else a for a in command]
        code = cli.main(["--config", str(bad), "--out", str(dest), "--quiet", *argv])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert calls == []
        assert not dest.exists()


class TestSweepKeysAfterIngest:
    """A sweep width or interval that the data's sampling interval cannot
    honour exits 2 naming its key, its text and the bad value, right after
    ingest: no model trains first."""

    @pytest.mark.parametrize("line, message", [
        ("ablate.window_widths_minutes = -10,60",
         "config ablate.window_widths_minutes = -10,60: -10 is negative"),
        ("ablate.window_widths_minutes = 7",
         "config ablate.window_widths_minutes = 7: "
         "7 is not a multiple of the 600 s sampling interval"),
        ("ablate.intervals_minutes = 0",
         "config ablate.intervals_minutes = 0: 0 covers less than one 600 s step"),
        ("ablate.intervals_minutes = 60,15",
         "config ablate.intervals_minutes = 60,15: "
         "15 is not a multiple of the 600 s sampling interval"),
        ("ablate.intervals_minutes = -60",
         "config ablate.intervals_minutes = -60: -60 covers less than one 600 s step"),
        ("ablate.intervals_minutes = 60,10080",
         "config ablate.intervals_minutes = 60,10080: "
         "10080 is longer than the 5750 min validation split"),
    ], ids=["width-negative", "width-7", "interval-0", "interval-15", "interval-negative",
            "interval-past-split"])
    def test_exits_two_before_any_model(self, tmp_path, monkeypatch, capsys, line, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(CONFIG + line + "\n")
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
        monkeypatch.setattr(gbm, "train", counting)
        monkeypatch.setattr(forecast, "train", counting)
        dest = tmp_path / "x"
        code = cli.main(["--config", str(cfg), "--out", str(dest), "--quiet", "ablate"])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert calls == []
        assert not dest.exists()


class TestIntervalsFitTheirSplits:
    """An access interval or window width that no split a command forecasts
    or trains on can hold exits 2 naming its key, before any model loads or
    trains."""

    ACCESS = "forecast.access_minutes = 10080\nforecast.horizon_minutes = 60\n"

    @pytest.mark.parametrize("lines, command, message", [
        (ACCESS, ["evaluate", "--model", "MODEL"],
         "config forecast.access_minutes = 10080: 10080 is longer than the 5750 min "
         "validation split"),
        (ACCESS, ["explain", "pffra", "--feature", "MVART", "--protocol", "rolling",
                  "--model", "MODEL"],
         "config forecast.access_minutes = 10080: 10080 is longer than the 5750 min "
         "validation split"),
        (ACCESS, ["explain", "shap", "--select", "accurate,deviated", "--model", "MODEL"],
         "config forecast.access_minutes = 10080: 10080 is longer than the 5750 min test split"),
        (ACCESS, ["ablate"],
         "config forecast.access_minutes = 10080: 10080 is longer than the 5750 min "
         "validation split"),
        (ACCESS, ["ablate", "--skip-sweeps"],
         "config forecast.access_minutes = 10080: 10080 is longer than the 5750 min "
         "validation split"),
        ("ablate.window_widths_minutes = 0,10080\n", ["ablate"],
         "config ablate.window_widths_minutes = 0,10080: 10080 is longer than the 5750 min "
         "validation split"),
        ("ablate.window_widths_minutes = 0,20000\n", ["ablate"],
         "config ablate.window_widths_minutes = 0,20000: 20000 is longer than the 17270 min "
         "training split"),
    ], ids=["evaluate", "explain-pffra-rolling", "explain-shap-select", "ablate",
            "ablate-skip-sweeps", "width-past-validation", "width-past-training"])
    def test_exits_two_before_any_model(self, pipeline, tmp_path, monkeypatch, capsys,
                                        lines, command, message):
        cfg, out = pipeline
        bad = tmp_path / "bad.ini"
        bad.write_text(cfg.read_text() + lines)
        calls = count_model_calls(monkeypatch)
        dest = tmp_path / "x"
        argv = [str(out / "model.json") if a == "MODEL" else a for a in command]
        code = cli.main(["--config", str(bad), "--out", str(dest), "--quiet", *argv])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        assert calls == []
        assert not dest.exists()

    MINUTES = st.one_of(st.integers(-3, 300).map(lambda steps: 10 * steps),
                        st.integers(-30, 3000))

    #: UTC offsets (s): on the 600 s grid, off it by 300 s (as +5.75 h) and by 360 s.
    OFFSETS = st.one_of(st.integers(-144, 144).map(lambda k: 600 * k),
                        st.sampled_from([20700, -20700, 360]))

    @settings(max_examples=80, deadline=None)
    @given(access=MINUTES, horizon=MINUTES, rows=st.integers(1, 400), offset=OFFSETS,
           shift=st.sampled_from([0, 300, 360]))
    @example(access=1440, horizon=480, rows=400, offset=7200, shift=0)
    @example(access=1440, horizon=480, rows=144, offset=7200, shift=0)
    @example(access=1440, horizon=480, rows=145, offset=7200, shift=0)
    @example(access=95, horizon=60, rows=400, offset=7200, shift=0)
    @example(access=1440, horizon=0, rows=400, offset=7200, shift=0)
    @example(access=-60, horizon=-60, rows=400, offset=7200, shift=0)
    @example(access=60, horizon=480, rows=400, offset=7200, shift=0)
    @example(access=1440, horizon=480, rows=400, offset=20700, shift=300)
    @example(access=1440, horizon=480, rows=400, offset=0, shift=300)
    @example(access=1440, horizon=480, rows=400, offset=360, shift=0)
    def test_cli_check_passes_exactly_when_the_forecast_does(self, small_model, synth_table,
                                                           access, horizon, rows, offset,
                                                           shift):
        """One rule: the CLI's check on the forecast keys and a rolling
        forecast over the split it names refuse the same values, on stamps
        ``shift`` s past the UTC grid."""
        split = synth_table.row_slice(0, rows)
        split = dataclasses.replace(split, timestamps=split.timestamps + shift)
        engineering = EngineeringConfig(utc_offset_hours=offset / 3600)
        cfg = cli.PipelineConfig(out_dir="unused", quiet=True, engineering=engineering,
                                 access_seconds=access * 60, horizon_seconds=horizon * 60)
        with mock.patch.object(cli, "_load_splits",
                               return_value={"train": split, "val": split, "test": split}):
            try:
                cli._forecast_splits(cfg, on=("val",))
                cli_passes = True
            except ConfigError:
                cli_passes = False
        try:
            forecast.rolling_forecast(dataclasses.replace(small_model, trees=()), split,
                                      cfg.engineering, cfg.access_seconds, cfg.horizon_seconds)
            forecast_passes = True
        except ConfigError:
            forecast_passes = False
        except DataError:
            forecast_passes = True
        assert cli_passes == forecast_passes

"""End-to-end command-line runs in a subprocess: artifacts, manifests,
determinism, and exit codes."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rtcast import cli, forecast, gbm
from rtcast.errors import NumericError

CONFIG = """\
data.source = synth
synth.days = 20
model.max_depth = 3
model.n_trees = 8
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

    def test_pffra_artifacts(self, pipeline, tmp_path):
        cfg, out = pipeline
        dest = tmp_path / "pf"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet",
                "explain", "pffra", "--model", str(out / "model.json"),
                "--feature", "MVART")
        doc = json.loads((dest / "pffra_MVART_val.json").read_text())
        assert set(doc["band_energies"]) == {"dc", "low", "mid", "high"}
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


class TestAblate:
    @pytest.mark.parametrize("combos,trained", [
        ("IOTS-MVA+MVART+Holiday;IOTS+Holiday", 4),
        ("IOTS+Holiday", 4),
    ], ids=["default-groups-listed", "default-groups-not-listed"])
    def test_each_model_is_trained_once(self, tmp_path, monkeypatch, combos, trained):
        """Two combinations and two window widths train four models; the
        horizon sweep trains the configured groups only when no combination
        already did."""
        cfg = tmp_path / "ablate.ini"
        cfg.write_text(CONFIG.replace("model.n_trees = 8", "model.n_trees = 5") + (
            f"ablate.combos = {combos}\n"
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


class TestSplitAndIngest:
    def test_split_partitions(self, pipeline, tmp_path):
        cfg, _ = pipeline
        dest = tmp_path / "split"
        run_cli("--config", str(cfg), "--out", str(dest), "--quiet", "split")
        report = json.loads((dest / "split_report.json").read_text())
        n = sum(report["rows"].values())
        assert n == 20 * 144
        assert report["rows"]["train"] == int(n * 0.6)

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
        lambda w: w.write_csv("forecast.csv", ["y"], [[1.0], [np.float64("nan")]]),
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

    def test_unknown_method_is_rejected_by_the_parser(self, tmp_path):
        proc = run_cli("--out", str(tmp_path / "x"), "--quiet",
                       "explain", "nonsense", check=False)
        assert proc.returncode == 2

"""Configuration handling and end-to-end runs of the command-line pipeline."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import outagebn
from outagebn import bayesnet, ingest, synthgen
from outagebn.cli import (PipelineConfig, _binned_evidence, _parse_grid,
                          build_config, build_parser, main)


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("bins", 1),
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("laplace", 0.0),
        ("downsample_ratio", 0.0),
        ("smote_target", -0.5),
        ("smote_k", 0),
        ("validation_fraction", 0.0),
        ("validation_fraction", 1.0),
        ("ci_method", "fisher"),
    ])
    def test_validate_rejects(self, field, value):
        cfg = PipelineConfig(**{field: value})
        with pytest.raises(ValueError):
            cfg.validate()

    def test_require_seed(self):
        with pytest.raises(ValueError, match="--seed"):
            PipelineConfig().require_seed()
        assert PipelineConfig(seed=3).require_seed() == 3

    def test_grid_range_syntax(self):
        assert _parse_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_grid_list_syntax(self):
        assert _parse_grid("0.1,0.5,0.9") == (0.1, 0.5, 0.9)

    def test_grid_bad_forms(self):
        with pytest.raises(ValueError):
            _parse_grid("0:1")
        with pytest.raises(ValueError):
            _parse_grid("0:1:0")

    def test_flags_override_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha": 0.01, "bins": 8}))
        parser = build_parser()
        args = parser.parse_args(["learn", "--config", str(cfg_path),
                                  "--alpha", "0.2", "--seed", "1",
                                  "--weather", "w", "--outages", "o",
                                  "--model", "m"])
        cfg = build_config(args)
        assert cfg.alpha == 0.2       # flag wins
        assert cfg.bins == 8          # file beats default
        assert cfg.laplace == 1.0     # default survives

    def test_config_file_grid_forms(self, tmp_path):
        as_str = tmp_path / "a.json"
        as_str.write_text(json.dumps({"threshold_grid": "0:1:0.5"}))
        as_list = tmp_path / "b.json"
        as_list.write_text(json.dumps({"threshold_grid": [0.2, 0.4]}))
        parser = build_parser()
        base = ["learn", "--seed", "1", "--weather", "w", "--outages", "o",
                "--model", "m"]
        cfg_a = build_config(parser.parse_args([*base, "--config", str(as_str)]))
        cfg_b = build_config(parser.parse_args([*base, "--config", str(as_list)]))
        assert cfg_a.threshold_grid == (0.0, 0.5, 1.0)
        assert cfg_b.threshold_grid == (0.2, 0.4)

    def test_unknown_config_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alhpa": 0.01}))
        parser = build_parser()
        args = parser.parse_args(["learn", "--config", str(cfg_path),
                                  "--seed", "1", "--weather", "w",
                                  "--outages", "o", "--model", "m"])
        with pytest.raises(ValueError, match="unknown config key"):
            build_config(args)


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """One small generated scenario plus a learned model, shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    weather = root / "weather.csv"
    outages = root / "outages.csv"
    model = root / "model.json"
    dot = root / "graph.dot"
    rc = main(["gen", "--seed", "5", "--hours", "4000", "--factors", "4",
               "--parents", "F1,F2", "--outage-rate", "0.02",
               "--out-weather", str(weather), "--out-outages", str(outages)])
    assert rc == 0
    rc = main(["learn", "--seed", "5", "--weather", str(weather),
               "--outages", str(outages), "--model", str(model),
               "--dot", str(dot)])
    assert rc == 0
    return root


class TestGen:
    def test_files_and_flags(self, scenario_dir):
        with open(scenario_dir / "weather.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["timestamp", "F1", "F2", "F3", "F4"]
        with open(scenario_dir / "outages.csv") as fh:
            rows = list(csv.DictReader(fh))
        flags = {r["weather_related"] for r in rows}
        assert flags == {"0", "1"}
        n_weather = sum(r["weather_related"] == "1" for r in rows)
        assert n_weather == len(rows) - n_weather  # decoys match 1:1

    def test_missing_seed_fails(self, tmp_path, capsys):
        rc = main(["gen", "--hours", "100",
                   "--out-weather", str(tmp_path / "w.csv"),
                   "--out-outages", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "--seed is mandatory" in capsys.readouterr().err

    def test_unreachable_rate_fails(self, tmp_path, capsys):
        rc = main(["gen", "--seed", "1", "--hours", "200",
                   "--outage-rate", "0.6",
                   "--out-weather", str(tmp_path / "w.csv"),
                   "--out-outages", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error during generate" in err

    def test_truth_model_roundtrips(self, tmp_path):
        truth_path = tmp_path / "truth.json"
        rc = main(["gen", "--seed", "2", "--hours", "500", "--factors", "3",
                   "--parents", "F1", "--outage-rate", "0.05",
                   "--out-weather", str(tmp_path / "w.csv"),
                   "--out-outages", str(tmp_path / "o.csv"),
                   "--out-truth", str(truth_path)])
        assert rc == 0
        bn, nb = bayesnet.load_model(truth_path)
        assert bn.target == "outage"
        assert nb is None
        assert bn.dag.parents["outage"] == ["F1"]
        _, truth = synthgen.weather_outage_scenario(synthgen.ScenarioSpec(
            n_factors=3, hours=500, outage_parents=("F1",), outage_rate=0.05,
            seed=2))
        for node, cpt in truth.cpts.items():
            for part in ("configs", "rows", "default", "table"):
                assert np.array_equal(getattr(bn.cpts[node], part),
                                      getattr(cpt, part))


class TestLearn:
    def test_model_and_dot_written(self, scenario_dir):
        doc = json.loads((scenario_dir / "model.json").read_text())
        assert doc["format"] == "outagebn-model"
        assert doc["target"] == "outage"
        dot = (scenario_dir / "graph.dot").read_text()
        assert dot.startswith("digraph")

    def test_stdout_lists_edges(self, scenario_dir, capsys, tmp_path):
        rc = main(["learn", "--seed", "5",
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "learned graph over 5 variables:" in out
        assert "->" in out
        assert "model written to" in out

    def test_deterministic_model_bytes(self, scenario_dir, tmp_path):
        m2 = tmp_path / "m2.json"
        rc = main(["learn", "--seed", "5",
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--model", str(m2)])
        assert rc == 0
        assert m2.read_bytes() == (scenario_dir / "model.json").read_bytes()

    def test_seed_changes_model(self, scenario_dir, tmp_path):
        m2 = tmp_path / "m2.json"
        rc = main(["learn", "--seed", "6",
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--model", str(m2)])
        assert rc == 0
        assert m2.read_bytes() != (scenario_dir / "model.json").read_bytes()

    def test_smote_disabled(self, scenario_dir, tmp_path):
        rc = main(["learn", "--seed", "5", "--smote-target", "0",
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 0

    def test_fit_on_raw(self, scenario_dir, tmp_path):
        rc = main(["learn", "--seed", "5", "--fit-on-raw",
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["format"] == "outagebn-model"

    def test_no_positive_labels_fails_in_rebalance(self, scenario_dir,
                                                   tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,weather_related\n")
        rc = main(["learn", "--seed", "5",
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(empty),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 1
        assert "error during rebalance" in capsys.readouterr().err


class TestPredict:
    def test_scores_training_weather(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(scenario_dir / "model.json"),
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4000
        probs = np.array([float(r["p_outage"]) for r in rows])
        assert np.all((probs >= 0) & (probs <= 1))
        assert rows[0]["timestamp"].endswith("Z")

    def test_deterministic_bytes(self, scenario_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = main(["predict", "--model", str(scenario_dir / "model.json"),
                       "--weather", str(scenario_dir / "weather.csv"),
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_is_the_per_hour_repr(self, scenario_dir, tmp_path):
        # the probabilities go to the writer as distinct values plus an
        # index; the file is the one the per-hour column gives
        out, plain = tmp_path / "preds.csv", tmp_path / "plain.csv"
        assert main(["predict", "--model", str(scenario_dir / "model.json"),
                     "--weather", str(scenario_dir / "weather.csv"),
                     "--out", str(out)]) == 0
        bn, _ = bayesnet.load_model(scenario_dir / "model.json")
        table = ingest.interpolate_missing(
            ingest.parse_weather_csv(scenario_dir / "weather.csv"))
        probs = bayesnet.predict_rows(bn, *_binned_evidence(bn, table))[:, 1]
        ingest.write_text_columns(plain, ["timestamp", "p_outage"],
                                  table.timestamps, [probs])
        assert out.read_bytes() == plain.read_bytes()

    def test_wrong_columns_fail_in_ingest(self, scenario_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,A,B\n2020-01-01T00:00:00Z,1.0,2.0\n")
        rc = main(["predict", "--model", str(scenario_dir / "model.json"),
                   "--weather", str(bad), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "error during ingest" in capsys.readouterr().err

    def test_foreign_model_rejected(self, scenario_dir, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"weights": [1, 2, 3]}))
        rc = main(["predict", "--model", str(bogus),
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "error during load-model" in capsys.readouterr().err

    def test_old_model_version_rejected(self, scenario_dir, tmp_path, capsys):
        # a version 1 file held one dense "table" per node
        old = tmp_path / "v1.json"
        old.write_text(json.dumps({
            "format": "outagebn-model", "version": 1, "target": "outage",
            "nodes": ["F1", "outage"],
            "parents": {"F1": [], "outage": ["F1"]},
            "cardinalities": {"F1": 2, "outage": 2},
            "cpts": {"F1": {"parents": [], "table": [[0.5, 0.5]]},
                     "outage": {"parents": ["F1"],
                                "table": [[0.9, 0.1], [0.6, 0.4]]}}}))
        for argv in (["predict", "--out", str(tmp_path / "p.csv")],
                     ["eval", "--seed", "5", "--report", str(tmp_path / "r.csv"),
                      "--outages", str(scenario_dir / "outages.csv")]):
            rc = main([*argv, "--model", str(old),
                       "--weather", str(scenario_dir / "weather.csv")])
            assert rc == 1
            err = capsys.readouterr().err
            assert "error during load-model" in err and "re-run `learn`" in err


class TestEval:
    def test_reports_written(self, scenario_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        baseline = tmp_path / "baseline.csv"
        rc = main(["eval", "--seed", "5",
                   "--model", str(scenario_dir / "model.json"),
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--report", str(report),
                   "--baseline-report", str(baseline)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model: best_f1=" in out
        assert "naive-bayes baseline: best_f1=" in out
        with open(report) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["threshold", "tp", "fp", "tn", "fn",
                          "precision", "recall", "f1"]
        assert baseline.exists()

    def test_deterministic_bytes(self, scenario_dir, tmp_path):
        a, b = tmp_path / "ra.csv", tmp_path / "rb.csv"
        for report in (a, b):
            rc = main(["eval", "--seed", "5",
                       "--model", str(scenario_dir / "model.json"),
                       "--weather", str(scenario_dir / "weather.csv"),
                       "--outages", str(scenario_dir / "outages.csv"),
                       "--report", str(report)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_grid_restricts_thresholds(self, scenario_dir, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(["eval", "--seed", "5", "--threshold-grid", "0.25,0.75",
                   "--model", str(scenario_dir / "model.json"),
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--report", str(report)])
        assert rc == 0
        with open(report) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["threshold"]) for r in rows] == [0.25, 0.75]


class TestStartup:
    # Runs one command in a fresh interpreter and prints whether scipy and
    # scipy.spatial were loaded by the time it returned.
    PROBE = ("import sys\n"
             "from outagebn.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('scipy loaded:', 'scipy' in sys.modules,\n"
             "      'scipy.spatial' in sys.modules)\n"
             "sys.exit(code)\n")

    def run(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(outagebn.__file__).parents[1]), env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_no_command_loads_scipy(self, tmp_path):
        w, o, m = tmp_path / "w.csv", tmp_path / "o.csv", tmp_path / "m.json"
        assert self.run(["gen", "--seed", "5", "--hours", "3000", "--factors", "3",
                         "--parents", "F1", "--outage-rate", "0.02",
                         "--out-weather", w, "--out-outages", o]) == \
            "scipy loaded: False False"
        # the CI tests compute their chi-square tail with math, and SMOTE its
        # distances with numpy
        assert self.run(["learn", "--seed", "5", "--weather", w, "--outages", o,
                         "--model", m]) == "scipy loaded: False False"
        assert self.run(["predict", "--model", m, "--weather", w,
                         "--out", tmp_path / "p.csv"]) == "scipy loaded: False False"
        assert self.run(["eval", "--seed", "5", "--model", m, "--weather", w,
                         "--outages", o, "--report", tmp_path / "r.csv",
                         "--baseline-report", tmp_path / "b.csv"]) == \
            "scipy loaded: False False"


class TestBinnedEvidence:
    def test_peak_memory_is_codes_plus_one_column(self):
        hours = 100_000
        table, truth = synthgen.weather_outage_scenario(
            synthgen.ScenarioSpec(hours=hours, seed=5))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            rows, cols = _binned_evidence(truth, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert rows.shape == (hours, 6) and rows.dtype == np.int64
        one_float_column = hours * np.dtype(np.float64).itemsize
        assert peak - before < rows.nbytes + one_float_column

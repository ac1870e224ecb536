"""Configuration handling and end-to-end runs of the command-line pipeline."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import outagebn
from outagebn import bayesnet, cli, ingest, pcalg, preprocess, synthgen
from outagebn.cli import PipelineConfig, _parse_grid, build_config, build_parser, main


def model_codes(bn, table) -> preprocess.DiscreteDataset:
    """``table``'s factor hours coded as ``predict`` and ``eval`` code them."""
    return preprocess.coded_hours(table, {c: bn.bin_edges[c] for c in bn.dag.nodes
                                          if c != bn.target})


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("bins", 1),
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("laplace", 0.0),
        ("laplace", float("inf")),  # every table would be NaN
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

    SYNTAX = ("must be start:stop:step with a positive step, or a comma-separated list "
              "of numbers, not ")

    @pytest.mark.parametrize("grid", ["0.5,x", "0:1", "0:1:0", "0:1:nan", "-inf:1:0.1", ""])
    def test_a_bad_grid_flag_names_the_flag_and_the_syntax(self, tmp_path, capsys, grid):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--seed", "5", "--model", "m", "--weather", "w", "--outages", "o",
                  "--report", str(tmp_path / "r.csv"), f"--threshold-grid={grid}"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --threshold-grid: {self.SYNTAX}{grid!r}\n")

    @pytest.mark.parametrize("grid", ["0.5,x", "0:1", "0:1:-0.5"])
    def test_a_bad_grid_in_a_config_file_names_the_setting_and_the_syntax(
            self, tmp_path, capsys, grid):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"threshold_grid": grid}))
        rc = main(["eval", "--config", str(cfg_path), "--seed", "5", "--model", "m",
                   "--weather", "w", "--outages", "o", "--report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: threshold_grid {self.SYNTAX}{grid!r}\n"

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

    # the settings flags of each subcommand: those of the settings it reads
    SETTINGS = {
        "gen": {"--config", "--seed", "--bins", "--target"},
        "learn": {"--config", "--seed", "--alpha", "--bins", "--laplace", "--downsample-ratio",
                  "--smote-target", "--smote-k", "--target", "--fit-on-raw", "--ci-method"},
        "predict": set(),
        "eval": {"--config", "--seed", "--threshold-grid", "--validation-fraction"},
    }
    FILES = {
        "gen": {"--hours", "--factors", "--parents", "--outage-rate", "--out-weather",
                "--out-outages", "--out-truth"},
        "learn": {"--weather", "--outages", "--model", "--dot"},
        "predict": {"--model", "--weather", "--out"},
        "eval": {"--model", "--weather", "--outages", "--report", "--baseline-report"},
    }

    @pytest.mark.parametrize("command", ["gen", "learn", "predict", "eval"])
    def test_each_subcommand_takes_the_settings_it_reads(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert flags == {"-h", "--help"} | self.FILES[command] | self.SETTINGS[command]

    @pytest.mark.parametrize("argv", [
        ["predict", "--seed", "7", "--model", "m", "--weather", "w", "--out", "o"],
        ["gen", "--alpha", "0.1", "--seed", "7", "--out-weather", "w", "--out-outages", "o"],
    ], ids=["predict-seed", "gen-alpha"])
    def test_a_setting_the_command_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err

    # what a config file must give for each setting, as the error names it
    EXPECTED = {"fit_on_raw": "true or false", "alpha": "a number", "bins": "an integer",
                "smote_target": "a number", "seed": "an integer", "laplace": "a number",
                "ci_method": "a string", "threshold_grid": "a grid string or a list of numbers"}

    @pytest.mark.parametrize("doc", [
        {"fit_on_raw": "false"}, {"alpha": "0.1"}, {"bins": "8"}, {"smote_target": "1"},
        {"seed": 7.9}, {"bins": True}, {"laplace": False}, {"ci_method": 1},
        {"threshold_grid": ["0.5"]}, {"threshold_grid": 0.5}, {"alpha": None},
    ])
    def test_config_values_must_have_the_setting_type(self, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(["learn", "--config", str(cfg_path), "--seed", "1",
                   "--weather", str(tmp_path / "w.csv"), "--outages", str(tmp_path / "o.csv"),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        key, value = next(iter(doc.items()))
        assert err == f"error: {key} must be {self.EXPECTED[key]}, not {json.dumps(value)}\n"

    def test_a_config_file_that_is_not_json_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{'seed': 7}")
        rc = main(["learn", "--config", str(cfg_path),
                   "--weather", str(tmp_path / "w.csv"), "--outages", str(tmp_path / "o.csv"),
                   "--model", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: config file {cfg_path} is not JSON (Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1))\n")

    def test_config_float_settings_take_ints_and_null_keeps_a_none_default(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"laplace": 2, "smote_target": 0, "seed": None,
                                        "threshold_grid": None}))
        args = build_parser().parse_args(["eval", "--config", str(cfg_path), "--model", "m",
                                          "--weather", "w", "--outages", "o", "--report", "r"])
        cfg = build_config(args)
        assert (cfg.laplace, cfg.smote_target, cfg.seed, cfg.threshold_grid) == (2, 0, None, None)


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
    @pytest.mark.parametrize("flags,given", [
        ([], {}),
        (["--hours", "50", "--factors", "3", "--parents", "F3,,F1", "--outage-rate", "0.1"],
         {"hours": 50, "n_factors": 3, "outage_parents": ("F3", "F1"), "outage_rate": 0.1}),
    ], ids=["defaults", "flags"])
    def test_scenario_flags_left_out_keep_the_spec_defaults(self, monkeypatch, flags, given):
        specs = []
        monkeypatch.setattr(cli, "cmd_gen", lambda spec, *files: specs.append(spec) or 0)
        assert main(["gen", "--seed", "7", "--out-weather", "w", "--out-outages", "o",
                     *flags]) == 0
        assert specs == [synthgen.ScenarioSpec(seed=7, **given)]

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

    def test_baseline_report_needs_a_baseline(self, scenario_dir, tmp_path, capsys):
        # a truth model from gen carries no baseline network; eval refuses
        # before it reads the weather and writes neither report
        truth = tmp_path / "truth.json"
        assert main(["gen", "--seed", "3", "--hours", "2000", "--factors", "4",
                     "--parents", "F1,F2", "--out-weather", str(tmp_path / "w.csv"),
                     "--out-outages", str(tmp_path / "o.csv"),
                     "--out-truth", str(truth)]) == 0
        capsys.readouterr()
        report, baseline = tmp_path / "r.csv", tmp_path / "tb.csv"
        rc = main(["eval", "--seed", "5", "--model", str(truth),
                   "--weather", str(scenario_dir / "weather.csv"),
                   "--outages", str(scenario_dir / "outages.csv"),
                   "--report", str(report), "--baseline-report", str(baseline)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error during load-model" in err
        assert f"model file {truth} holds no baseline" in err
        assert not report.exists() and not baseline.exists()

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
        ds = model_codes(bn, table)
        probs = bayesnet.predict_rows(bn, ds.rows, ds.columns)[:, 1]
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


    def test_malformed_table_rejected(self, scenario_dir, tmp_path, capsys):
        doc = json.loads((scenario_dir / "model.json").read_text())
        entry = doc["cpts"][doc["target"]]
        entry["row_of"][0] = len(entry["counts"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(bad),
                   "--weather", str(scenario_dir / "weather.csv"), "--out", str(out)])
        assert rc == 1
        assert (f"error during load-model: model file {bad}, node {doc['target']!r}: "
                "row_of holds an index outside") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["target", "cycle"])
    def test_malformed_document_rejected_at_load(self, scenario_dir, tmp_path, capsys, defect):
        # an unknown target used to fail in ingest, asking for a weather column
        # of that name; a cycle used to predict and exit 0
        doc = json.loads((scenario_dir / "model.json").read_text())
        if defect == "target":
            doc["target"], message = "storm", "its target 'storm' is not one of its nodes"
        else:
            doc["cpts"]["F1"]["parents"] = [doc["target"]]
            message = "the parents in its 'cpts' tables form a cycle"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(bad),
                   "--weather", str(scenario_dir / "weather.csv"), "--out", str(out)])
        assert rc == 1
        assert f"error during load-model: model file {bad}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestBinEdges:
    @pytest.mark.parametrize("change", ["deleted", "three", "reversed"])
    def test_factor_edges_must_fit_its_cardinality(self, scenario_dir, tmp_path, capsys,
                                                   change):
        doc = json.loads((scenario_dir / "model.json").read_text())
        assert len(doc["bin_edges"]["F1"]) == 9
        if change == "deleted":
            del doc["bin_edges"]
        elif change == "three":
            doc["bin_edges"]["F1"] = doc["bin_edges"]["F1"][:3]
        else:
            doc["bin_edges"]["F1"].reverse()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        weather, outages = str(scenario_dir / "weather.csv"), str(scenario_dir / "outages.csv")
        out, report = tmp_path / "p.csv", tmp_path / "r.csv"
        for argv in (["predict", "--out", str(out)],
                     ["eval", "--seed", "5", "--outages", outages, "--report", str(report)]):
            assert main([*argv, "--model", str(bad), "--weather", weather]) == 1
            fault = "it has no bin edges, so its hours cannot be coded" \
                if change == "deleted" else "its bin edges are not 9 numbers in ascending order"
            assert capsys.readouterr().err == (
                f"error during load-model: model file {bad}, node 'F1': {fault}\n")
        assert not out.exists() and not report.exists()

    def test_a_one_state_factor_needs_no_edges(self, tmp_path, capsys):
        # its one state codes every hour, so its empty edge list is whole
        ds = preprocess.attach_label_column(preprocess.DiscreteDataset(
            columns=["a", "b"], rows=np.array([[0, k % 2] for k in range(6)]),
            labels=np.array([0, 1, 0, 0, 1, 1], dtype=np.uint8),
            bin_edges=[np.array([]), np.array([0.5])]))
        bn = bayesnet.fit_cpts(pcalg.naive_bayes_dag(ds.columns, "outage"), ds, 1.0)
        model, weather, out = tmp_path / "m.json", tmp_path / "w.csv", tmp_path / "p.csv"
        bayesnet.save_model(bn, model)
        assert json.loads(model.read_text())["bin_edges"]["a"] == []
        stamps = np.datetime64("2021-03-01T00", "us") + np.arange(2) * ingest.HOUR
        ingest.write_weather_csv(
            ingest.RawWeatherTable(stamps, {"a": [5.0, -5.0], "b": [0.0, 1.0]}), weather)
        assert main(["predict", "--model", str(model), "--weather", str(weather),
                     "--out", str(out)]) == 0
        with out.open() as fh:
            probs = [float(r["p_outage"]) for r in csv.DictReader(fh)]
        assert probs == [bayesnet.posterior_target(bn, {"a": 0, "b": b})[1] for b in (0, 1)]
        capsys.readouterr()

    def test_a_nan_edge_of_a_two_state_factor_is_refused(self, scenario_dir, tmp_path, capsys):
        # one edge is ascending on its own, so only the load's finiteness check sees it
        model = tmp_path / "m2.json"
        assert main(["learn", "--seed", "5", "--bins", "2", "--model", str(model),
                     "--weather", str(scenario_dir / "weather.csv"),
                     "--outages", str(scenario_dir / "outages.csv")]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        assert len(doc["bin_edges"]["F1"]) == 1
        doc["bin_edges"]["F1"] = [math.nan]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(bad), "--weather",
                     str(scenario_dir / "weather.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error during load-model: model file {bad}, "
                                           "node 'F1': its bin edges are not finite numbers\n")
        assert not out.exists()

    def test_a_non_numeric_edge_names_the_file_and_node(self, scenario_dir, tmp_path, capsys):
        doc = json.loads((scenario_dir / "model.json").read_text())
        doc["bin_edges"]["F2"][4] = "x"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--weather",
                     str(scenario_dir / "weather.csv"), "--out", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err == (f"error during load-model: model file {bad}, "
                                           "node 'F2': its bin edges are not numbers\n")


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

    @pytest.mark.parametrize("grid,doc,message", [
        ("1:0:0.1", None, "threshold grid is empty"),
        ("0.5,0.2", None, "threshold grid must be strictly ascending"),
        ("0,1.5", None, "threshold grid must lie within [0, 1]"),
        (None, {"threshold_grid": []}, "threshold grid is empty"),
    ], ids=["empty-range", "descending", "past-one", "empty-file-list"])
    def test_bad_grid_is_refused_before_any_file_is_read(self, scenario_dir, tmp_path,
                                                         capsys, grid, doc, message):
        argv = ["eval", "--seed", "5", "--model", str(scenario_dir / "model.json"),
                "--weather", str(tmp_path / "missing.csv"),
                "--outages", str(scenario_dir / "outages.csv"),
                "--report", str(tmp_path / "r.csv")]
        if grid is not None:
            argv += ["--threshold-grid", grid]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_one_config_file_drives_learn_and_eval(self, scenario_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5, "alpha": 0.01,
                                        "threshold_grid": [0.25, 0.5, 0.75]}))
        data = ["--weather", str(scenario_dir / "weather.csv"),
                "--outages", str(scenario_dir / "outages.csv")]
        model, flagged = tmp_path / "m.json", tmp_path / "flagged.json"
        assert main(["learn", "--config", str(cfg_path), *data, "--model", str(model)]) == 0
        assert main(["learn", "--seed", "5", "--alpha", "0.01", *data,
                     "--model", str(flagged)]) == 0
        assert model.read_bytes() == flagged.read_bytes()
        report, flagged_report = tmp_path / "r.csv", tmp_path / "flagged.csv"
        assert main(["eval", "--config", str(cfg_path), "--model", str(model), *data,
                     "--report", str(report)]) == 0
        assert main(["eval", "--seed", "5", "--threshold-grid", "0.25,0.5,0.75",
                     "--model", str(model), *data, "--report", str(flagged_report)]) == 0
        assert report.read_bytes() == flagged_report.read_bytes()
        with open(report) as fh:
            assert [float(r["threshold"]) for r in csv.DictReader(fh)] == [0.25, 0.5, 0.75]


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


class TestCodedHours:
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
            rows = model_codes(truth, table).rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert rows.shape == (hours, 6) and rows.dtype == np.uint8
        one_float_column = hours * np.dtype(np.float64).itemsize
        assert peak - before < rows.nbytes + one_float_column

"""Command-line pipeline: gen, learn, predict, eval.

``learn`` runs ingestion, discretization, rebalancing, structure
discovery, and table fitting, persisting a model JSON plus a DOT render
of the learned graph. ``predict`` scores hourly weather with a saved
model, ``eval`` sweeps decision thresholds on labeled data, and ``gen``
writes synthetic scenario CSVs. Every stochastic step requires an
explicit seed and all outputs are byte-stable for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

# citest, evalmetrics and synthgen are imported by the one command that
# runs them
from . import bayesnet, ingest, pcalg, preprocess


@dataclass
class PipelineConfig:
    bins: int = 10
    alpha: float = 0.05
    laplace: float = 1.0
    downsample_ratio: float = 10.0
    smote_target: float = 1.0
    smote_k: int = 5
    seed: int | None = None
    threshold_grid: tuple[float, ...] | None = None
    validation_fraction: float = 0.05
    target: str = "outage"
    fit_on_raw: bool = False
    ci_method: str = "g2"

    def validate(self) -> None:
        if self.bins < 2:
            raise ValueError("bins must be at least 2")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.laplace <= 0:
            raise ValueError("laplace must be positive")
        if self.downsample_ratio <= 0:
            raise ValueError("downsample-ratio must be positive")
        if self.smote_target < 0:
            raise ValueError("smote-target must be nonnegative")
        if self.smote_k < 1:
            raise ValueError("smote-k must be at least 1")
        if not 0 < self.validation_fraction < 1:
            raise ValueError("validation-fraction must lie in (0, 1)")
        if self.ci_method not in ("g2", "pearson"):
            raise ValueError("ci-method must be g2 or pearson")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError("this subcommand is stochastic; --seed is mandatory")
        return int(self.seed)


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:step' or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(round((stop - start) / step))
        values = tuple(round(start + i * step, 12) for i in range(count + 1)
                       if start + i * step <= stop + 1e-12)
        return values
    return tuple(float(p) for p in text.split(","))


def _load_config_file(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    if isinstance(doc.get("threshold_grid"), str):
        doc["threshold_grid"] = _parse_grid(doc["threshold_grid"])
    elif isinstance(doc.get("threshold_grid"), list):
        doc["threshold_grid"] = tuple(float(v) for v in doc["threshold_grid"])
    return doc


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge precedence: command-line flags over config file over defaults."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **_load_config_file(args.config))
    overrides = {}
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def _derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@contextmanager
def _stage(name: str):
    # tags errors with the pipeline step they came from
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"error during {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _ingest_labeled(weather_path, outage_path, schema=None) -> ingest.TimeSeriesTable:
    raw = ingest.parse_weather_csv(weather_path, schema)
    table = ingest.interpolate_missing(raw)
    events = ingest.parse_outage_csv(outage_path)
    return ingest.attach_outage_labels(table,
                                       events.timestamps[events.weather_related])


def _rebalance(ds: preprocess.DiscreteDataset, cfg: PipelineConfig,
               seed: int) -> preprocess.DiscreteDataset:
    out = preprocess.downsample_majority(ds, cfg.downsample_ratio,
                                         _derived_seed(seed, 1))
    if cfg.smote_target > 0:
        counts = np.bincount(out.labels, minlength=2)
        n_major = int(counts.max())
        want = int(round(cfg.smote_target * n_major))
        out = preprocess.smote_upsample(out, want, cfg.smote_k,
                                        _derived_seed(seed, 2))
    return out


def cmd_learn(cfg: PipelineConfig, weather_path, outage_path, model_path,
              dot_path=None) -> int:
    from . import citest

    seed = cfg.require_seed()
    with _stage("ingest"):
        table = _ingest_labeled(weather_path, outage_path)
    with _stage("discretize"):
        ds = preprocess.discretize(table, cfg.bins)
    with _stage("rebalance"):
        balanced = _rebalance(ds, cfg, seed)
    with _stage("structure"):
        augmented = preprocess.attach_label_column(balanced, cfg.target)
        # the callable, with its coded conditioning sets, dies with the search
        dag = pcalg.learn_structure(
            citest.dataset_ci(augmented, cfg.alpha, method=cfg.ci_method),
            augmented.columns, cfg.target)
    with _stage("fit"):
        fit_ds = preprocess.attach_label_column(ds, cfg.target) if cfg.fit_on_raw \
            else augmented
        bn = bayesnet.fit_cpts(dag, fit_ds, cfg.laplace)
        baseline = bayesnet.fit_cpts(pcalg.naive_bayes_dag(fit_ds.columns, cfg.target),
                                     fit_ds, cfg.laplace)
    with _stage("write"):
        bayesnet.save_model(bn, model_path, baseline=baseline)
        if dot_path is not None:
            with open(dot_path, "w") as fh:
                fh.write(pcalg.to_dot(dag))
    print(f"learned graph over {len(dag.nodes)} variables:")
    for a, b in dag.edges():
        tag = dag.provenance.get((a, b), "?")
        print(f"  {a} -> {b}  [{tag}]")
    print(f"model written to {model_path}")
    return 0


def _binned_evidence(bn: bayesnet.BayesianNetwork,
                     table: ingest.TimeSeriesTable) -> tuple[np.ndarray, list[str]]:
    factor_cols = [n for n in bn.dag.nodes if n != bn.target]
    edges = [np.asarray(bn.bin_edges[c], dtype=float) for c in factor_cols]
    columns = [table.factors[c] for c in factor_cols]
    return preprocess.apply_bins(edges, columns), factor_cols


def cmd_predict(cfg: PipelineConfig, model_path, weather_path, out_path) -> int:
    with _stage("load-model"):
        bn, _ = bayesnet.load_model(model_path)
        if bn.target is None:
            raise ValueError("model has no target node")
        factor_cols = [n for n in bn.dag.nodes if n != bn.target]
    with _stage("ingest"):
        raw = ingest.parse_weather_csv(weather_path, schema=factor_cols)
        table = ingest.interpolate_missing(raw)
    with _stage("predict"):
        rows, cols = _binned_evidence(bn, table)
        probs = bayesnet.predict_rows(bn, rows, cols)[:, 1]
    with _stage("write"):
        # hours share few distinct probabilities, so each is formatted once;
        # distinct bit patterns keep -0.0 and 0.0 apart
        bits, index = np.unique(probs.view(np.uint64), return_inverse=True)
        ingest.write_text_columns(out_path, [ingest.TIMESTAMP_COLUMN, "p_outage"],
                                  table.timestamps, [(bits.view(np.float64), index)])
    print(f"wrote {len(probs)} hourly probabilities to {out_path}")
    return 0


def cmd_eval(cfg: PipelineConfig, model_path, weather_path, outage_path,
             report_path, baseline_report_path=None) -> int:
    from . import evalmetrics

    seed = cfg.require_seed()
    with _stage("load-model"):
        bn, baseline = bayesnet.load_model(model_path)
        if bn.target is None:
            raise ValueError("model has no target node")
        if baseline is None and baseline_report_path is not None:
            raise ValueError(f"model file {model_path} holds no baseline network "
                             "for --baseline-report")
        factor_cols = [n for n in bn.dag.nodes if n != bn.target]
    with _stage("ingest"):
        table = _ingest_labeled(weather_path, outage_path, schema=factor_cols)
    with _stage("discretize"):
        rows, cols = _binned_evidence(bn, table)
        ds = preprocess.DiscreteDataset(
            columns=cols,
            cardinalities=[bn.cardinalities[c] for c in cols],
            rows=rows,
            labels=np.asarray(table.label, dtype=np.int64),
            bin_edges=[np.asarray(bn.bin_edges[c], dtype=float) for c in cols],
        )
    with _stage("split"):
        _, val = evalmetrics.split_validation(ds, cfg.validation_fraction,
                                              seed=_derived_seed(seed, 1))
    with _stage("predict"):
        probs = bayesnet.predict_rows(bn, val.rows, val.columns)[:, 1]
    with _stage("sweep"):
        report = evalmetrics.sweep_best_f1(probs, val.labels, cfg.threshold_grid)
        nb_report = None
        if baseline is not None:
            nb_probs = bayesnet.predict_rows(baseline, val.rows, val.columns)[:, 1]
            nb_report = evalmetrics.sweep_best_f1(nb_probs, val.labels,
                                                  cfg.threshold_grid)
    with _stage("write"):
        evalmetrics.write_report_csv(report, report_path)
        if baseline_report_path is not None:
            evalmetrics.write_report_csv(nb_report, baseline_report_path)
    precision, recall, f1 = evalmetrics.prf1(report.best)
    print(f"validation rows: {val.n_rows} ({int(val.labels.sum())} positive)")
    print(f"model: best_f1={f1:.6f} at threshold={report.best_threshold:g} "
          f"(precision={precision:.6f}, recall={recall:.6f})")
    if nb_report is not None:
        print(f"naive-bayes baseline: best_f1={evalmetrics.prf1(nb_report.best)[2]:.6f} "
              f"at threshold={nb_report.best_threshold:g}")
    print(f"report written to {report_path}")
    return 0


def cmd_gen(cfg: PipelineConfig, spec: synthgen.ScenarioSpec, out_weather,
            out_outages, out_truth=None) -> int:
    from . import synthgen

    with _stage("generate"):
        table, truth = synthgen.weather_outage_scenario(spec)
    with _stage("write"):
        ingest.write_weather_csv(table, out_weather)
        rng = np.random.default_rng([spec.seed, 1])
        hot = np.flatnonzero(np.asarray(table.label) == 1)
        # scalar draws, in this order: one array draw would give other numbers
        seconds = [int(rng.integers(3600)) for _ in hot]
        # sprinkle an equal number of non-weather outages; they must be
        # ignored by label attachment downstream
        hours = hot.tolist()
        for _ in hot:
            hours.append(int(rng.integers(table.n_rows)))
            seconds.append(int(rng.integers(3600)))
        stamps = table.timestamps[hours] + np.array(seconds, dtype="m8[s]")
        flags = np.arange(len(hours)) < hot.size
        order = np.lexsort((~flags, stamps))
        ingest.write_outage_csv(ingest.OutageEvents(stamps[order], flags[order]),
                                out_outages)
        if out_truth is not None:
            bayesnet.save_model(truth, out_truth)
    n_pos = int(np.asarray(table.label).sum())
    print(f"generated {table.n_rows} hours with {n_pos} outage hours "
          f"({n_pos / table.n_rows:.5f} rate)")
    print(f"weather written to {out_weather}, outages to {out_outages}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--bins", type=int)
    parser.add_argument("--laplace", type=float)
    parser.add_argument("--downsample-ratio", dest="downsample_ratio", type=float)
    parser.add_argument("--smote-target", dest="smote_target", type=float,
                        help="minority:majority ratio after synthesis; 0 disables")
    parser.add_argument("--smote-k", dest="smote_k", type=int)
    parser.add_argument("--threshold-grid", dest="threshold_grid",
                        type=_parse_grid)
    parser.add_argument("--validation-fraction", dest="validation_fraction",
                        type=float)
    parser.add_argument("--target")
    parser.add_argument("--fit-on-raw", dest="fit_on_raw",
                        action="store_const", const=True,
                        help="estimate tables on the unbalanced data")
    parser.add_argument("--ci-method", dest="ci_method",
                        choices=["g2", "pearson"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outagebn",
        description="Learn and apply a causal outage-risk model from hourly weather data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic scenario")
    _add_common(p_gen)
    p_gen.add_argument("--hours", type=int, default=100_000)
    p_gen.add_argument("--factors", type=int, default=6)
    p_gen.add_argument("--parents", default="F1,F2",
                       help="comma-separated true outage parents")
    p_gen.add_argument("--outage-rate", dest="outage_rate", type=float,
                       default=0.002)
    p_gen.add_argument("--out-weather", required=True)
    p_gen.add_argument("--out-outages", required=True)
    p_gen.add_argument("--out-truth", help="also save the generating network")

    p_learn = sub.add_parser("learn", help="learn structure and tables")
    _add_common(p_learn)
    p_learn.add_argument("--weather", required=True)
    p_learn.add_argument("--outages", required=True)
    p_learn.add_argument("--model", required=True)
    p_learn.add_argument("--dot", help="write the learned graph in DOT form")

    p_predict = sub.add_parser("predict", help="score hourly weather")
    _add_common(p_predict)
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--weather", required=True)
    p_predict.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="threshold sweep on labeled data")
    _add_common(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--weather", required=True)
    p_eval.add_argument("--outages", required=True)
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--baseline-report", dest="baseline_report",
                        help="also write the naive Bayes sweep")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "gen":
            from . import synthgen

            spec = synthgen.ScenarioSpec(
                n_factors=args.factors,
                hours=args.hours,
                outage_parents=tuple(p for p in args.parents.split(",") if p),
                outage_rate=args.outage_rate,
                seed=cfg.require_seed(),
                bins=cfg.bins,
                target=cfg.target,
            )
            return cmd_gen(cfg, spec, args.out_weather, args.out_outages,
                           args.out_truth)
        if args.command == "learn":
            return cmd_learn(cfg, args.weather, args.outages, args.model,
                             args.dot)
        if args.command == "predict":
            return cmd_predict(cfg, args.model, args.weather, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.model, args.weather, args.outages,
                            args.report, args.baseline_report)
        parser.error(f"unknown command {args.command!r}")
    except StageError as err:
        print(err, file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import dataclass, field, fields

import numpy as np

# citest, evalmetrics and synthgen are imported by the one command that
# runs them
from . import bayesnet, ingest, pcalg, preprocess


class GridSyntaxError(argparse.ArgumentTypeError, ValueError):
    """A grid not in :func:`_parse_grid`'s syntax; argparse puts the flag before it."""


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:step' with a positive step, or a comma-separated list."""
    try:
        values = [float(p) for p in text.split(":" if ":" in text else ",")]
        if ":" not in text:
            return tuple(values)
        start, stop, step = values
        if step <= 0:
            raise ValueError
        # a NaN or an infinite span fails here
        count = int(round((stop - start) / step))
    except (ValueError, OverflowError):
        raise GridSyntaxError("must be start:stop:step with a positive step, or a "
                              f"comma-separated list of numbers, not {text!r}") from None
    return tuple(round(start + i * step, 12) for i in range(count + 1)
                 if start + i * step <= stop + 1e-12)


def _setting(default, kind, commands: str, must=None, rule=None, help=None):
    """A ``PipelineConfig`` field: ``kind`` parses its flag (a bare one for ``bool``) and
    types its config-file value, only the subcommands in ``commands`` take the flag, and
    ``validate`` refuses a value that fails ``rule``: "<flag name> must <must>"."""
    return field(default=default, metadata={"kind": kind, "commands": commands.split(),
                                            "must": must, "rule": rule, "help": help})


@dataclass
class PipelineConfig:
    bins: int = _setting(10, int, "gen learn", "be at least 2", lambda v: v >= 2)
    alpha: float = _setting(0.05, float, "learn", "lie in (0, 1)", lambda v: 0 < v < 1)
    laplace: float = _setting(1.0, float, "learn", "be positive and finite",
                              lambda v: 0 < v < float("inf"))
    downsample_ratio: float = _setting(10.0, float, "learn", "be positive", lambda v: v > 0)
    smote_target: float = _setting(1.0, float, "learn", "be nonnegative", lambda v: v >= 0,
                                   "minority:majority ratio after synthesis; 0 disables")
    smote_k: int = _setting(5, int, "learn", "be at least 1", lambda v: v >= 1)
    seed: int | None = _setting(None, int, "gen learn eval")
    # eval checks the grid through evalmetrics, which start-up does not import
    threshold_grid: tuple[float, ...] | None = _setting(
        None, _parse_grid, "eval", help="start:stop:step or a comma-separated list")
    validation_fraction: float = _setting(0.05, float, "eval", "lie in (0, 1)",
                                          lambda v: 0 < v < 1)
    target: str = _setting("outage", str, "gen learn")
    fit_on_raw: bool = _setting(False, bool, "learn",
                                help="estimate tables on the unbalanced data")
    ci_method: str = _setting("g2", str, "learn", "be g2 or pearson",
                              lambda v: v in ("g2", "pearson"), "g2 or pearson")

    def validate(self) -> None:
        for f in fields(self):
            if f.metadata["rule"] and not f.metadata["rule"](getattr(self, f.name)):
                raise ValueError(f"{f.name.replace('_', '-')} must {f.metadata['must']}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError("this subcommand is stochastic; --seed is mandatory")
        return int(self.seed)


def _file_value(setting, value):
    """A config file's ``value`` for ``setting`` if it has the setting's kind: a float setting
    takes an int, a bool is never a number, and null stands for a default of None."""
    kind = setting.metadata["kind"]
    if value is None and setting.default is None:
        return None
    if kind is _parse_grid:
        if isinstance(value, str):
            try:
                return _parse_grid(value)
            except GridSyntaxError as err:
                raise ValueError(f"{setting.name} {err}") from None
        if isinstance(value, list) and all(type(v) in (int, float) for v in value):
            return tuple(float(v) for v in value)
    elif type(value) is kind or kind is float and type(value) is int:
        return value
    expected = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
                _parse_grid: "a grid string or a list of numbers"}[kind]
    raise ValueError(f"{setting.name} must be {expected}, not {json.dumps(value)}")


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge precedence: command-line flags over config file over defaults."""
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"config file {args.config} is not JSON ({err})") from None
        if not isinstance(values, dict):
            raise ValueError(f"config file {args.config} does not hold a JSON object")
        settings = {f.name: f for f in fields(PipelineConfig)}
        for key, value in values.items():
            if key not in settings:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _file_value(settings[key], value)
    for f in fields(PipelineConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    cfg = PipelineConfig(**values)
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
        raise StageError(f"error during {name}: {exc}") from exc


class StageError(RuntimeError):
    """An error tagged with the pipeline stage it came from."""


def _coded_hours(weather_path, outage_path=None, bins=None, edges=None):
    """The hourly timeline of a weather file and its coded hours: the factors ``edges`` maps
    to a model's bin edges, else every factor in ``bins`` equal-width bins (``learn``).

    Parses, fills and labels in stage ``ingest``, codes in stage ``discretize``. The
    float table dies on return, so no later stage holds it beside the codes.
    """
    columns = None if edges is None else list(edges)
    with _stage("ingest"):
        # nested, so a gappy file's parsed columns die once filled
        table = ingest.interpolate_missing(ingest.parse_weather_csv(weather_path, columns))
        if outage_path is not None:
            events = ingest.parse_outage_csv(outage_path)
            table = ingest.attach_outage_labels(
                table, events.timestamps[events.weather_related])
    with _stage("discretize"):
        ds = preprocess.discretize(table, bins) if edges is None else \
            preprocess.coded_hours(table, edges)
    return table.timestamps, ds


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
    _, ds = _coded_hours(weather_path, outage_path, bins=cfg.bins)
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


def _scoring_model(model_path):
    """A model's network, baseline and factor bin edges.

    ``load_model`` judges every edge list it holds; a factor of two or more
    states with none (a network saved for inference alone) cannot code
    hours, so is refused.
    """
    bn, baseline = bayesnet.load_model(model_path)
    if bn.target is None:
        raise ValueError("model has no target node")
    edges = {c: bn.bin_edges[c] for c in bn.dag.nodes if c != bn.target}
    for c, cuts in edges.items():
        if not cuts and bn.cardinalities[c] > 1:
            raise ValueError(f"model file {model_path}, node {c!r}: it has no bin edges, "
                             "so its hours cannot be coded")
    return bn, baseline, edges


def cmd_predict(model_path, weather_path, out_path) -> int:
    with _stage("load-model"):
        bn, _, edges = _scoring_model(model_path)
    timestamps, ds = _coded_hours(weather_path, edges=edges)
    with _stage("predict"):
        probs = bayesnet.predict_rows(bn, ds.rows, ds.columns)[:, 1]
        del ds  # the codes and labels are not written, so they die before the write
    with _stage("write"):
        # hours share few distinct probabilities, so each is formatted once;
        # distinct bit patterns keep -0.0 and 0.0 apart
        bits, index = np.unique(probs.view(np.uint64), return_inverse=True)
        ingest.write_text_columns(out_path, [ingest.TIMESTAMP_COLUMN, "p_outage"],
                                  timestamps, [(bits.view(np.float64), index)])
    print(f"wrote {len(probs)} hourly probabilities to {out_path}")
    return 0


def cmd_eval(cfg: PipelineConfig, model_path, weather_path, outage_path,
             report_path, baseline_report_path=None) -> int:
    from . import evalmetrics

    grid = evalmetrics.checked_grid(cfg.threshold_grid)
    seed = cfg.require_seed()
    with _stage("load-model"):
        bn, baseline, edges = _scoring_model(model_path)
        if baseline is None and baseline_report_path is not None:
            raise ValueError(f"model file {model_path} holds no baseline network "
                             "for --baseline-report")
    _, ds = _coded_hours(weather_path, outage_path, edges=edges)
    with _stage("split"):
        _, val = evalmetrics.split_validation(ds, cfg.validation_fraction,
                                              seed=_derived_seed(seed, 1))
    with _stage("predict"):
        probs = bayesnet.predict_rows(bn, val.rows, val.columns)[:, 1]
    with _stage("sweep"):
        report = evalmetrics.sweep_best_f1(probs, val.labels, grid)
        nb_report = None
        if baseline is not None:
            nb_probs = bayesnet.predict_rows(baseline, val.rows, val.columns)[:, 1]
            nb_report = evalmetrics.sweep_best_f1(nb_probs, val.labels, grid)
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


def cmd_gen(spec: synthgen.ScenarioSpec, out_weather, out_outages, out_truth=None) -> int:
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


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """A flag per setting that ``command`` reads, and ``--config`` if it reads any."""
    settings = [f for f in fields(PipelineConfig) if command in f.metadata["commands"]]
    if settings:
        parser.add_argument("--config", help="JSON config file (flags override it)")
    for f in settings:
        kind = f.metadata["kind"]
        how = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            help=f.metadata["help"], **how)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outagebn",
        description="Learn and apply a causal outage-risk model from hourly weather data")
    sub = parser.add_subparsers(dest="command", required=True)

    # no defaults: a scenario flag left out keeps its ScenarioSpec field's
    p_gen = sub.add_parser("gen", help="generate a synthetic scenario",
                           argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--hours", type=int)
    p_gen.add_argument("--factors", dest="n_factors", type=int, metavar="FACTORS")
    p_gen.add_argument("--parents", dest="outage_parents", metavar="PARENTS",
                       type=lambda text: tuple(p for p in text.split(",") if p),
                       help="comma-separated true outage parents")
    p_gen.add_argument("--outage-rate", dest="outage_rate", type=float)
    p_gen.add_argument("--out-weather", required=True)
    p_gen.add_argument("--out-outages", required=True)
    p_gen.add_argument("--out-truth", default=None, help="also save the generating network")

    p_learn = sub.add_parser("learn", help="learn structure and tables")
    p_learn.add_argument("--weather", required=True)
    p_learn.add_argument("--outages", required=True)
    p_learn.add_argument("--model", required=True)
    p_learn.add_argument("--dot", help="write the learned graph in DOT form")

    p_predict = sub.add_parser("predict", help="score hourly weather")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--weather", required=True)
    p_predict.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="threshold sweep on labeled data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--weather", required=True)
    p_eval.add_argument("--outages", required=True)
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--baseline-report", dest="baseline_report",
                        help="also write the naive Bayes sweep")

    for name, command in sub.choices.items():
        _add_settings(command, name)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args.model, args.weather, args.out)
        cfg = build_config(args)
        if args.command == "gen":
            from . import synthgen

            given = {k: v for k, v in vars(args).items()
                     if k in ("hours", "n_factors", "outage_parents", "outage_rate")}
            spec = synthgen.ScenarioSpec(seed=cfg.require_seed(), bins=cfg.bins,
                                         target=cfg.target, **given)
            return cmd_gen(spec, args.out_weather, args.out_outages, args.out_truth)
        if args.command == "learn":
            return cmd_learn(cfg, args.weather, args.outages, args.model, args.dot)
        return cmd_eval(cfg, args.model, args.weather, args.outages,
                        args.report, args.baseline_report)
    except StageError as err:
        print(err, file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Causal discovery and discrete Bayesian-network modeling of weather-driven outages.

The package covers the full pipeline: CSV ingestion and hourly alignment,
equal-width discretization with class rebalancing, conditional-independence
testing, constraint-based structure learning, conditional probability table
estimation with exact inference, threshold-sweep evaluation, and synthetic
scenario generation. The ``outagebn`` console script exposes the pipeline as
``gen`` / ``learn`` / ``predict`` / ``eval`` subcommands.

The names below are imported from their modules on first use (PEP 562), so
importing one module, such as ``outagebn.cli``, loads only what it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "BayesianNetwork": "bayesnet",
    "ConfusionCounts": "evalmetrics",
    "Cpt": "bayesnet",
    "DiscreteDataset": "preprocess",
    "EvalReport": "evalmetrics",
    "LearnedDag": "pcalg",
    "PartialGraph": "pcalg",
    "RawWeatherTable": "ingest",
    "ScenarioSpec": "synthgen",
    "TimeSeriesTable": "ingest",
}

__all__ = [
    "BayesianNetwork",
    "ConfusionCounts",
    "Cpt",
    "DiscreteDataset",
    "EvalReport",
    "LearnedDag",
    "PartialGraph",
    "RawWeatherTable",
    "ScenarioSpec",
    "TimeSeriesTable",
    "__version__",
]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

"""Causal discovery and discrete Bayesian-network modeling of weather-driven outages.

The package covers the full pipeline: CSV ingestion and hourly alignment,
equal-width discretization with class rebalancing, conditional-independence
testing, constraint-based structure learning, conditional probability table
estimation with exact inference, threshold-sweep evaluation, and synthetic
scenario generation. The ``outagebn`` console script exposes the pipeline as
``gen`` / ``learn`` / ``predict`` / ``eval`` subcommands.
"""

__version__ = "0.1.0"

from .bayesnet import BayesianNetwork, Cpt
from .evalmetrics import ConfusionCounts, EvalReport
from .ingest import RawWeatherTable, TimeSeriesTable
from .pcalg import LearnedDag, PartialGraph
from .preprocess import DiscreteDataset
from .synthgen import ScenarioSpec

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

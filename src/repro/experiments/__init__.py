"""Experiment harness: one module per reproduced claim (see DESIGN.md).

Every experiment module exposes a ``run(...)`` function returning a list of
result-row dictionaries plus module-level ``COLUMNS`` describing the table
layout.  The tables in EXPERIMENTS.md are regenerated through the CLI
(``python -m repro <experiment>``); ``tests/test_experiments.py`` runs the
same ``run`` functions with reduced parameters and asserts each table's
shape.
"""

from repro.experiments import (
    ablations,
    approx_rounds,
    baselines_compare,
    churn_sweep,
    exact_rounds,
    lower_bound,
    message_size,
    robustness,
    schedule_validation,
    self_rank,
    token_distribution,
    topology_sweep,
)
from repro.experiments.runner import ExperimentSpec, REGISTRY, run_experiment

__all__ = [
    "ablations",
    "approx_rounds",
    "baselines_compare",
    "churn_sweep",
    "exact_rounds",
    "lower_bound",
    "message_size",
    "robustness",
    "schedule_validation",
    "self_rank",
    "token_distribution",
    "topology_sweep",
    "ExperimentSpec",
    "REGISTRY",
    "run_experiment",
]

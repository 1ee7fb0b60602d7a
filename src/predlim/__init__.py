"""Intrinsic predictability limits for sequential interaction data.

Estimate how predictable a user's next item is from entropy alone: per-user
nonparametric entropy estimates map to an attainable-accuracy lower bound
(exp(-S)) and to Fano-inversion and permutation baselines. Synthetic
generators with closed-form oracle ceilings, cohort splits, consistency
statistics, and data-selection tooling reproduce the validation protocol.
"""

from .cohort import compute_features, split_and_aggregate
from .entropy import (
    Entropies,
    lz_entropy,
    perm_entropy,
    plugin_entropy,
    sampen,
)
from .evaluation import (
    SweepTable,
    aggregate_dataset,
    consistency_report,
    load_reference,
    rmse,
    run_difficulty_sweep,
    run_n_sweep,
    spearman,
)
from .predictability import (
    Scores,
    epl,
    fano_forward,
    fano_invert,
    fano_nr,
    perm_predictability,
)
from .selection import build_plan, materialize
from .sequence_core import (
    InteractionLog,
    UserSequence,
    ingest_csv,
    log_from_json,
    log_from_sequences,
    log_to_json,
    transition_fanout,
)
from .synth import GeneratorConfig, SynthCorpus, generate, invert_noise, oracle_hit1, simulate_oracle

__version__ = "0.1.0"

__all__ = [
    "Entropies",
    "GeneratorConfig",
    "InteractionLog",
    "Scores",
    "SweepTable",
    "SynthCorpus",
    "UserSequence",
    "aggregate_dataset",
    "build_plan",
    "compute_features",
    "consistency_report",
    "epl",
    "fano_forward",
    "fano_invert",
    "fano_nr",
    "generate",
    "ingest_csv",
    "invert_noise",
    "load_reference",
    "log_from_json",
    "log_from_sequences",
    "log_to_json",
    "lz_entropy",
    "materialize",
    "oracle_hit1",
    "perm_entropy",
    "perm_predictability",
    "plugin_entropy",
    "rmse",
    "run_difficulty_sweep",
    "run_n_sweep",
    "sampen",
    "simulate_oracle",
    "spearman",
    "split_and_aggregate",
    "transition_fanout",
]

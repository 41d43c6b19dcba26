"""Single-process federated averaging simulator for binary malware classifiers.

Implements classic federated averaging and a dynamically weighted variant
that scales each client's contribution by an accuracy-driven priority
index, plus the data handling, from-scratch network and evaluation code
needed to benchmark the two end to end.
"""
from .aggregation import (
    AggregationStrategy,
    PriorityIndex,
    dw_fedavg,
    fedavg,
    update_priority_index,
)
from .data import (
    ClientShard,
    Dataset,
    DatasetError,
    holdout_split,
    load_csv,
    min_max_scale,
    partition_clients,
)
from .federation import (
    Client,
    ClientState,
    ExperimentConfig,
    ExperimentResult,
    FamilyResult,
    RepeatResult,
    RoundReport,
    ServerState,
    run_experiment,
    run_family,
    run_round,
    setup_repeat,
)
from .manifest import ConfigError, DatasetEntry, RunManifest
from .metrics import (
    Confusion,
    MetricError,
    MetricSet,
    accuracy,
    auc_rank,
    confusion,
    evaluate_scores,
    f1,
    fpr,
)
from .nn import DenseNetwork, TrainConfig, init_network, sgd_epoch, sgd_epochs
from .synth import SURROGATES, make_indicator_dataset, resolve_synthetic

__version__ = "0.1.0"

__all__ = [
    "AggregationStrategy",
    "PriorityIndex",
    "dw_fedavg",
    "fedavg",
    "update_priority_index",
    "ClientShard",
    "Dataset",
    "DatasetError",
    "holdout_split",
    "load_csv",
    "min_max_scale",
    "partition_clients",
    "Client",
    "ClientState",
    "ExperimentConfig",
    "ExperimentResult",
    "FamilyResult",
    "RepeatResult",
    "RoundReport",
    "ServerState",
    "run_experiment",
    "run_family",
    "run_round",
    "setup_repeat",
    "ConfigError",
    "DatasetEntry",
    "RunManifest",
    "Confusion",
    "MetricError",
    "MetricSet",
    "accuracy",
    "auc_rank",
    "confusion",
    "evaluate_scores",
    "f1",
    "fpr",
    "DenseNetwork",
    "TrainConfig",
    "init_network",
    "sgd_epoch",
    "sgd_epochs",
    "SURROGATES",
    "make_indicator_dataset",
    "resolve_synthetic",
    "__version__",
]

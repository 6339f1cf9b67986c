"""Feature-sliced parallel GCN training.

Node features are cut (or fused) into per-device inputs; p independent GCN
workers each process the full graph structure on their slice; the master
concatenates the outputs for classification. Communication happens only at
the initial scatter and the final gather.
"""

from .engine import (
    EpochReport,
    RunSummary,
    TrainConfig,
    auc_roc,
    build_run,
    evaluate,
    train,
)
from .graph import (
    AttributedGraph,
    CsrAdjacency,
    DatasetError,
    build_csr,
    degree_norms,
    load_dataset,
    save_dataset,
    synth_graph,
)
from .nn import NumericError, cosine_lr, count_params
from .slicing import SliceStrategy, slice_feature, slice_strategy_generator

__all__ = [
    "AttributedGraph",
    "CsrAdjacency",
    "DatasetError",
    "EpochReport",
    "NumericError",
    "RunSummary",
    "SliceStrategy",
    "TrainConfig",
    "auc_roc",
    "build_csr",
    "build_run",
    "cosine_lr",
    "count_params",
    "degree_norms",
    "evaluate",
    "load_dataset",
    "save_dataset",
    "slice_feature",
    "slice_strategy_generator",
    "synth_graph",
    "train",
]

__version__ = "0.1.0"

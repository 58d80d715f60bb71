"""Random forests whose trees answer with an exact exponentially weighted
average over all of their prunings, scored on out-of-bag samples."""

from .aggregation import (
    AggregationState,
    build_state,
    node_forecast,
    predict_aggregated,
    predict_aggregated_batch,
    predict_leaf_only,
)
from .binning import BinMapper, BinnedMatrix, FeatureKind, fit_bins, transform
from .datasets import add_noise, donoho_signal, make_toy_classification, signal_grid
from .forest import FittedTree, Forest, TrainConfig, fit
from .metrics import log_loss, mse, multiclass_auc, roc_auc
from .model_io import DatasetSchema, load_csv, load_model, save_model
from .sampling import BootstrapSample, RandomSource, bootstrap
from .splits import Split, SplitConstraints, find_best_split
from .tree import Tree, grow_tree

__version__ = "0.1.0"

__all__ = [
    "AggregationState",
    "BinMapper",
    "BinnedMatrix",
    "BootstrapSample",
    "DatasetSchema",
    "FeatureKind",
    "FittedTree",
    "Forest",
    "RandomSource",
    "Split",
    "SplitConstraints",
    "TrainConfig",
    "Tree",
    "add_noise",
    "bootstrap",
    "build_state",
    "donoho_signal",
    "find_best_split",
    "fit",
    "fit_bins",
    "grow_tree",
    "load_csv",
    "load_model",
    "log_loss",
    "make_toy_classification",
    "mse",
    "multiclass_auc",
    "node_forecast",
    "predict_aggregated",
    "predict_aggregated_batch",
    "predict_leaf_only",
    "roc_auc",
    "save_model",
    "signal_grid",
    "transform",
    "__version__",
]

"""Random forests whose trees answer with an exact exponentially weighted
average over all of their prunings, scored on out-of-bag samples.  Internals
are imported from their submodules, such as ``aggforest.aggregation``."""

from .binning import BinMapper, FeatureKind, fit_bins, transform
from .datasets import add_noise, donoho_signal, make_toy_classification, signal_grid
from .forest import Forest, TrainConfig, fit
from .metrics import log_loss, mse, multiclass_auc, roc_auc
from .model_io import (DatasetSchema, ModelFormatError, load_csv, load_model,
                       save_model)

__version__ = "0.1.0"

__all__ = [
    "BinMapper",
    "DatasetSchema",
    "FeatureKind",
    "Forest",
    "ModelFormatError",
    "TrainConfig",
    "add_noise",
    "donoho_signal",
    "fit",
    "fit_bins",
    "load_csv",
    "load_model",
    "log_loss",
    "make_toy_classification",
    "mse",
    "multiclass_auc",
    "roc_auc",
    "save_model",
    "signal_grid",
    "transform",
    "__version__",
]

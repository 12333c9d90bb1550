"""Event-synchronous spiking forecaster for irregular multivariate time series."""

from .backbone import Block, SedAttention, TimeEmbedding, aggregate_observed
from .data import (CleanConfig, Standardizer, SuiteConfig, VizConfig,
                   baseline_encoders, make_windows, mcar_sparsify,
                   prepare_corpus, read_dataset, split_windows, synth_suite,
                   synth_viz_series, write_dataset)
from .downsample import pool_events, pool_max, pool_times
from .encoder import EventSeries, SedSeEncoder, align_events, event_gaps
from .energy import EnergyModel, count_ann_layer, count_snn_layer, energy_estimate
from .errors import (ConfigError, DataError, NumericsError, SedformerError,
                     ShapeError)
from .model import ModelConfig, SedFormer
from .neuron import ealif_filter, ealif_spike_scan
from .sweep import GRIDS, run_sweep
from .tensor import BatchNorm, Tensor, mac_counter, no_grad
from .training import (Adam, TrainConfig, evaluate, flat_metrics, load_checkpoint,
                       save_checkpoint, train, variate_balanced_mse)

__version__ = "0.1.0"

__all__ = [
    "Adam", "BatchNorm", "Block", "CleanConfig", "ConfigError", "DataError",
    "EnergyModel", "EventSeries", "GRIDS", "ModelConfig", "NumericsError",
    "SedAttention", "SedFormer", "SedSeEncoder",
    "SedformerError", "ShapeError", "Standardizer", "SuiteConfig", "Tensor",
    "TimeEmbedding", "TrainConfig", "VizConfig", "aggregate_observed",
    "align_events", "baseline_encoders", "count_ann_layer", "count_snn_layer", "ealif_filter",
    "ealif_spike_scan", "energy_estimate", "evaluate",
    "event_gaps", "flat_metrics", "load_checkpoint", "mac_counter",
    "make_windows", "mcar_sparsify", "no_grad", "pool_events", "pool_max",
    "pool_times", "prepare_corpus", "read_dataset", "run_sweep",
    "save_checkpoint", "split_windows", "synth_suite", "synth_viz_series",
    "train", "variate_balanced_mse", "write_dataset",
]

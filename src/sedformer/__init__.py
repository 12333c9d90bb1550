"""Event-synchronous spiking forecaster for irregular multivariate time series."""

from .data import (Standardizer, SuiteConfig, VizConfig, baseline_encoders, make_windows,
                   mcar_sparsify, prepare_corpus, read_dataset, split_windows, synth_suite,
                   synth_viz_series, write_dataset)
from .downsample import pool_max
from .encoder import EventSeries, SedSeEncoder, align_events
from .energy import EnergyModel, count_snn_layer, energy_estimate
from .errors import (ConfigError, DataError, NumericsError, SedformerError,
                     ShapeError)
from .model import ModelConfig, SedFormer
from .neuron import ealif_spike_scan
from .tensor import Tensor, mac_counter
from .training import TrainConfig, evaluate, train, variate_balanced_mse

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "EnergyModel", "EventSeries", "ModelConfig", "NumericsError",
    "SedFormer", "SedSeEncoder", "SedformerError", "ShapeError", "Standardizer",
    "SuiteConfig", "Tensor", "TrainConfig", "VizConfig", "align_events",
    "baseline_encoders", "count_snn_layer", "ealif_spike_scan", "energy_estimate",
    "evaluate", "mac_counter", "make_windows", "mcar_sparsify", "pool_max",
    "prepare_corpus", "read_dataset", "split_windows", "synth_suite", "synth_viz_series",
    "train", "variate_balanced_mse", "write_dataset",
]

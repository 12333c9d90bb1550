"""Event-axis downsampling: non-overlapping windowed max pooling.

Spike rasters stay binary under max pooling, the observation mask pools
the same way, and each pooled step inherits the LAST event time of its
window so downstream decay factors see real elapsed time. A trailing
remainder shorter than the stride is dropped (with a warning). The
primitives reject a stride longer than the sequence; ``pool_events``
instead pools a history shorter than the stride into one step.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, accumulate_grad, make_op


def _check_stride(stride: int, length: int) -> int:
    stride = int(stride)
    if stride < 1:
        raise ConfigError(f"pooling stride must be >= 1, got {stride}")
    if stride > length:
        raise ConfigError(f"pooling stride {stride} exceeds sequence length {length}")
    n_windows = length // stride
    remainder = length - n_windows * stride
    if remainder:
        warnings.warn(f"dropping {remainder} trailing event(s) not filling a window of {stride}")
    return n_windows


def pool_max(x: Tensor, stride: int) -> Tensor:
    """Max over consecutive windows along axis 0; gradient flows to the
    (first) argmax of each window."""
    K = x.shape[0]
    n = _check_stride(stride, K)
    win_shape = (n, stride) + x.shape[1:]
    windows = x.data[:n * stride].reshape(win_shape)
    out = windows.max(axis=1)
    arg = windows.argmax(axis=1)

    def bwd(g):
        full = np.zeros_like(x.data)
        view = full[:n * stride].reshape(win_shape)
        np.put_along_axis(view, np.expand_dims(arg, 1), np.expand_dims(g, 1), axis=1)
        accumulate_grad(x, full)

    return make_op(out, (x,), bwd)


def pool_mask(mask: np.ndarray, stride: int) -> np.ndarray:
    """A pooled step is observed if any event in its window was."""
    mask = np.asarray(mask, dtype=np.float64)
    n = _check_stride(stride, mask.shape[0])
    return mask[:n * stride].reshape((n, stride) + mask.shape[1:]).max(axis=1)


def pool_times(times: np.ndarray, stride: int) -> np.ndarray:
    """Each pooled step keeps the last event time of its window."""
    times = np.asarray(times, dtype=np.float64)
    n = _check_stride(stride, times.shape[0])
    return times[stride - 1::stride][:n].copy()


def pool_events(spikes: Tensor, mask: np.ndarray, times: np.ndarray,
                stride: int) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Downsample a spike raster with its mask and time axis together.

    The effective stride is ``min(stride, K)``, so a history of fewer than
    ``stride`` events becomes a single pooled step.
    """
    if spikes.shape[0] != mask.shape[0] or spikes.shape[0] != times.shape[0]:
        raise ConfigError(
            f"event axes disagree: spikes {spikes.shape[0]}, mask {mask.shape[0]}, "
            f"times {times.shape[0]}")
    stride = min(int(stride), spikes.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pooled_mask = pool_mask(mask, stride)
        pooled_times = pool_times(times, stride)
    return pool_max(spikes, stride), pooled_mask, pooled_times

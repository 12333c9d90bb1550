"""Event-axis downsampling: non-overlapping windowed max pooling.

Spike rasters stay binary under max pooling, the observation mask pools
the same way, and each pooled step inherits the LAST event time of its
window so downstream decay factors see real elapsed time. A trailing
remainder shorter than the stride is dropped (the primitives warn about
it). The primitives reject a stride longer than the sequence;
``pool_events`` instead pools a history shorter than the stride into one
step.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError
from .encoder import window_lengths
from .tensor import Tensor, accumulate_grad, count_spikes, is_recording, make_op


def _n_windows(stride: int, length: int) -> int:
    stride = int(stride)
    if stride < 1:
        raise ConfigError(f"pooling stride must be >= 1, got {stride}")
    if stride > length:
        raise ConfigError(f"pooling stride {stride} exceeds sequence length {length}")
    return length // stride


def _check_stride(stride: int, length: int) -> int:
    n_windows = _n_windows(stride, length)
    remainder = length - n_windows * int(stride)
    if remainder:
        warnings.warn(f"dropping {remainder} trailing event(s) not filling a window of {stride}")
    return n_windows


def _max_op(x: Tensor, stride: int, n: int) -> Tensor:
    win_shape = (n, stride) + x.shape[1:]
    windows = x.data[:n * stride].reshape(win_shape)
    out = windows.max(axis=1)
    if not is_recording(x):
        return Tensor(out)
    arg = windows.argmax(axis=1)

    def bwd(g):
        full = np.zeros_like(x.data)
        view = full[:n * stride].reshape(win_shape)
        np.put_along_axis(view, np.expand_dims(arg, 1), np.expand_dims(g, 1), axis=1)
        accumulate_grad(x, full)

    return make_op(out, (x,), bwd)


def pool_max(x: Tensor, stride: int) -> Tensor:
    """Max over consecutive windows along axis 0; gradient flows to the
    (first) argmax of each window."""
    return _max_op(x, int(stride), _check_stride(stride, x.shape[0]))


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
    ``stride`` events becomes a single pooled step. The trailing remainder
    is dropped silently: that is part of this function's contract.

    A time-major batch (spikes [K, B, D, C], mask [K, B, D], times [K, B];
    pads are the rows with an all-zero mask and repeat their window's last
    stamp) is pooled window by window: window b keeps
    ``max(K_b // s, 1)`` pooled steps, one when K_b < s. Its later pooled
    steps become pads of the same kind (mask 0, last pooled stamp).
    """
    K = spikes.shape[0]
    if K != mask.shape[0] or K != times.shape[0]:
        raise ConfigError(
            f"event axes disagree: spikes {K}, mask {mask.shape[0]}, times {times.shape[0]}")
    mask = np.asarray(mask, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    s = min(int(stride), K)
    n = _n_windows(s, K)
    lengths = window_lengths(mask)
    if lengths is not None and np.any(lengths < s):
        # a short window pools all of its events into one step, so keep
        # the spikes of its pads out of that step's max
        real = np.arange(K)[:, None] < lengths
        spikes = spikes * Tensor(real.reshape(real.shape + (1,) * (spikes.ndim - 2)))
    pooled = _max_op(spikes, s, n)
    count_spikes("pool", pooled.data)
    pooled_mask = mask[:n * s].reshape((n, s) + mask.shape[1:]).max(axis=1)
    pooled_times = times[s - 1::s][:n].copy()
    if lengths is not None:
        kept = np.maximum(lengths // s, 1)
        pad = np.arange(n)[:, None] >= kept
        pooled_mask[pad] = 0.0
        pooled_times = np.where(pad, pooled_times[kept - 1, np.arange(kept.size)], pooled_times)
    return pooled, pooled_mask, pooled_times

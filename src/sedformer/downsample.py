"""Event-axis downsampling: non-overlapping windowed max pooling.

Spike rasters stay binary under max pooling, the observation mask pools
the same way, and each pooled step inherits the LAST event time of its
window so downstream decay factors see real elapsed time. A trailing
remainder shorter than the stride is dropped. ``pool_max`` rejects a
stride longer than the sequence; ``pool_events`` instead pools a history
shorter than the stride into one step.
"""

from __future__ import annotations

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


def pool_max(x: Tensor, stride: int) -> Tensor:
    """Max over consecutive windows along axis 0; gradient flows to the
    (first) argmax of each window."""
    stride = int(stride)
    n = _n_windows(stride, x.shape[0])
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
    lengths = window_lengths(mask)
    if lengths is not None and np.any(lengths < s):
        # a short window pools all of its events into one step, so keep
        # the spikes of its pads out of that step's max
        real = np.arange(K)[:, None] < lengths
        spikes = spikes * Tensor(real.reshape(real.shape + (1,) * (spikes.ndim - 2)))
    pooled = pool_max(spikes, s)
    count_spikes("pool", pooled.data)
    n = pooled.shape[0]
    pooled_mask = mask[:n * s].reshape((n, s) + mask.shape[1:]).max(axis=1)
    pooled_times = times[s - 1::s][:n].copy()
    if lengths is not None:
        kept = np.maximum(lengths // s, 1)
        pad = np.arange(n)[:, None] >= kept
        pooled_mask[pad] = 0.0
        pooled_times = np.where(pad, pooled_times[kept - 1, np.arange(kept.size)], pooled_times)
    return pooled, pooled_mask, pooled_times

"""Event-aligned series container and the spike encoder.

An irregular multivariate series is stored event-synchronously: the time
axis is the sorted union of every variate's observation stamps, and a
binary mask says which variates were actually observed at each stamp.

The encoder turns masked values into binary spike trains in three stages:
a per-variate depthwise convolution with batch norm (local shape), a
time-gap gate that scales features by how stale the neighborhood is, and
an event-driven LIF scan that emits spikes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .neuron import ealif_spike_scan, eta_for_tau_init
from .tensor import BatchNorm, Module, Tensor, depthwise_conv1d, fold_once, parameter, scope


@dataclass
class EventSeries:
    """Event-synchronous view of one irregular multivariate series.

    times: [K] strictly increasing stamps (union over variates).
    values: [K, D], zero where unobserved.
    mask: [K, D] in {0, 1}; 1 marks an actual observation.
    """

    times: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.times.ndim != 1:
            raise DataError(f"times must be 1-D, got shape {self.times.shape}")
        K = self.times.shape[0]
        if self.values.ndim != 2 or self.values.shape[0] != K:
            raise DataError(f"values must be [K, D] with K={K}, got {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise DataError(f"mask shape {self.mask.shape} != values shape {self.values.shape}")
        if K == 0:
            raise DataError("series has no events")
        if np.any(np.diff(self.times) <= 0):
            raise DataError("event times must be strictly increasing")
        if not np.all(np.isfinite(self.times)):
            raise DataError("event times must be finite")
        if not np.all((self.mask == 0.0) | (self.mask == 1.0)):
            raise DataError("mask entries must be 0 or 1")
        if not np.all(np.isfinite(self.values[self.mask == 1.0])):
            raise DataError("observed values must be finite")
        if np.any(self.mask.sum(axis=1) < 1.0):
            raise DataError("every event time must be observed by at least one variate")

    @property
    def n_events(self) -> int:
        return self.times.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]


@dataclass
class EventBatch:
    """B event series padded to a common length, time-major.

    times: [K, B]; values, mask: [K, B, D]. Window b holds its events in
    its first K_b rows. The rows after them are pads: mask 0, value 0, and
    the window's last stamp repeated. Since a real event observes at least
    one variate, the pads are exactly the rows with an all-zero mask, and
    each pad's gap is 0.
    """

    times: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    @classmethod
    def stack(cls, series: list[EventSeries]) -> "EventBatch":
        if not series:
            raise DataError("a batch needs at least one series")
        D = series[0].n_variates
        if any(s.n_variates != D for s in series):
            raise DataError("every series of a batch needs the same variates")
        K, B = max(s.n_events for s in series), len(series)
        times = np.empty((K, B))
        values = np.zeros((K, B, D))
        mask = np.zeros((K, B, D))
        for b, s in enumerate(series):
            n = s.n_events
            times[:n, b] = s.times
            times[n:, b] = s.times[-1]
            values[:n, b] = s.values
            mask[:n, b] = s.mask
        return cls(times=times, values=values, mask=mask)

    @property
    def n_variates(self) -> int:
        return self.values.shape[-1]


def window_lengths(mask: np.ndarray) -> np.ndarray | None:
    """Real rows per window of a time-major batch mask [K, B, D]: those
    before its pads. None for a single window's mask [K, D]."""
    mask = np.asarray(mask)
    if mask.ndim < 3:
        return None
    return np.count_nonzero(mask.any(axis=-1), axis=0)


def align_events(per_variate: list[tuple[np.ndarray, np.ndarray]]) -> EventSeries:
    """Merge per-variate (times, values) streams onto the union time axis.

    Each variate's stamps must be strictly increasing; stamps shared across
    variates collapse to one event. Unobserved slots get value 0, mask 0.
    """
    if not per_variate:
        raise DataError("need at least one variate")
    cleaned = []
    for d, (t, v) in enumerate(per_variate):
        t = np.asarray(t, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise DataError(f"variate {d}: times and values must be equal-length 1-D")
        if t.size and np.any(np.diff(t) <= 0):
            raise DataError(f"variate {d}: observation times must be strictly increasing")
        if t.size == 0:
            warnings.warn(f"variate {d} has no observations; its mask column is all zero")
        cleaned.append((t, v))
    union = np.unique(np.concatenate([t for t, _ in cleaned if t.size]))
    if union.size == 0:
        raise DataError("no observations in any variate")
    K, D = union.size, len(cleaned)
    X = np.zeros((K, D))
    M = np.zeros((K, D))
    for d, (t, v) in enumerate(cleaned):
        idx = np.searchsorted(union, t)
        X[idx, d] = v
        M[idx, d] = 1.0
    return EventSeries(times=union, values=X, mask=M)


def event_gaps(times: np.ndarray, first_gap: str = "zero") -> np.ndarray:
    """Gaps dt_k = t_k - t_{k-1} along axis 0; the first event has no predecessor.

    times: [K], or [K, B] for a time-major batch (see ``EventBatch``).
    first_gap "zero" sets dt_1 = 0; "median" uses the median later gap of
    the window (0 when it has a single event). Stamps strictly increase
    and pads repeat the last one, so a window's later gaps are exactly its
    positive ones.
    """
    times = np.asarray(times, dtype=np.float64)
    gaps = np.empty_like(times)
    gaps[1:] = np.diff(times, axis=0)
    if first_gap == "zero":
        gaps[0] = 0.0
    elif first_gap == "median":
        later = gaps[1:].reshape(times.shape[0] - 1, gaps[0].size)  # a column per window
        medians = [float(np.median(col[col > 0])) if np.any(col > 0) else 0.0
                   for col in later.T]
        gaps[0] = np.reshape(medians, gaps.shape[1:])
    else:
        raise ConfigError(f"first_gap must be 'zero' or 'median', got {first_gap!r}")
    return gaps


class SedSeEncoder(Module):
    """Spike encoder: depthwise conv + batch norm, gap gate, EA-LIF scan.

    Produces a binary spike raster [K, D, C] from an EventSeries.
    """

    def __init__(self, n_variates: int, channels: int = 8, kernel_size: int = 3,
                 tau_init: float = 2.0, first_gap: str = "zero", seed: int = 0):
        if n_variates < 1 or channels < 1:
            raise ConfigError("need at least one variate and one channel")
        if kernel_size % 2 == 0 or kernel_size < 1:
            raise ConfigError(f"kernel size must be odd, got {kernel_size}")
        self.n_variates = n_variates
        self.channels = channels
        self.kernel_size = kernel_size
        self.first_gap = first_gap
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(kernel_size)
        self.kernels = parameter(
            rng.uniform(-bound, bound, size=(n_variates, channels, kernel_size)))
        self.bn = BatchNorm(channels)
        self.gate_a = parameter(1.0)
        self.gate_b = parameter(0.0)
        # softplus(rho_hat) + 1e-3 == 1.0 at init
        self.rho_hat = parameter(np.log(np.expm1(1.0 - 1e-3)))
        # softplus(gamma_hat) == 1.0 at init
        self.gamma_hat = parameter(np.log(np.expm1(1.0)))
        self.theta = parameter(np.zeros(channels))
        self.eta = parameter(eta_for_tau_init(tau_init))

    def gate(self, gaps: np.ndarray) -> Tensor:
        """Staleness gate s_k = sigmoid(a * log(1 + dt_k / rho) + b), [K]."""
        rho = self.rho_hat.softplus() + 1e-3
        dt_hat = (Tensor(np.asarray(gaps, dtype=np.float64)) / rho).log1p()
        return (dt_hat * self.gate_a + self.gate_b).sigmoid()

    def _folded_kernels(self) -> tuple[Tensor, Tensor]:
        scale, shift = self.bn.scale_shift()
        return self.kernels * scale.reshape(-1, 1), shift

    def drive_current(self, series: EventSeries | EventBatch) -> tuple[Tensor, np.ndarray]:
        """Input current I [K, D, C] to the spiking scan, plus gaps [K].

        An ``EventBatch`` gives I [K, B, D, C] and gaps [K, B].
        """
        if series.n_variates != self.n_variates:
            raise DataError(
                f"encoder built for {self.n_variates} variates, series has {series.n_variates}")
        observed = Tensor(np.where(series.mask == 1.0, series.values, 0.0))  # 0 if unobserved/pad
        with scope("conv"):
            if self.bn.accumulating:  # its moments need the raw convolution
                x_loc = self.bn(depthwise_conv1d(observed, self.kernels),
                                window_lengths(series.mask))
            else:  # the frozen map folds into the kernels (scale per channel) plus a shift
                kernels, shift = fold_once(self, (self.kernels, self.bn), self._folded_kernels)
                x_loc = depthwise_conv1d(observed, kernels) + shift
        gaps = event_gaps(series.times, first_gap=self.first_gap)
        with scope("dynamics"):
            s = self.gate(gaps).reshape(gaps.shape + (1, 1))
            gamma = self.gamma_hat.softplus()
            return (x_loc * s - self.theta) * gamma, gaps

    def encode(self, series: EventSeries | EventBatch,
               smooth: bool = False) -> tuple[Tensor, np.ndarray]:
        """Spike raster [K, D, C] ([K, B, D, C] for a batch) and the event gaps used for decay."""
        current, gaps = self.drive_current(series)
        with scope("dynamics"):
            spikes = ealif_spike_scan(current, gaps, self.eta, smooth=smooth)
        return spikes, gaps

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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .neuron import ealif_spike_scan, eta_for_tau_init
from .tensor import BatchNorm, Module, Tensor, depthwise_conv1d, parameter


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

    def observed_values(self) -> np.ndarray:
        """Values with unobserved entries forced to zero."""
        return np.where(self.mask == 1.0, self.values, 0.0)


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
    """Gaps dt_k = t_k - t_{k-1}; the first event has no predecessor.

    first_gap "zero" sets dt_1 = 0; "median" uses the median later gap
    (0 when the series has a single event).
    """
    times = np.asarray(times, dtype=np.float64)
    gaps = np.empty_like(times)
    gaps[1:] = np.diff(times)
    if first_gap == "zero":
        gaps[0] = 0.0
    elif first_gap == "median":
        gaps[0] = float(np.median(gaps[1:])) if times.size > 1 else 0.0
    else:
        raise ConfigError(f"first_gap must be 'zero' or 'median', got {first_gap!r}")
    return gaps


@dataclass
class SedSeEncoder(Module):
    """Spike encoder: depthwise conv + batch norm, gap gate, EA-LIF scan.

    Produces a binary spike raster [K, D, C] from an EventSeries.
    """

    n_variates: int
    channels: int = 8
    kernel_size: int = 3
    tau_init: float = 2.0
    v_th: float = 1.0
    alpha: float = 4.0
    first_gap: str = "zero"
    seed: int = 0

    kernels: Tensor = field(init=False)
    bn: BatchNorm = field(init=False)
    gate_a: Tensor = field(init=False)
    gate_b: Tensor = field(init=False)
    rho_hat: Tensor = field(init=False)
    gamma_hat: Tensor = field(init=False)
    theta: Tensor = field(init=False)
    eta: Tensor = field(init=False)

    def __post_init__(self):
        if self.n_variates < 1 or self.channels < 1:
            raise ConfigError("need at least one variate and one channel")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ConfigError(f"kernel size must be odd, got {self.kernel_size}")
        rng = np.random.default_rng(self.seed)
        bound = 1.0 / np.sqrt(self.kernel_size)
        self.kernels = parameter(
            rng.uniform(-bound, bound, size=(self.n_variates, self.channels, self.kernel_size)))
        self.bn = BatchNorm(self.channels)
        self.gate_a = parameter(1.0)
        self.gate_b = parameter(0.0)
        # softplus(rho_hat) + 1e-3 == 1.0 at init
        self.rho_hat = parameter(np.log(np.expm1(1.0 - 1e-3)))
        # softplus(gamma_hat) == 1.0 at init
        self.gamma_hat = parameter(np.log(np.expm1(1.0)))
        self.theta = parameter(np.zeros(self.channels))
        self.eta = parameter(eta_for_tau_init(self.tau_init))

    def gate(self, gaps: np.ndarray) -> Tensor:
        """Staleness gate s_k = sigmoid(a * log(1 + dt_k / rho) + b), [K]."""
        rho = self.rho_hat.softplus() + 1e-3
        dt_hat = (Tensor(np.asarray(gaps, dtype=np.float64)) / rho).log1p()
        return (dt_hat * self.gate_a + self.gate_b).sigmoid()

    def drive_current(self, series: EventSeries) -> tuple[Tensor, np.ndarray]:
        """Input current I [K, D, C] to the spiking scan, plus gaps [K]."""
        if series.n_variates != self.n_variates:
            raise DataError(
                f"encoder built for {self.n_variates} variates, series has {series.n_variates}")
        x_loc = self.bn(depthwise_conv1d(Tensor(series.observed_values()), self.kernels))
        gaps = event_gaps(series.times, first_gap=self.first_gap)
        s = self.gate(gaps).reshape(-1, 1, 1)
        gamma = self.gamma_hat.softplus()
        return (x_loc * s - self.theta) * gamma, gaps

    def encode(self, series: EventSeries, smooth: bool = False) -> tuple[Tensor, np.ndarray]:
        """Spike raster [K, D, C] and the event gaps used for decay."""
        current, gaps = self.drive_current(series)
        spikes = ealif_spike_scan(current, gaps, self.eta, v_th=self.v_th,
                                  alpha=self.alpha, smooth=smooth)
        return spikes, gaps

"""Full forecaster: encoder -> event pooling -> blocks -> summary -> decoder.

The decoder is query-based: one summary vector per variate is concatenated
with the time embedding of each requested horizon stamp and mapped to a
scalar prediction, so any set of future times can be queried without
regridding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import Block, TimeEmbedding, aggregate_observed, embed_tokens
from .downsample import pool_events
from .encoder import EventSeries, SedSeEncoder, event_gaps
from .errors import ConfigError, DataError
from .tensor import BatchNorm, Module, Tensor, concat, no_grad, parameter


@dataclass
class ModelConfig:
    """Hyperparameters; defaults follow the reference setup."""

    n_variates: int
    conv_channels: int = 8
    kernel_size: int = 3
    dim: int = 32
    heads: int = 4
    blocks: int = 2
    pool_stride: int = 4
    tau_init: float = 2.0
    v_th: float = 1.0
    alpha_ste: float = 4.0
    te_span: float = 90.0
    first_gap: str = "zero"
    attention_eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_variates < 1:
            raise ConfigError("need at least one variate")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.blocks < 1:
            raise ConfigError("need at least one block")
        if self.pool_stride < 1:
            raise ConfigError("pool stride must be >= 1")
        if self.tau_init < 1.0:
            raise ConfigError("tau_init must be >= 1")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


class Decoder(Module):
    """Maps (variate summary, query-time embedding) to one scalar.

    MLP: 2d -> 2d -> rectifier -> 2d -> rectifier -> 1.
    """

    def __init__(self, dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        w = 2 * dim

        def mat(n_in, n_out):
            return parameter(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))

        self.w1, self.b1 = mat(w, w), parameter(np.zeros(w))
        self.w2, self.b2 = mat(w, w), parameter(np.zeros(w))
        self.w3, self.b3 = mat(w, 1), parameter(np.zeros(1))

    def __call__(self, z_and_te: Tensor) -> Tensor:
        h = (z_and_te @ self.w1 + self.b1).relu()
        h = (h @ self.w2 + self.b2).relu()
        return h @ self.w3 + self.b3


class SedFormer(Module):
    """Event-synchronous spiking forecaster for irregular series."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c = config
        self.encoder = SedSeEncoder(
            n_variates=c.n_variates, channels=c.conv_channels,
            kernel_size=c.kernel_size, tau_init=c.tau_init, v_th=c.v_th,
            alpha=c.alpha_ste, first_gap=c.first_gap, seed=c.seed)
        rng = np.random.default_rng(c.seed + 1)
        self.embed = parameter(
            rng.normal(0.0, 1.0 / np.sqrt(c.conv_channels), size=(c.conv_channels, c.dim)))
        self.te = TimeEmbedding(c.dim, span=c.te_span)  # tokens and decoder queries
        self.blocks = [
            Block(c.dim, c.heads, tau_init=c.tau_init, eps=c.attention_eps,
                  seed=c.seed + 10 + i)
            for i in range(c.blocks)
        ]
        self.decoder = Decoder(c.dim, seed=c.seed + 4)

    # -- normalization ----------------------------------------------------------

    def batch_norms(self) -> list[BatchNorm]:
        return [m for m in self.modules() if isinstance(m, BatchNorm)]

    def calibrate(self, series_list) -> None:
        """Refresh normalization statistics with exact pooled moments.

        One pass over the given series under the current statistics; each
        normalizer records its raw input moments and commits them at the end.
        This is the only way statistics change outside ``load_state``, so
        training and inference scale features identically even though each
        forward sees one series.
        """
        norms = self.batch_norms()
        for bn in norms:
            bn.start_accumulation()
        with no_grad():
            for series in series_list:
                self.summarize(series)
        for bn in norms:
            bn.stop_accumulation()

    # -- forward --------------------------------------------------------------

    def summarize(self, series: EventSeries, smooth: bool = False) -> Tensor:
        """Per-variate summary vectors [D, dim] for one history window."""
        c = self.config
        spikes, _ = self.encoder.encode(series, smooth=smooth)
        pooled, mask_p, times_p = pool_events(spikes, series.mask, series.times,
                                              c.pool_stride)
        gaps_p = event_gaps(times_p, first_gap=c.first_gap)
        x = embed_tokens(pooled, times_p, self.embed, self.te)
        for block in self.blocks:
            x = block(x, gaps_p)
        return aggregate_observed(x, mask_p)

    def forward(self, series: EventSeries, query_times: list[np.ndarray],
                smooth: bool = False) -> list[Tensor | None]:
        """Predictions per variate; ``query_times[d]`` is [Q_d] (may be empty).

        Returns a list of [Q_d] tensors (None where Q_d == 0). Every query of
        every variate goes through one decoder call.
        """
        if len(query_times) != self.config.n_variates:
            raise ConfigError(
                f"expected {self.config.n_variates} query lists, got {len(query_times)}")
        qs = [np.asarray(q, dtype=np.float64).reshape(-1) for q in query_times]
        stamps = np.concatenate(qs)
        if not np.all(np.isfinite(stamps)):
            raise DataError("query times must be finite")
        z = self.summarize(series, smooth=smooth)
        sizes = [q.size for q in qs]
        rows = np.repeat(np.arange(len(qs)), sizes)  # query -> its variate
        inp = concat([z[rows], self.te(stamps)], axis=1)
        y = self.decoder(inp).reshape(-1)
        ends = np.cumsum(sizes)
        return [y[end - n:end] if n else None for n, end in zip(sizes, ends)]

    def predict(self, series: EventSeries,
                query_times: list[np.ndarray]) -> list[np.ndarray | None]:
        """Inference: hard spikes, no tape."""
        with no_grad():
            preds = self.forward(series, query_times)
        return [None if p is None else p.data.copy() for p in preds]

    # -- state ------------------------------------------------------------------

    def load_state(self, params: dict[str, np.ndarray],
                   buffers: dict[str, np.ndarray]) -> None:
        own = self.parameters()
        missing = set(own) - set(params)
        extra = set(params) - set(own)
        if missing or extra:
            raise ConfigError(
                f"parameter names disagree; missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(params[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ConfigError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()
        own_buf = self.buffers()
        for name, b in own_buf.items():
            if name not in buffers:
                raise ConfigError(f"missing buffer {name}")
            arr = np.asarray(buffers[name], dtype=np.float64)
            if arr.shape != b.shape:
                raise ConfigError(f"shape mismatch for buffer {name}")
            b[...] = arr

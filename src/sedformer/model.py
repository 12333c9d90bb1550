"""Full forecaster: encoder -> event pooling -> blocks -> summary -> decoder.

The decoder is query-based: one summary vector per variate is paired
with the time embedding of each requested horizon stamp and mapped to a
scalar prediction, so any set of future times can be queried without
regridding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neuron
from .backbone import Block, TimeEmbedding, aggregate_observed, embed_tokens
from .downsample import pool_events
from .encoder import EventBatch, EventSeries, SedSeEncoder, event_gaps, window_lengths
from .errors import ConfigError, DataError
from .neuron import TAU_MAX
from .parallel import share
from .tensor import (BatchNorm, Module, Tensor, accumulate_grad, assert_finite, count_macs,
                     fold_once, linear, make_op, no_grad, parameter, scope, stats_written)

# Rows of one padded batch: event x variate slots (K_max * B * D) plus the
# decoder's query rows. Training runs and calibrate group windows in order up
# to BATCH_ROWS, and ``evaluate`` groups them by length (``eval_batches``); a
# larger window runs alone. A training run pays 4-6 ms of fixed work whatever
# its size (61 of a `suite` run's 142 op nodes rebuild the normalizer folds), so
# larger runs pay: forward plus backward took 2.90 ms per `suite` window at 4
# windows a run, 2.47 at 8 and 2.21 at 16 (one process, 2 CPUs). At 4096 rows a
# `suite` run holds 8 windows, a `sparse_short` run a whole minibatch of 16,
# and an `async_long` window (2,360-2,992 rows) runs alone. Together with the
# fused ops that keep the larger tape's peak memory down, `suite` trained 1.25x
# and `sparse_short` 1.16x as fast as at 2048 rows (benchmark medians of 10
# process pairs; `suite` won 10 of 10). Before the heap pad
# (``tensor.HEAP_TOP_PAD``) larger tapes faulted in fresh pages, and 4096 rows
# gained only 1.01x.
BATCH_ROWS = 4096

# Largest token dimension, encoder width, kernel and depth. The parameters grow
# as ~24 dim^2 (12 MiB at 256, 192 MiB at 1024 with 2 blocks), ~8 dim^2 more per
# block, and training keeps about five copies of them (gradients, Adam's two
# moments, the best-on-validation copy): ~1 GiB at MAX_DIM, ~2.8 GiB with 8
# blocks; the sweep grid stops at dim 128 and 4 blocks. A channel adds a value
# per event slot to each raster array (16 MiB per array of a 2048-slot batch at
# 1024; 1 epoch on a 600-day suite peaked at 214 MiB RSS, 51 at 8 channels).
# The D*C*k kernel weights take 2 MiB per variate at the bounds.
MAX_DIM, MAX_CHANNELS, MAX_KERNEL_SIZE, MAX_BLOCKS = 1024, 1024, 255, 8

# Time-embedding stamp scale in days: a fixed setting (a ModelConfig field in
# older checkpoints, as are the neuron's V_TH and ALPHA_STE and the backbone's
# ATTENTION_EPS).
TE_SPAN = 90.0


def batch_ranges(series: list[EventSeries],
                 n_queries: list[int] | None = None) -> list[range]:
    """Consecutive index runs of ``series``, each one batch of at most
    ``BATCH_ROWS`` rows or a single larger window; window i brings
    ``n_queries[i]`` decoder rows (none without ``n_queries``)."""
    runs, start, k_max, q = [], 0, 0, 0
    for i, s in enumerate(series):
        k = max(k_max, s.n_events)
        q_i = n_queries[i] if n_queries else 0
        if i > start and k * (i + 1 - start) * s.n_variates + q + q_i > BATCH_ROWS:
            runs.append(range(start, i))
            start, k, q = i, s.n_events, 0
        k_max, q = k, q + q_i
    if series:
        runs.append(range(start, len(series)))
    return runs


def eval_batches(series: list[EventSeries], n_queries: list[int]) -> list[list[int]]:
    """Index lists of ``series`` for a pass that keeps no tape.

    Windows go in order of event count (a stable sort), so batch-mates pad
    little, and ``batch_ranges`` groups them under ``BATCH_ROWS``. A window
    of at least ``neuron.EVENT_PATH_MIN_K`` events runs alone, because the
    event-driven spike path covers only lone windows.
    """
    order = sorted(range(len(series)), key=lambda i: series[i].n_events)
    n_short = sum(series[i].n_events < neuron.EVENT_PATH_MIN_K for i in order)
    short = order[:n_short]
    runs = batch_ranges([series[i] for i in short], [n_queries[i] for i in short])
    return [short[run.start:run.stop] for run in runs] + [[i] for i in order[n_short:]]


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
    first_gap: str = "zero"
    seed: int = 0

    def __post_init__(self):
        if self.n_variates < 1:
            raise ConfigError("need at least one variate")
        if self.heads < 1:
            raise ConfigError(f"need at least one attention head, got heads={self.heads}")
        for name, bound in (("dim", MAX_DIM), ("conv_channels", MAX_CHANNELS),
                            ("kernel_size", MAX_KERNEL_SIZE), ("blocks", MAX_BLOCKS)):
            if not 1 <= getattr(self, name) <= bound:
                raise ConfigError(f"{name} must lie in [1, {bound}], got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.pool_stride < 1:
            raise ConfigError("pool stride must be >= 1")
        if not 1.0 <= self.tau_init <= TAU_MAX:  # its eta overflows past TAU_MAX
            raise ConfigError(f"tau_init must lie in [1, {TAU_MAX!r}], got {self.tau_init}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def _segment_sum(g: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Rows of ``g`` [Q, m] summed by ``index`` [Q] into [n, m]; a segment
    with no row is 0. One stable sort and one ``reduceat``."""
    out = np.zeros((n, g.shape[1]))
    counts = np.bincount(index, minlength=n)
    filled = counts > 0
    if np.any(filled):
        starts = np.cumsum(counts) - counts  # reduceat gives a row, not 0, for an empty segment
        out[filled] = np.add.reduceat(g[np.argsort(index, kind="stable")], starts[filled],
                                      axis=0)
    return out


def query_mlp(a: Tensor, e: Tensor, rows: np.ndarray, cols: np.ndarray,
              w2: Tensor, b2: Tensor, w3: Tensor, b3: Tensor) -> Tensor:
    """The decoder after its first layer's two halves, as one op.

    a: [R, m] first-layer rows of the summaries; e: [U, m] first-layer rows
    (bias included) of the distinct query stamps; query i pairs
    ``a[rows[i]]`` with ``e[cols[i]]``. Output [Q, 1]:
        h1 = relu(a[rows] + e[cols]),  h2 = relu(h1 @ w2 + b2),  y = h2 @ w3 + b3.
    The tape keeps only h1 and h2. The backward takes every parameter
    gradient from ``h2^T g`` and ``h1^T g2`` (g2: the gradient at h2's
    pre-activation), and the gradients of ``a`` and ``e`` as sums over each
    one's query rows (``_segment_sum``). It writes ``g2 @ w2^T`` over h2,
    which it reads no more, so its peak holds one [Q, m] temporary fewer.
    """
    h1 = a.data[rows]
    h1 += e.data[cols]
    np.maximum(h1, 0.0, out=h1)
    h2 = h1 @ w2.data
    h2 += b2.data
    np.maximum(h2, 0.0, out=h2)
    out = h2 @ w3.data + b3.data
    count_macs(h2.size * h1.shape[1] + out.size * h2.shape[1],
               h1.size + w2.data.size + h2.size + w3.data.size, h2.size + out.size)

    def bwd(g):
        accumulate_grad(w3, h2.T @ g)
        accumulate_grad(b3, g.sum(axis=0))
        g = g * w3.data.T  # [Q, 1] x [1, m]: an outer product, so no BLAS call
        g *= h2 > 0.0  # h > 0 exactly where its pre-activation is
        accumulate_grad(w2, h1.T @ g)
        accumulate_grad(b2, g.sum(axis=0))
        g = np.matmul(g, w2.data.T, out=h2)
        g *= h1 > 0.0
        accumulate_grad(a, _segment_sum(g, rows, a.shape[0]))
        accumulate_grad(e, _segment_sum(g, cols, e.shape[0]))

    return make_op(out, (a, e, w2, b2, w3, b3), bwd)


class Decoder(Module):
    """Maps (variate summary, query-time embedding) to one scalar.

    MLP: 2d -> 2d -> rectifier -> 2d -> rectifier -> 1 on the concatenated
    pair. The first layer acts on the two halves apart, w1 = [w1_z; w1_t],
    so it runs once per summary and once per distinct stamp instead of once
    per query; ``query_mlp`` does the rest.
    """

    def __init__(self, dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        w = 2 * dim

        def mat(n_in, n_out):
            return parameter(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))

        self.w1, self.b1 = mat(w, w), parameter(np.zeros(w))
        self.w2, self.b2 = mat(w, w), parameter(np.zeros(w))
        self.w3, self.b3 = mat(w, 1), parameter(np.zeros(1))

    def __call__(self, z: Tensor, te: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
        """z: [R, d] summaries; te: [U, d] stamp embeddings; query i decodes
        (z[rows[i]], te[cols[i]]). Output [Q, 1]."""
        d = z.shape[-1]
        w1_z, w1_t = fold_once(self, (self.w1,), lambda: (self.w1[:d], self.w1[d:]))
        a = linear(z, w1_z)
        e = linear(te, w1_t, self.b1)
        return query_mlp(a, e, rows, cols, self.w2, self.b2, self.w3, self.b3)


class SedFormer(Module):
    """Event-synchronous spiking forecaster for irregular series."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c = config
        self.encoder = SedSeEncoder(
            n_variates=c.n_variates, channels=c.conv_channels,
            kernel_size=c.kernel_size, tau_init=c.tau_init, first_gap=c.first_gap,
            seed=c.seed)
        rng = np.random.default_rng(c.seed + 1)
        self.embed = parameter(
            rng.normal(0.0, 1.0 / np.sqrt(c.conv_channels), size=(c.conv_channels, c.dim)))
        self.te = TimeEmbedding(c.dim, span=TE_SPAN)  # tokens and decoder queries
        self.blocks = [
            Block(c.dim, c.heads, tau_init=c.tau_init, seed=c.seed + 10 + i)
            for i in range(c.blocks)
        ]
        self.decoder = Decoder(c.dim, seed=c.seed + 4)

    # -- normalization ----------------------------------------------------------

    def batch_norms(self) -> list[BatchNorm]:
        return [m for m in self.modules() if isinstance(m, BatchNorm)]

    def calibrate(self, series_list, worker: bool = False) -> None:
        """Refresh normalization statistics with exact pooled moments.

        One no-tape pass in batches (``batch_ranges``) through the folded
        forward, under the current statistics (``observe_runs``); each
        normalizer observes its input's moments over a batch's real rows and
        commits the pooled moments (those of one forward per series, up to
        rounding) at the end. This is the only way statistics change outside
        ``load_state``, so training and inference scale features identically.

        With ``worker`` the worker process observes the second half of the
        batches (``parallel.share``), and what it observed is pooled after
        this process's half: bitwise the statistics of one process.
        """
        series_list = list(series_list)
        halves = share(worker, SedFormer.observe_runs, self, series_list,
                       batch_ranges(series_list))
        for bn, *seen in zip(self.batch_norms(), *(half for half in halves if half is not None)):
            bn.commit([o for observed in seen for o in observed])  # mine, then theirs

    def observe_runs(self, series_list: list[EventSeries], runs: list) -> list[list]:
        """``calibrate``'s pass: ``summarize`` each run (indices of
        ``series_list``) without a tape. Returns what each normalizer observed,
        in run order (``BatchNorm.take_observations``); no statistic changes."""
        norms = self.batch_norms()
        for bn in norms:
            bn.start_accumulation()
        try:
            with no_grad():
                for run in runs:
                    self.summarize([series_list[i] for i in run])
        finally:  # a failed pass leaves no normalizer accumulating
            observed = [bn.take_observations() for bn in norms]
        return observed

    # -- forward --------------------------------------------------------------

    def summarize(self, series: EventSeries | list[EventSeries],
                  smooth: bool = False) -> Tensor:
        """Per-variate summary vectors [D, dim] for one history window.

        A list of B windows runs as one padded, time-major batch
        (``EventBatch``) and gives [B, D, dim].
        """
        c = self.config
        if not isinstance(series, EventSeries):
            series = EventBatch.stack(list(series))
        with scope("encoder"):
            spikes, _ = self.encoder.encode(series, smooth=smooth)
        with scope("embed"):
            pooled, mask_p, times_p = pool_events(spikes, series.mask, series.times,
                                                  c.pool_stride)
            x = embed_tokens(pooled, times_p, self.embed, self.te)
        gaps_p = event_gaps(times_p, first_gap=c.first_gap)
        lengths = window_lengths(mask_p)
        for i, block in enumerate(self.blocks):
            with scope(f"block{i}"):
                x = block(x, gaps_p, lengths)
        with scope("aggregate"):
            return aggregate_observed(x, mask_p)

    def forward(self, series: EventSeries | list[EventSeries], query_times: list,
                smooth: bool = False) -> list:
        """Predictions per variate; ``query_times[d]`` is [Q_d] (may be empty).

        Returns a list of [Q_d] tensors (None where Q_d == 0). A list of B
        windows takes a list of B such query lists, runs as one batch (see
        ``summarize``) and returns one such list per window. Every query of
        every variate (and window) goes through one decoder call, which
        embeds each distinct stamp once.
        """
        single = isinstance(series, EventSeries)
        windows, per_window = ([series], [query_times]) if single else (
            list(series), list(query_times))
        if len(per_window) != len(windows):
            raise ConfigError(f"expected {len(windows)} query sets, got {len(per_window)}")
        for queries in per_window:
            if len(queries) != self.config.n_variates:
                raise ConfigError(
                    f"expected {self.config.n_variates} query lists, got {len(queries)}")
        z = self.summarize(series, smooth=smooth)  # [D, dim] or [B, D, dim]
        qs = [np.asarray(q, dtype=np.float64).reshape(-1) for qw in per_window for q in qw]
        stamps = np.concatenate(qs)
        if not np.all(np.isfinite(stamps)):
            raise DataError("query times must be finite")
        sizes = [q.size for q in qs]
        rows = np.repeat(np.arange(len(qs)), sizes)  # query -> its (window,) variate
        uniq, cols = np.unique(stamps, return_inverse=True)  # query -> its distinct stamp
        with scope("decoder"):
            y = self.decoder(z.reshape(-1, z.shape[-1]), self.te(uniq), rows, cols).reshape(-1)
        ends = np.cumsum(sizes)
        preds = [y[end - n:end] if n else None for n, end in zip(sizes, ends)]
        D = self.config.n_variates
        out = [preds[b * D:(b + 1) * D] for b in range(len(per_window))]
        return out[0] if single else out

    def predict(self, series: EventSeries,
                query_times: list[np.ndarray]) -> list[np.ndarray | None]:
        """Inference on one window: hard spikes, no tape, finite outputs or
        a ``NumericsError``."""
        with no_grad():
            preds = self.forward(series, query_times)
        out = [None if p is None else p.data.copy() for p in preds]
        for p in out:
            if p is not None:
                assert_finite(p, "predictions")
        return out

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
        stats_written()

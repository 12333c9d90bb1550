"""Reference implementations that production code does not run.

Each one computes what a fused or batched path in ``sedformer`` computes,
op by op from tape primitives, so the tests can compare outputs and
gradients against it:

- ``composed_attention``: ``SedAttention`` with its normalizers applied
  unfolded and the linear-attention core as batched tape products.
- ``composed_feed_forward`` / ``composed_drive_current``: ``FeedForward``
  and ``SedSeEncoder.drive_current`` with their normalizer applied unfolded
  (``BatchNorm.__call__``) after the raw first layer or convolution.
- ``concat_decoder``: the ``Decoder`` MLP over concatenated
  ``[summary, time embedding]`` query rows, three ``linear`` layers.
- ``lif_step`` / ``ealif_step`` (with ``LifConfig`` / ``EaLifConfig``):
  one neuron update per call, the reference for ``neuron._ealif_scan``
  (the kernel behind ``ealif_spike_scan`` and ``ealif_filter``) and for
  criterion 2; ``tau_from_eta`` is their tau = softplus(eta) + 1, which
  the scan computes on raw arrays (``neuron._beta_and_chain``).
- ``event_raster``: the raster's event-driven reference neuron as a scalar
  loop over the stamps, for any tau > 0.
- ``count_ann_layer``: the op counts of one dense layer written out as a
  formula, the reference that ``energy.dense_counts`` of a measured
  ``linear`` must reproduce.
- ``stream_windows``: ``data.make_windows`` through per-variate
  ``(days, values)`` streams merged by ``align_events``, the way
  arbitrary stamps are aligned.
- ``lagrange_fill_by_day`` / ``nearest_fill_by_day``: ``data.lagrange_fill``
  and its nearest-value fallback, one day at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from sedformer.backbone import FeedForward, SedAttention
from sedformer.data import HISTORY_DAYS, WINDOW_DAYS
from sedformer.encoder import EventBatch, EventSeries, SedSeEncoder, align_events, event_gaps
from sedformer.energy import OpCounts, dense_counts
from sedformer.errors import ConfigError, DataError
from sedformer.model import Decoder
from sedformer.neuron import ealif_filter, eta_for_tau, heaviside, surrogate_grad
from sedformer.tensor import (BatchNorm, Tensor, accumulate_grad, concat, depthwise_conv1d,
                              linear, make_op, parameter, sigmoid)
from sedformer.training import WindowItem

# -- attention ---------------------------------------------------------------------


def composed_attention(attn: SedAttention, x: Tensor, gaps: np.ndarray,
                       lengths: np.ndarray | None = None,
                       norm: BatchNorm | None = None) -> Tensor:
    """``attn(x, gaps, lengths, norm=norm)`` composed from tape primitives.

    Every normalizer runs as its own ops, and the heads split, the
    ``KV``/``k_sum`` products, the pad mask and the division are separate
    tape nodes.
    """
    if norm is not None:
        x = norm(x)
    dim = x.shape[-1]
    Kp, D = x.shape[0], x.shape[-2]
    B = math.prod(x.shape[1:-2])
    H, dh = attn.heads, attn.d_head
    x_flat = x.reshape(-1, dim)

    def heads(w, bn, eta):  # -> [B, H, K'*D, d_h]
        f = ealif_filter(bn((x_flat @ w).reshape(x.shape)), gaps, eta)
        return f.reshape(Kp, B, D, H, dh).transpose(1, 3, 0, 2, 4).reshape(B, H, Kp * D, dh)

    phi_q = heads(attn.w_q, attn.bn_q, attn.eta_q).softplus()
    phi_k = heads(attn.w_k, attn.bn_k, attn.eta_k).softplus()
    vtil = heads(attn.w_v, attn.bn_v, attn.eta_v)
    if lengths is not None and np.any(lengths < Kp):
        real = np.repeat(np.arange(Kp) < lengths[:, None], D, axis=1)  # [B, K'*D]
        phi_k = phi_k * Tensor(real[:, None, :, None])
    kv = phi_k.transpose(0, 1, 3, 2) @ vtil                                # [B, H, d_h, d_h]
    k_sum = phi_k.sum(axis=-2, keepdims=True).transpose(0, 1, 3, 2)        # [B, H, d_h, 1]
    y = (phi_q @ kv) / (phi_q @ k_sum + attn.eps)                          # [B, H, K'*D, d_h]
    y = y.reshape(B, H, Kp, D, dh).transpose(2, 0, 3, 1, 4).reshape(-1, dim)
    return (y @ attn.w_o).reshape(x.shape)


def composed_feed_forward(ffn: FeedForward, x: Tensor, lengths: np.ndarray | None = None,
                          norm: BatchNorm | None = None) -> Tensor:
    """``ffn(x, lengths, norm=norm)`` with the normalizer as its own ops."""
    if norm is not None:
        x = norm(x)
    return linear(linear(x, ffn.w1, ffn.b1).relu(), ffn.w2, ffn.b2)


# -- encoder -----------------------------------------------------------------------


def composed_drive_current(enc: SedSeEncoder,
                           series: EventSeries | EventBatch) -> tuple[Tensor, np.ndarray]:
    """``enc.drive_current(series)`` with the normalizer as its own ops after
    the raw convolution."""
    observed = Tensor(np.where(series.mask == 1.0, series.values, 0.0))
    x_loc = enc.bn(depthwise_conv1d(observed, enc.kernels))
    gaps = event_gaps(series.times, first_gap=enc.first_gap)
    s = enc.gate(gaps).reshape(gaps.shape + (1, 1))
    return (x_loc * s - enc.theta) * enc.gamma_hat.softplus(), gaps


# -- decoder -----------------------------------------------------------------------


def concat_decoder(dec: Decoder, z: Tensor, te: Tensor) -> Tensor:
    """``Decoder`` on one row per query: z, te [Q, d] -> [Q, 1], with the
    first layer on the concatenation ``[z, te]`` [Q, 2d]."""
    h = linear(concat([z, te], axis=1), dec.w1, dec.b1).relu()
    h = linear(h, dec.w2, dec.b2).relu()
    return linear(h, dec.w3, dec.b3)


# -- per-step neurons ----------------------------------------------------------------


def spike(u: Tensor, alpha: float = 4.0, smooth: bool = False) -> Tensor:
    """Threshold with a straight-through surrogate gradient.

    Forward: H(u) (hard) or s(alpha*u) (smooth). Backward: surrogate in
    both modes, so gradients are identical across modes.
    """
    if alpha <= 0:
        raise ConfigError(f"surrogate sharpness must be positive, got {alpha}")
    u_data = u.data
    out = sigmoid(alpha * u_data) if smooth else heaviside(u_data)
    psi = surrogate_grad(u_data, alpha)

    def bwd(g):
        accumulate_grad(u, g * psi)

    return make_op(out, (u,), bwd)


@dataclass
class LifConfig:
    """Discrete-step LIF: fixed leak alpha in [0, 1)."""

    alpha: float = 0.5
    v_th: float = 1.0
    alpha_ste: float = 4.0

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigError(f"leak alpha must lie in [0, 1), got {self.alpha}")
        if self.v_th <= 0:
            raise ConfigError(f"threshold must be positive, got {self.v_th}")
        if self.alpha_ste <= 0:
            raise ConfigError(f"surrogate sharpness must be positive, got {self.alpha_ste}")


@dataclass
class EaLifConfig:
    """Event-driven LIF: learnable eta with tau = softplus(eta) + 1 > 1."""

    eta: Tensor = field(default_factory=lambda: parameter(eta_for_tau(2.0)))
    v_th: float = 1.0
    alpha_ste: float = 4.0

    def __post_init__(self):
        if not isinstance(self.eta, Tensor):
            self.eta = parameter(float(self.eta))
        if self.v_th <= 0:
            raise ConfigError(f"threshold must be positive, got {self.v_th}")
        if self.alpha_ste <= 0:
            raise ConfigError(f"surrogate sharpness must be positive, got {self.alpha_ste}")


def lif_step(v_prev: Tensor, x: Tensor, cfg: LifConfig,
             smooth: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """One discrete leaky integrate-and-fire step.

    m = alpha * v_prev + (1 - alpha) * x; spike at m >= v_th; soft reset
    subtracts v_th on firing. Returns (m, s, v). alpha=0 keeps no membrane
    memory across steps (the non-leaky reduction).
    """
    m = v_prev * cfg.alpha + x * (1.0 - cfg.alpha)
    s = spike(m - cfg.v_th, alpha=cfg.alpha_ste, smooth=smooth)
    v = m - s * cfg.v_th
    return m, s, v


def tau_from_eta(eta: Tensor) -> Tensor:
    """Membrane time constant tau = softplus(eta) + 1 as tape ops; always > 1."""
    return eta.softplus() + 1.0


def ealif_leak(dt, eta: Tensor) -> Tensor:
    """Gap-dependent decay beta = exp(-dt / tau), differentiable in eta.

    dt: scalar or [K] nonnegative gaps; beta = 1 at dt = 0.
    """
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt < 0):
        raise DataError("event gaps must be nonnegative")
    tau = tau_from_eta(eta)
    return (Tensor(-dt) / tau).exp()


def ealif_step(v_prev: Tensor, current: Tensor, dt: float, cfg: EaLifConfig,
               smooth: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """One event-driven LIF update; the leak depends on the elapsed gap.

    m = beta(dt) * v_prev + (1 - beta(dt)) * I; threshold and soft reset as
    in lif_step. Returns (m, s, v). ``sedformer.neuron.ealif_spike_scan``
    runs the same update over a whole scan.
    """
    beta = ealif_leak(float(dt), cfg.eta)
    m = v_prev * beta + current * (1.0 - beta)
    s = spike(m - cfg.v_th, alpha=cfg.alpha_ste, smooth=smooth)
    v = m - s * cfg.v_th
    return m, s, v


def event_raster(t: np.ndarray, x: np.ndarray, tau: float, v_th: float, gamma: float,
                 theta: float) -> np.ndarray:
    """Spikes of ``data.baseline_encoders``' "event" row, one scalar update per stamp:
    m = beta * v + (1 - beta) * gamma * (x - theta) with beta = exp(-dt / tau)."""
    beta = np.exp(-np.diff(t, prepend=t[0]) / tau)
    spikes, v = np.zeros(t.size), 0.0
    for k in range(t.size):
        m = beta[k] * v + (1.0 - beta[k]) * gamma * (x[k] - theta)
        spikes[k] = 1.0 if m >= v_th else 0.0
        v = m - v_th * spikes[k]
    return spikes


# -- energy ------------------------------------------------------------------------


def count_ann_layer(d_in: int, d_out: int, t_eff: int) -> OpCounts:
    """Dense layer activity over t_eff steps: n_mac = d_in*d_out*t_eff,
    one parameter fetch per invocation plus per-step activation reads and
    writes. Zero steps means zero activity of every kind.
    """
    if d_in < 1 or d_out < 1:
        raise ConfigError(f"dims must be positive, got d_in={d_in}, d_out={d_out}")
    if t_eff < 0:
        raise ConfigError(f"t_eff must be nonnegative, got {t_eff}")
    if t_eff == 0:
        return OpCounts()
    return dense_counts(d_in * d_out * t_eff, d_in * d_out + d_in * t_eff, d_out * t_eff)


# -- data ----------------------------------------------------------------------------


def stream_windows(values: np.ndarray, keep_mask: np.ndarray, stride: int,
                   min_events: int = 1) -> list[WindowItem]:
    """``data.make_windows`` on a valid panel, with the same warnings: each
    window's history split into one (kept days, values) stream per variate,
    merged onto their union by ``align_events``."""
    D, T = values.shape
    if T < WINDOW_DAYS:
        warnings.warn(f"panel has {T} days < {WINDOW_DAYS}; no windows produced")
        return []
    items = []
    for start in range(0, T - WINDOW_DAYS + 1, stride):
        hist = slice(start, start + HISTORY_DAYS)
        per_variate = []
        for d in range(D):
            days = np.flatnonzero(keep_mask[d, hist] == 1.0)
            per_variate.append((days.astype(np.float64), values[d, hist][days]))
        if not any(days.size for days, _ in per_variate):
            warnings.warn(f"window at day {start} has no observed events; dropped")
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a variate with no kept day
            series = align_events(per_variate)
        if series.n_events < min_events:
            warnings.warn(f"window at day {start} has {series.n_events} events "
                          f"< {min_events}; dropped")
            continue
        q_times = np.arange(HISTORY_DAYS, WINDOW_DAYS, dtype=np.float64)
        items.append(WindowItem(series=series, query_times=[q_times.copy() for _ in range(D)],
                                targets=[values[d, start + HISTORY_DAYS:start + WINDOW_DAYS].copy()
                                         for d in range(D)]))
    return items


def lagrange_fill_by_day(series: np.ndarray, gap_cap: int) -> np.ndarray:
    """``data.lagrange_fill`` of a 1-D series with a known value, one missing
    day at a time: each day of a short gap from the quadratic through its
    gap's three anchors, each day of a long gap from the linear bridge."""
    x = np.asarray(series, dtype=np.float64).copy()
    known = np.flatnonzero(np.isfinite(x))
    if known.size == x.size:
        return x
    if known.size < 3:
        warnings.warn("fewer than 3 known points; nearest-value fill")
        return nearest_fill_by_day(x, known)
    first, last = known[0], known[-1]
    x[:first] = x[first]
    x[last + 1:] = x[last]
    for left, right in zip(known[:-1], known[1:]):
        gap = right - left - 1
        if gap == 0:
            continue
        if gap <= gap_cap:
            left_anchors = known[known <= left]
            right_anchors = known[known >= right]
            if left_anchors.size >= 2:
                idx = np.array([left_anchors[-2], left_anchors[-1], right_anchors[0]])
            else:
                idx = np.array([left_anchors[-1], right_anchors[0], right_anchors[1]])
            (t0, t1, t2), (y0, y1, y2) = idx.astype(np.float64), x[idx]
            for day in range(left + 1, right):
                t = float(day)
                x[day] = float(y0 * (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2))
                             + y1 * (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2))
                             + y2 * (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1)))
        else:
            span = right - left
            for t in range(left + 1, right):
                frac = (t - left) / span
                x[t] = (1.0 - frac) * x[left] + frac * x[right]
    return x


def nearest_fill_by_day(x: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Each non-finite day of ``x`` takes the value of its nearest ``known``
    day, the earlier one on a tie."""
    out = x.copy()
    for t in np.flatnonzero(~np.isfinite(x)):
        out[t] = x[known[np.argmin(np.abs(known - t))]]
    return out

"""Token embedding, spiking linear attention, residual blocks, pooling head.

Attention never materializes a step-by-step score matrix: filtered queries
contact a single [d_h, d_h] key-value summary aggregated over every pooled
step and variate, so cost grows linearly with the number of pooled events.
Queries and keys pass through an event-driven low-pass filter with a
softplus squash (nonnegative features); values use the same filter without
the squash.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError, ShapeError
from .neuron import ealif_filter, eta_for_tau_init
from .tensor import BatchNorm, Module, Tensor, concat, parameter


class TimeEmbedding(Module):
    """Learnable time features: one linear channel plus sinusoids.

    TE(t) = [w * t/span, sin(omega_i * t/span + phi_i)] with dim-1
    sinusoid channels. ``span`` rescales raw times to O(1).
    """

    def __init__(self, dim: int, span: float):
        if dim < 2:
            raise ConfigError(f"time embedding dim must be >= 2, got {dim}")
        if span <= 0:
            raise ConfigError(f"time span must be positive, got {span}")
        self.dim = int(dim)
        self.span = float(span)
        # Fourier ladder: sin/cos pairs at harmonics of the span so short
        # periods are resolvable from the start; frequencies stay learnable.
        idx = np.arange(dim - 1)
        self.w = parameter(1.0)
        self.omega = parameter(2.0 * np.pi * (idx // 2 + 1).astype(np.float64))
        self.phi = parameter(np.where(idx % 2 == 0, 0.0, 0.5 * np.pi))

    def __call__(self, times: np.ndarray) -> Tensor:
        """times: [N] raw stamps -> [N, dim] features."""
        tn = np.asarray(times, dtype=np.float64).reshape(-1, 1) / self.span
        linear = Tensor(tn) * self.w
        periodic = (Tensor(tn) * self.omega + self.phi).sin()
        return concat([linear, periodic], axis=1)


def embed_tokens(spikes: Tensor, times: np.ndarray, embed: Tensor,
                 te: TimeEmbedding) -> Tensor:
    """Project pooled spikes [K', D, C] to tokens [K', D, d] and add TE(t').

    A time-major batch (spikes [K', B, D, C], times [K', B]) works the same.
    """
    C = spikes.shape[-1]
    if embed.shape[0] != C:
        raise ShapeError(f"embedding expects {embed.shape[0]} channels, raster has {C}")
    tok = (spikes.reshape(-1, C) @ embed).reshape(spikes.shape[:-1] + (embed.shape[1],))
    return tok + te(times).reshape(np.shape(times) + (1, te.dim))


class SedAttention(Module):
    """Multi-head spiking linear attention over the pooled event axis.

    Project to queries/keys/values, batch-normalize, run the event-driven
    filter (softplus squash on q/k, none on v), split the channels into
    heads, then per head (all heads in one batched product)
        KV    = sum_w phi_k[w]^T vtil[w]          [d_h, d_h]
        k_sum = sum_w sum_rows phi_k[w]           [d_h]
        y[u]  = (phi_q[u] KV) / (phi_q[u] k_sum + eps)
    Sums run over all pooled steps and variates (non-causal).

    A time-major batch x [K', B, D, d] with gaps [K', B] and ``lengths``
    (pooled steps per window, see ``window_lengths``) keeps every window's
    sums to its own tokens; pads are masked out of ``KV`` and ``k_sum``.
    """

    def __init__(self, dim: int, heads: int, tau_init: float = 2.0,
                 eps: float = 1e-6, seed: int = 0):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by heads {heads}")
        self.dim = int(dim)
        self.heads = int(heads)
        self.d_head = dim // heads
        self.eps = float(eps)
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)

        def mat():
            return parameter(rng.normal(0.0, scale, size=(dim, dim)))

        self.w_q, self.w_k, self.w_v, self.w_o = mat(), mat(), mat(), mat()
        self.eta_q = parameter(eta_for_tau_init(tau_init))
        self.eta_k = parameter(eta_for_tau_init(tau_init))
        self.eta_v = parameter(eta_for_tau_init(tau_init))
        self.bn_q, self.bn_k, self.bn_v = BatchNorm(dim), BatchNorm(dim), BatchNorm(dim)

    def __call__(self, x: Tensor, gaps: np.ndarray,
                 lengths: np.ndarray | None = None) -> Tensor:
        dim = x.shape[-1]
        if dim != self.dim:
            raise ShapeError(f"attention built for dim {self.dim}, got {dim}")
        Kp, D = x.shape[0], x.shape[-2]
        B = math.prod(x.shape[1:-2])  # a lone window [K', D, d] is a batch of one
        H, dh = self.heads, self.d_head
        x_flat = x.reshape(-1, dim)

        def heads(w, bn, eta, squash):  # -> [B, H, K'*D, d_h], each window's tokens contiguous
            f = ealif_filter(bn((x_flat @ w).reshape(x.shape), lengths), gaps, eta, squash=squash)
            return f.reshape(Kp, B, D, H, dh).transpose(1, 3, 0, 2, 4).reshape(B, H, Kp * D, dh)

        phi_q = heads(self.w_q, self.bn_q, self.eta_q, "softplus")
        phi_k = heads(self.w_k, self.bn_k, self.eta_k, "softplus")
        vtil = heads(self.w_v, self.bn_v, self.eta_v, None)
        if lengths is not None and np.any(lengths < Kp):  # keep pads out of KV and k_sum
            real = np.repeat(np.arange(Kp) < lengths[:, None], D, axis=1)  # [B, K'*D]
            phi_k = phi_k * Tensor(real[:, None, :, None])
        kv = phi_k.transpose(0, 1, 3, 2) @ vtil                                # [B, H, d_h, d_h]
        k_sum = phi_k.sum(axis=-2, keepdims=True).transpose(0, 1, 3, 2)        # [B, H, d_h, 1]
        y = (phi_q @ kv) / (phi_q @ k_sum + self.eps)                          # [B, H, K'*D, d_h]
        y = y.reshape(B, H, Kp, D, dh).transpose(2, 0, 3, 1, 4).reshape(-1, dim)
        return (y @ self.w_o).reshape(x.shape)


class FeedForward(Module):
    """Continuous position-wise MLP: d -> 2d -> rectifier -> d."""

    def __init__(self, dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        hidden = 2 * dim
        self.w1 = parameter(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden)))
        self.b1 = parameter(np.zeros(hidden))
        self.w2 = parameter(rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, dim)))
        self.b2 = parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        h = (x.reshape(-1, x.shape[-1]) @ self.w1 + self.b1).relu()
        return (h @ self.w2 + self.b2).reshape(x.shape)


class Block(Module):
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(self, dim: int, heads: int, tau_init: float = 2.0,
                 eps: float = 1e-6, seed: int = 0):
        self.attn = SedAttention(dim, heads, tau_init=tau_init, eps=eps, seed=seed)
        self.ffn = FeedForward(dim, seed=seed + 1)
        self.bn1, self.bn2 = BatchNorm(dim), BatchNorm(dim)

    def __call__(self, x: Tensor, gaps: np.ndarray,
                 lengths: np.ndarray | None = None) -> Tensor:
        x = x + self.attn(self.bn1(x, lengths), gaps, lengths)
        return x + self.ffn(self.bn2(x, lengths))


def aggregate_observed(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per-variate mean of token states over observed pooled steps.

    x: [K', D, d]; mask: [K', D] -> [D, d]. A time-major batch (x
    [K', B, D, d], mask [K', B, D]) gives [B, D, d]; its pads carry mask 0
    and so weigh nothing. A variate with no observed step yields a zero
    vector (with a warning) rather than NaN.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape[:-1]:
        raise ShapeError(f"mask shape {mask.shape} does not match tokens {x.shape[:-1]}")
    counts = mask.sum(axis=0)
    empty = counts == 0
    if np.any(empty):
        warnings.warn(f"{int(empty.sum())} variate(s) have no observed pooled step; "
                      "their summary is zero")
    weights = mask / np.where(empty, 1.0, counts)  # [K', (B,) D]; empty columns are 0
    # z[d] = sum_u weights[u, d] * x[u, d, :]
    return (x * Tensor(weights[..., None])).sum(axis=0)

"""Token embedding, spiking linear attention, residual blocks, pooling head.

Attention never materializes a step-by-step score matrix: filtered queries
contact a single [d_h, d_h] key-value summary aggregated over every pooled
step and variate, so cost grows linearly with the number of pooled events.
Queries and keys pass through an event-driven low-pass filter with a
softplus squash (nonnegative features); values use the same filter without
the squash.
"""

from __future__ import annotations

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
    """Project pooled spikes [K', D, C] to tokens [K', D, d] and add TE(t')."""
    Kp, D, C = spikes.shape
    if embed.shape[0] != C:
        raise ShapeError(f"embedding expects {embed.shape[0]} channels, raster has {C}")
    tok = (spikes.reshape(Kp * D, C) @ embed).reshape(Kp, D, embed.shape[1])
    return tok + te(times).reshape(Kp, 1, te.dim)


class SedAttention(Module):
    """Multi-head spiking linear attention over the pooled event axis.

    Project to queries/keys/values, batch-normalize, run the event-driven
    filter (softplus squash on q/k, none on v), split the channels into
    heads, then per head (all heads in one batched product)
        KV    = sum_w phi_k[w]^T vtil[w]          [d_h, d_h]
        k_sum = sum_w sum_rows phi_k[w]           [d_h]
        y[u]  = (phi_q[u] KV) / (phi_q[u] k_sum + eps)
    Sums run over all pooled steps and variates (non-causal).
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

    def __call__(self, x: Tensor, gaps: np.ndarray) -> Tensor:
        Kp, D, dim = x.shape
        if dim != self.dim:
            raise ShapeError(f"attention built for dim {self.dim}, got {dim}")
        N, H = Kp * D, self.heads
        x_flat = x.reshape(N, dim)

        def heads(w, bn, eta, squash):  # -> [H, N, d_h]
            f = ealif_filter(bn(x_flat @ w).reshape(Kp, D, dim), gaps, eta, squash=squash)
            return f.reshape(N, H, self.d_head).transpose(1, 0, 2)

        phi_q = heads(self.w_q, self.bn_q, self.eta_q, "softplus")
        phi_k = heads(self.w_k, self.bn_k, self.eta_k, "softplus")
        vtil = heads(self.w_v, self.bn_v, self.eta_v, None)
        kv = phi_k.transpose(0, 2, 1) @ vtil                      # [H, d_h, d_h]
        k_sum = phi_k.sum(axis=1, keepdims=True).transpose(0, 2, 1)  # [H, d_h, 1]
        y = (phi_q @ kv) / (phi_q @ k_sum + self.eps)             # [H, N, d_h]
        return (y.transpose(1, 0, 2).reshape(N, dim) @ self.w_o).reshape(Kp, D, dim)


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
        Kp, D, dim = x.shape
        flat = x.reshape(Kp * D, dim)
        h = (flat @ self.w1 + self.b1).relu()
        return (h @ self.w2 + self.b2).reshape(Kp, D, dim)


class Block(Module):
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(self, dim: int, heads: int, tau_init: float = 2.0,
                 eps: float = 1e-6, seed: int = 0):
        self.attn = SedAttention(dim, heads, tau_init=tau_init, eps=eps, seed=seed)
        self.ffn = FeedForward(dim, seed=seed + 1)
        self.bn1, self.bn2 = BatchNorm(dim), BatchNorm(dim)

    def __call__(self, x: Tensor, gaps: np.ndarray) -> Tensor:
        x = x + self.attn(self.bn1(x), gaps)
        return x + self.ffn(self.bn2(x))


def aggregate_observed(x: Tensor, mask: np.ndarray) -> Tensor:
    """Per-variate mean of token states over observed pooled steps.

    x: [K', D, d]; mask: [K', D]. A variate with no observed step yields a
    zero vector (with a warning) rather than NaN.
    """
    Kp, D, dim = x.shape
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (Kp, D):
        raise ShapeError(f"mask shape {mask.shape} does not match tokens {(Kp, D)}")
    counts = mask.sum(axis=0)
    empty = counts == 0
    if np.any(empty):
        warnings.warn(f"{int(empty.sum())} variate(s) have no observed pooled step; "
                      "their summary is zero")
    weights = mask / np.where(empty, 1.0, counts)  # [K', D]; empty columns are 0
    # z[d] = sum_u weights[u, d] * x[u, d, :]
    return (x * Tensor(weights[:, :, None])).sum(axis=0)

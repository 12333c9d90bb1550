"""Token embedding, spiking linear attention, residual blocks, pooling head.

Attention never materializes a step-by-step score matrix: filtered queries
contact a single [d_h, d_h] key-value summary aggregated over every pooled
step and variate, so cost grows linearly with the number of pooled events.
Queries, keys and values pass through an event-driven low-pass filter;
queries and keys then take a softplus squash (nonnegative features).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError, ShapeError
from .neuron import ealif_filter, eta_for_tau_init
from .tensor import (BatchNorm, Module, Tensor, accumulate_grad, concat, count_macs, fold,
                     fold_once, linear, make_op, moments, parameter, scope, softplus)

# Guard added to the attention denominator (a ModelConfig field in older
# checkpoints, which load only at this value).
ATTENTION_EPS = 1e-6


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


def linear_attention(qkv: Tensor, heads: int, real: np.ndarray | None = None) -> Tensor:
    """Non-causal linear attention over every token of a window, as one op.

    qkv: [K', B, D, 3*dim], the filtered queries, keys and values side by
    side (a lone window [K', D, 3*dim] is a batch of one); queries and keys
    take the softplus squash here, phi_q = softplus(q), phi_k = softplus(k),
    and values vtil = v stay as they are. ``real`` [B, K'*D] is 1 for a
    window's real tokens and 0 for its pads, or None if none has a pad. The
    channels split into ``heads`` heads of d_h; per window and head, over
    its N = K'*D tokens u,
        KV    = sum_u phi_k[u]^T vtil[u]          [d_h, d_h]
        k_sum = sum_u phi_k[u]                    [d_h]
        y[u]  = (phi_q[u] KV) / (phi_q[u] k_sum + ATTENTION_EPS)
    with pads left out of both sums. Output [K', B, D, dim].

    Beyond its input the op keeps phi_q, phi_k, KV, k_sum and the
    denominator; the backward is the factored gradient of Katharopoulos et
    al. 2020 (arXiv:2006.16236, sec. 3.3), again linear in N, times the
    squash's derivative sigmoid(x) = 1 - exp(-softplus(x)).
    """
    shape = qkv.shape[:-1] + (qkv.shape[-1] // 3,)
    Kp, D, dim = shape[0], shape[-2], shape[-1]
    B, dh = math.prod(shape[1:-2]), dim // heads
    mask = None if real is None else real[:, None, :, None]

    def split(a):  # [K', B, D, H, d_h] -> [B, H, K'*D, d_h], each window's tokens contiguous
        return a.transpose(1, 3, 0, 2, 4).reshape(B, heads, -1, dh)

    def merge(a):  # the inverse of split
        return a.reshape(B, heads, Kp, D, dh).transpose(2, 0, 3, 1, 4)

    parts = qkv.data.reshape(Kp, B, D, 3, heads, dh)
    q, k = softplus(split(parts[:, :, :, 0])), softplus(split(parts[:, :, :, 1]))
    k_real = k if mask is None else k * mask
    kv = k_real.swapaxes(-1, -2) @ split(parts[:, :, :, 2])  # [B, H, d_h, d_h]
    k_sum = k_real.sum(axis=-2)[..., None]                   # [B, H, d_h, 1]
    den = q @ k_sum + ATTENTION_EPS                          # [B, H, N, 1]
    out = merge((q @ kv) / den).reshape(shape)
    count_macs(2 * q.size * dh + q.size + (k.size if mask is not None else 0),
               3 * q.size, out.size)

    def bwd(g):
        g_num = split(g.reshape(Kp, B, D, heads, dh)) / den                # [B, H, N, d_h]
        g_den = -(g_num * split(out.reshape(Kp, B, D, heads, dh))).sum(axis=-1, keepdims=True)
        g_q = g_num @ kv.swapaxes(-1, -2) + g_den * k_sum.swapaxes(-1, -2)
        g_kv = q.swapaxes(-1, -2) @ g_num                                  # [B, H, d_h, d_h]
        g_k_sum = (q * g_den).sum(axis=-2, keepdims=True)                  # [B, H, 1, d_h]
        g_k = split(parts[:, :, :, 2]) @ g_kv.swapaxes(-1, -2) + g_k_sum
        grad = np.empty(parts.shape)  # d softplus(x)/dx = 1 - e^-softplus(x) for q and k
        grad[:, :, :, 0] = merge(g_q * -np.expm1(-q))
        grad[:, :, :, 1] = merge((g_k if mask is None else g_k * mask) * -np.expm1(-k))
        grad[:, :, :, 2] = merge((k if mask is None else k * mask) @ g_kv)
        accumulate_grad(qkv, grad.reshape(qkv.shape))

    return make_op(out, (qkv,), bwd)


class SedAttention(Module):
    """Multi-head spiking linear attention over the pooled event axis.

    Project to queries/keys/values in one product, batch-normalize, run the
    three event-driven filters in one scan, then the linear-attention core
    (``linear_attention``: softplus squash on q/k, none on v; all heads in
    one batched product) and the output projection. Sums run over all
    pooled steps and variates (non-causal).

    A time-major batch x [K', B, D, d] with gaps [K', B] and ``lengths``
    (pooled steps per window, see ``window_lengths``) keeps every window's
    sums to its own tokens; pads are masked out of ``KV`` and ``k_sum``.
    ``norm`` is a normalizer in front of the block (``Block.bn1``); it and
    bn_q/k/v fold into the projections' weight and bias (``tensor.fold``),
    once for all forwards that do not record (``tensor.fold_once``).
    """

    eps = ATTENTION_EPS

    def __init__(self, dim: int, heads: int, tau_init: float = 2.0, seed: int = 0):
        if dim % heads != 0:
            raise ConfigError(f"dim {dim} not divisible by heads {heads}")
        self.dim = int(dim)
        self.heads = int(heads)
        self.d_head = dim // heads
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)

        def mat():
            return parameter(rng.normal(0.0, scale, size=(dim, dim)))

        self.w_q, self.w_k, self.w_v, self.w_o = mat(), mat(), mat(), mat()
        self.eta_q = parameter(eta_for_tau_init(tau_init))
        self.eta_k = parameter(eta_for_tau_init(tau_init))
        self.eta_v = parameter(eta_for_tau_init(tau_init))
        self.bn_q, self.bn_k, self.bn_v = BatchNorm(dim), BatchNorm(dim), BatchNorm(dim)

    def __call__(self, x: Tensor, gaps: np.ndarray, lengths: np.ndarray | None = None,
                 norm: BatchNorm | None = None) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"attention built for dim {self.dim}, got {x.shape[-1]}")
        ws, bns = (self.w_q, self.w_k, self.w_v), (self.bn_q, self.bn_k, self.bn_v)
        if any(bn.accumulating for bn in (norm, *bns) if bn is not None):
            n, mean, scatter = moments(x.data, lengths)
            if norm is not None:  # q/k/v see them through (x * a + c) @ w: no division
                norm.observe(n, mean, scatter)
                a, c = (t.data for t in norm.scale_shift())
                mean, scatter = mean * a + c, scatter * np.outer(a, a)
            for w, bn in zip(ws, bns):
                bn.observe(n, mean @ w.data, w.data.T @ scatter @ w.data)
        z = linear(x, *fold_once(self, (*ws, *bns, norm), lambda: fold(
            concat(list(ws), axis=1), pre=None if norm is None else norm.scale_shift(),
            post=tuple(concat(list(t)) for t in zip(*(bn.scale_shift() for bn in bns))))))
        qkv = ealif_filter(z, gaps, (self.eta_q, self.eta_k, self.eta_v))
        Kp, D = x.shape[0], x.shape[-2]
        real = None
        if lengths is not None and np.any(lengths < Kp):  # keep pads out of KV and k_sum
            real = np.repeat(np.arange(Kp) < lengths[:, None], D, axis=1).astype(np.float64)
        return linear(linear_attention(qkv, self.heads, real), self.w_o)


class FeedForward(Module):
    """Continuous position-wise MLP: d -> 2d -> rectifier -> d.

    ``norm`` is a normalizer in front of it (``Block.bn2``), folded into
    the first layer's weight and bias (``tensor.fold``), once for all
    forwards that do not record (``tensor.fold_once``).
    """

    def __init__(self, dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        hidden = 2 * dim
        self.w1 = parameter(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, hidden)))
        self.b1 = parameter(np.zeros(hidden))
        self.w2 = parameter(rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, dim)))
        self.b2 = parameter(np.zeros(dim))

    def __call__(self, x: Tensor, lengths: np.ndarray | None = None,
                 norm: BatchNorm | None = None) -> Tensor:
        if norm is not None and norm.accumulating:
            norm.observe(*moments(x.data, lengths))
        h = linear(x, *fold_once(self, (self.w1, self.b1, norm), lambda: fold(
            self.w1, self.b1, pre=None if norm is None else norm.scale_shift())))
        return linear(h.relu(), self.w2, self.b2)


class Block(Module):
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(self, dim: int, heads: int, tau_init: float = 2.0, seed: int = 0):
        self.attn = SedAttention(dim, heads, tau_init=tau_init, seed=seed)
        self.ffn = FeedForward(dim, seed=seed + 1)
        self.bn1, self.bn2 = BatchNorm(dim), BatchNorm(dim)

    def __call__(self, x: Tensor, gaps: np.ndarray,
                 lengths: np.ndarray | None = None) -> Tensor:
        with scope("attention"):
            x = x + self.attn(x, gaps, lengths, norm=self.bn1)
        with scope("ffn"):
            return x + self.ffn(x, lengths, norm=self.bn2)


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

import warnings

import numpy as np
import pytest

from conftest import assert_same_op, gradcheck
from oracles import composed_attention
from sedformer.backbone import (Block, SedAttention, TimeEmbedding, aggregate_observed,
                                embed_tokens, linear_attention, relu_mlp)
from sedformer.errors import ConfigError, ShapeError
from sedformer.tensor import BatchNorm, Tensor, linear, mac_counter, no_grad, parameter


def quadratic_attention(attn: SedAttention, x: np.ndarray,
                        gaps: np.ndarray) -> np.ndarray:
    """Independent numpy route: explicit kernelized attention matrix.

    Mirrors projections, normalization and filters, then forms the full
    [N, N] score matrix instead of the factored linear-time sums.
    """
    Kp, D, dim = x.shape
    flat = x.reshape(Kp * D, dim)

    def project(w, bn):
        z = flat @ w.data
        zhat = (z - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        return (zhat * bn.gamma.data + bn.beta.data).reshape(Kp, D, dim)

    def filt(z, eta, squash):
        tau = np.log1p(np.exp(eta.data)) + 1.0
        beta = np.exp(-gaps / tau)
        m = np.zeros((D, dim))
        out = np.empty_like(z)
        for u in range(Kp):
            m = beta[u] * m + (1.0 - beta[u]) * z[u]
            out[u] = np.log1p(np.exp(m)) if squash else m
        return out

    q = filt(project(attn.w_q, attn.bn_q), attn.eta_q, True)
    k = filt(project(attn.w_k, attn.bn_k), attn.eta_k, True)
    v = filt(project(attn.w_v, attn.bn_v), attn.eta_v, False)
    outs = []
    for h in range(attn.heads):
        lo, hi = h * attn.d_head, (h + 1) * attn.d_head
        pq = q[:, :, lo:hi].reshape(Kp * D, attn.d_head)
        pk = k[:, :, lo:hi].reshape(Kp * D, attn.d_head)
        vt = v[:, :, lo:hi].reshape(Kp * D, attn.d_head)
        scores = pq @ pk.T                       # [N, N]
        num = scores @ vt
        den = scores.sum(axis=1, keepdims=True) + attn.eps
        outs.append(num / den)
    y = np.concatenate(outs, axis=1) @ attn.w_o.data
    return y.reshape(Kp, D, dim)


def calibrate_attention(attn: SedAttention, x: np.ndarray, gaps: np.ndarray) -> None:
    """Give the q/k/v normalizers the pooled moments of one pass over ``x``."""
    norms = (attn.bn_q, attn.bn_k, attn.bn_v)
    for bn in norms:
        bn.start_accumulation()
    with no_grad():
        attn(Tensor(x), gaps)
    for bn in norms:
        bn.stop_accumulation()


def test_attention_matches_quadratic_oracle():
    rng = np.random.default_rng(77)
    for trial in range(100):
        Kp = int(rng.integers(2, 9))
        D = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 3))
        d_head = int(rng.integers(1, 5))
        dim = heads * d_head
        attn = SedAttention(dim, heads, seed=trial)
        x = rng.normal(size=(Kp, D, dim))
        gaps = np.concatenate([[0.0], rng.uniform(0.1, 3.0, size=Kp - 1)])
        if trial % 2:  # non-identity normalization statistics
            calibrate_attention(attn, np.random.default_rng(trial).normal(
                1.0, 2.0, size=x.shape), gaps)
        got = attn(Tensor(x), gaps).data
        want = quadratic_attention(attn, x, gaps)
        assert np.max(np.abs(got - want)) < 1e-10


def _padded_batch(rng, Kp, B, D, dim):
    """x [K', B, D, dim] and gaps [K', B] of B windows; window 0 is full,
    the others end early and repeat their last stamp (gap 0) over pads."""
    lengths = np.concatenate([[Kp], rng.integers(1, Kp + 1, size=B - 1)])
    gaps = rng.uniform(0.1, 3.0, size=(Kp, B))
    gaps[0] = 0.0
    gaps[np.arange(Kp)[:, None] >= lengths] = 0.0
    x = rng.normal(0.5, 2.0, size=(Kp, B, D, dim))
    x[np.arange(Kp)[:, None] >= lengths] = 0.0
    return x, gaps, lengths


def test_fused_attention_matches_composed_oracle_on_padded_batches():
    """The folded normalizers and the one-op core against the composition,
    outputs and the gradients of every input and parameter to 1e-12."""
    rng = np.random.default_rng(12)
    for trial in range(6):
        heads, d_head = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        dim = heads * d_head
        Kp, B, D = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        attn, norm = SedAttention(dim, heads, seed=trial), BatchNorm(dim)
        x, gaps, lengths = _padded_batch(rng, Kp, B, D, dim)
        norms = (norm, attn.bn_q, attn.bn_k, attn.bn_v)
        for bn in norms:  # non-identity statistics, then non-identity scales
            bn.start_accumulation()
        with no_grad():
            attn(Tensor(x), gaps, lengths, norm=norm)
        for bn in norms:
            bn.stop_accumulation()
            bn.gamma.data = rng.normal(1.0, 0.3, size=dim)
            bn.beta.data = rng.normal(0.0, 0.3, size=dim)
        xt = parameter(x)
        g = rng.normal(size=x.shape)
        leaves = [xt, *attn.parameters().values(), norm.gamma, norm.beta]

        def run(fn):
            for t in leaves:
                t.grad = None
            y = fn(attn, xt, gaps, lengths, norm=norm)
            (y * Tensor(g)).sum().backward()
            return y.data, [t.grad.copy() for t in leaves]

        (y_f, g_f) = run(SedAttention.__call__)
        (y_c, g_c) = run(composed_attention)
        assert np.max(np.abs(y_f - y_c)) <= 1e-12 * np.max(np.abs(y_c))
        # relative to the whole gradient: a leaf whose gradient cancels to
        # ~1e-5 of the rest keeps an absolute rounding error of the rest's size
        scale = max(np.max(np.abs(e)) for e in g_c)
        for a, e in zip(g_f, g_c):
            assert np.max(np.abs(a - e)) <= 1e-12 * scale


def test_linear_attention_gradcheck_with_pads():
    rng = np.random.default_rng(4)
    Kp, B, D, heads, dh = 3, 2, 2, 2, 2
    real = np.repeat(np.arange(Kp) < np.array([3, 2])[:, None], D, axis=1).astype(float)
    phi_q, phi_k = (rng.uniform(0.1, 2.0, size=(Kp, B, D, heads * dh)) for _ in range(2))
    vtil = rng.normal(size=(Kp, B, D, heads * dh))
    qkv = parameter(np.concatenate([phi_q, phi_k, vtil], axis=-1))  # [K', B, D, 3 * dim]
    w = rng.normal(size=(Kp, B, D, heads * dh))
    gradcheck(lambda: (linear_attention(qkv, heads, real) * Tensor(w)).sum(), [qkv])
    # a lone window [K', D, 3 * dim] is a batch of one
    lone = linear_attention(Tensor(qkv.data[:, 0]), heads).data
    batched = linear_attention(qkv, heads, real).data[:, 0]
    assert lone.shape == (Kp, D, heads * dh)
    assert np.array_equal(lone, batched)


def test_attention_mac_count_linear_in_length():
    rng = np.random.default_rng(3)
    dim, heads, D = 16, 2, 3
    attn = SedAttention(dim, heads, seed=0)
    counts = {}
    for Kp in (8, 64):
        x = Tensor(rng.normal(size=(Kp, D, dim)))
        gaps = np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=Kp - 1)])
        with mac_counter() as macs:
            attn(x, gaps)
        counts[Kp] = macs.total
    ratio = counts[64] / counts[8]
    assert abs(ratio - 8.0) / 8.0 < 0.05


def test_attention_depends_on_gaps_not_absolute_time():
    rng = np.random.default_rng(9)
    attn = SedAttention(8, 2, seed=1)
    x = Tensor(rng.normal(size=(6, 2, 8)))
    gaps = np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=5)])
    a = attn(x, gaps).data
    b = attn(x, gaps.copy()).data
    assert np.array_equal(a, b)


def test_attention_rejects_wrong_dim():
    attn = SedAttention(8, 2, seed=0)
    with pytest.raises(ShapeError):
        attn(Tensor(np.zeros((4, 2, 6))), np.zeros(4))
    with pytest.raises(ConfigError):
        SedAttention(10, 4)


def test_time_embedding_shape_and_linear_channel():
    te = TimeEmbedding(8, span=90.0)
    out = te(np.array([0.0, 45.0, 90.0]))
    assert out.shape == (3, 8)
    assert np.allclose(out.data[:, 0], [0.0, 0.5, 1.0])
    # harmonics of the span: the periodic part repeats exactly
    a = te(np.array([12.5])).data[0, 1:]
    b = te(np.array([12.5 + 90.0])).data[0, 1:]
    assert np.allclose(a, b, atol=1e-9)


def test_time_embedding_validation():
    with pytest.raises(ConfigError):
        TimeEmbedding(1, span=10.0)
    with pytest.raises(ConfigError):
        TimeEmbedding(4, span=0.0)


def test_embed_tokens_one_hot_rows():
    rng = np.random.default_rng(1)
    Kp, D, C, dim = 3, 2, 4, 6
    spikes = np.zeros((Kp, D, C))
    spikes[0, 0, 2] = 1.0
    embed = rng.normal(size=(C, dim))
    te = TimeEmbedding(dim, span=10.0)
    times = np.array([1.0, 2.0, 3.0])
    tok = embed_tokens(Tensor(spikes), times, Tensor(embed), te).data
    want0 = embed[2] + te(times).data[0]
    assert np.allclose(tok[0, 0], want0)
    assert np.allclose(tok[0, 1], te(times).data[0])


def test_aggregate_observed_masked_mean():
    x = Tensor(np.arange(12.0).reshape(3, 2, 2))
    mask = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z = aggregate_observed(x, mask).data
    assert np.allclose(z[0], (x.data[0, 0] + x.data[1, 0]) / 2.0)
    assert np.allclose(z[1], x.data[2, 1])

    # random inputs against one masked-mean matmul per variate
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some variates draw no observed step
        for _ in range(50):
            Kp, D, dim = (int(n) for n in rng.integers(1, 7, size=3))
            x = rng.normal(size=(Kp, D, dim))
            mask = (rng.uniform(size=(Kp, D)) < 0.6).astype(np.float64)
            z = aggregate_observed(Tensor(x), mask).data
            n = np.maximum(mask.sum(axis=0), 1.0)  # empty variates: zero weights
            for d in range(D):
                want = (mask[:, d] / n[d])[None, :] @ x[:, d, :]
                assert np.max(np.abs(z[d] - want[0])) <= 1e-12


def test_aggregate_observed_empty_variate_warns():
    x = Tensor(np.ones((2, 2, 3)))
    mask = np.array([[1.0, 0.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        z = aggregate_observed(x, mask).data
    assert any("no observed" in str(msg.message) for msg in w)
    assert np.array_equal(z[1], np.zeros(3))


def test_block_preserves_shape_and_mixes(rng):
    blk = Block(8, heads=2, seed=0)
    x = Tensor(rng.normal(size=(5, 2, 8)))
    gaps = np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=4)])
    out = blk(x, gaps)
    assert out.shape == (5, 2, 8)
    assert not np.allclose(out.data, x.data)


def test_relu_mlp_matches_composed_ops_bitwise(rng):
    """The feed-forward op gives the output, gradients and billed work of
    linear -> rectifier -> linear, bit for bit, on a padded batch."""
    x = parameter(rng.normal(size=(5, 3, 2, 4)))  # [K', B, D, d]
    x.data[3:, 1] = x.data[2, 1]  # window 1's pads
    w1, b1 = parameter(rng.normal(size=(4, 8))), parameter(rng.normal(size=8))
    w2, b2 = parameter(rng.normal(size=(8, 4))), parameter(rng.normal(size=4))
    assert_same_op(lambda: relu_mlp(x, w1, b1, w2, b2),
                   lambda: linear(linear(x, w1, b1).relu(), w2, b2), [x, w1, b1, w2, b2])


@pytest.mark.filterwarnings("ignore:.*no observed pooled step")
def test_aggregate_observed_matches_composed_ops_bitwise(rng):
    """The pooling head is one op with the output, gradient and billed work
    of the masked product and sum it replaces, on a padded batch with an
    empty variate."""
    x = parameter(rng.normal(size=(5, 3, 2, 4)))  # [K', B, D, d]
    mask = (rng.uniform(size=(5, 3, 2)) < 0.6).astype(np.float64)
    mask[3:, 1] = 0.0  # window 1's pads
    mask[:, 2, 0] = 0.0  # window 2's variate 0 is never observed
    counts = mask.sum(axis=0)
    weights = mask / np.where(counts == 0, 1.0, counts)
    assert_same_op(lambda: aggregate_observed(x, mask),
                   lambda: (x * Tensor(weights[..., None])).sum(axis=0), [x])

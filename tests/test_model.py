import numpy as np
import pytest

from conftest import gradcheck, random_series
from oracles import (composed_attention, composed_drive_current, composed_feed_forward,
                     concat_decoder)
from sedformer import neuron, parallel
from sedformer.backbone import FeedForward, SedAttention
from sedformer.encoder import EventSeries, SedSeEncoder
from sedformer.energy import model_energy_report
from sedformer.errors import ConfigError, DataError
from sedformer.model import ModelConfig, SedFormer, query_mlp
from sedformer.tensor import BatchNorm, Tensor, concat, parameter
from sedformer.training import Adam, WindowItem, evaluate, variate_balanced_mse


def small_config(**kw):
    base = dict(n_variates=3, conv_channels=4, kernel_size=3, dim=8, heads=2,
                blocks=1, pool_stride=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_config_roundtrip():
    cfg = small_config(tau_init=3.0, first_gap="median")
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({**cfg.to_dict(), "bogus": 1})


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(dim=9)  # not divisible by heads
    with pytest.raises(ConfigError):
        small_config(tau_init=0.5)
    with pytest.raises(ConfigError):
        small_config(pool_stride=0)


def test_event_spike_path_changes_no_output_bit(rng, monkeypatch):
    """Lone windows of at least ``EVENT_PATH_MIN_K`` events take the
    event-driven spike path in ``calibrate``, ``predict`` and ``evaluate``
    (each of these windows fills a batch alone); with the path off every
    buffer, prediction and the MSE are bitwise the same."""
    windows = [random_series(rng, n_events=k) for k in (400, 700, 150)]
    items = [WindowItem(series=s, query_times=[np.sort(rng.uniform(91.0, 120.0, size=2))] * 3,
                        targets=[rng.normal(size=2)] * 3) for s in windows]
    rasters = []
    event_path = neuron._spike_raster

    def recorded(*args):
        rasters.append(event_path(*args))
        return rasters[-1]

    def run():
        model = SedFormer(small_config())
        model.calibrate(windows)
        return ([b.copy() for b in model.buffers().values()],
                [p for it in items for p in model.predict(it.series, it.query_times)],
                evaluate(model, items)["mse"])

    monkeypatch.setattr(neuron, "_spike_raster", recorded)
    monkeypatch.setattr(parallel, "ENABLED", False)  # the patches reach this process only
    on = run()
    assert len(rasters) == 3 * len(windows)  # calibrate, predict, evaluate
    assert all(r is not None for r in rasters) and any(r.any() for r in rasters)
    monkeypatch.setattr(neuron, "EVENT_PATH_MIN_K", 10 ** 9)
    off = run()
    assert len(rasters) == 3 * len(windows)
    for a, b in zip(on[0] + on[1], off[0] + off[1]):
        assert a.tobytes() == b.tobytes()
    assert on[2] == off[2]


def test_forward_shapes(rng):
    model = SedFormer(small_config())
    series = random_series(rng, n_events=14)
    q = [np.array([95.0, 100.0]), np.array([91.0]), np.array([])]
    preds = model.forward(series, q)
    assert preds[0].data.shape == (2,)
    assert preds[1].data.shape == (1,)
    assert preds[2] is None
    with pytest.raises(DataError):
        model.forward([], [])  # an empty batch


def test_summary_shape(rng):
    model = SedFormer(small_config())
    series = random_series(rng, n_events=12)
    z = model.summarize(series)
    assert z.shape == (3, 8)


def test_predict_deterministic_and_mode_safe(rng):
    model = SedFormer(small_config())
    series = random_series(rng, n_events=12)
    model.calibrate([series])
    stats = {k: b.copy() for k, b in model.buffers().items()}
    q = [np.array([95.0])] * 3
    a = model.predict(series, q)
    b = model.predict(series, q)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # inference never touches the normalization statistics
    assert all(np.array_equal(b, stats[k]) for k, b in model.buffers().items())


def test_forward_decodes_all_variates_at_once(rng):
    """One batched decoder call equals decoding each variate on its own
    with the concatenated MLP."""
    model = SedFormer(small_config())
    series = random_series(rng, n_events=12)
    model.calibrate([series])
    z = model.summarize(series).data
    for sizes in ([2, 0, 3], [0, 1, 0], [4, 4, 4], [0, 0, 0]):
        q = [np.sort(rng.uniform(90.0, 110.0, size=n)) for n in sizes]
        preds = model.forward(series, q)
        for d, (p, qd) in enumerate(zip(preds, q)):
            if qd.size == 0:
                assert p is None
                continue
            tiled = Tensor(np.repeat(z[d:d + 1], qd.size, axis=0))
            want = concat_decoder(model.decoder, tiled, model.te(qd)).data[:, 0]
            assert p.shape == qd.shape
            assert np.max(np.abs(p.data - want)) <= 1e-12


@pytest.mark.filterwarnings("ignore:.*no observed pooled step")
def test_factored_decoder_matches_concat_oracle_on_padded_batches(rng):
    """The decoder of a padded batch (one history variate unobserved, a
    variate and a window without queries, stamps repeated within a
    variate and across variates and windows) against the concatenated MLP
    on one gathered row per query: outputs and the gradients of every
    parameter to 1e-12."""
    model = SedFormer(small_config(blocks=2, pool_stride=4))
    windows = [random_series(rng, n_events=k) for k in (14, 3, 22, 9)]
    mask = windows[2].mask.copy()
    mask[:, 1] = 0.0
    mask[mask.sum(axis=1) == 0, 0] = 1.0
    windows[2] = EventSeries(times=windows[2].times, values=windows[2].values * mask, mask=mask)
    model.calibrate(windows)
    for p in model.decoder.parameters().values():
        p.data = p.data + rng.normal(0.0, 0.3, size=p.shape)
    shared = np.array([95.0, 100.5, 104.0])
    none = np.zeros(0)
    queries = [
        [shared, none, np.array([100.5, 91.0, 100.5])],
        [none, none, none],
        [shared[::-1], shared, np.sort(rng.uniform(90.0, 120.0, size=4))],
        [np.array([95.0]), np.array([117.0, 95.0]), shared],
    ]
    qs = [q for row in queries for q in row]
    rows = np.repeat(np.arange(len(qs)), [q.size for q in qs])
    g = rng.normal(size=rows.size)
    params = model.parameters()

    def run(decode):
        for p in params.values():
            p.grad = None
        y = decode()
        (y * Tensor(g)).sum().backward()
        return y.data, {k: p.grad.copy() for k, p in params.items() if p.grad is not None}

    def factored():
        preds = model.forward(windows, queries)
        assert [p is None for row in preds for p in row] == [q.size == 0 for q in qs]
        return concat([p for row in preds for p in row if p is not None])

    def oracle():
        z = model.summarize(windows)
        z = z.reshape(-1, z.shape[-1])[rows]
        return concat_decoder(model.decoder, z, model.te(np.concatenate(qs))).reshape(-1)

    y_f, g_f = run(factored)
    y_c, g_c = run(oracle)
    assert np.max(np.abs(y_f - y_c)) <= 1e-12 * np.max(np.abs(y_c))
    assert g_f.keys() == g_c.keys() == params.keys()
    scale = max(np.max(np.abs(e)) for e in g_c.values())
    for k, e in g_c.items():
        assert np.max(np.abs(g_f[k] - e)) <= 1e-12 * scale, k


def test_query_mlp_gradcheck_with_empty_segments():
    """The decoder op's output is bitwise its formula, and its gradients
    check where a summary (row 2) and two stamps (0 and 3) have no query:
    those get exactly 0."""
    rng = np.random.default_rng(6)
    m = 4
    a, e = parameter(rng.normal(size=(4, m))), parameter(rng.normal(size=(5, m)))
    rows = np.array([0, 0, 1, 3, 3, 3, 1])
    cols = np.array([1, 4, 1, 2, 4, 1, 2])
    w2, b2 = parameter(rng.normal(size=(m, m))), parameter(rng.normal(size=m))
    w3, b3 = parameter(rng.normal(size=(m, 1))), parameter(rng.normal(size=1))
    w = rng.normal(size=(rows.size, 1))
    want = np.maximum(np.maximum(a.data[rows] + e.data[cols], 0.0) @ w2.data + b2.data,
                      0.0) @ w3.data + b3.data
    assert query_mlp(a, e, rows, cols, w2, b2, w3, b3).data.tobytes() == want.tobytes()
    gradcheck(lambda: (query_mlp(a, e, rows, cols, w2, b2, w3, b3) * Tensor(w)).sum(),
              [a, e, w2, b2, w3, b3])
    assert np.all(a.grad[2] == 0.0) and np.all(e.grad[[0, 3]] == 0.0)
    assert np.all(np.any(a.grad[[0, 1, 3]] != 0.0, axis=1))
    assert np.all(np.any(e.grad[[1, 2, 4]] != 0.0, axis=1))


def test_seeded_construction_identical(rng):
    series = random_series(rng, n_events=10)
    q = [np.array([100.0])] * 3
    a = SedFormer(small_config()).predict(series, q)
    b = SedFormer(small_config()).predict(series, q)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = SedFormer(small_config(seed=1)).predict(series, q)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


PARAM_NAMES = [
    "encoder.kernels", "encoder.bn.gamma", "encoder.bn.beta", "encoder.gate_a",
    "encoder.gate_b", "encoder.rho_hat", "encoder.gamma_hat", "encoder.theta", "encoder.eta",
    "embed", "te.w", "te.omega", "te.phi",
    "blocks.0.attn.w_q", "blocks.0.attn.w_k", "blocks.0.attn.w_v", "blocks.0.attn.w_o",
    "blocks.0.attn.eta_q", "blocks.0.attn.eta_k", "blocks.0.attn.eta_v",
    "blocks.0.attn.bn_q.gamma", "blocks.0.attn.bn_q.beta", "blocks.0.attn.bn_k.gamma",
    "blocks.0.attn.bn_k.beta", "blocks.0.attn.bn_v.gamma", "blocks.0.attn.bn_v.beta",
    "blocks.0.ffn.w1", "blocks.0.ffn.b1", "blocks.0.ffn.w2", "blocks.0.ffn.b2",
    "blocks.0.bn1.gamma", "blocks.0.bn1.beta", "blocks.0.bn2.gamma", "blocks.0.bn2.beta",
    "blocks.1.attn.w_q", "blocks.1.attn.w_k", "blocks.1.attn.w_v", "blocks.1.attn.w_o",
    "blocks.1.attn.eta_q", "blocks.1.attn.eta_k", "blocks.1.attn.eta_v",
    "blocks.1.attn.bn_q.gamma", "blocks.1.attn.bn_q.beta", "blocks.1.attn.bn_k.gamma",
    "blocks.1.attn.bn_k.beta", "blocks.1.attn.bn_v.gamma", "blocks.1.attn.bn_v.beta",
    "blocks.1.ffn.w1", "blocks.1.ffn.b1", "blocks.1.ffn.w2", "blocks.1.ffn.b2",
    "blocks.1.bn1.gamma", "blocks.1.bn1.beta", "blocks.1.bn2.gamma", "blocks.1.bn2.beta",
    "decoder.w1", "decoder.b1", "decoder.w2", "decoder.b2", "decoder.w3", "decoder.b3",
]
BUFFER_NAMES = [
    "encoder.bn.running_mean", "encoder.bn.running_var",
    "blocks.0.attn.bn_q.running_mean", "blocks.0.attn.bn_q.running_var",
    "blocks.0.attn.bn_k.running_mean", "blocks.0.attn.bn_k.running_var",
    "blocks.0.attn.bn_v.running_mean", "blocks.0.attn.bn_v.running_var",
    "blocks.0.bn1.running_mean", "blocks.0.bn1.running_var",
    "blocks.0.bn2.running_mean", "blocks.0.bn2.running_var",
    "blocks.1.attn.bn_q.running_mean", "blocks.1.attn.bn_q.running_var",
    "blocks.1.attn.bn_k.running_mean", "blocks.1.attn.bn_k.running_var",
    "blocks.1.attn.bn_v.running_mean", "blocks.1.attn.bn_v.running_var",
    "blocks.1.bn1.running_mean", "blocks.1.bn1.running_var",
    "blocks.1.bn2.running_mean", "blocks.1.bn2.running_var",
]


def test_parameters_and_buffers_named():
    """Adam, grad clipping and checkpoints iterate state in this exact order."""
    model = SedFormer(small_config(blocks=2))
    assert list(model.parameters()) == PARAM_NAMES
    assert list(model.buffers()) == BUFFER_NAMES
    assert len(model.batch_norms()) == 1 + 2 * 5


class _Forwarding:
    """Stand-in that forwards attribute access, as an external tracer does."""

    def __init__(self, target):
        self._target = target

    def __call__(self, *args):
        return self._target(*args)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def test_state_survives_forwarding_stand_in():
    model = SedFormer(small_config(blocks=2))
    params, bufs, norms = model.parameters(), model.buffers(), model.batch_norms()
    block = model.blocks[1]
    block.attn = _Forwarding(block.attn)
    assert list(model.parameters().items()) == list(params.items())
    assert list(model.buffers()) == list(bufs)
    assert all(a is b for a, b in zip(model.buffers().values(), bufs.values()))
    assert [id(bn) for bn in model.batch_norms()] == [id(bn) for bn in norms]


def test_history_shorter_than_stride():
    """K < pool_stride pools the whole history into one step."""
    model = SedFormer(small_config(n_variates=2, pool_stride=4))
    for k in (1, 2, 3):
        times = np.arange(k, dtype=np.float64)
        series = EventSeries(times=times, values=np.linspace(-1.0, 1.0, 2 * k).reshape(k, 2),
                             mask=np.ones((k, 2)))
        q = [times[-1] + np.array([1.0, 2.0]), times[-1] + np.array([3.0])]
        preds = model.predict(series, q)
        assert [p.shape for p in preds] == [(2,), (1,)]
        assert all(np.all(np.isfinite(p)) for p in preds)
        item = WindowItem(series=series, query_times=q, targets=[np.zeros(2), np.zeros(1)])
        report = model_energy_report(model, [item])
        assert report["firing"]["pooled_events"] == 1
        assert np.isfinite(report["total_pj"])


def test_non_finite_queries_and_targets_rejected(rng):
    model = SedFormer(small_config())
    series = random_series(rng, n_events=10)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DataError):
            model.predict(series, [np.array([95.0, bad]), np.array([]), np.array([96.0])])
        with pytest.raises(DataError):
            WindowItem(series=series, query_times=[np.array([95.0])] * 3,
                       targets=[np.array([0.0]), np.array([bad]), np.array([0.0])])


def test_load_state_roundtrip(rng):
    model = SedFormer(small_config())
    series = random_series(rng, n_events=12)
    model.calibrate([series])
    q = [np.array([95.0])] * 3
    want = model.predict(series, q)

    other = SedFormer(small_config(seed=9))
    other.load_state({k: p.data.copy() for k, p in model.parameters().items()},
                     {k: b.copy() for k, b in model.buffers().items()})
    got = other.predict(series, q)
    assert all(np.array_equal(x, y) for x, y in zip(want, got))


def test_load_state_rejects_shape_mismatch(rng):
    model = SedFormer(small_config())
    params = {k: p.data.copy() for k, p in model.parameters().items()}
    params["embed"] = np.zeros((1, 1))
    with pytest.raises(ConfigError):
        model.load_state(params, {k: b.copy() for k, b in model.buffers().items()})


def test_calibrate_restores_mode(rng):
    model = SedFormer(small_config())
    model.calibrate([random_series(rng, n_events=10) for _ in range(3)])
    assert all(bn._acc is None for bn in model.batch_norms())  # accumulation closed
    stats = model.buffers()["encoder.bn.running_mean"]
    assert not np.allclose(stats, 0.0)


def _non_identity(model, rng):
    """Non-identity scales and shifts on every normalizer."""
    for bn in model.batch_norms():
        bn.gamma.data = rng.normal(1.0, 0.3, size=bn.channels)
        bn.beta.data = rng.normal(0.0, 0.3, size=bn.channels)


@pytest.mark.filterwarnings("ignore:.*no observed pooled step")
def test_folded_normalizers_match_composed_forward(rng, monkeypatch):
    """Every normalizer folds into its neighbouring map; the same model with
    the encoder, attention and feed-forward composed from
    ``BatchNorm.__call__`` (``oracles.py``) gives the same predictions and
    gradients to 1e-12, on a padded batch under non-identity statistics."""
    model = SedFormer(small_config(blocks=2, pool_stride=4))
    windows = [random_series(rng, n_events=k) for k in (14, 3, 22)]
    queries = [[np.sort(rng.uniform(91.0, 120.0, size=2)) for _ in range(3)] for _ in windows]
    targets = [[rng.normal(size=2) for _ in range(3)] for _ in windows]
    model.calibrate(windows)
    _non_identity(model, rng)
    params = model.parameters()

    def run():
        for p in params.values():
            p.grad = None
        preds = model.forward(windows, queries)
        variate_balanced_mse(preds, targets).backward()
        return ([p.data for row in preds for p in row],
                {k: p.grad.copy() for k, p in params.items() if p.grad is not None})

    folded, folded_grads = run()
    normalized = set()
    bn_call = BatchNorm.__call__
    monkeypatch.setattr(BatchNorm, "__call__", lambda bn, x: normalized.add(bn) or bn_call(bn, x))
    monkeypatch.setattr(SedSeEncoder, "drive_current", composed_drive_current)
    monkeypatch.setattr(SedAttention, "__call__", composed_attention)
    monkeypatch.setattr(FeedForward, "__call__", composed_feed_forward)
    composed, composed_grads = run()
    assert normalized == set(model.batch_norms())  # each normalizer ran op by op
    for a, b in zip(folded, composed):
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))
    assert folded_grads.keys() == composed_grads.keys()
    scale = max(np.max(np.abs(g)) for g in composed_grads.values())
    for k, g in composed_grads.items():
        assert np.max(np.abs(folded_grads[k] - g)) <= 1e-12 * scale, k


@pytest.mark.filterwarnings("ignore:.*no observed pooled step")
def test_calibrate_statistics_match_numpy(rng, monkeypatch):
    """On one padded batch, each normalizer's new statistics are np.mean and
    np.var over its raw input's real rows, which the test computes from what
    each module is handed: the encoder's raw convolution, the block input
    (bn1), its image under bn1 and each projection (bn_q/k/v; one bn1 scale
    is 0) and the feed-forward input (bn2). No forward calls
    ``BatchNorm.__call__``."""
    model = SedFormer(small_config(blocks=2, pool_stride=4, kernel_size=5))
    sizes = (14, 3, 22)
    windows = [random_series(rng, n_events=k) for k in sizes]
    model.calibrate(windows)
    _non_identity(model, rng)
    model.blocks[0].bn1.gamma.data[1] = 0.0
    raw = {}  # normalizer -> its input's real rows

    def real(a, lengths):
        return np.concatenate([a[:n, b].reshape(-1, a.shape[-1]) for b, n in enumerate(lengths)])

    def encoder_spy(enc, batch):
        obs = np.where(batch.mask == 1.0, batch.values, 0.0)  # [K, B, D]
        conv = np.empty(obs.shape + (enc.channels,))
        for (b, d, c), _ in np.ndenumerate(conv[0]):
            conv[:, b, d, c] = np.correlate(obs[:, b, d], enc.kernels.data[d, c], mode="same")
        raw[enc.bn] = real(conv, sizes)
        return drive_current(enc, batch)

    def attention_spy(attn, x, gaps, lengths=None, norm=None):
        assert list(lengths) == [max(k // 4, 1) for k in sizes]  # pooled steps per window
        rows = raw[norm] = real(x.data, lengths)
        h = ((rows - norm.running_mean) / np.sqrt(norm.running_var + norm.eps)
             * norm.gamma.data + norm.beta.data)
        for w, bn in ((attn.w_q, attn.bn_q), (attn.w_k, attn.bn_k), (attn.w_v, attn.bn_v)):
            raw[bn] = h @ w.data
        return attention(attn, x, gaps, lengths, norm=norm)

    def feed_forward_spy(ffn, x, lengths=None, norm=None):
        raw[norm] = real(x.data, lengths)
        return feed_forward(ffn, x, lengths, norm=norm)

    drive_current, attention = SedSeEncoder.drive_current, SedAttention.__call__
    feed_forward = FeedForward.__call__
    monkeypatch.setattr(SedSeEncoder, "drive_current", encoder_spy)
    monkeypatch.setattr(SedAttention, "__call__", attention_spy)
    monkeypatch.setattr(FeedForward, "__call__", feed_forward_spy)
    monkeypatch.setattr(BatchNorm, "__call__", lambda bn, x: pytest.fail("op-by-op normalizer"))
    model.calibrate(windows)
    assert set(raw) == set(model.batch_norms())
    for bn, rows in raw.items():
        for got, want in ((bn.running_mean, np.mean(rows, axis=0)),
                          (bn.running_var, np.var(rows, axis=0))):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# -- folds kept between forwards that do not record -----------------------------------


def _fold_cache_case(rng):
    """A calibrated two-block model with non-identity normalizers, a window,
    its queries and one prediction, which fills every module's fold."""
    model = SedFormer(small_config(blocks=2))
    series = random_series(rng, n_events=16)
    model.calibrate([series])
    _non_identity(model, rng)
    q = [np.array([95.0, 101.0]), np.array([92.0]), np.array([99.0])]
    return model, series, q, model.predict(series, q)


def _cold_predict(model, series, q):
    """``predict`` of a model built afresh from ``model``'s state, so no fold is kept."""
    twin = SedFormer(model.config)
    twin.load_state({k: p.data for k, p in model.parameters().items()}, model.buffers())
    return twin.predict(series, q)


def _assert_refolded(model, series, q, before):
    got = model.predict(series, q)
    assert all(np.array_equal(a, b) for a, b in zip(got, _cold_predict(model, series, q)))
    assert not all(np.array_equal(a, b) for a, b in zip(got, before))  # the change shows


def test_folds_rebuilt_after_adam_step(rng):
    model, series, q, before = _fold_cache_case(rng)
    opt = Adam(model.parameters(), lr=1e-2)
    targets = [rng.normal(size=len(t)) for t in q]
    variate_balanced_mse(model.forward(series, q), targets).backward()
    opt.step()
    _assert_refolded(model, series, q, before)


def test_folds_rebuilt_after_load_state(rng):
    model, series, q, before = _fold_cache_case(rng)
    other, _, _, _ = _fold_cache_case(np.random.default_rng(5))
    model.load_state({k: p.data for k, p in other.parameters().items()}, other.buffers())
    _assert_refolded(model, series, q, before)


def test_folds_rebuilt_after_calibrate(rng):
    """Statistics change in place while every parameter array stays the same."""
    model, series, q, before = _fold_cache_case(rng)
    model.calibrate([random_series(rng, n_events=20) for _ in range(2)])
    _assert_refolded(model, series, q, before)


def test_folds_rebuilt_after_parameter_rebinding(rng):
    model, series, q, before = _fold_cache_case(rng)
    for p in model.parameters().values():
        p.data = p.data + rng.normal(0.0, 0.1, size=p.shape)
    _assert_refolded(model, series, q, before)

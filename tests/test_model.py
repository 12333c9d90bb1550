import numpy as np
import pytest

from conftest import random_series
from sedformer.encoder import EventSeries
from sedformer.energy import model_energy_report
from sedformer.errors import ConfigError, DataError
from sedformer.model import ModelConfig, SedFormer
from sedformer.tensor import Tensor, concat
from sedformer.training import WindowItem


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


def test_forward_shapes(rng):
    model = SedFormer(small_config())
    series = random_series(rng, n_events=14)
    q = [np.array([95.0, 100.0]), np.array([91.0]), np.array([])]
    preds = model.forward(series, q)
    assert preds[0].data.shape == (2,)
    assert preds[1].data.shape == (1,)
    assert preds[2] is None


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
    """One batched decoder call equals decoding each variate on its own."""
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
            want = model.decoder(concat([tiled, model.te(qd)], axis=1)).data[:, 0]
            assert p.shape == qd.shape
            assert np.max(np.abs(p.data - want)) <= 1e-12


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

import numpy as np
import pytest

from conftest import random_series
from sedformer.errors import ConfigError
from sedformer.model import ModelConfig, SedFormer
from sedformer.tensor import Tensor, concat


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


def test_parameters_and_buffers_named(rng):
    model = SedFormer(small_config(blocks=2))
    params = model.parameters()
    assert "encoder.kernels" in params
    assert "blocks.1.attn.w_q" in params
    assert "embed" in params
    bufs = model.buffers()
    assert "encoder.bn.running_mean" in bufs
    assert any(k.startswith("blocks.0.") for k in bufs)


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

import json
import warnings

import numpy as np
import pytest

from conftest import random_series
from sedformer.data import WindowItem
from sedformer.encoder import EventSeries
from sedformer.errors import ConfigError
from sedformer.model import ModelConfig, SedFormer
from sedformer.tensor import Tensor, parameter
from sedformer.training import (Adam, TrainConfig, baseline_metrics, evaluate,
                                flat_errors, flat_metrics, load_checkpoint,
                                mean_forecast, persistence_forecast,
                                save_checkpoint, train, variate_balanced_mse)


def small_config(**kw):
    base = dict(n_variates=3, conv_channels=4, kernel_size=3, dim=8, heads=2,
                blocks=1, pool_stride=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def make_item(rng, n_variates=3):
    series = random_series(rng, n_variates=n_variates)
    q = [np.sort(rng.uniform(91.0, 120.0, size=int(rng.integers(1, 5))))
         for _ in range(n_variates)]
    targets = [rng.normal(size=t.size) for t in q]
    return WindowItem(series=series, query_times=q, targets=targets)


def test_loss_hand_value():
    # variate 0: one query err 1; variate 1: two queries err 0 -> mean(1, 0)/... = 0.5
    preds = [Tensor(np.array([1.0])), Tensor(np.array([2.0, 3.0]))]
    targets = [np.array([0.0]), np.array([2.0, 3.0])]
    loss = variate_balanced_mse(preds, targets)
    assert float(loss.data) == 0.5


def test_loss_excludes_empty_variates_with_warning():
    preds = [Tensor(np.array([2.0])), None]
    targets = [np.array([0.0]), np.array([])]
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        loss = variate_balanced_mse(preds, targets)
    assert float(loss.data) == 4.0
    assert any("no queries" in str(m.message) for m in w)
    with pytest.raises(ConfigError):
        variate_balanced_mse([None], [np.array([])])


def test_flat_metrics_pools_across_variates():
    errs = flat_errors([np.array([1.0, 2.0]), np.array([3.0])],
                       [np.array([0.0, 0.0]), np.array([0.0])])
    m = flat_metrics(errs)
    assert m["n_queries"] == 3
    assert abs(m["mse"] - (1.0 + 4.0 + 9.0) / 3.0) < 1e-12
    assert abs(m["mae"] - 2.0) < 1e-12


def test_adam_minimizes_quadratic():
    x = parameter(np.array([5.0, -3.0]))
    opt = Adam({"x": x}, lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        loss = (x * x).sum()
        loss.backward()
        opt.step()
    assert np.all(np.abs(x.data) < 1e-3)


def test_adam_grad_clip():
    x = parameter(np.array([1000.0]))
    opt = Adam({"x": x}, lr=1.0, grad_clip=1e-3)
    opt.zero_grad()
    (x * x).sum().backward()
    opt.step()
    # clipped global norm keeps the raw update bounded by lr regardless of grad
    assert abs(float(x.data[0]) - 1000.0) <= 1.0


def test_gradients_reach_nearly_all_parameter_groups(rng):
    model = SedFormer(small_config())
    item = make_item(rng)
    model.calibrate([item.series])
    preds = model.forward(item.series, item.query_times)
    loss = variate_balanced_mse(preds, item.targets)
    loss.backward()
    params = model.parameters()
    nonzero = sum(1 for p in params.values()
                  if p.grad is not None and np.linalg.norm(p.grad) > 0)
    assert nonzero / len(params) >= 0.95


def test_loss_strictly_decreases_on_noiseless_data():
    rng = np.random.default_rng(3)
    K, D = 120, 4
    times = np.sort(rng.uniform(0.0, 90.0, size=K))
    periods = np.array([20.0, 30.0, 40.0, 60.0])
    vals = np.stack([np.sin(2 * np.pi * times / p) for p in periods], axis=1)
    series = EventSeries(times=times, values=vals, mask=np.ones((K, D)))
    q = [np.arange(91.0, 96.0) for _ in range(D)]
    tg = [np.sin(2 * np.pi * q[d] / periods[d]) for d in range(D)]
    item = WindowItem(series=series, query_times=q, targets=tg)
    model = SedFormer(small_config(n_variates=4))
    res = train(model, [item], [], TrainConfig(epochs=5, lr=1e-3, batch_size=1,
                                               seed=0))
    losses = [h["train_loss"] for h in res["history"]]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_overfits_tiny_noiseless_dataset():
    rng = np.random.default_rng(7)
    K, D = 60, 4
    times = np.sort(rng.uniform(0.0, 90.0, size=K))
    periods = np.array([20.0, 30.0, 40.0, 60.0])
    phases = rng.uniform(0, 2 * np.pi, size=D)
    vals = np.stack([np.sin(2 * np.pi * times / periods[d] + phases[d])
                     for d in range(D)], axis=1)
    series = EventSeries(times=times, values=vals, mask=np.ones((K, D)))
    q = [np.arange(90.0, 120.0) for _ in range(D)]
    tg = [np.sin(2 * np.pi * q[d] / periods[d] + phases[d]) for d in range(D)]
    item = WindowItem(series=series, query_times=q, targets=tg)

    model = SedFormer(ModelConfig(n_variates=4, dim=32, heads=4, blocks=2,
                                  pool_stride=4, seed=0))
    cfg = TrainConfig(epochs=500, lr=3e-3, batch_size=1, seed=0)
    best = np.inf
    for chunk in range(10):  # stop as soon as the bar is cleared
        res = train(model, [item], [], TrainConfig(epochs=50, lr=cfg.lr,
                                                   batch_size=1, seed=chunk))
        best = min(best, res["history"][-1]["train_loss"])
        if best < 1e-3:
            break
    assert best < 1e-3


def test_training_deterministic_for_fixed_seed(rng):
    items = [make_item(rng) for _ in range(4)]
    histories = []
    for _ in range(2):
        model = SedFormer(small_config())
        res = train(model, items[:3], items[3:],
                    TrainConfig(epochs=3, lr=1e-3, seed=11))
        histories.append([(h["train_loss"], h["val_mse"]) for h in res["history"]])
    assert histories[0] == histories[1]


def test_best_validation_params_restored(rng):
    items = [make_item(rng) for _ in range(5)]
    model = SedFormer(small_config())
    res = train(model, items[:4], items[4:], TrainConfig(epochs=4, seed=0))
    val = evaluate(model, items[4:])
    assert abs(val["mse"] - res["best_val_mse"]) < 1e-9


def test_persistence_and_mean_forecasts():
    times = np.array([1.0, 4.0])
    values = np.array([[2.0, 5.0], [3.0, 0.0]])
    mask = np.array([[1.0, 1.0], [1.0, 0.0]])
    series = EventSeries(times=times, values=values, mask=mask)
    q = [np.array([10.0, 11.0]), np.array([10.0])]
    p = persistence_forecast(series, q)
    assert np.array_equal(p[0], [3.0, 3.0])
    assert np.array_equal(p[1], [5.0])
    m = mean_forecast(series, q)
    assert np.array_equal(m[0], [2.5, 2.5])
    assert np.array_equal(m[1], [5.0])


def test_baseline_metrics_kinds(rng):
    items = [make_item(rng) for _ in range(3)]
    for kind in ("persistence", "mean"):
        m = baseline_metrics(items, kind)
        assert m["n_queries"] == sum(it.n_queries for it in items)
    with pytest.raises(ConfigError):
        baseline_metrics(items, "oracle")


def test_checkpoint_roundtrip(tmp_path, rng):
    model = SedFormer(small_config())
    item = make_item(rng)
    model.calibrate([item.series])
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model)
    again = load_checkpoint(str(path))
    a = model.predict(item.series, item.query_times)
    b = again.predict(item.series, item.query_times)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_checkpoint_with_retired_config_fields(tmp_path, rng):
    """Checkpoints written before three config fields were retired still load."""
    model = SedFormer(small_config())
    item = make_item(rng)
    model.calibrate([item.series])
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model)
    blob = json.loads(path.read_text())
    blob["config"].update(bn_momentum=0.1, smooth_spikes=True, share_time_embedding=True)
    path.write_text(json.dumps(blob))
    a = model.predict(item.series, item.query_times)
    b = load_checkpoint(str(path)).predict(item.series, item.query_times)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))

    blob["config"]["share_time_embedding"] = False
    path.write_text(json.dumps(blob))
    with pytest.raises(ConfigError, match="share_time_embedding"):
        load_checkpoint(str(path))
    blob["config"].update(share_time_embedding=True, bogus=1)
    path.write_text(json.dumps(blob))
    with pytest.raises(ConfigError, match="bogus"):
        load_checkpoint(str(path))

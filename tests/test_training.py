import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sedformer
from conftest import random_series
from sedformer import SuiteConfig, synth_suite
from sedformer import model as model_mod
from sedformer import parallel
from sedformer.data import WindowItem
from sedformer.encoder import EventSeries
from sedformer.errors import ConfigError
from sedformer.model import ModelConfig, SedFormer
from sedformer.tensor import Tensor, _toposort, parameter
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


def test_backward_frees_the_training_tape():
    """A suite-sized window: the backward's peak stays near the forward's
    tape (a kept tape would hold every interior gradient too, about 2.5x),
    and after it only the parameter gradients remain."""
    item = synth_suite(SuiteConfig(n_series=1, n_days=210, seed=0))["train"][0]
    model = SedFormer(ModelConfig(n_variates=item.series.n_variates))
    model.calibrate([item.series])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = variate_balanced_mse(model.forward(item.series, item.query_times),
                                    item.targets)
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in model.parameters().values())
    assert tape > 1 << 20  # the window is big enough to measure
    assert peak <= 1.2 * tape
    assert after <= grads + 0.05 * tape


def test_training_tape_stays_lean():
    """A suite-sized window (K = 85, 120 queries): with the normalizers
    folded, the attention core and the loss one op each, the loss graph
    has at most 215 op nodes and its tape holds at most 2.2 MiB (the
    composed graph held 2.74 MiB)."""
    item = synth_suite(SuiteConfig(n_series=1, n_days=210, seed=0))["train"][0]
    assert item.series.n_events == 85 and item.n_queries == 120
    model = SedFormer(ModelConfig(n_variates=item.series.n_variates))
    model.calibrate([item.series])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = variate_balanced_mse(model.forward(item.series, item.query_times),
                                    item.targets)
        tape = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    ops = [node for node in _toposort(loss) if node._backward is not None]
    assert len(ops) <= 215
    assert tape <= 2.2 * 2 ** 20


def test_query_heavy_run_tape_stays_lean():
    """A run of 10 sparse windows (K <= 16, D = 4, 1,200 queries): the
    decoder projects each summary and embeds each of the 30 distinct
    stamps once and keeps two [Q, 2d] arrays, so the tape holds at most
    4.5 MiB (the per-query MLP held 6.5 MiB)."""
    train = synth_suite(SuiteConfig(n_series=2, n_days=600, rate=0.95, seed=0),
                        min_events=1)["train"]
    items = [item for item in train if item.series.n_events <= 16][:10]
    assert len(items) == 10 and sum(item.n_queries for item in items) == 1200
    model = SedFormer(ModelConfig(n_variates=4))
    model.calibrate([item.series for item in items])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = variate_balanced_mse(
            model.forward([item.series for item in items], [item.query_times for item in items]),
            [item.targets for item in items])
        tape = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    assert tape <= 4.5 * 2 ** 20


def test_suite_training_run_peak_stays_within_budget():
    """One training run of 8 suite windows (K about 84, D = 4; ``BATCH_ROWS``
    holds them in one run): forward plus backward peak at most 8 MiB under
    tracemalloc. It read 7.77 MiB, and 10.15 MiB with the composed
    feed-forward, encoder current and pooling head, the attention core
    keeping its squashed q and k, and the decoder's backward its extra
    [Q, 2d] temporary."""
    items = synth_suite(SuiteConfig(n_days=600, seed=0))["train"][:8]
    series, queries = [item.series for item in items], [item.query_times for item in items]
    targets = [item.targets for item in items]
    assert model_mod.batch_ranges(series, [item.n_queries for item in items]) == [range(8)]
    model = SedFormer(ModelConfig(n_variates=4))
    model.calibrate(series)

    def run():
        variate_balanced_mse(model.forward(series, queries), targets).backward()

    run()  # the first run's allocations that later runs reuse
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


# A child process, so that this one's heap history does not set the count.
STEADY_EPOCH = """
import resource
import numpy as np
from sedformer import ModelConfig, SedFormer, TrainConfig, align_events, evaluate, train
from sedformer.data import WindowItem

rng = np.random.default_rng(0)
def item():
    stamps = [np.sort(rng.uniform(0.0, 90.0, 40)) for _ in range(8)]
    queries = [np.sort(rng.uniform(90.0, 120.0, 10)) for _ in range(8)]
    return WindowItem(series=align_events([(t, np.sin(t / 7.0)) for t in stamps]),
                      query_times=queries, targets=[np.sin(q / 7.0) for q in queries])
items = [item(), item()]
model = SedFormer(ModelConfig(n_variates=8))
train(model, items, [], TrainConfig(epochs=1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(model, items, [], TrainConfig(epochs=1))
evaluate(model, items)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap top pad is glibc's")
def test_steady_epoch_does_not_refault_its_tape():
    """Two lone windows of K = 320 events (D = 8, an async_long-sized tape of
    about 8 MiB): after a warm-up epoch, a second epoch plus one evaluate
    reuse the heap's freed top (``tensor.HEAP_TOP_PAD``) instead of faulting
    in fresh pages: 2 minor faults, where they read 1,000–3,300 without the pad."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedformer.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", STEADY_EPOCH], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    faults = int(run.stdout.splitlines()[-1])
    env_bytes = sum(len(os.fsencode(k)) + len(os.fsencode(v)) + 2 for k, v in env.items())
    # the count moves with the heap layout, which the environment's size shifts
    assert faults < 100, f"{faults} minor faults with a {env_bytes}-byte environment"


@pytest.mark.filterwarnings("ignore:.*no queries")
def test_run_loss_is_the_sum_of_window_losses(rng):
    """The loss of a run of windows is one op equal to the sum of the
    windows' losses, with the same gradients."""
    preds = [[parameter(rng.normal(size=n)) if n else None for n in sizes]
             for sizes in ((2, 0, 3), (1, 1, 4))]
    targets = [[rng.normal(size=p.shape) if p is not None else np.zeros(0) for p in row]
               for row in preds]
    run = variate_balanced_mse(preds, targets)
    run.backward()
    run_grads = [p.grad.copy() for row in preds for p in row if p is not None]
    for p in (p for row in preds for p in row if p is not None):
        p.grad = None
    single = [variate_balanced_mse(p, t) for p, t in zip(preds, targets)]
    (single[0] + single[1]).backward()
    assert abs(run.item() - sum(s.item() for s in single)) <= 1e-15 * run.item()
    for a, p in zip(run_grads, (p for row in preds for p in row if p is not None)):
        assert np.max(np.abs(a - p.grad)) <= 1e-15 * np.max(np.abs(p.grad))
    with pytest.raises(ConfigError):  # every window of a run needs a query
        variate_balanced_mse(preds + [[None, None, None]], targets + [[np.zeros(0)] * 3])


def _one_window_step(model, items, lr):
    """The reference minibatch step: one forward and backward per window."""
    model.calibrate([item.series for item in items])
    opt = Adam(model.parameters(), lr=lr)
    opt.zero_grad()
    for item in items:
        loss = variate_balanced_mse(model.forward(item.series, item.query_times),
                                    item.targets)
        (loss * (1.0 / len(items))).backward()
    opt.step()


@pytest.mark.filterwarnings("ignore:.*no observed pooled step")
@pytest.mark.filterwarnings("ignore:.*no queries")
def test_batched_minibatch_step_matches_one_window_steps(monkeypatch):
    """One training step over a minibatch that splits into several batched
    runs gives the gradients and post-Adam parameters of one-window steps,
    up to summation order. One window is shorter than the pooling stride,
    one has a variate without queries."""
    rng = np.random.default_rng(5)
    items = [make_item(rng) for _ in range(5)]
    q = [np.array([95.0, 99.0]), np.zeros(0), np.array([101.0])]
    items.append(WindowItem(series=random_series(rng, n_events=3), query_times=q,
                            targets=[rng.normal(size=t.size) for t in q]))
    cfg = small_config(pool_stride=4)
    batched, single = SedFormer(cfg), SedFormer(cfg)
    runs = []
    forward = batched.forward
    monkeypatch.setattr(batched, "forward", lambda s, q: runs.append(len(s)) or forward(s, q))
    monkeypatch.setattr(model_mod, "BATCH_ROWS", 150)
    monkeypatch.setattr(parallel, "ENABLED", False)  # a worker would not record its runs
    train(batched, items, [], TrainConfig(epochs=1, batch_size=len(items), lr=1e-2))
    assert len(runs) >= 2 and max(runs) > 1
    _one_window_step(single, items, lr=1e-2)
    params = batched.parameters()
    for k, p in single.parameters().items():
        g = p.grad
        assert np.max(np.abs(params[k].grad - g)) <= 1e-12 * np.max(np.abs(g)), k
        scale = max(1.0, float(np.max(np.abs(p.data))))
        assert np.max(np.abs(params[k].data - p.data)) <= 1e-12 * scale, k


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


@pytest.mark.filterwarnings("ignore:.*no observed pooled step")
@pytest.mark.parametrize("first_gap", ["zero", "median"])
@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_checkpoint_roundtrip(tmp_path_factory, first_gap, data):
    """Random small configs: names, state and predictions survive a save and
    load, and a re-save writes the same bytes. One window is shorter than
    the pooling stride."""
    draw = data.draw
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        n_variates=draw(st.integers(1, 3)), conv_channels=draw(st.integers(1, 3)),
        kernel_size=draw(st.sampled_from([1, 3, 5])), dim=heads * draw(st.integers(2, 4)),
        heads=heads, blocks=draw(st.integers(1, 2)), pool_stride=draw(st.integers(2, 5)),
        tau_init=draw(st.floats(1.0, 4.0)), first_gap=first_gap,
        seed=draw(st.integers(0, 2 ** 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    s = cfg.pool_stride
    windows = [random_series(rng, n_events=k, n_variates=cfg.n_variates)
               for k in (int(rng.integers(1, s)), int(rng.integers(s, 4 * s)))]
    queries = [[np.sort(rng.uniform(90.0, 120.0, size=2)) for _ in range(cfg.n_variates)]
               for _ in windows]
    model = SedFormer(cfg)
    model.calibrate(windows)
    tmp = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(str(tmp / "a.json"), model)
    again = load_checkpoint(str(tmp / "a.json"))
    save_checkpoint(str(tmp / "b.json"), again)
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
    assert again.config == cfg
    assert list(again.parameters()) == list(model.parameters())
    assert list(again.buffers()) == list(model.buffers())
    for w, q in zip(windows, queries):
        for a, b in zip(model.predict(w, q), again.predict(w, q)):
            assert a.tobytes() == b.tobytes()


def test_checkpoint_with_retired_config_fields(tmp_path, rng):
    """Checkpoints written before config fields were retired still load; a
    retired field set away from the value this version fixes is refused."""
    model = SedFormer(small_config())
    item = make_item(rng)
    model.calibrate([item.series])
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model)
    blob = json.loads(path.read_text())
    blob["config"].update(bn_momentum=0.1, smooth_spikes=True, share_time_embedding=True,
                          v_th=1.0, alpha_ste=4.0, te_span=90.0, attention_eps=1e-6)
    path.write_text(json.dumps(blob))
    a = model.predict(item.series, item.query_times)
    b = load_checkpoint(str(path)).predict(item.series, item.query_times)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))

    for name, value in (("share_time_embedding", False), ("v_th", 0.5), ("alpha_ste", 2.0),
                        ("te_span", 30.0), ("attention_eps", 1e-3)):
        stored = blob["config"][name]
        blob["config"][name] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=name):
            load_checkpoint(str(path))
        blob["config"][name] = stored
    blob["config"].update(share_time_embedding=True, bogus=1)
    path.write_text(json.dumps(blob))
    with pytest.raises(ConfigError, match="bogus"):
        load_checkpoint(str(path))


def test_diverging_run_is_a_config_error_without_numpy_warnings():
    """A step size that sends the parameters to ~1e300 overflows the next
    forward: the run ends in the lr/grad_clip error at the first overflow,
    not after numpy's RuntimeWarnings."""
    rng = np.random.default_rng(3)
    items = [make_item(rng) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="lower lr .* grad_clip"):
            train(SedFormer(small_config()), items, items[:2], TrainConfig(epochs=2, lr=1e300))

"""Batched no-grad forward: a padded batch equals one forward per window."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_series
from sedformer import neuron, parallel
from sedformer.encoder import EventBatch, EventSeries, event_gaps
from sedformer.errors import NumericsError
from sedformer.model import BATCH_ROWS, ModelConfig, SedFormer, batch_ranges
from sedformer.neuron import ealif_filter, ealif_spike_scan, eta_for_tau
from sedformer.tensor import Tensor, no_grad, parameter
from sedformer.training import WindowItem, evaluate

TOL = 1e-12
EMPTY_VARIATE = "ignore:.*no observed pooled step"


def small_model(n_variates=3, **kw):
    cfg = dict(n_variates=n_variates, conv_channels=4, kernel_size=3, dim=8, heads=2,
               blocks=2, pool_stride=4, seed=0)
    cfg.update(kw)
    return SedFormer(ModelConfig(**cfg))


def queries_for(rng, n_variates):
    return [np.sort(rng.uniform(90.0, 120.0, size=rng.integers(0, 4)))
            for _ in range(n_variates)]


def batch_gap(model, series, queries):
    """Worst |batched - single| / max(1, |single|) over all predictions, and
    whether all are bitwise equal."""
    with no_grad():
        batched = model.forward(series, queries)
        single = [model.forward(s, q) for s, q in zip(series, queries)]
    assert len(batched) == len(series)
    worst, bitwise = 0.0, True
    for row_b, row_s in zip(batched, single):
        assert len(row_b) == len(row_s)
        for b, s in zip(row_b, row_s):
            assert (b is None) == (s is None)
            if s is not None:
                gap = np.abs(b.data - s.data) / np.maximum(1.0, np.abs(s.data))
                worst = max(worst, float(np.max(gap)))
                bitwise &= b.data.tobytes() == s.data.tobytes()
    return worst, bitwise


def mixed_windows(rng, n_variates=3):
    """K = 1, K < stride, K not a multiple of the stride, an all-empty variate."""
    windows = [random_series(rng, n_events=k, n_variates=n_variates) for k in (1, 3, 14, 9)]
    s = random_series(rng, n_events=11, n_variates=n_variates)
    mask = s.mask.copy()
    mask[:, 1] = 0.0
    mask[mask.sum(axis=1) == 0, 0] = 1.0
    windows.append(EventSeries(times=s.times, values=s.values * mask, mask=mask))
    return windows


@pytest.mark.filterwarnings(EMPTY_VARIATE)
@pytest.mark.parametrize("first_gap", ["zero", "median"])
def test_batched_forward_equals_single_windows(rng, first_gap):
    model = small_model(first_gap=first_gap)
    windows = mixed_windows(rng)
    model.calibrate([random_series(rng, n_events=20) for _ in range(3)])
    queries = [queries_for(rng, 3) for _ in windows]
    worst, _ = batch_gap(model, windows, queries)
    # not always bitwise: BLAS may round a matrix-vector product (the
    # decoder's last layer) differently for different row counts
    assert worst <= TOL
    for s, q in zip(windows, queries):  # a list of one equals the lone window, bitwise
        assert batch_gap(model, [s], [q]) == (0.0, True)


@pytest.mark.filterwarnings(EMPTY_VARIATE)
@pytest.mark.parametrize("first_gap", ["zero", "median"])
def test_batched_calibrate_matches_per_window(rng, first_gap):
    windows = mixed_windows(rng) + [random_series(rng) for _ in range(6)]
    batched, single = small_model(first_gap=first_gap), small_model(first_gap=first_gap)
    batched.calibrate(windows)
    norms = single.batch_norms()
    for bn in norms:
        bn.start_accumulation()
    with no_grad():
        for s in windows:
            single.summarize(s)
    for bn in norms:
        bn.stop_accumulation()
    for name, ref in single.buffers().items():
        got = batched.buffers()[name]
        assert np.max(np.abs(got - ref)) <= TOL * max(1.0, float(np.max(np.abs(ref)))), name


def test_batch_ranges_respect_the_row_cap(rng):
    windows = [random_series(rng, n_events=k) for k in (10, 400, 30, 20, 2000, 5, 7, 9)]
    queries = [50, 0, 600, 10, 0, 3000, 1, 1]
    for n_queries in (None, queries):
        runs = batch_ranges(windows, n_queries)
        assert [i for run in runs for i in run] == list(range(len(windows)))
        for run in runs:
            rows = max(windows[i].n_events for i in run) * len(run) * 3
            rows += sum(n_queries[i] for i in run) if n_queries else 0
            assert len(run) == 1 or rows <= BATCH_ROWS
    assert batch_ranges([]) == []


def items_for(rng, windows):
    items = []
    for s in windows:
        q = queries_for(rng, s.n_variates)
        items.append(WindowItem(series=s, query_times=q, targets=[rng.normal(size=t.size)
                                                                  for t in q]))
    return items


@pytest.mark.filterwarnings(EMPTY_VARIATE)
def test_evaluate_equals_per_window_predict(rng):
    """Shuffled windows of mixed lengths (one event, an unobserved variate,
    one long enough for the event-driven spike path) evaluate in length
    order, yet the MSE is bitwise the one pooled from per-window ``predict``
    errors in item order. Bitwise holds for these windows on a given BLAS,
    which may round the decoder's products of other row counts differently
    in the last bit (see ``test_batched_forward_equals_single_windows``)."""
    model = small_model()
    windows = mixed_windows(rng) + [random_series(rng, n_events=k)
                                    for k in (neuron.EVENT_PATH_MIN_K + 3, 40, 6, 22)]
    model.calibrate(windows)
    items = items_for(rng, [windows[i] for i in rng.permutation(len(windows))])
    errs = [p - y for it in items
            for p, y in zip(model.predict(it.series, it.query_times), it.targets)
            if p is not None]
    e = np.concatenate(errs)
    assert evaluate(model, items)["mse"] == float(np.mean(e * e))
    empty = evaluate(model, [])
    assert np.isnan(empty["mse"]) and np.isnan(empty["mae"]) and empty["n_queries"] == 0


@pytest.mark.filterwarnings(EMPTY_VARIATE)
def test_evaluate_batches_by_length_under_the_budget(rng, monkeypatch):
    """``evaluate`` runs its windows in the stable order of their event
    counts, each batch within ``BATCH_ROWS`` rows or a single window, and
    every window of at least ``EVENT_PATH_MIN_K`` events alone."""
    lengths = [int(k) for k in rng.integers(1, 120, size=60)]
    lengths += [300, neuron.EVENT_PATH_MIN_K, neuron.EVENT_PATH_MIN_K - 1, 1]
    windows = [random_series(rng, n_events=k) for k in lengths]
    items = items_for(rng, windows)
    index = {id(s): i for i, s in enumerate(windows)}
    batches = []
    forward = SedFormer.forward

    def recorded(self, series, query_times, smooth=False):
        batches.append([index[id(s)] for s in series])
        return forward(self, series, query_times, smooth)

    monkeypatch.setattr(SedFormer, "forward", recorded)
    monkeypatch.setattr(parallel, "ENABLED", False)  # a worker would not record its batches
    evaluate(small_model(), items)
    assert [i for batch in batches for i in batch] == sorted(range(len(windows)),
                                                             key=lambda i: lengths[i])
    assert sum(len(batch) > 1 for batch in batches) >= 2  # the budget splits the short ones
    for batch in batches:
        rows = max(lengths[i] for i in batch) * len(batch) * 3
        rows += sum(items[i].n_queries for i in batch)
        assert len(batch) == 1 or rows <= BATCH_ROWS
        if max(lengths[i] for i in batch) >= neuron.EVENT_PATH_MIN_K:
            assert len(batch) == 1


def test_event_batch_pads_repeat_the_last_stamp(rng):
    windows = [random_series(rng, n_events=k) for k in (5, 2, 8)]
    batch = EventBatch.stack(windows)
    assert batch.times.shape == (8, 3) and batch.mask.shape == (8, 3, 3)
    for b, s in enumerate(windows):
        n = s.n_events
        assert np.array_equal(batch.times[:n, b], s.times)
        assert np.all(batch.times[n:, b] == s.times[-1])
        assert not batch.mask[n:, b].any()
    for first_gap in ("zero", "median"):
        gaps = event_gaps(batch.times, first_gap=first_gap)
        for b, s in enumerate(windows):
            n = s.n_events
            assert np.array_equal(gaps[:n, b], event_gaps(s.times, first_gap=first_gap))
            assert not gaps[n:, b].any()


def test_scans_take_per_window_gaps(rng):
    """[K, B] gaps run B independent scans; gradients sum over the windows."""
    K, B = 7, 3
    drive = rng.normal(size=(K, B, 2, 4)) * 2.0
    dt = rng.uniform(0.0, 3.0, size=(K, B))
    for scan in (lambda x, g, e: ealif_filter(x, g, e),
                 lambda x, g, e: ealif_spike_scan(x, g, e, 1.0, 4.0, smooth=True)):
        x, eta = Tensor(drive, requires_grad=True), parameter(eta_for_tau(2.0))
        out = scan(x, dt, eta)
        (out * out).sum().backward()
        geta = 0.0
        for b in range(B):
            xb, eb = Tensor(drive[:, b], requires_grad=True), parameter(eta_for_tau(2.0))
            ob = scan(xb, dt[:, b], eb)
            assert np.array_equal(ob.data, out.data[:, b])
            (ob * ob).sum().backward()
            assert np.allclose(xb.grad, x.grad[:, b], rtol=TOL, atol=TOL)
            geta += float(eb.grad)
        assert float(eta.grad) == pytest.approx(geta, rel=1e-10)


def test_predict_rejects_non_finite_outputs(rng):
    model = small_model()
    model.decoder.b3.data = np.array([np.inf])
    with pytest.raises(NumericsError):
        model.predict(random_series(rng, n_events=9), [np.array([95.0])] * 3)


# -- property: batch == single -----------------------------------------------------------

@st.composite
def windows(draw, n_variates):
    k = draw(st.integers(1, 12))
    log_gaps = draw(st.lists(st.floats(-9.0, 6.0), min_size=k, max_size=k))
    times = np.cumsum(10.0 ** np.asarray(log_gaps))
    seed = draw(st.integers(0, 2 ** 16))
    r = np.random.default_rng(seed)
    mask = (r.uniform(size=(k, n_variates)) < 0.6).astype(float)
    empty = None
    if n_variates > 1 and draw(st.booleans()):
        empty = draw(st.integers(0, n_variates - 1))
        mask[:, empty] = 0.0  # an all-empty variate
    mask[mask.sum(axis=1) == 0, 1 if empty == 0 else 0] = 1.0
    values = r.normal(size=(k, n_variates)) * mask
    queries = [np.sort(times[-1] + r.uniform(0.0, 30.0, size=r.integers(0, 3)))
               for _ in range(n_variates)]
    return times, values, mask, queries


@pytest.mark.filterwarnings(EMPTY_VARIATE)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n_variates=st.integers(1, 3), stride=st.integers(1, 5))
def test_property_batch_equals_single(data, n_variates, stride):
    drawn = data.draw(st.lists(windows(n_variates), min_size=1, max_size=4))
    drawn = [w for w in drawn if np.all(np.diff(w[0]) > 0)]  # tiny gaps can round away
    if not drawn:
        return
    series = [EventSeries(times=t, values=v, mask=m) for t, v, m, _ in drawn]
    queries = [q for *_, q in drawn]
    model = small_model(n_variates=n_variates, pool_stride=stride)
    model.calibrate(series)  # batched, and the oracle below under its statistics
    single = small_model(n_variates=n_variates, pool_stride=stride)
    norms = single.batch_norms()
    for bn in norms:
        bn.start_accumulation()
    with no_grad():
        for s in series:
            single.summarize(s)
    for bn in norms:
        bn.stop_accumulation()
    for name, ref in single.buffers().items():
        gap = np.abs(model.buffers()[name] - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(gap) <= TOL, name
    worst, _ = batch_gap(model, series, queries)
    assert worst <= TOL
    with no_grad():
        a = model.forward(series, queries)
        b = model.forward(series, queries)
    assert all(x is None and y is None or x.data.tobytes() == y.data.tobytes()
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    assert all(x is None or np.all(np.isfinite(x.data)) for row in a for x in row)

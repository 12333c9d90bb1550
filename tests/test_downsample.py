import warnings

import numpy as np
import pytest

from conftest import gradcheck
from sedformer.downsample import pool_events, pool_max
from sedformer.errors import ConfigError
from sedformer.tensor import Tensor, parameter


def brute_force_pool(x: np.ndarray, stride: int) -> np.ndarray:
    n = x.shape[0] // stride
    out = np.empty((n,) + x.shape[1:])
    for u in range(n):
        out[u] = x[u * stride:(u + 1) * stride].max(axis=0)
    return out


def test_pool_matches_brute_force_on_binary_tensors():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        k = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        stride = int(rng.integers(1, k + 1))
        x = (rng.uniform(size=(k, d, c)) < 0.4).astype(np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = pool_max(Tensor(x), stride)
        assert np.array_equal(got.data, brute_force_pool(x, stride))


def test_pooled_length_is_floor():
    x = Tensor(np.zeros((7, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert pool_max(x, 2).shape[0] == 3
        assert pool_max(x, 3).shape[0] == 2
        assert pool_max(x, 7).shape[0] == 1


def test_stride_one_is_identity(rng):
    x = rng.normal(size=(9, 3))
    out = pool_max(Tensor(x), 1)
    assert np.array_equal(out.data, x)


def test_stride_validation():
    x = Tensor(np.zeros((4, 1)))
    with pytest.raises(ConfigError):
        pool_max(x, 0)
    with pytest.raises(ConfigError):
        pool_max(x, 5)


def pooled_mask_and_times(mask: np.ndarray, times: np.ndarray, stride: int):
    """``pool_events`` on a silent raster: its pooled mask and stamps."""
    _, pm, pt = pool_events(Tensor(np.zeros(mask.shape + (1,))), mask, times, stride)
    return pm, pt


def test_pool_times_takes_window_last_stamp():
    t = np.array([1.0, 2.0, 5.0, 9.0])
    assert np.array_equal(pooled_mask_and_times(np.ones((4, 1)), t, 2)[1], [2.0, 9.0])
    t = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(pooled_mask_and_times(np.ones((3, 1)), t, 2)[1], [2.0])


def test_pool_mask_unions_windows():
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(pooled_mask_and_times(m, np.arange(4.0), 2)[0],
                          [[1.0, 0.0], [0.0, 1.0]])


def test_pool_events_drops_the_remainder_silently():
    """With K mod s != 0, a lone window and a padded batch pool without a
    warning and keep the front-aligned steps: stamps ``times[s-1::s][:n]``
    and the union of each window's mask rows."""
    rng = np.random.default_rng(5)
    s, K, D = 3, 7, 2
    mask = (rng.uniform(size=(K, 2, D)) < 0.6).astype(np.float64)
    mask[:, :, 0] = 1.0  # every real row is observed somewhere
    mask[5:, 1] = 0.0  # window 1 has 5 real rows, then two pads
    times = np.sort(rng.uniform(0.0, 20.0, size=(K, 2)), axis=0)
    times[5:, 1] = times[4, 1]
    spikes = (rng.uniform(size=(K, 2, D, 2)) < 0.5).astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps, pm, pt = pool_events(Tensor(spikes[:, 0]), mask[:, 0], times[:, 0], s)
        batch = pool_events(Tensor(spikes), mask, times, s)
    windows = [(0, 2, (ps.data, pm, pt))]  # (window, kept steps, its pooled outputs)
    windows += [(b, n, (batch[0].data[:, b], batch[1][:, b], batch[2][:, b]))
                for b, n in ((0, 2), (1, 1))]
    for b, n, (ps, pm, pt) in windows:
        assert np.array_equal(pt[:n], times[s - 1::s, b][:n])
        assert np.array_equal(pm[:n], mask[:n * s, b].reshape(n, s, D).max(axis=1))
        assert np.array_equal(ps[:n], brute_force_pool(spikes[:, b], s)[:n])


def test_pool_events_consistency(rng):
    spikes = Tensor((rng.uniform(size=(10, 2, 3)) < 0.5).astype(np.float64))
    mask = (rng.uniform(size=(10, 2)) < 0.7).astype(np.float64)
    times = np.sort(rng.uniform(0, 50, size=10))
    ps, pm, pt = pool_events(spikes, mask, times, 2)
    assert ps.shape == (5, 2, 3) and pm.shape == (5, 2) and pt.shape == (5,)
    assert np.array_equal(pt, times[1::2])


def test_pool_gradient_routes_to_argmax():
    x = parameter(np.array([[1.0], [3.0], [2.0], [5.0]]))
    out = pool_max(x, 2)
    out.sum().backward()
    assert np.array_equal(x.grad.ravel(), [0.0, 1.0, 0.0, 1.0])


def test_pool_gradient_fd(rng):
    # distinct values keep the max selection stable under fd perturbation
    base = rng.permutation(12).astype(np.float64).reshape(12, 1)
    x = parameter(base)
    gradcheck(lambda: (pool_max(x, 3) ** 2).sum(), [x])

import warnings

import numpy as np
import pytest

from conftest import assert_same_op, gradcheck, random_series
from sedformer.encoder import (EventSeries, SedSeEncoder, align_events, event_gaps,
                               gated_current)
from sedformer.errors import ConfigError, DataError
from sedformer.tensor import Tensor, parameter


def test_align_events_union():
    series = align_events([
        (np.array([1.0, 2.0]), np.array([10.0, 20.0])),
        (np.array([2.0, 4.0]), np.array([5.0, 7.0])),
    ])
    assert np.array_equal(series.times, [1.0, 2.0, 4.0])
    assert np.array_equal(series.mask, [[1, 0], [1, 1], [0, 1]])
    assert np.array_equal(series.values[:, 0], [10.0, 20.0, 0.0])
    assert np.array_equal(series.values[:, 1], [0.0, 5.0, 7.0])


def test_align_events_rejects_unsorted():
    with pytest.raises(DataError):
        align_events([(np.array([2.0, 1.0]), np.array([0.0, 0.0]))])


def test_align_events_warns_on_empty_variate():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        series = align_events([
            (np.array([1.0]), np.array([3.0])),
            (np.array([]), np.array([])),
        ])
    assert any("no observations" in str(x.message) for x in w)
    assert series.mask[:, 1].sum() == 0


@pytest.mark.filterwarnings("ignore:variate .* has no observations")
def test_align_events_without_observations_raises_data_error():
    for n_variates in (1, 2):
        with pytest.raises(DataError, match="no observations in any variate"):
            align_events([(np.array([]), np.array([]))] * n_variates)


def test_event_series_validation():
    with pytest.raises(DataError):
        EventSeries(times=np.array([1.0, 1.0]), values=np.zeros((2, 1)),
                    mask=np.ones((2, 1)))
    with pytest.raises(DataError):  # a row with no observation
        EventSeries(times=np.array([1.0, 2.0]), values=np.zeros((2, 1)),
                    mask=np.array([[1.0], [0.0]]))
    with pytest.raises(DataError):  # non-finite observed value
        EventSeries(times=np.array([1.0]), values=np.array([[np.nan]]),
                    mask=np.ones((1, 1)))


def test_event_gaps_first_gap_policies():
    t = np.array([3.0, 5.0, 9.0])
    zero = event_gaps(t, first_gap="zero")
    assert np.array_equal(zero, [0.0, 2.0, 4.0])
    med = event_gaps(t, first_gap="median")
    assert np.array_equal(med, [3.0, 2.0, 4.0])
    with pytest.raises(ConfigError):
        event_gaps(t, first_gap="none")


def test_encoder_output_is_binary(rng):
    enc = SedSeEncoder(n_variates=3, seed=0)
    for _ in range(10):
        series = random_series(rng)
        spikes, gaps = enc.encode(series)
        assert spikes.data.shape == (series.times.size, 3, enc.channels)
        assert set(np.unique(spikes.data)).issubset({0.0, 1.0})


def test_encoder_time_shift_invariance(rng):
    """Absolute time never enters the encoder, only gaps."""
    enc = SedSeEncoder(n_variates=3, seed=1)
    for _ in range(100):
        series = random_series(rng)
        shifted = EventSeries(times=series.times + 1234.5,
                              values=series.values, mask=series.mask)
        a, _ = enc.encode(series)
        b, _ = enc.encode(shifted)
        assert np.array_equal(a.data, b.data)


def test_encoder_mask_soundness(rng):
    """Values at masked-out entries never influence the spikes."""
    enc = SedSeEncoder(n_variates=3, seed=2)
    for _ in range(100):
        series = random_series(rng)
        noise = rng.normal(size=series.values.shape) * (1.0 - series.mask)
        perturbed = EventSeries(times=series.times,
                                values=series.values + 1e6 * noise,
                                mask=series.mask)
        a, _ = enc.encode(series)
        b, _ = enc.encode(perturbed)
        assert np.array_equal(a.data, b.data)


def test_encoder_spike_support_in_event_set(rng):
    """Spikes can only sit on rows that exist in the event index set."""
    enc = SedSeEncoder(n_variates=2, seed=3)
    for _ in range(100):
        series = random_series(rng, n_variates=2)
        spikes, _ = enc.encode(series)
        assert spikes.data.shape[0] == series.times.size


def test_gate_hand_value():
    enc = SedSeEncoder(n_variates=1, seed=0)
    # a=1, b=0, rho=1: gap e-1 gives sigma(log(1 + e - 1)) = sigma(1)
    g = enc.gate(np.array([np.e - 1.0]))
    assert abs(float(g.data[0]) - 1.0 / (1.0 + np.exp(-1.0))) < 1e-12


def test_encoder_gradients_smooth(rng):
    enc = SedSeEncoder(n_variates=2, channels=3, seed=4)
    series = random_series(rng, n_events=10, n_variates=2)
    params = enc.parameters()
    leaves = list(params.values())

    def build():
        spikes, _ = enc.encode(series, smooth=True)
        return (spikes * spikes).sum()

    gradcheck(build, leaves)


def test_encoder_kernel_size_validation():
    with pytest.raises(ConfigError):
        SedSeEncoder(n_variates=1, kernel_size=4)


def test_gated_current_matches_composed_ops_bitwise(rng):
    """The encoder's current op gives the output, gradients and billed work
    of ((conv + shift) * s - theta) * gamma, bit for bit, on a padded batch."""
    conv = parameter(rng.normal(size=(6, 3, 2, 4)))  # [K, B, D, C]
    conv.data[4:, 1] = 0.0  # window 1's pads: no observation, so no convolution
    shift, theta = parameter(rng.normal(size=4)), parameter(rng.normal(size=4))
    s = parameter(rng.uniform(size=(6, 3, 1, 1)))
    gamma = parameter(1.3)
    assert_same_op(lambda: gated_current(conv, shift, s, theta, gamma),
                   lambda: ((conv + shift) * s - theta) * gamma, [conv, shift, s, theta, gamma])

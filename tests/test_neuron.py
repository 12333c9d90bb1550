import numpy as np
import pytest

from conftest import gradcheck
from oracles import EaLifConfig, LifConfig, ealif_leak, ealif_step, lif_step
from sedformer.errors import ConfigError, DataError
from sedformer.neuron import (ealif_filter, ealif_spike_scan, eta_for_tau, heaviside,
                              surrogate_grad, tau_from_eta)
from sedformer.tensor import Tensor, parameter


def test_heaviside_fires_at_zero():
    out = heaviside(np.array([-1.0, 0.0, 1e-12]))
    assert np.array_equal(out, [0.0, 1.0, 1.0])


def test_surrogate_grad_peak():
    # alpha * sigma(alpha u)(1 - sigma(alpha u)) at u=0 is alpha/4
    assert abs(float(surrogate_grad(np.array(0.0), 4.0)) - 1.0) < 1e-12


def test_lif_step_hand_value():
    cfg = LifConfig(alpha=0.5, v_th=1.0)
    m, s, v = lif_step(Tensor(np.array(1.0)), Tensor(np.array(1.0)), cfg)
    assert float(m.data) == 1.0 and float(s.data) == 1.0 and float(v.data) == 0.0


def test_lif_config_validation():
    with pytest.raises(ConfigError):
        LifConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        LifConfig(alpha=0.5, v_th=0.0)


def test_tau_reparameterization():
    eta = eta_for_tau(2.0)
    assert abs(eta - np.log(np.e - 1.0)) < 1e-12
    assert abs(float(tau_from_eta(Tensor(np.array(eta))).data) - 2.0) < 1e-12
    with pytest.raises(ConfigError):
        eta_for_tau(1.0)


def test_leak_values():
    eta = Tensor(np.array(eta_for_tau(2.0)))
    beta = ealif_leak(np.array([2.0 * np.log(2.0)]), eta)
    assert abs(float(beta.data[0]) - 0.5) < 1e-12
    big = ealif_leak(np.array([200.0]), eta)
    assert float(big.data[0]) < 1e-43
    with pytest.raises(DataError):
        ealif_leak(np.array([-1.0]), eta)


def test_ealif_step_hand_value():
    cfg = EaLifConfig(eta=Tensor(np.array(eta_for_tau(2.0))), v_th=1.0)
    dt = np.array(2.0 * np.log(2.0))  # beta = 0.5
    m, s, v = ealif_step(Tensor(np.array(0.0)), Tensor(np.array(2.0)), dt, cfg)
    assert abs(float(m.data) - 1.0) < 1e-12
    assert float(s.data) == 1.0
    assert abs(float(v.data)) < 1e-12


def test_ealif_reduces_to_lif_on_uniform_gaps():
    """Dual-route check: composed per-step updates vs the fused scan."""
    rng = np.random.default_rng(42)
    steps = 1000
    tau = 2.0
    dt = 1.25
    alpha = np.exp(-dt / tau)
    x = rng.normal(size=steps)

    lif_cfg = LifConfig(alpha=alpha, v_th=1.0)
    v = Tensor(np.array(0.0))
    lif_m, lif_s = [], []
    for k in range(steps):
        m, s, v = lif_step(v, Tensor(np.array(x[k])), lif_cfg)
        lif_m.append(float(m.data))
        lif_s.append(float(s.data))

    ea_cfg = EaLifConfig(eta=Tensor(np.array(eta_for_tau(tau))), v_th=1.0)
    v = Tensor(np.array(0.0))
    ea_m, ea_s = [], []
    for k in range(steps):
        m, s, v = ealif_step(v, Tensor(np.array(x[k])), np.array(dt), ea_cfg)
        ea_m.append(float(m.data))
        ea_s.append(float(s.data))

    assert max(abs(a - b) for a, b in zip(lif_m, ea_m)) <= 1e-12
    assert lif_s == ea_s

    scan_s = ealif_spike_scan(Tensor(x.reshape(-1, 1)), np.full(steps, dt),
                              Tensor(np.array(eta_for_tau(tau))), 1.0, 4.0,
                              smooth=False)
    assert np.array_equal(scan_s.data.ravel(), np.array(ea_s))


def test_ealif_filter_constant_input():
    # x=0 everywhere keeps m at 0; softplus squash gives log 2
    x = Tensor(np.zeros((5, 2)))
    out = ealif_filter(x, np.ones(5), Tensor(np.array(eta_for_tau(2.0))))
    assert np.allclose(out.data, np.log(2.0))
    raw = ealif_filter(x, np.ones(5), Tensor(np.array(eta_for_tau(2.0))),
                       squash=None)
    assert np.allclose(raw.data, 0.0)


def test_ealif_filter_matches_manual_recurrence(rng):
    k, d = 12, 3
    x = rng.normal(size=(k, d))
    dt = rng.uniform(0.1, 3.0, size=k)
    eta = eta_for_tau(1.7)
    out = ealif_filter(Tensor(x), dt, Tensor(np.array(eta)), squash=None)
    tau = np.log1p(np.exp(eta)) + 1.0
    m = np.zeros(d)
    for u in range(k):
        beta = np.exp(-dt[u] / tau)
        m = beta * m + (1.0 - beta) * x[u]
        assert np.allclose(out.data[u], m, atol=1e-12)


def test_ealif_filter_gradients(rng):
    for squash in ("softplus", None):
        x = parameter(rng.normal(size=(6, 2)))
        eta = parameter(np.array(0.3))
        dt = rng.uniform(0.2, 2.0, size=6)

        def build():
            out = ealif_filter(x, dt, eta, squash=squash)
            return (out * out).sum()

        gradcheck(build, [x, eta])


def test_ealif_spike_scan_smooth_gradients(rng):
    x = parameter(rng.normal(size=(8, 2)))
    eta = parameter(np.array(0.4))
    dt = rng.uniform(0.2, 2.0, size=8)

    def build():
        s = ealif_spike_scan(x, dt, eta, 1.0, 4.0, smooth=True)
        return (s * s).sum()

    gradcheck(build, [x, eta])


def test_spike_scan_outputs_binary_in_hard_mode(rng):
    x = Tensor(rng.normal(size=(30, 4)) * 2.0)
    dt = rng.uniform(0.1, 2.0, size=30)
    s = ealif_spike_scan(x, dt, Tensor(np.array(0.5)), 1.0, 4.0, smooth=False)
    assert set(np.unique(s.data)).issubset({0.0, 1.0})

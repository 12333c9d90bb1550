import numpy as np
import pytest

from conftest import gradcheck
from oracles import EaLifConfig, LifConfig, ealif_leak, ealif_step, lif_step, tau_from_eta
from sedformer.errors import ConfigError, DataError, ShapeError
from sedformer.neuron import (_eta_grad, ealif_filter, ealif_spike_scan, eta_for_tau,
                              heaviside, surrogate_grad)
from sedformer.tensor import Tensor, parameter


def test_heaviside_fires_at_zero():
    out = heaviside(np.array([-1.0, 0.0, 1e-12]))
    assert np.array_equal(out, [0.0, 1.0, 1.0])


def test_surrogate_grad_peak():
    # alpha * sigma(alpha u)(1 - sigma(alpha u)) at u=0 is alpha/4
    assert abs(float(surrogate_grad(np.array(0.0), 4.0)) - 1.0) < 1e-12


def test_eta_grad_adds_the_steps_in_sequence():
    """Bitwise equal to adding each step's term from the last step back."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        K, W, C = (int(n) for n in rng.integers(1, [400, 4, 4]))
        dbeta = rng.normal(size=(K, W, 1)) * 10.0 ** rng.uniform(-20, 4, size=(K, W, 1))
        adj, prev, inp = rng.normal(size=(3, K, W, C))
        per_step = (dbeta[..., 0] * ((prev - inp) * adj).sum(axis=2)).sum(axis=1)
        expected = 0.0
        for term in per_step[::-1].tolist():
            expected += term
        assert _eta_grad(dbeta, (prev - inp) * adj) == expected


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


@pytest.mark.parametrize("batched", [False, True], ids=["K_gaps", "KB_gaps"])
def test_stacked_filter_equals_single_filters(batched):
    """Three etas over three blocks of the last axis give, bitwise, each
    block's output and the x and eta gradients of a filter run alone."""
    rng = np.random.default_rng(8)
    K, n = 9, 4
    lead = (K, 3, 2) if batched else (K, 2)  # [K, B, D] or [K, D]
    dt = rng.uniform(0.0, 3.0, size=lead[:2] if batched else K)
    dt[0] = 0.0
    x = rng.normal(size=lead + (3 * n,))
    g = rng.normal(size=x.shape)
    for squash in ("softplus", None):
        etas = tuple(parameter(np.array(eta_for_tau(t))) for t in (1.5, 2.0, 40.0))
        xs = parameter(x)
        stacked = ealif_filter(xs, dt, etas, squash=squash)
        (stacked * Tensor(g)).sum().backward()
        for e, eta in enumerate(etas):
            block = slice(e * n, (e + 1) * n)
            eta_e, x_e = parameter(eta.data.copy()), parameter(x[..., block].copy())
            single = ealif_filter(x_e, dt, eta_e, squash=squash)
            (single * Tensor(g[..., block].copy())).sum().backward()
            assert np.array_equal(stacked.data[..., block], single.data)
            assert np.array_equal(xs.grad[..., block], x_e.grad)
            assert np.array_equal(eta.grad, eta_e.grad)


def test_stacked_filter_gradients(rng):
    for shape, dt in (((6, 2, 6), rng.uniform(0.2, 2.0, size=6)),
                      ((5, 2, 2, 6), rng.uniform(0.2, 2.0, size=(5, 2)))):
        x = parameter(rng.normal(size=shape))
        etas = tuple(parameter(np.array(v)) for v in (0.3, -0.4, 1.1))
        for squash in ("softplus", None):
            def build():
                out = ealif_filter(x, dt, etas, squash=squash)
                return (out * out).sum()

            gradcheck(build, [x, *etas])
    with pytest.raises(ShapeError):
        ealif_filter(Tensor(np.zeros((4, 2, 5))), np.ones(4), etas)  # 5 is no 3 blocks


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

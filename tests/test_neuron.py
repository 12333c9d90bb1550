import warnings

import numpy as np
import pytest

from conftest import gradcheck
from oracles import EaLifConfig, LifConfig, ealif_leak, ealif_step, lif_step, tau_from_eta
from sedformer.errors import ConfigError, DataError, ShapeError
from sedformer import neuron
from sedformer.neuron import (TAU_MAX, _eta_grad, ealif_filter, ealif_spike_scan, eta_for_tau,
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
    # x=0 everywhere keeps m at 0
    x = Tensor(np.zeros((5, 2)))
    out = ealif_filter(x, np.ones(5), Tensor(np.array(eta_for_tau(2.0))))
    assert np.allclose(out.data, 0.0)


def test_ealif_filter_matches_manual_recurrence(rng):
    k, d = 12, 3
    x = rng.normal(size=(k, d))
    dt = rng.uniform(0.1, 3.0, size=k)
    eta = eta_for_tau(1.7)
    out = ealif_filter(Tensor(x), dt, Tensor(np.array(eta)))
    tau = np.log1p(np.exp(eta)) + 1.0
    m = np.zeros(d)
    for u in range(k):
        beta = np.exp(-dt[u] / tau)
        m = beta * m + (1.0 - beta) * x[u]
        assert np.allclose(out.data[u], m, atol=1e-12)


def test_ealif_filter_gradients(rng):
    x = parameter(rng.normal(size=(6, 2)))
    eta = parameter(np.array(0.3))
    dt = rng.uniform(0.2, 2.0, size=6)

    def build():
        out = ealif_filter(x, dt, eta)
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
    etas = tuple(parameter(np.array(eta_for_tau(t))) for t in (1.5, 2.0, 40.0))
    xs = parameter(x)
    stacked = ealif_filter(xs, dt, etas)
    (stacked * Tensor(g)).sum().backward()
    for e, eta in enumerate(etas):
        block = slice(e * n, (e + 1) * n)
        eta_e, x_e = parameter(eta.data.copy()), parameter(x[..., block].copy())
        single = ealif_filter(x_e, dt, eta_e)
        (single * Tensor(g[..., block].copy())).sum().backward()
        assert np.array_equal(stacked.data[..., block], single.data)
        assert np.array_equal(xs.grad[..., block], x_e.grad)
        assert np.array_equal(eta.grad, eta_e.grad)


def test_stacked_filter_gradients(rng):
    for shape, dt in (((6, 2, 6), rng.uniform(0.2, 2.0, size=6)),
                      ((5, 2, 2, 6), rng.uniform(0.2, 2.0, size=(5, 2)))):
        x = parameter(rng.normal(size=shape))
        etas = tuple(parameter(np.array(v)) for v in (0.3, -0.4, 1.1))

        def build():
            out = ealif_filter(x, dt, etas)
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


@pytest.mark.parametrize("kind", ["filter", "hard", "smooth"])
@pytest.mark.parametrize("batched", [False, True], ids=["K_gaps", "KB_gaps"])
@pytest.mark.parametrize("K", [1, 6])
def test_scans_match_per_step_oracle_on_short_windows_and_huge_gaps(K, batched, kind):
    """One-event windows and gaps up to 1e6, where beta underflows to 0: each
    scan's output matches the per-step oracle, and its gradients are finite
    (no numpy warning) and match the oracle's."""
    rng = np.random.default_rng(K)
    B, C = 3, 4
    gaps = rng.choice([0.0, 0.4, 2.0, 1e3, 1e6], size=(K, B))
    gaps[0] = [1e6, 0.7, 0.0]
    x = rng.normal(size=(K, B, C)) * 2.0
    g = rng.normal(size=x.shape)
    dt = gaps if batched else gaps[:, 0]
    xs, eta = parameter(x), parameter(np.array(eta_for_tau(2.0)))
    xo, eta_o = parameter(x), parameter(np.array(eta_for_tau(2.0)))
    cfg = EaLifConfig(eta=eta_o, v_th=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "filter":
            out = ealif_filter(xs, dt, eta)
        else:
            out = ealif_spike_scan(xs, dt, eta, 1.0, 4.0, smooth=kind == "smooth")
        (out * Tensor(g)).sum().backward()
        loss = Tensor(np.array(0.0))
        for b in range(B):
            v = Tensor(np.zeros(C))
            for k in range(K):
                gap = gaps[k, b] if batched else gaps[k, 0]
                if kind == "filter":
                    beta = ealif_leak(gap, eta_o)
                    v = step = v * beta + xo[k, b] * (1.0 - beta)
                else:
                    _, step, v = ealif_step(v, xo[k, b], gap, cfg, smooth=kind == "smooth")
                if kind == "hard":
                    assert np.array_equal(out.data[k, b], step.data)
                else:
                    assert np.allclose(out.data[k, b], step.data, rtol=1e-12, atol=1e-12)
                loss = loss + (step * Tensor(g[k, b])).sum()
        loss.backward()
    assert np.all(np.isfinite(xs.grad)) and np.isfinite(float(eta.grad))
    assert np.allclose(xs.grad, xo.grad, rtol=1e-10, atol=1e-12)
    assert float(eta.grad) == pytest.approx(float(eta_o.grad), rel=1e-9, abs=1e-12)


# -- the event-driven spike path -------------------------------------------------------


def _scan_both_ways(monkeypatch, x, dt, eta):
    """The hard raster of ``ealif_spike_scan`` as selected, how many step
    loops that ran, and the raster of the step loop alone."""
    loops = []
    loop = neuron.ealif_recurrence
    with monkeypatch.context() as mp:
        mp.setattr(neuron, "ealif_recurrence", lambda *a, **k: loops.append(1) or loop(*a, **k))
        s = ealif_spike_scan(Tensor(x), dt, Tensor(np.array(eta))).data
    with monkeypatch.context() as mp:
        mp.setattr(neuron, "EVENT_PATH_MIN_K", 10 ** 9)
        ref = ealif_spike_scan(Tensor(x), dt, Tensor(np.array(eta))).data
    return s, len(loops), ref


# K, tau, gaps, drive: "quiet" never reaches v_th, "bursts" adds runs of
# events that drive m past 2 v_th, which fire on consecutive steps
EVENT_CASES = [
    (128, 2.0, "mixed", "normal"), (127, 2.0, "mixed", "normal"),
    (300, 1.0 + 1e-9, "short", "normal"), (300, TAU_MAX, "mixed", "normal"),
    (2000, 2.0, "mixed", "normal"), (2000, 1.0 + 1e-9, "short", "bursts"),
    (2000, TAU_MAX, "short", "normal"), (700, 2.0, "huge", "bursts"),
    (2000, 1.0 + 1e-9, "mixed", "bursts"), (500, 5.0, "mixed", "quiet"),
    (1000, 40.0, "mixed", "normal"),
]


@pytest.mark.parametrize("lone_batch", [False, True], ids=["K_gaps", "K1_gaps"])
@pytest.mark.parametrize("case", range(len(EVENT_CASES)))
def test_event_path_rasters_equal_the_step_loop(case, lone_batch, monkeypatch):
    """On lone windows of 128 events or more the hard raster comes from the
    event path, bitwise the step loop's, with gaps of 0 and 1e6, tau at both
    ends of its range, no firing and saturated bursts; at 127 the loop runs."""
    K, tau, gaps, drive = EVENT_CASES[case]
    rng = np.random.default_rng(case)
    dt = rng.uniform(0.0, 2.0 if gaps == "mixed" else 0.05, size=K)
    dt[rng.uniform(size=K) < 0.2] = 0.0
    dt[rng.choice(K, size=3 if gaps == "huge" else 1)] = 1e6
    x = rng.normal(size=(K, 3, 4)) * (1.0 if drive == "normal" else 0.3)
    if drive == "bursts":  # some straddle segment ends
        for start in rng.choice(K - 8, size=max(4, K // 200), replace=False):
            x[start:start + 8, rng.integers(3), rng.integers(4)] = rng.uniform(4.0, 8.0) * tau
            dt[start + 1:start + 8] = 1.0
    if lone_batch:
        x, dt = x[:, None], dt[:, None]
    s, loops, ref = _scan_both_ways(monkeypatch, x, dt, eta_for_tau(tau))
    assert np.array_equal(s, ref)
    assert loops == (K < neuron.EVENT_PATH_MIN_K)
    if drive == "quiet":
        assert not ref.any()
    if drive == "bursts":  # consecutive spikes of one channel
        assert np.any(ref[1:] * ref[:-1])


def _tie_at(x, dt, eta, j):
    """x with row j chosen so that the loop's membrane m_j lies as near
    v_th = 1 as the drive can put it (on it, in most channels)."""
    beta = np.exp(-dt / (float(np.log1p(np.exp(eta))) + 1.0))
    _, v = neuron.ealif_recurrence(beta[:j, None], (1.0 - beta[:j, None]) * x[:j], 1.0,
                                   keep_v=True)
    x = x.copy()
    b = float(beta[j])
    for c, prev in enumerate(v[-1].tolist()):
        xc = (1.0 - b * prev) / (1.0 - b)
        near = [xc + k * np.spacing(xc) for k in range(-8, 9)]
        x[j, c] = min(near, key=lambda xk: abs(b * prev + (1.0 - b) * xk - 1.0))
    return x


def _guard_cases():
    """Lone windows the event path must hand to the loop: membranes on (or
    one rounding step from) v_th, drives near 1e300, a non-finite gap or
    drive, and a channel that fires on every step (too many rounds)."""
    rng = np.random.default_rng(11)
    eta = eta_for_tau(2.0)
    K = 200
    dt = rng.uniform(0.1, 2.0, size=K)
    x = rng.normal(size=(K, 4))
    nan_gap = dt.copy()
    nan_gap[150] = np.nan
    nan_x = x.copy()
    nan_x[40, 1] = np.nan
    busy = x.copy()
    busy[:, 3] = 50.0
    return {"tie": (_tie_at(x, dt, eta, 90), dt, eta), "huge": (x * 1e300, dt, eta),
            "nan_gap": (x, nan_gap, eta), "nan_x": (nan_x, dt, eta), "busy": (busy, dt, eta)}


@pytest.mark.parametrize("name", ["tie", "huge", "nan_gap", "nan_x", "busy"])
def test_event_path_falls_back_to_the_loop(name, monkeypatch):
    x, dt, eta = _guard_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, loops, ref = _scan_both_ways(monkeypatch, x, dt, eta)
    assert loops == 1
    assert np.array_equal(s, ref)
    if name == "tie":
        assert ref[90].sum() >= 3  # the membranes exactly on v_th fire: H(0) = 1


@pytest.mark.parametrize("name", ["tie", "huge", "nan_gap", "nan_x", "busy"])
def test_event_path_raises_only_what_the_loop_raises(name, monkeypatch):
    """Under np.errstate(all="raise"), as in training's calibrate and
    validation passes, the selected path ends as the loop alone does."""
    x, dt, eta = _guard_cases()[name]

    def outcome(min_k):
        with monkeypatch.context() as mp, np.errstate(all="raise"):
            mp.setattr(neuron, "EVENT_PATH_MIN_K", min_k)
            try:
                return ealif_spike_scan(Tensor(x), dt, Tensor(np.array(eta))).data
            except FloatingPointError as exc:
                return str(exc)

    got, want = outcome(neuron.EVENT_PATH_MIN_K), outcome(10 ** 9)
    assert type(got) is type(want)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want

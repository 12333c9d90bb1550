"""Acceptance checks: one test per pinned release criterion.

Each test name carries its criterion number, so ``pytest -v`` prints one
pass/fail line per criterion; a terminal-summary hook in conftest repeats
them as a compact PASS/FAIL table. Tolerances are pinned in the asserts.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import gradcheck, random_series
from test_backbone import calibrate_attention, quadratic_attention
from test_downsample import brute_force_pool

from sedformer import (
    EaLifConfig,
    EnergyModel,
    EventSeries,
    LifConfig,
    ModelConfig,
    SedFormer,
    SedSeEncoder,
    Standardizer,
    SuiteConfig,
    Tensor,
    TrainConfig,
    VizConfig,
    baseline_encoders,
    ealif_spike_scan,
    ealif_step,
    lif_step,
    make_windows,
    mcar_sparsify,
    pool_max,
    synth_suite,
    synth_viz_series,
    train,
    variate_balanced_mse,
    write_dataset,
)
from sedformer.backbone import SedAttention
from sedformer.data import lagrange_fill, synth_suite_panel
from sedformer.energy import OpCounts, count_snn_layer, layer_energy, model_energy_report
from sedformer.neuron import ealif_filter, eta_for_tau
from sedformer.sweep import GRIDS, read_sweep_csv, run_cell, run_sweep
from sedformer.tensor import (BatchNorm, concat, depthwise_conv1d, mac_counter, no_grad,
                              parameter)
from sedformer.training import baseline_metrics, flat_errors, flat_metrics


# -- criterion 1: gradients ----------------------------------------------------------

_OPS = [
    lambda x, y: (x + y).sum(),
    lambda x, y: (x - y).sum(),
    lambda x, y: (x * y).sum(),
    lambda x, y: (x / (y * y + 1.0)).sum(),
    lambda x, y: (x @ y.T).sum(),
    lambda x, y: (x ** 3).mean() + y.sum(),
    lambda x, y: x.exp().sum() + y.sigmoid().sum(),
    lambda x, y: (x * x + 0.5).log().sum() + y.softplus().sum(),
    lambda x, y: (x * x).sqrt().sum() + y.sin().sum(),
    lambda x, y: x.relu().sum() + (y * y).log1p().sum(),
    lambda x, y: x.reshape(-1).sum() + y.transpose().sum(),
    lambda x, y: x[1:, :].sum() + y[:, 0].sum(),
    lambda x, y: concat([x, y], axis=0).mean(),
    lambda x, y: x.sum(axis=0).mean() + y.mean(),
]


def _op_suite(rng):
    for op in _OPS:
        x = parameter(rng.normal(size=(4, 3)) + 0.1)
        y = parameter(rng.normal(size=(4, 3)) + 0.1)
        gradcheck(lambda: op(x, y), [x, y], rel_tol=1e-4, step=1e-5)

    x = parameter(rng.normal(size=(7, 2)))
    kern = parameter(rng.normal(size=(2, 3, 3)))
    gradcheck(lambda: (depthwise_conv1d(x, kern) ** 2).sum(), [x, kern],
              rel_tol=1e-4, step=1e-5)

    bn = BatchNorm(3)
    z = parameter(rng.normal(size=(6, 3)))
    bn.start_accumulation()  # non-identity statistics: the moments of z itself
    bn(z)
    bn.stop_accumulation()
    gradcheck(lambda: (bn(z) ** 2).sum(), [z, bn.gamma, bn.beta], rel_tol=1e-4, step=1e-5)

    p = parameter(rng.normal(size=(6, 2)) * 3.0)  # distinct values: stable argmax
    gradcheck(lambda: (pool_max(p, 2) ** 2).sum(), [p], rel_tol=1e-4, step=1e-5)

    drive = parameter(rng.normal(size=(6, 2)))
    eta = parameter(np.array(eta_for_tau(2.0)))
    gaps = rng.uniform(0.3, 2.0, size=6)
    gradcheck(lambda: (ealif_filter(drive, gaps, eta) ** 2).sum(), [drive, eta],
              rel_tol=1e-4, step=1e-5)
    gradcheck(lambda: (ealif_spike_scan(drive, gaps, eta, 1.0, 4.0,
                                        smooth=True) ** 2).sum(),
              [drive, eta], rel_tol=1e-4, step=1e-5)


def _pipeline_gradcheck(seed: int) -> None:
    """Sampled-coordinate FD over every parameter of the full model loss."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(n_variates=2, conv_channels=3, kernel_size=3, dim=8,
                      heads=2, blocks=1, pool_stride=2, seed=seed)
    model = SedFormer(cfg)
    series = random_series(rng, n_events=int(rng.integers(5, 9)), n_variates=2)
    # frozen pooled stats, as used for the actual gradient steps; pooled over
    # the same smooth forward the differences probe (hard spikes on one short
    # series can leave a near-zero variance and a loss too large for them)
    norms = model.batch_norms()
    for bn in norms:
        bn.start_accumulation()
    with no_grad():
        model.summarize(series, smooth=True)
    for bn in norms:
        bn.stop_accumulation()
    queries = [np.sort(rng.uniform(0.0, 90.0, size=2)) for _ in range(2)]
    targets = [rng.normal(size=2) for _ in range(2)]

    def loss():
        return variate_balanced_mse(model.forward(series, queries, smooth=True),
                                    targets)

    params = list(model.parameters().values())
    for p in params:
        p.grad = None
    out = loss()
    out.backward()
    step = 1e-5
    for p in params:
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        for c in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            keep = flat[c]
            flat[c] = keep + step
            up = float(loss().data)
            flat[c] = keep - step
            down = float(loss().data)
            flat[c] = keep
            numeric = (up - down) / (2.0 * step)
            ana = float(analytic.reshape(-1)[c])
            assert abs(ana - numeric) <= 1e-7 + 1e-4 * max(abs(ana), abs(numeric)), (
                f"seed {seed}, coord {c}: analytic={ana!r} numeric={numeric!r}")


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    _op_suite(np.random.default_rng(100))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(20):
            _pipeline_gradcheck(seed)
    assert time.monotonic() - t0 < 60.0


# -- criterion 2: gap-aware neuron reduces to the fixed-step one ----------------------


def test_criterion_02_uniform_gap_reduction():
    rng = np.random.default_rng(42)
    steps, tau, dt = 1000, 2.0, 1.25
    x = rng.normal(size=steps)

    v = Tensor(np.array(0.0))
    lif_m, lif_s = [], []
    cfg = LifConfig(alpha=np.exp(-dt / tau), v_th=1.0)
    for k in range(steps):
        m, s, v = lif_step(v, Tensor(np.array(x[k])), cfg)
        lif_m.append(float(m.data))
        lif_s.append(float(s.data))

    v = Tensor(np.array(0.0))
    ea_cfg = EaLifConfig(eta=Tensor(np.array(eta_for_tau(tau))), v_th=1.0)
    ea_m, ea_s = [], []
    for k in range(steps):
        m, s, v = ealif_step(v, Tensor(np.array(x[k])), np.array(dt), ea_cfg)
        ea_m.append(float(m.data))
        ea_s.append(float(s.data))

    assert max(abs(a - b) for a, b in zip(lif_m, ea_m)) <= 1e-12
    assert lif_s == ea_s


# -- criterion 3: linear attention vs explicit quadratic oracle -----------------------


def test_criterion_03_attention_oracle_and_linear_macs():
    rng = np.random.default_rng(77)
    for trial in range(100):
        Kp = int(rng.integers(2, 9))
        D = int(rng.integers(1, 5))
        heads = int(rng.integers(1, 3))
        d_head = int(rng.integers(1, 5))
        attn = SedAttention(heads * d_head, heads, seed=trial)
        x = rng.normal(size=(Kp, D, heads * d_head))
        gaps = np.concatenate([[0.0], rng.uniform(0.1, 3.0, size=Kp - 1)])
        if trial % 2:  # non-identity normalization statistics
            calibrate_attention(attn, np.random.default_rng(trial).normal(
                1.0, 2.0, size=x.shape), gaps)
        got = attn(Tensor(x), gaps).data
        assert np.max(np.abs(got - quadratic_attention(attn, x, gaps))) < 1e-10

    attn = SedAttention(16, 2, seed=0)
    counts = {}
    for Kp in (8, 64):
        x = Tensor(rng.normal(size=(Kp, 3, 16)))
        gaps = np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=Kp - 1)])
        with mac_counter() as macs:
            attn(x, gaps)
        counts[Kp] = macs.total
    assert abs(counts[64] / counts[8] - 8.0) / 8.0 < 0.05


# -- criterion 4: event pooling --------------------------------------------------------


def test_criterion_04_pooling_brute_force():
    rng = np.random.default_rng(123)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(1000):
            k = int(rng.integers(2, 40))
            shape = (k, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            stride = int(rng.integers(1, k + 1))
            x = (rng.uniform(size=shape) < 0.4).astype(np.float64)
            got = pool_max(Tensor(x), stride)
            assert got.shape[0] == k // stride
            assert np.array_equal(got.data, brute_force_pool(x, stride))
        y = (rng.uniform(size=(17, 2)) < 0.5).astype(np.float64)
        assert np.array_equal(pool_max(Tensor(y), 1).data, y)


# -- criterion 5: encoder invariants ---------------------------------------------------


def test_criterion_05_encoder_invariants():
    rng = np.random.default_rng(5)
    enc = SedSeEncoder(n_variates=3, seed=1)
    for _ in range(100):
        series = random_series(rng)
        spikes, _ = enc.encode(series)
        assert set(np.unique(spikes.data)).issubset({0.0, 1.0})
        assert spikes.data.shape[0] == series.times.size  # support = event rows

        shifted = EventSeries(times=series.times + 1234.5,
                              values=series.values, mask=series.mask)
        assert np.array_equal(spikes.data, enc.encode(shifted)[0].data)

        noise = rng.normal(size=series.values.shape) * (1.0 - series.mask)
        poked = EventSeries(times=series.times,
                            values=series.values + 1e6 * noise, mask=series.mask)
        assert np.array_equal(spikes.data, enc.encode(poked)[0].data)


# -- criterion 6: training beats both flat baselines -----------------------------------


def _raw_unit_mse(model, scaler, items):
    errs = []
    for item in items:
        preds = model.predict(scaler.transform_item(item).series, item.query_times)
        errs.append(flat_errors(scaler.inverse(preds), item.targets))
    return flat_metrics(np.concatenate(errs))["mse"]


def test_criterion_06_training_sanity():
    t0 = time.monotonic()
    splits = synth_suite(SuiteConfig(n_days=600))
    scaler = Standardizer.fit(splits["train"])
    scaled = {k: [scaler.transform_item(it) for it in v] for k, v in splits.items()}
    model = SedFormer(ModelConfig(n_variates=4, dim=32, heads=4, blocks=2,
                                  pool_stride=4, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # per-window pooling remainder notes
        train(model, scaled["train"], scaled["val"],
              TrainConfig(epochs=100, lr=1e-3, seed=0))
        mse = _raw_unit_mse(model, scaler, splits["test"])
    mean_mse = baseline_metrics(splits["test"], "mean")["mse"]
    pers_mse = baseline_metrics(splits["test"], "persistence")["mse"]
    elapsed = time.monotonic() - t0
    assert mse <= 0.8 * mean_mse, f"mse {mse:.4f} vs mean bar {0.8 * mean_mse:.4f}"
    assert mse <= 0.9 * pers_mse, f"mse {mse:.4f} vs persistence bar {0.9 * pers_mse:.4f}"
    assert elapsed < 600.0


# -- criterion 7: sweep harness end-to-end plus stride direction -----------------------


def test_criterion_07_sweep_grid_and_stride_degradation(tmp_path):
    splits = synth_suite(SuiteConfig(n_days=420, bursts=True))
    scaler = Standardizer.fit(splits["train"])
    scaled = {k: [scaler.transform_item(it) for it in v] for k, v in splits.items()}
    base = ModelConfig(n_variates=4, dim=32, heads=4, blocks=2, pool_stride=4, seed=0)

    out_csv = str(tmp_path / "sweep.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # per-window pooling remainder notes
        rows = run_sweep(scaled, base, TrainConfig(epochs=1, lr=1e-3, seed=0),
                         out_csv=out_csv)
    assert len(rows) == sum(len(v) for v in GRIDS.values())
    back = read_sweep_csv(out_csv)
    assert [(r["axis"], r["value"]) for r in back] == \
        [(axis, float(v)) for axis in GRIDS for v in GRIDS[axis]]
    assert all(np.isfinite(r["mse"]) for r in back)

    # bursts shorter than 16 events: the coarsest stride must do worse
    tcfg = TrainConfig(epochs=30, lr=1e-3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fine = run_cell(scaled, base, tcfg, "stride", 2)
        coarse = run_cell(scaled, base, tcfg, "stride", 16)
    assert coarse["mse"] > fine["mse"], (
        f"stride 16 mse {coarse['mse']:.4f} !> stride 2 mse {fine['mse']:.4f}")


# -- criterion 8: energy arithmetic and sparsity scaling -------------------------------


def test_criterion_08_energy_accounting():
    e = layer_energy("ann", OpCounts(n_mac=100), EnergyModel())
    assert e == 100 * 4.6 and abs(e - 460.0) < 1e-12
    assert count_snn_layer(0.5, 10, 4).sop == 20

    values, _ = synth_suite_panel(SuiteConfig(n_series=1, n_days=240, seed=3), 0)
    model = SedFormer(ModelConfig(n_variates=4, dim=32, heads=4, blocks=2,
                                  pool_stride=4, seed=0))
    totals = []
    for rate in (0.25, 0.5, 0.75):
        mask = np.stack([mcar_sparsify(values.shape[1], rate, seed=7, series_index=d)
                         for d in range(values.shape[0])])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            window = make_windows(values, mask)[:1]  # same fixed window each rate
            totals.append(model_energy_report(model, window)["total_pj"])
    assert totals[0] > totals[1] > totals[2]


# -- criterion 9: data pipeline --------------------------------------------------------


def test_criterion_09_data_pipeline(tmp_path):
    rng = np.random.default_rng(17)
    for _ in range(50):
        coef = rng.normal(size=3)
        t = np.arange(40, dtype=np.float64)
        truth = coef[0] + coef[1] * t + coef[2] * t * t
        series = truth.copy()
        for h in rng.choice(np.arange(2, 38), size=8, replace=False):
            if np.isfinite(series[h - 1]) and np.isfinite(series[h + 1]):
                series[h] = np.nan
        filled = lagrange_fill(series, gap_cap=3)
        assert np.max(np.abs(filled - truth)) < 1e-10 * max(1.0, np.abs(truth).max())

    for rate in (0.25, 0.5, 0.75):
        keep = mcar_sparsify(10**4, rate, seed=11)
        assert abs(keep.mean() - (1.0 - rate)) <= 0.02

    meta = {"source": "synthetic", "seed": 0}
    for d in ("a", "b"):
        write_dataset(str(tmp_path / d), synth_suite(SuiteConfig()), meta)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# -- criterion 10: raster reproduction -------------------------------------------------


def test_criterion_10_raster_properties():
    cfg = VizConfig()
    data = synth_viz_series(cfg)
    encoders = baseline_encoders(data, cfg)

    t, s = encoders["event"]
    assert np.array_equal(t, data["t_irr"])  # fires only at irregular stamps
    assert set(np.unique(s)).issubset({0.0, 1.0})

    gaps = np.diff(t, prepend=t[0])
    long_gap = np.flatnonzero(gaps > 5.0 * cfg.tau)
    assert long_gap.size > 0
    assert np.all(s[long_gap] == 0.0)  # silence after long gaps

    dense = s[t > 60.0].mean()
    sparse = s[t <= 60.0].mean()
    assert dense > sparse

    for name in ("delta", "conv"):
        times, spikes = encoders[name]
        assert np.array_equal(times, data["t_grid"])  # grid-clocked only
        assert set(np.unique(spikes)).issubset({0.0, 1.0})

import os
import warnings

import numpy as np
import pytest

from oracles import event_raster
from sedformer.data import (HISTORY_DAYS, HORIZON_DAYS, WINDOW_DAYS, CleanConfig,
                            Standardizer, SuiteConfig, VizConfig, baseline_encoders,
                            clean_series, lagrange_fill, load_csv, mad_smooth,
                            make_windows, mcar_sparsify, merge_splits,
                            prepare_corpus, read_dataset, spline_impute,
                            split_windows, synth_suite, synth_suite_panel,
                            synth_viz_series, write_dataset)
from sedformer.errors import ConfigError, DataError


def test_constants():
    assert (HISTORY_DAYS, HORIZON_DAYS, WINDOW_DAYS) == (90, 30, 120)


def test_load_csv(tmp_path):
    p = tmp_path / "corpus.csv"
    p.write_text("id,d0,d1,d2\nalpha,1.0,,3.0\nbeta,4.0,5.0,6.0\n")
    ids, values = load_csv(str(p))
    assert ids == ["alpha", "beta"]
    assert values.shape == (2, 3)
    assert np.isnan(values[0, 1])
    assert values[1, 2] == 6.0

    bad = tmp_path / "bad.csv"
    bad.write_text("d0,d1\n1.0,oops\n")
    with pytest.raises(DataError):
        load_csv(str(bad))


def test_load_csv_variate_selection(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0,1\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    ids, values = load_csv(str(p), n_variates=2)
    assert ids == ["v0", "v1"]
    assert values.shape == (2, 2)
    with pytest.raises(DataError):
        load_csv(str(p), n_variates=9)


def test_lagrange_fill_exact_on_quadratics():
    rng = np.random.default_rng(0)
    t = np.arange(50, dtype=np.float64)
    for _ in range(20):
        a, b, c = rng.normal(size=3)
        truth = a * t * t + b * t + c
        series = truth.copy()
        holes = rng.choice(np.arange(2, 48), size=10, replace=False)
        for h in holes:  # isolated interior holes
            if np.isfinite(series[h - 1]) and np.isfinite(series[h + 1]):
                series[h] = np.nan
        filled = lagrange_fill(series, gap_cap=3)
        assert np.all(np.isfinite(filled))
        assert np.max(np.abs(filled - truth)) < 1e-10


def test_lagrange_fill_bridges_long_gaps_linearly():
    t = np.arange(12, dtype=np.float64)
    truth = 2.0 * t + 1.0
    series = truth.copy()
    series[3:9] = np.nan  # 6-wide gap exceeds the cap
    filled = lagrange_fill(series, gap_cap=3)
    assert np.all(np.isfinite(filled))
    assert np.allclose(filled, truth, atol=1e-12)


def test_mad_smooth_replaces_outliers_only():
    rng = np.random.default_rng(1)
    x = np.sin(np.linspace(0, 6, 200)) + rng.normal(0, 0.05, 200)
    y = x.copy()
    y[50] = 40.0
    out = mad_smooth(y, outlier_mult=6.0, window=5)
    assert abs(out[50] - 40.0) > 1.0  # the spike was replaced
    untouched = np.delete(np.arange(200), 50)
    assert np.array_equal(out[untouched], y[untouched])


def test_mad_smooth_constant_series_untouched():
    x = np.full(30, 2.5)
    assert np.array_equal(mad_smooth(x), x)
    with pytest.raises(ConfigError):
        mad_smooth(x, window=4)


def test_spline_impute_smooth_backstop():
    t = np.arange(10, dtype=np.float64)
    vals = t ** 2
    vals[[4, 5]] = np.nan
    out = spline_impute(vals)
    assert np.all(np.isfinite(out))
    assert abs(out[4] - 16.0) < 1.0 and abs(out[5] - 25.0) < 1.5


SPLINE_CASES = {  # name -> (series length in days, known days)
    "uneven": (60, [0, 1, 4, 5, 6, 13, 14, 22, 31, 33, 40, 47, 52, 58, 59]),
    "four_anchors": (20, [3, 4, 9, 16]),
    "missing_ends": (50, [6, 7, 9, 15, 20, 24, 30, 31, 38, 41]),
    "two_thousand_anchors": (3000, np.sort(np.random.default_rng(5).choice(
        np.arange(1, 2999), 2000, replace=False))),
}


@pytest.mark.parametrize("case", sorted(SPLINE_CASES))
def test_spline_impute_matches_scipy_natural_spline(case):
    """The numpy spline is scipy's natural cubic spline, extrapolating its
    end pieces beyond the first and last known day."""
    interpolate = pytest.importorskip("scipy.interpolate")
    length, known = SPLINE_CASES[case]
    known = np.asarray(known)
    series = np.full(length, np.nan)
    series[known] = np.cumsum(np.random.default_rng(known.size).normal(scale=5.0, size=known.size))
    missing = np.flatnonzero(np.isnan(series))
    out = spline_impute(series)
    ref = series.copy()
    ref[missing] = interpolate.CubicSpline(known.astype(np.float64), series[known],
                                           bc_type="natural")(missing.astype(np.float64))
    assert np.array_equal(out[known], series[known])
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_clean_series_finite(rng):
    x = rng.normal(size=300)
    x[rng.uniform(size=300) < 0.4] = np.nan
    cleaned = clean_series(x, CleanConfig())
    assert np.all(np.isfinite(cleaned))


def test_mcar_keep_rate_and_determinism():
    for rate in (0.25, 0.5, 0.75):
        keep = mcar_sparsify(10_000, rate, seed=5, series_index=2)
        assert abs(keep.mean() - (1.0 - rate)) < 0.02
    a = mcar_sparsify(100, 0.5, seed=1, series_index=0)
    b = mcar_sparsify(100, 0.5, seed=1, series_index=0)
    c = mcar_sparsify(100, 0.5, seed=1, series_index=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mcar_rate_validation():
    with pytest.raises(ConfigError):
        mcar_sparsify(10, 1.5, 0, 0)


def test_make_windows_layout(rng):
    D, T = 3, 240
    values = rng.normal(size=(D, T))
    keep = np.ones((D, T))
    items = make_windows(values, keep)
    assert len(items) == 5  # starts 0, 30, 60, 90, 120
    it = items[0]
    assert it.series.times.max() < HISTORY_DAYS
    assert it.series.times.min() >= 0.0
    for d in range(D):
        assert np.array_equal(it.query_times[d],
                              np.arange(HISTORY_DAYS, WINDOW_DAYS, dtype=np.float64))
        assert it.targets[d].size == HORIZON_DAYS
    # second window's targets come from days 120..150 of the panel
    assert np.allclose(items[1].targets[0], values[0, 120:150])


def test_make_windows_skips_short_panels(rng):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        items = make_windows(rng.normal(size=(2, 60)), np.ones((2, 60)))
    assert items == []
    assert any("no windows produced" in str(m.message) for m in w)


def test_split_windows_chronological():
    items = list(range(10))
    s = split_windows(items)
    assert s["train"] == [0, 1, 2, 3, 4, 5, 6]
    assert s["val"] == [7]
    assert s["test"] == [8, 9]
    small = split_windows(list(range(5)))
    assert (len(small["train"]), len(small["val"]), len(small["test"])) == (3, 1, 1)
    with pytest.raises(ConfigError):
        split_windows(items, fractions=(0.5, 0.2, 0.2))


def test_standardizer_roundtrip(rng):
    splits = synth_suite(SuiteConfig(n_series=2, seed=3))
    sc = Standardizer.fit(splits["train"])
    item = splits["train"][0]
    scaled = sc.transform_item(item)
    preds = [t.copy() for t in scaled.targets]
    back = sc.inverse(preds)
    for raw_t, rec in zip(item.targets, back):
        assert np.allclose(raw_t, rec, atol=1e-12)
    again = Standardizer.from_dict(sc.to_dict())
    assert np.allclose(again.mean, sc.mean) and np.allclose(again.std, sc.std)


def test_suite_shapes_and_determinism():
    a = synth_suite(SuiteConfig(n_series=2, seed=0))
    b = synth_suite(SuiteConfig(n_series=2, seed=0))
    for split in ("train", "val", "test"):
        assert len(a[split]) == len(b[split])
        for x, y in zip(a[split], b[split]):
            assert np.array_equal(x.series.values, y.series.values)
    vals, mask = synth_suite_panel(SuiteConfig(), 0)
    assert vals.shape == (4, 240) and mask.shape == (4, 240)
    assert set(np.unique(mask)).issubset({0.0, 1.0})


def test_bursty_suite_is_sparser():
    plain = synth_suite_panel(SuiteConfig(), 0)[1].mean()
    bursty = synth_suite_panel(SuiteConfig(bursts=True), 0)[1].mean()
    assert bursty < plain


def test_dataset_write_is_byte_identical(tmp_path):
    splits = synth_suite(SuiteConfig(n_series=2, seed=1))
    meta = {"source": "synthetic", "rate": 0.5, "n_variates": 4, "seed": 1}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(str(d1), splits, meta)
    write_dataset(str(d2), splits, meta)
    for name in sorted(os.listdir(d1)):
        with open(d1 / name, "rb") as f1, open(d2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_dataset_roundtrip(tmp_path):
    splits = synth_suite(SuiteConfig(n_series=2, seed=2))
    meta = {"source": "synthetic", "rate": 0.5, "n_variates": 4, "seed": 2}
    write_dataset(str(tmp_path / "ds"), splits, meta)
    again, meta2 = read_dataset(str(tmp_path / "ds"))
    assert meta2["rate"] == 0.5
    for split in ("train", "val", "test"):
        assert len(again[split]) == len(splits[split])
        for x, y in zip(splits[split], again[split]):
            assert np.array_equal(x.series.times, y.series.times)
            assert np.array_equal(x.series.values, y.series.values)
            assert np.array_equal(x.series.mask, y.series.mask)
            for qx, qy in zip(x.query_times, y.query_times):
                assert np.array_equal(qx, qy)
            for tx, ty in zip(x.targets, y.targets):
                assert np.array_equal(tx, ty)


def test_prepare_corpus_end_to_end(tmp_path, rng):
    T = 250
    rows = []
    t = np.arange(T)
    for d in range(3):
        vals = np.sin(2 * np.pi * t / (20 + 10 * d)) + 0.01 * t
        cells = [f"{v:.6f}" for v in vals]
        rows.append(f"v{d}," + ",".join(cells))
    header = "id," + ",".join(f"day{i}" for i in range(T))
    p = tmp_path / "corpus.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        splits, meta = prepare_corpus(str(p), CleanConfig(rate=0.4, seed=0))
    assert meta["n_variates"] == 3
    assert meta["rate"] == 0.4
    assert len(splits["train"]) >= 1
    assert merge_splits([splits])["train"] == splits["train"]


def test_viz_series_structure():
    cfg = VizConfig()
    data = synth_viz_series(cfg)
    t = data["t_irr"]
    assert np.all(np.diff(t) > 0)
    assert (t <= 60).sum() == cfg.n_sparse
    assert (t > 60).sum() == cfg.n_dense
    assert data["t_grid"].size == cfg.grid_size
    enc = baseline_encoders(data, cfg)
    assert set(enc) == {"delta", "conv", "event"}


@pytest.mark.parametrize("tau,v_th,gamma", [(2.0, 0.5, 1.0), (0.5, 0.3, 2.0), (7.0, 0.1, 0.5)])
def test_event_raster_equals_scalar_reference(tau, v_th, gamma):
    """The raster's event row, through the neuron's shared recurrence, equals
    the scalar per-stamp loop bitwise, also for tau <= 1 (which has no eta)."""
    for seed in range(5):
        cfg = VizConfig(seed=seed, tau=tau, v_th=v_th, gamma=gamma)
        data = synth_viz_series(cfg)
        _, s = baseline_encoders(data, cfg)["event"]
        expected = event_raster(data["t_irr"], data["x_irr"], tau, v_th, gamma,
                                cfg.delta_threshold)
        assert np.array_equal(s, expected)

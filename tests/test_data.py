import os
import warnings

import numpy as np
import pytest

from oracles import event_raster, lagrange_fill_by_day, nearest_fill_by_day, stream_windows
from sedformer.data import (HISTORY_DAYS, HORIZON_DAYS, WINDOW_DAYS, CleanConfig,
                            Standardizer, SuiteConfig, VizConfig, _nearest_fill,
                            baseline_encoders, clean_series, lagrange_fill, load_csv, mad_smooth,
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

    huge = tmp_path / "huge.csv"  # beyond MAX_ABS_VALUE, where mad_smooth's median overflowed
    huge.write_text("d0,d1\n1.0,-1e308\n")
    with pytest.raises(DataError, match=r"huge\.csv: cell at row 2, column 2: '-1e308'"):
        load_csv(str(huge))


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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_gappy_series(rng, n_days: int, missing: float) -> np.ndarray:
    """A smooth daily series with noise; each day missing with probability
    ``missing``, and at least one day known."""
    t = np.arange(n_days, dtype=np.float64)
    x = np.sin(t / rng.uniform(2.0, 9.0)) * rng.uniform(0.5, 3.0) + rng.normal(0.0, 0.1, n_days)
    x[rng.random(n_days) < missing] = np.nan
    if not np.isfinite(x).any():
        x[rng.integers(n_days)] = rng.normal()
    return x


@pytest.mark.parametrize("gap_cap", [1, 2, 3, 4, 5, 6])
def test_lagrange_fill_matches_the_per_day_oracle(gap_cap):
    """Bitwise the per-day fill, warnings included, on seeded series with up
    to 99 % of days missing: fewer than 3 known points, and leading,
    trailing, short and long gaps."""
    rng = np.random.default_rng(gap_cap)
    few = 0
    for n_days in (1, 2, 3, 4, 5, 7, 12, 40, 150):
        for missing in (0.0, 0.2, 0.5, 0.8, 0.95, 0.99):
            for _ in range(6):
                x = random_gappy_series(rng, n_days, missing)
                few += np.isfinite(x).sum() < 3
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter("always")
                    filled = lagrange_fill(x, gap_cap=gap_cap)
                with warnings.catch_warnings(record=True) as want:
                    warnings.simplefilter("always")
                    expected = lagrange_fill_by_day(x, gap_cap)
                assert same_bits(filled, expected), (n_days, missing, x)
                assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert few > 20


def test_nearest_fill_matches_the_per_day_oracle():
    """Each missing day takes its nearest known day's value, the earlier one
    on a tie, bitwise as the per-day search: any number of known days,
    anywhere, and every missing day a tie between two anchors."""
    rng = np.random.default_rng(7)
    for n_days in (1, 2, 5, 9, 30):
        for n_known in range(1, n_days + 1):
            for _ in range(4):
                x = rng.normal(size=n_days)
                known = np.sort(rng.choice(n_days, size=n_known, replace=False))
                x[np.setdiff1d(np.arange(n_days), known)] = np.nan
                assert same_bits(_nearest_fill(x, known), nearest_fill_by_day(x, known))
    x = np.array([1.0, np.nan, 2.0, np.nan, np.nan, np.nan, 3.0])
    assert _nearest_fill(x, np.array([0, 2, 6])).tolist() == [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]


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


def same_windows(got, want) -> bool:
    return len(got) == len(want) and all(
        same_bits(a.series.times, b.series.times) and same_bits(a.series.values, b.series.values)
        and same_bits(a.series.mask, b.series.mask)
        and len(a.query_times) == len(b.query_times) == len(a.targets) == len(b.targets)
        and all(same_bits(p, q) for p, q in zip(a.query_times, b.query_times))
        and all(same_bits(p, q) for p, q in zip(a.targets, b.targets))
        for a, b in zip(got, want))


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 0.8, 0.95, 0.99])
def test_make_windows_matches_the_stream_oracle(rate):
    """Windows cut from the daily grid are bitwise those of per-variate
    streams merged by ``align_events``, with the same warnings: panels
    shorter than a window, several strides and ``min_events``, variates that
    keep no day, and windows with no event at all."""
    rng = np.random.default_rng(int(rate * 100))
    for D, T in ((1, 119), (1, 150), (3, 120), (3, 260), (5, 333)):
        values = rng.normal(size=(D, T))
        keep = (rng.random((D, T)) >= rate).astype(np.float64)
        keep[:, 30:150] = 0.0  # windows with no event, or only a few
        keep[D - 1, : T // 2] = 0.0  # a variate that keeps no day in early windows
        for stride in (1, 7, 30, 45):
            for min_events in (1, 5, 16):
                with warnings.catch_warnings(record=True) as got:
                    warnings.simplefilter("always")
                    items = make_windows(values, keep, stride=stride, min_events=min_events)
                with warnings.catch_warnings(record=True) as want:
                    warnings.simplefilter("always")
                    expected = stream_windows(values, keep, stride, min_events)
                assert same_windows(items, expected), (D, T, stride, min_events)
                assert [str(w.message) for w in got] == [str(w.message) for w in want]


def test_make_windows_of_suite_panels_match_the_stream_oracle():
    """So are the suite's windows, plain and bursty, at the suite's
    ``min_events`` of 16."""
    for cfg in (SuiteConfig(n_days=300), SuiteConfig(n_days=420, rate=0.7, bursts=True),
                SuiteConfig(n_days=300, rate=0.95)):
        for i in range(2):
            values, mask = synth_suite_panel(cfg, i)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert same_windows(make_windows(values, mask, min_events=16),
                                    stream_windows(values, mask, 30, 16))


def test_split_windows_chronological():
    items = list(range(10))
    s = split_windows(items)
    assert s["train"] == [0, 1, 2, 3, 4, 5, 6]
    assert s["val"] == [7]
    assert s["test"] == [8, 9]
    small = split_windows(list(range(5)))
    assert (len(small["train"]), len(small["val"]), len(small["test"])) == (3, 1, 1)


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

"""Operation counting and 45 nm energy arithmetic."""

import contextlib

import numpy as np
import pytest

from oracles import count_ann_layer
from sedformer import (
    EnergyModel,
    ModelConfig,
    SedFormer,
    SuiteConfig,
    count_snn_layer,
    energy_estimate,
    make_windows,
    mcar_sparsify,
)
from sedformer.data import synth_suite_panel
from sedformer.encoder import EventSeries
from sedformer.energy import (
    CONFIG_NOTE,
    OpCounts,
    dense_counts,
    layer_energy,
    measure_spike_stats,
    model_energy_report,
    render_table,
)
from sedformer.errors import ConfigError
from sedformer.tensor import Tensor, depthwise_conv1d, linear, mac_counter, no_grad


def test_mac_energy_hand_value():
    e = layer_energy("ann", OpCounts(n_mac=100), EnergyModel())
    assert e == 100 * 4.6
    assert abs(e - 460.0) < 1e-12


def test_sop_count_hand_values():
    assert count_snn_layer(0.5, 10, 4).sop == 20
    assert count_snn_layer(0.0, 10, 4).sop == 0
    assert count_snn_layer(1.0, 10, 4).sop == 40


def test_snn_energy_bundle():
    em = EnergyModel()
    e_half = layer_energy("snn", OpCounts(sop=20), em)
    e_quarter = layer_energy("snn", OpCounts(sop=10), em)
    assert e_half == 220.0
    assert e_quarter == e_half / 2  # energy linear in the spike count


def test_zero_steps_means_zero_activity():
    c = count_ann_layer(8, 8, 0)
    assert (c.n_mac, c.n_add, c.n_rd, c.n_wr, c.sop) == (0, 0, 0, 0, 0)
    assert energy_estimate([], EnergyModel())["total_pj"] == 0.0


def test_ann_counts_hand_values():
    c = count_ann_layer(8, 8, 5)
    assert c.n_mac == 320
    assert c.n_add == 8 * 7 * 5
    assert c.n_rd == 8 * 8 + 8 * 5
    assert c.n_wr == 8 * 5
    assert count_ann_layer(1, 4, 1).n_add == 0


def test_counts_scale_linearly():
    c = OpCounts(1, 2, 3, 4, 5)
    em = EnergyModel()
    assert layer_energy("ann", OpCounts(2, 4, 6, 8, 10), em) == pytest.approx(
        2 * layer_energy("ann", c, em), rel=1e-15)


def test_validation_errors():
    with pytest.raises(ConfigError):
        count_ann_layer(0, 4, 1)
    with pytest.raises(ConfigError):
        count_ann_layer(4, 4, -1)
    with pytest.raises(ConfigError):
        count_snn_layer(1.5, 10, 4)
    with pytest.raises(ConfigError):
        count_snn_layer(-0.1, 10, 4)
    with pytest.raises(ConfigError):
        OpCounts(n_mac=-1)
    with pytest.raises(ConfigError):
        OpCounts(n_mac=1.5)
    with pytest.raises(ConfigError):
        EnergyModel(e_mac=-1.0)
    with pytest.raises(ConfigError):
        layer_energy("dense", OpCounts(), EnergyModel())


def test_estimate_breakdown_sums_and_labels():
    layers = [("a", "ann", OpCounts(n_mac=100)),
              ("b", "snn", OpCounts(sop=20))]
    rep = energy_estimate(layers, EnergyModel())
    assert rep["total_pj"] == pytest.approx(100 * 4.6 + 220.0, rel=1e-15)
    assert [r["layer"] for r in rep["layers"]] == ["a", "b"]
    assert rep["layers"][1]["sop"] == 20
    assert rep["note"] == CONFIG_NOTE


def _fixed_window_items(rate: float):
    cfg = SuiteConfig(n_series=1, n_variates=4, n_days=240, rate=rate, seed=3)
    values, _ = synth_suite_panel(cfg, 0)
    mask = np.stack([mcar_sparsify(values.shape[1], rate, seed=7, series_index=d)
                     for d in range(values.shape[0])])
    return make_windows(values, mask)[:2]


def test_model_report_monotone_in_sparsity():
    model = SedFormer(ModelConfig(n_variates=4, conv_channels=4, kernel_size=3,
                                  dim=8, heads=2, blocks=1, pool_stride=2, seed=0))
    totals = []
    for rate in (0.25, 0.5, 0.75):
        rep = model_energy_report(model, _fixed_window_items(rate))
        totals.append(rep["total_pj"])
        assert rep["dense_reference_pj"] > 0.0
        assert 0.0 <= rep["firing"]["pooled_rate"] <= 1.0
        assert rep["note"] == CONFIG_NOTE
    assert totals[0] > totals[1] > totals[2]


def test_spike_stats_and_table():
    model = SedFormer(ModelConfig(n_variates=4, conv_channels=4, kernel_size=3,
                                  dim=8, heads=2, blocks=1, pool_stride=2, seed=0))
    items = _fixed_window_items(0.5)
    stats = measure_spike_stats(model, items)
    assert stats["raw_events"] == sum(it.series.n_events for it in items)
    assert stats["pooled_events"] <= stats["raw_events"]
    text = render_table(model_energy_report(model, items))
    assert "encoder.conv" in text and "decoder" in text
    assert "dense-grid reference" in text
    assert "note:" in text


def _suite_model():
    return SedFormer(ModelConfig(n_variates=4, dim=32, heads=4, blocks=2,
                                 pool_stride=4, seed=0))


def test_dense_counts_reproduce_the_layer_formulas():
    rng = np.random.default_rng(0)
    with mac_counter() as macs:
        linear(Tensor(rng.normal(size=(5, 8))), Tensor(rng.normal(size=(8, 3))))
    assert dense_counts(*macs.ops[""]) == count_ann_layer(8, 3, 5)
    K, D, C, k = 7, 2, 3, 5
    with mac_counter() as macs:
        depthwise_conv1d(Tensor(rng.normal(size=(K, D))), Tensor(rng.normal(size=(D, C, k))))
    assert dense_counts(*macs.ops[""]) == OpCounts(
        n_mac=K * D * C * k, n_add=K * D * C * (k - 1), n_rd=D * C * k + K * D, n_wr=K * D * C)


def test_report_rows_are_the_forward_scopes():
    """Each row's n_mac is its scope's MACs in a counter around the same
    forward, and the rows add up to every MAC the forward ran."""
    model = _suite_model()
    item = _fixed_window_items(0.5)[0]
    with mac_counter() as macs, no_grad():
        model.forward(item.series, item.query_times)
    rows = {r["layer"]: r for r in model_energy_report(model, [item])["layers"]}
    assert list(rows) == ["encoder.conv", "encoder.dynamics", "embed", "block0.attention",
                          "block0.ffn", "block1.attention", "block1.ffn", "aggregate", "decoder"]
    assert {name: r["n_mac"] for name, r in rows.items()} == {
        name: n_mac for name, (n_mac, _, _) in macs.ops.items()}
    assert sum(r["n_mac"] for r in rows.values()) == macs.total
    # the decoder's first layer runs once per summary and once per distinct stamp
    d, D, Q = 32, 4, item.n_queries
    U = np.unique(np.concatenate(item.query_times)).size
    assert rows["decoder"]["n_mac"] == (D * d * 2 * d + U * d * 2 * d + U * d
                                        + Q * (2 * d * 2 * d + 2 * d))


def test_recording_forward_bills_as_inference_does():
    """Folding the normalizers is not per-window work: a forward that
    records its tape bills every scope the same MACs, reads and writes as
    one that does not, whether that one folds afresh or reuses the fold."""
    model = _suite_model()
    item = _fixed_window_items(0.5)[0]

    def ops(record):
        with mac_counter() as macs, contextlib.nullcontext() if record else no_grad():
            model.forward(item.series, item.query_times)
        return macs.ops

    recorded = ops(True)
    assert recorded == ops(False) == ops(False)  # a fresh fold, then the kept one
    assert recorded["encoder.conv"][0] > 0


def test_dense_reference_is_a_grid_forward():
    """The reference bills, dense, a forward over regular-grid copies of
    the windows that split grid_steps evenly and observe every variate."""
    model = _suite_model()
    items = _fixed_window_items(0.5)
    em = EnergyModel()
    for steps, split in ((None, (90, 90)), (51, (26, 25))):
        with mac_counter() as macs, no_grad():
            for it, k in zip(items, split):
                t = it.series.times
                grid = EventSeries(np.linspace(t[0], t[-1], k), np.zeros((k, 4)), np.ones((k, 4)))
                model.forward(grid, it.query_times)
        rows = [(name, "ann", dense_counts(*row)) for name, row in macs.ops.items()]
        rep = model_energy_report(model, items, em, grid_steps=steps)
        assert rep["dense_reference_pj"] == energy_estimate(rows, em)["total_pj"]
    for steps in (0, 1, -3):
        with pytest.raises(ConfigError, match="grid_steps"):
            model_energy_report(model, items, em, grid_steps=steps)

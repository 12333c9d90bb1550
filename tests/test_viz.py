"""Raster fixture series, reference encoders, and artifact writers."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sedformer import VizConfig, baseline_encoders, synth_viz_series
from sedformer.data import VIZ_HORIZON
from sedformer.errors import ConfigError
from sedformer.viz import render_raster_svg, write_raster


@pytest.fixture(scope="module")
def data():
    return synth_viz_series(VizConfig())


@pytest.fixture(scope="module")
def encoders(data):
    return baseline_encoders(data, VizConfig())


def test_series_structure(data):
    cfg = VizConfig()
    t = data["t_irr"]
    assert t.size == cfg.n_sparse + cfg.n_dense
    assert np.all(np.diff(t) > 0)
    assert np.all(t[:cfg.n_sparse] <= 60.0)
    assert np.all(t[cfg.n_sparse:] > 60.0)
    assert np.array_equal(data["t_grid"], np.linspace(0.0, VIZ_HORIZON, cfg.grid_size))
    assert synth_viz_series(VizConfig())["x_irr"] == pytest.approx(data["x_irr"])


def test_viz_config_validation():
    with pytest.raises(ConfigError):
        VizConfig(n_dense=0)
    with pytest.raises(ConfigError):
        VizConfig(grid_size=1)
    with pytest.raises(ConfigError):
        VizConfig(tau=0.0)


def test_encoder_domains(data, encoders):
    assert set(encoders) == {"delta", "conv", "event"}
    for name in ("delta", "conv"):
        times, spikes = encoders[name]
        assert np.array_equal(times, data["t_grid"])  # grid-clocked references
        assert set(np.unique(spikes)) <= {0.0, 1.0}
    times, spikes = encoders["event"]
    assert np.array_equal(times, data["t_irr"])  # fires only at sample stamps
    assert set(np.unique(spikes)) <= {0.0, 1.0}


def test_event_encoder_silent_after_long_gaps(data, encoders):
    cfg = VizConfig()
    t, s = encoders["event"]
    gaps = np.diff(t, prepend=t[0])
    after_long = np.flatnonzero(gaps > 5.0 * cfg.tau)
    assert after_long.size > 0  # fixture must contain such gaps
    assert np.all(s[after_long] == 0.0)


def test_event_encoder_tracks_density(data, encoders):
    cfg = VizConfig()
    t, s = encoders["event"]
    sparse = s[t <= 60.0]
    dense = s[t > 60.0]
    assert dense.mean() > sparse.mean()


def test_spike_csv_roundtrip(tmp_path, data, encoders):
    paths = write_raster(str(tmp_path), data, encoders)
    with open(paths["spikes"], newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["time", "encoder", "spike"]
    expected = sum(len(times) for times, _ in encoders.values())
    assert len(rows) - 1 == expected
    by_name = {}
    for t, name, s in rows[1:]:
        by_name.setdefault(name, []).append((float(t), int(s)))
    times, spikes = encoders["event"]
    got = by_name["event"]
    assert [t for t, _ in got] == [float(t) for t in times]
    assert [s for _, s in got] == [int(s) for s in spikes]


def test_series_csv_roundtrip(tmp_path, data, encoders):
    paths = write_raster(str(tmp_path), data, encoders)
    with open(paths["series"], newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["time", "kind", "value"]
    kinds = [r[1] for r in rows[1:]]
    assert kinds.count("irregular") == data["t_irr"].size
    assert kinds.count("grid") == data["t_grid"].size
    first = rows[1]
    assert float(first[0]) == data["t_irr"][0]
    assert float(first[2]) == data["x_irr"][0]


def test_svg_wellformed_and_deterministic(data, encoders):
    svg = render_raster_svg(data, encoders)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    text = svg
    for name in encoders:
        assert name in text
    assert render_raster_svg(data, encoders) == svg


def test_write_raster_paths(tmp_path, data, encoders):
    paths = write_raster(str(tmp_path / "viz"), data, encoders)
    for p in paths.values():
        with open(p) as f:
            assert f.read(1)

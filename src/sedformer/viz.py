"""Spike-raster artifacts: canonical CSV exports and a derived SVG plot.

The SVG is assembled directly (no plotting dependency): an input-series
panel on top, then one row per encoder with a vertical tick at every
spike time. CSV is the canonical artifact; the SVG is derived from it.
"""

from __future__ import annotations

import csv
import os

import numpy as np

SVG_WIDTH, SVG_HEIGHT = 900, 460  # pixels


def write_spike_csv(path: str, encoders: dict) -> None:
    """Rows (time, encoder, spike) for every sample slot of every encoder."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "encoder", "spike"])
        for name in sorted(encoders):
            times, spikes = encoders[name]
            for t, s in zip(np.asarray(times), np.asarray(spikes)):
                w.writerow([repr(float(t)), name, int(s)])


def write_series_csv(path: str, data: dict) -> None:
    """Rows (time, kind, value) for the irregular samples and the grid twin."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "kind", "value"])
        for t, x in zip(data["t_irr"], data["x_irr"]):
            w.writerow([repr(float(t)), "irregular", repr(float(x))])
        for t, x in zip(data["t_grid"], data["x_grid"]):
            w.writerow([repr(float(t)), "grid", repr(float(x))])


def render_raster_svg(data: dict, encoders: dict) -> str:
    """Well-formed SVG: series panel plus one tick row per encoder."""
    t_all = np.concatenate([np.asarray(data["t_irr"]), np.asarray(data["t_grid"])])
    x_all = np.concatenate([np.asarray(data["x_irr"]), np.asarray(data["x_grid"])])
    t_lo, t_hi = float(t_all.min()), float(t_all.max())
    x_lo, x_hi = float(x_all.min()), float(x_all.max())
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    left, right, top = 60.0, SVG_WIDTH - 20.0, 20.0
    panel_h = 150.0
    row_h, row_gap = 50.0, 24.0

    def sx(t: float) -> float:
        return left + (t - t_lo) / (t_hi - t_lo) * (right - left)

    def sy(x: float) -> float:
        return top + (x_hi - x) / (x_hi - x_lo) * panel_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{left}" y="{top - 6:.1f}" font-size="12" fill="#333">'
        f'input series (line: grid, dots: irregular samples)</text>',
    ]
    grid_pts = " ".join(f"{sx(float(t)):.2f},{sy(float(x)):.2f}"
                        for t, x in zip(data["t_grid"], data["x_grid"]))
    parts.append(f'<polyline points="{grid_pts}" fill="none" stroke="#888" '
                 f'stroke-width="1"/>')
    for t, x in zip(data["t_irr"], data["x_irr"]):
        parts.append(f'<circle cx="{sx(float(t)):.2f}" cy="{sy(float(x)):.2f}" '
                     f'r="2.5" fill="#1f77b4"/>')
    y0 = top + panel_h + 30.0
    colors = {"delta": "#d62728", "conv": "#2ca02c", "event": "#9467bd"}
    for i, name in enumerate(sorted(encoders)):
        times, spikes = encoders[name]
        y_top = y0 + i * (row_h + row_gap)
        color = colors.get(name, "#333333")
        parts.append(f'<text x="10" y="{y_top + row_h / 2 + 4:.1f}" font-size="12" '
                     f'fill="#333">{name}</text>')
        parts.append(f'<line x1="{left}" y1="{y_top + row_h:.1f}" x2="{right}" '
                     f'y2="{y_top + row_h:.1f}" stroke="#ccc" stroke-width="1"/>')
        for t, s in zip(np.asarray(times), np.asarray(spikes)):
            if s >= 0.5:
                x = sx(float(t))
                parts.append(f'<line x1="{x:.2f}" y1="{y_top:.1f}" x2="{x:.2f}" '
                             f'y2="{y_top + row_h:.1f}" stroke="{color}" '
                             f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_raster(out_dir: str, data: dict, encoders: dict) -> dict:
    """Write spikes.csv, series.csv and raster.svg; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "spikes": os.path.join(out_dir, "spikes.csv"),
        "series": os.path.join(out_dir, "series.csv"),
        "svg": os.path.join(out_dir, "raster.svg"),
    }
    write_spike_csv(paths["spikes"], encoders)
    write_series_csv(paths["series"], data)
    with open(paths["svg"], "w") as f:
        f.write(render_raster_svg(data, encoders))
        f.write("\n")
    return paths

"""Corpus ingestion, cleaning, sparsification, windowing, synthetic data.

The cleaning pass runs per variate on a daily grid: short gaps are filled
by a quadratic through the three nearest anchors, long gaps by a linear
bridge between their boundary values, edges by the nearest known value.
Outliers (in raw-MAD units from the global median) are replaced by a local
median. A natural cubic spline backstops any value still missing. The
cleaned panel is then sparsified completely at random (per-variate seeded
keep masks) and cut into rolling history/horizon windows.

Also houses two synthetic generators: a forecasting suite (sinusoid plus
trend, bursty availability) and a one-variate visualization series with
two dense bursts, plus the reference encoders used only for raster plots:
two on a regular grid and one event-driven, the neuron's own recurrence.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .encoder import EventSeries, align_events, event_gaps
from .errors import ConfigError, DataError
from .neuron import ealif_recurrence, heaviside
from .training import WindowItem

HISTORY_DAYS = 90
HORIZON_DAYS = 30
WINDOW_DAYS = HISTORY_DAYS + HORIZON_DAYS
# Days between window starts; each panel's train/val/test shares of its windows.
WINDOW_STRIDE = 30
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)


@dataclass
class CleanConfig:
    """Knobs for the per-variate cleaning pass and the sparsifier."""

    window: int = 5
    gap_cap: int = 3
    outlier_mult: float = 6.0
    rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ConfigError(f"local-median window must be odd and >= 3, got {self.window}")
        if self.gap_cap < 1:
            raise ConfigError(f"gap cap must be >= 1, got {self.gap_cap}")
        if not (np.isfinite(self.outlier_mult) and self.outlier_mult > 0):
            raise ConfigError(f"outlier_mult must be finite and positive, got {self.outlier_mult}")
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigError(f"sparsifying rate must lie in [0, 1], got {self.rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# -- ingestion ---------------------------------------------------------------------


# Largest |stamp| (days) and |value| a dataset (or corpus) file may hold. At
# 1e15 days float64 still resolves 0.125 day, and a query stamp reaches the loss
# through the time embedding's linear channel, so the decoder's gradients grow
# as its square and Adam's second moment as its fourth power: 1 training epoch
# on a tiny suite overflowed from a stamp of 1e90 on (1e80 trained). A value's
# square enters the standardizer's sums and, through the loss gradient, Adam's
# second moment: a value of 1e200 overflowed either, 1e100 trained.
MAX_ABS_STAMP, MAX_ABS_VALUE = 1e15, 1e100


def load_csv(path: str, n_variates: int | None = None) -> tuple[list[str], np.ndarray]:
    """Wide daily CSV: one row per variate, one column per day.

    The header row labels the day columns; an optional leading id column is
    detected by a non-numeric header cell. Empty cells are gaps (NaN); a
    value beyond ``MAX_ABS_VALUE`` is an error. Returns (ids, values [N, T]).
    ``n_variates`` keeps the first N rows in file order.
    """
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one series row")
    header = rows[0]

    def _is_number(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    has_id = len(header) > 0 and not _is_number(header[0])
    first_col = 1 if has_id else 0
    n_days = len(header) - first_col
    if n_days < 1:
        raise DataError(f"{path}: no day columns found")
    ids: list[str] = []
    series: list[np.ndarray] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, header has {len(header)}")
        ids.append(row[0] if has_id else f"v{r - 2}")
        vals = np.full(n_days, np.nan)
        for c, cell in enumerate(row[first_col:]):
            cell = cell.strip()
            if cell == "":
                continue
            try:
                vals[c] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: malformed numeric cell at row {r}, column {c + first_col + 1}: "
                    f"{cell!r}") from None
            if abs(vals[c]) > MAX_ABS_VALUE:
                raise DataError(f"{path}: cell at row {r}, column {c + first_col + 1}: {cell!r} "
                                f"outside [-{MAX_ABS_VALUE:g}, {MAX_ABS_VALUE:g}]")
        series.append(vals)
    values = np.stack(series)
    if n_variates is not None:
        if n_variates < 1 or n_variates > values.shape[0]:
            raise DataError(
                f"requested {n_variates} variates, file has {values.shape[0]}")
        values = values[:n_variates]
        ids = ids[:n_variates]
    return ids, values


# -- cleaning ---------------------------------------------------------------------


def _lagrange3(ts: np.ndarray, ys: np.ndarray, t: float) -> float:
    """Quadratic Lagrange interpolation through three (t, y) anchors."""
    (t0, t1, t2), (y0, y1, y2) = ts, ys
    return float(
        y0 * (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2))
        + y1 * (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2))
        + y2 * (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1)))


def lagrange_fill(series: np.ndarray, gap_cap: int = 3) -> np.ndarray:
    """Fill every gap of a daily series.

    Interior gaps of length <= gap_cap: quadratic through the nearest three
    known anchors (two left + one right when two left exist, else one left
    + two right). Longer interior gaps: linear bridge between the boundary
    anchors. Leading/trailing gaps: nearest known value. Series with fewer
    than three known points fall back to nearest-value fill with a warning.
    """
    x = np.asarray(series, dtype=np.float64).copy()
    if x.ndim != 1:
        raise DataError(f"expected a 1-D series, got shape {x.shape}")
    known = np.flatnonzero(np.isfinite(x))
    if known.size == 0:
        raise DataError("series has no known values")
    if known.size == x.size:
        return x
    if known.size < 3:
        warnings.warn("fewer than 3 known points; nearest-value fill")
        return _nearest_fill(x, known)
    first, last = known[0], known[-1]
    x[:first] = x[first]
    x[last + 1:] = x[last]
    # interior gaps between consecutive anchors
    for left, right in zip(known[:-1], known[1:]):
        gap = right - left - 1
        if gap == 0:
            continue
        if gap <= gap_cap:
            left_anchors = known[known <= left]
            right_anchors = known[known >= right]
            if left_anchors.size >= 2:
                idx = np.array([left_anchors[-2], left_anchors[-1], right_anchors[0]])
            else:
                idx = np.array([left_anchors[-1], right_anchors[0], right_anchors[1]])
            for t in range(left + 1, right):
                x[t] = _lagrange3(idx.astype(np.float64), x[idx], float(t))
        else:
            span = right - left
            for t in range(left + 1, right):
                frac = (t - left) / span
                x[t] = (1.0 - frac) * x[left] + frac * x[right]
    return x


def _nearest_fill(x: np.ndarray, known: np.ndarray) -> np.ndarray:
    out = x.copy()
    missing = np.flatnonzero(~np.isfinite(x))
    for t in missing:
        j = np.argmin(np.abs(known - t))  # ties resolve to the earlier anchor
        out[t] = x[known[j]]
    return out


def mad_smooth(series: np.ndarray, outlier_mult: float = 6.0, window: int = 5) -> np.ndarray:
    """Replace gross outliers by a local median.

    Deviations are measured in raw median-absolute-deviation units from
    the global median; a zero MAD (at least half the points identical)
    leaves the series untouched.
    """
    if window < 3 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 3, got {window}")
    x = np.asarray(series, dtype=np.float64).copy()
    mu = np.median(x)
    sigma = np.median(np.abs(x - mu))
    if sigma == 0.0:
        return x
    out_idx = np.flatnonzero(np.abs(x - mu) / sigma > outlier_mult)
    half = window // 2
    src = x.copy()
    for t in out_idx:
        lo, hi = max(0, t - half), min(x.size, t + half + 1)
        x[t] = np.median(src[lo:hi])
    return x


def _natural_cubic_spline(knots: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Evaluate at ``at`` the natural cubic spline through ``(knots, values)``.

    ``knots`` is strictly increasing with at least three entries. The second
    derivatives vanish at both ends; points beyond the ends extrapolate the
    first or last cubic piece.
    """
    h = np.diff(knots)
    slope = np.diff(values) / h
    # interior second derivatives m[1:-1]: a diagonally dominant tridiagonal
    # system, h[j] m[j] + 2 (h[j] + h[j+1]) m[j+1] + h[j+1] m[j+2] = 6 (slope[j+1] - slope[j]),
    # solved by the Thomas algorithm
    diag = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * np.diff(slope)
    for j in range(1, diag.size):
        w = h[j] / diag[j - 1]
        diag[j] -= w * h[j]
        rhs[j] -= w * rhs[j - 1]
    m = np.zeros(knots.size)
    m[-2] = rhs[-1] / diag[-1]
    for j in range(diag.size - 2, -1, -1):
        m[j + 1] = (rhs[j] - h[j + 1] * m[j + 2]) / diag[j]
    seg = np.clip(np.searchsorted(knots, at) - 1, 0, h.size - 1)
    t, hs, m0, m1 = at - knots[seg], h[seg], m[seg], m[seg + 1]
    c1 = slope[seg] - hs * (2.0 * m0 + m1) / 6.0
    return values[seg] + t * (c1 + t * (0.5 * m0 + t * (m1 - m0) / (6.0 * hs)))


def spline_impute(series: np.ndarray) -> np.ndarray:
    """Fill remaining gaps with a natural cubic spline over known anchors.

    Fewer than four anchors: linear bridge (constant beyond the ends).
    """
    x = np.asarray(series, dtype=np.float64).copy()
    known = np.flatnonzero(np.isfinite(x))
    if known.size == 0:
        raise DataError("series has no known values")
    missing = np.flatnonzero(~np.isfinite(x))
    if missing.size == 0:
        return x
    if known.size < 4:
        x[missing] = np.interp(missing, known, x[known])
        return x
    x[missing] = _natural_cubic_spline(known.astype(np.float64), x[known],
                                       missing.astype(np.float64))
    return x


def clean_series(series: np.ndarray, cfg: CleanConfig) -> np.ndarray:
    """Gap fill, outlier smoothing, then a defensive spline backstop.

    The gap-filling pass already bridges every gap, so the spline stage is
    a guard for values that remain non-finite rather than a routine step.
    """
    x = lagrange_fill(series, gap_cap=cfg.gap_cap)
    x = mad_smooth(x, outlier_mult=cfg.outlier_mult, window=cfg.window)
    if not np.all(np.isfinite(x)):
        x = spline_impute(x)
    return x


# -- sparsification ------------------------------------------------------------------


def mcar_sparsify(length: int, rate: float, seed: int, series_index: int = 0) -> np.ndarray:
    """I.i.d. keep mask: each entry kept with probability 1 - rate.

    The stream is keyed by (seed, series_index) so per-series masks are
    independent yet reproducible regardless of processing order.
    """
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"rate must lie in [0, 1], got {rate}")
    rng = np.random.default_rng([seed, series_index])
    return (rng.random(int(length)) < (1.0 - rate)).astype(np.float64)


# -- windowing ---------------------------------------------------------------------


def make_windows(values: np.ndarray, keep_mask: np.ndarray,
                 stride: int = WINDOW_STRIDE, min_events: int = 1) -> list[WindowItem]:
    """Cut one cleaned panel [D, T] into rolling history/horizon windows.

    History holds only kept observations (times relative to window start,
    so every window lives on [0, 120)); queries are all horizon days per
    variate with truths from the cleaned panel. Windows with fewer than
    ``min_events`` distinct observed times are dropped (at least the
    zero-observation case); panels shorter than 120 days are skipped with
    a warning.
    """
    values = np.asarray(values, dtype=np.float64)
    keep_mask = np.asarray(keep_mask, dtype=np.float64)
    if values.ndim != 2 or values.shape != keep_mask.shape:
        raise DataError(
            f"panel and mask must both be [D, T]; got {values.shape}, {keep_mask.shape}")
    if stride < 1:
        raise ConfigError(f"window stride must be >= 1, got {stride}")
    D, T = values.shape
    if T < WINDOW_DAYS:
        warnings.warn(f"panel has {T} days < {WINDOW_DAYS}; no windows produced")
        return []
    items: list[WindowItem] = []
    for start in range(0, T - WINDOW_DAYS + 1, stride):
        hist = slice(start, start + HISTORY_DAYS)
        per_variate = []
        n_obs = 0
        for d in range(D):
            days = np.flatnonzero(keep_mask[d, hist] == 1.0)
            n_obs += days.size
            per_variate.append((days.astype(np.float64), values[d, hist][days]))
        if n_obs == 0:
            warnings.warn(f"window at day {start} has no observed events; dropped")
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = align_events(per_variate)
        if series.n_events < min_events:
            warnings.warn(f"window at day {start} has {series.n_events} events "
                          f"< {min_events}; dropped")
            continue
        q_times = np.arange(HISTORY_DAYS, WINDOW_DAYS, dtype=np.float64)
        queries = [q_times.copy() for _ in range(D)]
        targets = [values[d, start + HISTORY_DAYS:start + WINDOW_DAYS].copy()
                   for d in range(D)]
        items.append(WindowItem(series=series, query_times=queries, targets=targets))
    return items


def split_windows(items: list[WindowItem]) -> dict:
    """Chronological train/val/test split of one panel's windows (``SPLIT_FRACTIONS``)."""
    n = len(items)
    # cumulative boundaries keep val nonempty on small panels (5 -> 3/1/1)
    a = int(np.floor(SPLIT_FRACTIONS[0] * n + 1e-9))
    b = int(np.floor((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * n + 1e-9))
    return {"train": items[:a], "val": items[a:b], "test": items[b:]}


def merge_splits(parts: list[dict]) -> dict:
    out = {"train": [], "val": [], "test": []}
    for p in parts:
        for k in out:
            out[k].extend(p[k])
    return out


# -- target scaling -------------------------------------------------------------------


class Standardizer:
    """Per-variate z-scaling fit on observed history entries of one split."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        if self.mean.ndim != 1 or self.std.shape != self.mean.shape:
            raise ConfigError(f"standardizer needs one mean and one scale per variate, got "
                              f"shapes {self.mean.shape} and {self.std.shape}")
        if not (np.all(np.isfinite(self.mean)) and np.all((self.std > 0) & (self.std < np.inf))):
            raise ConfigError("standardizer needs finite means and positive, finite scales")

    @classmethod
    def fit(cls, items: list[WindowItem]) -> "Standardizer":
        if not items:
            raise DataError("cannot fit a standardizer on an empty split")
        D = items[0].series.n_variates
        sums = np.zeros(D)
        sqs = np.zeros(D)
        counts = np.zeros(D)
        for it in items:
            m = it.series.mask == 1.0
            for d in range(D):
                vals = it.series.values[m[:, d], d]
                sums[d] += vals.sum()
                sqs[d] += (vals * vals).sum()
                counts[d] += vals.size
        counts = np.maximum(counts, 1.0)
        mean = sums / counts
        var = np.maximum(sqs / counts - mean * mean, 0.0)
        std = np.sqrt(var)
        std[std < 1e-8] = 1.0
        return cls(mean, std)

    def transform_item(self, item: WindowItem) -> WindowItem:
        s = item.series
        scaled = (s.values - self.mean) / self.std * (s.mask == 1.0)
        series = EventSeries(times=s.times.copy(), values=scaled, mask=s.mask.copy())
        targets = [(np.asarray(y) - self.mean[d]) / self.std[d]
                   for d, y in enumerate(item.targets)]
        return WindowItem(series=series,
                          query_times=[np.asarray(q).copy() for q in item.query_times],
                          targets=targets)

    def inverse(self, preds: list[np.ndarray | None]) -> list[np.ndarray | None]:
        return [None if p is None else p * self.std[d] + self.mean[d]
                for d, p in enumerate(preds)]

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(np.array(d["mean"]), np.array(d["std"]))


# -- synthetic forecasting suite ----------------------------------------------------

# Largest suite, in observation cells (n_series * n_variates * n_days): the
# panels and the windows cut from them hold ~100 bytes per cell (measured on
# 8 x 4 x 2400), so ~1 GiB at the bound, 500x the benchmark suite (8 x 4 x 600).
# Checked before the first panel allocates anything.
MAX_SUITE_CELLS = 10**7

# The suite's observation noise and burst schedule: bursts and quiet stretches
# last a uniform number of days in [lo, hi) and keep a day with this probability.
SUITE_NOISE_STD = 0.02
BURST_DAYS, QUIET_DAYS = (9, 13), (12, 18)
BURST_KEEP, QUIET_KEEP = 0.95, 0.05


@dataclass
class SuiteConfig:
    """Seeded sinusoid-plus-trend suite, observed through MCAR dropout.

    With ``bursts`` on, an availability schedule alternates dense bursts
    (shorter than 16 events) with near-silent stretches, synchronized
    across variates, so aggressive event pooling has something to destroy.
    """

    n_series: int = 8
    n_variates: int = 4
    n_days: int = 240
    rate: float = 0.5
    bursts: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("n_series", "n_variates", "n_days"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        cells = self.n_series * self.n_variates * self.n_days
        if cells > MAX_SUITE_CELLS:
            raise ConfigError(f"n_series * n_variates * n_days must be at most "
                              f"{MAX_SUITE_CELLS:,} cells (~100 bytes each), got {cells:,} "
                              f"(n_series={self.n_series}, n_variates={self.n_variates}, "
                              f"n_days={self.n_days})")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def synth_suite_panel(cfg: SuiteConfig, series_index: int) -> tuple[np.ndarray, np.ndarray]:
    """One multivariate panel: cleaned truth [D, T] and keep mask [D, T]."""
    rng = np.random.default_rng([cfg.seed, series_index, 0])
    D, T = cfg.n_variates, cfg.n_days
    t = np.arange(T, dtype=np.float64)
    periods = np.array([20.0, 30.0, 40.0, 60.0])
    values = np.empty((D, T))
    for d in range(D):
        period = periods[d % periods.size]
        amp = rng.uniform(0.6, 1.4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        # total drift comparable to the amplitude whatever the panel length
        slope = rng.uniform(-1.2, 1.2) / T
        noise = rng.normal(0.0, SUITE_NOISE_STD, size=T)
        values[d] = amp * np.sin(2.0 * np.pi * t / period + phase) + slope * t + noise
    if cfg.bursts:
        # shared burst schedule, independent per-variate keep draws
        sched_rng = np.random.default_rng([cfg.seed, series_index, 1])
        keep_prob = np.empty(T)
        pos = 0
        in_burst = True
        while pos < T:
            span = int(sched_rng.integers(*BURST_DAYS) if in_burst
                       else sched_rng.integers(*QUIET_DAYS))
            keep_prob[pos:pos + span] = BURST_KEEP if in_burst else QUIET_KEEP
            pos += span
            in_burst = not in_burst
        avail_rng = np.random.default_rng([cfg.seed, series_index, 2])
        avail = (avail_rng.random((D, T)) < keep_prob).astype(np.float64)
    else:
        avail = np.ones((D, T))
    mask = np.empty((D, T))
    for d in range(D):
        mcar = mcar_sparsify(T, cfg.rate, cfg.seed, series_index * D + d)
        mask[d] = avail[d] * mcar
    return values, mask


def synth_suite(cfg: SuiteConfig, window_stride: int = WINDOW_STRIDE,
                min_events: int = 16) -> dict:
    """Full suite: per-series panels, windowed and chronologically split.

    Windows keep at least ``min_events`` observed times so that every
    pooling stride in the search grid (up to 16) remains applicable.
    """
    parts = []
    for i in range(cfg.n_series):
        values, mask = synth_suite_panel(cfg, i)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            items = make_windows(values, mask, stride=window_stride,
                                 min_events=min_events)
        parts.append(split_windows(items))
    return merge_splits(parts)


# -- visualization dataset -----------------------------------------------------------


# The visualization series spans [0, VIZ_HORIZON] days.
VIZ_HORIZON = 100.0
# Most samples of each phase and of the grid: with all three there a run took
# 3.8 s and 90 MiB RSS and wrote 38 MB (2 CPUs); at 10^6, 43 s, 565 MiB, 367 MB.
MAX_VIZ_SAMPLES = 10**5


@dataclass
class VizConfig:
    """One-variate series with a sparse phase and two dense bursts."""

    n_sparse: int = 12
    n_dense: int = 40
    noise_std: float = 0.02
    delta_threshold: float = 0.3
    conv_kernel: tuple = (0.25, 0.5, 0.25)
    conv_threshold: float = 1.0
    grid_size: int = 100
    seed: int = 0
    tau: float = 2.0
    v_th: float = 0.5
    gamma: float = 1.0

    def __post_init__(self):
        for name, low in (("n_sparse", 1), ("n_dense", 1), ("grid_size", 2)):
            if not low <= getattr(self, name) <= MAX_VIZ_SAMPLES:
                raise ConfigError(f"{name} must lie in [{low}, {MAX_VIZ_SAMPLES}], "
                                  f"got {getattr(self, name)}")
        if not 1 <= len(self.conv_kernel) <= self.grid_size:
            raise ConfigError(f"smoothing kernel needs 1 to grid_size={self.grid_size} "
                              f"weights, got {len(self.conv_kernel)}")
        for name in ("noise_std", "delta_threshold", "conv_threshold", "tau", "v_th", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau <= 0 or self.v_th <= 0:
            raise ConfigError("tau and v_th must be positive")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def viz_baseline(t: np.ndarray) -> np.ndarray:
    """Slow sinusoid plus two unit-height bumps late in the horizon."""
    t = np.asarray(t, dtype=np.float64)
    return (0.5 * np.sin(2.0 * np.pi * t / 40.0)
            + np.exp(-0.5 * ((t - 70.0) / 3.0) ** 2)
            + np.exp(-0.5 * ((t - 85.0) / 2.0) ** 2))


def synth_viz_series(cfg: VizConfig) -> dict:
    """Irregular samples (sparse then dense phase) and a regular grid twin.

    Returns {"t_irr", "x_irr", "t_grid", "x_grid"}.
    """
    rng = np.random.default_rng(cfg.seed)
    t_sparse = np.sort(rng.uniform(0.0, 60.0, size=cfg.n_sparse))
    lo = np.nextafter(60.0, np.inf)
    t_dense = np.sort(rng.uniform(lo, VIZ_HORIZON, size=cfg.n_dense))
    t_irr = np.concatenate([t_sparse, t_dense])
    x_irr = viz_baseline(t_irr) + rng.normal(0.0, cfg.noise_std, size=t_irr.size)
    t_grid = np.linspace(0.0, VIZ_HORIZON, cfg.grid_size)
    x_grid = viz_baseline(t_grid) + rng.normal(0.0, cfg.noise_std, size=t_grid.size)
    return {"t_irr": t_irr, "x_irr": x_irr, "t_grid": t_grid, "x_grid": x_grid}


def baseline_encoders(data: dict, cfg: VizConfig) -> dict:
    """Three reference spike trains for the raster figure.

    delta/conv fire on the regular grid; the event-driven reference runs
    the EA-LIF recurrence (``neuron.ealif_recurrence``, threshold and soft
    reset) directly on the irregular stamps, with beta = exp(-dt / tau) for
    any tau > 0. Returns {name: (times, spikes)}.
    """
    x_grid = np.asarray(data["x_grid"], dtype=np.float64)
    t_grid = np.asarray(data["t_grid"], dtype=np.float64)
    t_irr = np.asarray(data["t_irr"], dtype=np.float64)
    x_irr = np.asarray(data["x_irr"], dtype=np.float64)
    kern = np.asarray(cfg.conv_kernel, dtype=np.float64)
    # a change or threshold gap that overflows still compares right; the check
    # below turns any other overflow of extreme settings into an error
    with np.errstate(over="ignore", invalid="ignore"):
        # change-detection on the grid: first sample never fires
        d_spk = np.zeros(t_grid.size)
        d_spk[1:] = (np.abs(np.diff(x_grid)) >= cfg.delta_threshold).astype(np.float64)
        # smoothing kernel + z-score threshold on the grid
        y = np.convolve(x_grid, kern, mode="same")
        sd = y.std()
        # event-driven recurrence on the irregular stamps; tau <= 1 has no eta,
        # so beta comes from tau directly
        beta = np.exp(-event_gaps(t_irr) / cfg.tau)[:, None]  # one channel: [K, 1]
        drive = (1.0 - beta) * cfg.gamma * (x_irr[:, None] - cfg.delta_threshold)
        m, _ = ealif_recurrence(beta, drive, cfg.v_th)
        e_spk = heaviside(m[:, 0] - cfg.v_th)
    if not (np.all(np.isfinite(y)) and np.isfinite(sd) and np.all(np.isfinite(m))):
        raise ConfigError(f"the reference encoders overflow at smoothing kernel "
                          f"{tuple(kern.tolist())}, noise_std={cfg.noise_std:g}, theta="
                          f"{cfg.delta_threshold:g} and gamma={cfg.gamma:g}; use smaller ones")
    if sd == 0.0:
        c_spk = np.zeros(t_grid.size)
    else:
        c_spk = (((y - y.mean()) / sd) >= cfg.conv_threshold).astype(np.float64)
    return {"delta": (t_grid, d_spk), "conv": (t_grid, c_spk), "event": (t_irr, e_spk)}


# -- dataset directory I/O -------------------------------------------------------------


def write_dataset(out_dir: str, splits: dict, meta: dict) -> None:
    """Write meta.json plus one CSV per split (window, role, t, variate, value)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")
    for split, items in splits.items():
        path = os.path.join(out_dir, f"{split}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["window", "role", "t", "variate", "value"])
            for i, item in enumerate(items):
                s = item.series
                for k in range(s.n_events):
                    for d in range(s.n_variates):
                        if s.mask[k, d] == 1.0:
                            w.writerow([i, "obs", repr(float(s.times[k])), d,
                                        repr(float(s.values[k, d]))])
                for d, (q, y) in enumerate(zip(item.query_times, item.targets)):
                    for t, val in zip(np.asarray(q), np.asarray(y)):
                        w.writerow([i, "query", repr(float(t)), d, repr(float(val))])


def _parse_row(row: list[str], n_variates: int, where: str):
    """(window, role, t, variate, value) of one dataset row, or a DataError at ``where``."""
    if len(row) != 5:
        raise DataError(f"{where}: expected 5 cells (window,role,t,variate,value), "
                        f"got {len(row)}")
    try:
        i, t, d, v = int(row[0]), float(row[2]), int(row[3]), float(row[4])
    except ValueError as e:
        raise DataError(f"{where}: {e}") from None
    if not 0 <= d < n_variates:
        raise DataError(f"{where}: variate {d} outside 0..{n_variates - 1}")
    for name, x, bound in (("stamp", t, MAX_ABS_STAMP), ("value", v, MAX_ABS_VALUE)):
        if not abs(x) <= bound:  # NaN fails too
            raise DataError(f"{where}: {name} {x!r} outside [-{bound:g}, {bound:g}]")
    return i, row[1], t, d, v


def read_dataset(data_dir: str) -> tuple[dict, dict]:
    """Inverse of write_dataset. Returns (splits, meta)."""
    meta_path = os.path.join(data_dir, "meta.json")
    if not os.path.exists(meta_path):
        raise DataError(f"{data_dir}: missing meta.json")
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        n_variates = int(meta["n_variates"])
    except (ValueError, TypeError, KeyError) as e:  # JSONDecodeError is a ValueError
        raise DataError(f"{meta_path}: need a JSON object with integer n_variates: {e!r}") from None
    splits = {}
    for split in ("train", "val", "test"):
        path = os.path.join(data_dir, f"{split}.csv")
        if not os.path.exists(path):
            continue
        windows: dict[int, dict] = {}
        with open(path, newline="") as f:
            r = csv.reader(f)
            header = next(r)
            if header != ["window", "role", "t", "variate", "value"]:
                raise DataError(f"{path}: unexpected header {header}")
            for row in r:
                i, role, t, d, v = _parse_row(row, n_variates, f"{path}:{r.line_num}")
                w = windows.setdefault(i, {"obs": [[] for _ in range(n_variates)],
                                           "q": [[] for _ in range(n_variates)]})
                if role == "obs":
                    w["obs"][d].append((t, v))
                elif role == "query":
                    w["q"][d].append((t, v))
                else:
                    raise DataError(f"{path}:{r.line_num}: unknown role {role!r}")
        items = []
        for i in sorted(windows):
            w = windows[i]
            per_variate = []
            for d in range(n_variates):
                if w["obs"][d]:
                    ts, vs = zip(*w["obs"][d])
                else:
                    ts, vs = (), ()
                per_variate.append((np.array(ts, dtype=np.float64),
                                    np.array(vs, dtype=np.float64)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    series = align_events(per_variate)
                except DataError as e:
                    raise DataError(f"{path}: window {i}: {e}") from None
            queries, targets = [], []
            for d in range(n_variates):
                if w["q"][d]:
                    qs, ys = zip(*w["q"][d])
                else:
                    qs, ys = (), ()
                queries.append(np.array(qs, dtype=np.float64))
                targets.append(np.array(ys, dtype=np.float64))
            if not any(q.size for q in queries):  # nothing to forecast, and no loss to train on
                raise DataError(f"{path}: window {i}: no query row")
            items.append(WindowItem(series=series, query_times=queries, targets=targets))
        splits[split] = items
    return splits, meta


def dataset_meta(source: str, splits: dict, n_variates: int, n_days: int, rate: float,
                 seed: int, window_stride: int, **extra) -> dict:
    """meta.json of a prepared dataset, plus its source's ``extra`` entries
    (a suite's ``n_series``; a corpus's ``ids`` and ``clean``)."""
    return {"source": source, "n_variates": n_variates, "n_days": n_days, "rate": rate,
            "seed": seed, "history_days": HISTORY_DAYS, "horizon_days": HORIZON_DAYS,
            "window_stride": window_stride, "splits": {k: len(v) for k, v in splits.items()},
            **extra}


def prepare_corpus(csv_path: str, clean_cfg: CleanConfig, n_variates: int | None = None,
                   window_stride: int = WINDOW_STRIDE) -> tuple[dict, dict]:
    """Full ingestion pipeline for one wide CSV: clean, sparsify, window, split."""
    ids, raw = load_csv(csv_path, n_variates=n_variates)
    D, T = raw.shape
    cleaned = np.empty_like(raw)
    for d in range(D):  # series d is the file's row d + 2, after the header
        try:
            cleaned[d] = clean_series(raw[d], clean_cfg)
        except DataError as e:
            raise DataError(f"{csv_path}: series {ids[d]!r} at row {d + 2}: {e}") from None
    mask = np.stack([mcar_sparsify(T, clean_cfg.rate, clean_cfg.seed, d)
                     for d in range(D)])
    items = make_windows(cleaned, mask, stride=window_stride)
    splits = split_windows(items)
    meta = dataset_meta(os.path.basename(csv_path), splits, D, T, clean_cfg.rate,
                        clean_cfg.seed, window_stride, ids=ids,
                        clean={"window": clean_cfg.window, "gap_cap": clean_cfg.gap_cap,
                               "outlier_mult": clean_cfg.outlier_mult})
    return splits, meta

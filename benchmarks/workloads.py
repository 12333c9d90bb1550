"""Seeded inputs for the benchmark workloads.

Every workload returns ``train``/``val``/``test`` lists of ``WindowItem``;
the same seed always gives the same inputs, and ``scale`` standardizes them
with train-split statistics. The model never sees the seed, only the
generated windows.
"""

from __future__ import annotations

import numpy as np

from sedformer import Standardizer, SuiteConfig, align_events, split_windows, synth_suite
from sedformer.data import HISTORY_DAYS, HORIZON_DAYS
from sedformer.training import WindowItem

WINDOW_STRIDE = 30
PERIODS = (20.0, 30.0, 40.0, 60.0)

# async_long: each variate is sampled at its own Poisson times in continuous
# time, so no two variates share a stamp and each event observes one variate.
ASYNC_VARIATES = 8
ASYNC_OBS_PER_DAY = 40.0 / HISTORY_DAYS
ASYNC_QUERIES = 10


def suite(seed: int) -> dict:
    """The reference input: K about 84 events per window, D=4."""
    return synth_suite(SuiteConfig(n_days=600, seed=seed))


def sparse_short(seed: int) -> dict:
    """Same family at 95 % dropout: K about 16, so per-window overhead rules.

    No window is filtered for being short (``min_events=1``).
    """
    return synth_suite(SuiteConfig(n_days=600, rate=0.95, seed=seed), min_events=1)


def async_long(seed: int, n_series: int, n_days: int) -> dict:
    """Asynchronous IMTS with continuous stamps: K about 320, D=8.

    Truths follow the sinusoid-plus-trend family of ``SuiteConfig``; each
    variate gets ``ASYNC_QUERIES`` continuous query times in the horizon.
    """
    splits = {"train": [], "val": [], "test": []}
    for i in range(n_series):
        rng = np.random.default_rng([seed, i, 7])
        D = ASYNC_VARIATES
        period = np.array([PERIODS[d % len(PERIODS)] for d in range(D)])
        amp = rng.uniform(0.6, 1.4, D)
        phase = rng.uniform(0.0, 2.0 * np.pi, D)
        slope = rng.uniform(-1.2, 1.2, D) / n_days

        def truth(d, t):
            return (amp[d] * np.sin(2.0 * np.pi * t / period[d] + phase[d])
                    + slope[d] * t + rng.normal(0.0, 0.02, np.shape(t)))

        stamps = [np.sort(rng.uniform(0.0, n_days, rng.poisson(ASYNC_OBS_PER_DAY * n_days)))
                  for _ in range(D)]
        values = [truth(d, stamps[d]) for d in range(D)]
        items = []
        for start in range(0, n_days - HISTORY_DAYS - HORIZON_DAYS + 1, WINDOW_STRIDE):
            per_variate = []
            for t, v in zip(stamps, values):
                keep = (t >= start) & (t < start + HISTORY_DAYS)
                per_variate.append((t[keep] - start, v[keep]))
            queries = [np.sort(rng.uniform(HISTORY_DAYS, HISTORY_DAYS + HORIZON_DAYS,
                                           ASYNC_QUERIES)) for _ in range(D)]
            targets = [truth(d, start + q) for d, q in enumerate(queries)]
            items.append(WindowItem(series=align_events(per_variate),
                                    query_times=queries, targets=targets))
        for name, part in split_windows(items).items():
            splits[name].extend(part)
    return splits


def scale(splits: dict) -> dict:
    """Standardize every split with statistics of the train split."""
    scaler = Standardizer.fit(splits["train"])
    return {name: [scaler.transform_item(it) for it in items]
            for name, items in splits.items()}

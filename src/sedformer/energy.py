"""Operation counting and 45 nm energy estimation.

Counts and firing rates come from the forward's own ops (a ``mac_counter``
with a scope per layer), never from formulas or assumptions; the dense
reference runs the same model on a regular grid. Dense (value-driven)
layers are billed per multiply-accumulate and addition; spike-driven ones
per synaptic operation (accumulate + compare + one read and one write).
e_mac and e_add follow published 45 nm figures; the accumulate/compare/
read/write values are representative small-SRAM numbers, labeled as
configured, not sourced, in every report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .encoder import EventSeries
from .errors import ConfigError, DataError
from .model import SedFormer
from .tensor import mac_counter, no_grad
from .training import WindowItem

CONFIG_NOTE = "e_acc/e_cmp/e_rd/e_wr are configured values, not published measurements"


@dataclass
class OpCounts:
    """Per-layer activity: dense arithmetic, memory traffic, spike ops."""

    n_mac: int = 0
    n_add: int = 0
    n_rd: int = 0
    n_wr: int = 0
    sop: int = 0

    def __post_init__(self):
        for name in ("n_mac", "n_add", "n_rd", "n_wr", "sop"):
            v = getattr(self, name)
            if v < 0 or int(v) != v:
                raise ConfigError(f"{name} must be a nonnegative integer, got {v}")
            setattr(self, name, int(v))

    def scaled(self, factor: int) -> "OpCounts":
        return OpCounts(self.n_mac * factor, self.n_add * factor,
                        self.n_rd * factor, self.n_wr * factor, self.sop * factor)


@dataclass
class EnergyModel:
    """Per-operation energies in pJ (45 nm)."""

    e_mac: float = 4.6
    e_add: float = 0.9
    e_acc: float = 0.9
    e_cmp: float = 0.1
    e_rd: float = 5.0
    e_wr: float = 5.0

    def __post_init__(self):
        for name in ("e_mac", "e_add", "e_acc", "e_cmp", "e_rd", "e_wr"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")


def dense_counts(n_mac: int, n_rd: int, n_wr: int) -> OpCounts:
    """Dense activity of MACs that read ``n_rd`` and write ``n_wr`` values:
    each value written ends one sum, so n products take n - 1 additions."""
    return OpCounts(n_mac=n_mac, n_add=n_mac - n_wr, n_rd=n_rd, n_wr=n_wr)


def count_ann_layer(d_in: int, d_out: int, t_eff: int) -> OpCounts:
    """Dense layer activity over t_eff steps: n_mac = d_in*d_out*t_eff,
    one parameter fetch per invocation plus per-step activation reads and
    writes. Zero steps means zero activity of every kind.
    """
    if d_in < 1 or d_out < 1:
        raise ConfigError(f"dims must be positive, got d_in={d_in}, d_out={d_out}")
    if t_eff < 0:
        raise ConfigError(f"t_eff must be nonnegative, got {t_eff}")
    if t_eff == 0:
        return OpCounts()
    return dense_counts(d_in * d_out * t_eff, d_in * d_out + d_in * t_eff, d_out * t_eff)


def count_snn_layer(rho: float, events: int, d_out: int, n_params: int = 0) -> OpCounts:
    """Spike-driven layer: sop = round(rho * events * d_out).

    ``rho`` is the measured firing rate (spikes per spike slot), ``events``
    the number of observed event steps, ``d_out`` the fan-out per spike.
    ``n_params`` bills one fetch per parameter.
    """
    if not (0.0 <= rho <= 1.0):
        raise ConfigError(f"firing rate must lie in [0, 1], got {rho}")
    if events < 0 or d_out < 1:
        raise ConfigError(f"need events >= 0 and d_out >= 1, got {events}, {d_out}")
    return OpCounts(sop=int(round(rho * events * d_out)), n_rd=int(n_params))


def layer_energy(kind: str, counts: OpCounts, em: EnergyModel) -> float:
    """Energy in pJ for one layer's counts.

    Dense: n_mac*e_mac + n_add*e_add + memory traffic. Spiking: each sop
    bundles accumulate + compare + read + write, plus parameter fetches
    billed through n_rd/n_wr.
    """
    if kind == "ann":
        return (counts.n_mac * em.e_mac + counts.n_add * em.e_add
                + counts.n_rd * em.e_rd + counts.n_wr * em.e_wr)
    if kind == "snn":
        bundle = em.e_acc + em.e_cmp + em.e_rd + em.e_wr
        return counts.sop * bundle + counts.n_rd * em.e_rd + counts.n_wr * em.e_wr
    raise ConfigError(f"layer kind must be 'ann' or 'snn', got {kind!r}")


def energy_estimate(layers: list[tuple[str, str, OpCounts]],
                    em: EnergyModel) -> dict:
    """Total pJ plus a per-layer breakdown for (name, kind, counts) triples."""
    rows = []
    total = 0.0
    for name, kind, counts in layers:
        pj = layer_energy(kind, counts, em)
        total += pj
        rows.append({"layer": name, "kind": kind, "pj": pj, **asdict(counts)})
    return {"total_pj": total, "layers": rows, "note": CONFIG_NOTE}


# -- model-level accounting ------------------------------------------------------------


def measure_spike_stats(model: SedFormer, items: list[WindowItem]) -> dict:
    """Raw and pooled event counts and firing rates (spikes per spike slot),
    and under ``ops`` [MACs, reads, writes] per forward scope, from one
    ``model.forward`` per item inside a ``mac_counter`` (hard spikes, no
    tape, so no pad rows)."""
    with no_grad(), mac_counter() as counter:
        for item in items:
            model.forward(item.series, item.query_times)
    raw_events, raw_spikes, raw_slots = counter.spikes.get("spike_scan", (0, 0.0, 0))
    pooled_events, pooled_spikes, pooled_slots = counter.spikes.get("pool", (0, 0.0, 0))
    return {"raw_events": raw_events, "pooled_events": pooled_events,
            "raw_rate": raw_spikes / raw_slots if raw_slots else 0.0,
            "pooled_rate": pooled_spikes / pooled_slots if pooled_slots else 0.0,
            "ops": counter.ops}


def count_model_layers(model: SedFormer, stats: dict,
                       n_queries: int | None = None) -> list[tuple[str, str, OpCounts]]:
    """One row per forward scope of ``measure_spike_stats``, billed dense,
    except the token embedding: it consumes the binary pooled raster, so
    only rows of the embedding matrix selected by spikes are accumulated,
    billed as synaptic operations (its row still shows the forward's MACs).
    The decoder row holds the decoded queries; ``n_queries`` is unused."""
    c = model.config
    embed = count_snn_layer(stats["pooled_rate"], stats["pooled_events"] * c.n_variates, c.dim,
                            n_params=c.conv_channels * c.dim)
    return [(name, "snn", replace(embed, n_mac=row[0])) if name == "embed"
            else (name, "ann", dense_counts(*row)) for name, row in stats["ops"].items()]


def model_energy_report(model: SedFormer, items: list[WindowItem],
                        em: EnergyModel | None = None,
                        grid_steps: int | None = None) -> dict:
    """Energy breakdown for evaluating ``items``, plus a dense-grid reference.

    The reference runs the same model on regular-grid copies of the windows
    (``grid_steps`` split evenly across them, default 90 each; every variate
    observed at every step; the same queries) and bills every row dense,
    giving the reported dense/event ratio.
    """
    em = em or EnergyModel()
    n = len(items)
    if n == 0:
        raise DataError("an energy report needs at least one window")
    grid_steps = 90 * n if grid_steps is None else int(grid_steps)
    if grid_steps < n:
        raise ConfigError(f"grid_steps must give each of the {n} windows a step, got {grid_steps}")
    stats = measure_spike_stats(model, items)
    report = energy_estimate(count_model_layers(model, stats), em)
    if report["total_pj"] == 0:
        raise ConfigError("the event-driven total is 0 pJ, so it has no ratio to the dense "
                          "reference: set a positive per-op energy among "
                          + ", ".join(f"{k}={v:g}" for k, v in asdict(em).items()))
    report["firing"] = {k: v for k, v in stats.items() if k != "ops"}
    grid = []
    for i, it in enumerate(items):
        k, t, D = grid_steps // n + (i < grid_steps % n), it.series.times, it.series.n_variates
        times = np.linspace(t[0] if t[-1] > t[0] else t[-1] - k + 1, t[-1], k)
        # values are 0: no count depends on them
        grid.append(replace(it, series=EventSeries(times, np.zeros((k, D)), np.ones((k, D)))))
    ref = energy_estimate([(name, "ann", dense_counts(*row))
                           for name, row in measure_spike_stats(model, grid)["ops"].items()], em)
    report["dense_reference_pj"] = ref["total_pj"]
    report["dense_over_event_ratio"] = ref["total_pj"] / report["total_pj"]
    return report


def render_table(report: dict) -> str:
    """Human-readable fixed-width table of a report."""
    lines = [f"{'layer':<20} {'kind':<5} {'n_mac':>12} {'n_add':>12} "
             f"{'n_rd':>10} {'n_wr':>10} {'sop':>10} {'pJ':>14}"]
    for row in report["layers"]:
        lines.append(f"{row['layer']:<20} {row['kind']:<5} {row['n_mac']:>12} "
                     f"{row['n_add']:>12} {row['n_rd']:>10} {row['n_wr']:>10} "
                     f"{row['sop']:>10} {row['pj']:>14.1f}")
    lines.append(f"{'total':<20} {'':<5} {'':>12} {'':>12} {'':>10} {'':>10} {'':>10} "
                 f"{report['total_pj']:>14.1f}")
    if "dense_reference_pj" in report:
        lines.append(f"dense-grid reference: {report['dense_reference_pj']:.1f} pJ "
                     f"(x{report['dense_over_event_ratio']:.2f} vs event-driven)")
    lines.append(f"note: {report['note']}")
    return "\n".join(lines)

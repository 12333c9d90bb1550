"""Theoretical operation counting and 45 nm energy estimation.

Dense (value-driven) layers are billed per multiply-accumulate and
addition; spike-driven layers are billed per synaptic operation, where
each spike triggers accumulate + compare + one read and one write. Firing
rates are measured from forward passes, never assumed. e_mac and e_add
follow published 45 nm figures; the accumulate/compare/read/write values
are representative small-SRAM numbers and are labeled as configured, not
sourced, in every report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .downsample import pool_events
from .errors import ConfigError
from .model import SedFormer
from .tensor import no_grad
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
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")


def count_ann_layer(d_in: int, d_out: int, t_eff: int) -> OpCounts:
    """Dense layer activity over t_eff steps.

    n_mac = d_in*d_out*t_eff, n_add = d_out*(d_in-1)*t_eff; memory traffic
    is one parameter fetch per invocation plus per-step activation reads
    and writes. Zero steps means zero activity of every kind.
    """
    if d_in < 1 or d_out < 1:
        raise ConfigError(f"dims must be positive, got d_in={d_in}, d_out={d_out}")
    if t_eff < 0:
        raise ConfigError(f"t_eff must be nonnegative, got {t_eff}")
    if t_eff == 0:
        return OpCounts()
    return OpCounts(
        n_mac=d_in * d_out * t_eff,
        n_add=d_out * (d_in - 1) * t_eff,
        n_rd=d_in * d_out + d_in * t_eff,
        n_wr=d_out * t_eff,
    )


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
        rows.append({"layer": name, "kind": kind, "pj": pj,
                     "n_mac": counts.n_mac, "n_add": counts.n_add,
                     "n_rd": counts.n_rd, "n_wr": counts.n_wr, "sop": counts.sop})
    return {"total_pj": total, "layers": rows, "note": CONFIG_NOTE}


# -- model-level accounting ------------------------------------------------------------


def measure_spike_stats(model: SedFormer, items: list[WindowItem]) -> dict:
    """Empirical firing rates and event counts from forward passes.

    Runs the encoder and pooling with hard spikes and no tape, and reports,
    over all items: raw events, pooled events, spike rates of the raw and
    pooled rasters (spikes / spike slots).
    """
    raw_events = pooled_events = 0
    raw_spikes = raw_slots = 0.0
    pooled_spikes = pooled_slots = 0.0
    with no_grad():
        for item in items:
            s = item.series
            spikes, _ = model.encoder.encode(s, smooth=False)
            raw_events += s.n_events
            raw_spikes += float(spikes.data.sum())
            raw_slots += spikes.size
            pooled, _, _ = pool_events(spikes, s.mask, s.times, model.config.pool_stride)
            pooled_events += pooled.shape[0]
            pooled_spikes += float(pooled.data.sum())
            pooled_slots += pooled.size
    return {
        "raw_events": raw_events,
        "pooled_events": pooled_events,
        "raw_rate": raw_spikes / raw_slots if raw_slots else 0.0,
        "pooled_rate": pooled_spikes / pooled_slots if pooled_slots else 0.0,
    }


def count_model_layers(model: SedFormer, stats: dict,
                       n_queries: int) -> list[tuple[str, str, OpCounts]]:
    """Per-layer activity of one evaluation pass over the measured items.

    The convolution and everything after the token embedding consume
    continuous values (dense accounting); the token embedding consumes the
    binary pooled raster, so it is spike-driven: only rows of the
    embedding matrix selected by spikes are accumulated.
    """
    c = model.config
    K, Kp = stats["raw_events"], stats["pooled_events"]
    D, C, d = c.n_variates, c.conv_channels, c.dim
    dh = d // c.heads
    layers: list[tuple[str, str, OpCounts]] = []
    conv = OpCounts(
        n_mac=K * D * C * c.kernel_size,
        n_add=K * D * C * (c.kernel_size - 1),
        n_rd=D * C * c.kernel_size + K * D,
        n_wr=K * D * C)
    layers.append(("encoder.conv", "ann", conv))
    # gate + current + scan: a handful of elementwise ops per event slot
    scan = OpCounts(n_mac=3 * K * D * C, n_add=2 * K * D * C,
                    n_rd=K * D * C, n_wr=K * D * C)
    layers.append(("encoder.dynamics", "ann", scan))
    layers.append(("embed", "snn",
                   count_snn_layer(stats["pooled_rate"], Kp * D, d, n_params=C * d)))
    tokens = Kp * D
    for i in range(c.blocks):
        proj = count_ann_layer(d, d, tokens)
        attn = OpCounts(
            n_mac=4 * proj.n_mac + tokens * d * dh + tokens * (dh * dh + dh) * c.heads,
            n_add=4 * proj.n_add,
            n_rd=4 * proj.n_rd, n_wr=4 * proj.n_wr)
        layers.append((f"block{i}.attention", "ann", attn))
        ffn1 = count_ann_layer(d, 2 * d, tokens)
        ffn2 = count_ann_layer(2 * d, d, tokens)
        ffn = OpCounts(ffn1.n_mac + ffn2.n_mac, ffn1.n_add + ffn2.n_add,
                       ffn1.n_rd + ffn2.n_rd, ffn1.n_wr + ffn2.n_wr)
        layers.append((f"block{i}.ffn", "ann", ffn))
    dec1 = count_ann_layer(2 * d, 2 * d, n_queries)
    dec2 = count_ann_layer(2 * d, 2 * d, n_queries)
    dec3 = count_ann_layer(2 * d, 1, n_queries)
    dec = OpCounts(dec1.n_mac + dec2.n_mac + dec3.n_mac,
                   dec1.n_add + dec2.n_add + dec3.n_add,
                   dec1.n_rd + dec2.n_rd + dec3.n_rd,
                   dec1.n_wr + dec2.n_wr + dec3.n_wr)
    layers.append(("decoder", "ann", dec))
    return layers


def model_energy_report(model: SedFormer, items: list[WindowItem],
                        em: EnergyModel | None = None,
                        grid_steps: int | None = None) -> dict:
    """Energy breakdown for evaluating ``items``, plus a dense-grid reference.

    The reference re-bills the same architecture as if it ran on a regular
    grid of ``grid_steps`` steps (default: 90 per item) with dense
    arithmetic everywhere, giving the reported dense/event ratio.
    """
    em = em or EnergyModel()
    stats = measure_spike_stats(model, items)
    n_queries = int(sum(it.n_queries for it in items))
    layers = count_model_layers(model, stats, n_queries)
    report = energy_estimate(layers, em)
    report["firing"] = stats
    if grid_steps is None:
        grid_steps = 90 * len(items)
    ref_stats = dict(stats)
    ref_stats["raw_events"] = grid_steps
    ref_stats["pooled_events"] = max(grid_steps // model.config.pool_stride, 1)
    ref_layers = []
    for name, _, counts in count_model_layers(model, ref_stats, n_queries):
        if name == "embed":
            c = model.config
            dense = count_ann_layer(c.conv_channels, c.dim,
                                    ref_stats["pooled_events"] * c.n_variates)
            ref_layers.append((name, "ann", dense))
        else:
            ref_layers.append((name, "ann", counts))
    ref = energy_estimate(ref_layers, em)
    report["dense_reference_pj"] = ref["total_pj"]
    report["dense_over_event_ratio"] = (
        ref["total_pj"] / report["total_pj"] if report["total_pj"] > 0 else float("inf"))
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

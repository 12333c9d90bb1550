"""Command-line entry point: prepare | train | eval | viz | energy.

Every command resolves its options (defaults < --config file < explicit
flags), writes the resolved configuration next to its outputs, and is
deterministic for fixed seed and flags. Exit codes: 0 success, 1 internal
error, 2 usage or data error. The SEDFORMER_OUT environment variable sets
the root that relative --out-dir paths are joined to.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings

import numpy as np

from . import data as data_mod
from . import viz as viz_mod
from .energy import EnergyModel, model_energy_report, render_table
from .errors import ConfigError, DataError, SedformerError
from .model import ModelConfig, SedFormer
from .training import (TrainConfig, baseline_metrics, evaluate, flat_errors,
                       flat_metrics, load_checkpoint, save_checkpoint, train)

OUT_ROOT_ENV = "SEDFORMER_OUT"


def _rate(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0.0 <= v <= 1.0):
        raise argparse.ArgumentTypeError(f"rate must lie in [0, 1], got {v}")
    return v


def _kernel(text: str) -> tuple[float, ...]:
    """Comma-separated finite floats, e.g. ``0.25,0.5,0.25``."""
    try:
        weights = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not all(np.isfinite(weights)):
        raise argparse.ArgumentTypeError(f"kernel weights must be finite, got {text!r}")
    return weights


def _out_dir(path: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, ".")
    full = path if os.path.isabs(path) else os.path.join(root, path)
    os.makedirs(full, exist_ok=True)
    return full


def _config_file(path: str, command: str, defaults: dict) -> dict:
    """Settings of a --config file: a JSON object keyed by option name.

    Each value goes through its flag (``"batch_size": 8`` as ``--batch-size=8``)
    and so meets its type and choices; a store-true flag takes true or false,
    and null keeps the default.
    """
    with open(path) as f:
        try:
            cfg = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    argv = [command]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if defaults[key] is False and isinstance(value, bool):  # store-true
            argv += [flag] * value
        elif value is not None:
            argv.append(f"{flag}={value}")
    try:
        parsed = vars(build_parser(exit_on_error=False).parse_args(argv))
    except argparse.ArgumentError as e:
        raise ConfigError(f"{path}: {e}") from None
    return {key: parsed[key] for key in cfg if parsed[key] is not None}


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags (flags parse to None when unset)."""
    resolved = dict(defaults)
    if args.config:
        resolved.update(_config_file(args.config, args.command, defaults))
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            resolved[key] = v
    return resolved


def _write_config(out_dir: str, command: str, resolved: dict) -> None:
    blob = {"command": command, **resolved}
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(blob, f, sort_keys=True, indent=2)
        f.write("\n")


# -- prepare ---------------------------------------------------------------------

PREPARE_DEFAULTS = {
    "corpus": None, "synthetic": False, "variates": None, "rate": 0.5, "seed": 0,
    "window_stride": 30, "gap_cap": 3, "mad_window": 5, "outlier_mult": 6.0,
    "series": 8, "synth_variates": 4, "days": 240,
}


def cmd_prepare(args) -> int:
    r = _resolve(PREPARE_DEFAULTS, args)
    out = _out_dir(args.out_dir)
    if bool(r["corpus"]) == bool(r["synthetic"]):
        raise ConfigError("choose exactly one of --corpus PATH or --synthetic")
    # checked in both modes, since config.json records the cleaning settings either way
    clean_cfg = data_mod.CleanConfig(window=int(r["mad_window"]), gap_cap=int(r["gap_cap"]),
                                     outlier_mult=float(r["outlier_mult"]),
                                     rate=float(r["rate"]), seed=int(r["seed"]))
    if r["synthetic"]:
        cfg = data_mod.SuiteConfig(n_series=int(r["series"]),
                                   n_variates=int(r["synth_variates"]),
                                   n_days=int(r["days"]), rate=float(r["rate"]),
                                   seed=int(r["seed"]))
        splits = data_mod.synth_suite(cfg, window_stride=int(r["window_stride"]))
        meta = {
            "source": "synthetic", "n_variates": cfg.n_variates,
            "n_series": cfg.n_series, "n_days": cfg.n_days,
            "rate": cfg.rate, "seed": cfg.seed,
            "window_stride": int(r["window_stride"]),
            "history_days": data_mod.HISTORY_DAYS,
            "horizon_days": data_mod.HORIZON_DAYS,
            "splits": {k: len(v) for k, v in splits.items()},
        }
    else:
        if not os.path.exists(r["corpus"]):
            raise DataError(f"corpus not found: {r['corpus']}")
        n_var = int(r["variates"]) if r["variates"] is not None else None
        splits, meta = data_mod.prepare_corpus(r["corpus"], clean_cfg,
                                               n_variates=n_var,
                                               window_stride=int(r["window_stride"]))
    if not splits["train"]:
        source = f"days={r['days']}" if r["synthetic"] else f"corpus {r['corpus']}"
        raise DataError(f"{source} gives no training window ({data_mod.WINDOW_DAYS} days each)")
    data_mod.write_dataset(out, splits, meta)
    _write_config(out, "prepare", r)
    print(f"prepared dataset in {out}: " +
          ", ".join(f"{k}={len(v)}" for k, v in splits.items()))
    return 0


# -- train -----------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "data": None, "epochs": 5, "batch_size": 16, "lr": 1e-3, "grad_clip": None,
    "seed": 0, "tau": 2.0, "stride": 4, "blocks": 2, "dim": 32, "heads": 4,
    "channels": 8, "kernel_size": 3, "first_gap": "zero",
}


def _load_splits(data_dir: str) -> tuple[dict, dict]:
    if not data_dir or not os.path.isdir(data_dir):
        raise DataError(f"dataset directory not found: {data_dir!r}")
    return data_mod.read_dataset(data_dir)


def cmd_train(args) -> int:
    r = _resolve(TRAIN_DEFAULTS, args)
    out = _out_dir(args.out_dir)
    splits, meta = _load_splits(r["data"])
    if not splits.get("train"):
        raise DataError("dataset has no training windows")
    model_cfg = ModelConfig(
        n_variates=int(meta["n_variates"]), conv_channels=int(r["channels"]),
        kernel_size=int(r["kernel_size"]), dim=int(r["dim"]), heads=int(r["heads"]),
        blocks=int(r["blocks"]), pool_stride=int(r["stride"]),
        tau_init=float(r["tau"]), first_gap=str(r["first_gap"]), seed=int(r["seed"]))
    train_cfg = TrainConfig(
        epochs=int(r["epochs"]), batch_size=int(r["batch_size"]), lr=float(r["lr"]),
        grad_clip=None if r["grad_clip"] is None else float(r["grad_clip"]),
        seed=int(r["seed"]))
    scaler = data_mod.Standardizer.fit(splits["train"])
    scaled = {k: [scaler.transform_item(it) for it in v] for k, v in splits.items()}
    model = SedFormer(model_cfg)
    result = train(model, scaled["train"], scaled.get("val", []), train_cfg,
                   log=lambda msg: print(msg))
    save_checkpoint(os.path.join(out, "checkpoint.json"), model)
    with open(os.path.join(out, "scaler.json"), "w") as f:
        json.dump(scaler.to_dict(), f, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out, "history.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_mse", "val_mae"])
        for h in result["history"]:
            w.writerow([h["epoch"], repr(h["train_loss"]), repr(h["val_mse"]),
                        repr(h["val_mae"])])
    _write_config(out, "train", r)
    print(f"trained {train_cfg.epochs} epochs; best epoch {result['best_epoch']} "
          f"(val mse {result['best_val_mse']:.6f}); checkpoint in {out}")
    return 0


# -- eval ------------------------------------------------------------------------

EVAL_DEFAULTS = {"data": None, "checkpoint": None, "split": "test"}


def _load_model_and_scaler(ckpt_path: str):
    if not ckpt_path or not os.path.exists(ckpt_path):
        raise DataError(f"checkpoint not found: {ckpt_path!r}")
    model = load_checkpoint(ckpt_path)
    scaler_path = os.path.join(os.path.dirname(ckpt_path) or ".", "scaler.json")
    scaler = None
    if os.path.exists(scaler_path):
        with open(scaler_path) as f:
            try:
                scaler = data_mod.Standardizer.from_dict(json.load(f))
            except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as e:
                raise ConfigError(f"scaler {scaler_path}: malformed content: {e!r}") from None
        if scaler.mean.size != model.config.n_variates:
            raise ConfigError(f"scaler {scaler_path} has {scaler.mean.size} variates, the "
                              f"checkpoint's model {model.config.n_variates}")
    return model, scaler


def _eval_split(model: SedFormer, scaler, items) -> dict:
    """Metrics in raw units: scale inputs, predict, invert, pool errors."""
    errs = []
    for item in items:
        inp = scaler.transform_item(item) if scaler else item
        preds = model.predict(inp.series, item.query_times)
        if scaler:
            preds = scaler.inverse(preds)
        errs.append(flat_errors(preds, item.targets))
    return flat_metrics(np.concatenate(errs) if errs else np.zeros(0))


def cmd_eval(args) -> int:
    r = _resolve(EVAL_DEFAULTS, args)
    out = _out_dir(args.out_dir)
    splits, meta = _load_splits(r["data"])
    model, scaler = _load_model_and_scaler(r["checkpoint"])
    wanted = list(splits) if r["split"] == "all" else [r["split"]]
    for s in wanted:
        if s not in splits:
            raise DataError(f"split {s!r} not in dataset (has {sorted(splits)})")
    rate = meta.get("rate", float("nan"))
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rate", "split", "mse", "mae", "n_queries"])
        for s in wanted:
            m = _eval_split(model, scaler, splits[s])
            w.writerow([rate, s, repr(m["mse"]), repr(m["mae"]), m["n_queries"]])
            print(f"{s}: mse={m['mse']:.6f} mae={m['mae']:.6f} n={m['n_queries']}")
    with open(os.path.join(out, "baselines.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["baseline", "rate", "split", "mse", "mae", "n_queries"])
        for s in wanted:
            for kind in ("persistence", "mean"):
                m = baseline_metrics(splits[s], kind)
                w.writerow([kind, rate, s, repr(m["mse"]), repr(m["mae"]),
                            m["n_queries"]])
    _write_config(out, "eval", r)
    return 0


# -- viz -------------------------------------------------------------------------

VIZ_DEFAULTS = {
    "sparse": 12, "dense": 40, "noise_std": 0.02, "theta": 0.3,
    "kernel": (0.25, 0.5, 0.25), "tau_c": 1.0, "grid": 100, "seed": 0,
    "tau": 2.0, "v_th": 0.5, "gamma": 1.0,
}


def cmd_viz(args) -> int:
    r = _resolve(VIZ_DEFAULTS, args)
    out = _out_dir(args.out_dir)
    cfg = data_mod.VizConfig(
        n_sparse=int(r["sparse"]), n_dense=int(r["dense"]),
        noise_std=float(r["noise_std"]), delta_threshold=float(r["theta"]),
        conv_kernel=tuple(r["kernel"]), conv_threshold=float(r["tau_c"]),
        grid_size=int(r["grid"]), seed=int(r["seed"]), tau=float(r["tau"]),
        v_th=float(r["v_th"]), gamma=float(r["gamma"]))
    series = data_mod.synth_viz_series(cfg)
    encoders = data_mod.baseline_encoders(series, cfg)
    paths = viz_mod.write_raster(os.path.join(out, "viz"), series, encoders)
    _write_config(out, "viz", r)
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0


# -- energy ----------------------------------------------------------------------

ENERGY_DEFAULTS = {
    "data": None, "checkpoint": None, "split": "test", "grid_steps": None,
    "e_mac": 4.6, "e_add": 0.9, "e_acc": 0.9, "e_cmp": 0.1, "e_rd": 5.0, "e_wr": 5.0,
}


def cmd_energy(args) -> int:
    r = _resolve(ENERGY_DEFAULTS, args)
    out = _out_dir(args.out_dir)
    splits, _meta = _load_splits(r["data"])
    model, scaler = _load_model_and_scaler(r["checkpoint"])
    if r["split"] not in splits:
        raise DataError(f"split {r['split']!r} not in dataset (has {sorted(splits)})")
    items = splits[r["split"]]
    if scaler:
        items = [scaler.transform_item(it) for it in items]
    em = EnergyModel(e_mac=float(r["e_mac"]), e_add=float(r["e_add"]),
                     e_acc=float(r["e_acc"]), e_cmp=float(r["e_cmp"]),
                     e_rd=float(r["e_rd"]), e_wr=float(r["e_wr"]))
    report = model_energy_report(model, items, em, grid_steps=r["grid_steps"])
    with open(os.path.join(out, "energy.json"), "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    table = render_table(report)
    with open(os.path.join(out, "energy.txt"), "w") as f:
        f.write(table)
        f.write("\n")
    _write_config(out, "energy", r)
    print(table)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sedformer", exit_on_error=exit_on_error,
                                description="Event-synchronous spiking forecaster")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary):
        sp = sub.add_parser(name, help=summary, exit_on_error=exit_on_error)
        sp.add_argument("--out-dir", default=".", help="output directory "
                        f"(relative paths join ${OUT_ROOT_ENV})")
        sp.add_argument("--config", default=None,
                        help="JSON file overriding command defaults")
        return sp

    sp = command("prepare", "clean, sparsify and window a corpus")
    sp.add_argument("--corpus", help="wide daily CSV (rows=variates)")
    sp.add_argument("--synthetic", action="store_true", default=None,
                    help="generate the seeded synthetic suite instead")
    sp.add_argument("--variates", type=int, help="keep the first N corpus rows")
    sp.add_argument("--rate", type=_rate, help="sparsifying rate in [0, 1]")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--window-stride", type=int, dest="window_stride")
    sp.add_argument("--gap-cap", type=int, dest="gap_cap")
    sp.add_argument("--mad-window", type=int, dest="mad_window")
    sp.add_argument("--outlier-mult", type=float, dest="outlier_mult")
    sp.add_argument("--series", type=int, help="synthetic: number of panels")
    sp.add_argument("--synth-variates", type=int, dest="synth_variates")
    sp.add_argument("--days", type=int, help="synthetic: days per panel")
    sp.set_defaults(func=cmd_prepare)

    sp = command("train", "train on a prepared dataset")
    sp.add_argument("--data", help="prepared dataset directory")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--lr", type=float)
    sp.add_argument("--grad-clip", type=float, dest="grad_clip")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tau", type=float, help="initial membrane time constant")
    sp.add_argument("--stride", type=int, help="event pooling stride")
    sp.add_argument("--blocks", type=int, help="number of attention blocks")
    sp.add_argument("--dim", type=int, help="token dimension")
    sp.add_argument("--heads", type=int)
    sp.add_argument("--channels", type=int, help="encoder conv channels")
    sp.add_argument("--kernel-size", type=int, dest="kernel_size")
    sp.add_argument("--first-gap", choices=["zero", "median"], dest="first_gap")
    sp.set_defaults(func=cmd_train)

    sp = command("eval", "evaluate a checkpoint")
    sp.add_argument("--data")
    sp.add_argument("--checkpoint")
    sp.add_argument("--split", choices=["train", "val", "test", "all"])
    sp.set_defaults(func=cmd_eval)

    sp = command("viz", "spike-raster dataset, CSVs and SVG")
    sp.add_argument("--sparse", type=int, help="samples in the sparse phase")
    sp.add_argument("--dense", type=int, help="samples in the dense phase")
    sp.add_argument("--noise-std", type=float, dest="noise_std")
    sp.add_argument("--theta", type=float, help="change/current threshold")
    sp.add_argument("--kernel", type=_kernel, help="comma-separated smoothing kernel")
    sp.add_argument("--tau-c", type=float, dest="tau_c", help="z-score threshold")
    sp.add_argument("--grid", type=int, help="regular-grid size")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tau", type=float, help="reference decay constant")
    sp.add_argument("--v-th", type=float, dest="v_th")
    sp.add_argument("--gamma", type=float)
    sp.set_defaults(func=cmd_viz)

    sp = command("energy", "operation counts and energy estimate")
    sp.add_argument("--data")
    sp.add_argument("--checkpoint")
    sp.add_argument("--split", choices=["train", "val", "test"])
    sp.add_argument("--grid-steps", type=int, dest="grid_steps")
    sp.add_argument("--e-mac", type=float, dest="e_mac")
    sp.add_argument("--e-add", type=float, dest="e_add")
    sp.add_argument("--e-acc", type=float, dest="e_acc")
    sp.add_argument("--e-cmp", type=float, dest="e_cmp")
    sp.add_argument("--e-rd", type=float, dest="e_rd")
    sp.add_argument("--e-wr", type=float, dest="e_wr")
    sp.set_defaults(func=cmd_energy)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("once")
            return args.func(args)
    except (DataError, ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SedformerError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

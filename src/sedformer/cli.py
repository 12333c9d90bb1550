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
import dataclasses
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
from .training import (TrainConfig, baseline_metrics, evaluate, load_checkpoint,
                       save_checkpoint, train)

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


# -- settings --------------------------------------------------------------------

# Each flag that sets a config field, by config class: flag -> field. The
# flag's default is the field's own, and the config is built from this table.
FLAGS = {
    data_mod.CleanConfig: {"mad_window": "window", "gap_cap": "gap_cap",
                           "outlier_mult": "outlier_mult", "rate": "rate", "seed": "seed"},
    data_mod.SuiteConfig: {"series": "n_series", "synth_variates": "n_variates",
                           "days": "n_days", "rate": "rate", "seed": "seed"},
    ModelConfig: {"channels": "conv_channels", "kernel_size": "kernel_size", "dim": "dim",
                  "heads": "heads", "blocks": "blocks", "stride": "pool_stride",
                  "tau": "tau_init", "first_gap": "first_gap", "seed": "seed"},
    TrainConfig: {"epochs": "epochs", "batch_size": "batch_size", "lr": "lr",
                  "grad_clip": "grad_clip", "seed": "seed"},
    data_mod.VizConfig: {"sparse": "n_sparse", "dense": "n_dense", "noise_std": "noise_std",
                         "theta": "delta_threshold", "kernel": "conv_kernel",
                         "tau_c": "conv_threshold", "grid": "grid_size", "seed": "seed",
                         "tau": "tau", "v_th": "v_th", "gamma": "gamma"},
    EnergyModel: {name: name for name in ("e_mac", "e_add", "e_acc", "e_cmp", "e_rd", "e_wr")},
}

# Each command's config classes, and the defaults of its flags that name an
# input instead of setting a config field.
COMMANDS = {
    "prepare": ((data_mod.CleanConfig, data_mod.SuiteConfig),
                {"corpus": None, "synthetic": False, "variates": None,
                 "window_stride": data_mod.WINDOW_STRIDE}),
    "train": ((ModelConfig, TrainConfig), {"data": None}),
    "eval": ((), {"data": None, "checkpoint": None, "split": "test"}),
    "viz": ((data_mod.VizConfig,), {}),
    "energy": ((EnergyModel,), {"data": None, "checkpoint": None, "split": "test",
                                "grid_steps": None}),
}


def defaults(command: str) -> dict:
    """Every option of ``command`` at its default."""
    configs, inputs = COMMANDS[command]
    resolved = dict(inputs)
    for cls in configs:
        field_defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        resolved.update({flag: field_defaults[name] for flag, name in FLAGS[cls].items()})
    return resolved


def build(cls, settings: dict, **fields):
    """A ``cls`` config from the resolved settings of its flags, plus ``fields``."""
    return cls(**{name: settings[flag] for flag, name in FLAGS[cls].items()}, **fields)


def _config_file(path: str, command: str, base: dict) -> dict:
    """Settings of a --config file: a JSON object keyed by option name.

    Each value goes through its flag (``"batch_size": 8`` as ``--batch-size=8``,
    a list comma-joined) and so meets its type and choices; a store-true flag
    takes true or false, null keeps the default, and a ``command`` entry (as a
    run's config.json records) must name this command.
    """
    with open(path) as f:
        try:
            cfg = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(cfg).__name__}")
    written_for = cfg.pop("command", command)
    if written_for != command:
        raise ConfigError(f"{path}: \"command\" is {written_for!r}, not {command!r}")
    unknown = set(cfg) - set(base)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    argv = [command]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if base[key] is False and isinstance(value, bool):  # store-true
            argv += [flag] * value
        elif value is not None:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            argv.append(f"{flag}={value}")
    try:
        parsed = vars(build_parser(exit_on_error=False).parse_args(argv))
    except argparse.ArgumentError as e:
        raise ConfigError(f"{path}: {e}") from None
    return {key: parsed[key] for key in cfg if parsed[key] is not None}


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags (flags parse to None when unset)."""
    resolved = defaults(args.command)
    if args.config:
        resolved.update(_config_file(args.config, args.command, resolved))
    for key in resolved:
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


def cmd_prepare(args) -> int:
    r = _resolve(args)
    out = _out_dir(args.out_dir)
    if bool(r["corpus"]) == bool(r["synthetic"]):
        raise ConfigError("choose exactly one of --corpus PATH or --synthetic")
    # checked in both modes, since config.json records the cleaning settings either way
    clean_cfg = build(data_mod.CleanConfig, r)
    if r["synthetic"]:
        cfg = build(data_mod.SuiteConfig, r)
        splits = data_mod.synth_suite(cfg, window_stride=r["window_stride"])
        meta = data_mod.dataset_meta("synthetic", splits, cfg.n_variates, cfg.n_days, cfg.rate,
                                     cfg.seed, r["window_stride"], n_series=cfg.n_series)
    else:
        if not os.path.exists(r["corpus"]):
            raise DataError(f"corpus not found: {r['corpus']}")
        splits, meta = data_mod.prepare_corpus(r["corpus"], clean_cfg, n_variates=r["variates"],
                                               window_stride=r["window_stride"])
    if not splits["train"]:
        source = f"days={r['days']}" if r["synthetic"] else f"corpus {r['corpus']}"
        raise DataError(f"{source} gives no training window ({data_mod.WINDOW_DAYS} days each)")
    data_mod.write_dataset(out, splits, meta)
    _write_config(out, "prepare", r)
    print(f"prepared dataset in {out}: " +
          ", ".join(f"{k}={len(v)}" for k, v in splits.items()))
    return 0


# -- train -----------------------------------------------------------------------


def _load_splits(data_dir: str) -> tuple[dict, dict]:
    if not data_dir or not os.path.isdir(data_dir):
        raise DataError(f"dataset directory not found: {data_dir!r}")
    return data_mod.read_dataset(data_dir)


def _windows(splits: dict, name: str) -> list:
    """The windows of split ``name``, which the command cannot run without."""
    if not splits.get(name):
        counts = ", ".join(f"{k}={len(v)}" for k, v in splits.items())
        raise DataError(f"split {name!r} has no window (the dataset has {counts or 'none'})")
    return splits[name]


def cmd_train(args) -> int:
    r = _resolve(args)
    out = _out_dir(args.out_dir)
    splits, meta = _load_splits(r["data"])
    used = {s: _windows(splits, s) for s in ("train", "val")}
    model_cfg = build(ModelConfig, r, n_variates=int(meta["n_variates"]))
    train_cfg = build(TrainConfig, r)
    scaler = data_mod.Standardizer.fit(used["train"])
    scaled = {k: [scaler.transform_item(it) for it in v] for k, v in used.items()}
    model = SedFormer(model_cfg)
    result = train(model, scaled["train"], scaled["val"], train_cfg,
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


def cmd_eval(args) -> int:
    r = _resolve(args)
    out = _out_dir(args.out_dir)
    splits, meta = _load_splits(r["data"])
    model, scaler = _load_model_and_scaler(r["checkpoint"])
    wanted = list(splits) if r["split"] == "all" else [r["split"]]
    items = {s: _windows(splits, s) for s in wanted}
    rate = meta.get("rate", float("nan"))
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rate", "split", "mse", "mae", "n_queries"])
        for s in wanted:
            m = evaluate(model, items[s], scaler)  # errors in raw units
            w.writerow([rate, s, repr(m["mse"]), repr(m["mae"]), m["n_queries"]])
            print(f"{s}: mse={m['mse']:.6f} mae={m['mae']:.6f} n={m['n_queries']}")
    with open(os.path.join(out, "baselines.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["baseline", "rate", "split", "mse", "mae", "n_queries"])
        for s in wanted:
            for kind in ("persistence", "mean"):
                m = baseline_metrics(items[s], kind)
                w.writerow([kind, rate, s, repr(m["mse"]), repr(m["mae"]),
                            m["n_queries"]])
    _write_config(out, "eval", r)
    return 0


# -- viz -------------------------------------------------------------------------


def cmd_viz(args) -> int:
    r = _resolve(args)
    out = _out_dir(args.out_dir)
    cfg = build(data_mod.VizConfig, r)
    series = data_mod.synth_viz_series(cfg)
    encoders = data_mod.baseline_encoders(series, cfg)
    paths = viz_mod.write_raster(os.path.join(out, "viz"), series, encoders)
    _write_config(out, "viz", r)
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0


# -- energy ----------------------------------------------------------------------


def cmd_energy(args) -> int:
    r = _resolve(args)
    out = _out_dir(args.out_dir)
    splits, _meta = _load_splits(r["data"])
    model, scaler = _load_model_and_scaler(r["checkpoint"])
    items = _windows(splits, r["split"])
    if scaler:
        items = [scaler.transform_item(it) for it in items]
    report = model_energy_report(model, items, build(EnergyModel, r), grid_steps=r["grid_steps"])
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


# How a config flag parses where its field's default does not tell; every
# other one takes the type of that default.
PARSE = {"rate": {"type": _rate}, "kernel": {"type": _kernel}, "grad_clip": {"type": float},
         "first_gap": {"choices": ["zero", "median"]}}


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sedformer", exit_on_error=exit_on_error,
                                description="Event-synchronous spiking forecaster")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, func, summary in (("prepare", cmd_prepare, "clean, sparsify and window a corpus"),
                                ("train", cmd_train, "train on a prepared dataset"),
                                ("eval", cmd_eval, "evaluate a checkpoint"),
                                ("viz", cmd_viz, "spike-raster dataset, CSVs and SVG"),
                                ("energy", cmd_energy, "operation counts and energy estimate")):
        sp = parsers[name] = sub.add_parser(name, help=summary, exit_on_error=exit_on_error)
        sp.set_defaults(func=func)
        sp.add_argument("--out-dir", default=".", help="output directory "
                        f"(relative paths join ${OUT_ROOT_ENV})")
        sp.add_argument("--config", help="JSON file overriding command defaults")

    sp = parsers["prepare"]
    sp.add_argument("--corpus", help="wide daily CSV (rows=variates)")
    sp.add_argument("--synthetic", action="store_true", default=None,
                    help="generate the seeded synthetic suite instead")
    sp.add_argument("--variates", type=int, help="keep the first N corpus rows")
    sp.add_argument("--window-stride", type=int,
                    help=f"days between window starts (default {data_mod.WINDOW_STRIDE})")
    parsers["train"].add_argument("--data", help="prepared dataset directory")
    for name, splits in (("eval", ["train", "val", "test", "all"]),
                         ("energy", ["train", "val", "test"])):
        parsers[name].add_argument("--data", help="prepared dataset directory")
        parsers[name].add_argument("--checkpoint", help="a train run's checkpoint.json")
        parsers[name].add_argument("--split", choices=splits)
    parsers["energy"].add_argument("--grid-steps", type=int, help="dense-reference steps")

    for name, (configs, _) in COMMANDS.items():
        added = set()
        for cls in configs:
            field_defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for flag, field in FLAGS[cls].items():
                if flag not in added:
                    added.add(flag)
                    parsers[name].add_argument(
                        "--" + flag.replace("_", "-"),
                        help=f"{cls.__name__}.{field} (default {field_defaults[field]!r})",
                        **PARSE.get(flag, {"type": type(field_defaults[field])}))
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

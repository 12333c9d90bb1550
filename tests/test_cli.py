"""Command-line workflow: prepare, train, eval, energy, viz."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sedformer
from sedformer import ModelConfig, Standardizer, read_dataset
from sedformer.cli import COMMANDS, FLAGS, build, build_parser, defaults, main
from sedformer.model import eval_batches
from sedformer.training import flat_errors, flat_metrics, load_checkpoint

TINY_TRAIN = ["--epochs", "1", "--dim", "8", "--heads", "2", "--blocks", "1", "--stride", "2",
              "--channels", "4"]


def child_env(**extra) -> dict:
    """This environment for a child interpreter that imports this checkout's
    ``sedformer``, plus ``extra``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedformer.__file__)))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny prepared dataset plus a 1-epoch training run, shared below."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = str(root / "data")
    run_dir = str(root / "run")
    rc = main(["prepare", "--synthetic", "--series", "2", "--days", "210",
               "--out-dir", data_dir])
    assert rc == 0
    rc = main(["train", "--data", data_dir, *TINY_TRAIN, "--out-dir", run_dir])
    assert rc == 0
    return {"root": root, "data": data_dir, "run": run_dir,
            "ckpt": os.path.join(run_dir, "checkpoint.json")}


def test_prepare_artifacts(workdir):
    for name in ("meta.json", "train.csv", "val.csv", "test.csv", "config.json"):
        assert os.path.exists(os.path.join(workdir["data"], name))
    with open(os.path.join(workdir["data"], "meta.json")) as f:
        meta = json.load(f)
    assert meta["n_variates"] == 4
    assert meta["splits"]["train"] >= 1
    with open(os.path.join(workdir["data"], "config.json")) as f:
        cfg = json.load(f)
    assert cfg["command"] == "prepare"
    assert cfg["days"] == 210  # explicit flag recorded
    assert cfg["rate"] == 0.5  # untouched default recorded too


def test_train_artifacts(workdir):
    for name in ("checkpoint.json", "scaler.json", "history.csv", "config.json"):
        assert os.path.exists(os.path.join(workdir["run"], name))
    with open(os.path.join(workdir["run"], "history.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "train_loss", "val_mse", "val_mae"]
    assert len(rows) - 1 == 1
    float(rows[1][1])  # numeric loss


def test_eval_artifacts(workdir, tmp_path):
    out = str(tmp_path)
    rc = main(["eval", "--data", workdir["data"], "--checkpoint",
               workdir["ckpt"], "--split", "all", "--out-dir", out])
    assert rc == 0
    with open(os.path.join(out, "metrics.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["rate", "split", "mse", "mae", "n_queries"]
    assert [r[1] for r in rows[1:]] == ["train", "val", "test"]
    assert all(float(r[2]) >= 0.0 for r in rows[1:])
    with open(os.path.join(out, "baselines.csv"), newline="") as f:
        brows = list(csv.reader(f))
    assert brows[0] == ["baseline", "rate", "split", "mse", "mae", "n_queries"]
    assert {r[0] for r in brows[1:]} == {"persistence", "mean"}


def test_energy_artifacts(workdir, tmp_path):
    out = str(tmp_path)
    rc = main(["energy", "--data", workdir["data"], "--checkpoint",
               workdir["ckpt"], "--out-dir", out])
    assert rc == 0
    with open(os.path.join(out, "energy.json")) as f:
        report = json.load(f)
    assert report["total_pj"] > 0.0
    assert "configured" in report["note"]
    with open(os.path.join(out, "energy.txt")) as f:
        assert "dense-grid reference" in f.read()


def test_viz_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("SEDFORMER_OUT", str(tmp_path))
    rc = main(["viz", "--out-dir", "art"])
    assert rc == 0
    base = tmp_path / "art" / "viz"
    for name in ("spikes.csv", "series.csv", "raster.svg"):
        assert (base / name).exists()
    assert (tmp_path / "art" / "config.json").exists()


def test_runtime_loads_only_numpy_and_the_standard_library():
    """``sedformer --help`` in a fresh interpreter imports no third-party
    package besides numpy. Names the interpreter loaded before the import
    (``site`` hooks of the environment) are not the package's doing."""
    code = ("import json, sys\n"
            "before = {name.split('.')[0] for name in sys.modules}\n"
            "import sedformer, sedformer.cli\n"
            "try:\n"
            "    sedformer.cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(json.dumps(sorted({name.split('.')[0] for name in sys.modules} - before)))\n")
    run = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert "sedformer" in loaded and "numpy" in loaded
    foreign = [n for n in loaded if n not in sys.stdlib_module_names | {"numpy", "sedformer"}]
    assert foreign == []


def test_public_names_resolve():
    """``from sedformer import *`` binds every name of ``sedformer.__all__``,
    so the list names no deleted or moved symbol."""
    namespace = {}
    exec("from sedformer import *", namespace)
    assert set(sedformer.__all__) <= namespace.keys()


def test_config_file_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"days": 150, "series": 2, "seed": 9}))
    out = str(tmp_path / "out")
    rc = main(["prepare", "--synthetic", "--config", str(cfg_path),
               "--days", "180", "--out-dir", out])
    assert rc == 0
    with open(os.path.join(out, "config.json")) as f:
        saved = json.load(f)
    assert saved["days"] == 180  # flag beats file
    assert saved["series"] == 2  # file beats default
    assert saved["seed"] == 9


def test_unknown_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    rc = main(["prepare", "--synthetic", "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2


def test_source_choice_errors(tmp_path):
    out = str(tmp_path / "o")
    assert main(["prepare", "--out-dir", out]) == 2  # neither source
    assert main(["prepare", "--synthetic", "--corpus", "x.csv",
                 "--out-dir", out]) == 2  # both sources


def test_bad_rate_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--synthetic", "--rate", "2.0",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_inputs_exit_2(tmp_path, workdir):
    out = str(tmp_path)
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out-dir", out]) == 2
    assert main(["eval", "--data", workdir["data"], "--checkpoint",
                 str(tmp_path / "nope.json"), "--out-dir", out]) == 2
    assert main(["prepare", "--corpus", str(tmp_path / "nope.csv"),
                 "--out-dir", out]) == 2


def _eval_edited_test_split(tmp_path, workdir, edit) -> int:
    """``sedformer eval`` on a copy of the dataset whose test.csv rows went through ``edit``."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("meta.json", "test.csv"):
        (data / name).write_text(Path(workdir["data"], name).read_text())
    with open(data / "test.csv", newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(data / "test.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return main(["eval", "--data", str(data), "--checkpoint", workdir["ckpt"],
                 "--split", "test", "--out-dir", str(tmp_path / "out")])


def _train_edited_train_split(tmp_path, workdir, edit) -> int:
    """``sedformer train`` on a copy of the dataset whose train.csv rows went through ``edit``."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("meta.json", "train.csv"):
        (data / name).write_text(Path(workdir["data"], name).read_text())
    with open(data / "train.csv", newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(data / "train.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return main(["train", "--data", str(data), *TINY_TRAIN, "--out-dir", str(tmp_path / "out")])


def test_window_without_observations_exits_2(tmp_path, workdir, capsys):
    """A window with query rows but no ``obs`` row is a DataError naming the
    file and the window, not an exit 1 from an empty concatenation."""
    def edit(rows):
        rows[1:] = [r for r in rows[1:] if not (r[0] == "0" and r[1] == "obs")]

    assert _train_edited_train_split(tmp_path, workdir, edit) == 2
    err = capsys.readouterr().err
    assert "train.csv: window 0: no observations" in err and "Traceback" not in err


def test_window_without_queries_exits_2(tmp_path, workdir, capsys):
    """A window with no ``query`` row is a DataError naming the file and the
    window, raised before the first epoch; it once warned "variate d has no
    queries" for every variate and then ended in "loss needs at least one
    query"."""
    def edit(rows):
        rows[1:] = [r for r in rows[1:] if not (r[0] == "0" and r[1] == "query")]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _train_edited_train_split(tmp_path, workdir, edit) == 2
    err = capsys.readouterr().err
    assert "train.csv: window 0: no query row" in err and "Traceback" not in err
    assert not [w for w in caught if "no queries" in str(w.message)]


@pytest.mark.parametrize("role, col, what", [("query", 2, "stamp"), ("obs", 4, "value")])
def test_out_of_range_cell_exits_2_naming_its_line(tmp_path, workdir, capsys, role, col, what):
    """A stamp or value of 1e300 is named at its file and line; it once ran
    into training and ended in "training diverged: lower lr"."""
    line = {}

    def edit(rows):
        i = next(i for i, r in enumerate(rows) if r[1] == role)
        rows[i][col], line["n"] = "1e300", i + 1

    assert _train_edited_train_split(tmp_path, workdir, edit) == 2
    err = capsys.readouterr().err
    assert f"train.csv:{line['n']}: {what} 1e+300 outside" in err
    assert "lr" not in err and "Traceback" not in err


def test_non_finite_query_stamp_exits_2(tmp_path, workdir):
    def edit(rows):
        first_query = next(i for i, r in enumerate(rows) if r[1] == "query")
        rows[first_query][2] = "inf"

    assert _eval_edited_test_split(tmp_path, workdir, edit) == 2


def _set_cell(col, value):
    def edit(rows):
        rows[1][col] = value
    return edit


def _cut_row(rows):
    rows[1] = rows[1][:3]


@pytest.mark.parametrize("edit", [_set_cell(3, "x"), _cut_row, _set_cell(3, "99"),
                                  _set_cell(3, "-1")],
                         ids=["non-numeric", "short-row", "variate-too-large",
                              "negative-variate"])
def test_malformed_dataset_row_exits_2(tmp_path, workdir, capsys, edit):
    assert _eval_edited_test_split(tmp_path, workdir, edit) == 2
    assert "test.csv:2:" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("prepare", "{bad", "not valid JSON"),
    ("train", "{bad", "not valid JSON"),
    ("prepare", "[1, 2]", "JSON object"),
    ("train", '{"epochs": "abc"}', "--epochs: invalid int"),
    ("train", '{"epochs": 2.5}', "--epochs: invalid int"),
    ("train", '{"first_gap": "bogus"}', "--first-gap: invalid choice"),
    ("prepare", '{"rate": 2}', "--rate: rate must lie in [0, 1]"),
    ("prepare", '{"synthetic": "yes"}', "--synthetic"),
    ("eval", '{"split": "nope"}', "--split: invalid choice"),
], ids=["prepare-not-json", "train-not-json", "array", "int-type", "float-for-int",
        "choices", "custom-type", "store-true", "eval-choices"])
def test_malformed_config_file_exits_2(tmp_path, capsys, command, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "cfg.json" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("meta", ["{bad", '{"rate": 0.5}', '{"n_variates": "four"}', "[4]"],
                         ids=["not-json", "no-n-variates", "non-integer", "array"])
def test_malformed_meta_json_exits_2(tmp_path, workdir, capsys, meta):
    data = tmp_path / "data"
    data.mkdir()
    (data / "test.csv").write_text(Path(workdir["data"], "test.csv").read_text())
    (data / "meta.json").write_text(meta)
    for argv in (["train", "--data", str(data)],
                 ["eval", "--data", str(data), "--checkpoint", workdir["ckpt"]]):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "meta.json" in err
        assert "Traceback" not in err


def _set(blob: dict, keys: list, value) -> str:
    """``blob`` as JSON after ``blob[keys[0]][keys[1]]... = value``."""
    inner = blob
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return json.dumps(blob)


MALFORMED_RUN_FILES = [  # (id, file, its new text from the trained run's parsed file)
    ("scaler-not-json", "scaler.json", lambda blob: "{bad"),
    ("scaler-without-std", "scaler.json", lambda blob: json.dumps({"mean": blob["mean"]})),
    ("scaler-two-variates", "scaler.json",
     lambda blob: json.dumps({"mean": [0, 0], "std": [1, 1]})),
    ("scaler-infinite-scale", "scaler.json", lambda blob: _set(blob, ["std", 0], float("inf"))),
    ("checkpoint-version-only", "checkpoint.json", lambda blob: '{"version": 1}'),
    ("shape-disagrees", "checkpoint.json",
     lambda blob: _set(blob, ["params", "embed", "shape"], [3, 3])),
    ("dim-not-a-number", "checkpoint.json", lambda blob: _set(blob, ["config", "dim"], "abc")),
    ("config-a-list", "checkpoint.json", lambda blob: _set(blob, ["config"], [4, 8])),
]


@pytest.mark.parametrize("name, edit", [m[1:] for m in MALFORMED_RUN_FILES],
                         ids=[m[0] for m in MALFORMED_RUN_FILES])
def test_malformed_checkpoint_or_scaler_exits_2(tmp_path, workdir, capsys, name, edit):
    """eval and energy load a run's checkpoint and scaler; content of the
    wrong kind ends in exit 2 and an error naming the file."""
    run = tmp_path / "run"
    run.mkdir()
    for f in ("checkpoint.json", "scaler.json"):
        (run / f).write_text(Path(workdir["run"], f).read_text())
    (run / name).write_text(edit(json.loads((run / name).read_text())))
    for command in ("eval", "energy"):
        assert main([command, "--data", workdir["data"], "--checkpoint",
                     str(run / "checkpoint.json"), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and name in err and "Traceback" not in err


def test_empty_batch_size_exits_2(tmp_path, workdir, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"batch_size": 0}))
    for extra in (["--batch-size", "0"], ["--config", str(cfg_path)]):
        assert main(["train", "--data", workdir["data"], *extra,
                     "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "batch size must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("kernel", ["abc", "", "nan", "0.25,,0.25"])
def test_bad_viz_kernel_exits_2(tmp_path, capsys, kernel):
    with pytest.raises(SystemExit) as exc:
        main(["viz", "--kernel", kernel, "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--kernel" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kernel": kernel}))
    assert main(["viz", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--kernel" in err and "Traceback" not in err


def test_overflowing_viz_kernel_exits_2(tmp_path, capsys):
    """Finite weights whose smoothed series overflows the z-score."""
    for kernel in ("1e308,1e308,1e308", "1e200,1e200,1e200"):
        rc = main(["viz", "--kernel", kernel, "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err and "kernel" in err and "Traceback" not in err


INVALID_SETTINGS = [  # (command, flags, the setting the error must name)
    ("train", ["--heads", "0"], "heads"),
    ("train", ["--heads", "-1"], "heads"),
    ("train", ["--seed", "-1"], "seed"),
    ("train", ["--tau", "nan"], "tau_init"),
    ("train", ["--tau", "inf"], "tau_init"),
    ("train", ["--lr", "nan"], "lr"),
    ("train", ["--epochs", "-1"], "epochs"),
    ("train", ["--grad-clip", "-1"], "grad_clip"),
    ("train", ["--grad-clip", "nan"], "grad_clip"),
    ("prepare", ["--days", "0"], "n_days"),
    ("prepare", ["--days", "-5"], "n_days"),
    ("prepare", ["--seed", "-2"], "seed"),
    ("prepare", ["--days", "100"], "days"),
    ("viz", ["--seed", "-1"], "seed"),
    ("energy", ["--e-mac", "nan"], "e_mac"),
    ("energy", ["--grid-steps", "0"], "grid_steps"),
    ("energy", ["--grid-steps", "-3"], "grid_steps"),
    ("energy", [a for op in ("mac", "add", "acc", "cmp", "rd", "wr") for a in (f"--e-{op}", "0")],
     "e_mac=0"),
    ("viz", ["--tau", "nan"], "tau"),
    ("viz", ["--v-th", "nan"], "v_th"),
    ("viz", ["--theta", "nan"], "delta_threshold"),
    ("viz", ["--tau-c", "nan"], "conv_threshold"),
    ("viz", ["--gamma", "nan"], "gamma"),
    ("viz", ["--noise-std", "nan"], "noise_std"),
    ("train", ["--tau", "1e300"], "tau_init"),
    ("prepare", ["--outlier-mult", "nan"], "outlier_mult"),
    ("eval", ["--checkpoint", "{data}/train.csv"], "checkpoint"),
    ("energy", ["--e-mac", "1e308"], "e_mac=1e+308"),
    ("train", ["--lr", "1e300"], "lr (now 1e+300) or set a smaller grad_clip"),
    ("viz", ["--grid", "3", "--kernel", "0.2,0.2,0.2,0.2,0.2"], "grid_size=3"),
]

# Sizes far past their bounds (a suite of 8e9 cells, ~2.4e11 parameters, 1e9
# grid steps, 1e9 channels, kernel taps or blocks): a regressed bound must
# fail its row, not take the test runner's memory, so these rows run in a
# child with a capped address space.
SIZE_SETTINGS = [
    ("prepare", ["--days", "1000000000"], "n_days=1000000000"),
    ("train", ["--dim", "100000"], "dim must lie in"),
    ("energy", ["--grid-steps", "1000000000"], "grid_steps must give each"),
    ("train", ["--channels", "1000000000"], "conv_channels must lie in"),
    ("train", ["--kernel-size", "1000000001"], "kernel_size must lie in"),
    ("train", ["--blocks", "1000000000"], "blocks must lie in"),
    ("viz", ["--grid", "1000000000"], "grid_size must lie in"),
    ("viz", ["--dense", "1000000000"], "n_dense must lie in"),
    ("viz", ["--sparse", "1000000000"], "n_sparse must lie in"),
]
INVALID_SETTINGS += SIZE_SETTINGS
ADDRESS_CAP = 2 * 2**30


def run_capped(argv: list) -> tuple[int, str]:
    """Exit code and stderr of ``sedformer argv`` in a child process whose
    address space is capped at ``ADDRESS_CAP`` bytes (the cap binds only the
    child, which runs BLAS on one thread)."""
    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = ADDRESS_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_CAP, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "sedformer.cli", *argv], env=env,
                         preexec_fn=cap, capture_output=True, text=True, timeout=120)
    return run.returncode, run.stderr


@pytest.mark.parametrize("command, flags, field", INVALID_SETTINGS,
                         ids=[f"{c} {'='.join(f)}" for c, f, _ in INVALID_SETTINGS])
def test_invalid_setting_exits_2(tmp_path, workdir, capsys, command, flags, field):
    """Each setting is rejected with exit 2 and an error naming it, before
    any run writes a non-finite number or allocates for a size past its
    bound."""
    inputs = {"prepare": ["--synthetic", "--series", "2"],
              "train": ["--data", workdir["data"], *TINY_TRAIN],
              "energy": ["--data", workdir["data"], "--checkpoint", workdir["ckpt"]],
              "eval": ["--data", workdir["data"]],
              "viz": []}[command]
    flags = [f.format(**workdir) for f in flags]  # "{data}": the prepared dataset
    out = tmp_path / "out"
    argv = [command, *inputs, *flags, "--out-dir", str(out)]
    if (command, flags, field) in SIZE_SETTINGS:
        rc, err = run_capped(argv)
    else:
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 2, err
    assert "error:" in err and field in err and "Traceback" not in err
    for path in (p for p in out.rglob("*") if p.is_file()):
        assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), path


# -- settings: each default lives in its config's dataclass ---------------------------

# The flags of each command that name an input instead of setting a config field.
INPUT_FLAGS = {"prepare": {"corpus", "synthetic", "variates", "window_stride"},
               "train": {"data"}, "eval": {"data", "checkpoint", "split"},
               "energy": {"data", "checkpoint", "split", "grid_steps"}, "viz": set()}


def subcommands() -> dict:
    """The subparsers of ``build_parser()``, by command name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_flag_sets_a_config_field_or_names_an_input():
    """A flag that sets a config field is in ``FLAGS``; no flag has a default
    of its own (an unset flag parses to None), so the field's is the one."""
    for command, parser in subcommands().items():
        dests = {a.dest for a in parser._actions if a.dest not in ("help", "out_dir", "config")}
        configs, inputs = COMMANDS[command]
        table_flags = {flag for cls in configs for flag in FLAGS[cls]}
        assert set(inputs) == INPUT_FLAGS[command]
        assert not table_flags & INPUT_FLAGS[command]
        assert dests == table_flags | INPUT_FLAGS[command], command
        assert all(a.default is None for a in parser._actions if a.dest in dests), command


def test_flag_defaults_are_their_fields_defaults():
    for command, (configs, _) in COMMANDS.items():
        resolved = defaults(command)
        for cls in configs:
            field_defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for flag, name in FLAGS[cls].items():
                assert resolved[flag] == field_defaults[name], (command, flag)
            required = {"n_variates": 4} if cls is ModelConfig else {}
            assert build(cls, resolved, **required) == cls(**required)


def test_shared_flags_have_one_default():
    """A flag that sets fields of two configs sets both, so their defaults agree."""
    shared = {}
    for command, (configs, _) in COMMANDS.items():
        owners = {}
        for cls in configs:
            field_defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for flag, name in FLAGS[cls].items():
                owners.setdefault(flag, []).append(field_defaults[name])
        shared[command] = {flag for flag, values in owners.items() if len(values) > 1}
        assert all(len(set(owners[flag])) == 1 for flag in shared[command]), command
    assert shared == {"prepare": {"rate", "seed"}, "train": {"seed"}, "eval": set(),
                      "viz": set(), "energy": set()}


def test_eval_scores_raw_units_like_per_window_predict(tmp_path, workdir):
    """``sedformer eval`` pools the same raw-unit errors as a ``predict`` per
    window followed by the scaler's inverse, over several evaluate batches."""
    data = str(tmp_path / "data")
    assert main(["prepare", "--synthetic", "--series", "2", "--days", "600",
                 "--out-dir", data]) == 0
    out = tmp_path / "out"
    assert main(["eval", "--data", data, "--checkpoint", workdir["ckpt"], "--split", "train",
                 "--out-dir", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as f:
        row = next(csv.DictReader(f))
    items = read_dataset(data)[0]["train"]
    assert len(eval_batches([it.series for it in items], [it.n_queries for it in items])) >= 2
    model = load_checkpoint(workdir["ckpt"])
    scaler = Standardizer.from_dict(json.loads(Path(workdir["run"], "scaler.json").read_text()))
    errs = [flat_errors(scaler.inverse(model.predict(scaler.transform_item(it).series,
                                                     it.query_times)), it.targets)
            for it in items]
    expected = flat_metrics(np.concatenate(errs))
    assert float(row["mse"]) == pytest.approx(expected["mse"], rel=1e-12, abs=0)
    assert int(row["n_queries"]) == expected["n_queries"]


REPLAYS = {  # command -> tiny inputs; "{data}"/"{ckpt}": the prepared dataset and its run
    "prepare": ["--synthetic", "--series", "1", "--days", "150", "--seed", "3"],
    "train": ["--data", "{data}", *TINY_TRAIN],
    "eval": ["--data", "{data}", "--checkpoint", "{ckpt}", "--split", "all"],
    "energy": ["--data", "{data}", "--checkpoint", "{ckpt}", "--grid-steps", "40"],
    "viz": ["--grid", "50", "--kernel", "0.2,0.6,0.2"],
}


@pytest.mark.parametrize("command", sorted(REPLAYS))
def test_config_json_replays(tmp_path, workdir, command):
    """A run's config.json given back as --config reproduces every output byte."""
    first, again = tmp_path / "first", tmp_path / "again"
    argv = [a.format(**workdir) for a in REPLAYS[command]]
    assert main([command, *argv, "--out-dir", str(first)]) == 0
    assert main([command, "--config", str(first / "config.json"), "--out-dir", str(again)]) == 0
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
    for name in files:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_config_of_another_command_exits_2(tmp_path, workdir, capsys):
    train_config = os.path.join(workdir["run"], "config.json")
    assert main(["eval", "--config", train_config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "\"command\" is 'train', not 'eval'" in err
    assert "Traceback" not in err


def test_empty_split_exits_2_naming_it(tmp_path, workdir, capsys):
    """A 2-window panel splits 1/0/1: each command that needs its empty
    validation split exits 2 naming it, and writes no file with a nan."""
    data = str(tmp_path / "data")
    assert main(["prepare", "--synthetic", "--series", "1", "--days", "150",
                 "--out-dir", data]) == 0
    assert {k: len(v) for k, v in read_dataset(data)[0].items()} == {"train": 1, "val": 0,
                                                                     "test": 1}
    scored = ["--data", data, "--checkpoint", workdir["ckpt"], "--split"]
    for i, argv in enumerate((["train", "--data", data, *TINY_TRAIN], ["eval", *scored, "val"],
                              ["eval", *scored, "all"], ["energy", *scored, "val"])):
        out = tmp_path / str(i)
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert "error: split 'val' has no window" in err and "val=0" in err, err
        assert "Traceback" not in err
        for path in (p for p in out.rglob("*") if p.is_file()):
            assert not re.search(r"\bnan\b", path.read_text(), re.IGNORECASE), (argv, path.name)


# -- fuzzing every flag -------------------------------------------------------------------

# Values that violate some flag's type or range. Each size flag takes an int, so
# from these it gets only 0, -1 or a parse error: no draw allocates much or runs long.
VIOLATIONS = ["abc", "", "0", "-1", "nan", "inf", "-inf", "1e300", "1e308"]
FUZZ_INPUTS = {  # valid tiny inputs that the drawn flags follow (and so override)
    "prepare": ["--synthetic", "--series", "1", "--days", "150"],
    "train": ["--data", "{data}", *TINY_TRAIN],
    "eval": ["--data", "{data}", "--checkpoint", "{ckpt}"],
    "energy": ["--data", "{data}", "--checkpoint", "{ckpt}"],
    "viz": [],
}


@st.composite
def invocations(draw):
    """A command, then one to three of its flags, each set to a violating value."""
    command = draw(st.sampled_from(sorted(FUZZ_INPUTS)))
    actions = [a for a in subcommands()[command]._actions
               if a.option_strings and a.dest not in ("help", "out_dir")]
    chosen = draw(st.lists(st.sampled_from(actions), min_size=1, max_size=3,
                           unique_by=lambda a: a.dest))
    flags = [a.option_strings[0] if a.nargs == 0
             else f"{a.option_strings[0]}={draw(st.sampled_from(VIOLATIONS))}" for a in chosen]
    return command, flags


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation=invocations())
def test_fuzz_every_flag_exits_0_or_2(workdir, invocation):
    """Any value of any flag ends in exit 0 with finite numbers in every file
    written, or in exit 2 with an error; never in a traceback."""
    command, flags = invocation
    argv = [a.format(**workdir) for a in FUZZ_INPUTS[command]] + flags
    err = io.StringIO()
    with tempfile.TemporaryDirectory(dir=workdir["root"]) as out:
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            try:
                rc = main([command, *argv, "--out-dir", out])
            except SystemExit as e:  # argparse rejects the value
                rc = e.code
        assert rc == 0 or rc == 2 and "error:" in err.getvalue(), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        for path in (p for p in Path(out).rglob("*") if p.is_file()):
            assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), \
                (argv, path.name)


# -- fuzzing dataset files ---------------------------------------------------------------

CELL_VALUES = ["abc", "", "0", "-1", "nan", "inf", "-inf", "1e300", "1e308", "-1e6"]
EDITS = ["cell", "drop-row", "duplicate-row", "no-obs", "no-query", "n_variates"]


@st.composite
def dataset_edits(draw):
    """One edit of a prepared dataset: a split file's cell set to a hostile
    value; a row dropped or duplicated; every ``obs`` or every ``query`` row
    of one window dropped; or ``meta.json``'s ``n_variates`` changed. Rows
    and windows are picked modulo their count."""
    kind = draw(st.sampled_from(EDITS))
    if kind == "n_variates":
        return kind, "meta.json", draw(st.sampled_from([0, 1, 3, 5, -1, "abc"]))
    name = draw(st.sampled_from(["train.csv", "val.csv", "test.csv"]))
    pick = draw(st.integers(0, 10 ** 6))
    if kind == "cell":
        return kind, name, (pick, draw(st.integers(0, 4)), draw(st.sampled_from(CELL_VALUES)))
    return kind, name, pick


def _edit_dataset(data: Path, edit) -> None:
    kind, name, arg = edit
    path = data / name
    if kind == "n_variates":
        meta = json.loads(path.read_text())
        meta["n_variates"] = arg
        path.write_text(json.dumps(meta))
        return
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    if kind == "cell":
        pick, col, value = arg
        rows[pick % len(rows)][col] = value
    elif kind == "drop-row":
        del rows[arg % len(rows)]
    elif kind == "duplicate-row":
        rows.insert(arg % len(rows), list(rows[arg % len(rows)]))
    else:
        role = "obs" if kind == "no-obs" else "query"
        ids = sorted({r[0] for r in rows})
        rows = [r for r in rows if not (r[0] == ids[arg % len(ids)] and r[1] == role)]
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edit=dataset_edits())
@example(edit=("no-query", "train.csv", 0))  # once: four warnings, then "loss needs a query"
def test_fuzz_dataset_files_exit_0_or_2(workdir, edit):
    """A prepared dataset with one edited file goes through ``train`` (1
    epoch), ``eval --split all`` and ``energy`` (with this run's checkpoint,
    or the shared one when training exits 2). Each command ends in exit 0
    with finite numbers in every file written, or in exit 2 with an error;
    never in a traceback or a numpy warning."""
    with tempfile.TemporaryDirectory(dir=workdir["root"]) as tmp:
        data, runs = Path(tmp) / "data", Path(tmp) / "runs"
        shutil.copytree(workdir["data"], data)
        _edit_dataset(data, edit)
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            codes = [main(["train", "--data", str(data), *TINY_TRAIN,
                           "--out-dir", str(runs / "train")])]
            ckpt = runs / "train" / "checkpoint.json" if codes[0] == 0 else workdir["ckpt"]
            for command in (["eval", "--split", "all"], ["energy"]):
                codes.append(main([command[0], "--data", str(data), "--checkpoint", str(ckpt),
                                   *command[1:], "--out-dir", str(runs / command[0])]))
        assert set(codes) <= {0, 2}, (edit, codes, err.getvalue())
        assert err.getvalue().count("error:") == codes.count(2), (edit, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], edit
        for path in (p for p in runs.rglob("*") if p.is_file()):
            assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), \
                (edit, path.name)


# -- fuzzing the corpus CSV --------------------------------------------------------------

CORPUS_DAYS = 210
CORPUS_EDITS = ["cell", "row", "span", "short-row", "no-rows", "numeric-header"]


def _corpus_rows() -> list[list[str]]:
    """A wide daily corpus of three variates: a header, then one row each."""
    t = np.arange(CORPUS_DAYS)
    header = ["id", *(f"d{i}" for i in t)]
    return [header, *([f"s{d}", *(repr(float(v)) for v in np.sin(t / (5.0 + d)) + d)]
                      for d in range(3))]


@st.composite
def corpus_edits(draw):
    """One edit of the corpus: a cell, a whole row or a span of days set to a
    value of ``CELL_VALUES``; a row one cell short; no data rows; or a numeric
    first header cell."""
    kind = draw(st.sampled_from(CORPUS_EDITS))
    if kind in ("no-rows", "numeric-header"):
        return (kind,)
    row = draw(st.integers(0, 2))
    if kind == "short-row":
        return kind, row
    value = draw(st.sampled_from(CELL_VALUES))
    if kind == "row":
        return kind, row, value
    days = draw(st.integers(1, 60)) if kind == "span" else 1
    return kind, row, value, draw(st.integers(0, CORPUS_DAYS - days)), days


def _edit_corpus(rows: list[list[str]], edit) -> list[list[str]]:
    kind, *args = edit
    if kind == "no-rows":
        return rows[:1]
    if kind == "numeric-header":
        rows[0][0] = "0"
    elif kind == "short-row":
        del rows[1 + args[0]][-1]
    elif kind == "row":
        row, value = args
        rows[1 + row][1:] = [value] * CORPUS_DAYS
    else:
        row, value, start, days = args
        rows[1 + row][1 + start:1 + start + days] = [value] * days
    return rows


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(edit=corpus_edits())
@example(edit=("row", 0, "1e308"))  # a median of two 1e308 overflowed in mad_smooth
def test_fuzz_corpus_csv_exit_0_or_2(tmp_path_factory, edit):
    """A small corpus CSV with one edit goes through ``prepare``: exit 0 with
    finite numbers in every file written, or exit 2 with an error; never a
    traceback or a numpy warning."""
    root = tmp_path_factory.mktemp("corpus")
    corpus, out = root / "corpus.csv", root / "data"
    with open(corpus, "w", newline="") as f:
        csv.writer(f).writerows(_edit_corpus(_corpus_rows(), edit))
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = main(["prepare", "--corpus", str(corpus), "--out-dir", str(out)])
    assert code in (0, 2), (edit, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], edit
    for path in (p for p in out.rglob("*") if p.is_file()):
        assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), \
            (edit, path.name)

"""Command-line workflow: prepare, train, eval, energy, viz."""

import csv
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import sedformer
from sedformer.cli import main

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

"""Command-line workflow: prepare, train, eval, energy, viz."""

import csv
import json
import os

import pytest

from sedformer.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny prepared dataset plus a 1-epoch training run, shared below."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = str(root / "data")
    run_dir = str(root / "run")
    rc = main(["prepare", "--synthetic", "--series", "2", "--days", "210",
               "--out-dir", data_dir])
    assert rc == 0
    rc = main(["train", "--data", data_dir, "--epochs", "1", "--dim", "8",
               "--heads", "2", "--blocks", "1", "--stride", "2",
               "--channels", "4", "--out-dir", run_dir])
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


def test_non_finite_query_stamp_exits_2(tmp_path, workdir):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("meta.json", "test.csv"):
        (data / name).write_text(open(os.path.join(workdir["data"], name)).read())
    with open(data / "test.csv", newline="") as f:
        rows = list(csv.reader(f))
    first_query = next(i for i, r in enumerate(rows) if r[1] == "query")
    rows[first_query][2] = "inf"
    with open(data / "test.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["eval", "--data", str(data), "--checkpoint", workdir["ckpt"],
                 "--split", "test", "--out-dir", str(tmp_path / "out")]) == 2

"""The worker process that takes half of every pass of two or more runs (``parallel``)."""

import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import sedformer
from conftest import ready_worker
from sedformer import ModelConfig, SedFormer, Standardizer, TrainConfig, evaluate, parallel, train
from sedformer import model as model_mod
from sedformer.errors import ConfigError
from sedformer.training import window_errors, window_gradients

CONFIG = ModelConfig(n_variates=8, conv_channels=4, dim=8, heads=2, blocks=1)

two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker takes a second CPU")

# Windows of about 320 events over 8 variates (2,560 slot rows): each one runs
# alone in ``calibrate``, in a gradient run and in ``evaluate``, so every pass
# over two or more of them has two halves. One source, run here and in the
# child interpreters of the lifecycle tests.
WINDOWS = """
import numpy as np
from sedformer import align_events
from sedformer.data import WindowItem

def windows(n, seed=0, scale=1.0, no_queries=()):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        stamps = [np.sort(rng.uniform(0.0, 90.0, 40)) for _ in range(8)]
        queries = [np.zeros(0) if d in no_queries else np.sort(rng.uniform(90.0, 120.0, 5))
                   for d in range(8)]
        out.append(WindowItem(series=align_events([(t, scale * np.sin(t / 7.0)) for t in stamps]),
                              query_times=queries, targets=[np.sin(q / 7.0) for q in queries]))
    return out
"""
exec(WINDOWS)


def count_passes(monkeypatch) -> list:
    """A list that gets one entry, its function, per pass the worker takes."""
    taken = []
    submit = parallel._Process.submit

    def counted(self, fn, *args):
        sent = submit(self, fn, *args)
        if sent:
            taken.append(fn)
        return sent

    monkeypatch.setattr(parallel._Process, "submit", counted)
    return taken


def state(model) -> tuple:
    return ({k: p.data.tobytes() for k, p in model.parameters().items()},
            {k: b.tobytes() for k, b in model.buffers().items()})


def test_worker_changes_no_bit(monkeypatch):
    """Two epochs with the worker and without it give byte-identical
    parameters, buffers and history; the worker takes every pass: each
    epoch's calibrate (4 runs), gradient runs (4 in one minibatch) and
    validation (3 batches)."""
    train_items, val_items = windows(4), windows(3, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=4)
    taken = count_passes(monkeypatch)
    runs = {}
    for enabled in (False, True):
        monkeypatch.setattr(parallel, "ENABLED", enabled)
        if enabled:
            ready_worker()
        model = SedFormer(CONFIG)
        result = train(model, train_items, val_items, cfg)
        runs[enabled] = (state(model), result, list(taken))
    assert runs[False][2] == []
    assert runs[True][2] == [SedFormer.observe_runs, window_gradients, window_errors] * 2
    assert runs[True][:2] == runs[False][:2]


def test_calibration_through_the_worker_is_bitwise(monkeypatch):
    """``calibrate`` with the worker pools what its normalizers observed after
    this process's half, in batch order: bitwise the statistics of
    ``calibrate`` alone, also under statistics that are not the initial ones."""
    items = windows(5, seed=2)
    series = [item.series for item in items]
    alone, shared = SedFormer(CONFIG), SedFormer(CONFIG)
    ready_worker()
    taken = count_passes(monkeypatch)
    for _ in range(2):
        monkeypatch.setattr(parallel, "ENABLED", False)
        alone.calibrate(series)
        monkeypatch.setattr(parallel, "ENABLED", True)
        shared.calibrate(series)
        assert state(shared) == state(alone)
    assert taken == [SedFormer.observe_runs] * 2


def test_evaluate_through_the_worker_reads_the_windows_it_is_handed(monkeypatch):
    """After ``train`` has handed the worker its training and validation
    windows, one ``evaluate`` over other windows hands the worker exactly one
    pass and gives bitwise the metrics of one process: the worker computes on
    the windows of the call, not on a list it held before. So it does on raw
    windows with a ``scaler``, as ``sedformer eval`` scores."""
    monkeypatch.setattr(parallel, "ENABLED", True)
    train_items, val_items, other = windows(4, seed=8), windows(3, seed=9), windows(3, seed=10)
    ready_worker()
    model = SedFormer(CONFIG)
    train(model, train_items, val_items, TrainConfig(epochs=1, batch_size=4))
    taken = count_passes(monkeypatch)
    for scaler in (None, Standardizer(np.linspace(-0.2, 0.3, 8), np.linspace(0.5, 2.0, 8))):
        monkeypatch.setattr(parallel, "ENABLED", True)
        shared = evaluate(model, other, scaler)
        assert taken == [window_errors]
        monkeypatch.setattr(parallel, "ENABLED", False)
        assert shared == evaluate(model, other, scaler)
        taken.clear()


def test_the_worker_keeps_a_replica_that_holds_the_state_sent(monkeypatch):
    """``replica`` handed the config, parameters and buffers its model holds
    keeps that model as it is: no ``load_state``, and the folds it cached
    serve the next forward. One ulp of one parameter element, or of one
    buffer element, reloads it."""
    monkeypatch.setattr(parallel, "ENABLED", False)
    loads, load_state = [], SedFormer.load_state

    def counted(self, *args):
        loads.append(self)
        return load_state(self, *args)

    monkeypatch.setattr(SedFormer, "load_state", counted)
    item = windows(1, seed=14)[0]
    source = SedFormer(CONFIG)
    source.calibrate([item.series])  # statistics that are not the initial ones

    def sent():
        return (CONFIG.to_dict(), {k: p.data.copy() for k, p in source.parameters().items()},
                {k: b.copy() for k, b in source.buffers().items()})

    def folds(model) -> dict:
        model.predict(item.series, item.query_times)
        return {i: vars(m)["_folded"] for i, m in enumerate(model.modules())
                if "_folded" in vars(m)}

    model = parallel.replica(None, *sent())
    assert loads == [model] and state(model) == state(source)
    cached = folds(model)
    assert cached
    assert parallel.replica(model, *sent()) is model and loads == [model]
    after = folds(model)
    assert after.keys() == cached.keys()
    assert all(after[k] is cached[k] for k in cached)
    p = next(iter(source.parameters().values()))
    p.data = p.data.copy()
    p.data.flat[0] = np.nextafter(p.data.flat[0], np.inf)
    assert parallel.replica(model, *sent()) is model and loads == [model] * 2
    assert state(model) == state(source)
    buffer = next(iter(source.buffers().values()))
    buffer.flat[0] = np.nextafter(buffer.flat[0], np.inf)
    assert parallel.replica(model, *sent()) is model and loads == [model] * 3
    assert state(model) == state(source)
    assert parallel.replica(model, *sent()) is model and loads == [model] * 3


def test_each_window_list_crosses_the_pipe_once(monkeypatch):
    """Over a 2-epoch ``train`` the training windows and their series each go
    whole into one message, and so do the validation windows and theirs; a
    later ``evaluate`` over windows of both lists sends none whole."""
    monkeypatch.setattr(parallel, "ENABLED", True)
    train_items, val_items = windows(4, seed=11), windows(3, seed=12)
    ready_worker()
    whole, override = [], parallel._Pickler.reducer_override

    def recorded(self, obj):
        reduced = override(self, obj)
        if reduced is not NotImplemented and reduced[0] is parallel._hold:
            whole.append((self, id(obj)))  # this message sends obj whole
        return reduced

    monkeypatch.setattr(parallel._Pickler, "reducer_override", recorded)
    model = SedFormer(CONFIG)
    train(model, train_items, val_items, TrainConfig(epochs=2, batch_size=4))
    mixed = train_items[:2] + val_items
    shared = evaluate(model, mixed)
    monkeypatch.setattr(parallel, "ENABLED", False)
    assert shared == evaluate(model, mixed)
    for windows_sent in (train_items, [item.series for item in train_items],
                         val_items, [item.series for item in val_items]):
        ids = {id(w) for w in windows_sent}
        sent = [(message, i) for message, i in whole if i in ids]
        assert sorted(i for _, i in sent) == sorted(ids)
        assert len({message for message, _ in sent}) == 1


def test_a_dead_worker_leaves_its_half_to_this_process(monkeypatch):
    """The worker dies during the first pass it takes: that pass and every
    later one finish in this process, bitwise as without a worker, and no
    worker starts again in this interpreter."""
    train_items, val_items = windows(4, seed=6), windows(2, seed=7)
    cfg = TrainConfig(epochs=2, batch_size=4)
    monkeypatch.setattr(parallel, "ENABLED", False)
    alone = SedFormer(CONFIG)
    expected = (train(alone, train_items, val_items, cfg), state(alone))
    monkeypatch.setattr(parallel, "_PROCESS", [None])  # a worker of this test's own
    monkeypatch.setattr(parallel, "ENABLED", True)
    proc = ready_worker()
    result = parallel._Process.result

    def killed_first(self):
        proc.popen.kill()
        proc.popen.wait()
        return result(self)

    monkeypatch.setattr(parallel._Process, "result", killed_first)
    model = SedFormer(CONFIG)
    assert (train(model, train_items, val_items, cfg), state(model)) == expected
    assert parallel._PROCESS[0] is False


@two_cpus
def test_divergence_in_a_worker_run_is_a_config_error(monkeypatch):
    """Only the last window overflows (its values square past the float
    range in calibrate's moments), and it is in the worker's half: its
    FloatingPointError comes back and ends as "training diverged"."""
    monkeypatch.setattr(parallel, "ENABLED", True)
    items = windows(3, seed=3) + windows(1, seed=4, scale=1e300)
    ready_worker()
    taken = count_passes(monkeypatch)
    with pytest.raises(ConfigError, match="training diverged"):
        train(SedFormer(CONFIG), items, [], TrainConfig(epochs=1, batch_size=4))
    assert taken == [SedFormer.observe_runs]


@two_cpus
def test_divergence_exits_2_at_the_cli(monkeypatch, tmp_path, capsys):
    """A step that diverges while the worker runs half of the passes ends in
    exit 2 with the divergence error, no traceback and no numpy warning. A
    small ``BATCH_ROWS`` gives this tiny dataset's passes several runs."""
    from sedformer.cli import main

    monkeypatch.setattr(parallel, "ENABLED", True)
    monkeypatch.setattr(model_mod, "BATCH_ROWS", 400)
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    assert main(["prepare", "--synthetic", "--series", "2", "--days", "240",
                 "--out-dir", data]) == 0
    ready_worker()
    taken = count_passes(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--data", data, "--epochs", "1", "--dim", "8", "--heads", "2",
                   "--blocks", "1", "--lr", "1e300", "--out-dir", out])
    err = capsys.readouterr().err
    assert rc == 2 and "training diverged" in err and "Traceback" not in err
    assert taken  # the worker took a pass before the divergence
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@two_cpus
def test_warnings_of_worker_runs_reach_the_caller(monkeypatch):
    """Every window has a variate without queries, so every gradient run warns
    once: the caller sees all four warnings, two of them re-emitted from the
    worker's runs."""
    monkeypatch.setattr(parallel, "ENABLED", True)
    items = windows(4, seed=5, no_queries=(0,))
    ready_worker()
    taken = count_passes(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train(SedFormer(CONFIG), items, [], TrainConfig(epochs=1, batch_size=4))
    assert window_gradients in taken
    assert sum("variate 0 has no queries" in str(w.message) for w in caught) == 4


# Prints the size of the BLAS pool that importing sedformer pinned, or "none"
# where no loaded library has a known setter.
POOL = """
import sedformer
from sedformer import parallel

found = parallel.blas_pool()
if found is None:
    print("none")
else:
    lib, setter = found
    getter = {"MKL_Set_Num_Threads": "MKL_Get_Max_Threads"}.get(
        setter, setter.replace("set_num_threads", "get_num_threads"))
    print(getattr(lib, getter)())
"""


def test_importing_the_package_pins_the_blas_pool():
    """A fresh interpreter without any thread variable imports sedformer, and
    its BLAS pool then holds one thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedformer.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in parallel.THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", POOL], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    if run.stdout.strip() == "none":
        pytest.skip("no loaded BLAS library exports a known pool setter")
    assert run.stdout.strip() == "1"


def test_no_worker_where_no_pool_is_pinned(monkeypatch):
    """Where no BLAS pool can be set and no thread variable is 1, passes run
    in one process: two processes' default pools contend. A variable of 1
    allows the worker again, wherever two CPUs do."""
    monkeypatch.setattr(parallel, "blas_pool", lambda: None)
    for var in parallel.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert parallel._enabled() is False
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert parallel._enabled() is False
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    two = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    assert parallel._enabled() is two


# A parent that starts the worker, prints its pid, then trains (MODE
# "exit"), trains on windows that diverge and lets the ConfigError go
# uncaught ("raise"), trains and then waits to be killed ("kill"), or only
# evaluates, handing the worker one pass ("evaluate").
LIFECYCLE = WINDOWS + """
import sys, time
from sedformer import ModelConfig, SedFormer, TrainConfig, evaluate, parallel, train

mode = sys.argv[1]
parallel.ENABLED = True
proc = parallel._process()
while not proc.ready():
    time.sleep(0.01)
print(proc.popen.pid, flush=True)
items = windows(3) + windows(1, scale=1e300 if mode == "raise" else 1.0)
model = SedFormer(ModelConfig(n_variates=8, conv_channels=4, dim=8, heads=2, blocks=1))
if mode == "evaluate":
    evaluate(model, items)
    assert proc.held, "the worker took no pass"
    sys.exit(0)
train(model, items, [], TrainConfig(epochs=1, batch_size=4))
print("trained", flush=True)
if mode == "kill":
    time.sleep(120)
"""


def gone(pid: int, within_s: float) -> bool:
    """Whether process ``pid`` has exited (a zombie counts) within ``within_s``."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def start_parent(mode: str) -> tuple[subprocess.Popen, int]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedformer.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    parent = subprocess.Popen([sys.executable, "-c", LIFECYCLE, mode], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return parent, int(parent.stdout.readline())


@two_cpus
@pytest.mark.parametrize("mode", ["exit", "raise", "evaluate"])
def test_no_worker_outlives_its_interpreter(mode):
    """The worker ends with the interpreter that started it, whether that
    exits normally (after ``train``, or after only an ``evaluate``) or on an
    uncaught error from ``train``; it prints nothing."""
    parent, pid = start_parent(mode)
    out, err = parent.communicate(timeout=120)
    if mode == "raise":
        assert parent.returncode == 1 and "training diverged" in err
    else:
        assert parent.returncode == 0 and err == ""
        assert out == {"exit": "trained\n", "evaluate": ""}[mode]
    assert gone(pid, within_s=5.0)


@two_cpus
def test_no_worker_outlives_a_killed_parent():
    """A SIGKILLed parent closes the worker's input pipe, and it exits."""
    parent, pid = start_parent("kill")
    try:
        assert parent.stdout.readline() == "trained\n"
        assert not gone(pid, within_s=0.0)
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        assert gone(pid, within_s=5.0)
    finally:
        parent.kill()
        parent.communicate()

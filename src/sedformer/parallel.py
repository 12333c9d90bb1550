"""A second process that takes half of each of ``train``'s passes.

``train`` splits the runs of each pass (the per-epoch ``calibrate``, each
minibatch's gradient runs, the validation pass) into two contiguous
halves: this process runs the first ceil(n/2) runs, a worker process the
rest. There is one worker per interpreter. The first pass with at least
two runs starts it as a fresh interpreter: a fork's copy-on-write pages
would fault in the parent's tape again. Until it has imported the package
(about 0.15 s), passes run here whole. It talks over its stdin and stdout
in pickles, and holds a replica of the model built from ``model.config``.
Each pass sends it the normalizer statistics and the numpy error state,
the parameters if they changed since its last pass, and the training or
validation windows if they are not the ones it holds. It prints nothing,
and exits when its input pipe closes: at interpreter exit (``atexit``), or
when this process dies.

The worker runs the same code on the same numbers, so a pass gives
bitwise what it gives in this process alone. Its exceptions come back
with their type and message, and its warnings are re-emitted here. If it
dies, this process runs the second half itself and uses no worker again.
"""

from __future__ import annotations

import atexit
import fcntl
import os
import pickle
import select
import signal
import subprocess
import sys
import warnings
import weakref

import numpy as np

# Whether ``train`` uses a worker: only where this process may run on two
# CPUs or more. Tests patch it.
ENABLED = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2

# The window list each task reads in the worker.
SLOTS = {"calibrate": "train", "gradients": "train", "evaluate": "val"}

_PROTOCOL = pickle.HIGHEST_PROTOCOL  # 5 writes numpy arrays without a copy

# Pipe buffer each way: Linux's default largest for a user. With the default
# 64 KiB each pass's send waited for the worker to read the parameters (190 KiB
# at dim 32): 2.6–2.9 ms of a 19 ms `sparse_short` calibrate on 2 CPUs.
PIPE_BYTES = 1 << 20
_EXIT_WAIT_S = 5.0


def share(worker: "Worker | None", task: str, fn, model, items: list, runs: list, *args):
    """``fn(model, items, half, *args)`` for both halves of ``runs``: the
    first ceil(n/2) runs here, the rest in the worker as ``task`` (here too
    without a worker, or when it dies). Returns both halves' results, None
    for an empty half; the worker's result is its task's, which for
    ``calibrate`` differs from ``fn``'s."""
    h = (len(runs) + 1) // 2
    mine, theirs = runs[:h], runs[h:]
    pending = worker.submit(task, theirs, *args) if worker is not None and theirs else None
    try:
        first = fn(model, items, mine, *args) if mine else None
    except BaseException as e:
        if pending is not None:
            pending.abandon(drain=isinstance(e, Exception))
        raise
    second = pending.result() if pending is not None else None
    if second is None and theirs:
        second = fn(model, items, theirs, *args)
    return first, second


class Worker:
    """``train``'s handle on the worker process for one call."""

    def __init__(self, model, train_items: list, val_items: list):
        self.model = model
        self.windows = {"train": train_items, "val": val_items}
        self.sent = None  # the parameter arrays last sent; a new call sends them once

    def submit(self, task: str, runs: list, *args) -> "_Pending | None":
        """Send ``task`` over ``runs``; None if no worker can take it."""
        proc = _process()
        if proc is None or not proc.ready():
            return None
        return proc.submit(self, task, runs, args)


class _Pending:
    """A task the worker is running."""

    def __init__(self, proc: "_Process"):
        self.proc = proc

    def result(self):
        """The task's result; re-emits its warnings and re-raises its error.
        None if the worker died."""
        reply = self.proc.receive()
        if reply is None:
            return None
        status, value, caught = reply
        for category, message in caught:
            warnings.warn(message, category, stacklevel=2)
        if status == "error":
            etype, message = value
            try:
                exc = etype(message)
            except Exception:
                exc = RuntimeError(f"{etype.__name__}: {message}")
            raise exc
        return value

    def abandon(self, drain: bool) -> None:
        """Read and drop the reply (this process's half failed), or stop the
        worker when the failure was an interrupt."""
        if drain:
            self.proc.receive()
        else:
            _retire()


class _Process:
    """This process's end of the worker."""

    def __init__(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.owner = os.getpid()
        self.popen = subprocess.Popen(  # this package, wherever it was imported from
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
             "from sedformer.parallel import serve; serve()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        for pipe in (self.popen.stdin, self.popen.stdout):
            try:  # a message of parameters then fits, and sending it does not wait
                fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except (AttributeError, OSError):  # not Linux, or over its pipe-max-size
                pass
        self.started = False  # whether it has finished its imports
        self.config = None  # the replica's config
        self.holder = lambda: None  # (a weak reference to) the Worker whose parameters it holds
        self.windows = {}  # slot -> weak references to the items it holds
        atexit.register(self.close)

    def ready(self) -> bool:
        """Whether it has started, without waiting for it."""
        if not self.started and select.select([self.popen.stdout], [], [], 0)[0]:
            self.started = self.receive() is not None
        return self.started

    def submit(self, worker: Worker, task: str, runs: list, args: tuple) -> "_Pending | None":
        model = worker.model
        config = model.config.to_dict()
        params = {k: p.data for k, p in model.parameters().items()}
        fresh = (self.holder() is worker and worker.sent is not None
                 and all(a is b for a, b in zip(worker.sent, params.values())))
        slot = SLOTS[task]
        items = worker.windows[slot]
        held = self.windows.get(slot, [])
        same_items = len(held) == len(items) and all(r() is it for r, it in zip(held, items))
        msg = (None if config == self.config else config, None if fresh else params,
               model.buffers(), None if same_items else (slot, items), np.geterr(),
               (task, runs, args))
        try:
            pickle.dump(msg, self.popen.stdin, protocol=_PROTOCOL)
            self.popen.stdin.flush()
        except OSError:
            _retire()
            return None
        except BaseException:  # a message cut short would garble the stream
            _retire()
            raise
        self.config, self.holder, worker.sent = config, weakref.ref(worker), list(params.values())
        self.windows[slot] = [weakref.ref(it) for it in items]
        return _Pending(self)

    def receive(self):
        try:
            return pickle.load(self.popen.stdout)
        except Exception:  # EOF, a broken pipe or a garbled stream: it died
            _retire()
            return None
        except BaseException:
            _retire()
            raise

    def close(self) -> None:
        if os.getpid() != self.owner:
            return
        try:
            self.popen.stdin.close()
        except OSError:
            pass
        try:
            self.popen.wait(_EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()
        self.popen.stdout.close()


_PROCESS: list = [None]  # the worker; None before it starts, False once it is gone


def _process() -> "_Process | None":
    """The worker, started on first use; None where there is none."""
    if _PROCESS[0] is None:
        try:
            _PROCESS[0] = _Process()
        except OSError:
            _PROCESS[0] = False
    proc = _PROCESS[0]
    return proc if proc and proc.owner == os.getpid() else None


def _retire() -> None:
    """Stop using the worker, and end it."""
    proc, _PROCESS[0] = _PROCESS[0], False
    if proc:
        proc.popen.kill()
        proc.close()


# -- the worker's side ---------------------------------------------------------------


def _observations(model, items: list, runs: list) -> list:
    """``calibrate``'s no-tape pass over ``runs`` of ``items``, recording
    instead of pooling: per normalizer, each observe's (n, mean, scatter
    diagonal) in run order. ``BatchNorm.observe`` reads only the diagonal."""
    norms = model.batch_norms()
    seen = [[] for _ in norms]
    for bn, log in zip(norms, seen):
        bn.start_accumulation()
        bn.observe = lambda n, mean, scatter, log=log: log.append(
            (n, mean, np.diagonal(scatter).copy()))
    try:
        model.summarize_runs([item.series for item in items], runs)
    finally:
        for bn in norms:
            del bn.observe
            bn.stop_accumulation()  # nothing reached the accumulator: commits nothing
    return seen


def _portable(cls, default):
    """``cls`` if the other process can unpickle it by name, else ``default``."""
    try:
        pickle.dumps(cls)
        return cls
    except Exception:
        return default


def serve() -> None:
    """The worker's loop: one task per message on stdin, one reply on stdout."""
    # imported here: both import this module
    from .model import ModelConfig, SedFormer
    from .training import window_errors, window_gradients

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles interrupts
    inp, out = os.fdopen(os.dup(0), "rb"), os.fdopen(os.dup(1), "wb")
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    tasks = {"calibrate": _observations, "gradients": window_gradients,
             "evaluate": window_errors}
    pickle.dump("ready", out, protocol=_PROTOCOL)
    out.flush()
    model, params, windows = None, None, {}
    while True:
        try:
            config, new_params, buffers, new_windows, errstate, (task, runs, args) = \
                pickle.load(inp)
        except EOFError:
            return
        if new_windows is not None:
            windows[new_windows[0]] = new_windows[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if config is not None:
                    model = SedFormer(ModelConfig.from_dict(config))
                if new_params is not None:
                    params = new_params
                model.load_state(params, buffers)
                with np.errstate(**errstate):
                    reply = ("ok", tasks[task](model, windows[SLOTS[task]], runs, *args))
            except Exception as e:
                reply = ("error", (_portable(type(e), RuntimeError), str(e)))
        notes = [(_portable(w.category, UserWarning), str(w.message)) for w in caught]
        try:
            pickle.dump((*reply, notes), out, protocol=_PROTOCOL)
            out.flush()
        except BrokenPipeError:
            return

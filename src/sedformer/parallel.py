"""A second process that takes half of every pass of two or more runs.

``share(fn, model, items, runs, *args)`` splits ``runs`` into two
contiguous halves: this process runs ``fn`` on the first ceil(n/2) runs, a
worker process on the rest (where ``ENABLED``). The passes split this way are
every ``calibrate`` (``SedFormer.observe_runs``) and ``evaluate``
(``window_errors``), and each of ``train``'s gradient steps (``window_gradients``).

There is one worker per interpreter. The first pass with at least two runs
starts it as a fresh interpreter: a fork's copy-on-write pages would fault
in the parent's tape again. Until it has imported the package (about
0.15 s), passes run here whole. It talks over its stdin and stdout in
pickles. Each pass sends it ``fn`` (by reference), ``items``, the runs and
their arguments, the config, the parameters, the normalizer statistics and
the numpy error state; its model (``replica``) keeps them from pass to pass.
A window (an element of ``items``, or an ``EventSeries`` anywhere in the
message) crosses the pipe once: the worker keeps it while it lives here,
and later passes send only its id (``_Pickler``). The worker prints
nothing, and exits when its input pipe closes: at interpreter exit
(``atexit``), or when this process dies.

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

from .encoder import EventSeries

# Whether ``share`` uses a worker: only where this process may run on two
# CPUs or more. Tests patch it.
ENABLED = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2

_PROTOCOL = pickle.HIGHEST_PROTOCOL  # 5 writes numpy arrays without a copy

# Pipe buffer each way: Linux's default largest for a user. With the default
# 64 KiB each pass's send waited for the worker to read the parameters (190 KiB
# at dim 32): 2.6–2.9 ms of a 19 ms `sparse_short` calibrate on 2 CPUs.
PIPE_BYTES = 1 << 20
_EXIT_WAIT_S = 5.0


def share(fn, model, items: list, runs: list, *args):
    """``fn(model, items, half, *args)`` for both halves of ``runs``: the
    first ceil(n/2) runs here, the rest in the worker process if ``ENABLED``
    (here too without one, or when it dies). Returns both halves' results,
    None for an empty half."""
    h = (len(runs) + 1) // 2
    mine, theirs = runs[:h], runs[h:]
    proc = _process() if ENABLED and theirs else None
    sent = proc is not None and proc.ready() and proc.submit(fn, model, items, theirs, args)
    try:
        first = fn(model, items, mine, *args) if mine else None
    except BaseException as e:
        if sent and isinstance(e, Exception):
            proc.receive()  # read and drop its reply
        elif sent:  # an interrupt: stop it
            _retire()
        raise
    second = proc.result() if sent else None
    if second is None and theirs:
        second = fn(model, items, theirs, *args)
    return first, second


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
        self.held = weakref.WeakValueDictionary()  # id -> each window it holds
        self.dropped = []  # ids of windows it holds that have died here since the last pass
        atexit.register(self.close)

    def ready(self) -> bool:
        """Whether it has started, without waiting for it."""
        if not self.started and select.select([self.popen.stdout], [], [], 0)[0]:
            self.started = self.receive() is not None
        return self.started

    def submit(self, fn, model, items: list, runs: list, args: tuple) -> bool:
        """Send ``fn`` over ``runs`` of ``items``; False if the worker is gone."""
        dropped, self.dropped[:] = self.dropped[:], []
        msg = (model.config.to_dict(), {k: p.data for k, p in model.parameters().items()},
               model.buffers(), np.geterr(), fn, items, runs, args)
        try:  # the dropped ids first: a window in the message may reuse one
            pickle.dump(dropped, self.popen.stdin, protocol=_PROTOCOL)
            _Pickler(self, items).dump(msg)
            self.popen.stdin.flush()
        except OSError:
            _retire()
            return False
        except BaseException:  # a message cut short would garble the stream
            _retire()
            raise
        return True

    def result(self):
        """The pass's result; re-emits its warnings and re-raises its error.
        None if the worker died."""
        reply = self.receive()
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


class _Pickler(pickle.Pickler):
    """Writes a pass's message: a window that the worker holds as its id here,
    and any other window whole, for the worker to hold under its id."""

    def __init__(self, proc: _Process, items: list):
        super().__init__(proc.popen.stdin, protocol=_PROTOCOL)
        self.proc, self.elements = proc, {id(item) for item in items}

    def reducer_override(self, obj):
        if not (isinstance(obj, EventSeries) or id(obj) in self.elements):
            return NotImplemented
        if self.proc.held.get(id(obj)) is obj:
            return _held, (id(obj),)
        self.proc.held[id(obj)] = obj
        weakref.finalize(obj, self.proc.dropped.append, id(obj))
        return _hold, (id(obj), type(obj)), vars(obj)


# -- the worker's side ---------------------------------------------------------------

_WINDOWS: dict = {}  # the windows the worker holds, by their ids in the parent


def _held(key: int):
    return _WINDOWS[key]


def _hold(key: int, cls):
    """A new window, held under ``key``; unpickling then fills in its fields."""
    _WINDOWS[key] = obj = cls.__new__(cls)
    return obj


def _portable(cls, default):
    """``cls`` if the other process can unpickle it by name, else ``default``."""
    try:
        pickle.dumps(cls)
        return cls
    except Exception:
        return default


def replica(model, config: dict, params: dict, buffers: dict):
    """The worker's model for a pass: ``model`` untouched (its folds cached) if
    it holds ``config``, ``params`` and ``buffers`` bitwise, else loaded anew."""
    from .model import ModelConfig, SedFormer  # imported here: model imports this module
    if model is None or model.config.to_dict() != config:
        model = SedFormer(ModelConfig.from_dict(config))
    elif (all(p.data.tobytes() == params[k].tobytes() for k, p in model.parameters().items())
          and all(b.tobytes() == buffers[k].tobytes() for k, b in model.buffers().items())):
        return model
    model.load_state(params, buffers)
    return model


def serve() -> None:
    """The worker's loop: one pass per message on stdin, one reply on stdout."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles interrupts
    inp, out = os.fdopen(os.dup(0), "rb"), os.fdopen(os.dup(1), "wb")
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    pickle.dump("ready", out, protocol=_PROTOCOL)
    out.flush()
    model = None
    while True:
        try:
            for key in pickle.load(inp):
                del _WINDOWS[key]
            config, params, buffers, errstate, fn, items, runs, args = pickle.load(inp)
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                model = replica(model, config, params, buffers)
                with np.errstate(**errstate):
                    reply = ("ok", fn(model, items, runs, *args))
            except Exception as e:
                reply = ("error", (_portable(type(e), RuntimeError), str(e)))
        notes = [(_portable(w.category, UserWarning), str(w.message)) for w in caught]
        try:
            pickle.dump((*reply, notes), out, protocol=_PROTOCOL)
            out.flush()
        except BrokenPipeError:
            return

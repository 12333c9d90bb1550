"""Per-layer spans recorded from outside the model.

``Tracer.attach(model)`` swaps the public entry points that a forward, a
backward and a training step go through for wrappers that open a span
around each call; ``detach()`` restores the originals. Nothing inside
``sedformer`` changes. A span is (id, name, start, end, parent id, window
id). Spans stay in memory until ``write``.

Self time of a span is its duration minus the time its child spans cover.
MACs come from the public ``mac_counter``, opened once per span, so self
MACs likewise exclude the children. A layer's backward time is the time
spent in the backward closures of the tape nodes its forward created: when
``Tensor.backward`` starts, the outputs of every finished span are walked
through ``_parents`` (stopping at the span's tensor inputs and at leaves),
innermost span first, and each node not yet claimed goes to that span.
Nodes no span claims (the batch scaling of the loss) go to
``training.other``. Each claimed node's closure is then wrapped in a timer;
whatever the backward spends outside the closures (topological sort and
dispatch) is its overhead.

Aggregates are kept per phase. A phase is set by the caller (``train``,
``eval``, ``predict``); calls under ``model.calibrate`` and
``training.evaluate`` belong to those phases instead, so the training
forwards are counted apart from the per-epoch calibration and validation.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import sedformer.backbone
import sedformer.encoder
import sedformer.model
import sedformer.training
from sedformer import mac_counter
from sedformer.tensor import Tensor

# Layers are named after the module that implements them.
LAYERS = ["encoder.current", "neuron.spike_scan", "neuron.filter", "downsample.pool",
          "backbone.embed", "backbone.block0.attn", "backbone.block0.ffn",
          "backbone.block1.attn", "backbone.block1.ffn", "backbone.aggregate",
          "model.decode"]
SUBPHASES = ("model.calibrate", "training.evaluate")
FORWARD = "model.decode"  # the span around SedFormer.forward
SPAN_FIELDS = ["id", "name", "start", "end", "parent", "window"]
_MISSING = object()


class _Span:
    __slots__ = ("id", "name", "phase", "window", "parent", "child_s", "child_macs")

    def __init__(self, span_id, name, phase, window, parent):
        self.id, self.name, self.phase, self.window = span_id, name, phase, window
        self.parent = parent
        self.child_s = 0.0
        self.child_macs = 0


class _Layer:
    """Callable stand-in for a sub-module: traces calls, forwards attributes."""

    def __init__(self, tracer: "Tracer", name: str, target):
        self._tracer, self._name, self._target = tracer, name, target

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._target, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _tensors(values) -> list[Tensor]:
    out = []
    for v in values:
        if isinstance(v, Tensor):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            out.extend(x for x in v if isinstance(x, Tensor))
    return out


def _timed(fn, acc: list[float]):
    def run(g):
        t0 = perf_counter()
        fn(g)
        acc[0] += perf_counter() - t0
    return run


def _count_scan(tracer, phase, args, out):
    tracer.add(phase, "neuron.spike_scan.events", out.shape[0])
    tracer.add(phase, "neuron.spike_scan.spikes", float(out.data.sum()))
    tracer.add(phase, "neuron.spike_scan.slots", out.data.size)


def _count_pool(tracer, phase, args, out):
    spikes, stride = args[0], args[3]
    pooled = out[0]
    tracer.add(phase, "downsample.pooled_events", pooled.shape[0])
    tracer.add(phase, "downsample.dropped_events", spikes.shape[0] - pooled.shape[0] * stride)
    tracer.add(phase, "downsample.spikes", float(pooled.data.sum()))
    tracer.add(phase, "downsample.slots", pooled.data.size)


class Tracer:
    """Spans and per-phase aggregates for one model."""

    def __init__(self, windows: dict[int, str]):
        self.windows = windows  # id(EventSeries) -> window id
        self.spans: list[tuple] = []
        self.totals: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[_Span] = []
        self._phase = "setup"
        self._next_id = 0
        self._last_window = None
        self._pending: list[tuple[str, list[Tensor], list[Tensor]]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._keys: dict[str, list[str]] = {}

    # -- wiring -----------------------------------------------------------------

    def attach(self, model) -> None:
        """Wrap every entry point the model's forward, backward and training use."""
        self._wrap(model.encoder, "drive_current", "encoder.current")
        self._wrap(sedformer.encoder, "ealif_spike_scan", "neuron.spike_scan", _count_scan)
        self._wrap(sedformer.backbone, "ealif_filter", "neuron.filter")
        self._wrap(sedformer.model, "pool_events", "downsample.pool", _count_pool)
        self._wrap(sedformer.model, "embed_tokens", "backbone.embed")
        for i, block in enumerate(model.blocks):
            self._swap(block, "attn", _Layer(self, f"backbone.block{i}.attn", block.attn))
            self._swap(block, "ffn", _Layer(self, f"backbone.block{i}.ffn", block.ffn))
        self._wrap(sedformer.model, "aggregate_observed", "backbone.aggregate")
        self._wrap(model, "summarize", "model.summarize")
        self._wrap(model, "forward", FORWARD)
        self._wrap(model, "calibrate", "model.calibrate")
        self._wrap(sedformer.training, "variate_balanced_mse", "training.loss")
        self._wrap(sedformer.training, "evaluate", "training.evaluate")
        self._wrap(sedformer.training.Adam, "step", "training.adam.step")
        orig_backward = Tensor.backward
        self._swap(Tensor, "backward", lambda root: self._backward(orig_backward, root))

    def detach(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._pending.clear()

    def _swap(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, probe=None) -> None:
        fn = getattr(owner, attr)
        self._swap(owner, attr, lambda *a, **k: self.call(name, fn, a, k, probe))

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        try:
            yield
        finally:
            self._phase = "setup"
            self._pending.clear()

    # -- spans --------------------------------------------------------------------

    def add(self, phase: str, key: str, value: float) -> None:
        self.totals[(phase, key)] += value

    def call(self, name: str, fn, args: tuple, kwargs: dict, probe=None):
        parent = self._stack[-1] if self._stack else None
        window = self.windows.get(id(args[0])) if args else None
        if window is None:
            window = parent.window if parent else self._last_window
        else:
            self._last_window = window
        phase = name if name in SUBPHASES else (parent.phase if parent else self._phase)
        span = _Span(self._next_id, name, phase, window, parent.id if parent else None)
        self._next_id += 1
        self._stack.append(span)
        macs = mac_counter()
        with macs:
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
        self._close(span, start, end, macs.total, parent)
        if probe is not None:
            probe(self, phase, args, out)
        outputs = _tensors([out])
        if any(t.requires_grad for t in outputs):
            self._pending.append((name, outputs, _tensors(args)))
        return out

    def _close(self, span: _Span, start: float, end: float, macs: int, parent) -> None:
        dur = end - start
        self.spans.append((span.id, span.name, start, end, span.parent, span.window))
        keys = self._keys.get(span.name)
        if keys is None:
            keys = self._keys[span.name] = [f"{span.name}.{k}" for k in
                                            ("calls", "total_s", "self_s", "macs", "macs_total")]
        totals, phase = self.totals, span.phase
        for key, value in zip(keys, (1, dur, dur - span.child_s, macs - span.child_macs, macs)):
            totals[(phase, key)] += value
        if parent is not None:
            parent.child_s += dur
            parent.child_macs += macs

    # -- backward -------------------------------------------------------------------

    def _claim(self, root: Tensor) -> tuple[list[str], list[tuple[Tensor, int]]]:
        """Give every tape node below ``root`` to the innermost span that made it.

        Spans are walked innermost first, from their outputs down to their
        tensor inputs. A walk that meets a node an inner span already owns
        jumps to that span's inputs, so each node is visited about once.
        """
        entries = self._pending + [("training.other", [root], [])]
        owner: dict[int, int] = {}
        nodes: list[tuple[Tensor, int]] = []
        for k, (_, outputs, inputs) in enumerate(entries):
            seen = {id(t) for t in inputs}
            todo = list(outputs)
            while todo:
                node = todo.pop()
                i = id(node)
                if i in seen:
                    continue
                seen.add(i)
                j = owner.get(i)
                if j is not None:
                    todo.extend(entries[j][2])
                elif node._backward is not None:
                    owner[i] = k
                    nodes.append((node, k))
                    todo.extend(node._parents)
        self._pending = []
        return [name for name, _, _ in entries], nodes

    def _backward(self, orig_backward, root: Tensor) -> None:
        phase = self._phase
        names, nodes = self._claim(root)
        acc = [[0.0] for _ in names]
        for node, k in nodes:
            node._backward = _timed(node._backward, acc[k])
            self.add(phase, f"{names[k]}.tape_nodes", 1)
        self.add(phase, "tensor.tape_nodes", len(nodes))
        span_id = self._next_id
        self._next_id += 1
        start = perf_counter()
        orig_backward(root)
        end = perf_counter()
        self.spans.append((span_id, "tensor.backward", start, end, None, self._last_window))
        for name, (seconds,) in zip(names, acc):
            self.add(phase, f"{name}.bwd_s", seconds)
        self.add(phase, "tensor.backward.calls", 1)
        self.add(phase, "tensor.backward_s", end - start)
        self.add(phase, "tensor.backward.overhead_s", end - start - sum(a[0] for a in acc))

    # -- output ---------------------------------------------------------------------

    def get(self, phase: str, key: str) -> float:
        return self.totals.get((phase, key), 0.0)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, f)

"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation used by the model either lives here or is
composed from operations here. A Tensor wraps a float64 numpy array; ops
record a backward closure so that ``backward()`` on a scalar loss fills
``.grad`` on every reachable leaf created with ``requires_grad=True`` (and
frees the recorded graph as it goes).

Only what the model needs is implemented: matmul (2-D or batched),
elementwise arithmetic with numpy broadcasting, reductions, reshapes, axis
permutation, slicing, the activation zoo, depthwise 1-D convolution, a
linear map, the fold of per-channel affine maps into its weight and bias
(``fold``, made of the ops above; ``fold_once`` keeps the folds between
forwards that do not record), and batch normalization.
``Module`` derives a model part's named state from its attributes;
``mac_counter`` and ``scope`` count the ops' forward work per named model
part.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import platform

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

# Freed heap top that glibc keeps mapped, so each forward reuses the pages the
# last backward freed instead of faulting in fresh ones (about 2,100 minor
# faults per async_long window by default). The largest tape is a `suite` run of
# 8 windows at 4096 rows (7.2 MiB, 7.8 MiB at its backward's peak; a steady
# `suite` epoch makes 3-26 faults), and a 16 MiB pad was already fault-free on
# all three benchmark workloads. The pad stops glibc raising its mmap threshold
# as big arrays are freed, so that is set to the same 32 MiB, its ceiling.
# Allocation changes no arithmetic.
HEAP_TOP_PAD = 32 << 20
# Resident slack above the highest heap page a pass has touched
# (``keep_heap_slack``). The small arrays that outlive a pass (gradients, Adam's
# moments, numpy's cache of small buffers) land where its tape was, so the next
# tape starts a little higher and its backward's peak reaches pages no pass has
# touched. With a worker taking one of two async_long-sized windows, the epoch
# after a one-epoch warm-up faulted in 30-150 fresh pages; without one, an epoch
# now and then faulted in up to 180. 1 or 2 MiB of slack took every epoch after
# the first to 0-6 faults; 2 leaves room for runs of larger arrays.
HEAP_SLACK = 2 << 20
_MADV_POPULATE_WRITE = 23  # madvise(2), Linux 5.14 on
_RESIDENT = [0]  # the heap's end up to which the slack is resident; 0 where none is kept
if platform.libc_ver()[0] == "glibc":
    _LIBC = ctypes.CDLL(None)
    _LIBC.mallopt(-2, HEAP_TOP_PAD)  # M_TOP_PAD (mallopt(3))
    _LIBC.mallopt(-3, HEAP_TOP_PAD)  # M_MMAP_THRESHOLD
    _LIBC.sbrk.restype, _LIBC.sbrk.argtypes = ctypes.c_void_p, (ctypes.c_ssize_t,)
    _LIBC.mincore.restype, _LIBC.mincore.argtypes = ctypes.c_int, (
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
    _LIBC.madvise.restype, _LIBC.madvise.argtypes = ctypes.c_int, (
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    _RESIDENT[0] = _LIBC.sbrk(0) or 0


def keep_heap_slack() -> None:
    """Fault in ``HEAP_SLACK`` of the heap's free top above its highest
    touched page, where a pass has touched pages past the slack kept so far.
    ``backward`` runs it: a steady pass then finds its pages resident. No-op
    off glibc, and from the first time the kernel cannot populate a range."""
    if not _RESIDENT[0]:
        return
    page = mmap.PAGESIZE
    end = (_LIBC.sbrk(0) or 0) // page * page
    lo = min(_RESIDENT[0], end) // page * page  # a trimmed heap ends below the slack
    seen = np.zeros((end - lo) // page, dtype=np.uint8)  # mincore(2): bit 0, resident
    if seen.size and _LIBC.mincore(lo, end - lo, seen.ctypes.data) != 0:
        return
    touched = np.flatnonzero(seen & 1)
    if not touched.size:
        _RESIDENT[0] = lo
        return
    start = lo + (int(touched[-1]) + 1) * page
    stop = min(start + HEAP_SLACK, end)
    if stop > start and _LIBC.madvise(start, stop - start, _MADV_POPULATE_WRITE) != 0:
        stop = 0
    _RESIDENT[0] = stop


_GRAD_ENABLED = [True]
_MAC_COUNTERS: list["mac_counter"] = []
_SCOPE = [""]  # dotted name of the innermost open ``scope``
_STATS_WRITES = [0]  # in-place writes of normalizer statistics so far
_NO_SCOPE = contextlib.nullcontext()


class no_grad:
    """Context manager disabling tape recording (inference/eval paths)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


class mac_counter:
    """Counts the forward work of the ops run while it is open: ``total``
    MACs; ``ops`` maps each ``scope`` name ("" outside all) to [MACs, values
    read (operands), values written (outputs)]; ``spikes`` maps a spiking
    op's name to [event rows, spikes, slots] of its rasters (pads included)."""

    def __init__(self):
        self.total = 0
        self.ops: dict[str, list] = {}
        self.spikes: dict[str, list] = {}

    def __enter__(self):
        _MAC_COUNTERS.append(self)
        return self

    def __exit__(self, *exc):
        _MAC_COUNTERS.remove(self)
        return False


@contextlib.contextmanager
def _named(name: str):
    outer = _SCOPE[0]
    _SCOPE[0] = f"{outer}.{name}" if outer else name
    try:
        yield
    finally:
        _SCOPE[0] = outer


def scope(name: str):
    """Context that bills the ops run inside it to ``name`` (``outer.name``
    inside another scope); a shared no-op while no ``mac_counter`` is open."""
    return _named(name) if _MAC_COUNTERS else _NO_SCOPE


def _add(table: dict, key: str, counts: tuple) -> None:
    table[key] = [a + b for a, b in zip(table.get(key, (0,) * len(counts)), counts)]


def count_macs(n_mac: int, n_rd: int, n_wr: int) -> None:
    """Bill ``n_mac`` multiply-accumulates that read ``n_rd`` values and
    write ``n_wr`` to the current scope of every open ``mac_counter``."""
    for c in _MAC_COUNTERS:
        c.total += n_mac
        _add(c.ops, _SCOPE[0], (n_mac, n_rd, n_wr))


def count_spikes(name: str, s: np.ndarray) -> None:
    """Record the K event rows, spikes and slots of raster ``s`` [K, ...] as ``name``."""
    for c in _MAC_COUNTERS:
        _add(c.spikes, name, (s.shape[0], float(s.sum()), s.size))


class Tensor:
    """A float64 array plus an optional gradient and backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff -----------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar. Populates .grad on leaves.

        The tape is freed as the pass walks it: once a node's rule has run,
        the node drops its gradient, its rule and its parents, so each
        intermediate output and gradient dies as soon as the pass is past
        it. Leaves keep their ``.grad``; the tensors themselves keep their
        data. A released node cannot be differentiated again: a later
        backward that reaches one raises instead of returning partial
        gradients. Then the heap's slack is kept (``keep_heap_slack``).
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()  # consumers before parents
            if node._backward is None:
                continue  # a leaf
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _released, ()
        keep_heap_slack()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data + b.data

        def bwd(g):
            accumulate_grad(a, g)
            accumulate_grad(b, g)

        return make_op(out_data, (a, b), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data - b.data

        def bwd(g):
            accumulate_grad(a, g)
            if b.requires_grad:
                accumulate_grad(b, -g)

        return make_op(out_data, (a, b), bwd)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        a = self

        def bwd(g):
            accumulate_grad(a, -g)

        return make_op(-a.data, (a,), bwd)

    def __mul__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data * b.data
        count_macs(out_data.size, a.data.size + b.data.size, out_data.size)

        def bwd(g):
            if a.requires_grad:
                accumulate_grad(a, g * b.data)
            if b.requires_grad:
                accumulate_grad(b, g * a.data)

        return make_op(out_data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data / b.data

        def bwd(g):
            if a.requires_grad:
                accumulate_grad(a, g / b.data)
            if b.requires_grad:
                accumulate_grad(b, -g * a.data / (b.data * b.data))

        return make_op(out_data, (a, b), bwd)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __pow__(self, p):
        if not np.isscalar(p):
            raise ConfigError("only scalar exponents are supported")
        a, pf = self, float(p)
        out_data = a.data ** pf

        def bwd(g):
            accumulate_grad(a, g * pf * a.data ** (pf - 1.0))

        return make_op(out_data, (a,), bwd)

    def __matmul__(self, other):
        """[..., n, k] @ [..., k, m] with equal leading (batch) shapes."""
        a, b = self, _coerce(other)
        if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul needs equal-batch operands of >= 2 dims, "
                             f"got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        out_data = a.data @ b.data
        count_macs(out_data.size * a.shape[-1], a.data.size + b.data.size, out_data.size)

        def bwd(g):
            if a.requires_grad:
                accumulate_grad(a, g @ b.data.swapaxes(-1, -2))
            if b.requires_grad:
                accumulate_grad(b, a.data.swapaxes(-1, -2) @ g)

        return make_op(out_data, (a, b), bwd)

    # -- reductions and shape ops --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(g, axis)
            accumulate_grad(a, np.broadcast_to(gg, a.data.shape))

        return make_op(out_data, (a,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = 1
            for ax in axes:
                n *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def bwd(g):
            accumulate_grad(a, g.reshape(a.data.shape))

        return make_op(out_data, (a,), bwd)

    def transpose(self, *axes):
        """Permute axes; with no arguments, swap the two axes of a 2-D tensor."""
        if not axes:
            if self.ndim != 2:
                raise ShapeError("transpose() without axes is defined for 2-D tensors")
            axes = (1, 0)
        a = self
        inverse = np.argsort(axes)

        def bwd(g):
            accumulate_grad(a, g.transpose(inverse))

        return make_op(a.data.transpose(axes), (a,), bwd)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]
        basic = all(isinstance(i, (int, slice)) or i is None or i is Ellipsis
                    for i in (idx if isinstance(idx, tuple) else (idx,)))

        def bwd(g):
            if not a.requires_grad:
                return
            if basic:  # a view of a: no entry repeats, so add in place
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                a.grad[idx] += g
            else:  # kept for the tests' differentiable gathers (the concat-decoder oracle)
                full = np.zeros_like(a.data)
                np.add.at(full, idx, g)
                accumulate_grad(a, full)

        return make_op(out_data, (a,), bwd)

    # -- elementwise nonlinearities -------------------------------------------

    def _elementwise(self, out_data, grad) -> Tensor:
        """An elementwise op's output; ``grad(g)`` is this input's gradient."""
        return make_op(out_data, (self,), lambda g: accumulate_grad(self, grad(g)))

    def exp(self):
        out_data = np.exp(self.data)
        return self._elementwise(out_data, lambda g: g * out_data)

    def log(self):
        return self._elementwise(np.log(self.data), lambda g: g / self.data)

    def log1p(self):
        return self._elementwise(np.log1p(self.data), lambda g: g / (1.0 + self.data))

    def sin(self):
        return self._elementwise(np.sin(self.data), lambda g: g * np.cos(self.data))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return self._elementwise(out_data, lambda g: g * 0.5 / out_data)

    def sigmoid(self):
        out_data = sigmoid(self.data)
        return self._elementwise(out_data, lambda g: g * out_data * (1.0 - out_data))

    def softplus(self):
        return self._elementwise(softplus(self.data), lambda g: g * sigmoid(self.data))

    def relu(self):
        return self._elementwise(np.maximum(self.data, 0.0), lambda g: g * (self.data > 0.0))


# -- construction helpers -----------------------------------------------------


def parameter(data) -> Tensor:
    """A learnable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def is_recording(*parents: Tensor) -> bool:
    """Whether an op on these inputs goes on the tape (grad enabled, one input trainable)."""
    return _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents)


def make_op(data, parents, backward) -> Tensor:
    """An op's output: on the tape, with its ``backward`` rule, while recording."""
    if is_recording(*parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward = backward
        return out
    return Tensor(data)


def accumulate_grad(t: Tensor, g) -> None:
    """Add an upstream gradient into ``t.grad``, summed down to ``t``'s shape."""
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    if t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _released(_g=None):
    """Backward rule left on a node whose backward already ran and freed it."""
    raise RuntimeError("backward() reached a tape node that an earlier backward() "
                       "freed; run the forward again")


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _released:
            _released()
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order  # parents before consumers


# -- stable scalar math on raw arrays -----------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid on a raw array."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # e^-|x| never overflows; a NaN keeps its sign
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow for |x| up to ~700."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# -- composite ops -------------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    parents = [_coerce(t) for t in tensors]
    out_data = np.concatenate([p.data for p in parents], axis=axis)
    sizes = [p.data.shape[axis] for p in parents]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parents, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            accumulate_grad(p, g[tuple(sl)])

    return make_op(out_data, tuple(parents), bwd)


def depthwise_conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Per-variate 1-D convolution over the event axis, zero 'same' padding.

    x: [K, ..., D]; kernels: [D, C, k] with k odd. Output [K, ..., D, C].
    Each variate is convolved with its own C kernels along axis 0; no
    cross-variate mixing. Middle axes (a batch of windows) are independent.
    """
    x, kernels = _coerce(x), _coerce(kernels)
    if x.ndim < 2 or kernels.ndim != 3:
        raise ShapeError(f"conv expects x [K,...,D], kernels [D,C,k]; got {x.shape}, "
                         f"{kernels.shape}")
    K, D = x.shape[0], x.shape[-1]
    Dk, C, k = kernels.shape
    if Dk != D:
        raise ShapeError(f"kernel variate dim {Dk} != input variate dim {D}")
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    r = (k - 1) // 2
    x_pad = np.zeros((K + 2 * r,) + x.shape[1:])
    x_pad[r:r + K] = x.data
    out = np.zeros(x.shape + (C,))
    for j in range(k):
        out += kernels.data[:, :, j] * x_pad[j:j + K, ..., None]
    count_macs(out.size * k, x.data.size + kernels.data.size, out.size)
    lead = tuple(range(x.ndim - 1))  # every axis but the variate axis

    def bwd(g):
        if x.requires_grad:
            gx_pad = np.zeros_like(x_pad)
            for j in range(k):
                gx_pad[j:j + K] += (g * kernels.data[:, :, j]).sum(axis=-1)
            accumulate_grad(x, gx_pad[r:r + K])
        if kernels.requires_grad:
            gk = np.empty_like(kernels.data)
            for j in range(k):
                gk[:, :, j] = (g * x_pad[j:j + K, ..., None]).sum(axis=lead)
            accumulate_grad(kernels, gk)

    return make_op(out, (x, kernels), bwd)


def linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ w + bias`` over the last axis, as one op.

    x: [..., n]; w: [n, m]; bias: [m] or None. The backward takes the
    weight gradient from the one product x^T g.
    """
    x, w = _coerce(x), _coerce(w)
    n, m = w.shape
    if x.shape[-1] != n:
        raise ShapeError(f"linear map takes {n} inputs, got {x.shape}")
    xd, wd = x.data.reshape(-1, n), w.data
    out = xd @ wd
    if bias is not None:
        out += bias.data
    count_macs(out.size * n, xd.size + wd.size, out.size)
    parents = (x, w) if bias is None else (x, w, bias)

    def bwd(g):
        g2 = g.reshape(-1, m)
        if x.requires_grad:
            accumulate_grad(x, (g2 @ wd.T).reshape(x.shape))
        if w.requires_grad:
            accumulate_grad(w, xd.T @ g2)
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, g2.sum(axis=0))

    return make_op(out.reshape(x.shape[:-1] + (m,)), parents, bwd)


def fold(w: Tensor, bias: Tensor | None = None, pre: tuple[Tensor, Tensor] | None = None,
         post: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, Tensor | None]:
    """``linear``'s weight and bias with per-channel maps folded in, as tape ops.

    ``pre = (a, c)`` ([n] each) and ``post = (p, r)`` ([m] each) are scales
    and shifts, such as a frozen ``BatchNorm.scale_shift``; they and
    ``bias`` [m] are optional. ``linear(x, *fold(w, bias, pre, post))``
    equals ``linear(x * a + c, w, bias) * p + r`` with
        w' = diag(a) w diag(p),    b' = (c @ w + bias) * p + r.
    """
    shift = bias
    if pre:
        a, c = pre
        w, shift = a.reshape(-1, 1) * w, linear(c, w, bias)
    if post:
        p, r = post
        w, shift = w * p, r if shift is None else shift * p + r
    return w, shift


def stats_written() -> None:
    """Note an in-place write of normalizer statistics (see ``fold_once``)."""
    _STATS_WRITES[0] += 1


def fold_once(owner, sources: tuple, make):
    """``make()``: what ``owner`` folds from ``sources`` (Tensors; a BatchNorm
    stands for its gamma and beta; None is skipped). A recording forward
    folds on the tape every call; any other (``predict``, ``evaluate``,
    ``calibrate``) keeps the value on ``owner`` while every source array is
    the same object (``Adam.step``, ``load_state``, ``p.data = ...`` rebind)
    and no statistics were written. No ``mac_counter`` counts a fold."""
    tensors = [t for s in sources if s is not None
               for t in ((s.gamma, s.beta) if isinstance(s, BatchNorm) else (s,))]
    if is_recording(*tensors):
        return _unbilled(make)
    key = (_STATS_WRITES[0], *(t.data for t in tensors))
    kept = vars(owner).get("_folded")
    if kept is None or len(kept[0]) != len(key) or any(a is not b for a, b in zip(kept[0], key)):
        kept = owner._folded = (key, _unbilled(make))
    return kept[1]


def _unbilled(make):
    """``make()`` with every open ``mac_counter`` paused."""
    counters = _MAC_COUNTERS[:]
    _MAC_COUNTERS.clear()
    try:
        return make()
    finally:
        _MAC_COUNTERS[:] = counters


class Module:
    """A model part whose named state is found from its attributes.

    ``vars(self)`` is walked in assignment order. A trainable ``Tensor`` is
    a parameter; an attribute with a ``parameters`` method is a child, and
    so is each such item of a list attribute. A child's names take the
    attribute name (plus the list index) as a prefix: ``blocks.0.attn.w_q``.
    Children are recognized by that method, not by type, so a stand-in that
    forwards attributes to a module keeps the module's state visible.
    """

    def _members(self):
        for name, value in vars(self).items():
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield f"{name}.{i}", item
            else:
                yield name, value

    def _children(self):
        return [(name, v) for name, v in self._members() if hasattr(v, "parameters")]

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, v in self._members():
            if isinstance(v, Tensor) and v.requires_grad:
                out[name] = v
            elif hasattr(v, "parameters"):
                out.update((f"{name}.{k}", p) for k, p in v.parameters().items())
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state arrays, collected from the children."""
        return {f"{name}.{k}": b for name, child in self._children()
                for k, b in child.buffers().items()}

    def modules(self):
        """This module, then every descendant, depth first."""
        yield self
        for _, child in self._children():
            yield from child.modules()


def moments(x: np.ndarray, lengths: np.ndarray | None = None) -> tuple:
    """Count, mean [C] and centred scatter matrix [C, C] of the rows of x [..., C];
    with ``lengths``, of a time-major batch [K, B, ..., C]'s real rows only
    (window b's first ``lengths[b]``)."""
    if lengths is not None:
        x = x[np.arange(x.shape[0])[:, None] < lengths]
    rows = x.reshape(-1, x.shape[-1])
    mean = rows.mean(axis=0)
    dev = rows - mean
    return rows.shape[0], mean, dev.T @ dev


class BatchNorm(Module):
    """Per-channel normalization with stored statistics; the channel axis is last.

    Every call applies ``running_mean``/``running_var`` and is deterministic.
    The statistics change only by ``commit`` (exact pooled moments of what
    ``observe`` kept between ``start_accumulation`` and ``stop_accumulation``)
    or by writing into the arrays in place (``SedFormer.load_state``); each
    such write calls ``stats_written``. There is no per-batch mode.
    """

    eps = 1e-5  # added to the variance

    def __init__(self, channels: int):
        self.channels = int(channels)
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._acc = None

    def start_accumulation(self) -> None:
        """Begin keeping what ``observe`` sees, in order."""
        self._acc = []

    @property
    def accumulating(self) -> bool:
        """Whether input moments are being kept for new statistics."""
        return self._acc is not None

    def observe(self, n: int, mean: np.ndarray, scatter: np.ndarray) -> None:
        """While accumulating, keep n rows' mean and centred scatter matrix: its
        diagonal, which is all ``commit`` reads (see ``moments``)."""
        if self._acc is not None and n:
            self._acc.append((n, mean, np.diagonal(scatter).copy()))

    def take_observations(self) -> list:
        """End accumulation: what ``observe`` kept, (n, mean, scatter diagonal)
        in order. The statistics do not change."""
        seen, self._acc = self._acc, None
        return seen or []

    def stop_accumulation(self) -> None:
        """End accumulation and ``commit`` what was observed."""
        self.commit(self.take_observations())

    def commit(self, observations: list) -> None:
        """Pool ``observations`` in order by Chan, Golub & LeVeque's pairwise
        update and make their moments the running statistics; none leaves them."""
        n_a, mean_a, m2_a = 0, np.zeros(self.channels), np.zeros(self.channels)
        for n, mean, diagonal in observations:
            total, delta = n_a + n, mean - mean_a
            n_a, mean_a, m2_a = (total, mean_a + delta * (n / total),
                                 m2_a + diagonal + delta * delta * (n_a * n / total))
        if n_a == 0:
            return
        self.running_mean[...] = mean_a
        self.running_var[...] = np.maximum(m2_a / n_a, 0.0)
        stats_written()

    def __call__(self, x: Tensor) -> Tensor:
        """Normalize ``x`` [..., C] with the stored statistics, op by op,
        observing its rows while accumulating: the normalizer's definition,
        which the model folds (``scale_shift``) instead of running."""
        if x.shape[-1] != self.channels:
            raise ShapeError(f"expected trailing dim {self.channels}, got {x.shape}")
        if self._acc is not None:
            self.observe(*moments(x.data))
        xhat = (x - self.running_mean) * ((self.running_var + self.eps) ** -0.5)
        return xhat * self.gamma + self.beta

    def scale_shift(self) -> tuple[Tensor, Tensor]:
        """The frozen map as ``x * s + t``: s = gamma / sqrt(var + eps) and
        t = beta - mean * s, as tape ops on gamma and beta."""
        s = self.gamma * (self.running_var + self.eps) ** -0.5
        return s, self.beta - s * self.running_mean

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


def assert_finite(x, what: str = "tensor") -> None:
    """NaN/Inf policy: abort loudly, never clamp."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values in {what}")

"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation used by the model either lives here or is
composed from operations here. A Tensor wraps a float64 numpy array; ops
record a backward closure so that ``backward()`` on a scalar loss fills
``.grad`` on every reachable tensor created with ``requires_grad=True``.

Only what the model needs is implemented: matmul (2-D or batched),
elementwise arithmetic with numpy broadcasting, reductions, reshapes, axis
permutation, basic slicing, the activation zoo, depthwise 1-D convolution,
and batch normalization. ``Module`` derives a model part's named state from
its attributes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

_GRAD_ENABLED = [True]
_MAC_COUNTERS: list["mac_counter"] = []


class no_grad:
    """Context manager disabling tape recording (inference/eval paths)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()
        return False


class mac_counter:
    """Counts multiply-accumulate work done by matmul/conv/elementwise-mul.

    Used to assert the linear-in-sequence-length cost of the attention path.
    Counts forward work only.
    """

    def __init__(self):
        self.total = 0

    def __enter__(self):
        _MAC_COUNTERS.append(self)
        return self

    def __exit__(self, *exc):
        _MAC_COUNTERS.remove(self)
        return False


def _count_macs(n: int) -> None:
    if _MAC_COUNTERS:
        for c in _MAC_COUNTERS:
            c.total += int(n)


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

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff -----------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar. Populates .grad on leaves."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data + b.data

        def bwd(g):
            _accum(a, g)
            _accum(b, g)

        return _op(out_data, (a, b), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data - b.data

        def bwd(g):
            _accum(a, g)
            _accum(b, -g)

        return _op(out_data, (a, b), bwd)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        a = self

        def bwd(g):
            _accum(a, -g)

        return _op(-a.data, (a,), bwd)

    def __mul__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data * b.data
        _count_macs(out_data.size)

        def bwd(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)

        return _op(out_data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _coerce(other)
        out_data = a.data / b.data

        def bwd(g):
            _accum(a, g / b.data)
            _accum(b, -g * a.data / (b.data * b.data))

        return _op(out_data, (a, b), bwd)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __pow__(self, p):
        if not np.isscalar(p):
            raise ConfigError("only scalar exponents are supported")
        a, pf = self, float(p)
        out_data = a.data ** pf

        def bwd(g):
            _accum(a, g * pf * a.data ** (pf - 1.0))

        return _op(out_data, (a,), bwd)

    def __matmul__(self, other):
        """[..., n, k] @ [..., k, m] with equal leading (batch) shapes."""
        a, b = self, _coerce(other)
        if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul needs equal-batch operands of >= 2 dims, "
                             f"got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        out_data = a.data @ b.data
        _count_macs(out_data.size * a.shape[-1])

        def bwd(g):
            _accum(a, g @ b.data.swapaxes(-1, -2))
            _accum(b, a.data.swapaxes(-1, -2) @ g)

        return _op(out_data, (a, b), bwd)

    # -- reductions and shape ops --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape))

        return _op(out_data, (a,), bwd)

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
            _accum(a, g.reshape(a.data.shape))

        return _op(out_data, (a,), bwd)

    def transpose(self, *axes):
        """Permute axes; with no arguments, swap the two axes of a 2-D tensor."""
        if not axes:
            if self.ndim != 2:
                raise ShapeError("transpose() without axes is defined for 2-D tensors")
            axes = (1, 0)
        a = self
        inverse = np.argsort(axes)

        def bwd(g):
            _accum(a, g.transpose(inverse))

        return _op(a.data.transpose(axes), (a,), bwd)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        a = self
        out_data = a.data[idx]

        def bwd(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            _accum(a, full)

        return _op(out_data, (a,), bwd)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def bwd(g):
            _accum(a, g * out_data)

        return _op(out_data, (a,), bwd)

    def log(self):
        a = self
        out_data = np.log(a.data)

        def bwd(g):
            _accum(a, g / a.data)

        return _op(out_data, (a,), bwd)

    def log1p(self):
        a = self
        out_data = np.log1p(a.data)

        def bwd(g):
            _accum(a, g / (1.0 + a.data))

        return _op(out_data, (a,), bwd)

    def sin(self):
        a = self
        out_data = np.sin(a.data)

        def bwd(g):
            _accum(a, g * np.cos(a.data))

        return _op(out_data, (a,), bwd)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def bwd(g):
            _accum(a, g * 0.5 / out_data)

        return _op(out_data, (a,), bwd)

    def sigmoid(self):
        a = self
        out_data = sigmoid(a.data)

        def bwd(g):
            _accum(a, g * out_data * (1.0 - out_data))

        return _op(out_data, (a,), bwd)

    def softplus(self):
        a = self
        out_data = softplus(a.data)

        def bwd(g):
            _accum(a, g * sigmoid(a.data))

        return _op(out_data, (a,), bwd)

    def relu(self):
        a = self
        out_data = np.maximum(a.data, 0.0)

        def bwd(g):
            _accum(a, g * (a.data > 0.0))

        return _op(out_data, (a,), bwd)


# -- construction helpers -----------------------------------------------------


def parameter(data) -> Tensor:
    """A learnable leaf tensor."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data, parents, backward) -> Tensor:
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward = backward
        return out
    return Tensor(data)


def make_op(data, parents, backward) -> Tensor:
    """Register a custom op (hand-derived backward) on the tape."""
    return _op(data, parents, backward)


def accumulate_grad(t: Tensor, g) -> None:
    """Add an upstream gradient into ``t.grad`` (for custom ops)."""
    _accum(t, g)


def _accum(t: Tensor, g) -> None:
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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
            _accum(p, g[tuple(sl)])

    return _op(out_data, tuple(parents), bwd)


def depthwise_conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Per-variate 1-D convolution over the event axis, zero 'same' padding.

    x: [K, D]; kernels: [D, C, k] with k odd. Output [K, D, C]. Each variate
    is convolved with its own C kernels; no cross-variate mixing.
    """
    x, kernels = _coerce(x), _coerce(kernels)
    if x.ndim != 2 or kernels.ndim != 3:
        raise ShapeError(f"conv expects x [K,D], kernels [D,C,k]; got {x.shape}, {kernels.shape}")
    K, D = x.shape
    Dk, C, k = kernels.shape
    if Dk != D:
        raise ShapeError(f"kernel variate dim {Dk} != input variate dim {D}")
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    r = (k - 1) // 2
    x_pad = np.pad(x.data, ((r, r), (0, 0)))
    out = np.zeros((K, D, C))
    for j in range(k):
        out += kernels.data[None, :, :, j] * x_pad[j:j + K, :, None]
    _count_macs(K * D * C * k)

    def bwd(g):
        gx_pad = np.zeros_like(x_pad)
        gk = np.zeros_like(kernels.data)
        for j in range(k):
            gx_pad[j:j + K] += (g * kernels.data[None, :, :, j]).sum(axis=2)
            gk[:, :, j] = (g * x_pad[j:j + K, :, None]).sum(axis=0)
        _accum(x, gx_pad[r:r + K])
        _accum(kernels, gk)

    return _op(out, (x, kernels), bwd)


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


class BatchNorm(Module):
    """Per-channel normalization with stored statistics; the channel axis is last.

    Every call applies ``running_mean``/``running_var`` and is deterministic.
    The statistics change only through ``start_accumulation``/
    ``stop_accumulation`` (exact pooled moments over many calls) or by
    writing into the arrays in place (``SedFormer.load_state``); there is
    no per-batch mode.
    """

    def __init__(self, channels: int, eps: float = 1e-5):
        self.channels = int(channels)
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.eps = float(eps)
        self._acc = None

    def start_accumulation(self) -> None:
        """Begin recording exact pooled input moments across forwards."""
        self._acc = [0, np.zeros(self.channels), np.zeros(self.channels)]

    def stop_accumulation(self) -> None:
        """Commit accumulated moments as the new running statistics."""
        acc, self._acc = self._acc, None
        if acc is None or acc[0] == 0:
            return
        n, s, sq = acc
        mean = s / n
        self.running_mean[...] = mean
        self.running_var[...] = np.maximum(sq / n - mean * mean, 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.channels:
            raise ShapeError(f"expected trailing dim {self.channels}, got {x.shape}")
        orig_shape = x.shape
        flat = x.reshape(-1, self.channels)
        if self._acc is not None:
            self._acc[0] += flat.shape[0]
            self._acc[1] += flat.data.sum(axis=0)
            self._acc[2] += (flat.data * flat.data).sum(axis=0)
        xhat = (flat - self.running_mean) * ((self.running_var + self.eps) ** -0.5)
        out = xhat * self.gamma + self.beta
        return out.reshape(orig_shape)

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


def assert_finite(x, what: str = "tensor") -> None:
    """NaN/Inf policy: abort loudly, never clamp."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values in {what}")

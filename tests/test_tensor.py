import numpy as np
import pytest

from conftest import gradcheck
from sedformer.errors import ConfigError, NumericsError, ShapeError
from sedformer.tensor import (BatchNorm, Tensor, assert_finite, concat,
                              depthwise_conv1d, fold, linear, mac_counter, moments, no_grad,
                              parameter, scope, sigmoid, softplus)


def test_matmul_value():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[0.0], [1.0]]))
    out = a @ b
    assert np.array_equal(out.data, np.array([[2.0], [4.0]]))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):  # batch shapes must be equal, no broadcasting
        Tensor(np.ones((2, 4, 3))) @ Tensor(np.ones((3, 3, 5)))
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 4, 3))) @ Tensor(np.ones((3, 5)))


def test_softplus_values():
    assert abs(float(softplus(np.array(0.0))) - np.log(2.0)) < 1e-12
    assert abs(float(softplus(np.array(50.0))) - 50.0) < 1e-12
    assert float(sigmoid(np.array(0.0))) == 0.5


def test_sigmoid_bitwise_equals_masked_formula():
    """The branch-free sigmoid gives the bits of the two-branch formula
    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) otherwise, also at the edges."""
    def masked(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    rng = np.random.default_rng(13)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                      746.0, -746.0, 709.0, -709.0, 5e-324, -5e-324])
    for x in (rng.normal(scale=30.0, size=(80, 8, 32)), edges):
        with np.errstate(invalid="ignore"):
            want = masked(x)
        got = sigmoid(x)
        assert got.shape == x.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_activate_kinds():
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    assert np.allclose(x.relu().data, [0.0, 0.0, 2.0])
    assert np.allclose(x.exp().data, np.exp(x.data))


def test_broadcast_backward():
    a = parameter(np.ones((3, 1)))
    b = parameter(np.ones(4))

    def build():
        return ((a * b) + b).sum()

    gradcheck(build, [a, b])


@pytest.mark.parametrize("op", [
    lambda x, y: (x + y).sum(),
    lambda x, y: (x - y).sum(),
    lambda x, y: (x * y).sum(),
    lambda x, y: (x / (y * y + 1.0)).sum(),
    lambda x, y: (x @ y.T).sum(),
    lambda x, y: (x ** 3).mean() + y.sum(),
    lambda x, y: x.exp().sum() + y.sigmoid().sum(),
    lambda x, y: (x * x + 0.5).log().sum() + y.softplus().sum(),
    lambda x, y: (x * x).sqrt().sum() + y.sin().sum(),
    lambda x, y: x.relu().sum() + (y * y).log1p().sum(),
    lambda x, y: x.reshape(-1).sum() + y.transpose().sum(),
    lambda x, y: x[1:, :].sum() + y[:, 0].sum(),
    lambda x, y: concat([x, y], axis=0).mean(),
    lambda x, y: x.sum(axis=0).mean() + y.mean(),
    lambda x, y: ((x.reshape(2, 2, 3) @ y.reshape(2, 3, 2)) ** 2).sum(),
    lambda x, y: (x.reshape(2, 3, 2).transpose(2, 0, 1).reshape(-1) * y.reshape(-1)).sum(),
])
def test_op_gradients(op):
    rng = np.random.default_rng(11)
    for trial in range(3):
        x = parameter(rng.normal(size=(4, 3)) + 0.1)
        y = parameter(rng.normal(size=(4, 3)) + 0.1)
        gradcheck(lambda: op(x, y), [x, y])


def test_relu_kink_excluded():
    x = parameter(np.array([1.0, -2.0, 3.0]))
    gradcheck(lambda: x.relu().sum(), [x])


def test_getitem_backward_accumulates():
    x = parameter(np.arange(4.0))
    loss = (x[1] + x[1] + x[2]).sum()
    loss.backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


def test_basic_slices_add_into_the_parent_gradient():
    """Basic slices write their gradients into the parent's in place; an
    integer-array index with repeats still adds every occurrence."""
    rng = np.random.default_rng(2)
    x = parameter(rng.normal(size=(6, 3)))
    w = rng.normal(size=(6, 3))
    parts = [x[0:2], x[2:5], x[1:3, 1], x[5]]
    idx = np.array([0, 0, 4])
    loss = sum((p * Tensor(w[s])).sum() for p, s in zip(
        parts, [np.s_[0:2], np.s_[2:5], np.s_[1:3, 1], np.s_[5]])) + x[idx].sum()
    loss.backward()
    want = np.zeros((6, 3))
    for s in (np.s_[0:2], np.s_[2:5], np.s_[1:3, 1], np.s_[5]):
        want[s] += w[s]
    np.add.at(want, idx, 1.0)
    assert np.array_equal(x.grad, want)


def test_depthwise_conv_value():
    x = Tensor(np.array([[1.0], [0.0], [0.0], [0.0]]))
    kernels = Tensor(np.array([[[1.0, 1.0, 1.0]]]))  # [D=1, C=1, k=3]
    out = depthwise_conv1d(x, kernels)
    assert out.shape == (4, 1, 1)
    assert np.allclose(out.data.ravel(), [1.0, 1.0, 0.0, 0.0])


def test_depthwise_conv_even_kernel_rejected():
    with pytest.raises(ConfigError):
        depthwise_conv1d(Tensor(np.ones((4, 1))), Tensor(np.ones((1, 1, 2))))


def test_depthwise_conv_gradient():
    rng = np.random.default_rng(5)
    x = parameter(rng.normal(size=(6, 2)))
    k = parameter(rng.normal(size=(2, 3, 3)))
    gradcheck(lambda: (depthwise_conv1d(x, k) ** 2).sum(), [x, k])


def test_batchnorm_eval_identity():
    bn = BatchNorm(3)
    x = Tensor(np.array([[1.0, -2.0, 0.5]]))
    assert np.allclose(bn(x).data, x.data, atol=1e-5)


def test_batchnorm_running_update_and_eval_determinism():
    rng = np.random.default_rng(9)
    bn = BatchNorm(2)
    x = rng.normal(1.0, 2.0, size=(100, 2))
    bn.start_accumulation()
    bn(Tensor(x))
    bn.stop_accumulation()
    a = bn(Tensor(x)).data
    b = bn(Tensor(x)).data
    assert np.array_equal(a, b)


def test_batchnorm_gradients_both_modes():
    """Both sources of statistics: construction defaults and accumulated moments."""
    rng = np.random.default_rng(21)
    for accumulated in (False, True):
        bn = BatchNorm(3)
        x = parameter(rng.normal(size=(7, 3)))
        if accumulated:
            bn.start_accumulation()
            bn(Tensor(rng.normal(2.0, 3.0, size=(20, 3))))
            bn.stop_accumulation()
        gradcheck(lambda: (bn(x) ** 2).sum(), [x, bn.gamma, bn.beta])


def test_batchnorm_accumulation_pools_exact_moments():
    rng = np.random.default_rng(4)
    bn = BatchNorm(3)
    chunks = [rng.normal(loc=i, size=(10 + i, 3)) for i in range(4)]
    bn.start_accumulation()
    for c in chunks:
        bn(Tensor(c))
    bn.stop_accumulation()
    allx = np.concatenate(chunks)
    assert np.allclose(bn.running_mean, allx.mean(axis=0))
    assert np.allclose(bn.running_var, allx.var(axis=0))


def test_batchnorm_call_observes_its_input():
    """``__call__`` observes its input while accumulating, so one call
    between start and stop gives exactly that input's moments."""
    z = np.random.default_rng(6).normal(3.0, 2.0, size=(6, 4, 3))
    bn = BatchNorm(3)
    bn.start_accumulation()
    bn(Tensor(z))
    bn.stop_accumulation()
    rows = z.reshape(-1, 3)
    assert np.allclose(bn.running_mean, rows.mean(axis=0), rtol=1e-14, atol=0.0)
    assert np.allclose(bn.running_var, rows.var(axis=0), rtol=1e-14, atol=0.0)


def test_moments_skip_pads_and_pool_centred():
    """``moments`` counts only a time-major batch's real rows, and pooling
    chunks by ``observe`` keeps the moments of all rows where an uncentred
    sum of squares loses them: at offset 1e6 and spread 1, ``sq/n - mean^2``
    misses the variance by ~1e-4 relative, the pooled centred sums by ~1e-10
    (the chunk means' rounding)."""
    rng = np.random.default_rng(8)
    x = rng.normal(1e6, 1.0, size=(5, 3, 2, 4))
    lengths = np.array([5, 2, 1])
    x[np.arange(5)[:, None] >= lengths] = 1e9  # pads must not count
    rows = np.concatenate([x[:n, b].reshape(-1, 4) for b, n in enumerate(lengths)])
    n, mean, scatter = moments(x, lengths)
    dev = rows - rows.mean(axis=0)
    assert n == rows.shape[0]
    assert np.allclose(mean, rows.mean(axis=0), rtol=1e-15, atol=0.0)
    assert np.allclose(scatter, dev.T @ dev, rtol=1e-12, atol=1e-12)
    bn = BatchNorm(4)
    bn.start_accumulation()
    for chunk in np.array_split(rows, 4):
        bn.observe(*moments(chunk))
    bn.observe(0, np.full(4, np.nan), np.full((4, 4), np.nan))  # an empty chunk adds nothing
    bn.stop_accumulation()
    assert np.allclose(bn.running_mean, rows.mean(axis=0), rtol=1e-15, atol=0.0)
    assert np.allclose(bn.running_var, rows.var(axis=0), rtol=1e-8, atol=0.0)
    before = bn.running_var.copy()
    bn.observe(*moments(rows[:3]))  # not accumulating: ignored
    bn.stop_accumulation()
    assert np.array_equal(bn.running_var, before)


def _frozen_norm(rng, channels):
    """A normalizer with non-identity statistics, scale and shift."""
    bn = BatchNorm(channels)
    bn.start_accumulation()
    bn(Tensor(rng.normal(1.5, 3.0, size=(40, channels))))
    bn.stop_accumulation()
    bn.gamma.data = rng.normal(1.0, 0.5, size=channels)
    bn.beta.data = rng.normal(0.0, 0.5, size=channels)
    return bn


def test_linear_folds_frozen_batch_norms():
    """post(pre(x) @ w + b) as a linear map of the folded weight and bias
    equals the unfolded composition, outputs and gradients to 1e-12, with
    every combination of parts."""
    rng = np.random.default_rng(31)
    n, m = 5, 4
    for with_pre, with_post, with_bias in [(True, True, True), (True, False, True),
                                           (False, True, False), (True, True, False),
                                           (False, False, True), (False, False, False)]:
        x = parameter(rng.normal(2.0, 3.0, size=(3, 7, n)))
        w = parameter(rng.normal(size=(n, m)))
        b = parameter(rng.normal(size=m)) if with_bias else None
        pre = _frozen_norm(rng, n) if with_pre else None
        post = _frozen_norm(rng, m) if with_post else None
        g = rng.normal(size=(3, 7, m))
        leaves = [x, w] + ([b] if with_bias else []) + [
            t for bn in (pre, post) if bn is not None for t in (bn.gamma, bn.beta)]

        def run(folded):
            for t in leaves:
                t.grad = None
            if folded:
                y = linear(x, *fold(w, b, pre and pre.scale_shift(),
                                    post and post.scale_shift()))
            else:
                h = (pre(x) if pre else x).reshape(-1, n) @ w
                h = (h + b if b is not None else h).reshape(3, 7, m)
                y = post(h) if post else h
            (y * Tensor(g)).sum().backward()
            return y.data, [t.grad.copy() for t in leaves]

        (y_f, g_f), (y_u, g_u) = run(True), run(False)
        assert np.max(np.abs(y_f - y_u)) <= 1e-12 * np.max(np.abs(y_u))
        for a, e in zip(g_f, g_u):
            assert np.max(np.abs(a - e)) <= 1e-12 * np.max(np.abs(e))


def test_linear_gradient():
    rng = np.random.default_rng(8)
    x = parameter(rng.normal(size=(2, 4, 3)))
    w = parameter(rng.normal(size=(3, 2)))
    b = parameter(rng.normal(size=2))
    pre = (parameter(rng.normal(size=3)), parameter(rng.normal(size=3)))
    post = (parameter(rng.normal(size=2)), parameter(rng.normal(size=2)))
    gradcheck(lambda: (linear(x, *fold(w, b, pre, post)) ** 2).sum(),
              [x, w, b, *pre, *post])
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((2, 2))))


def test_mac_counter_matmul():
    with mac_counter() as macs:
        Tensor(np.ones((3, 4))) @ Tensor(np.ones((4, 5)))
    assert macs.total == 3 * 4 * 5
    with mac_counter() as macs:
        Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((2, 4, 5)))
    assert macs.total == 2 * 3 * 4 * 5


def test_scopes_name_the_counted_work():
    with mac_counter() as macs:
        with scope("a"):
            Tensor(np.ones(3)) * 2.0
            with scope("b"):
                Tensor(np.ones((2, 4))) @ Tensor(np.ones((4, 5)))
        Tensor(np.ones(2)) * Tensor(np.ones(2))
    assert macs.ops == {"a": [3, 4, 3], "a.b": [40, 28, 10], "": [2, 4, 2]}
    assert macs.total == 45
    assert scope("a") is scope("b")  # no counter open: one shared no-op


def test_no_grad_blocks_tape():
    x = parameter(np.ones(3))
    with no_grad():
        y = (x * 2.0).sum()
    assert y._parents == ()


def test_assert_finite():
    assert_finite(np.ones(3))
    with pytest.raises(NumericsError):
        assert_finite(np.array([1.0, np.inf]))


def test_backward_requires_scalar():
    x = parameter(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_backward_frees_the_tape():
    """Interior nodes drop gradient, rule and parents; leaves keep .grad."""
    x = parameter(np.array([1.0, 2.0]))
    y = x * 3.0
    z = (y * y).sum()
    z.backward()
    assert np.array_equal(x.grad, [18.0, 36.0])
    for node in (y, z):
        assert node.grad is None and node._parents == ()
    assert np.array_equal(y.data, [3.0, 6.0])  # outputs keep their values


@pytest.mark.parametrize("again", [lambda z, y: z, lambda z, y: (y * 2.0).sum()],
                         ids=["same-root", "new-root-over-freed-node"])
def test_backward_through_freed_node_raises(again):
    x = parameter(np.array([1.0, 2.0]))
    y = x * 3.0
    z = (y * y).sum()
    z.backward()
    x.grad = None
    with pytest.raises(RuntimeError, match="freed"):
        again(z, y).backward()
    assert x.grad is None  # nothing was accumulated before the raise

import numpy as np
import pytest

from conftest import gradcheck
from sedformer.errors import ConfigError, NumericsError, ShapeError
from sedformer.tensor import (BatchNorm, Tensor, assert_finite, concat,
                              depthwise_conv1d, mac_counter, no_grad, parameter,
                              sigmoid, softplus)


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


def test_mac_counter_matmul():
    with mac_counter() as macs:
        Tensor(np.ones((3, 4))) @ Tensor(np.ones((4, 5)))
    assert macs.total == 3 * 4 * 5
    with mac_counter() as macs:
        Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((2, 4, 5)))
    assert macs.total == 2 * 3 * 4 * 5


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

import os

# One BLAS/OpenMP thread, as benchmarks/run.py sets (THREAD_VARS), before
# numpy loads. With OpenBLAS's default pool on a 2-CPU host and a second busy
# process, one [720, 64] @ [64, 64] product took 6.8 ms instead of 0.26 ms.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from sedformer.encoder import EventSeries  # noqa: E402
from sedformer.tensor import Tensor, mac_counter  # noqa: E402


def numeric_grad(fn, leaves, step=1e-5):
    """Central finite differences of a scalar-valued rebuild function.

    ``fn`` re-runs the forward pass from the current leaf data and returns
    a float; gradients are taken coordinate by coordinate.
    """
    grads = []
    for leaf in leaves:
        g = np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = fn()
            flat[i] = keep - step
            down = fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def gradcheck(build, leaves, rel_tol=1e-4, step=1e-5, atol=1e-7):
    """Compare reverse-mode gradients of ``build()`` against finite differences.

    ``build`` constructs a fresh scalar Tensor from the given leaf tensors.
    Returns the worst absolute discrepancy; raises AssertionError on failure.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = build()
    assert loss.data.shape == (), "gradcheck needs a scalar loss"
    loss.backward()
    analytic = [np.zeros_like(l.data) if l.grad is None else l.grad.copy()
                for l in leaves]
    numeric = numeric_grad(lambda: float(build().data), leaves, step=step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        gap = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        bad = gap > atol + rel_tol * scale
        if np.any(bad):
            i = np.unravel_index(np.argmax(gap), gap.shape)
            raise AssertionError(
                f"gradient mismatch at {i}: analytic={a[i]!r} numeric={n[i]!r}")
        worst = max(worst, float(gap.max()))
    return worst


def assert_same_op(fused, composed, leaves):
    """A fused op and the ops it replaces: ``fused()`` and ``composed()`` each
    build one output from ``leaves``, and both must give bitwise the same
    output and leaf gradients (under one fixed random cotangent) and bill
    the same MACs, reads and writes."""
    got = []
    for build in (fused, composed):
        for leaf in leaves:
            leaf.grad = None
        with mac_counter() as counter:
            out = build()
        (out * Tensor(np.random.default_rng(1).normal(size=out.shape))).sum().backward()
        got.append((out.data, [leaf.grad for leaf in leaves], counter.ops))
    (out_f, grads_f, ops_f), (out_c, grads_c, ops_c) = got
    assert out_f.tobytes() == out_c.tobytes()
    for i, (a, b) in enumerate(zip(grads_f, grads_c)):
        assert a.tobytes() == b.tobytes(), f"gradient of leaf {i}"
    assert ops_f == ops_c


def random_series(rng, n_events=None, n_variates=3, span=90.0) -> EventSeries:
    """Random strictly-increasing event series with a sane mask."""
    k = int(n_events if n_events is not None else rng.integers(8, 25))
    times = np.sort(rng.uniform(0.0, span, size=k))
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.uniform(0.0, span, size=k))
    values = rng.normal(size=(k, n_variates))
    mask = (rng.uniform(size=(k, n_variates)) < 0.7).astype(np.float64)
    rows = mask.sum(axis=1) == 0
    mask[rows, rng.integers(0, n_variates, size=int(rows.sum()))] = 1.0
    return EventSeries(times=times, values=values * mask, mask=mask)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    outcomes = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if getattr(rep, "failed", False):
                outcomes[name] = "FAIL"
            else:
                outcomes.setdefault(name, "PASS")
    if outcomes:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name in sorted(outcomes):
            terminalreporter.write_line(f"  {outcomes[name]:<4}  {name}")

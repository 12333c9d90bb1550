"""The benchmark's tracer still finds every entry point it wraps.

``benchmarks/tracing.py`` patches functions and methods of ``sedformer`` by
name; a rename there would otherwise break only ``run.py --trace 1``.
"""

import contextlib
import importlib
from pathlib import Path

import sedformer.backbone
import sedformer.encoder
import sedformer.model
import sedformer.training
from sedformer import ModelConfig, SedFormer, SuiteConfig, parallel, synth_suite
from sedformer.tensor import Tensor
from sedformer.training import TrainConfig

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _run(model, splits, tracer=None):
    """One training epoch, one evaluate pass and one predict per test
    window, called through the module attributes the tracer patches."""
    phase = tracer.phase if tracer else lambda _name: contextlib.nullcontext()
    with phase("train"):
        history = sedformer.training.train(model, splits["train"], splits["val"],
                                           TrainConfig(epochs=1, batch_size=4))["history"]
    with phase("eval"):
        mse = sedformer.training.evaluate(model, splits["test"])["mse"]
    with phase("predict"):
        preds = [model.predict(it.series, it.query_times) for it in splits["test"]]
    return history, mse, preds


def test_tracer_wraps_every_layer_and_changes_nothing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(parallel, "ENABLED", False)  # the tracer wraps this process only
    tracing = importlib.import_module("tracing")
    splits = synth_suite(SuiteConfig(n_series=1, n_days=300, seed=0))
    assert all(splits[s] for s in ("train", "val", "test"))

    def model():
        return SedFormer(ModelConfig(n_variates=4, conv_channels=4, dim=8, heads=2, blocks=2,
                                     pool_stride=2, seed=0))

    untraced = _run(model(), splits)
    traced_model = model()
    owners = [sedformer.encoder, sedformer.backbone, sedformer.model, sedformer.training,
              sedformer.training.Adam, Tensor, traced_model, traced_model.encoder,
              *traced_model.blocks]
    before = [dict(vars(o)) for o in owners]
    tracer = tracing.Tracer({})
    tracer.attach(traced_model)
    try:
        traced = _run(traced_model, splits, tracer)
    finally:
        tracer.detach()

    (h_u, mse_u, preds_u), (h_t, mse_t, preds_t) = untraced, traced
    assert h_t == h_u and mse_t == mse_u
    assert all(a is None and b is None or a.tobytes() == b.tobytes()
               for pu, pt in zip(preds_u, preds_t) for a, b in zip(pu, pt))
    for phase in ("train", "predict"):
        for layer in tracing.LAYERS:
            assert tracer.get(phase, f"{layer}.calls") > 0, (phase, layer)
    assert tracer.get("train", "tensor.backward.calls") > 0
    for owner, attrs in zip(owners, before):
        now = {k: v for k, v in vars(owner).items() if k != "_folded"}  # folds kept since
        assert now.keys() == attrs.keys() - {"_folded"}, owner
        assert all(now[k] is attrs[k] for k in now), owner

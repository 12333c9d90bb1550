"""Loss, optimizer, training loop, metrics, baselines, checkpoints.

The loss weights every variate equally regardless of how many queries it
carries (mean over variates of per-variate mean squared error). Reported
evaluation metrics are different on purpose: they pool all queries into
one flat set, so variates with more queries weigh more there.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .encoder import EventSeries
from .errors import ConfigError, DataError, NumericsError
from .model import ModelConfig, SedFormer
from .tensor import Tensor, assert_finite


@dataclass
class WindowItem:
    """One supervised example: a history window plus per-variate queries."""

    series: EventSeries
    query_times: list[np.ndarray]
    targets: list[np.ndarray]

    def __post_init__(self):
        if len(self.query_times) != len(self.targets):
            raise ConfigError("query_times and targets must have equal length")
        for q, y in zip(self.query_times, self.targets):
            if np.asarray(q).shape != np.asarray(y).shape:
                raise ConfigError("each query list needs one target per query")
            if not np.all(np.isfinite(np.asarray(y, dtype=np.float64))):
                raise DataError("targets must be finite")

    @property
    def n_queries(self) -> int:
        return int(sum(np.asarray(q).size for q in self.query_times))


def variate_balanced_mse(preds: list[Tensor | None],
                         targets: list[np.ndarray]) -> Tensor:
    """Mean over queried variates of the per-variate mean squared error.

    Variates without queries are excluded from the outer mean (with a
    warning), so every queried variate weighs equally no matter how many
    queries it carries.
    """
    terms = []
    for d, (p, y) in enumerate(zip(preds, targets)):
        y = np.asarray(y, dtype=np.float64)
        if p is None or y.size == 0:
            warnings.warn(f"variate {d} has no queries; excluded from the loss")
            continue
        err = p - Tensor(y)
        terms.append((err * err).mean())
    if not terms:
        raise ConfigError("loss needs at least one query")
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


def flat_errors(preds: list, targets: list[np.ndarray]) -> np.ndarray:
    """All query errors pooled into one vector (order: variate, then query)."""
    errs = []
    for p, y in zip(preds, targets):
        y = np.asarray(y, dtype=np.float64)
        if p is None or y.size == 0:
            continue
        pv = p.data if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
        errs.append(pv.reshape(-1) - y.reshape(-1))
    if not errs:
        return np.zeros(0)
    return np.concatenate(errs)


def flat_metrics(all_errors: np.ndarray) -> dict:
    """Pooled MSE / MAE over every query of every item."""
    e = np.asarray(all_errors, dtype=np.float64)
    if e.size == 0:
        return {"mse": float("nan"), "mae": float("nan"), "n_queries": 0}
    return {"mse": float(np.mean(e * e)), "mae": float(np.mean(np.abs(e))),
            "n_queries": int(e.size)}


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 grad_clip: float | None = None):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")
        self.params = dict(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.grad_clip = grad_clip
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def _clip(self) -> None:
        if self.grad_clip is None:
            return
        sq = 0.0
        for p in self.params.values():
            if p.grad is not None:
                sq += float(np.sum(p.grad * p.grad))
        norm = np.sqrt(sq)
        if norm > self.grad_clip and norm > 0:
            scale = self.grad_clip / norm
            for p in self.params.values():
                if p.grad is not None:
                    p.grad *= scale

    def step(self) -> None:
        self._clip()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            assert_finite(g, f"gradient of {k}")
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1 ** self.t)
            v_hat = self.v[k] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 16
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None
    seed: int = 0


def evaluate(model: SedFormer, items: list[WindowItem]) -> dict:
    """Pooled metrics in inference mode (hard spikes, no tape)."""
    errs = []
    for item in items:
        preds = model.predict(item.series, item.query_times)
        errs.append(flat_errors(preds, item.targets))
    return flat_metrics(np.concatenate(errs) if errs else np.zeros(0))


def train(model: SedFormer, train_items: list[WindowItem],
          val_items: list[WindowItem], cfg: TrainConfig,
          log=None) -> dict:
    """Minibatch training with best-on-validation parameter selection.

    Returns {"history": [...], "best_epoch": int, "best_val_mse": float};
    the model is left holding the best parameters.
    """
    if not train_items:
        raise ConfigError("no training items")
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.adam_eps, grad_clip=cfg.grad_clip)
    history = []
    best = {"epoch": -1, "val_mse": float("inf"), "params": None, "buffers": None}
    train_series = [item.series for item in train_items]
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = rng.permutation(len(train_items))
        # pooled normalization stats, then gradient steps under those same
        # frozen stats: forwards see one series, so per-forward batch stats
        # would normalize away each window's level and break inference
        model.calibrate(train_series)
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_items[i] for i in order[start:start + cfg.batch_size]]
            opt.zero_grad()
            batch_loss = 0.0
            for item in batch:
                preds = model.forward(item.series, item.query_times)
                loss = variate_balanced_mse(preds, item.targets) * (1.0 / len(batch))
                assert_finite(loss, "training loss")
                loss.backward()
                batch_loss += loss.item()
            opt.step()
            epoch_losses.append(batch_loss)
        val = evaluate(model, val_items) if val_items else {"mse": float("nan"),
                                                            "mae": float("nan")}
        train_loss = float(np.mean(epoch_losses))
        if not np.isfinite(train_loss):
            raise NumericsError("training loss diverged")
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_mse": val["mse"], "val_mae": val["mae"]})
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} val_mse={val['mse']:.6f}")
        if val_items and val["mse"] < best["val_mse"]:
            best = {"epoch": epoch, "val_mse": val["mse"],
                    "params": {k: p.data.copy() for k, p in params.items()},
                    "buffers": {k: b.copy() for k, b in model.buffers().items()}}
    if best["params"] is not None:
        model.load_state(best["params"], best["buffers"])
    return {"history": history, "best_epoch": best["epoch"],
            "best_val_mse": best["val_mse"]}


# -- baselines ------------------------------------------------------------------


def persistence_forecast(series: EventSeries,
                         query_times: list[np.ndarray]) -> list[np.ndarray | None]:
    """Repeat each variate's last observed value at every query."""
    out = []
    for d, q in enumerate(query_times):
        q = np.asarray(q, dtype=np.float64)
        if q.size == 0:
            out.append(None)
            continue
        obs = np.nonzero(series.mask[:, d] == 1.0)[0]
        last = series.values[obs[-1], d] if obs.size else 0.0
        out.append(np.full(q.shape, last))
    return out


def mean_forecast(series: EventSeries,
                  query_times: list[np.ndarray]) -> list[np.ndarray | None]:
    """Repeat each variate's observed mean at every query."""
    out = []
    for d, q in enumerate(query_times):
        q = np.asarray(q, dtype=np.float64)
        if q.size == 0:
            out.append(None)
            continue
        m = series.mask[:, d] == 1.0
        mean = float(series.values[m, d].mean()) if m.any() else 0.0
        out.append(np.full(q.shape, mean))
    return out


def baseline_metrics(items: list[WindowItem], kind: str) -> dict:
    fn = {"persistence": persistence_forecast, "mean": mean_forecast}.get(kind)
    if fn is None:
        raise ConfigError(f"unknown baseline: {kind!r}")
    errs = [flat_errors(fn(it.series, it.query_times), it.targets) for it in items]
    return flat_metrics(np.concatenate(errs) if errs else np.zeros(0))


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(path: str, model: SedFormer) -> None:
    """JSON checkpoint; byte-deterministic for identical state."""
    blob = {
        "version": 1,
        "config": model.config.to_dict(),
        "params": {k: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
                   for k, p in sorted(model.parameters().items())},
        "buffers": {k: {"shape": list(b.shape), "data": b.reshape(-1).tolist()}
                    for k, b in sorted(model.buffers().items())},
    }
    with open(path, "w") as f:
        json.dump(blob, f, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path: str) -> SedFormer:
    with open(path) as f:
        blob = json.load(f)
    if blob.get("version") != 1:
        raise ConfigError(f"unsupported checkpoint version: {blob.get('version')!r}")
    config = dict(blob["config"])
    # retired ModelConfig fields from older checkpoints: the first two never
    # change what a stored state predicts; a separate decoder time embedding
    # no longer exists, so only the shared setting loads
    config.pop("bn_momentum", None)
    config.pop("smooth_spikes", None)
    if not config.pop("share_time_embedding", True):
        raise ConfigError("checkpoint sets share_time_embedding=false; a separate "
                          "decoder time embedding is no longer supported")
    model = SedFormer(ModelConfig.from_dict(config))
    params = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
              for k, v in blob["params"].items()}
    buffers = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
               for k, v in blob["buffers"].items()}
    model.load_state(params, buffers)
    return model

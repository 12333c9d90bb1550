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

from . import parallel
from .encoder import EventSeries
from .errors import ConfigError, DataError, NumericsError
from .backbone import ATTENTION_EPS
from .model import TE_SPAN, ModelConfig, SedFormer, batch_ranges, eval_batches
from .neuron import ALPHA_STE, V_TH
from .tensor import Tensor, accumulate_grad, assert_finite, make_op, no_grad


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


def variate_balanced_mse(preds: list, targets: list) -> Tensor:
    """Mean over queried variates of the per-variate mean squared error.

    ``preds`` holds one [Q_d] tensor per variate (None where Q_d = 0) and
    ``targets`` the matching arrays. Variates without queries are excluded
    from the outer mean (with a warning), so every queried variate weighs
    equally no matter how many queries it carries.

    A run of windows (lists of such lists, as a list ``forward`` returns)
    gives the sum of the windows' losses. Either way the loss is one op,
        sum_{b,d,i} (p_{b,d,i} - y_{b,d,i})^2 / (n_{b,d} V_b),
    with n_{b,d} the queries of variate d in window b and V_b the queried
    variates of window b.
    """
    if not (preds and isinstance(preds[0], list)):  # one window
        preds, targets = [preds], [targets]
    parents, errs, weights = [], [], []
    for window_preds, window_targets in zip(preds, targets):
        queried = []
        for d, (p, y) in enumerate(zip(window_preds, window_targets)):
            y = np.asarray(y, dtype=np.float64)
            if p is None or y.size == 0:
                warnings.warn(f"variate {d} has no queries; excluded from the loss")
                continue
            queried.append((p, p.data - y))
        if not queried:
            raise ConfigError("loss needs at least one query")
        for p, e in queried:
            parents.append(p)
            errs.append(e)
            weights.append(np.full(e.size, 1.0 / (e.size * len(queried))))
    err, w = np.concatenate([e.reshape(-1) for e in errs]), np.concatenate(weights)
    ends = np.cumsum([e.size for e in errs])

    def bwd(g):
        grad = (2.0 * g) * w * err
        for p, e, end in zip(parents, errs, ends):
            accumulate_grad(p, grad[end - e.size:end].reshape(e.shape))

    return make_op(np.dot(w, err * err), parents, bwd)


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


# Adam's moment decays and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 grad_clip: float | None = None):
        self.params = dict(params)
        self.lr = lr
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
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            assert_finite(g, f"gradient of {k}")
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1 ** self.t)
            v_hat = self.v[k] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 16
    lr: float = 1e-3
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.grad_clip is not None and not (np.isfinite(self.grad_clip)
                                               and self.grad_clip > 0):
            raise ConfigError(f"grad_clip must be finite and positive, got {self.grad_clip}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def evaluate(model: SedFormer, items: list[WindowItem], scaler=None) -> dict:
    """Pooled metrics in inference mode (hard spikes, no tape).

    Windows run in batches of like length (``eval_batches``): in order of
    event count, under ``BATCH_ROWS`` rows, and alone from
    ``neuron.EVENT_PATH_MIN_K`` events on. Each prediction equals that of
    a ``predict`` call on its window alone (to 1e-12), and the errors pool
    in item order, whatever order the batches ran in.

    With a ``scaler`` (a ``data.Standardizer``) the items are raw: each window
    is scaled on the way in and its predictions unscaled on the way out.
    A worker process runs the second half of the batches where it may
    (``parallel.share``); the metrics are bitwise those of one process.
    """
    errs = [None] * len(items)
    batches = eval_batches([item.series for item in items], [item.n_queries for item in items])
    for half in parallel.share(window_errors, model, items, batches, scaler):
        for i, e in half or ():
            errs[i] = e
    e = np.concatenate(errs) if errs else np.zeros(0)
    assert_finite(e, "prediction errors")
    return flat_metrics(e)


def window_errors(model: SedFormer, items: list[WindowItem], batches: list,
                  scaler=None) -> list[tuple[int, np.ndarray]]:
    """(index, ``flat_errors``) of each window of ``batches`` (index lists of
    ``items``), batch by batch, with no tape; ``scaler`` as in ``evaluate``."""
    out = []
    with no_grad():
        for batch in batches:
            inputs = [items[i] if scaler is None else scaler.transform_item(items[i])
                      for i in batch]
            preds = model.forward([item.series for item in inputs],
                                  [item.query_times for item in inputs])
            for i, p in zip(batch, preds):
                if scaler is not None:
                    p = scaler.inverse([None if t is None else t.data for t in p])
                out.append((i, flat_errors(p, items[i].targets)))
    return out


def window_gradients(model: SedFormer, items: list[WindowItem], runs: list,
                     scale: float) -> tuple[float, dict]:
    """One forward, loss (``variate_balanced_mse`` times ``scale``) and
    backward per run (index lists of ``items``), in order. Returns the sum
    of the losses and each parameter's gradient sum (None where no run
    reached it), both in run order, and leaves every ``.grad`` cleared.
    Each backward frees its run's tape before the next run starts."""
    params = model.parameters()
    for p in params.values():
        p.grad = None
    total = 0.0
    for run in runs:
        windows = [items[i] for i in run]
        preds = model.forward([item.series for item in windows],
                              [item.query_times for item in windows])
        loss = variate_balanced_mse(preds, [item.targets for item in windows]) * scale
        assert_finite(loss, "training loss")
        loss.backward()
        total += loss.item()
    grads = {k: p.grad for k, p in params.items()}
    for p in params.values():
        p.grad = None
    return total, grads


def train(model: SedFormer, train_items: list[WindowItem],
          val_items: list[WindowItem], cfg: TrainConfig,
          log=None) -> dict:
    """Minibatch training with best-on-validation parameter selection.

    A minibatch is split into consecutive runs of at most ``BATCH_ROWS``
    padded rows (``batch_ranges``). Each run is one batched forward, one
    loss (the run's ``variate_balanced_mse`` over ``len(minibatch)``) and
    one backward, which frees that run's tape before the next run starts.
    The minibatch's loss and gradient are (the sum over its first
    ceil(n/2) runs) + (the sum over the rest), each half summed in run
    order (``window_gradients``).

    Where this process may use two CPUs (``parallel.ENABLED``), a worker
    process runs the second half of the runs of each pass (``parallel.share``):
    the epoch's ``calibrate``, each minibatch's gradient runs and the
    validation ``evaluate``. Every result is bitwise that of a run without it.

    Returns {"history": [...], "best_epoch": int, "best_val_mse": float};
    the model is left holding the best parameters.
    """
    if not train_items:
        raise ConfigError("no training items")
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr, grad_clip=cfg.grad_clip)
    history = []
    best = {"epoch": -1, "val_mse": float("inf"), "params": None, "buffers": None}
    train_series = [item.series for item in train_items]
    try:
        # an overflow, a division by zero or an invalid value is divergence too;
        # raising it stops the run at its first op instead of printing warnings
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for epoch in range(cfg.epochs):
                rng = np.random.default_rng([cfg.seed, epoch])
                order = rng.permutation(len(train_items))
                # pooled normalization stats, then gradient steps under those same
                # frozen stats: per-forward batch stats would tie each window's
                # scaling to its batch-mates (or normalize away a lone window's
                # level) and break inference
                model.calibrate(train_series)
                epoch_losses = []
                for start in range(0, len(order), cfg.batch_size):
                    picked = order[start:start + cfg.batch_size]
                    batch = [train_items[i] for i in picked]
                    runs = [picked[run.start:run.stop]
                            for run in batch_ranges([item.series for item in batch],
                                                    [item.n_queries for item in batch])]
                    (loss_a, grads_a), second = parallel.share(
                        window_gradients, model, train_items, runs, 1.0 / len(batch))
                    loss_b, grads_b = second or (0.0, {})  # a lone run has no second half
                    for k, p in params.items():
                        a, b = grads_a[k], grads_b.get(k)
                        p.grad = b if a is None else a if b is None else np.add(a, b, out=a)
                    opt.step()
                    epoch_losses.append(loss_a + loss_b)
                val = (evaluate(model, val_items) if val_items
                       else {"mse": float("nan"), "mae": float("nan")})
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
    except (NumericsError, FloatingPointError) as e:
        # finite parameters on checked data stay finite: the steps diverged
        raise ConfigError(f"training diverged ({e}): lower lr (now {cfg.lr:g}) or set a "
                          f"smaller grad_clip (now {cfg.grad_clip})") from e
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
        try:
            blob = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"checkpoint {path}: not valid JSON: {e}") from None
    if not isinstance(blob, dict):
        raise ConfigError(f"checkpoint {path}: expected a JSON object, got {type(blob).__name__}")
    if blob.get("version") != 1:
        raise ConfigError(f"unsupported checkpoint version: {blob.get('version')!r}")
    try:
        config = dict(blob["config"])
        # retired ModelConfig fields of older checkpoints: the first two never change a
        # prediction; the rest load only at the value this version fixes
        config.pop("bn_momentum", None)
        config.pop("smooth_spikes", None)
        fixed = {"share_time_embedding": True, "v_th": V_TH, "alpha_ste": ALPHA_STE,
                 "te_span": TE_SPAN, "attention_eps": ATTENTION_EPS}
        for name, value in fixed.items():
            if config.pop(name, value) != value:
                raise ConfigError(f"checkpoint sets {name}={blob['config'][name]!r}; this "
                                  f"version supports only {value!r}")
        model = SedFormer(ModelConfig.from_dict(config))
        params = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
                  for k, v in blob["params"].items()}
        buffers = {k: np.array(v["data"], dtype=np.float64).reshape(v["shape"])
                   for k, v in blob["buffers"].items()}
        model.load_state(params, buffers)
        return model
    except (AttributeError, KeyError, TypeError, ValueError) as e:  # a field of the wrong kind
        raise ConfigError(f"checkpoint {path}: malformed content: {e!r}") from None

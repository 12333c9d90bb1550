"""Benchmark: train, evaluate and predict one sedformer workload.

Run from the repository root:

    python3 benchmarks/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1   # each workload in its own process

One run is one process. It builds its inputs from ``--seed`` and imports
the program from ``src/`` of the checkout it lives in. It then runs three
phases, each after an untimed warm-up:

1. train: ``train()`` for a fixed number of epochs on the train split,
   with the val split. The epoch count is fixed per workload, so
   ``eval_mse`` is deterministic for a seed.
2. eval: ``evaluate()`` over the test split, in whole passes.
3. predict: a closed loop with one caller that waits for each reply. It
   calls ``model.predict`` once per test window, in whole passes, and makes
   at least 200 calls.

After the fixed epochs, the run measures in rounds until ``--seconds``
have passed since training began (see ``run_phases``).

Every predict output must be finite, with one value per query. Two
predictions of one window must be bitwise equal. The MSE that
``evaluate()`` reports must equal the MSE pooled from the per-window
predictions. A failed check makes the run exit with code 1.

With ``--trace 0`` the last output line is a JSON object with the
end-to-end metrics. With ``--trace 1`` the same phases run again on a
fresh model with the tracer attached (see ``tracing.py``), and the JSON
holds the per-layer metrics. Sample counts, failures, the machine and the
spans go to ``benchmarks/out/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sedformer  # noqa: E402
from sedformer import (ModelConfig, SedFormer, SedformerError, TrainConfig,  # noqa: E402
                       evaluate, train)
from sedformer.energy import count_model_layers, measure_spike_stats  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(sedformer.__file__).resolve().parent != SRC / "sedformer":
    sys.exit(f"sedformer was imported from {sedformer.__file__}, not from {SRC}")

T_IMPORTED = time.perf_counter()

MODEL = dict(dim=32, heads=4, blocks=2, pool_stride=4, seed=0)
TRAIN = dict(batch_size=16, lr=1e-3)
SETUP_REPEATS = 5          # setup_s is the median over this many processes
MIN_ROUNDS = 3
PREDICT_MIN_CALLS = 200    # so p95 has at least 10 samples beyond it
WARMUP_WINDOWS = 8
MSE_TOL = 1e-12
COVERAGE_MIN = 0.75        # share of forward wall time the named layers must cover


# name -> (inputs for a seed, fixed training epochs); why each was chosen is
# recorded with the workload in BENCHMARK.json
WORKLOADS = {
    "suite": (workloads.suite, 4),
    "async_long": (lambda seed: workloads.async_long(seed, n_series=6, n_days=300), 3),
    "sparse_short": (workloads.sparse_short, 4),
}

# energy layer(s) -> traced (span, MAC key) pairs over the same windows
ENERGY_MAP = {
    "encoder": (("encoder.conv", "encoder.dynamics"),
                (("encoder.current", "macs_total"), ("neuron.spike_scan", "macs_total"))),
    "block0.attention": (("block0.attention",), (("backbone.block0.attn", "macs_total"),)),
    "block0.ffn": (("block0.ffn",), (("backbone.block0.ffn", "macs_total"),)),
    "block1.attention": (("block1.attention",), (("backbone.block1.attn", "macs_total"),)),
    "block1.ffn": (("block1.ffn",), (("backbone.block1.ffn", "macs_total"),)),
    "decoder": (("decoder",), (("model.decode", "macs"),)),
    "embed": (("embed",), (("backbone.embed", "macs_total"),)),
}
MAC_LAYERS = ("encoder.current", "backbone.embed", "backbone.block0.attn", "backbone.block0.ffn",
              "backbone.block1.attn", "backbone.block1.ffn", "backbone.aggregate", "model.decode")


class Ledger:
    """Operations attempted and failed, and correctness checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.broken: list[str] = []

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.broken:
            self.broken.append(what)


def setup(name: str, seed: int):
    """Inputs and a fresh model for one workload."""
    splits = workloads.scale(WORKLOADS[name][0](seed))
    return splits, new_model(splits)


def new_model(splits) -> SedFormer:
    return SedFormer(ModelConfig(n_variates=splits["train"][0].series.n_variates, **MODEL))


def setup_seconds(name: str, seed: int) -> tuple[float, tuple]:
    """This process's set-up time, counted from its start, and its result."""
    t0 = time.perf_counter()
    result = setup(name, seed)
    return T_IMPORTED - T_START + time.perf_counter() - t0, result


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def outputs_ok(out, item) -> bool:
    if len(out) != len(item.query_times):
        return False
    for p, q in zip(out, item.query_times):
        q = np.asarray(q)
        if q.size == 0:
            if p is not None:
                return False
        elif p is None or p.shape != q.shape or not np.all(np.isfinite(p)):
            return False
    return True


def pooled_mse(outputs, items) -> float:
    """MSE over every query of every window, pooled as ``evaluate`` documents."""
    errs = [np.asarray(p).reshape(-1) - np.asarray(y).reshape(-1)
            for out, item in zip(outputs, items)
            for p, y in zip(out, item.targets) if p is not None and np.asarray(y).size]
    e = np.concatenate(errs)
    return float(np.mean(e * e))


# -- phases ----------------------------------------------------------------------------


def train_phase(model, splits, epochs: int, ledger: Ledger) -> list[float]:
    """Seconds per epoch (each includes its calibrate and val eval)."""
    stamps = [time.perf_counter()]
    ledger.attempted += 1
    try:
        train(model, splits["train"], splits["val"], TrainConfig(epochs=epochs, **TRAIN),
              log=lambda _msg: stamps.append(time.perf_counter()))
    except SedformerError as exc:
        ledger.fail(1, f"train: {exc!r}")
    return list(np.diff(stamps))


def eval_pass(model, items, res: dict, ledger: Ledger) -> None:
    """One evaluate() pass over ``items``; appends its seconds and MSE to ``res``."""
    ledger.attempted += len(items)
    t0 = time.perf_counter()
    try:
        mse = evaluate(model, items)["mse"]
    except SedformerError as exc:
        ledger.fail(len(items), f"evaluate: {exc!r}")
        return
    dt = time.perf_counter() - t0
    if not np.isfinite(mse):
        ledger.fail(len(items), "evaluate: non-finite MSE")
        return
    res["eval_s"].append(dt)
    res["mses"].append(mse)


def predict_pass(model, items, res: dict, ledger: Ledger) -> None:
    """One closed-loop pass, one caller: ``predict`` once per window, in order.

    Appends each latency; keeps the first output per window and checks that
    later ones are bitwise equal to it.
    """
    first = res["first"]
    for i, item in enumerate(items):
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            out = model.predict(item.series, item.query_times)
        except SedformerError as exc:
            ledger.fail(1, f"predict window {i}: {exc!r}")
            continue
        res["latencies"].append(time.perf_counter() - t0)
        ok = outputs_ok(out, item)
        ledger.check(ok, "predict outputs are finite with one value per query")
        if not ok:
            ledger.fail(1, f"predict window {i}: bad output")
        elif first[i] is None:
            first[i] = out
        else:
            ledger.check(same_outputs(first[i], out),
                         "two predictions of one window are bitwise equal")


def same_outputs(a, b) -> bool:
    return all(x is None and y is None or x.tobytes() == y.tobytes() for x, y in zip(a, b))


def warm_up(splits) -> None:
    """Untimed pass over each code path on a throwaway model.

    Failures here are left to the timed phases to count.
    """
    model = new_model(splits)
    items = splits["test"][:WARMUP_WINDOWS]
    steps = [lambda: train(model, splits["train"][:WARMUP_WINDOWS], splits["val"][:2],
                           TrainConfig(epochs=1, **TRAIN)),
             lambda: evaluate(model, items)]
    steps += [lambda it=it: model.predict(it.series, it.query_times) for it in items]
    for step in steps:
        try:
            step()
        except SedformerError:
            pass


def run_phases(model, splits, epochs: int, seconds: float, ledger: Ledger) -> dict:
    """Train, then measure in rounds until ``seconds`` are spent.

    The host's speed drifts over tens of seconds, so instead of timing each
    phase in one block, every round times one training epoch of a second,
    throwaway model and then alternates eval and predict passes over the
    trained model. All three figures thus sample the same stretch of the
    run. The trained model itself never changes after its fixed epochs.
    """
    test = splits["test"]
    res = {"eval_s": [], "mses": [], "latencies": [], "first": [None] * len(test)}
    t0 = time.perf_counter()
    res["epoch_s"] = train_phase(model, splits, epochs, ledger)
    res["train_s"] = time.perf_counter() - t0
    spare = new_model(splits)
    passes = -(-PREDICT_MIN_CALLS // (MIN_ROUNDS * len(test)))
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < t0 + seconds:
        rounds += 1
        res["epoch_s"] += train_phase(spare, splits, 1, ledger)
        for _ in range(passes):
            eval_pass(model, test, res, ledger)
            predict_pass(model, test, res, ledger)
    mses = res["mses"]
    ledger.check(len(set(mses)) <= 1, "evaluate() is deterministic across passes")
    if mses and all(f is not None for f in res["first"]):
        ledger.check(abs(pooled_mse(res["first"], test) - mses[0])
                     <= MSE_TOL * max(1.0, abs(mses[0])),
                     "evaluate() MSE equals the MSE pooled from per-window predict calls")
    return res


# -- metrics ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(res, n_train: int, n_test: int, setup_s: float) -> dict:
    lat_ms = np.asarray(res["latencies"]) * 1e3
    return {
        "setup_s": (setup_s, "s"),
        "train_windows_per_s": (n_train * len(res["epoch_s"]) / sum(res["epoch_s"]), "1/s"),
        "eval_windows_per_s": (n_test * len(res["eval_s"]) / sum(res["eval_s"]), "1/s"),
        "predict_ms_mean": (float(np.mean(lat_ms)), "ms"),
        "predict_ms_p50": (percentile(lat_ms, 50), "ms"),
        "predict_ms_p95": (percentile(lat_ms, 95), "ms"),
        "eval_mse": (res["mses"][0], "1"),  # standardized targets
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def traced(name: str, seed: int, splits, untraced: dict, ledger: Ledger):
    """Same phases on a fresh model with the tracer attached; per-layer metrics."""
    test = splits["test"]
    windows = {id(it.series): f"{split}:{i}"
               for split, items in splits.items() for i, it in enumerate(items)}
    model = new_model(splits)
    tracer = tracing.Tracer(windows)
    tracer.attach(model)
    res = {"eval_s": [], "mses": [], "latencies": [], "first": [None] * len(test)}
    try:
        with tracer.phase("train"):
            t0 = time.perf_counter()
            epoch_s = train_phase(model, splits, WORKLOADS[name][1], ledger)
            train_s = time.perf_counter() - t0
        with tracer.phase("eval"):
            eval_pass(model, test, res, ledger)
        with tracer.phase("predict"):
            while len(res["latencies"]) < PREDICT_MIN_CALLS:
                predict_pass(model, test, res, ledger)
    finally:
        tracer.detach()
    if len(epoch_s) < WORKLOADS[name][1] or not res["eval_s"] or not res["latencies"]:
        return {}, []  # a traced phase failed; the ledger has counted it
    ledger.check(res["mses"] == untraced["mses"][:1], "tracing leaves the eval MSE unchanged")
    ledger.check(all(a is None or b is None or same_outputs(a, b)
                     for a, b in zip(res["first"], untraced["first"])),
                 "tracing leaves predict outputs unchanged")
    n_calls = len(res["latencies"])
    base = untraced["train_s"] + untraced["eval_s"][0] + sum(untraced["latencies"][:n_calls])
    overhead = (train_s + res["eval_s"][0] + sum(res["latencies"])) / base - 1.0
    tracer.write(str(OUT / f"{name}-seed{seed}-spans.json"))
    metrics, table = layer_metrics(tracer, model, test)
    metrics["trace_overhead_pct"] = (100.0 * overhead, "%")
    for phase in ("train", "predict"):
        cov = metrics[f"trace.{phase}_coverage_pct"][0] / 100.0
        ledger.check(cov >= COVERAGE_MIN,
                     f"named layers cover at least {COVERAGE_MIN:.0%} of {phase} forward time")
    return metrics, table


def layer_metrics(tr, model, test) -> tuple[dict, list]:
    get = tr.get
    fwd = tracing.FORWARD
    n_fwd = get("train", f"{fwd}.calls")
    n_bwd = get("train", "tensor.backward.calls")
    n_inf = get("predict", f"{fwd}.calls")
    n_eval = get("eval", f"{fwd}.calls")
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.fwd_ms"] = (1e3 * get("train", f"{layer}.self_s") / n_fwd, "ms")
        m[f"{layer}.bwd_ms"] = (1e3 * get("train", f"{layer}.bwd_s") / n_bwd, "ms")
        m[f"{layer}.infer_ms"] = (1e3 * get("predict", f"{layer}.self_s") / n_inf, "ms")
        m[f"{layer}.tape_nodes"] = (get("train", f"{layer}.tape_nodes") / n_bwd, "count")
        if layer in MAC_LAYERS:
            m[f"{layer}.macs"] = (get("eval", f"{layer}.macs") / n_eval, "count")
    m["training.loss.fwd_ms"] = (1e3 * get("train", "training.loss.self_s") / n_fwd, "ms")
    m["training.loss.bwd_ms"] = (1e3 * get("train", "training.loss.bwd_s") / n_bwd, "ms")
    m["tensor.backward_ms"] = (1e3 * get("train", "tensor.backward_s") / n_bwd, "ms")
    m["tensor.backward.overhead_ms"] = (1e3 * get("train", "tensor.backward.overhead_s") / n_bwd,
                                        "ms")
    m["tensor.tape_nodes"] = (get("train", "tensor.tape_nodes") / n_bwd, "count")
    m["training.adam.step_ms"] = (1e3 * get("train", "training.adam.step.self_s")
                                  / get("train", "training.adam.step.calls"), "ms")
    for span in tracing.SUBPHASES:  # per epoch
        m[f"{span}_ms"] = (1e3 * get(span, f"{span}.total_s") / get(span, f"{span}.calls"), "ms")
    n_scan = get("eval", "neuron.spike_scan.calls")
    m["neuron.spike_scan.events"] = (get("eval", "neuron.spike_scan.events") / n_scan, "count")
    m["neuron.spike_scan.firing_rate"] = (get("eval", "neuron.spike_scan.spikes")
                                          / get("eval", "neuron.spike_scan.slots"), "ratio")
    n_pool = get("eval", "downsample.pool.calls")
    m["downsample.pooled_events"] = (get("eval", "downsample.pooled_events") / n_pool, "count")
    m["downsample.dropped_events"] = (get("eval", "downsample.dropped_events") / n_pool, "count")
    m["downsample.pooled_firing_rate"] = (get("eval", "downsample.spikes")
                                          / get("eval", "downsample.slots"), "ratio")
    for phase in ("train", "predict"):
        covered = sum(get(phase, f"{layer}.self_s") for layer in tracing.LAYERS)
        m[f"trace.{phase}_coverage_pct"] = (100.0 * covered / get(phase, f"{fwd}.total_s"), "%")
    # energy cross-check: traced MACs next to the hand-written n_mac, same windows
    stats = measure_spike_stats(model, test)
    energy = {name: counts.n_mac
              for name, _, counts in count_model_layers(model, stats,
                                                        sum(it.n_queries for it in test))}
    table = []
    for group, (names, spans) in ENERGY_MAP.items():
        n_mac = sum(energy[n] for n in names) / len(test)
        traced_macs = sum(get("eval", f"{s}.{key}") for s, key in spans) / n_eval
        ratio = traced_macs / n_mac if n_mac else None
        table.append((group, traced_macs, n_mac, ratio))
        if ratio is not None:
            m[f"energy.{group}.mac_ratio"] = (ratio, "ratio")
    return m, table


def machine() -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


# -- entry points ----------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[str]:
    """Names of the metrics BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    declared = declared_metrics(trace)
    epochs = WORKLOADS[name][1]
    OUT.mkdir(exist_ok=True)
    own_setup, (splits, model) = setup_seconds(name, seed)
    setups = [own_setup] + [child_setup_seconds(name, seed) for _ in range(SETUP_REPEATS - 1)]
    ledger = Ledger()
    warm_up(splits)
    res = run_phases(model, splits, epochs, seconds, ledger)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine(), "epochs": epochs,
            "windows": {k: len(v) for k, v in splits.items()},
            "events_per_window": statistics.mean(it.series.n_events for it in splits["train"]),
            "setup_samples_s": setups, "epoch_s": res["epoch_s"],
            "eval_passes": len(res["eval_s"]), "predict_calls": len(res["latencies"])}
    have = bool(res["epoch_s"] and res["eval_s"] and res["latencies"])
    metrics, table = {}, []
    if have:
        metrics = end_to_end(res, len(splits["train"]), len(splits["test"]),
                             statistics.median(setups))
        if trace:
            metrics, table = traced(name, seed, splits, res, ledger)
    info.update(attempted=ledger.attempted, failed=ledger.failed, errors=ledger.errors,
                failed_checks=ledger.broken, error_rate=ledger.failed / ledger.attempted)
    report(info, metrics, table)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({**info, "metrics": {k: {"value": v, "unit": u}
                                       for k, (v, u) in metrics.items()},
                   "energy": table}, f, indent=1)
    missing = [k for k in declared if k not in metrics]
    if missing:
        print(f"no value for {missing}; no result", file=sys.stderr)
        return 1
    correct = not ledger.broken
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in declared}}))
    return 0 if correct else 1


def report(info: dict, metrics: dict, table: list) -> None:
    mc = info["machine"]
    print(f"workload {info['workload']} seed {info['seed']}: windows {info['windows']}, "
          f"K {info['events_per_window']:.1f}, {info['epochs']} epochs; nproc {mc['nproc']}, "
          f"python {mc['python']}, numpy {mc['numpy']}, BLAS/OpenMP threads 1")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    print(f"  {'predict samples':<40} {info['predict_calls']:>14d}")
    print(f"  {'error_rate':<40} {info['error_rate']:>14.6g} "
          f"({info['failed']} failed / {info['attempted']} attempted)")
    if table:
        print(f"  {'energy layer':<20} {'traced MACs':>14} {'energy n_mac':>14} {'ratio':>8}")
        for group, traced_macs, n_mac, ratio in table:
            r = f"{ratio:8.3f}" if ratio is not None else "     n/a"
            print(f"  {group:<20} {traced_macs:>14.0f} {n_mac:>14.0f} {r}")
    for what in info["failed_checks"]:
        print(f"  FAILED CHECK: {what}")


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=600)
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up seconds and exit")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")  # per-forward pooling warnings
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(setup_seconds(args.workload, args.seed)[0])
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

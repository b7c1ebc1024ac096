"""One benchmark run: generate a workload's inputs, drive subgcn through
the calls ``subgcn train``, ``eval`` and ``variance-check`` make, check
the outputs, and report end-to-end or per-layer metrics."""

from __future__ import annotations

import ctypes
import dataclasses
import itertools
import json
import math
import operator
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

import gen
from spans import BOUNDARIES, Tracer, layer_metrics, tail_percentile
from subgcn import data_io, engine, samplers, variance
from subgcn.engine import TrainConfig
from subgcn.samplers import SamplerConfig
from workloads import WORKLOADS, Workload

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "checkpoint_s": "s",
    "eval_s": "s",
    "test_f1": "f1",
    "variance_s": "s",
    "peak_rss_mb": "MB",
}

# Lowest acceptable test F1-micro on every workload; the defining runs
# gave 0.975-1.0.
F1_FLOOR = 0.95

PHASE_TIMES = ("train_s", "checkpoint_s", "eval_s")  # timed by each train/checkpoint/eval pass

# Monte-Carlo agreement: |mc - closed form| within MC_Z standard errors,
# the standard error computed exactly from the Bernoulli edge model.
MC_Z = 5.0


class Checks:
    """Correctness checks of one run, each failure counted against the
    checks attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclasses.dataclass
class Run:
    wl: Workload
    seed: int
    data_dir: Path
    out_dir: Path
    checks: Checks = dataclasses.field(default_factory=Checks)
    first_f1: float | None = None  # test F1 of the first pass; later passes must repeat it
    saved: dict | None = None  # checkpoints written by the last pass, by file name
    mc_z: dict | None = None
    reps: dict | None = None
    samples: dict | None = None  # every timed rep of the timed run, in seconds, by metric
    timing: dict | None = None  # n, min, median and max of each of those
    trace: dict | None = None

    @property
    def sampler_cfg(self) -> SamplerConfig:
        return SamplerConfig(seed=self.seed, **self.wl.sampler)

    @property
    def train_cfg(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.wl.train)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _interleave(tasks: list[tuple], seconds: float) -> list[list]:
    """Run ``(fn, share, min_reps)`` tasks in turn, each time calling the
    one furthest behind its share of the time spent so far, so that every
    task samples the whole window. Stop once each task has its minimum
    and the next call would end after ``seconds``. Returns each task's
    results in call order."""
    results: list[list] = [[] for _ in tasks]
    durations: list[list[float]] = [[] for _ in tasks]
    start = time.perf_counter()
    while True:
        short = [i for i, (_, _, n) in enumerate(tasks) if len(results[i]) < n]
        total = sum(map(sum, durations))

        def deficit(i):
            return math.inf if not results[i] else tasks[i][1] * total - sum(durations[i])

        i = max(range(len(tasks)), key=deficit)
        over = time.perf_counter() - start + (statistics.median(durations[i]) if durations[i] else 0.0) > seconds
        if over:
            if not short:
                return results
            i = max(short, key=deficit)
        t, value = _timed(tasks[i][0])
        results[i].append(value)
        durations[i].append(t)


# ----------------------------------------------------------------------
# Phases, in the order and with the calls of the subgcn CLI
# ----------------------------------------------------------------------


def _train(run: Run, ds):
    return engine.train(
        ds.graph, ds.features, ds.labels, ds.split, run.sampler_cfg, run.train_cfg, num_classes=ds.num_classes
    )


def _checkpoints(result) -> dict:
    """As ``subgcn train``: the final state, then the same state carrying
    the best weights, by file name."""
    final = result.checkpoint
    return {"final.ckpt": final, "best.ckpt": dataclasses.replace(final, weights=result.model.weights)}


def _save_checkpoints(run: Run, ds, saved: dict) -> None:
    for name, ckpt in saved.items():
        data_io.save_checkpoint(run.out_dir / name, ds.graph, ckpt)


def _evaluate(run: Run, ds) -> float:
    """As ``subgcn eval --split test`` after the dataset is loaded."""
    ckpt = data_io.load_checkpoint(run.out_dir / "best.ckpt", ds.graph)
    model = engine.Model(weights=ckpt.weights, head=ckpt.head)
    return engine.evaluate(model, ds.graph, ds.features, ds.labels, ds.split, engine.TEST)


def _variance_check(run: Run, ds) -> dict:
    """As ``subgcn variance-check`` with its default 1-layer, 16-wide
    model, without printing the per-edge table."""
    cfg = run.wl.variance
    g = ds.graph
    model = engine.init_model((ds.features.shape[1], 16), "softmax", samplers.make_rng(run.seed, 0))
    agg = variance.edge_aggregates(g, ds.features, model)
    p_opt = variance.optimal_edge_probs(agg, cfg.m)
    p_topo = variance.budget_probabilities(samplers.edge_weights(g).weights, cfg.m)
    out = {"agg": agg, "p_opt": p_opt, "p_topo": p_topo}
    out["cf_opt"] = variance.variance_closed_form(agg, p_opt)
    out["cf_topo"] = variance.variance_closed_form(agg, p_topo)
    rng = samplers.make_rng(run.seed, 1)
    out["mc_opt"] = variance.variance_monte_carlo(g, ds.features, model, p_opt, cfg.trials, rng, cfg.chunk)
    out["mc_topo"] = variance.variance_monte_carlo(g, ds.features, model, p_topo, cfg.trials, rng, cfg.chunk)
    return out


@contextmanager
def _phase(tracer: Tracer | None, name: str):
    """The benchmark's own span around one phase, when tracing."""
    if tracer is None:
        yield None
        return
    idx = tracer.open(name)
    try:
        yield idx
    finally:
        tracer.close(idx)


def _pipeline(run: Run, ds, tracer: Tracer | None = None) -> dict:
    rep = {}
    with _phase(tracer, "phase.train") as rep["train_span"]:
        rep["train_s"], rep["result"] = _timed(_train, run, ds)
    rep["saved"] = _checkpoints(rep["result"])
    with _phase(tracer, "phase.checkpoint"):
        rep["checkpoint_s"], _ = _timed(_save_checkpoints, run, ds, rep["saved"])
    with _phase(tracer, "phase.eval"):
        rep["eval_s"], rep["eval_f1"] = _timed(_evaluate, run, ds)
    return rep


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def _check_pipeline(run: Run, rep: dict) -> None:
    result, c = rep["result"], run.checks
    if run.first_f1 is None:
        run.first_f1 = result.test_f1
    first_f1 = run.first_f1
    losses = [float(line.split()[3]) for line in result.log if line.startswith("iter ")]
    c.expect(bool(losses) and all(math.isfinite(x) for x in losses), "every logged loss is finite")
    c.expect(result.test_f1 >= F1_FLOOR, f"test_f1 {result.test_f1!r} >= floor {F1_FLOOR}")
    c.expect(rep["eval_f1"] == result.test_f1, f"eval on best.ckpt {rep['eval_f1']!r} == test_f1 {result.test_f1!r}")
    c.expect(result.test_f1 == first_f1, f"test_f1 {result.test_f1!r} repeats the first rep's {first_f1!r}")


def _same_checkpoint(a, b) -> bool:
    def same(x, y):
        return x.shape == y.shape and np.ascontiguousarray(x, "<f8").tobytes() == np.ascontiguousarray(y, "<f8").tobytes()

    groups = ("weights", "adam_m", "adam_v", "best_weights")
    scalars = ("head", "adam_t", "epochs_done", "iteration", "best_val_f1")
    return all(getattr(a, k) == getattr(b, k) for k in scalars) and all(
        len(getattr(a, k)) == len(getattr(b, k)) and all(same(x, y) for x, y in zip(getattr(a, k), getattr(b, k)))
        for k in groups
    )


def _check_reload(run: Run, ds) -> None:
    for name, ckpt in run.saved.items():
        loaded = data_io.load_checkpoint(run.out_dir / name, ds.graph)
        run.checks.expect(_same_checkpoint(loaded, ckpt), f"{name} reloads bit-exactly")


def mc_standard_error(agg, p: np.ndarray, trials: int) -> float:
    """Standard error of ``variance_monte_carlo`` with independent
    Bernoulli(p_e) edges: sqrt(Var(||sum_e (x_e - p_e) b_e / p_e||^2) / trials)."""
    s = np.where(p[:, None] > 0, agg.layer_sum / np.where(p > 0, p, 1.0)[:, None], 0.0)
    var = p * (1.0 - p)
    mu4 = var * ((1.0 - p) ** 3 + p**3)
    g_ee = (s**2).sum(axis=1)
    gram = s.T @ (var[:, None] * s)
    var_q = ((mu4 - var**2) * g_ee**2).sum() + 2.0 * ((gram**2).sum() - (var**2 * g_ee**2).sum())
    return math.sqrt(max(var_q, 0.0) / trials)


def _check_variance(run: Run, out: dict) -> dict:
    c, trials = run.checks, run.wl.variance.trials
    z = {}
    for which in ("opt", "topo"):
        se = mc_standard_error(out["agg"], out[f"p_{which}"], trials)
        diff = abs(out[f"mc_{which}"] - out[f"cf_{which}"])
        z[which] = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
        c.expect(z[which] <= MC_Z, f"monte-carlo {which} within {MC_Z} standard errors (z={z[which]:.3f})")
    c.expect(out["cf_opt"] <= out["cf_topo"], f"optimal variance {out['cf_opt']!r} <= topology {out['cf_topo']!r}")
    return z


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------


def _openblas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read but not set."""
    found = {}
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _record(run: Run, fingerprint: dict) -> dict:
    return {
        "workload": run.wl.name,
        "why": run.wl.why,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "input": fingerprint,
        "sampler": dataclasses.asdict(run.sampler_cfg),
        "train": dataclasses.asdict(run.train_cfg),
        "variance": dataclasses.asdict(run.wl.variance),
    }


# ----------------------------------------------------------------------
# Timed and traced runs
# ----------------------------------------------------------------------


def _pipeline_rep(run: Run, ds, tracer: Tracer | None = None) -> dict:
    """One checked train/checkpoint/eval pass. Only the last pass's
    checkpoints are kept, for the reload check."""
    rep = _pipeline(run, ds, tracer)
    _check_pipeline(run, rep)
    run.saved = rep.pop("saved")
    return rep


def _variance_rep(run: Run, ds) -> float:
    t, out = _timed(_variance_check, run, ds)
    run.mc_z = _check_variance(run, out)
    return t


def _timed_run(run: Run, seconds: float) -> dict:
    """Interleave set-up, checked train/checkpoint/eval passes, extra
    checkpoint writes and evaluations of the last pass's model, and
    variance checks; report the minimum time of each.

    The minimum, not the median: on a shared host the same call runs up
    to 1.5x slower or more for stretches of seconds to minutes, so a
    run's median lands wherever the host happened to be, while its
    fastest rep reads the program at the fastest speed the host reached
    during the run. The median of every time is kept in the run record.
    See README.md for the measured spreads."""
    held = {}  # the last loaded dataset; set-up runs first

    def load() -> float:
        held.clear()
        t, held["ds"] = _timed(data_io.load_dataset, run.data_dir)
        return t

    def checkpoint() -> float:
        return _timed(_save_checkpoints, run, held["ds"], run.saved)[0]

    def evaluate() -> float:
        t, f1 = _timed(_evaluate, run, held["ds"])
        run.checks.expect(f1 == run.first_f1, f"eval on best.ckpt {f1!r} == test_f1 {run.first_f1!r}")
        return t

    shares = run.wl.shares
    setup, passes, ckpt, evals, var = _interleave(
        [
            (load, shares["setup"], 5),
            (lambda: operator.itemgetter(*PHASE_TIMES)(_pipeline_rep(run, held["ds"])), shares["pass"], 3),
            (checkpoint, shares["checkpoint"], 1),
            (evaluate, shares["eval"], 1),
            (lambda: _variance_rep(run, held["ds"]), 1.0 - sum(shares.values()), 3),
        ],
        seconds,
    )
    _check_reload(run, held["ds"])
    train, pass_ckpt, pass_eval = zip(*passes)
    run.reps = {"setup": len(setup), "pass": len(passes), "checkpoint": len(ckpt), "eval": len(evals), "variance": len(var)}
    run.samples = {
        "setup_s": setup,
        "train_s": list(train),
        "checkpoint_s": list(pass_ckpt + tuple(ckpt)),
        "eval_s": list(pass_eval + tuple(evals)),
        "variance_s": var,
    }
    run.timing = {
        k: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)} for k, v in run.samples.items()
    }
    return {
        **{k: min(v) for k, v in run.samples.items()},
        "test_f1": run.first_f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced_pass(run: Run, spans_file, index: int) -> dict:
    """Load, train, checkpoint, evaluate and variance-check under a
    fresh :class:`Tracer`; return the pass's per-layer metrics and
    trace facts, and append its spans to ``spans_file``."""
    with Tracer() as tracer:
        with _phase(tracer, "phase.setup"):
            ds = data_io.load_dataset(run.data_dir)
        rep = _pipeline_rep(run, ds, tracer)
        with _phase(tracer, "phase.variance"):
            out = _variance_check(run, ds)
    run.mc_z = _check_variance(run, out)
    tracer.write(spans_file, trace_pass=index)

    dims = (ds.features.shape[1],) + tuple(run.wl.train["hidden_dims"]) + (ds.num_classes,)
    hits = {name: 0 for _, _, name, _ in BOUNDARIES}
    threads: dict[str, int] = {}
    for s in tracer.spans:
        if s.name in hits:
            hits[s.name] += 1
        if s.name == "samplers.sample":
            threads[s.thread] = threads.get(s.thread, 0) + 1
    return {
        "metrics": layer_metrics(tracer.spans, rep["result"], ds, dims, rep["train_span"]),
        "train_s": rep["train_s"],
        "top_level_spans_s": sum(s.dur for s in tracer.spans if s.parent == rep["train_span"]),
        "boundary_calls": hits,
        "missing": tracer.missing,
        "draws_by_thread": threads,
    }


def _traced_run(run: Run, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes. Per-layer metrics are the
    medians over traced passes; the overhead is the difference between
    the median train_s of traced and untraced passes."""
    ds = data_io.load_dataset(run.data_dir)
    index = itertools.count()
    with open(spans_path, "w") as f:
        (pairs,) = _interleave(
            [(lambda: (_pipeline_rep(run, ds)["train_s"], _traced_pass(run, f, next(index))), 1.0, 1)], seconds
        )
    _check_reload(run, ds)
    passes = [p for _, p in pairs]
    metrics = {key: statistics.median(p["metrics"][key] for p in passes) for key in passes[0]["metrics"]}
    metrics["data_io.checkpoint_bytes"] = sum(os.path.getsize(run.out_dir / n) for n in run.saved)
    traced_train = statistics.median(p["train_s"] for p in passes)
    overhead = traced_train - statistics.median(t for t, _ in pairs)
    metrics["trace.overhead_s"] = overhead

    first = passes[0]
    for name, count in first["boundary_calls"].items():
        run.checks.expect(count > 0 and name not in first["missing"], f"traced boundary {name} hit ({count} calls)")
    unattributed = first["train_s"] - first["top_level_spans_s"]
    run.trace = {
        "passes": len(passes),
        "boundary_calls": first["boundary_calls"],
        "draws_by_thread": first["draws_by_thread"],
        "traced_train_s": first["train_s"],
        "top_level_spans_s": first["top_level_spans_s"],
        "spans_sum_to_train_within_overhead": unattributed <= abs(overhead),
        "tail_percentiles": {
            "graph.induce": tail_percentile(int(metrics["graph.induce.calls"])),
            "samplers.draw": tail_percentile(int(metrics["samplers.draw.calls"])),
            "engine.step": tail_percentile(int(metrics["engine.steps"])),
        },
        "spans_file": str(spans_path.relative_to(spans_path.parents[1])),
    }
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Return (run record, result object) for one benchmark run."""
    wl = WORKLOADS[workload]
    work = root / ".perfbench_work" / f"{wl.name}-s{seed}-p{os.getpid()}"
    results = root / ".perfbench_out"
    results.mkdir(parents=True, exist_ok=True)
    run = Run(wl, seed, work / "data", work / "run")
    try:
        run.out_dir.mkdir(parents=True)
        record = _record(run, gen.write_sbm(wl.data, seed, run.data_dir))
        if trace:
            metrics = _traced_run(run, seconds, results / f"spans-{wl.name}-s{seed}.jsonl")
        else:
            metrics = _timed_run(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(reps=run.reps, timing=run.timing, samples=run.samples, mc_z=run.mc_z, trace=run.trace, failed_checks=run.checks.failures)
    result = {
        "correct": not run.checks.failures,
        "attempted": run.checks.attempted,
        "failed": len(run.checks.failures),
        "metrics": metrics,
    }
    with open(results / f"{wl.name}-s{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1, default=str)
    return record, result

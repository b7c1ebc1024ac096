"""In-memory span tracing around the public names of subgcn modules.

A :class:`Tracer` replaces module-level functions (and one method) with
timing wrappers, records one span per call (name, start, end, parent,
thread) and restores the originals on exit. Spans stay in memory until
the run ends; :func:`layer_metrics` turns them into per-layer metrics.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from subgcn import data_io, engine, samplers, variance


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: str
    end: float = 0.0
    info: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _sub_info(args, kwargs, out):
    return {"nodes": out.num_nodes, "arcs": out.num_arcs}


def _batch_info(args, kwargs, out):
    return {"nodes": out.subgraph.num_nodes, "nnz": int(out.adjacency.nnz)}


def _hash_info(args, kwargs, out):
    g = args[0]
    return {"bytes": sum(a.nbytes for a in (g.row_offsets, g.col_indices, g.norm_values, g.degrees))}


def _mc_info(args, kwargs, out):
    return {"trials": args[4] if len(args) > 4 else kwargs["trials"]}


# (owner, attribute, span name, info hook). Only public names; the span
# name is the boundary reported when a workload never reaches it.
BOUNDARIES = (
    (engine, "estimate_coeffs", "normalization.estimate_coeffs", None),
    (engine, "build_batch", "engine.build_batch", _batch_info),
    (engine, "forward_subgraph", "engine.forward_subgraph", None),
    (engine, "loss_and_grad", "engine.loss_and_grad", None),
    (engine, "adam_step", "engine.adam_step", None),
    (engine, "forward_full", "engine.forward_full", None),
    (engine, "evaluate", "engine.evaluate", None),
    (samplers, "sample", "samplers.sample", _sub_info),
    (samplers, "induced_subgraph", "graph.induced_subgraph", None),
    (samplers.SubgraphProducer, "take", "samplers.SubgraphProducer.take", None),
    (data_io, "graph_hash", "data_io.graph_hash", _hash_info),
    (data_io, "build_graph", "graph.build_graph", None),
    (data_io, "load_dataset", "data_io.load_dataset", None),
    (data_io, "save_checkpoint", "data_io.save_checkpoint", None),
    (data_io, "load_checkpoint", "data_io.load_checkpoint", None),
    (variance, "edge_aggregates", "variance.edge_aggregates", None),
    (variance, "optimal_edge_probs", "variance.optimal_edge_probs", None),
    (variance, "budget_probabilities", "variance.budget_probabilities", None),
    (variance, "variance_closed_form", "variance.variance_closed_form", None),
    (variance, "variance_monte_carlo", "variance.variance_monte_carlo", _mc_info),
)


class Tracer:
    """Context manager that wraps :data:`BOUNDARIES` while active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []  # boundaries whose name no longer exists
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, 0.0, stack[-1] if stack else None, threading.current_thread().name)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, owner, attr: str, name: str, info) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info is not None:
                tracer.spans[idx].info = info(args, kwargs, out)
            return out

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        for owner, attr, name, info in BOUNDARIES:
            self._wrap(owner, attr, name, info)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, f, **tags) -> None:
        """Append the spans to an open text file, one JSON object a line."""
        for i, s in enumerate(self.spans):
            rec = {**tags, "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "thread": s.thread}
            if s.info:
                rec["info"] = s.info
            f.write(json.dumps(rec) + "\n")


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def _ms_quantiles(durations: list[float]) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    ms = np.asarray(durations) * 1e3
    return float(np.percentile(ms, 50)), float(np.percentile(ms, tail_percentile(ms.size)))


def layer_metrics(spans: list[Span], result, ds, dims: tuple[int, ...], train_idx: int) -> dict:
    """Per-layer metrics from one traced pass of the workload.

    ``train_idx`` is the benchmark's own span around ``engine.train``;
    ``dims`` are the trained model's layer widths, used for the computed
    flop counts.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(ids):
        return float(sum(spans[i].dur for i in ids))

    def self_time(ids, child_names=None):
        t = 0.0
        for i in ids:
            kids = children.get(i, [])
            if child_names is not None:
                kids = [k for k in kids if spans[k].name in child_names]
            t += spans[i].dur - total(kids)
        return t

    m: dict[str, float] = {}

    induce = named("graph.induced_subgraph")
    m["graph.induce.calls"] = len(induce)
    m["graph.induce.self_s"] = self_time(induce)
    m["graph.induce.ms_p50"], m["graph.induce.ms_tail"] = _ms_quantiles([spans[i].dur for i in induce])
    m["graph.build.s"] = total(named("graph.build_graph"))

    draws = named("samplers.sample")
    m["samplers.draw.calls"] = len(draws)
    m["samplers.draw.self_s"] = self_time(draws)
    m["samplers.draw.ms_p50"], m["samplers.draw.ms_tail"] = _ms_quantiles([spans[i].dur for i in draws])
    m["samplers.take.wait_s"] = total(i for i in named("samplers.SubgraphProducer.take") if spans[i].thread == "MainThread")
    nodes = [spans[i].info["nodes"] for i in draws]
    m["samplers.subgraph_nodes_p50"] = float(np.median(nodes)) if nodes else 0.0
    m["samplers.subgraph_arcs_p50"] = float(np.median([spans[i].info["arcs"] for i in draws])) if draws else 0.0
    m["samplers.empty_draws"] = sum(1 for n in nodes if n == 0)

    estimate = named("normalization.estimate_coeffs")
    m["normalization.estimate.s"] = total(estimate)
    m["normalization.count.self_s"] = self_time(estimate, {"samplers.SubgraphProducer.take"})
    g = ds.graph
    train_nodes = ds.split == engine.TRAIN
    m["normalization.num_subgraphs"] = result.coeffs.num_subgraphs
    m["normalization.train_coverage"] = float(np.mean(result.coeffs.lam[train_nodes] > 0.0))
    m["normalization.fallback_arcs"] = float(np.mean(result.coeffs.edge_counts[g.arc_to_edge] == 0))

    in_train = children.get(train_idx, [])
    step_parts = ("engine.build_batch", "engine.forward_subgraph", "engine.loss_and_grad", "engine.adam_step")
    steps, batches, current, batch = [], [], None, None
    for i in in_train:
        s = spans[i]
        if s.name == "engine.build_batch":
            current, batch = s.dur, s.info
        elif s.name in step_parts and current is not None:
            current += s.dur
            if s.name == "engine.adam_step":
                steps.append(current)
                batches.append(batch)
                current = None
    m["engine.steps"] = len(steps)
    m["engine.skipped"] = result.skipped_batches
    m["engine.build_batch.s"] = total(named("engine.build_batch"))
    m["engine.forward.s"] = total(named("engine.forward_subgraph"))
    m["engine.backward.s"] = total(named("engine.loss_and_grad"))
    m["engine.adam.s"] = total(named("engine.adam_step"))
    m["engine.step.ms_p50"], m["engine.step.ms_tail"] = _ms_quantiles(steps)
    validate = [i for i in in_train if spans[i].name == "engine.forward_full"]
    m["engine.validate.calls"] = len(validate)
    m["engine.validate.s"] = total(validate)
    m["engine.train.self_s"] = self_time([train_idx])
    # Computed, not counted: 2 flops per multiply-add of A @ X (spmm) and
    # X @ W (gemm); a step is the forward plus the backward of loss_and_grad.
    spmm = gemm = 0
    for b in batches:
        for l, (fi, fo) in enumerate(zip(dims, dims[1:])):
            spmm += 2 * b["nnz"] * fi * (2 if l > 0 else 1)
            gemm += 2 * b["nodes"] * fi * fo * (3 if l > 0 else 2)
    for _ in named("engine.forward_full"):
        for fi, fo in zip(dims, dims[1:]):
            spmm += 2 * g.num_arcs * fi
            gemm += 2 * g.num_nodes * fi * fo
    m["engine.spmm_flop"] = spmm
    m["engine.gemm_flop"] = gemm

    hashes = named("data_io.graph_hash")
    m["data_io.parse.self_s"] = self_time(named("data_io.load_dataset"))
    m["data_io.graph_hash.calls"] = len(hashes)
    m["data_io.graph_hash.s"] = total(hashes)
    m["data_io.graph_hash.bytes"] = sum(spans[i].info["bytes"] for i in hashes)
    m["data_io.save_checkpoint.self_s"] = self_time(named("data_io.save_checkpoint"))
    m["data_io.load_checkpoint.self_s"] = self_time(named("data_io.load_checkpoint"))

    mc = named("variance.variance_monte_carlo")
    probs = named("variance.optimal_edge_probs") + [
        i for i in named("variance.budget_probabilities") if spans[i].parent is None or spans[spans[i].parent].name != "variance.optimal_edge_probs"
    ]
    m["variance.edge_aggregates.s"] = total(named("variance.edge_aggregates"))
    m["variance.probs.s"] = total(probs)
    m["variance.monte_carlo.s"] = total(mc)
    trials = sum(spans[i].info["trials"] for i in mc)
    m["variance.monte_carlo.trials_per_s"] = trials / m["variance.monte_carlo.s"] if mc else 0.0
    return m


# Unit and direction of every per-layer metric, in report order.
LAYER_METRICS = {
    "graph.induce.calls": ("count", "lower"),
    "graph.induce.self_s": ("s", "lower"),
    "graph.induce.ms_p50": ("ms", "lower"),
    "graph.induce.ms_tail": ("ms", "lower"),
    "graph.build.s": ("s", "lower"),
    "samplers.draw.calls": ("count", "lower"),
    "samplers.draw.self_s": ("s", "lower"),
    "samplers.draw.ms_p50": ("ms", "lower"),
    "samplers.draw.ms_tail": ("ms", "lower"),
    "samplers.take.wait_s": ("s", "lower"),
    "samplers.subgraph_nodes_p50": ("count", "lower"),
    "samplers.subgraph_arcs_p50": ("count", "lower"),
    "samplers.empty_draws": ("count", "lower"),
    "normalization.estimate.s": ("s", "lower"),
    "normalization.count.self_s": ("s", "lower"),
    "normalization.num_subgraphs": ("count", "lower"),
    "normalization.train_coverage": ("ratio", "higher"),
    "normalization.fallback_arcs": ("ratio", "lower"),
    "engine.steps": ("count", "higher"),
    "engine.skipped": ("count", "lower"),
    "engine.build_batch.s": ("s", "lower"),
    "engine.forward.s": ("s", "lower"),
    "engine.backward.s": ("s", "lower"),
    "engine.adam.s": ("s", "lower"),
    "engine.step.ms_p50": ("ms", "lower"),
    "engine.step.ms_tail": ("ms", "lower"),
    "engine.validate.calls": ("count", "lower"),
    "engine.validate.s": ("s", "lower"),
    "engine.train.self_s": ("s", "lower"),
    "engine.spmm_flop": ("flop-computed", "lower"),
    "engine.gemm_flop": ("flop-computed", "lower"),
    "data_io.parse.self_s": ("s", "lower"),
    "data_io.graph_hash.calls": ("count", "lower"),
    "data_io.graph_hash.s": ("s", "lower"),
    "data_io.graph_hash.bytes": ("bytes", "lower"),
    "data_io.save_checkpoint.self_s": ("s", "lower"),
    "data_io.load_checkpoint.self_s": ("s", "lower"),
    "data_io.checkpoint_bytes": ("bytes", "lower"),
    "variance.edge_aggregates.s": ("s", "lower"),
    "variance.probs.s": ("s", "lower"),
    "variance.monte_carlo.s": ("s", "lower"),
    "variance.monte_carlo.trials_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

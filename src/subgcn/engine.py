"""GCN model, exact gradients, Adam, and the sampled-minibatch
training loop.

One layer computes relu(A_hat @ X @ W) where A_hat is the row-normalized
adjacency divided per-arc by the aggregator normalization (restricted to
the minibatch subgraph during training, alpha == 1 on the full graph at
inference), doing the sparse product on the narrower side of W:
A_hat @ (X @ W) when W narrows the width, (A_hat @ X) @ W otherwise.
A minibatch carries its A_hat^T for the backward pass as a second CSR
matrix (``Batch.adjacency_t``), so no step multiplies by scipy's
transposed view.
The final layer is linear; the head (softmax cross-entropy
for single-label, per-class sigmoid binary cross-entropy for
multi-label) lives in the loss. The minibatch loss is the sum of
per-node losses over sampled training nodes, each divided by its loss
normalization lambda_v = P(v in V_s), which makes it an unbiased
estimate of the full-graph sum of training-node losses.

Everything runs in double precision; gradients are exact
reverse-mode through the cached forward and are validated against
finite differences in the test suite.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .graph import Graph, Subgraph, _freeze, _frozen, index_dtype, memoized, reverse_arcs
from .normalization import NormCoeffs, estimate_coeffs
from .samplers import SamplerConfig, SubgraphProducer, _check_count, _check_seed, make_rng

__all__ = [
    "Model",
    "Batch",
    "TrainConfig",
    "AdamState",
    "Checkpoint",
    "TrainResult",
    "NumericError",
    "init_model",
    "graph_adjacency",
    "build_batch",
    "forward_subgraph",
    "forward_full",
    "loss_and_grad",
    "adam_step",
    "f1_micro",
    "head_for",
    "train",
    "evaluate",
]

TRAIN, VAL, TEST = 0, 1, 2

HEADS = ("softmax", "sigmoid")

# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NumericError(RuntimeError):
    """Training produced a non-finite quantity."""


@dataclass
class Model:
    """Stacked GCN weights with a task head.

    weights[l] has shape (f_l, f_{l+1}); hidden layers use ReLU, the
    last layer is linear. head is "softmax" (single-label) or "sigmoid"
    (multi-label). Every weight is float64.
    """

    weights: list[np.ndarray]
    head: str

    def __post_init__(self) -> None:
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}")
        for l, w in enumerate(self.weights):
            if w.dtype != np.float64:
                raise ValueError(f"layer {l}: weights must be float64, found {w.dtype}")
        for a, b in zip(self.weights, self.weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError("consecutive layer dimensions do not match")

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def init_model(
    dims: tuple[int, ...] | list[int],
    head: str,
    rng: np.random.Generator,
) -> Model:
    """Glorot-uniform initialization of the layer weights."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dimensions")
    weights = []
    for fi, fo in zip(dims, dims[1:]):
        limit = math.sqrt(6.0 / (fi + fo))
        weights.append(rng.uniform(-limit, limit, size=(fi, fo)))
    return Model(weights=weights, head=head)


@dataclass
class Batch:
    """One minibatch: a subgraph, its gathered rows, and normalization.

    ``lam`` holds the loss normalization lambda_v = P(v in V_s) per
    local node (0 excludes the node from the loss); ``adjacency`` is the
    local sparse matrix with entries norm_value / alpha, and
    ``adjacency_t`` its transpose, which the backward pass multiplies
    by. Both are CSR matrices on the same read-only int32 index arrays
    (int64 past 2^31): an induced subgraph holds the reverse of each of
    its arcs, so the transpose has the adjacency's sparsity pattern,
    with each arc holding its reverse arc's value.
    """

    subgraph: Subgraph
    features: np.ndarray
    labels: np.ndarray
    lam: np.ndarray
    train_mask: np.ndarray
    adjacency: sp.csr_matrix
    adjacency_t: sp.csr_matrix


def graph_adjacency(g: Graph) -> sp.csr_matrix:
    """Full-graph row-normalized adjacency as a scipy CSR matrix.

    Built once per graph and shared by every later call
    (``graph.memoized``): each full forward and each variance
    propagation multiplies by the same matrix. Its data is
    ``g.norm_values`` itself and its index arrays are int32 copies
    (int64 only past 2^31 arcs), all read-only, so the shared matrix
    cannot be changed in place.
    """
    return memoized(g, "_adjacency", _build_adjacency)


def _build_adjacency(g: Graph) -> sp.csr_matrix:
    idx = index_dtype(max(g.num_arcs, g.num_nodes))
    adjacency = sp.csr_matrix(
        (g.norm_values, g.col_indices.astype(idx), g.row_offsets.astype(idx)),
        shape=(g.num_nodes, g.num_nodes),
    )
    _freeze(adjacency.data, adjacency.indices, adjacency.indptr)
    return adjacency


def _arc_values(g: Graph, coeffs: NormCoeffs) -> tuple[np.ndarray, np.ndarray]:
    """Every parent arc's batch value norm_values / alpha, and the value
    of its reverse arc: a batch's adjacency and its transpose gather
    their data from these two tables by ``arc_origin``. Dividing first
    and gathering later gives the bits of gathering first and dividing
    later.

    The tables are read-only and kept on the (read-only) coefficients
    for one graph at a time (``graph.memoized``): a training run builds
    them once, and they are freed with the coefficients, not kept as
    long as the graph.
    """
    return memoized(coeffs, "_arc_values", _build_arc_values, g)


def _build_arc_values(coeffs: NormCoeffs, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    vals = g.norm_values / coeffs.alpha
    tables = vals, vals[reverse_arcs(g)]
    _freeze(*tables)
    return tables


def build_batch(
    g: Graph,
    sub: Subgraph,
    features: np.ndarray,
    labels: np.ndarray,
    split: np.ndarray,
    coeffs: NormCoeffs,
) -> Batch:
    """The minibatch of subgraph ``sub``: its rows of ``features``,
    ``labels`` and ``split``, its lambda, and its local adjacency and
    transpose (see :class:`Batch`)."""
    vals, vals_t = _arc_values(g, coeffs)
    k = sub.num_nodes
    idx = index_dtype(max(sub.num_arcs, k))
    indices, indptr = sub.col_indices.astype(idx), sub.row_offsets.astype(idx)
    _freeze(indices, indptr)  # shared by both matrices
    adjacency = sp.csr_matrix((vals[sub.arc_origin], indices, indptr), shape=(k, k))
    # The transpose differs only in its data: a shallow copy shares the
    # checked index arrays instead of running scipy's checks again.
    adjacency_t = copy.copy(adjacency)
    adjacency_t.data = vals_t[sub.arc_origin]
    return Batch(
        subgraph=sub,
        features=features[sub.nodes],
        labels=labels[sub.nodes],
        lam=coeffs.lam[sub.nodes],
        train_mask=split[sub.nodes] == TRAIN,
        adjacency=adjacency,
        adjacency_t=adjacency_t,
    )


def _narrows(w: np.ndarray) -> bool:
    """Whether a layer with weight ``w`` multiplies by the adjacency
    after the weight: ``A @ (X @ W)`` when ``W`` narrows the width, so the
    sparse product runs on the narrower side."""
    return w.shape[1] < w.shape[0]


def _forward(
    adjacency: sp.csr_matrix,
    features: np.ndarray,
    model: Model,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    keep_cache: bool = False,
    aggregate: np.ndarray | None = None,
):
    """Shared propagation loop; returns (scores, caches).

    A layer computes ``A @ (X @ W)`` when ``W`` narrows the width and
    ``(A @ X) @ W`` otherwise (see :func:`_narrows`). ``caches`` holds,
    per layer, the triple (dropout mask, left factor of ``W``'s
    gradient, output) for :func:`loss_and_grad` when ``keep_cache`` is
    set, and is empty otherwise: the left factor is the aggregate
    ``A @ X`` of an unflipped layer and the dropped-out input of a
    flipped one. A layer's output is its activation (ReLU, applied in
    place, on every layer but the last), not the pre-activation:
    ``relu(z) > 0`` equals ``z > 0`` everywhere, so the backward pass
    reads the same ReLU pattern from it. Without a cache, a layer's
    input and intermediate product are released as soon as they are
    used, so an inference pass holds about two activation matrices at
    its peak. The scores do not depend on ``keep_cache``.

    ``aggregate``, when given, is layer 0's ``A @ features``, already
    computed; it is used in place of the product when layer 0 does not
    narrow and there is no dropout.
    """
    x = features.astype(np.float64, copy=False)
    caches = []
    last = model.num_layers - 1
    for l, w in enumerate(model.weights):
        if x.shape[1] != w.shape[0]:
            raise ValueError(
                f"layer {l}: input dimension {x.shape[1]} does not match weight rows {w.shape[0]}"
            )
        if dropout > 0.0:
            if rng is None:
                raise ValueError("dropout requires an RNG")
            mask = (rng.random(x.shape) >= dropout) / (1.0 - dropout)
            xd = x * mask
        else:
            mask = None
            xd = x
        flipped = _narrows(w)
        if flipped:
            left = xd
        elif l == 0 and mask is None and aggregate is not None:
            left = aggregate
        else:
            left = adjacency @ xd
        del x, xd  # ``left`` holds what the product needs
        x = adjacency @ (left @ w) if flipped else left @ w
        if l < last:
            np.maximum(x, 0.0, out=x)
        if keep_cache:
            caches.append((mask, left, x))
        del left
    return x, caches


def forward_subgraph(
    model: Model,
    batch: Batch,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Normalized propagation over the batch subgraph.

    Returns per-node class scores and the cached activations required
    by :func:`loss_and_grad`. Dropout (training only) is applied to the
    input of every layer.
    """
    return _forward(batch.adjacency, batch.features, model, dropout=dropout, rng=rng, keep_cache=True)


def _layer0_aggregate(g: Graph, features: np.ndarray) -> np.ndarray | None:
    """The full-graph aggregate ``graph_adjacency(g) @ features``, kept
    read-only on the graph for one features object at a time
    (``graph.memoized``), or None when ``features`` has a writable array
    (``graph._frozen``). Features come from any caller, so that check
    runs on every call: an array made writable later never meets a
    stale aggregate."""
    if not _frozen(features):
        return None
    return memoized(g, "_layer0_aggregate", _build_layer0_aggregate, features)


def _build_layer0_aggregate(g: Graph, features: np.ndarray) -> np.ndarray:
    aggregate = graph_adjacency(g) @ features.astype(np.float64, copy=False)
    _freeze(aggregate)
    return aggregate


def forward_full(model: Model, g: Graph, features: np.ndarray) -> np.ndarray:
    """Full-graph inference scores (alpha == 1, no dropout), through the
    graph's shared :func:`graph_adjacency`.

    When layer 0 does not narrow (:func:`_narrows`), so that its first
    product is ``A @ features``, and ``features`` is read-only, as
    ``data_io.load_dataset`` returns it, that product is computed once
    and kept on the graph (:func:`_layer0_aggregate`): every later
    full-graph forward of the same dataset, each validation of a
    ``train`` run included, reuses it, and gives the same bits. In every
    other case the product is computed on each call.
    """
    unflipped = model.weights and not _narrows(model.weights[0])
    aggregate = _layer0_aggregate(g, features) if unflipped else None
    return _forward(graph_adjacency(g), features, model, aggregate=aggregate)[0]


def _head_loss_and_grad(scores, labels, weights, head):
    """Per-node losses and d(loss)/d(scores), already weight-scaled."""
    if head == "softmax":
        shift = scores - scores.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shift).sum(axis=1))
        losses = log_z - shift[np.arange(scores.shape[0]), labels]
        probs = np.exp(shift - log_z[:, None])
        dscores = probs
        dscores[np.arange(scores.shape[0]), labels] -= 1.0
    else:
        y = labels.astype(np.float64)
        losses = (np.maximum(scores, 0.0) - scores * y + np.log1p(np.exp(-np.abs(scores)))).sum(axis=1)
        dscores = expit(scores) - y
    return losses, dscores * weights[:, None]


def _contributing(batch: Batch) -> np.ndarray:
    """Mask of the batch nodes in the loss: training nodes with lambda > 0."""
    return batch.train_mask & (batch.lam > 0.0)


def loss_and_grad(
    model: Model,
    batch: Batch,
    scores: np.ndarray,
    caches: list,
) -> tuple[float, list[np.ndarray]]:
    """Normalized minibatch loss and exact weight gradients.

    The loss is sum over sampled training nodes of L_v / lambda_v, an
    unbiased estimate of the full-graph sum of training-node losses.
    A batch where no node contributes gives the empty sum: loss 0.0
    and zero gradients.
    ``caches`` comes from :func:`forward_subgraph`; the ReLU derivative
    of a layer is read off its cached activation.

    The backward pass follows each layer's product order. With ``dz``
    the gradient of a layer's pre-activation, an unflipped layer gives
    ``grad = (A @ X)^T dz`` and ``dX = A^T (dz W^T)``; a flipped one
    (``A @ (X @ W)``) first forms ``u = A^T dz``, as narrow as its
    output, then ``grad = X^T u`` and ``dX = u W^T``. ``X`` is the
    dropped-out input, and ``dX`` is masked by the same dropout mask.
    ``A^T`` is ``batch.adjacency_t``: its CSR product sums each row over
    ascending columns from zero, as scipy's product with the transposed
    view ``batch.adjacency.T`` does, so both give the same bits.
    """
    contributing = _contributing(batch)
    node_w = np.zeros(scores.shape[0])
    node_w[contributing] = 1.0 / batch.lam[contributing]

    losses, dscores = _head_loss_and_grad(scores, batch.labels, node_w, model.head)
    loss = float((losses * node_w).sum())

    grads: list[np.ndarray] = [None] * model.num_layers
    dout = dscores
    last = model.num_layers - 1
    for l in range(last, -1, -1):
        w = model.weights[l]
        mask, left, out = caches[l]
        dz = dout if l == last else dout * (out > 0.0)
        flipped = _narrows(w)
        if flipped:
            dz = batch.adjacency_t @ dz  # now the gradient of X @ W
        grads[l] = left.T @ dz
        if l > 0:
            dxd = dz @ w.T
            if not flipped:
                dxd = batch.adjacency_t @ dxd
            dout = dxd * mask if mask is not None else dxd
    return loss, grads


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, model: Model) -> "AdamState":
        return cls(
            m=[np.zeros_like(w) for w in model.weights],
            v=[np.zeros_like(w) for w in model.weights],
        )


def adam_step(
    model: Model,
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[Model, AdamState]:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for w, g_, m_, v_ in zip(model.weights, grads, state.m, state.v):
        m_ *= ADAM_BETA1
        m_ += (1.0 - ADAM_BETA1) * g_
        v_ *= ADAM_BETA2
        v_ += (1.0 - ADAM_BETA2) * g_**2
        w -= lr * (m_ / c1) / (np.sqrt(v_ / c2) + ADAM_EPS)
    return model, state


def f1_micro(scores: np.ndarray, labels: np.ndarray) -> float:
    """Micro-averaged F1 pooled over all (node, class) decisions.

    ``scores`` are raw model outputs. Single-label (1-D) ``labels``
    score the argmax (micro-F1 then equals accuracy); multi-label
    indicator ``labels`` score the sigmoid thresholded at 0.5
    (score > 0).
    """
    if scores.shape[0] == 0:
        raise ValueError("empty evaluation set")
    if labels.ndim == 1:
        pred = scores.argmax(axis=1)
        return float(np.count_nonzero(pred == labels) / labels.shape[0])
    pred = scores > 0.0
    truth = labels.astype(bool)
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    denom = 2 * tp + fp + fn
    # All-negative prediction matching all-negative truth is perfect.
    return 1.0 if denom == 0 else 2.0 * tp / denom


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (architecture, optimizer, schedule)."""

    hidden_dims: tuple[int, ...] = (128,)
    lr: float = 0.01
    dropout: float = 0.0
    epochs: int = 30
    batches_per_epoch: int = 1
    eval_every: int = 1
    seed: int = 0
    num_norm_subgraphs: int | None = None

    def __post_init__(self) -> None:
        for d in self.hidden_dims:
            _check_count("hidden_dims entry", d)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, found {self.lr!r:.40}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        for name in ("epochs", "batches_per_epoch", "eval_every"):
            _check_count(name, getattr(self, name))
        if self.num_norm_subgraphs is not None:
            _check_count("num_norm_subgraphs", self.num_norm_subgraphs)
        _check_seed(self.seed)


@dataclass
class Checkpoint:
    """Resumable training state at an epoch boundary.

    RNG streams are derived from (seed, iteration), so the iteration
    counter is the complete RNG state.
    """

    head: str
    weights: list[np.ndarray]
    adam_m: list[np.ndarray]
    adam_v: list[np.ndarray]
    adam_t: int
    epochs_done: int
    iteration: int
    best_weights: list[np.ndarray]
    best_val_f1: float


@dataclass
class TrainResult:
    model: Model
    log: list[str]
    test_f1: float
    coeffs: NormCoeffs
    checkpoint: Checkpoint
    skipped_batches: int = 0


def head_for(labels: np.ndarray) -> str:
    """The head a model trained on ``labels`` uses: softmax for
    single-label (1-D) labels, sigmoid for multi-label indicators."""
    return "softmax" if labels.ndim == 1 else "sigmoid"


def _fmt(x: float) -> str:
    return repr(float(x))


def train(
    g: Graph,
    features: np.ndarray,
    labels: np.ndarray,
    split: np.ndarray,
    sampler_cfg: SamplerConfig,
    train_cfg: TrainConfig,
    num_classes: int | None = None,
    resume: Checkpoint | None = None,
    stop_after_epoch: int | None = None,
) -> TrainResult:
    """Sampled-minibatch training with full-graph validation.

    Pre-processing gets the normalization coefficients from
    ``estimate_coeffs``: exact, with no draws, for the ``node``,
    ``edge``, ``edge_independent`` and ``full`` samplers unless
    ``num_norm_subgraphs`` is set; otherwise empirical, and those
    draws are reused as the first minibatches. Every other minibatch
    comes from a ``SubgraphProducer``, taken by the step that trains on
    it. Every subgraph is released once trained on, so after
    pre-processing no more than the empirical draws not yet trained on
    and the current step's subgraph are held. Stream element i always
    feeds iteration i + 1, so a resumed run sees the same subgraphs as
    an uninterrupted one.
    Each iteration builds a batch from the next subgraph, runs the
    normalized forward pass, backpropagates, and applies Adam. Only
    sampled training nodes with lambda > 0 contribute to the loss; a
    batch with none of them (an empty draw included) is skipped before
    the forward pass and counted in ``skipped_batches``. After every
    ``eval_every`` epochs the full-graph validation F1-micro is logged
    and the best model retained, with the mean loss of the epoch's
    trained batches (``nan`` when every batch was skipped); the test
    score of the best model is appended when training completes.

    ``resume`` continues from a checkpoint; ``stop_after_epoch`` ends
    the run early at an epoch boundary (the returned checkpoint resumes
    it). A run that would end before the epochs ``resume`` has done
    (0 without one) raises ValueError, as does a ``resume`` whose head
    or layer shapes differ from those that the labels, the feature
    width, ``hidden_dims`` and ``num_classes`` call for, before any
    coefficient is estimated. Fixed seeds make the metric log
    reproducible bit for bit.
    A non-finite loss or weight gradient raises :class:`NumericError`
    naming the iteration (and, for a gradient, the layer).
    """
    if not np.any(split == TRAIN):
        raise ValueError("split has no training nodes")
    head = head_for(labels)
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.ndim == 1 else labels.shape[1]
    start_epoch = 0 if resume is None else resume.epochs_done
    last_epoch = train_cfg.epochs if stop_after_epoch is None else min(train_cfg.epochs, stop_after_epoch)
    if last_epoch < start_epoch:
        raise ValueError(f"the run would end at epoch {last_epoch}, before the {start_epoch} epochs already done")

    dims = (features.shape[1],) + tuple(train_cfg.hidden_dims) + (num_classes,)
    if resume is not None:
        if resume.head != head:
            raise ValueError("checkpoint head does not match the dataset")
        found, wanted = [w.shape for w in resume.weights], list(zip(dims, dims[1:]))
        if found != wanted:
            raise ValueError(f"checkpoint layer shapes {found} do not match the requested {wanted}")

    coeffs, cached = estimate_coeffs(g, sampler_cfg, num_subgraphs=train_cfg.num_norm_subgraphs)

    if resume is None:
        model = init_model(dims, head, make_rng(train_cfg.seed, 0))
        state = AdamState.zeros_like(model)
        iteration = 0
        best_weights = [w.copy() for w in model.weights]
        best_val = -1.0
    else:
        # copies: adam_step updates the weights and moments in place
        model = Model(weights=[w.copy() for w in resume.weights], head=head)
        state = AdamState(
            m=[a.copy() for a in resume.adam_m],
            v=[a.copy() for a in resume.adam_v],
            t=resume.adam_t,
        )
        iteration = resume.iteration
        best_weights = resume.best_weights
        best_val = resume.best_val_f1

    val_idx = np.flatnonzero(split == VAL)
    test_idx = np.flatnonzero(split == TEST)
    log: list[str] = []
    skipped = 0

    # Stream element i feeds iteration i + 1: the cached pre-processing
    # draws first, then the producer continues the same stream. Each
    # step takes its own subgraph, which is released by the next step;
    # cached draws this run never trains on (already trained on before
    # a resume, or beyond its last epoch) are released up front.
    per_epoch = train_cfg.batches_per_epoch
    start = max(iteration, len(cached))
    steps = (last_epoch - start_epoch) * per_epoch
    pending = deque(cached[iteration : iteration + steps])
    del cached
    producer = SubgraphProducer(g, sampler_cfg, start=start)
    for epoch in range(start_epoch + 1, last_epoch + 1):
        epoch_losses = []
        for _ in range(per_epoch):
            sub = pending.popleft() if pending else producer.take()
            iteration += 1
            batch = build_batch(g, sub, features, labels, split, coeffs)
            if not _contributing(batch).any():
                skipped += 1
                continue
            rng = make_rng(train_cfg.seed, 2, iteration) if train_cfg.dropout > 0.0 else None
            scores, caches = forward_subgraph(model, batch, dropout=train_cfg.dropout, rng=rng)
            loss, grads = loss_and_grad(model, batch, scores, caches)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss {loss} at iteration {iteration} "
                    f"(epoch {epoch}); check learning rate and normalization"
                )
            for l, grad in enumerate(grads):
                if not np.isfinite(grad).all():
                    raise NumericError(
                        f"non-finite gradient in layer {l} at iteration {iteration} "
                        f"(epoch {epoch}); check learning rate and normalization"
                    )
            adam_step(model, grads, state, train_cfg.lr)
            epoch_losses.append(loss)

        if (epoch % train_cfg.eval_every == 0 or epoch == last_epoch) and val_idx.size:
            scores = forward_full(model, g, features)
            val_f1 = f1_micro(scores[val_idx], labels[val_idx])
            mean = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            log.append(f"iter {iteration} loss {_fmt(mean)} val_f1 {_fmt(val_f1)}")
            if val_f1 > best_val:
                best_val = val_f1
                best_weights = [w.copy() for w in model.weights]

    if best_val < 0.0:  # no validation set: fall back to the final weights
        best_weights = [w.copy() for w in model.weights]
    best_model = Model(weights=[w.copy() for w in best_weights], head=head)

    test_f1 = float("nan")
    if last_epoch == train_cfg.epochs:
        if test_idx.size:
            scores = forward_full(best_model, g, features)
            test_f1 = f1_micro(scores[test_idx], labels[test_idx])
            log.append(f"test_f1 {_fmt(test_f1)}")

    checkpoint = Checkpoint(
        head=head,
        weights=[w.copy() for w in model.weights],
        adam_m=[a.copy() for a in state.m],
        adam_v=[a.copy() for a in state.v],
        adam_t=state.t,
        epochs_done=last_epoch,
        iteration=iteration,
        best_weights=[w.copy() for w in best_weights],
        best_val_f1=best_val,
    )
    return TrainResult(
        model=best_model,
        log=log,
        test_f1=test_f1,
        coeffs=coeffs,
        checkpoint=checkpoint,
        skipped_batches=skipped,
    )


def evaluate(
    model: Model,
    g: Graph,
    features: np.ndarray,
    labels: np.ndarray,
    split: np.ndarray,
    which: int = TEST,
) -> float:
    """F1-micro of full-graph predictions on one split."""
    idx = np.flatnonzero(split == which)
    scores = forward_full(model, g, features)
    return f1_micro(scores[idx], labels[idx])

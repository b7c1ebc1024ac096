"""Subgraph-sampled minibatch training for graph convolutional networks.

The package splits into:

- :mod:`subgcn.graph`: immutable CSR graphs and node-induced subgraphs
- :mod:`subgcn.samplers`: node / edge / random-walk subgraph samplers
- :mod:`subgcn.normalization`: bias-eliminating aggregation and loss
  coefficients (exact closed forms, or empirical counters for the
  walk samplers)
- :mod:`subgcn.engine`: the GCN itself with exact gradients, Adam, and
  the training loop
- :mod:`subgcn.variance`: closed-form and Monte-Carlo variance of the
  edge estimator plus the variance-optimal edge probabilities
- :mod:`subgcn.data_io`: dataset files, artifact caches, the synthetic
  SBM dataset generator
- :mod:`subgcn.cli`: the ``subgcn`` command
"""

from .graph import Graph, Subgraph, build_graph, induced_subgraph
from .samplers import (
    Categorical,
    SamplerConfig,
    SubgraphProducer,
    draw_plan,
    edge_weights,
    make_rng,
    node_weights,
    sample,
    sample_edge_approx,
    sample_edge_independent,
    sample_mrw,
    sample_node,
    sample_rw,
)
from .normalization import NormCoeffs, estimate_coeffs
from .engine import (
    Batch,
    Model,
    TrainConfig,
    TrainResult,
    adam_step,
    evaluate,
    f1_micro,
    forward_full,
    forward_subgraph,
    init_model,
    loss_and_grad,
    train,
)
from .variance import (
    EdgeAggregates,
    edge_aggregates,
    optimal_edge_probs,
    survival_probability,
    variance_closed_form,
    variance_monte_carlo,
)
from .data_io import (
    Dataset,
    SbmSpec,
    generate_sbm,
    load_dataset,
    save_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Subgraph",
    "build_graph",
    "induced_subgraph",
    "SamplerConfig",
    "Categorical",
    "SubgraphProducer",
    "make_rng",
    "node_weights",
    "edge_weights",
    "draw_plan",
    "sample",
    "sample_node",
    "sample_edge_approx",
    "sample_edge_independent",
    "sample_rw",
    "sample_mrw",
    "NormCoeffs",
    "estimate_coeffs",
    "Model",
    "Batch",
    "TrainConfig",
    "TrainResult",
    "init_model",
    "forward_subgraph",
    "forward_full",
    "loss_and_grad",
    "adam_step",
    "f1_micro",
    "train",
    "evaluate",
    "EdgeAggregates",
    "edge_aggregates",
    "optimal_edge_probs",
    "variance_closed_form",
    "variance_monte_carlo",
    "survival_probability",
    "Dataset",
    "SbmSpec",
    "generate_sbm",
    "load_dataset",
    "save_dataset",
    "__version__",
]

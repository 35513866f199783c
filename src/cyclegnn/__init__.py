"""cyclegnn: graph neural networks with wide-kernel GIN convolutions and an
expressiveness harness (color refinement, cycle enumeration, doubled-graph
counterexamples) built on a small numpy autodiff core."""

from .data import BatchedGraph, Dataset, DatasetManifest, collate, combine_datasets, load_dataset, random_split, save_dataset
from .graph import (
    KHopIndex,
    LabeledGraph,
    bfs_distances,
    build_khop_index,
    enumerate_simple_cycles,
    make_counterexample_pair,
    wl_graph_hash,
    wl_refine,
)
from .nn import (
    CONV_GCN,
    CONV_GINE,
    CONV_GINE_PLUS,
    CONV_NAIVE_GINE_PLUS,
    ModelConfig,
    ModelParams,
    forward_node_embeddings,
    gcn_conv,
    gine_conv,
    gineplus_conv,
    graph_embeddings,
    init_params,
    mlp_forward,
    model_forward,
    naive_gineplus_conv,
    named_arrays,
    named_parameters,
    param_count,
    parameters,
    virtual_node_update,
)
from .synth import gen_cycle_union, gen_synthetic_dataset
from .tensor import (
    Adam,
    BatchNormState,
    Segments,
    Tensor,
    backward,
    batchnorm,
    bce_with_logits_masked,
    dropout,
    embedding_sum,
    gradcheck,
    load_checkpoint,
    no_grad,
    relu,
    save_checkpoint,
    segment_mean,
    segment_sum,
    sigmoid,
)
from .train import (
    EvalReport,
    TrainConfig,
    evaluate,
    prc_auc,
    roc_auc,
    run_replicates,
    train_epoch,
    train_model,
)

__version__ = "0.1.0"

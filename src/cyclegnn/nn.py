"""Convolution layers, virtual-node updates, and full multi-task graph
classifiers.

Four convolutions are provided. ``gcn`` is symmetric-normalized linear
propagation. ``gine`` is the GIN update with edge embeddings added inside the
neighbor sum. ``gine+`` widens each layer's kernel to radius K by adding
per-distance aggregates, where the distance-k sum reads node embeddings from
k layers back, keeping the receptive distance at layer l equal to l.
``naive-gine+`` takes all aggregates from the previous layer instead, which
inflates the receptive field to K times the depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import BatchedGraph
from .tensor import (
    EVAL,
    TRAIN,
    BatchNormState,
    Tensor,
    add,
    batchnorm,
    dropout,
    embedding_sum,
    gather_rows,
    matmul,
    mul,
    relu,
    segment_mean,
    segment_sum,
)

CONV_GCN = "gcn"
CONV_GINE = "gine"
CONV_NAIVE_GINE_PLUS = "naive-gine+"
CONV_GINE_PLUS = "gine+"
CONV_TYPES = (CONV_GCN, CONV_GINE, CONV_NAIVE_GINE_PLUS, CONV_GINE_PLUS)
_WIDE_CONVS = (CONV_NAIVE_GINE_PLUS, CONV_GINE_PLUS)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; all parameter shapes follow from it."""

    conv_type: str
    node_field_cards: tuple[int, ...]
    edge_field_cards: tuple[int, ...]
    num_tasks: int
    hidden: int = 100
    num_layers: int = 3
    radius: int = 1
    virtual_node: bool = False
    dropout: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "node_field_cards", tuple(int(c) for c in self.node_field_cards))
        object.__setattr__(self, "edge_field_cards", tuple(int(c) for c in self.edge_field_cards))
        if self.conv_type not in CONV_TYPES:
            raise ValueError(f"conv_type must be one of {CONV_TYPES}, got {self.conv_type!r}")
        if self.num_layers < 1 or self.hidden < 1 or self.radius < 1 or self.num_tasks < 1:
            raise ValueError("num_layers, hidden, radius and num_tasks must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not self.node_field_cards or not self.edge_field_cards:
            raise ValueError("at least one node field and one edge field are required")
        if any(c < 1 for c in self.node_field_cards + self.edge_field_cards):
            raise ValueError("feature cardinalities must be positive")

    @property
    def required_radius(self) -> int:
        """Neighbor-index depth a batch must carry for this model."""
        return self.radius if self.conv_type in _WIDE_CONVS else 1


@dataclass
class LinearParams:
    weight: Tensor  # (fan_in, fan_out)
    bias: Tensor  # (fan_out,)


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor
    state: BatchNormState


@dataclass
class MlpParams:
    """Two-layer block: width H in, 2H hidden with norm/relu/dropout, H out."""

    lin_in: LinearParams
    norm: NormParams
    lin_out: LinearParams


@dataclass
class VirtualNodeParams:
    eps: Tensor
    mlp: MlpParams


@dataclass
class LayerParams:
    edge_tables: list[Tensor]
    norm: NormParams  # block norm applied after the convolution
    mlp: MlpParams | None = None  # GIN-family update
    eps: list[Tensor] | None = None  # one vector for gine, K+1 for the wide convs
    lin: LinearParams | None = None  # gcn
    vn: VirtualNodeParams | None = None


@dataclass
class ModelParams:
    node_tables: list[Tensor]
    layers: list[LayerParams]
    classifier: LinearParams


def linear(p: LinearParams, x: Tensor) -> Tensor:
    return add(matmul(x, p.weight), p.bias)


def mlp_forward(
    p: MlpParams, x: Tensor, mode: str, drop: float, rng: np.random.Generator | None
) -> Tensor:
    h = linear(p.lin_in, x)
    h = batchnorm(h, p.norm.gamma, p.norm.beta, p.norm.state, mode)
    h = relu(h)
    h = dropout(h, drop, mode, rng)
    return linear(p.lin_out, h)


def _one_plus(eps: Tensor) -> Tensor:
    return add(eps, Tensor(np.asarray(1.0, dtype=eps.data.dtype)))


def _arc_messages(h: Tensor, layer: LayerParams, batch: BatchedGraph) -> Tensor:
    """Per-arc message: relu(h_src + edge embedding)."""
    return relu(add(gather_rows(h, batch.arc_src), embedding_sum(layer.edge_tables, batch.arc_edge_feats)))


def gine_conv(
    layer: LayerParams,
    h: Tensor,
    batch: BatchedGraph,
    mode: str,
    drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """h'_i = MLP((1+eps) h_i + sum over neighbors of relu(h_j + E(e_ij)))."""
    agg = segment_sum(_arc_messages(h, layer, batch), batch.arc_dst, batch.num_nodes)
    pre = add(mul(h, _one_plus(layer.eps[0])), agg)
    return mlp_forward(layer.mlp, pre, mode, drop, rng)


def _wide_conv(
    layer: LayerParams,
    history: list[Tensor],
    batch: BatchedGraph,
    mode: str,
    drop: float,
    rng: np.random.Generator | None,
    from_previous_only: bool,
) -> Tensor:
    if not history:
        raise ValueError("wide convolutions need at least the input embeddings in history")
    k_radius = len(layer.eps) - 1
    if k_radius >= 2 and (batch.khop is None or batch.khop.k_max < k_radius):
        raise ValueError(f"batch lacks a neighbor index of depth {k_radius}; re-collate with k_max")
    depth = len(history)  # this is layer number l, history = [h0 .. h_{l-1}]
    h_prev = history[-1]
    pre = mul(h_prev, _one_plus(layer.eps[0]))
    agg1 = segment_sum(_arc_messages(h_prev, layer, batch), batch.arc_dst, batch.num_nodes)
    pre = add(pre, mul(agg1, _one_plus(layer.eps[1])))
    for k in range(2, k_radius + 1):
        if not from_previous_only and k > depth:
            continue  # no embeddings from k layers back yet; term omitted
        source = h_prev if from_previous_only else history[depth - k]
        dst, src = batch.khop.pairs[k - 1]
        agg = segment_sum(relu(gather_rows(source, src)), dst, batch.num_nodes)
        pre = add(pre, mul(agg, _one_plus(layer.eps[k])))
    return mlp_forward(layer.mlp, pre, mode, drop, rng)


def gineplus_conv(
    layer: LayerParams,
    history: list[Tensor],
    batch: BatchedGraph,
    mode: str,
    drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Radius-K update whose distance-k sum reads embeddings from k layers
    back; distance-k terms with no such layer yet are omitted."""
    return _wide_conv(layer, history, batch, mode, drop, rng, from_previous_only=False)


def naive_gineplus_conv(
    layer: LayerParams,
    history: list[Tensor],
    batch: BatchedGraph,
    mode: str,
    drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Radius-K update with every distance-k sum reading the previous layer."""
    return _wide_conv(layer, history, batch, mode, drop, rng, from_previous_only=True)


def gcn_conv(layer: LayerParams, h: Tensor, batch: BatchedGraph, mode: str) -> Tensor:
    """Symmetric-normalized propagation with self-loops; edge embeddings are
    added to neighbor messages before normalization."""
    deg_hat = (np.bincount(batch.arc_dst, minlength=batch.num_nodes) + 1.0).astype(h.data.dtype)
    arc_norm = 1.0 / np.sqrt(deg_hat[batch.arc_dst] * deg_hat[batch.arc_src])
    msg = add(gather_rows(h, batch.arc_src), embedding_sum(layer.edge_tables, batch.arc_edge_feats))
    msg = mul(msg, Tensor(arc_norm[:, None]))
    agg = segment_sum(msg, batch.arc_dst, batch.num_nodes)
    self_msg = mul(h, Tensor((1.0 / deg_hat)[:, None]))
    return linear(layer.lin, add(agg, self_msg))


def virtual_node_update(
    vn: VirtualNodeParams,
    h_hat: Tensor,
    vn_state: Tensor,
    batch: BatchedGraph,
    mode: str,
    drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Pool each graph's nodes into its virtual state, update it through the
    virtual MLP, and broadcast the result back onto the nodes."""
    pooled = segment_sum(h_hat, batch.graph_ids, batch.num_graphs)
    new_state = mlp_forward(vn.mlp, add(mul(vn_state, _one_plus(vn.eps)), pooled), mode, drop, rng)
    return add(h_hat, gather_rows(new_state, batch.graph_ids)), new_state


def _check_batch(config: ModelConfig, batch: BatchedGraph) -> None:
    if batch.node_feats.shape[1] != len(config.node_field_cards):
        raise ValueError("batch node fields do not match the model config")
    if batch.arc_edge_feats.shape[1] != len(config.edge_field_cards):
        raise ValueError("batch edge fields do not match the model config")
    for f, card in enumerate(config.node_field_cards):
        if batch.num_nodes and int(batch.node_feats[:, f].max()) >= card:
            raise ValueError(f"node field {f} exceeds configured cardinality {card}")
    for f, card in enumerate(config.edge_field_cards):
        if batch.arc_edge_feats.shape[0] and int(batch.arc_edge_feats[:, f].max()) >= card:
            raise ValueError(f"edge field {f} exceeds configured cardinality {card}")
    need = config.required_radius
    if need >= 2 and (batch.khop is None or batch.khop.k_max < need):
        raise ValueError(f"model radius {need} needs a batch collated with k_max >= {need}")


def forward_node_embeddings(
    config: ModelConfig,
    params: ModelParams,
    batch: BatchedGraph,
    mode: str,
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """Run the embedding layer and all conv blocks; returns [h0, ..., hL].

    Block l applies: convolution, batchnorm, relu (omitted in the last
    block), dropout, then the optional virtual-node update.
    """
    _check_batch(config, batch)
    if mode == TRAIN and config.dropout > 0.0 and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    h = embedding_sum(params.node_tables, batch.node_feats)
    history = [h]
    vn_state = None
    if config.virtual_node:
        dtype = params.classifier.weight.data.dtype
        vn_state = Tensor(np.zeros((batch.num_graphs, config.hidden), dtype=dtype))
    for l, layer in enumerate(params.layers, start=1):
        if config.conv_type == CONV_GCN:
            z = gcn_conv(layer, history[-1], batch, mode)
        elif config.conv_type == CONV_GINE:
            z = gine_conv(layer, history[-1], batch, mode, config.dropout, rng)
        elif config.conv_type == CONV_NAIVE_GINE_PLUS:
            z = naive_gineplus_conv(layer, history, batch, mode, config.dropout, rng)
        else:
            z = gineplus_conv(layer, history, batch, mode, config.dropout, rng)
        z = batchnorm(z, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)
        if l < config.num_layers:
            z = relu(z)
        z = dropout(z, config.dropout, mode, rng)
        if config.virtual_node:
            z, vn_state = virtual_node_update(layer.vn, z, vn_state, batch, mode, config.dropout, rng)
        history.append(z)
    return history


def model_forward(
    config: ModelConfig,
    params: ModelParams,
    batch: BatchedGraph,
    mode: str,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Logits, one row per graph: mean-pooled final node embeddings through
    the linear classifier."""
    history = forward_node_embeddings(config, params, batch, mode, rng)
    pooled = segment_mean(history[-1], batch.graph_ids, batch.num_graphs)
    return linear(params.classifier, pooled)


def graph_embeddings(
    config: ModelConfig,
    params: ModelParams,
    batch: BatchedGraph,
    mode: str = EVAL,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mean-pooled graph representations before the classifier."""
    history = forward_node_embeddings(config, params, batch, mode, rng)
    return segment_mean(history[-1], batch.graph_ids, batch.num_graphs).data


def _mlp_param_count(hidden: int) -> int:
    h2 = 2 * hidden
    return hidden * h2 + h2 + 2 * h2 + h2 * hidden + hidden


def param_count(config: ModelConfig) -> int:
    """Exact number of trainable scalars (batchnorm scale/shift included,
    running statistics excluded)."""
    h = config.hidden
    total = sum(c * h for c in config.node_field_cards)
    per_layer = sum(c * h for c in config.edge_field_cards)  # edge embeddings
    per_layer += 2 * h  # block norm
    if config.conv_type == CONV_GCN:
        per_layer += h * h + h
    else:
        per_layer += _mlp_param_count(h)
        eps_vectors = 1 if config.conv_type == CONV_GINE else config.radius + 1
        per_layer += eps_vectors * h
    if config.virtual_node:
        per_layer += h + _mlp_param_count(h)
    total += config.num_layers * per_layer
    total += h * config.num_tasks + config.num_tasks
    return total


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: linear weights uniform in +-1/sqrt(fan_in),
    embedding rows uniform in +-0.1, eps vectors and biases zero."""
    rng = np.random.default_rng(seed)
    h = config.hidden

    def param(arr) -> Tensor:
        return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)

    def lin(fan_in: int, fan_out: int) -> LinearParams:
        bound = 1.0 / math.sqrt(fan_in)
        return LinearParams(
            weight=param(rng.uniform(-bound, bound, size=(fan_in, fan_out))),
            bias=param(np.zeros(fan_out)),
        )

    def table(card: int) -> Tensor:
        return param(rng.uniform(-0.1, 0.1, size=(card, h)))

    def norm(width: int) -> NormParams:
        return NormParams(
            gamma=param(np.ones(width)),
            beta=param(np.zeros(width)),
            state=BatchNormState.initial(width, dtype=dtype),
        )

    def mlp() -> MlpParams:
        return MlpParams(lin_in=lin(h, 2 * h), norm=norm(2 * h), lin_out=lin(2 * h, h))

    node_tables = [table(c) for c in config.node_field_cards]
    layers = []
    for _ in range(config.num_layers):
        edge_tables = [table(c) for c in config.edge_field_cards]
        if config.conv_type == CONV_GCN:
            layer = LayerParams(edge_tables=edge_tables, norm=norm(h), lin=lin(h, h))
        else:
            eps_vectors = 1 if config.conv_type == CONV_GINE else config.radius + 1
            layer = LayerParams(
                edge_tables=edge_tables,
                norm=norm(h),
                mlp=mlp(),
                eps=[param(np.zeros(h)) for _ in range(eps_vectors)],
            )
        if config.virtual_node:
            layer.vn = VirtualNodeParams(eps=param(np.zeros(h)), mlp=mlp())
        layers.append(layer)
    classifier = lin(h, config.num_tasks)
    return ModelParams(node_tables=node_tables, layers=layers, classifier=classifier)


def _named_mlp(prefix: str, p: MlpParams, params: dict, buffers: dict) -> None:
    params[f"{prefix}.lin_in.weight"] = p.lin_in.weight
    params[f"{prefix}.lin_in.bias"] = p.lin_in.bias
    params[f"{prefix}.norm.gamma"] = p.norm.gamma
    params[f"{prefix}.norm.beta"] = p.norm.beta
    buffers[f"{prefix}.norm.running_mean"] = p.norm.state
    params[f"{prefix}.lin_out.weight"] = p.lin_out.weight
    params[f"{prefix}.lin_out.bias"] = p.lin_out.bias


def _named_entries(params: ModelParams) -> tuple[dict[str, Tensor], dict[str, BatchNormState]]:
    named: dict[str, Tensor] = {}
    states: dict[str, BatchNormState] = {}
    for f, t in enumerate(params.node_tables):
        named[f"node_embed.{f}.weight"] = t
    for l, layer in enumerate(params.layers):
        for f, t in enumerate(layer.edge_tables):
            named[f"layer{l}.edge_embed.{f}.weight"] = t
        if layer.lin is not None:
            named[f"layer{l}.conv.weight"] = layer.lin.weight
            named[f"layer{l}.conv.bias"] = layer.lin.bias
        if layer.mlp is not None:
            _named_mlp(f"layer{l}.conv.mlp", layer.mlp, named, states)
        if layer.eps is not None:
            for k, e in enumerate(layer.eps):
                named[f"layer{l}.conv.eps{k}"] = e
        named[f"layer{l}.norm.gamma"] = layer.norm.gamma
        named[f"layer{l}.norm.beta"] = layer.norm.beta
        states[f"layer{l}.norm.running_mean"] = layer.norm.state
        if layer.vn is not None:
            named[f"layer{l}.vn.eps"] = layer.vn.eps
            _named_mlp(f"layer{l}.vn.mlp", layer.vn.mlp, named, states)
    named["classifier.weight"] = params.classifier.weight
    named["classifier.bias"] = params.classifier.bias
    return named, states


def norm_states(params: ModelParams) -> list:
    """Every batchnorm running-statistics state in the model."""
    return [s for s in _named_entries(params)[1].values()]


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Flat 'layer{l}.{component}.{tensor}' namespace over all parameters."""
    return _named_entries(params)[0]


def parameters(params: ModelParams) -> list[Tensor]:
    return list(named_parameters(params).values())


def named_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Parameters plus batchnorm running statistics, for checkpointing."""
    named, states = _named_entries(params)
    out: dict[str, np.ndarray] = {name: t.data for name, t in named.items()}
    for name, state in states.items():
        out[name] = state.running_mean
        out[name.replace("running_mean", "running_var")] = state.running_var
    return out


def load_arrays(params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into an initialized parameter structure."""
    named, states = _named_entries(params)
    expected = set(named) | {
        name for s in states for name in (s, s.replace("running_mean", "running_var"))
    }
    if expected != set(arrays):
        missing = sorted(expected - set(arrays))[:3]
        extra = sorted(set(arrays) - expected)[:3]
        raise ValueError(f"checkpoint does not match model (missing {missing}, unexpected {extra})")
    for name, tensor in named.items():
        arr = arrays[name]
        if arr.shape != tensor.data.shape:
            raise ValueError(f"{name}: checkpoint shape {arr.shape} != model shape {tensor.data.shape}")
        tensor.data = arr.astype(tensor.data.dtype).copy()
    for name, state in states.items():
        state.running_mean = arrays[name].astype(state.running_mean.dtype).copy()
        state.running_var = arrays[name.replace("running_mean", "running_var")].astype(
            state.running_var.dtype
        ).copy()

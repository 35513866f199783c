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

import functools
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
    no_grad,
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
_RUNNING_STATS = ("running_mean", "running_var")  # checkpoint suffixes of a batchnorm's state


def _is_int(x) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
        for name in ("node_field_cards", "edge_field_cards"):
            cards = getattr(self, name)
            if not isinstance(cards, (list, tuple)) or not all(_is_int(c) for c in cards):
                raise ValueError(f"{name} must be a list of integers, got {cards!r}")
            object.__setattr__(self, name, tuple(int(c) for c in cards))
        for name in ("num_tasks", "hidden", "num_layers", "radius"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.virtual_node, bool):
            raise ValueError(f"virtual_node must be true or false, got {self.virtual_node!r}")
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


def _arc_inputs(h: Tensor, layer: LayerParams, batch: BatchedGraph) -> Tensor:
    """Per-arc h_src + E(e), before the GIN relu or the gcn normalisation."""
    return add(gather_rows(h, batch.arc_src), embedding_sum(layer.edge_tables, batch.arc_edge_feats))


def gine_conv(
    layer: LayerParams,
    h: Tensor,
    batch: BatchedGraph,
    mode: str,
    drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """h'_i = MLP((1+eps) h_i + sum over neighbors of relu(h_j + E(e_ij))):
    the wide kernel with no distance-k terms and an unscaled 1-hop sum."""
    return _wide_conv(layer, [h], [], batch, mode, drop, rng)


def _wide_conv(
    layer: LayerParams,
    history: list[Tensor],
    far: list[Tensor],
    batch: BatchedGraph,
    mode: str,
    drop: float,
    rng: np.random.Generator | None,
) -> Tensor:
    """The GIN-family update of layer ``len(history)``, radius K = len(eps) - 1:
    MLP((1+eps_0) h_i + (1+eps_1) sum_j relu(h_j + E(e_ij)) + sum over
    k = 2.. of (1+eps_k) sum over distance-k nodes j of relu(far[k-2]_j)).

    The terms are summed left to right: self, 1-hop, then one per entry of
    ``far``. The first len(eps) terms are scaled by (1+eps_k); a term past
    the end of eps is not, which is gine's 1-hop sum."""
    if not history:
        raise ValueError("wide convolutions need at least the input embeddings in history")
    k_radius = len(layer.eps) - 1
    if len(batch.shells) < k_radius - 1:
        raise ValueError(f"batch lacks a neighbor index of depth {k_radius}; re-collate with k_max")
    h_prev = history[-1]
    terms = [h_prev, segment_sum(relu(_arc_inputs(h_prev, layer, batch)), batch.arc_dst)]
    for source, (dst, src) in zip(far, batch.shells):
        terms.append(segment_sum(relu(gather_rows(source, src)), dst))
    terms[: len(layer.eps)] = [mul(t, _one_plus(e)) for t, e in zip(terms, layer.eps)]
    summed = functools.reduce(add, terms)
    del terms  # no gradient reads the scaled terms, so they are freed before the MLP runs
    return mlp_forward(layer.mlp, summed, mode, drop, rng)


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
    return _wide_conv(layer, history, history[-2::-1][: len(layer.eps) - 2], batch, mode, drop, rng)


def naive_gineplus_conv(
    layer: LayerParams,
    history: list[Tensor],
    batch: BatchedGraph,
    mode: str,
    drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Radius-K update with every distance-k sum reading the previous layer."""
    return _wide_conv(layer, history, history[-1:] * (len(layer.eps) - 2), batch, mode, drop, rng)


def gcn_conv(layer: LayerParams, h: Tensor, batch: BatchedGraph) -> Tensor:
    """Symmetric-normalized propagation with self-loops; edge embeddings are
    added to neighbor messages before normalization."""
    deg_hat = (batch.arc_dst.counts + 1.0).astype(h.data.dtype)
    arc_norm = 1.0 / np.sqrt(deg_hat[batch.arc_dst.ids] * deg_hat[batch.arc_src.ids])
    msg = mul(_arc_inputs(h, layer, batch), Tensor(arc_norm[:, None]))
    agg = segment_sum(msg, batch.arc_dst)
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
    pooled = segment_sum(h_hat, batch.graph_ids)
    new_state = mlp_forward(vn.mlp, add(mul(vn_state, _one_plus(vn.eps)), pooled), mode, drop, rng)
    return add(h_hat, gather_rows(new_state, batch.graph_ids)), new_state


def forward_node_embeddings(
    config: ModelConfig,
    params: ModelParams,
    batch: BatchedGraph,
    mode: str,
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """Run the embedding layer and all conv blocks; returns [h0, ..., hL].

    Block l applies: convolution, batchnorm, relu (omitted in the last
    block), dropout, then the optional virtual-node update. A batch whose
    feature fields, feature values or neighbor-index depth do not fit the
    model raises ValueError before any batchnorm state changes: the
    embedding lookups and the wide-kernel depth check come first in layer 1.
    """
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
            z = gcn_conv(layer, history[-1], batch)
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
    pooled = segment_mean(history[-1], batch.graph_ids)
    return linear(params.classifier, pooled)


def graph_embeddings(config: ModelConfig, params: ModelParams, batch: BatchedGraph) -> np.ndarray:
    """Eval-mode mean-pooled graph representations before the classifier;
    records no tape."""
    with no_grad():
        history = forward_node_embeddings(config, params, batch, EVAL)
        return segment_mean(history[-1], batch.graph_ids).data


def param_count(config: ModelConfig) -> int:
    """Exact number of trainable scalars (batchnorm scale/shift included,
    running statistics excluded) of the model ``init_params`` builds, worked
    out from ``config`` alone in Python ints, so no size wraps."""
    h = int(config.hidden)
    mlp = 4 * h * h + 7 * h  # H -> 2H -> H with biases, plus the 2H-wide norm's scale and shift
    eps_vectors = 1 if config.conv_type == CONV_GINE else int(config.radius) + 1
    conv = h * h + h if config.conv_type == CONV_GCN else mlp + h * eps_vectors
    layer = conv + h * sum(config.edge_field_cards) + 2 * h + (h + mlp if config.virtual_node else 0)
    return h * sum(config.node_field_cards) + int(config.num_layers) * layer + (h + 1) * int(config.num_tasks)


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
    buffers[f"{prefix}.norm"] = p.norm.state
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
        states[f"layer{l}.norm"] = layer.norm.state
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
    """Parameters plus batchnorm running statistics ('{norm}.running_mean',
    '{norm}.running_var'), for checkpointing."""
    named, states = _named_entries(params)
    out: dict[str, np.ndarray] = {name: t.data for name, t in named.items()}
    for prefix, state in states.items():
        for stat in _RUNNING_STATS:
            out[f"{prefix}.{stat}"] = getattr(state, stat)
    return out


def load_arrays(params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into an initialized parameter structure.

    Parameters are written in place, so a parameter that ``Adam`` packed
    keeps its views into the optimizer's buffers; running statistics are
    replaced by copies."""
    named, states = _named_entries(params)
    expected = set(named) | {f"{prefix}.{stat}" for prefix in states for stat in _RUNNING_STATS}
    if expected != set(arrays):
        missing = sorted(expected - set(arrays))[:3]
        extra = sorted(set(arrays) - expected)[:3]
        raise ValueError(f"checkpoint does not match model (missing {missing}, unexpected {extra})")
    for name, tensor in named.items():
        arr = arrays[name]
        if arr.shape != tensor.data.shape:
            raise ValueError(f"{name}: checkpoint shape {arr.shape} != model shape {tensor.data.shape}")
        tensor.data[...] = arr
    for prefix, state in states.items():
        for stat in _RUNNING_STATS:
            setattr(state, stat, arrays[f"{prefix}.{stat}"].astype(getattr(state, stat).dtype).copy())

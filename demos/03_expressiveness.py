"""What the convolutions can and cannot see.

1-hop convolutions (gine, gcn) give identical graph embeddings to C3+C3 and
C6 for any weights. Widening the kernel to radius 2 separates them, because
a triangle has an empty distance-2 shell. The wide kernel still keeps the
receptive distance equal to the depth, unlike the naive variant.
"""

import numpy as np

from cyclegnn.data import collate
from cyclegnn.graph import LabeledGraph, bfs_distances
from cyclegnn.nn import ModelConfig, forward_node_embeddings, graph_embeddings, init_params
from cyclegnn.synth import gen_cycle_union, random_tree

c33, c6 = gen_cycle_union([3, 3]), gen_cycle_union([6])


def embed(conv, graph, radius=1, layers=3, seed=0):
    cfg = ModelConfig(
        conv_type=conv, node_field_cards=(1,), edge_field_cards=(1,), num_tasks=1,
        hidden=16, num_layers=layers, radius=radius, dropout=0.0,
    )
    params = init_params(cfg, seed, dtype=np.float64)
    return graph_embeddings(cfg, params, collate([graph], cfg.required_radius))


for conv in ("gine", "gcn"):
    gap = np.abs(embed(conv, c33) - embed(conv, c6)).max()
    print(f"{conv:5s}: |embedding(C3+C3) - embedding(C6)| = {gap:.2e}  (blind)")

gaps = [
    np.linalg.norm(embed("gine+", c33, radius=2, layers=2, seed=s)
                   - embed("gine+", c6, radius=2, layers=2, seed=s))
    for s in range(10)
]
print(f"gine+ K=2: separation norm across 10 seeds: min={min(gaps):.3f} max={max(gaps):.3f}")

# Locality: perturb a node beyond the receptive distance of the probe.
rng = np.random.default_rng(1)
tree = random_tree(24, rng)
dist = bfs_distances(tree, 0)
target = int(np.nonzero(dist == 4)[0][0])  # distance L+1 for L=3


def probe(conv, graph, radius=3, layers=3):
    cfg = ModelConfig(
        conv_type=conv, node_field_cards=(2,), edge_field_cards=(1,), num_tasks=1,
        hidden=16, num_layers=layers, radius=radius, dropout=0.0,
    )
    params = init_params(cfg, 2, dtype=np.float64)
    batch = collate([graph], cfg.required_radius)
    return forward_node_embeddings(cfg, params, batch, "eval")[-1].data[0]


perturbed = LabeledGraph(tree.num_nodes, tree.node_feats.copy(), tree.edges, tree.edge_feats)
perturbed.node_feats[target, 0] = 1
for conv, layers in (("gine+", 3), ("naive-gine+", 2)):
    gap = np.abs(probe(conv, tree, layers=layers) - probe(conv, perturbed, layers=layers)).max()
    print(f"{conv:12s} L={layers}: probe change after distance-4 perturbation = {gap:.2e}")

import numpy as np
import pytest

from slicegcn import synth_graph


@pytest.fixture(scope="session")
def small_graph():
    """120-node, 3-class planted partition used across engine tests."""
    return synth_graph(n=120, classes=3, d_feat=12, p_in=0.2, p_out=0.04, signal=1.0, seed=5)


@pytest.fixture(scope="session")
def wide_graph():
    """300 features and 18 classes: the graph parameter counts are taken on.

    Apart from its sizes and seed it uses the CLI's synth defaults, so
    `train --dataset synth --synth-nodes 90 --synth-classes 18
    --synth-feat 300 --seed 7` trains on this same graph.
    """
    return synth_graph(n=90, classes=18, d_feat=300, p_in=0.1, p_out=0.01, signal=1.0, seed=7)


@pytest.fixture(scope="session")
def tiny_graph():
    """30-node graph for finite-difference checks."""
    return synth_graph(n=30, classes=3, d_feat=10, p_in=0.3, p_out=0.1, signal=1.0, seed=2)


def dense_norm_adjacency(adj) -> np.ndarray:
    """Dense D^{-1/2} A D^{-1/2} oracle for the sparse aggregation."""
    n = adj.num_nodes
    a = np.zeros((n, n))
    for v in range(n):
        for u in adj.neighbors(v):
            a[v, u] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros(n)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


@pytest.fixture(scope="session")
def dense_oracle():
    return dense_norm_adjacency

"""The benchmark's workloads: one graph plus two training cells each.

Every workload trains a single-device `baseline` cell and a p=2 `sliced`
cell on the same graph, one after the other in one process (closed loop: a
cell's next epoch starts only when the previous one has ended). The graphs
are planted-partition graphs written by `inputs.py` from the run's seed.
The layer count and the sliced cell's p are the same for every workload
(`harness.LAYERS`, `harness.P`); the one-line reason for each workload is its
`why` in `BENCHMARK.json`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    classes: int
    features: int
    p_in: float  # edge probability inside a class block
    p_out: float  # edge probability across class blocks
    hidden: int
    sliced_variant: str  # variant of the p=2 cell
    epochs: int  # epochs of one training cell (also its cosine horizon)
    # Scale the timed epochs and set-ups to the reference host speed
    # (hostspeed.py); off where the probe does not track the workload.
    probed: bool
    # Input graphs of a run, from seeds seed * graphs + k; round r trains on
    # graph r mod graphs, and mean_loss averages over them.
    graphs: int = 1
    test_floor: Optional[float] = None  # minimum test metric, where it means something


WORKLOADS = {
    w.name: w
    for w in (
        # 50k nodes at the c09 graph's density (average stored degree ~8,
        # ~400k stored edges): aggregation-bound, the only workload where
        # graph load and CSR build are a visible part of set-up, and the one
        # with peak memory in the hundreds of MB. Direct slicing, so the
        # fusion layer does no work here.
        Workload(
            name="large_sparse",
            nodes=50_000,
            classes=2,
            features=32,
            p_in=2.4e-4,
            p_out=8e-5,
            hidden=128,
            sliced_variant="slice",
            epochs=1,
            # Memory-bound: the probe's slow spells are not its slow spells,
            # and scaling by them widened the spread of its rates (README).
            probed=False,
        ),
        # Cora's node, feature and class counts with ~2 undirected edges per
        # node: dense-bound. The sliced cell runs the fusion MLP (n x d x d
        # matmuls) on the master; the baseline bypasses fusion.
        Workload(
            name="wide_features",
            nodes=2708,
            classes=7,
            features=1433,
            p_in=8.2e-3,
            p_out=3.5e-4,
            hidden=256,
            sliced_variant="slice_ffse",
            epochs=4,
            probed=True,
        ),
        # The CLI defaults: epochs of a few ms, so Python glue, pool dispatch,
        # Adam over many small arrays and dropout RNG decide throughput. The
        # only workload that trains to convergence, so it carries the quality
        # check.
        Workload(
            name="small_default",
            nodes=400,
            classes=3,
            features=16,
            p_in=0.1,
            p_out=0.01,
            hidden=64,
            sliced_variant="slice_ffse",
            epochs=200,
            probed=True,
            # A 400-node graph's loss depends on the graph drawn: one graph
            # per run spread mean_loss by 0.09-0.19 over five seeds.
            graphs=4,
            # Half again chance (1/3): a training that stops learning falls
            # under it, a hard graph does not (the lowest over 30 seeds: 0.71).
            test_floor=0.5,
        ),
    )
}

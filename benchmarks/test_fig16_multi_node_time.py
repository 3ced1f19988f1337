"""F16 — Figure 16: 4-node time per particle-step vs N.

Paper content reproduced: "for small N (N < 1e4), the calculation time
is inversely proportional to the number of particles N ... the
communication between hosts, which takes constant time per one
blockstep, dominates the total cost in this regime."
"""

import numpy as np

from repro.figures import FIGURES
from repro.io import format_table

from .conftest import emit, regenerate


def test_fig16_four_node_wall(benchmark):
    rows = regenerate(benchmark, "fig16", 10)
    # latency wall: sync dominates at small N ...
    assert rows[0][2] / rows[0][1] > 0.5
    # ... and becomes negligible at large N
    assert rows[-1][2] / rows[-1][1] < 0.1
    # near-1/N fall-off at small N: fit the log-log slope over N<1e4
    small = [(n, t) for n, t, _ in rows if n <= 10_000]
    slope = np.polyfit(
        np.log([n for n, _ in small]), np.log([t for _, t in small]), 1
    )[0]
    print(f"log-log slope for N<1e4: {slope:.2f} (paper: ~ -1)")
    assert -1.1 < slope < -0.6


def test_fig16_sync_is_pure_latency(benchmark):
    # the sync component is independent of N per blockstep; per step it
    # must scale exactly as 1/n_b
    model = FIGURES["fig16"].model("us_sync")

    def sync_per_blockstep():
        return [
            model.step_time_breakdown(n).sync_us
            * model.blocks.mean_block_size(n)
            for n in (2_000, 20_000, 200_000)
        ]

    per_bs = benchmark(sync_per_blockstep)
    assert max(per_bs) / min(per_bs) < 1.001
    emit(
        "Figure 16 supplement: per-blockstep sync cost [us] (constant by design)",
        format_table(["N", "sync/blockstep"], list(zip((2000, 20000, 200000), per_bs))),
    )

"""F18 — Figure 18: 16-node (full machine) time per particle-step vs N.

Paper content reproduced: the 1/N region below N ~ 1e5 ("the main
bottleneck is again the synchronization time"), with the multi-cluster
overhead "far more severe" than the single-cluster case.
"""

import numpy as np

from repro.figures import FIGURES
from repro.io import format_table

from .conftest import emit, regenerate


def test_fig18_full_machine_wall(benchmark):
    rows = regenerate(benchmark, "fig18", 10)
    # overhead dominated at small N
    assert rows[0][2] / rows[0][1] > 0.5
    # latency region: steep fall-off below 1e5
    small = [(n, t) for n, t, _ in rows if n <= 100_000]
    slope = np.polyfit(
        np.log([n for n, _ in small]), np.log([t for _, t in small]), 1
    )[0]
    print(f"log-log slope for N<1e5: {slope:.2f} (paper: ~ -1)")
    assert slope < -0.5


def test_fig18_multi_cluster_overhead_severity(benchmark):
    """'this synchronization overhead is far more severe, because (a)
    the calculation speed itself becomes faster, (b) overhead of one
    synchronization operation becomes larger, and (c) the number of
    synchronization operations itself is larger'."""
    one_cluster = FIGURES["fig16"].model("us_total")
    four_clusters = FIGURES["fig18"].model("us_total")

    def compare(n=30_000):
        return (one_cluster.step_time_breakdown(n),
                four_clusters.step_time_breakdown(n))

    single, multi = benchmark(compare)
    ov_single = single.sync_us
    ov_multi = multi.sync_us + multi.exchange_us
    emit(
        "Figure 18 supplement: per-step comm overhead at N=3e4 [us]",
        format_table(
            ["config", "comm overhead/step"],
            [("4 nodes (1 cluster)", ov_single), ("16 nodes (4 clusters)", ov_multi)],
        ),
    )
    assert ov_multi > 3.0 * ov_single

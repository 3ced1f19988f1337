"""F17 — Figure 17: multi-cluster speed vs N (4/8/16 nodes = 1/2/4
clusters, copy algorithm between clusters).

Paper content reproduced: the crossover "rather high (N ~ 1e5)"; at
N = 1e6 the multi-cluster speedup is "significantly smaller than the
ideal speedup".
"""

from repro.figures import FIGURES
from repro.io import format_table

from .conftest import anchor, emit, regenerate


def test_fig17_multi_cluster_speed(benchmark):
    rows = regenerate(benchmark, "fig17", 10)
    # small N: single cluster wins (crossover is high)
    assert rows[0][1] > rows[0][3]
    # large N: full machine wins, ordering 4 < 8 < 16
    assert rows[-1][1] < rows[-1][2] < rows[-1][3]


def test_fig17_crossover_location(benchmark):
    assert benchmark(anchor, "fig17").within_band


def test_fig17_speedup_below_ideal(benchmark):
    figure = FIGURES["fig17"]

    def speedups():
        n = 1_000_000
        s4 = figure.model("tflops_4node").speed_gflops(n)
        return {
            c: figure.model(f"tflops_{4 * c}node").speed_gflops(n) / s4
            for c in (2, 4)
        }

    sp = benchmark(speedups)
    emit(
        "Figure 17 supplement: speedup over 1 cluster at N=1e6",
        format_table(
            ["clusters", "speedup", "ideal"],
            [(2, sp[2], 2.0), (4, sp[4], 4.0)],
        ),
    )
    assert sp[2] < 1.8  # significantly below 2
    assert sp[4] < 3.0  # significantly below 4
    assert sp[4] > sp[2] > 1.0

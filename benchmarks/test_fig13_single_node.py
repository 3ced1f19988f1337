"""F13 — Figure 13: single-node (1 host, 4 boards) speed vs N.

Paper content reproduced: speed in Gflops as a function of N for the
three softening choices; >1 Tflops at N = 2e5; speed practically
independent of the softening.
"""

from repro.figures import FIGURES, grid
from repro.io import format_table

from .conftest import anchor, emit, regenerate


def test_fig13_single_node_speed(benchmark):
    rows = regenerate(benchmark, "fig13", 12)
    # anchor: better than 1 Tflops at N = 2e5
    tflop = anchor("fig13")
    assert tflop.within_band and tflop.reproduced > tflop.paper_value
    # speed practically independent of the softening choice
    for row in rows:
        speeds = row[1:]
        assert max(speeds) / min(speeds) < 1.25
    # monotone growth over the plotted range
    series = [row[1] for row in rows]
    assert all(a < b for a, b in zip(series, series[1:]))


def test_fig13_speed_vs_peak(benchmark):
    model = FIGURES["fig13"].model("gflops_eps_const")
    ns = grid(1000, 2.0e6, 8)

    def efficiency_curve():
        return [model.efficiency(n) for n in ns]

    effs = benchmark(efficiency_curve)
    emit(
        "Figure 13 supplement: fraction of the 3.94 Tflops single-node peak",
        format_table(["N", "efficiency"], list(zip(ns, effs))),
    )
    assert effs[-1] > 0.5  # the machine is well-used at large N
    assert all(0 < e < 1 for e in effs)

"""F15 — Figure 15: in-cluster multi-node speed vs N, two softenings.

Paper content reproduced: 1/2/4-node curves; the two-node crossover at
N ~ 3000 for constant softening moving to N ~ 3e4 for eps = 4/N.
"""

from .conftest import anchor, regenerate


def test_fig15_left_panel_constant_softening(benchmark):
    rows = regenerate(benchmark, "fig15_const", 10)
    assert anchor("fig15_const").within_band
    # 4 nodes win at the large end
    assert rows[-1][3] > rows[-1][2] > rows[-1][1]


def test_fig15_right_panel_strong_softening(benchmark):
    regenerate(benchmark, "fig15_4overN", 10)
    assert anchor("fig15_4overN").within_band


def test_fig15_crossover_shift(benchmark):
    def both():
        return [anchor(key).reproduced for key in ("fig15_const", "fig15_4overN")]

    constant, strong = benchmark(both)
    # an order of magnitude apart, like the paper's panels
    assert strong > 4 * constant

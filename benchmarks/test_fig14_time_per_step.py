"""F14 — Figure 14: single-node CPU time per particle-step vs N.

Paper content reproduced: the measured curve (our full cache-aware
model), the constant-T_host fit (dashed), and the cache-hit-rate model
(dotted); the small-N DMA floor.
"""

from repro.figures import FIGURES
from repro.io import format_table
from repro.perfmodel import BlockstepDES

from .conftest import emit, regenerate


def test_fig14_time_per_step(benchmark):
    rows = regenerate(benchmark, "fig14", 12)
    # eq. 10's decomposition holds
    for n, total, _, host, hif, grape in rows:
        assert abs(total - (host + hif + grape)) < 1e-9
    # cache model below the constant fit at small N, converging at large N
    assert rows[0][1] < rows[0][2]
    assert abs(rows[-1][1] - rows[-1][2]) / rows[-1][1] < 0.05
    # DMA floor: T_comm fraction grows as N shrinks
    frac_small = rows[0][4] / rows[0][1]
    frac_large = rows[-1][4] / rows[-1][1]
    assert frac_small > frac_large


def test_fig14_des_cross_check(benchmark):
    """The DES over the block-size distribution must agree with the
    mean-block analytic curve to well within a factor of 2."""
    model = FIGURES["fig14"].model("us_cache_model")
    des = BlockstepDES(model)

    def run_des():
        return [des.run(n).time_per_step_us for n in (10_000, 100_000, 1_000_000)]

    des_times = benchmark(run_des)
    rows = []
    for n, t_des in zip((10_000, 100_000, 1_000_000), des_times):
        t_ana = model.time_per_step_us(n)
        rows.append((n, t_ana, t_des, t_des / t_ana))
        assert 0.5 < t_des / t_ana < 2.0
    emit(
        "Figure 14 cross-check: analytic vs discrete-event times [us]",
        format_table(["N", "analytic", "DES", "ratio"], rows),
    )

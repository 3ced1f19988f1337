"""F19 — Figure 19: NIC/host tuning (NS 83820 + Athlon vs Intel
82540EM + P4), plus the section-4.4 NIC survey and the Myrinet what-if.

Paper content reproduced: the tuned system wins over the whole range,
by more at small N; 36.0 Tflops at N = 1.8M; Tigon 2 helps bandwidth
but barely helps latency-bound speed.
"""

from repro.config import NICS, full_machine
from repro.io import format_table
from repro.perfmodel import MachineModel

from .conftest import anchor, emit, regenerate


def test_fig19_nic_tuning(benchmark):
    rows = regenerate(benchmark, "fig19", 10)
    gains = [100.0 * (tuned / base - 1.0) for _, base, tuned in rows]
    # upper curve dominates everywhere
    assert all(gain > 0 for gain in gains)
    # improvement larger at small N
    assert gains[0] > gains[-1]
    assert gains[0] > 50.0
    # headline: ~36 Tflops at 1.8M
    assert anchor("fig19").within_band


def test_fig19_nic_survey(benchmark):
    """Section 4.4's card-by-card results: Tigon 2's throughput without
    latency buys little; Myrinet (unaffordable that year) would have."""

    def survey(n=30_000):
        return {
            name: MachineModel(full_machine(4).with_nic(nic)).speed_gflops(n)
            for name, nic in NICS.items()
        }

    speeds = benchmark(survey)
    emit(
        "Section 4.4 NIC survey at N=3e4 [Gflops]",
        format_table(["NIC", "speed"], sorted(speeds.items())),
    )
    # Tigon 2: "somewhat better throughput, but not much improvement in
    # the latency" -> small gain at latency-bound N
    gain_tigon = speeds["tigon2"] / speeds["ns83820"] - 1
    gain_intel = speeds["intel82540em"] / speeds["ns83820"] - 1
    gain_myri = speeds["myrinet"] / speeds["ns83820"] - 1
    assert gain_tigon < 0.3 * gain_intel
    # Myrinet: "latency 5-10 times shorter" -> the biggest win
    assert gain_myri > gain_intel

"""Sensitivity analysis of the performance model.

The model has two classes of inputs: hardware constants taken from the
paper (clock, pipeline counts, NIC latency/bandwidth) and calibrated
workload/host constants (block-size law, host microseconds, sync
flights).  This module quantifies how the headline outputs — the
figure-15/17 crossovers and the figure-19 headline speed — respond to
perturbations of each input, which

* documents which conclusions are robust (the crossover *ordering*
  barely moves) and which are calibration-sensitive (absolute crossover
  N scales with the latency product), and
* provides the error bars EXPERIMENTS.md's "known deviations" implicitly
  rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from ..config import (
    MachineConfig,
    NICConfig,
    cluster_machine,
    single_node_machine,
    tuned_machine,
)
from .blockstats import BLOCK_MODELS, BlockStatModel, PowerLaw
from .comm_model import SyncModel
from .machine_model import MachineModel, crossover


@dataclass(frozen=True)
class SensitivityRow:
    """Response of one output to one perturbed input."""

    parameter: str
    scale: float
    output: float
    baseline: float

    @property
    def elasticity(self) -> float:
        """d(log output) / d(log input) estimated from this point."""
        if self.baseline <= 0 or self.output <= 0 or self.scale == 1.0:
            return float("nan")
        return float(np.log(self.output / self.baseline) / np.log(self.scale))


def _two_node_crossover(
    machine_fast: MachineConfig,
    machine_slow: MachineConfig,
    block_model: BlockStatModel | None = None,
    sync: SyncModel | None = None,
) -> float:
    fast = MachineModel(machine_fast, block_model=block_model)
    slow = MachineModel(machine_slow, block_model=block_model)
    if sync is not None:
        fast.sync = sync
    return crossover(fast, slow, 500, 3.0e5) or float("nan")


def crossover_sensitivity(scales: tuple[float, ...] = (0.5, 2.0)) -> list[SensitivityRow]:
    """How the fig. 15 two-node crossover responds to each input.

    Perturbed inputs: NIC round-trip latency, sync flights, host speed,
    and the block-size prefactor.
    """
    base_nic = cluster_machine(2).nic
    baseline = _two_node_crossover(cluster_machine(2), single_node_machine())
    rows: list[SensitivityRow] = []

    for s in scales:
        nic = NICConfig("scaled", base_nic.rtt_latency_us * s, base_nic.bandwidth_mbs)
        x = _two_node_crossover(
            cluster_machine(2, nic=nic), single_node_machine(nic=nic)
        )
        rows.append(SensitivityRow("nic_rtt_latency", s, x, baseline))

    for s in scales:
        sync = SyncModel(base_nic, flights=3.0 * s)
        x = _two_node_crossover(cluster_machine(2), single_node_machine(), sync=sync)
        rows.append(SensitivityRow("sync_flights", s, x, baseline))

    for s in scales:
        host = replace(
            cluster_machine(2).node.host,
            t_step_base_us=cluster_machine(2).node.host.t_step_base_us * s,
            t_step_miss_us=cluster_machine(2).node.host.t_step_miss_us * s,
        )
        x = _two_node_crossover(
            cluster_machine(2).with_host(host), single_node_machine().with_host(host)
        )
        rows.append(SensitivityRow("host_t_step", s, x, baseline))

    base_blocks = BLOCK_MODELS["constant"]
    for s in scales:
        blocks = BlockStatModel(
            name="scaled",
            block_size=PowerLaw(base_blocks.block_size.q0 * s,
                                base_blocks.block_size.gamma),
            step_rate=base_blocks.step_rate,
            level_mean_a=base_blocks.level_mean_a,
            level_mean_b=base_blocks.level_mean_b,
            level_sd=base_blocks.level_sd,
        )
        x = _two_node_crossover(
            cluster_machine(2), single_node_machine(), block_model=blocks
        )
        rows.append(SensitivityRow("block_size_prefactor", s, x, baseline))
    return rows


def headline_speed_sensitivity(
    n: int = 1_800_000, scales: tuple[float, ...] = (0.8, 1.25)
) -> list[SensitivityRow]:
    """How the fig. 19 tuned headline responds to host speed, NIC
    bandwidth and the hardware clock."""
    tuned = tuned_machine()
    baseline = MachineModel(tuned).speed_gflops(n)
    rows: list[SensitivityRow] = []

    for s in scales:
        host = replace(
            tuned.node.host,
            t_step_base_us=tuned.node.host.t_step_base_us * s,
            t_step_miss_us=tuned.node.host.t_step_miss_us * s,
        )
        rows.append(
            SensitivityRow(
                "host_t_step", s,
                MachineModel(tuned.with_host(host)).speed_gflops(n), baseline,
            )
        )

    for s in scales:
        nic = NICConfig(
            "scaled", tuned.nic.rtt_latency_us, tuned.nic.bandwidth_mbs * s
        )
        rows.append(
            SensitivityRow(
                "nic_bandwidth", s,
                MachineModel(tuned.with_nic(nic)).speed_gflops(n), baseline,
            )
        )
    return rows


def robust_conclusions() -> dict[str, bool]:
    """The qualitative statements that must survive any +-2x calibration
    wobble (checked over the crossover-sensitivity grid)."""
    rows = crossover_sensitivity()
    xs = [r.output for r in rows if np.isfinite(r.output)]
    return {
        # the two-node crossover stays within the paper's decade
        "crossover_in_1e3_decade": all(300 < x < 30_000 for x in xs),
        # latency-like inputs move it up, host cost moves it down
        "latency_raises_crossover": all(
            r.output > r.baseline
            for r in rows
            if r.parameter in ("nic_rtt_latency", "sync_flights") and r.scale > 1
        ),
        "host_cost_lowers_crossover": all(
            r.output < r.baseline
            for r in rows
            if r.parameter == "host_t_step" and r.scale > 1
        ),
    }

"""Cross-validation: the analytic machine model against the functional
virtual-time simulation.

The repository contains two independent renderings of the paper's
machine: the per-term analytic model (:mod:`machine_model`) and the
executable message-passing simulation (:mod:`repro.parallel`).  This
module runs a real small-N integration on the simulated machine — each
rank's compute charged by the model's own
:meth:`~repro.perfmodel.MachineModel.compute_hook` — and compares the
virtual time of the run's blocksteps against the analytic prediction
evaluated over the *actual* block sizes of the run.

Both sides price compute with one function, so on one host, where no
message is sent, they agree exactly.  On several hosts the gap is the
communication model alone: the analytic side charges butterfly flights
per blockstep (3 in the paper's calibration), the simulation pays its
literal barrier, reduction and broadcast messages and, on the 2-D
grid, every cell of a row charges host work for the whole row's
targets where the analytic share is 1/hosts of the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MachineConfig, cluster_machine
from ..core.individual import StepStatistics
from ..models.plummer import plummer_model
from ..parallel.driver import ParallelBlockIntegrator
from ..parallel.grid2d import Grid2DAlgorithm
from ..parallel.simcomm import SimNetwork
from .machine_model import MachineModel


@dataclass
class ValidationResult:
    """Outcome of one model-vs-simulation comparison."""

    n: int
    hosts: int
    blocksteps: int
    simulated_us: float
    predicted_us: float
    stats: StepStatistics

    @property
    def ratio(self) -> float:
        """Simulated over predicted wall time."""
        return self.simulated_us / self.predicted_us


def validate_grid_cluster(
    n: int = 128,
    hosts: int = 4,
    t_end: float = 0.0625,
    seed: int = 31,
    machine: MachineConfig | None = None,
    sync_flights: float | None = None,
) -> ValidationResult:
    """Run a grid-parallel integration on the virtual machine and
    compare against the analytic model.

    The simulation side: :class:`Grid2DAlgorithm` over ``hosts`` ranks
    with compute charged by ``model.compute_hook(n)``, timed from the
    end of construction (the start-up force pass is not a blockstep).
    The analytic side: ``MachineModel.blockstep_us`` summed over the
    run's actual block-size trace.  With ``hosts=1`` the two are equal.

    ``sync_flights`` overrides the model's per-blockstep flight count:

    * ``1.0`` — ideal-messaging accounting (one butterfly per
      blockstep).  The simulation comes out 7-33 % dearer on 4 hosts:
      it also pays the row reduction and column broadcast, which the
      analytic sync-only term leaves out.
    * ``None`` (default) — the production calibration (3 flights), i.e.
      the real-world MPI/TCP overhead above ideal messaging; the
      simulation then comes out ~2.5x cheaper, quantifying how much of
      the paper's wall is software overhead rather than wire latency.
    """
    from .comm_model import SyncModel

    cfg = machine if machine is not None else cluster_machine(hosts)
    model = MachineModel(cfg)
    if sync_flights is not None:
        model.sync = SyncModel(cfg.nic, flights=sync_flights)
    eps = 1.0 / 64.0
    eps2 = eps * eps

    system = plummer_model(n, seed=seed)
    net = SimNetwork(hosts, cfg.nic)
    algorithm = Grid2DAlgorithm(net, eps2, compute_time_us=model.compute_hook(n))
    integ = ParallelBlockIntegrator(system, eps2, algorithm)
    constructed_us = net.clock.elapsed
    stats = integ.run(t_end)

    predicted = float(
        np.sum([model.blockstep_us(n, float(b)) for b in stats.block_sizes])
    )
    return ValidationResult(
        n=n,
        hosts=hosts,
        blocksteps=stats.blocksteps,
        simulated_us=net.clock.elapsed - constructed_us,
        predicted_us=predicted,
        stats=stats,
    )

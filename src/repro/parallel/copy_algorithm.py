"""The "copy" algorithm (paper, sections 3.2 and 4.3).

Each node keeps a complete copy of the system.  At every blockstep the
block is split over the nodes; each node integrates its share using its
full local copy for the force calculation, and the nodes then exchange
the updated particles so all copies stay coherent.  "The amount of
communication is independent of the number of processors" — per
blockstep every node must receive the whole updated block, which is why
the multi-cluster crossover in fig. 17 sits beyond 10^5 particles.

The class is a :class:`repro.forces.direct.ForceBackend`, so it plugs
straight into the block-timestep integrator via
:class:`repro.parallel.driver.ParallelBlockIntegrator`.

Each rank's force tile is a :class:`repro.parallel.execution.RankTask`
dispatched through an :class:`~repro.parallel.execution.ExecutionBackend`
(inline by default; pass ``executor="process:4"`` to run ranks on real
cores); the virtual-time accounting is replayed by the driver in rank
order, so results are bit-identical across backends.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..forces.kernels import ForceJerkResult
from .execution import ExecutionBackend, RankTask, resolve_backend
from .simcomm import PARTICLE_BYTES, SimNetwork

#: Cost hook signature: (rank, n_i, n_j) -> microseconds of local compute.
ComputeTimeHook = Callable[[int, int, int], float]


def share_sizes(n_block: int, p: int) -> np.ndarray:
    """Sizes of the p round-robin shares ``block[rank::p]`` of a block."""
    return (n_block - np.arange(p) + p - 1) // p


class CopyAlgorithm:
    """Replicated-system parallel force backend.

    Parameters
    ----------
    network:
        The virtual-time network connecting the nodes.
    eps2:
        Softening squared for the local force engines.
    compute_time_us:
        Optional hook charging local force-computation time to each
        rank's clock (used to couple with :mod:`repro.perfmodel`).
    executor:
        Execution backend (or spec string) the rank compute runs on;
        default inline.
    """

    def __init__(
        self,
        network: SimNetwork,
        eps2: float,
        compute_time_us: ComputeTimeHook | None = None,
        executor: ExecutionBackend | str | None = None,
    ) -> None:
        self.network = network
        self.p = network.n_ranks
        self.eps2 = float(eps2)
        self.compute_time_us = compute_time_us
        self.executor = resolve_backend(executor)
        self._n = 0

    # -- ForceBackend ----------------------------------------------------------

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """All nodes receive the (identical) predicted system state.

        Prediction happens locally on each node from its coherent copy,
        so no communication is charged here.  The copy is published once
        to the execution arena — on the process backend that is one
        shared-memory write serving every rank worker.
        """
        self._n = x.shape[0]
        self.executor.publish(jx=x, jv=v, jm=m)

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Each node computes forces on its share of the block.

        The result concatenated over nodes is numerically identical to
        the serial calculation because every node evaluates complete
        force sums (no partial-force reduction is needed — the defining
        property of the copy algorithm).
        """
        n_b = xi.shape[0]
        self.executor.publish(ix=xi, iv=vi)
        # one tile per rank with a non-empty share, in rank order;
        # targets always coincide with j-copies, so self-interactions
        # are excluded positionally on every rank
        active = [r for r in range(self.p) if r < n_b]
        tasks = [
            RankTask(
                "forces",
                rank,
                {
                    "i_rows": ("stride", rank, n_b, self.p),
                    "j_rows": None,
                    "eps2": self.eps2,
                    "exclude_self": True,
                },
            )
            for rank in active
        ]
        results = self.executor.run_tasks(tasks)

        # driver-side finish: assemble rank results and replay the
        # virtual-time charges in rank-major order (identical on every
        # execution backend)
        acc = np.empty((n_b, 3))
        jerk = np.empty((n_b, 3))
        pot = np.empty(n_b)
        interactions = 0
        for rank, res in zip(active, results):
            acc[rank::self.p] = res["acc"]
            jerk[rank::self.p] = res["jerk"]
            pot[rank::self.p] = res["pot"]
            interactions += int(res["interactions"])
            if self.compute_time_us is not None:
                self.network.clock.advance(
                    rank, self.compute_time_us(rank, len(res["pot"]), self._n)
                )
        return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)

    # -- coherence traffic ---------------------------------------------------------

    def exchange_updated(self, block: np.ndarray) -> None:
        """All-gather the updated block particles and synchronise.

        Every node sends its share (~n_b/p particle records) around the
        ring and ends holding the whole updated block; a butterfly
        barrier closes the blockstep (the paper's hand-rolled
        synchronisation).
        """
        if self.p == 1:
            return
        n_b = int(block.size)
        self.network.tracer.count("net.exchange_particles", n_b)
        # ring allgather: at shift s each rank forwards the share that
        # originated s-1 hops upstream, so after p-1 shifts everyone
        # has every share; each message carries that share's actual size
        with self.network.exchange_phase("ring_allgather", n_particles=n_b):
            self.network.allgather(
                None, share_sizes(n_b, self.p) * PARTICLE_BYTES, tag=1000)
        self.network.barrier()

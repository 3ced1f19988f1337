"""The full-machine algorithm: 2-D grids inside clusters, the copy
algorithm across them (paper, section 4.3).

"Parallelization over multiple clusters is achieved by the so-called
'copy' algorithm, where each cluster maintains the complete copy of the
entire system, but integrates only its share of particles.  After one
step is finished, all clusters exchange the updated particles."

Inside each cluster the force calculation runs on the 2-D
board/host grid (:class:`repro.parallel.grid2d.Grid2DAlgorithm`); the
clusters talk over the Ethernet NICs.  This module composes the two —
the configuration of figs. 17/18 — as one force backend, so the same
block-timestep integrator drives a functional simulation of the whole
16-host machine.

All clusters share one :class:`~repro.parallel.execution.ExecutionBackend`
and their grid-cell tiles go out in a single
:meth:`~repro.parallel.execution.ExecutionBackend.run_tasks` dispatch —
on the ``process`` backend every simulated host of the machine runs
concurrently on real cores — while the per-cluster finish phases replay
the virtual-time accounting in cluster order, each on its own slice of
the dispatch's rows, bit-identical to the sequential reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import NICConfig, NIC_NS83820
from ..forces.kernels import ForceJerkResult
from .copy_algorithm import share_sizes
from .execution import ExecutionBackend, resolve_backend
from .grid2d import Grid2DAlgorithm
from .ledger import CommLedger
from .simcomm import PARTICLE_BYTES, SimNetwork


class HybridAlgorithm:
    """Copy-over-clusters of grid-inside-cluster force backend.

    Parameters
    ----------
    clusters:
        Number of clusters (each simulated with a 2x2 host grid, the
        4-host arrangement of the real machine).
    eps2:
        Softening squared.
    nic:
        Host NIC model for both the intra-cluster synchronisation and
        the inter-cluster exchange.
    hosts_per_cluster:
        Must be a perfect square (grid requirement); 4 on the real
        machine.
    compute_time_us:
        Optional per-host compute-cost hook ``(rank, n_i, n_j) -> us``
        threaded to every cluster grid (couples the simulated runs to
        :mod:`repro.perfmodel` so sustained speed is measurable).
    executor:
        Execution backend (or spec string) shared by every cluster's
        grid cells; default inline.
    """

    def __init__(
        self,
        clusters: int,
        eps2: float,
        nic: NICConfig = NIC_NS83820,
        hosts_per_cluster: int = 4,
        compute_time_us: Callable[[int, int, int], float] | None = None,
        executor: ExecutionBackend | str | None = None,
    ) -> None:
        if clusters < 1:
            raise ValueError("need at least one cluster")
        self.c = clusters
        self.eps2 = float(eps2)
        self.executor = resolve_backend(executor)
        #: One virtual network per cluster (the in-cluster traffic runs
        #: over the GRAPE network boards and host Ethernet)...
        self.cluster_nets = [SimNetwork(hosts_per_cluster, nic) for _ in range(clusters)]
        #: ...plus the cluster-to-cluster Ethernet (one rank per cluster;
        #: the four hosts drive four parallel links, modelled as 4x the
        #: per-message bandwidth of a single NIC).
        self.inter_net = SimNetwork(
            max(clusters, 2),
            NICConfig(
                name=f"{nic.name}-x{hosts_per_cluster}",
                rtt_latency_us=nic.rtt_latency_us,
                bandwidth_mbs=nic.bandwidth_mbs * hosts_per_cluster,
            ),
        )
        self.grids = [
            Grid2DAlgorithm(
                net, eps2, compute_time_us=compute_time_us, executor=self.executor
            )
            for net in self.cluster_nets
        ]
        # every cluster holds the same full copy, so the machine owner
        # publishes the arena arrays once for all grids
        for grid in self.grids:
            grid._publish_arrays = False
        self._n = 0

    # -- ForceBackend ------------------------------------------------------------

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Every cluster receives the full predicted copy (prediction is
        local to each cluster; no inter-cluster traffic)."""
        self._n = x.shape[0]
        self.executor.publish(jx=x, jv=v, jm=m)
        for grid in self.grids:
            grid.set_j_particles(x, v, m)

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Each cluster computes complete forces for its share using its
        internal 2-D grid; shares are disjoint, so assembly is exact.

        All clusters' grid-cell tiles go out in one dispatch — the full
        machine's concurrency — and the finish phases run in cluster
        order so clocks, ledgers and sums replay deterministically.
        """
        n_b = xi.shape[0]
        if indices is None:
            indices = np.arange(n_b)
        indices = np.asarray(indices)
        self.executor.publish(ix=xi, iv=vi)

        plans = []
        tiles = []
        for k in range(self.c):
            rows = np.arange(k, n_b, self.c)
            if rows.size == 0:
                continue
            plan = self.grids[k].plan_forces(
                xi[rows], vi[rows], indices[rows], i_base=rows
            )
            plans.append((k, rows, plan))
            tiles += plan.tiles
        out = self.executor.run_tasks(tiles, self.eps2)

        acc = np.empty((n_b, 3))
        jerk = np.empty((n_b, 3))
        pot = np.empty(n_b)
        interactions = 0
        lo = 0  # first output row of the next cluster's tiles
        for k, rows, plan in plans:
            cells = slice(lo, lo + plan.rows)
            lo += plan.rows
            res = self.grids[k].finish_forces(plan, ForceJerkResult(
                out.acc[cells], out.jerk[cells], out.pot[cells], 0))
            acc[rows] = res.acc
            jerk[rows] = res.jerk
            pot[rows] = res.pot
            interactions += res.interactions
        return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)

    # -- coherence ------------------------------------------------------------------

    def exchange_updated(self, block: np.ndarray) -> None:
        """Close the blockstep: inter-cluster ring allgather of the
        updated shares, intra-cluster coherence broadcasts, and a global
        synchronisation (the paper's full-machine barrier whose latency
        builds fig. 18's wall)."""
        block = np.asarray(block)
        if self.c > 1:
            # ring allgather of the updated shares between clusters
            n_b = int(block.size)
            with self.inter_net.exchange_phase(
                    "hybrid_inter", n_particles=n_b):
                self.inter_net.allgather(
                    share_sizes(n_b, self.c) * PARTICLE_BYTES, tag=7000)
        # every cluster pushes the full updated block through its grid
        for grid in self.grids:
            grid.exchange_updated(block)
        self._global_sync()

    def _global_sync(self) -> None:
        """All hosts block on the full-machine barrier: every virtual
        clock jumps to the global maximum."""
        t_max = self.elapsed_us
        for net in self.networks:
            net.clock.wait_all_until(t_max)

    # -- accounting ---------------------------------------------------------------------

    @property
    def network(self):
        """The inter-cluster network (exposes the driver's virtual-time
        interface; intra-cluster clocks are synchronised into it)."""
        return self.inter_net

    @property
    def networks(self) -> list[SimNetwork]:
        """Every network in the machine: all cluster fabrics plus the
        inter-cluster links (NICs differ, so ledgers stay separate)."""
        return [*self.cluster_nets, self.inter_net]

    @property
    def ledgers(self) -> list[CommLedger]:
        """One comm ledger per network, in :attr:`networks` order."""
        return [net.ledger for net in self.networks]

    @property
    def elapsed_us(self) -> float:
        return max(
            [net.clock.elapsed for net in self.cluster_nets]
            + [self.inter_net.clock.elapsed]
        )

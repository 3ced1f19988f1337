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

Rank ``r`` owns the contiguous rows ``bounds[r]:bounds[r+1]`` of the
block (``bounds`` the running sum of :func:`share_sizes`), so the shares'
forces in rank order are the block's and nothing is scattered back.  The
shares run through :meth:`~repro.parallel.execution.ExecutionBackend.run_shares`
(inline by default; ``executor="process:4"`` runs them on real cores),
one kernel call per worker or, under an observer, per rank; the driver
replays the virtual-time accounting in rank order, so results are
bit-identical across backends.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..forces.kernels import ForceJerkResult
from .execution import ExecutionBackend, resolve_backend
from .simcomm import PARTICLE_BYTES, SimNetwork

#: Cost hook signature: (rank, n_i, n_j) -> microseconds of local compute.
ComputeTimeHook = Callable[[int, int, int], float]


def share_sizes(n_block: int, p: int) -> np.ndarray:
    """Sizes of the p near-equal shares of a block of ``n_block``, in rank
    order: the first ``n_block % p`` hold one more (the sizes of the
    round-robin shares ``block[rank::p]``)."""
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
        self._share_table: dict[int, tuple] = {}

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
        sizes, bounds, _ = self._shares(n_b)
        # targets always coincide with j-copies, so self-interactions
        # are excluded positionally on every rank
        res = self.executor.run_shares(
            "forces", bounds, j_rows=None, eps2=self.eps2, exclude_self=True)
        # driver-side finish: replay the virtual-time charges in rank
        # order (identical on every execution backend)
        if self.compute_time_us is not None:
            for rank in range(min(self.p, n_b)):
                self.network.clock.advance(
                    rank, self.compute_time_us(rank, sizes[rank], self._n))
        return ForceJerkResult(acc=res["acc"], jerk=res["jerk"], pot=res["pot"],
                               interactions=int(res["interactions"]))

    def _shares(self, n_b: int) -> tuple[list[int], list[int], np.ndarray]:
        """The shares of an ``n_b`` block, built once per block size:
        every rank's share size, the row bounds (rank ``r`` owns rows
        ``bounds[r]:bounds[r+1]``, contiguous, in rank order) and every
        share's bytes on the wire."""
        shares = self._share_table.get(n_b)
        if shares is None:
            sizes = share_sizes(n_b, self.p)
            nbytes = sizes * PARTICLE_BYTES
            nbytes.flags.writeable = False
            shares = self._share_table[n_b] = (
                sizes.tolist(), [0, *np.cumsum(sizes).tolist()], nbytes)
        return shares

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
            self.network.allgather(self._shares(n_b)[2], tag=1000)
        self.network.barrier()

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

Every node predicts its copy to the block time itself (eqs. 6-7), as
GRAPE-6's predictor pipelines extrapolate their j-memory, so the only
particles that cross the network are the corrected block's
(:meth:`CopyAlgorithm.exchange_updated`).  The copies are identical and
so are their predictions, so one prediction serves every simulated
node: :meth:`CopyAlgorithm.predict_j` writes it into the execution
backend's resident j-set (:meth:`~repro.parallel.execution.ExecutionBackend.resident`;
on ``process:k`` it lives in the shared segment every worker reads), and
a blockstep hands the backend only the block's indices.

Rank ``r`` owns the contiguous rows ``bounds[r]:bounds[r+1]`` of the
block (``bounds`` the running sum of :func:`share_sizes`), so the shares'
forces in rank order are the block's and nothing is scattered back.  The
shares are one :class:`~repro.parallel.execution.Tile` per rank with rows,
each the resident set's force call on its rows ``block[lo:hi]``,
dispatched by :meth:`~repro.parallel.execution.ExecutionBackend.run_tasks`
(inline by default; ``executor="process:4"`` runs them on real cores),
which runs them as one kernel call per worker or, under an observer, one
per rank; the driver replays the virtual-time accounting in rank order,
so results are bit-identical across backends.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..constants import G_NBODY
from ..core.hermite_tile import predict_j_set
from ..forces.kernels import ForceJerkResult
from .execution import RESIDENT_BLOCK, RESIDENT_ROWS, ExecutionBackend, Tile, resolve_backend
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
        """All nodes receive the same (n, 3) positions and velocities and
        (n,) masses, copied into the resident j-set (at startup, and for
        probes that hand in a system; a blockstep's nodes predict their
        own, :meth:`predict_j`).  No communication is charged: each node
        holds its copy already."""
        self._n = len(m)
        self.executor.load_j(x, v, m)

    def predict_j(self, t: float, system, xp: np.ndarray, vp: np.ndarray,
                  block: np.ndarray) -> None:
        """Every node predicts its copy of ``system`` to ``t`` (eqs. 6-7
        through the jerk term, the bits of
        :func:`~repro.core.hermite_tile.predict_hermite`): one prediction
        into the resident j-set, with ``G m`` beside it, serves them all,
        and the rows ``block`` of the (N, 3) predictions ``xp``, ``vp``
        are the block's; their other rows are left as they were.  The
        forces on the block are then ``forces_on(None, None, block)``."""
        s = system
        self._n = s.n
        j_set = self.executor.resident(s.n)
        predict_j_set(t, s.t, s.pos, s.vel, s.acc, s.jerk, j_set.cj, xp, vp, block)
        np.multiply(G_NBODY, s.mass, out=j_set.gm)

    def forces_on(
        self,
        xi: np.ndarray | None,
        vi: np.ndarray | None,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Each node computes forces on its share of the block: targets
        ``xi``, ``vi`` (n_b, 3), or, with ``xi`` and ``vi`` None, the
        resident set's own particles ``indices`` (int64; what
        :meth:`predict_j` left there), whose indices are all a blockstep
        publishes.

        The result concatenated over nodes is numerically identical to
        the serial calculation because every node evaluates complete
        force sums (no partial-force reduction is needed — the defining
        property of the copy algorithm).
        """
        if not self._n:
            raise RuntimeError("set_j_particles() or predict_j() must come before forces_on()")
        if xi is None:
            if indices is None:
                raise ValueError("forces_on(None, None, indices) needs the indices")
            sizes, tiles, _ = self._shares(len(indices))
            self.executor.publish(block=indices)
        else:
            sizes, tiles, _ = self._shares(xi.shape[0])
            tiles = [Tile(rank, i_rows, RESIDENT_ROWS, True) for rank, i_rows, _, _ in tiles]
            self.executor.publish(ix=xi, iv=vi)
        res = self.executor.run_tasks(tiles, self.eps2)
        # driver-side finish: replay the virtual-time charges in rank
        # order (identical on every execution backend)
        if self.compute_time_us is not None:
            for rank in range(len(tiles)):  # the ranks with rows
                self.network.clock.advance(
                    rank, self.compute_time_us(rank, sizes[rank], self._n))
        return res

    def _shares(self, n_b: int) -> tuple[list[int], tuple[Tile, ...], np.ndarray]:
        """The shares of an ``n_b`` block, built once per block size:
        every rank's share size, the tile of every rank with rows (rank
        ``r`` owns the block's rows ``bounds[r]:bounds[r+1]``,
        contiguous, in rank order) and every share's bytes on the
        wire."""
        shares = self._share_table.get(n_b)
        if shares is None:
            sizes = share_sizes(n_b, self.p)
            bounds = [0, *np.cumsum(sizes).tolist()]
            # targets always coincide with j-copies, so self-interactions
            # are excluded positionally on every rank
            tiles = tuple(Tile(rank, slice(lo, hi), RESIDENT_BLOCK, True)
                          for rank, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
                          if hi > lo)
            nbytes = sizes * PARTICLE_BYTES
            nbytes.flags.writeable = False
            shares = self._share_table[n_b] = (sizes.tolist(), tiles, nbytes)
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
        # ring allgather: at shift s each rank forwards the share that
        # originated s-1 hops upstream, so after p-1 shifts everyone
        # has every share; each message carries that share's actual size
        with self.network.exchange_phase("ring_allgather", n_particles=n_b):
            self.network.allgather(self._shares(n_b)[2], tag=1000)
        self.network.barrier()

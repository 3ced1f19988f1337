"""The "ring" algorithm (paper, section 3.2).

Each node owns a disjoint subset of the system, "so that one particle
resides only in one processor.  In this case, with the blockstep
algorithm we need to pass around the particles in the current
blockstep, so that each processor can calculate the forces from its own
particles to particles on other processors."  (Dorband, Hemsendorf &
Merritt 2003's systolic algorithm is the reference implementation.)

The active block circulates around the ring; every hop each node adds
the partial force from its local j-subset.  The per-blockstep
communication is again independent of p, but the payload now includes
the partial accumulators, and every hop pays a latency.

The per-hop partial-force tiles are independent of one another, so
all p of them go to the configured
:class:`~repro.parallel.execution.ExecutionBackend` in one
:meth:`~repro.parallel.execution.ExecutionBackend.run_tasks` dispatch
(one kernel call per hop: their j-sets differ); the hop-order
accumulation, clock charges and systolic sends stay on the driver,
preserving the exact reassociation order (and hence bitwise results) of
the sequential loop on every backend.  Ownership is arithmetic on the
global index (rank ``r`` owns ``r, r + p, ...``), so a hop's j-set is
the slice ``r::p`` and its self-pairs are the targets whose index is
``r`` mod p.  A hop leaves only after the previous one has arrived and
the rank has computed, so each hop is its own one-message round.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..forces.kernels import ForceJerkResult
from .execution import ExecutionBackend, Tile, resolve_backend
from .simcomm import SimNetwork

#: Bytes per circulating i-particle: predicted position + velocity
#: (6 doubles) plus the partial acc/jerk/pot accumulators (7 doubles).
RING_RECORD_BYTES: int = 13 * 8


class RingAlgorithm:
    """Disjoint-subset systolic-ring force backend.

    Ownership is round-robin by global index (balanced for any block
    composition).  The partial sums accumulate in ring order
    (owner rank, owner+1, ...), so results agree with the serial
    float64 sum to rounding error but not bitwise — the contrast with
    the hardware 2-D network, whose fixed-point sums are exact.
    """

    def __init__(
        self,
        network: SimNetwork,
        eps2: float,
        compute_time_us: Callable[[int, int, int], float] | None = None,
        executor: ExecutionBackend | str | None = None,
    ) -> None:
        self.network = network
        self.p = network.n_ranks
        self.eps2 = float(eps2)
        self.compute_time_us = compute_time_us
        self.executor = resolve_backend(executor)
        self._n = 0

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Distribute the predicted system over the owners.

        Only the owner stores each particle; prediction is local (each
        node predicts its own subset), so no traffic is charged here.
        The full predicted arrays go to the execution arena once — each
        hop's tile selects its owner's strided subset by slice.
        """
        self._n = x.shape[0]
        self.executor.publish(jx=x, jv=v, jm=m)

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Circulate the block around the ring, accumulating partials.

        Self-interactions are excluded on the hops that own one of the
        targets (global index modulo p); external targets (index -1,
        or ``indices=None``) never coincide with a source.
        """
        n_b = xi.shape[0]
        p = self.p
        self.executor.publish(ix=xi, iv=vi)
        if indices is None:
            overlaps = np.zeros(p, dtype=np.int64)
        else:
            indices = np.asarray(indices)
            owned = indices[(indices >= 0) & (indices < self._n)]
            overlaps = np.bincount(owned % p, minlength=p)
        # self-exclusion via the position-coincidence convention of the
        # kernels: exclude only on hops whose locals include targets
        res = self.executor.run_tasks(
            [Tile(hop, slice(0, n_b), slice(hop, self._n, p), bool(overlaps[hop]))
             for hop in range(p)], self.eps2)

        # driver-side finish: sum the partials in hop order (the exact
        # reassociation order of the systolic circulation) and replay
        # each hop's compute charge and systolic send/recv
        acc = np.zeros((n_b, 3))
        jerk = np.zeros((n_b, 3))
        pot = np.zeros(n_b)
        interactions = 0
        ranks = np.arange(p)
        nbytes = np.array([n_b * RING_RECORD_BYTES])
        for hop in range(p):
            rank = hop  # the block visits ranks 0..p-1 (order irrelevant
            # to cost: every hop happens once per blockstep)
            n_local = len(range(rank, self._n, p))
            rows = slice(hop * n_b, (hop + 1) * n_b)
            acc += res.acc[rows]
            jerk += res.jerk[rows]
            pot += res.pot[rows]
            # count true pair interactions: n_b * n_local minus the
            # self-pairs actually present on this hop
            interactions += n_b * n_local - int(overlaps[hop])
            if self.compute_time_us is not None:
                self.network.clock.advance(
                    rank, self.compute_time_us(rank, n_b, n_local)
                )
            if hop < p - 1:
                self.network.message_round(
                    ranks[hop:hop + 1], ranks[hop + 1:hop + 2], nbytes,
                    tag=2000 + hop)

        return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)

    def exchange_updated(self, block: np.ndarray) -> None:
        """Owners keep their updated particles; only a barrier closes
        the blockstep (no coherence traffic — nothing is replicated)."""
        del block
        if self.p > 1:
            self.network.barrier()

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

The per-hop partial-force tiles are independent of one another, so they
are dispatched as :class:`repro.parallel.execution.RankTask` batches to
the configured :class:`~repro.parallel.execution.ExecutionBackend`; the
hop-order accumulation, clock charges and systolic sends stay on the
driver, preserving the exact reassociation order (and hence bitwise
results) of the sequential loop on every backend.  A hop leaves only
after the previous one has arrived and the rank has computed, so each
hop is its own one-message round.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..forces.kernels import ForceJerkResult
from .execution import ExecutionBackend, RankTask, resolve_backend
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
        self._local_idx: list[np.ndarray] = []
        self._n = 0

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Distribute the predicted system over the owners.

        Only the owner stores each particle; prediction is local (each
        node predicts its own subset), so no traffic is charged here.
        The full predicted arrays go to the execution arena once — each
        rank's task selects its strided subset by descriptor.
        """
        self._n = x.shape[0]
        all_idx = np.arange(self._n)
        self._local_idx = [all_idx[all_idx % self.p == r] for r in range(self.p)]
        self.executor.publish(jx=x, jv=v, jm=m)

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Circulate the block around the ring, accumulating partials.

        Self-interactions are excluded by comparing global indices
        against each hop's local subset.
        """
        n_b = xi.shape[0]
        if indices is None:
            indices = np.full(n_b, -1)  # external targets: no self-pairs
        self.executor.publish(ix=xi, iv=vi)

        overlaps = []
        tasks = []
        for hop in range(self.p):
            local = self._local_idx[hop]
            # self-exclusion via the position-coincidence convention of
            # the kernels: exclude only if targets overlap locals
            overlap = np.isin(indices, local, assume_unique=False)
            overlaps.append(overlap)
            tasks.append(
                RankTask(
                    "forces",
                    hop,
                    {
                        "i_rows": None,
                        "j_rows": ("stride", hop, self._n, self.p),
                        "eps2": self.eps2,
                        "exclude_self": bool(overlap.any()),
                    },
                )
            )
        results = self.executor.run_tasks(tasks)

        # driver-side finish: sum the partials in hop order (the exact
        # reassociation order of the systolic circulation) and replay
        # each hop's compute charge and systolic send/recv
        acc = np.zeros((n_b, 3))
        jerk = np.zeros((n_b, 3))
        pot = np.zeros(n_b)
        interactions = 0
        ranks = np.arange(self.p)
        nbytes = np.array([n_b * RING_RECORD_BYTES])
        for hop in range(self.p):
            rank = hop  # the block visits ranks 0..p-1 (order irrelevant
            # to cost: every hop happens once per blockstep)
            local = self._local_idx[rank]
            res = results[hop]
            acc += res["acc"]
            jerk += res["jerk"]
            pot += res["pot"]
            # count true pair interactions: n_b * n_local minus the
            # self-pairs actually present on this hop
            interactions += n_b * local.size - int(overlaps[hop].sum())
            if self.compute_time_us is not None:
                self.network.clock.advance(
                    rank, self.compute_time_us(rank, n_b, local.size)
                )
            if hop < self.p - 1:
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

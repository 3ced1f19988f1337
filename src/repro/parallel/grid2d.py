"""The 2-D hybrid algorithm (paper, section 3.2; Makino 2002).

Processors form an r x r grid; particle subsets are sliced so that
processor p_ij holds copies of subsets i (the i-side) and j (the
j-side).  One blockstep:

1. every p_ij computes partial forces on the block's members from
   subset i, using subset j as sources;
2. partials are reduced across each row to the diagonal processor
   p_ii (r-1 messages of force records per row, all rows in one
   many-to-one round);
3. p_ii corrects its block members;
4. the updated particles are broadcast along row i and column i so both
   copies stay coherent (2(r-1) messages of particle records per
   diagonal, all diagonals in one one-to-many round).

"The amount of communication for one node is O(N/r) ... the effective
communication bandwidth is increased by a factor r."  In GRAPE-6 the
same dataflow is implemented *in hardware* by the board grid of fig. 12
for up to 4 hosts — which is why single-cluster scaling (fig. 15) is so
much better than multi-cluster (fig. 17).

The r x r cell computations are independent, so :meth:`forces_on` is
split into :meth:`plan_forces` (build one
:class:`~repro.parallel.execution.Tile` per grid cell), one
:meth:`~repro.parallel.execution.ExecutionBackend.run_tasks` dispatch
(one kernel call per cell: the cells' i- or j-sets differ), and
:meth:`finish_forces` (driver-side row/column reduction replaying all
virtual-time charges in grid order).  The split also lets
:class:`repro.parallel.hybrid.HybridAlgorithm` fan the cells of *all*
clusters into one dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..forces.kernels import ForceJerkResult
from .execution import ExecutionBackend, Tile, resolve_backend
from .simcomm import PARTICLE_BYTES, SimNetwork
from .topology import Grid2D

#: Bytes per reduced force record (acc + jerk + pot = 7 doubles).
FORCE_RECORD_BYTES: int = 7 * 8


@dataclass
class GridPlan:
    """One blockstep's worth of grid-cell compute, ready to dispatch.

    ``tiles`` holds every cell's partial tile, row-major over the grid
    rows with targets; ``row_targets[row]`` are the block rows grid row
    ``row`` handles (in the caller's local frame); ``indices`` are the
    targets' global indices (for self-pair counting in the finish
    phase).  The dispatch answers with ``rows`` output rows.
    """

    n_b: int
    indices: np.ndarray
    row_targets: dict[int, np.ndarray]
    tiles: list[Tile]
    rows: int


class Grid2DAlgorithm:
    """r x r grid force backend with row-reduction and row/column
    coherence broadcasts.

    The reduction sums r float64 partials in row order — deterministic,
    and equal to the serial force up to reassociation rounding.  (On
    the real machine this reduction is the fixed-point hardware tree,
    hence exact; the emulator-backed tests in
    ``tests/integration/test_hardware_integration.py`` cover that
    stronger property.)
    """

    def __init__(
        self,
        network: SimNetwork,
        eps2: float,
        compute_time_us: Callable[[int, int, int], float] | None = None,
        executor: ExecutionBackend | str | None = None,
    ) -> None:
        self.network = network
        self.grid = Grid2D.from_ranks(network.n_ranks)
        self.eps2 = float(eps2)
        self.compute_time_us = compute_time_us
        self.executor = resolve_backend(executor)
        #: When embedded in the hybrid machine the owner publishes the
        #: (shared) arena arrays once for all clusters; standalone grids
        #: publish their own.
        self._publish_arrays = True
        self._subsets: list[np.ndarray] = []
        self._n = 0
        self._peer_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _peers(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Message-round index tables of diagonal processor p_ii, built
        on first use: the other ranks of its row (the senders of its
        reduction), and its row and column peers interleaved (the
        receivers of its coherence broadcast, in message order)."""
        peers = self._peer_tables.get(i)
        if peers is None:
            r = self.grid.r
            others = np.delete(np.arange(r), i)
            row = i * r + others
            peers = self._peer_tables[i] = (
                row, np.column_stack([row, others * r + i]).ravel())
        return peers

    def set_j_particles(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Load subset j into grid column j (by slice descriptor).

        Every processor predicts its two local subsets itself, so the
        load is communication-free.
        """
        self._n = x.shape[0]
        self._subsets = self.grid.subset_slices(self._n)
        if self._publish_arrays:
            self.executor.publish(jx=x, jv=v, jm=m)

    def _col_rows(self, col: int) -> slice:
        """Grid column ``col``'s j-subset (contiguous) as a slice."""
        subset = self._subsets[col]
        if subset.size == 0:
            return slice(0, 0)
        return slice(int(subset[0]), int(subset[-1]) + 1)

    def plan_forces(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
        i_base: np.ndarray | None = None,
    ) -> GridPlan:
        """Route block targets to grid rows and emit one tile per cell.

        ``indices`` must be the global indices of the targets (required
        to route them to rows); targets outside the system
        (indices=None) are broadcast to row 0.  ``i_base`` maps the
        caller's local target rows into the published ``ix``/``iv``
        arena arrays (used by the hybrid machine, whose clusters see
        strided shares of one published block); standalone use publishes
        ``xi``/``vi`` directly and needs no mapping.
        """
        n_b = xi.shape[0]
        if indices is None:
            indices = np.full(n_b, -1)
        indices = np.asarray(indices)
        if self._publish_arrays:
            self.executor.publish(ix=xi, iv=vi)
        r = self.grid.r

        row_targets: dict[int, np.ndarray] = {}
        tiles: list[Tile] = []
        for row in range(r):
            subset = self._subsets[row]
            if subset.size:
                lo, hi = subset[0], subset[-1]
                rows_mask = (indices >= lo) & (indices <= hi)
            else:
                rows_mask = np.zeros(n_b, dtype=bool)
            if row == 0:
                rows_mask |= indices < 0  # external targets
            rows = np.flatnonzero(rows_mask)
            if rows.size == 0:
                continue
            row_targets[row] = rows
            i_rows = rows if i_base is None else np.asarray(i_base)[rows]
            tiles += [Tile(self.grid.rank(row, col), i_rows, self._col_rows(col), True)
                      for col in range(r)]
        return GridPlan(
            n_b=n_b, indices=indices, row_targets=row_targets, tiles=tiles,
            rows=r * sum(rows.size for rows in row_targets.values()),
        )

    def finish_forces(self, plan: GridPlan, res: ForceJerkResult) -> ForceJerkResult:
        """Reduce cell partials to the diagonal: sum each row's
        partials in column order and replay every cell's compute charge
        in grid (row-major) order, then post all rows' reductions as one
        many-to-one round.  ``res`` holds the plan's tile rows in tile
        order.  Each partial leaves once its cell has computed, and no
        sender of one row's reduction receives in another's, so the one
        round is the rows' rounds back to back."""
        n_b = plan.n_b
        indices = plan.indices
        acc = np.empty((n_b, 3))
        jerk = np.empty((n_b, 3))
        pot = np.empty(n_b)
        interactions = 0
        r = self.grid.r
        lo = 0  # first output row of the next cell
        reduced = []  # (row, targets) of every row with targets

        for row in range(r):
            rows = plan.row_targets.get(row)
            if rows is None:
                continue
            partial_acc = np.zeros((rows.size, 3))
            partial_jerk = np.zeros((rows.size, 3))
            partial_pot = np.zeros(rows.size)
            for col in range(r):
                cell = slice(lo, lo + rows.size)
                lo += rows.size
                partial_acc += res.acc[cell]
                partial_jerk += res.jerk[cell]
                partial_pot += res.pot[cell]
                n_local = self._subsets[col].size
                self_pairs = int(
                    np.count_nonzero(
                        (indices[rows] >= self._subsets[col][0])
                        & (indices[rows] <= self._subsets[col][-1])
                    )
                ) if n_local else 0
                interactions += rows.size * n_local - self_pairs
                if self.compute_time_us is not None:
                    self.network.clock.advance(
                        self.grid.rank(row, col),
                        self.compute_time_us(self.grid.rank(row, col), rows.size, n_local),
                    )
            reduced.append((row, rows.size))
            acc[rows] = partial_acc
            jerk[rows] = partial_jerk
            pot[rows] = partial_pot

        if r > 1 and reduced:
            diag, targets = np.array(reduced).T
            self.network.message_round(
                np.concatenate([self._peers(i)[0] for i in diag]),
                np.repeat(diag * (r + 1), r - 1),  # p_ii is rank i(r + 1)
                np.repeat(targets * FORCE_RECORD_BYTES, r - 1),
                tag=3000,
            )
        return ForceJerkResult(acc=acc, jerk=jerk, pot=pot, interactions=interactions)

    def forces_on(
        self,
        xi: np.ndarray,
        vi: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> ForceJerkResult:
        """Row-partitioned partial forces reduced to the diagonal.

        The caller's block is split by subset membership: block members
        of subset i are handled by grid row i (see :meth:`plan_forces`).
        """
        plan = self.plan_forces(xi, vi, indices)
        return self.finish_forces(plan, self.executor.run_tasks(plan.tiles, self.eps2))

    def exchange_updated(self, block: np.ndarray) -> None:
        """Broadcast updated particles along each diagonal's row and
        column, then barrier.

        All diagonals' broadcasts are one one-to-many round: no
        diagonal processor receives in it, so every broadcast leaves
        from its sender's clock exactly as it would in a round of its
        own, and a peer reached from two diagonals receives in
        diagonal order.
        """
        r = self.grid.r
        if r == 1:
            return
        block = np.asarray(block)
        with self.network.exchange_phase(
                "grid_bcast", n_particles=int(block.size)):
            updated = []  # (diagonal, members) of every updated subset
            for i, subset in enumerate(self._subsets):
                if subset.size:
                    members = np.count_nonzero(
                        (block >= subset[0]) & (block <= subset[-1]))
                    if members:
                        updated.append((i, members))
            if updated:
                diag, members = np.array(updated).T
                self.network.message_round(
                    np.repeat(diag * (r + 1), 2 * (r - 1)),
                    np.concatenate([self._peers(i)[1] for i in diag]),
                    np.repeat(members * PARTICLE_BYTES, 2 * (r - 1)),
                    tag=4000,
                )
        self.network.barrier()

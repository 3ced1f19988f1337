"""Block-timestep scheduler.

Under the block scheme every particle has a next update time
``t_next = t + dt`` with ``dt`` a power of two and ``t`` commensurable
with ``dt``.  The scheduler repeatedly answers: *what is the next system
time, and which particles step then?*  All particles sharing the
minimum ``t_next`` form the **block**; the paper calls one such update a
blockstep, and notes that the average block size is roughly
proportional to N — the fact that makes the hardware's 48-fold
i-parallelism usable and that puts the 1/N synchronisation wall into
figs. 16 and 18.

The implementation keeps a vectorised ``t_next`` array; selection is an
O(N) scan per blockstep (numpy: a ``min``, an ``==`` and a
``flatnonzero``).  That is small beside a force evaluation at large N
but not beside the rest of a blockstep at small N: measured,
:meth:`BlockScheduler.next_block` is 2.4-3.1 us at N = 128 and 5.7-5.9 us
at N = 1024, of the 45-50 us a blockstep costs outside the force call
since the corrector is compiled (:mod:`repro.core.hermite_tile`).  So
the scheduler keeps its answer until the next :meth:`BlockScheduler.update`:
a run loop's :meth:`BlockScheduler.next_time` and the ``step()`` that
follows it share one scan.
"""

from __future__ import annotations

import numpy as np


class BlockScheduler:
    """Tracks per-particle next-update times and extracts blocks.

    Parameters
    ----------
    t:
        (N,) per-particle current times.
    dt:
        (N,) per-particle timesteps (positive).
    """

    def __init__(self, t: np.ndarray, dt: np.ndarray) -> None:
        t = np.asarray(t, dtype=np.float64)
        dt = np.asarray(dt, dtype=np.float64)
        if t.shape != dt.shape or t.ndim != 1:
            raise ValueError("t and dt must be matching 1-D arrays")
        if np.any(dt <= 0.0):
            raise ValueError("all timesteps must be positive")
        self._t_next = t + dt
        self._next: tuple[float, np.ndarray] | None = None

    @classmethod
    def from_t_next(cls, t_next: np.ndarray) -> "BlockScheduler":
        """Rebuild a scheduler from a saved ``t_next`` array.

        The checkpoint/resume path must restore the exact block state —
        reconstructing from ``(t, dt)`` would be equivalent here, but
        storing ``t_next`` verbatim keeps the invariant explicit: a
        restored scheduler emits bit-identical blocks in the same
        order.
        """
        t_next = np.array(t_next, dtype=np.float64)
        if t_next.ndim != 1 or t_next.size == 0:
            raise ValueError("t_next must be a non-empty 1-D array")
        sched = cls.__new__(cls)
        sched._t_next = t_next
        sched._next = None
        return sched

    @property
    def t_next(self) -> np.ndarray:
        """Per-particle next update times (read-only view)."""
        v = self._t_next.view()
        v.flags.writeable = False
        return v

    def next_time(self) -> float:
        """The next block time: what a run loop compares with its end
        time before a step asks :meth:`next_block` for the block (the
        same answer, found once)."""
        return self.next_block()[0]

    def next_block(self) -> tuple[float, np.ndarray]:
        """Return (t_block, indices) of the next block to integrate.

        ``indices`` are all particles whose ``t_next`` equals the global
        minimum (exact comparison: block times are sums of powers of
        two, hence exactly representable and exactly equal across
        particles in the same block).  The answer is kept until the
        next :meth:`update`; do not write into ``indices``.
        """
        answer = self._next
        if answer is None:
            t_block = float(self._t_next.min())
            # int64 whatever the platform's intp: what advance_block points into
            indices = np.flatnonzero(self._t_next == t_block).astype(np.int64, copy=False)
            answer = self._next = t_block, indices
        return answer

    def update(self, indices: np.ndarray, t_new: float, dt_new: np.ndarray) -> None:
        """Record new times/steps for the particles just integrated."""
        self._t_next[indices] = t_new + dt_new
        self._next = None

    def block_sizes_until(
        self, t: np.ndarray, dt: np.ndarray, t_end: float
    ) -> np.ndarray:
        """Dry-run helper: histogram of upcoming block sizes assuming
        steps never change.  Used by the performance model's
        block-statistics module for cross-checks."""
        t_next = t + dt
        sizes: list[int] = []
        t_next = t_next.copy()
        while True:
            tb = t_next.min()
            if tb > t_end:
                break
            mask = t_next == tb
            sizes.append(int(mask.sum()))
            t_next[mask] += dt[mask]
        return np.asarray(sizes, dtype=np.int64)

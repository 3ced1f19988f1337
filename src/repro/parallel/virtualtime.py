"""Per-rank virtual clocks.

The simulated network advances one clock per host; wall-clock estimates
for a parallel phase are the maximum across ranks.  Times are kept in
microseconds (the natural unit of the paper's latency numbers: 200 us
round trips, 67 us after tuning).

The slowest rank's time (:attr:`VirtualClock.elapsed`) is read once per
change of the clocks; a schedule run by the compiled network tile
(:mod:`repro.parallel.network_tile`) writes the clocks and hands over
that reading from the same call.
"""

from __future__ import annotations

import numpy as np


class VirtualClock:
    """Vector of per-rank virtual times in microseconds."""

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self._t = np.zeros(n_ranks)
        #: the slowest clock, or None until it is next read
        self._elapsed: float | None = 0.0

    @property
    def n_ranks(self) -> int:
        return self._t.shape[0]

    def advance(self, rank: int, dt_us: float) -> None:
        """Local computation on one rank."""
        if dt_us < 0:
            raise ValueError("time cannot run backwards")
        self._t[rank] += dt_us
        self._elapsed = None

    def now_many(self, ranks: np.ndarray) -> np.ndarray:
        """Clocks of several ranks at once."""
        return self._t[ranks]

    def wait_until_many(self, ranks: np.ndarray, t_us: np.ndarray) -> None:
        """Block each ``ranks[i]`` until ``t_us[i]``; a rank named more
        than once ends at the latest of its event times."""
        np.maximum.at(self._t, ranks, t_us)
        self._elapsed = None

    def shift_rounds(self, flight_us: np.ndarray,
                     by_receiver: np.ndarray) -> np.ndarray:
        """Run R permutation rounds back to back: in round ``i`` every
        rank posts at its clock, message ``r`` taking ``flight_us[i, r]``,
        and rank ``r`` waits for message ``by_receiver[i, r]``.

        Returns the clocks before the first round and after each one,
        ``(R + 1, n_ranks)``.  Per round this is ``arrive = t +
        flight``, then ``t = max(t, arrive[by_receiver])``: exactly
        :meth:`wait_until_many` of a round whose receivers are a
        permutation of the ranks.  The numpy tier of a schedule
        (:func:`repro.parallel.network_tile.numpy_shift_rounds`)."""
        history = np.empty((len(flight_us) + 1, self.n_ranks))
        history[0] = self._t
        for i, by in enumerate(by_receiver):
            np.maximum(history[i], (history[i] + flight_us[i])[by],
                       out=history[i + 1])
        self._t[:] = history[-1]
        self._elapsed = None
        return history

    def wait_all_until(self, t_us: float) -> None:
        """Block every rank until one event time."""
        np.maximum(self._t, t_us, out=self._t)
        self._elapsed = None

    def synchronize(self) -> float:
        """Barrier semantics: everyone jumps to the max; returns it."""
        t = self.elapsed
        self._t[:] = t
        return t

    @property
    def elapsed(self) -> float:
        """Wall-clock so far: the slowest rank's time."""
        if self._elapsed is None:
            self._elapsed = float(self._t.max())
        return self._elapsed

    def snapshot(self) -> np.ndarray:
        return self._t.copy()

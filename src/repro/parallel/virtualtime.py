"""Per-rank virtual clocks.

The simulated network advances one clock per host; wall-clock estimates
for a parallel phase are the maximum across ranks.  Times are kept in
microseconds (the natural unit of the paper's latency numbers: 200 us
round trips, 67 us after tuning).
"""

from __future__ import annotations

import numpy as np


class VirtualClock:
    """Vector of per-rank virtual times in microseconds."""

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self._t = np.zeros(n_ranks)

    @property
    def n_ranks(self) -> int:
        return self._t.shape[0]

    def advance(self, rank: int, dt_us: float) -> None:
        """Local computation on one rank."""
        if dt_us < 0:
            raise ValueError("time cannot run backwards")
        self._t[rank] += dt_us

    def advance_all(self, dt_us: float | np.ndarray) -> None:
        """Same (or per-rank) local computation on every rank."""
        self._t += dt_us

    def now_many(self, ranks: np.ndarray) -> np.ndarray:
        """Clocks of several ranks at once."""
        return self._t[ranks]

    def wait_until_many(self, ranks: np.ndarray, t_us: np.ndarray) -> None:
        """Block each ``ranks[i]`` until ``t_us[i]``; a rank named more
        than once ends at the latest of its event times."""
        np.maximum.at(self._t, ranks, t_us)

    def shift_rounds(self, flight_us: np.ndarray,
                     by_receiver: np.ndarray) -> np.ndarray:
        """Run R permutation rounds back to back: in round ``i`` every
        rank posts at its clock, message ``r`` taking ``flight_us[i, r]``,
        and rank ``r`` waits for message ``by_receiver[i, r]``.

        Returns the clocks before the first round and after each one,
        ``(R + 1, n_ranks)``.  Per round this is ``arrive = t +
        flight``, then ``t = max(t, arrive[by_receiver])``: exactly
        :meth:`wait_until_many` of a round whose receivers are a
        permutation of the ranks."""
        history = np.empty((len(flight_us) + 1, self.n_ranks))
        history[0] = self._t
        for i, by in enumerate(by_receiver):
            np.maximum(history[i], (history[i] + flight_us[i])[by],
                       out=history[i + 1])
        self._t[:] = history[-1]
        return history

    def wait_all_until(self, t_us: float) -> None:
        """Block every rank until one event time."""
        np.maximum(self._t, t_us, out=self._t)

    def synchronize(self) -> float:
        """Barrier semantics: everyone jumps to the max; returns it."""
        t = float(self._t.max())
        self._t[:] = t
        return t

    @property
    def elapsed(self) -> float:
        """Wall-clock so far: the slowest rank's time."""
        return float(self._t.max())

    @property
    def skew(self) -> float:
        """Spread between the fastest and the slowest rank."""
        return float(self._t.max() - self._t.min())

    def snapshot(self) -> np.ndarray:
        return self._t.copy()

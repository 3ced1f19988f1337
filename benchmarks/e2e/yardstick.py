"""How fast the machine is right now, in units of the reference box.

The reference box is a shared VM whose speed wanders: for seconds to
minutes at a time everything, pure Python and numpy alike, runs 10-40 %
slower, with no steal time reported (README, "Noise").  A 20 s run can
sit wholly inside such a stretch, so no statistic of its own repeats
can recover the undisturbed time.  What can be measured is how slow the
machine was during the run: the yardstick is a fixed piece of work that
belongs to the harness (no later change to ``src/`` can speed it up),
run after every repeat and floored over the run exactly like the
workload's own segments.  Its floor over the reference box's
undisturbed floor is the run's speed index, and every host time the
harness reports is divided by it.

Two kinds of segment, weighted equally, because the interference does
not hit interpreter-bound and memory-bound code alike: a pure-Python
loop, and a numpy pairwise tile with multi-megabyte temporaries.
"""

from __future__ import annotations

import time

import numpy as np

#: Floors of the two halves on the reference box in a calm 20 s window
#: of about 40 samples (2026-09-30).  They only set the scale: the
#: index reads 1.0 there.
PY_REF_S = 3.05e-3
MEM_REF_S = 23.6e-3

PY_SEGMENTS = 20
MEM_SEGMENTS = 10


class Yardstick:
    def __init__(self) -> None:
        self._x = np.random.default_rng(0).normal(size=(1024, 3))
        self.rows: list[list[float]] = []

    def sample(self) -> None:
        row = []
        for _ in range(PY_SEGMENTS):
            t0 = time.perf_counter()
            acc, seen = 0, {}
            for k in range(3000):
                acc += k * k
                seen[k & 63] = acc
            row.append(time.perf_counter() - t0)
        x = self._x
        for _ in range(MEM_SEGMENTS):
            t0 = time.perf_counter()
            dx = x[None, :, :] - x[:96, None, :]
            r2 = np.einsum("ijk,ijk->ij", dx, dx) + 0.1
            rinv = 1.0 / np.sqrt(r2)
            np.einsum("ij,ijk->ik", rinv * rinv * rinv, dx)
            np.where(r2 < 0.2, 0.0, rinv)
            row.append(time.perf_counter() - t0)
        self.rows.append(row)

    def floors(self) -> tuple[float, float]:
        """(pure-Python seconds, numpy seconds): per-segment minimum over
        all samples, summed over each half."""
        floor = np.min(np.array(self.rows), axis=0)
        return float(floor[:PY_SEGMENTS].sum()), float(floor[PY_SEGMENTS:].sum())

    def speed_index(self) -> float:
        """1.0 on the undisturbed reference box; 1.2 means this run's
        fastest moments were 20 % slower than that."""
        py, mem = self.floors()
        return 0.5 * (py / PY_REF_S + mem / MEM_REF_S)

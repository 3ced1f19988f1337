"""Discrete-event simulation of the blockstep loop.

The analytic :class:`repro.perfmodel.machine_model.MachineModel` uses
the *mean* block size; real runs mix large shallow blocks with tiny
deep ones, and per-blockstep overheads are paid per block, not per mean
block.  The DES captures that:

1. build a synthetic population of timestep *levels* (k = -log2 dt)
   matching the measured level distribution and blockstep rate
   (:class:`LevelPopulation`);
2. enumerate the blockstep schedule exactly: under static levels, a
   block occurs at every time whose odd part has scale k, and contains
   all particles with level >= k, so one coarsest period (dt = 2^-kmin)
   enumerates every distinct block composition with its rate;
3. charge every block through the same per-blockstep cost function as
   the analytic model, and report the time-per-step, speed, and block
   statistics.

Because the schedule is enumerated per level rather than per event, the
DES is O(levels), exact for static levels, and deterministic — suitable
for benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..telemetry import T_HOST, get_tracer
from .blockstats import BLOCK_MODELS, BlockStatModel
from .flops import speed_gflops
from .machine_model import MachineModel


@dataclass
class LevelPopulation:
    """Counts of particles per timestep level k (dt = 2^-k).

    ``counts[i]`` particles at ``levels[i]``; levels ascend.
    """

    levels: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.levels = np.asarray(self.levels, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.levels.shape != self.counts.shape:
            raise ValueError("levels/counts mismatch")
        if np.any(self.counts < 0):
            raise ValueError("negative level count")

    @property
    def n(self) -> float:
        return float(self.counts.sum())

    @classmethod
    def from_block_model(
        cls, n: int, model: BlockStatModel | None = None, softening: str = "constant"
    ) -> "LevelPopulation":
        """Synthesise a level census consistent with the scaling laws.

        The bulk is a discretised normal in k with the measured mean and
        width; the deep tail is then truncated at the level ``k_max``
        implied by the measured blockstep rate (blocksteps per unit
        time ~ 2^k_max — the deepest occupied level dominates the
        schedule), with the cut tail folded into k_max.  This removes
        the Gaussian-tail bias a raw normal census shows against real
        runs (deep levels in real systems are transient).
        """
        m = model if model is not None else BLOCK_MODELS[softening]
        mean = m.level_mean(n)
        sd = m.level_sd
        k_max = max(1, round(math.log2(max(2.0, m.blocksteps_per_unit_time(n)))))
        k_min = 0
        ks = np.arange(k_min, max(k_max + 1, int(mean) + 1))
        # discretised normal
        z_hi = (ks + 0.5 - mean) / sd
        z_lo = (ks - 0.5 - mean) / sd
        probs = 0.5 * (_erf_vec(z_hi / math.sqrt(2)) - _erf_vec(z_lo / math.sqrt(2)))
        probs = np.clip(probs, 0.0, None)
        if ks[-1] > k_max:
            probs[k_max - k_min] += probs[k_max - k_min + 1 :].sum()
            probs = probs[: k_max - k_min + 1]
            ks = ks[: k_max - k_min + 1]
        total = probs.sum()
        if total <= 0:
            raise ValueError("degenerate level distribution")
        counts = n * probs / total
        keep = counts > 1.0e-9
        return cls(levels=ks[keep], counts=counts[keep])

    def block_census(self) -> list[tuple[int, float, float]]:
        """Enumerate (level k, blocksteps-per-unit-time, block size).

        Blocks at scale k (times with odd part at 2^-k) occur
        ``2^(k-1)`` times per unit time (once for k=0) and contain all
        particles with level >= k.
        """
        out = []
        cum_from_deep = np.cumsum(self.counts[::-1])[::-1]
        k_max = int(self.levels.max())
        for k in range(0, k_max + 1):
            pos = int(np.searchsorted(self.levels, k))
            n_b = float(cum_from_deep[pos]) if pos < self.levels.size else 0.0
            if n_b <= 0:  # no one steps at this scale
                continue
            rate = 1.0 if k == 0 else 2.0 ** (k - 1)
            out.append((k, rate, n_b))
        return out


def _erf_vec(x: np.ndarray) -> np.ndarray:
    """Vectorised error function (math.erf over an array)."""
    return np.vectorize(math.erf)(x)


@dataclass
class DESResult:
    """Aggregate output of one DES evaluation."""

    n: int
    time_per_step_us: float
    speed_gflops: float
    mean_block_size: float
    blocksteps_per_unit_time: float
    particle_steps_per_unit_time: float


class BlockstepDES:
    """Blockstep-schedule simulation over a machine model.

    Parameters
    ----------
    model:
        The analytic machine model providing the per-blockstep cost.
    """

    def __init__(self, model: MachineModel) -> None:
        self.model = model

    def run(self, n: int, population: LevelPopulation | None = None) -> DESResult:
        """Evaluate the blockstep schedule for system size N."""
        with get_tracer().span("des.run", phase=T_HOST, n=n):
            pop = (
                population
                if population is not None
                else LevelPopulation.from_block_model(n, self.model.blocks)
            )
            census = pop.block_census()
            wall_us = 0.0
            blocksteps = 0.0
            psteps = 0.0
            for _, rate, n_b in census:
                wall_us += rate * self.model.blockstep_us(n, n_b)
                blocksteps += rate
                psteps += rate * n_b
            t_step = wall_us / psteps
        return DESResult(
            n=n,
            time_per_step_us=t_step,
            speed_gflops=speed_gflops(n, t_step),
            mean_block_size=psteps / blocksteps,
            blocksteps_per_unit_time=blocksteps,
            particle_steps_per_unit_time=psteps,
        )

"""The GRAPE-6 processor chip (paper, section 2.1 and fig. 7).

One chip = six force pipelines (8-way VMP each, so 48 i-particles in
flight), one predictor pipeline, and the private j-particle memory.
The chip streams its memory past the pipelines at 6 interactions per
clock and accumulates partial forces in on-chip fixed-point registers
under the declared block exponents.

The emulator processes an i-block in passes of ``iparallel`` (=48)
particles, mirroring the hardware schedule, and reports the clock
cycles the real chip would spend: ``ceil(n_i / 48) * 8 * n_j`` (each
pass streams the whole memory once; the 8-way VMP means 8 clocks per
j-particle per pass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ChipConfig
from .fixedpoint import combine_lanes_exact
from .memory import JParticleMemory, StripedStore
from .pipeline import PipelineFormats, partial_lanes
from .predictor_unit import predict_memory


@dataclass
class PartialForce:
    """Exact integer partial sums from one chip (or a combination of
    chips) under shared block exponents.

    ``acc`` / ``jerk`` are (n_i, 3) and ``pot`` (n_i,) object-dtype
    arrays of exact Python integers in accumulator quanta.
    """

    acc: np.ndarray
    jerk: np.ndarray
    pot: np.ndarray

    def combine(self, other: "PartialForce") -> "PartialForce":
        """Exact integer addition (the FPGA adder tree)."""
        return PartialForce(
            acc=self.acc + other.acc,
            jerk=self.jerk + other.jerk,
            pot=self.pot + other.pot,
        )


class BlockExponents:
    """Declared per-i-particle block exponents for the three outputs,
    held as the (7, n) plane stack the pipeline tile reads."""

    def __init__(self, acc: np.ndarray, jerk: np.ndarray, pot: np.ndarray) -> None:
        self.planes = np.stack([acc] * 3 + [jerk] * 3 + [pot])

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "BlockExponents":
        exponents = cls.__new__(cls)
        exponents.planes = planes
        return exponents

    acc = property(lambda self: self.planes[0])
    jerk = property(lambda self: self.planes[3])
    pot = property(lambda self: self.planes[6])

    def stacked(self, rows: slice = slice(None)) -> np.ndarray:
        """(7, n) exponents, one row per output plane of the pipeline
        tile: acc x, y, z; jerk x, y, z; pot."""
        return self.planes[:, rows]

    def bump(self, amount: int = 4) -> "BlockExponents":
        """Larger-exponent retry after an overflow."""
        return BlockExponents.from_planes(self.planes + amount)


class GrapeChip:
    """Functional model of one pipeline chip.

    Parameters
    ----------
    config:
        Clock/pipeline-count parameters (for cycle accounting).
    formats:
        Arithmetic formats shared by all chips of a machine.
    """

    def __init__(
        self, config: ChipConfig | None = None, formats: PipelineFormats | None = None,
        store: StripedStore | None = None, stripe: int = 0,
    ) -> None:
        self.config = config if config is not None else ChipConfig()
        self.formats = formats if formats is not None else PipelineFormats.default()
        self.memory = JParticleMemory(
            self.config.jmem_capacity, self.formats.pos, self.formats.word, store, stripe)

    # The chip's registers are its slot of the machine's store.

    @property
    def cycles(self) -> int:
        """Cumulative emulated clock cycles spent streaming the memory."""
        return int(self.memory.store.cycles[self.memory.stripe])

    @cycles.setter
    def cycles(self, value: int) -> None:
        self.memory.store.cycles[self.memory.stripe] = value

    @property
    def _eps2(self) -> float:
        """The softening register, set per force call by the owner system."""
        return float(self.memory.store.eps2[self.memory.stripe])

    def set_eps2(self, eps2: float) -> None:
        self.memory.store.eps2[self.memory.stripe] = eps2

    # -- memory side ---------------------------------------------------------

    def load_j_particles(self, host_index, x, v, m, **derivs) -> None:
        self.memory.load(host_index, x, v, m, **derivs)

    def predicted_j(self, t: float | None) -> tuple[np.ndarray, np.ndarray]:
        """j-side coordinates entering the pipelines: predicted by the
        on-chip predictor when a time is given, raw memory otherwise."""
        if t is None:
            return self.memory.pos_q, self.memory.vel
        return predict_memory(self.memory, t)

    # -- force side ----------------------------------------------------------

    def partial_forces(
        self,
        xi_q: np.ndarray,
        vi: np.ndarray,
        exponents: BlockExponents,
        t: float | None = None,
        i_index: np.ndarray | None = None,
    ) -> PartialForce:
        """Partial force sums on the i-block from this chip's memory.

        Processes the block in hardware passes of ``iparallel``
        particles and accumulates exactly in block floating point.
        ``i_index`` carries the host indices of the i-particles for
        self-interaction exclusion against the memory's stored indices.
        Raises :class:`repro.hardware.blockfloat.BlockFloatOverflow`
        if a contribution or total saturates (host retries).
        """
        n_i = xi_q.shape[0]
        n_j = self.memory.n
        sums = np.zeros((7, n_i), dtype=object)
        if n_j:
            xj_q, vj = self.predicted_j(t)
            cj_q = np.ascontiguousarray(xj_q.T)
            cj_v = np.ascontiguousarray(vj.T)

            stride = self.config.iparallel
            for lo in range(0, n_i, stride):
                rows = slice(lo, min(lo + stride, n_i))
                sums[:, rows] = combine_lanes_exact(
                    *partial_lanes(
                        xi_q[rows],
                        vi[rows],
                        cj_q,
                        cj_v,
                        self.memory.mass,
                        self.memory.host_index,
                        exponents.stacked(rows),
                        self._eps2,
                        self.formats,
                        i_index=i_index[rows] if i_index is not None else None,
                    )
                )
                # cycle accounting: one pass streams the whole memory; the
                # 8-way VMP spends vmp_ways clocks per j-particle per pass
                self.cycles += self.config.vmp_ways * n_j

        return PartialForce(acc=sums[:3].T, jerk=sums[3:6].T, pot=sums[6])


def charge_block(store: StripedStore, config: ChipConfig, n_i: int) -> None:
    """Charge each chip of ``store`` the cycles one i-block costs it, as
    the batched datapath must: ``ceil(n_i / iparallel)`` passes of
    ``vmp_ways`` clocks per stored j-particle - what the faithful
    :meth:`GrapeChip.partial_forces` accrues pass by pass (a chip holding
    nothing makes no pass), as one array operation over the machine's
    chips, which share ``config``."""
    if n_i <= 0:
        return
    passes = -(-n_i // config.iparallel)
    store.cycles += passes * config.vmp_ways * store.sizes

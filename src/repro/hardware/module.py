"""Processor module: 4 chips + one summation unit (paper, fig. 5).

"Each processor module consists of 4 processor chips each with its
memory, and one summation unit.  The structure of a processor module is
the same as that of the processor board, except that it has 4 processor
chips instead of 8 processor modules."
"""

from __future__ import annotations

import numpy as np

from ..config import ChipConfig
from .chip import BlockExponents, GrapeChip, PartialForce
from .memory import StripedStore
from .pipeline import PipelineFormats
from .summation import reduce_partials


class ProcessorModule:
    """Four chips sharing a broadcast input and a summation unit."""

    def __init__(
        self,
        chips: int = 4,
        config: ChipConfig | None = None,
        formats: PipelineFormats | None = None,
        store: StripedStore | None = None, first: int = 0,
    ) -> None:
        if chips < 1:
            raise ValueError("a module needs at least one chip")
        self.formats = formats if formats is not None else PipelineFormats.default()
        self.chips = [GrapeChip(config, self.formats, store, first + i) for i in range(chips)]

    def set_eps2(self, eps2: float) -> None:
        for chip in self.chips:
            chip.set_eps2(eps2)

    def partial_forces(
        self,
        xi_q: np.ndarray,
        vi: np.ndarray,
        exponents: BlockExponents,
        t: float | None = None,
        i_index: np.ndarray | None = None,
    ) -> PartialForce:
        """Broadcast the i-block to all chips, sum their partials."""
        return reduce_partials(
            chip.partial_forces(xi_q, vi, exponents, t, i_index) for chip in self.chips
        )

    @property
    def jmem_used(self) -> int:
        return sum(chip.memory.n for chip in self.chips)

    @property
    def cycles(self) -> int:
        """Busy cycles of the slowest chip (chips run in lockstep, so
        the module time is the maximum, which equals every chip's count
        when loads are balanced)."""
        return max(chip.cycles for chip in self.chips)

"""Processor board: 8 modules, broadcast + reduction networks (fig. 4).

"It houses 8 processor modules.  The processor board has one broadcast
network which broadcasts data from the input port to all processor
modules, and one reduction network which reduces the results obtained
on 32 chips and returns to the host through the output port."
"""

from __future__ import annotations

import numpy as np

from ..config import BoardConfig
from .chip import BlockExponents, GrapeChip, PartialForce
from .memory import StripedStore
from .module import ProcessorModule
from .pipeline import PipelineFormats
from .summation import reduce_partials


class ProcessorBoard:
    """Eight processor modules behind one broadcast/reduction pair."""

    def __init__(
        self,
        config: BoardConfig | None = None,
        formats: PipelineFormats | None = None,
        store: StripedStore | None = None, first: int = 0,
    ) -> None:
        self.config = config if config is not None else BoardConfig()
        self.formats = formats if formats is not None else PipelineFormats.default()
        per = self.config.chips_per_module
        self.modules = [
            ProcessorModule(per, self.config.chip, self.formats, store, first + m * per)
            for m in range(self.config.modules)
        ]

    @property
    def all_chips(self) -> list[GrapeChip]:
        return [chip for module in self.modules for chip in module.chips]

    def set_eps2(self, eps2: float) -> None:
        for module in self.modules:
            module.set_eps2(eps2)

    def partial_forces(
        self,
        xi_q: np.ndarray,
        vi: np.ndarray,
        exponents: BlockExponents,
        t: float | None = None,
        i_index: np.ndarray | None = None,
    ) -> PartialForce:
        """Broadcast to the modules and reduce their partial sums."""
        return reduce_partials(
            module.partial_forces(xi_q, vi, exponents, t, i_index)
            for module in self.modules
        )

    @property
    def jmem_used(self) -> int:
        return sum(module.jmem_used for module in self.modules)

    @property
    def cycles(self) -> int:
        return max(module.cycles for module in self.modules)

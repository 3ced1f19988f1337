"""Functional emulator of the GRAPE-6 hardware (paper, sections 2-3).

The emulator reproduces the *numerical architecture* of the machine —
the properties the paper argues for in section 3.4 — rather than its
gate-level detail:

* j-particle positions live in 64-bit **fixed point**; pairwise
  coordinate differences are exact (``fixedpoint``);
* velocities and the predictor coefficients are stored in **reduced-
  precision floating point** (``floatformat``);
* each pairwise force is computed to roughly single precision
  (the real chip's logarithmic format) and then accumulated in a
  64-bit fixed-point register under a pre-declared **block floating
  point** exponent (``blockfloat``); all partial sums — pipeline,
  chip, module, board, host — are exact integer additions, so

      **the result is bit-identical for any partitioning of the
      j-particles over chips/modules/boards/machine sizes**,

  which is the paper's headline numerical claim, enforced here by
  property-based tests;
* if a partial force overflows the declared exponent, the hardware
  saturates and the host retries with a larger exponent ("we sometimes
  need to repeat the force calculation a few times").

The structural hierarchy mirrors figs. 4-7: 6 pipelines x 8-way VMP per
chip, 4 chips + an FPGA summation unit per module, 8 modules per board,
4 boards per host.
"""

from .fixedpoint import FixedPointFormat, exact_int_sum
from .floatformat import FloatFormat
from .blockfloat import BlockFloatAccumulator, BlockFloatOverflow
from .batched import gather_chips
from .chip import GrapeChip
from .memory import GatheredJSet, JParticleMemory
from .board import ProcessorBoard
from .module import ProcessorModule
from .system import EMULATION_MODES, Grape6Emulator, EmulatorStats
from .netboard import NetworkBoard, PartitionedCluster
from .links import LVDSLink, LinkBudget, board_link_budget
from .selftest import SelfTestReport, run_selftest
from .grape4 import grape4_sum

__all__ = [
    "FixedPointFormat",
    "FloatFormat",
    "BlockFloatAccumulator",
    "BlockFloatOverflow",
    "exact_int_sum",
    "GatheredJSet",
    "gather_chips",
    "EMULATION_MODES",
    "JParticleMemory",
    "GrapeChip",
    "ProcessorModule",
    "ProcessorBoard",
    "Grape6Emulator",
    "EmulatorStats",
    "NetworkBoard",
    "PartitionedCluster",
    "LVDSLink",
    "LinkBudget",
    "board_link_budget",
    "SelfTestReport",
    "run_selftest",
    "grape4_sum",
]

"""Vectorised (batched) emulator datapath.

The faithful datapath walks the machine the way the hardware does:
board -> module -> chip, each chip streaming its private j-memory past
the pipelines in passes of 48 i-particles, with the partial sums
carried up the FPGA adder tree as exact big integers.  That schedule
is what makes the emulator honest — and what makes it slow: the Python
interpreter pays per chip and per pass, and the object-dtype integer
arithmetic pays per element.

Section 3.4's block-floating-point design licenses a shortcut.  Every
pairwise contribution is quantised *independently* under the declared
block exponent, and every summation — pipeline, chip, module, board,
host — is exact integer addition.  The force is therefore a pure
function of the **multiset** of quantised pairwise contributions; how
they are partitioned over chips and in what order they are added
cannot change a single bit.  So we may evaluate the full (n_i, n_j)
interaction over all chip memories at once in one call of the pipeline
tile (:func:`repro.hardware.pipeline.forces`: the sums of
:func:`~repro.hardware.pipeline.partial_lanes`, the function every chip
of the faithful schedule runs on its own memory, kept as two-lane int64
carry-save sums and range-checked and converted to forces beside the
tile, from targets quantised in the same call) — and the result is
bit-identical to the per-chip schedule, enforced by the emulation-mode
property tests.

The j-set the tile streams costs nothing to assemble: the machine's
memories are one :class:`~repro.hardware.memory.StripedStore` whose
buffers, in host order and in the tile's component-major layout, *are*
that j-set, written in place by each load and bound for the tile once
per allocation (``StripedStore.j_set``).  Only after a direct chip load
(the store no longer describes every chip) are the memories gathered,
by :func:`gather_chips`, and bound for the call.

Cycle accounting is preserved: each chip is charged the cycles the
real schedule would have cost it (``ceil(n_i/48) * vmp_ways * n_j``
for its own memory size, one array operation over the store's stripe
table), and the per-contribution saturation check and the
total-overflow check raise the same
:class:`~repro.hardware.blockfloat.BlockFloatOverflow` the host retry
loop expects.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .chip import GrapeChip
from .memory import GatheredJSet


def gather_chips(chips: list[GrapeChip]) -> GatheredJSet:
    """Concatenate the chip memories into one contiguous j-set.

    The concatenation order (machine order) is irrelevant to the
    result — the reduction is exact — but keeping it deterministic
    makes the gathered arrays reproducible for debugging.
    """
    mems = [chip.memory for chip in chips]
    return GatheredJSet(
        *(np.concatenate([getattr(m, f.name) for m in mems]) for f in fields(GatheredJSet))
    )

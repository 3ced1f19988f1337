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
cannot change a single bit.  So we may gather all chip memories into
one contiguous j-array and evaluate the full (n_i, n_j) interaction in
one call of the pipeline tile (:func:`repro.hardware.pipeline.partial_lanes`,
the same function every chip of the faithful schedule runs on its own
memory), keeping the two-lane int64 carry-save sums unrecombined — and
the result is bit-identical to the per-chip schedule, enforced by the
emulation-mode property tests.

Cycle accounting is preserved: each chip is charged the cycles the
real schedule would have cost it (``ceil(n_i/48) * vmp_ways * n_j``
for its own memory size), and the per-contribution saturation check
and the total-overflow check raise the same
:class:`~repro.hardware.blockfloat.BlockFloatOverflow` the host retry
loop expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.predictor import predict_with_snap
from .chip import GrapeChip
from .pipeline import PipelineFormats


@dataclass
class GatheredJSet:
    """All chip memories of a machine as contiguous j-arrays.

    Built once per jmem load (not per force call) and cached by the
    emulator; ``version`` is the sum of the source memories' write
    generations, so any reload — including direct chip loads by the
    ``g6_*`` host library — invalidates the cache.

    ``chip_sizes`` records how many j-particles each chip holds, in
    machine order, for cycle accounting: the batched path charges each
    chip what the faithful schedule would have.  ``cpos_q`` / ``cvel``
    are the component-major (3, n) blocks the pipeline tile streams,
    transposed here once per load instead of once per force call.
    """

    pos_q: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    host_index: np.ndarray
    acc: np.ndarray
    jerk: np.ndarray
    snap: np.ndarray
    t0: np.ndarray
    chip_sizes: tuple[int, ...]
    version: int
    cpos_q: np.ndarray = field(init=False)
    cvel: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.cpos_q = np.ascontiguousarray(self.pos_q.T)
        self.cvel = np.ascontiguousarray(self.vel.T)

    @property
    def n(self) -> int:
        return self.pos_q.shape[0]


def memory_version(chips: list[GrapeChip]) -> int:
    """Cache key: total write generation of the chip memories."""
    return sum(chip.memory.version for chip in chips)


def gather_chips(chips: list[GrapeChip]) -> GatheredJSet:
    """Concatenate the chip memories into one contiguous j-set.

    The concatenation order (machine order) is irrelevant to the
    result — the reduction is exact — but keeping it deterministic
    makes the gathered arrays reproducible for debugging.
    """
    version = memory_version(chips)
    mems = [chip.memory for chip in chips]
    return GatheredJSet(
        pos_q=np.concatenate([m.pos_q for m in mems], axis=0),
        vel=np.concatenate([m.vel for m in mems], axis=0),
        mass=np.concatenate([m.mass for m in mems], axis=0),
        host_index=np.concatenate([m.host_index for m in mems], axis=0),
        acc=np.concatenate([m.acc for m in mems], axis=0),
        jerk=np.concatenate([m.jerk for m in mems], axis=0),
        snap=np.concatenate([m.snap for m in mems], axis=0),
        t0=np.concatenate([m.t0 for m in mems], axis=0),
        chip_sizes=tuple(m.n for m in mems),
        version=version,
    )


def predict_gather(
    gather: GatheredJSet, formats: PipelineFormats, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Predictor-pipeline pass over the gathered j-set.

    Identical per particle to
    :func:`repro.hardware.predictor_unit.predict_memory` on the owning
    chip's memory — the predictor polynomial, the re-quantisation onto
    the fixed-point grid and the word rounding are all elementwise —
    but evaluated for the whole machine in one vectorised call, and
    returned component-major like ``cpos_q`` / ``cvel``.
    """
    x0 = formats.pos.dequantize(gather.pos_q)
    xp, vp = predict_with_snap(
        t, gather.t0, x0, gather.vel, gather.acc, gather.jerk, gather.snap
    )
    return (
        np.ascontiguousarray(formats.pos.quantize(xp, saturate=True).T),
        np.ascontiguousarray(formats.word.round(vp).T),
    )

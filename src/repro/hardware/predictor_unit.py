"""On-chip predictor pipeline (paper, eqs. 6-7 and fig. 7).

Each GRAPE-6 chip contains one predictor pipeline that extrapolates the
j-particles in its memory to the current system time before they enter
the force pipelines.  The emulator evaluates the predictor polynomial
on the *stored* (format-rounded) coefficients and re-quantises the
predicted position onto the fixed-point grid — so prediction is a pure
function of the memory contents and the time, and therefore identical
no matter which chip a particle lives on.

The paper's eq. (6) carries the hardware sign convention for the
``a^(2)`` term (see :mod:`repro.core.predictor`); since the integrators
upload zero snap by default the distinction only matters in
hardware-accurate mode, where we follow the paper verbatim.
"""

from __future__ import annotations

import numpy as np

from ..core.predictor import predict_with_snap
from .pipeline import quantize, round_float


def predict_memory(mem, t: float, formats=None) -> tuple[np.ndarray, np.ndarray]:
    """Predict all particles of a memory bank to time ``t`` - or of any
    rows in ``formats``, such as a machine's whole j-set: every step is
    elementwise, so a particle predicts alike on any chip.

    Returns
    -------
    pos_q:
        Predicted positions on the fixed-point grid (int64, (n, 3)).
    vel:
        Predicted velocities in the chip's float word format.
    """
    pos, word = (mem.pos_format, mem.word_format) if formats is None else (
        formats.pos, formats.word)
    x0 = pos.dequantize(mem.pos_q)
    xp, vp = predict_with_snap(t, mem.t0, x0, mem.vel, mem.acc, mem.jerk, mem.snap)
    return quantize(pos, xp, saturate=True), round_float(word, vp)
